open Secmed_mediation

exception Transport_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Transport_error msg)) fmt

type conn = {
  fd : Unix.file_descr;
  peer : string;
  stream : Wire.Stream.t;
  send_mu : Mutex.t;
  mutable wbuf : Bytes.t;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable closed : bool;
  mutable peer_closed : bool;  (* a read met end of file or a reset *)
  mutable reader : Thread.t option;
}

(* A write to a peer-reset or locally-shutdown socket must surface as
   [EPIPE] -> [Transport_error] at the writer, not kill the process:
   OCaml leaves SIGPIPE at its fatal default.  Installed once, here,
   because every networked secmed process goes through this module. *)
let () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* Process-wide transport volume, summed over every connection.
   Interned eagerly at module init (see the note in {!Endpoint}) and
   bumped unconditionally: lossy-but-safe unsynchronised counters, like
   the transcript's. *)
let m_bytes_sent = Secmed_obs.Metrics.counter "net.bytes_sent"
let m_bytes_recv = Secmed_obs.Metrics.counter "net.bytes_recv"
let m_frames_sent = Secmed_obs.Metrics.counter "net.frames_sent"
let m_frames_recv = Secmed_obs.Metrics.counter "net.frames_recv"

(* Per-connection send scratch: header + body assembled in one reused
   buffer so the steady-state frame path allocates nothing.  Capped so a
   rare oversized frame (which takes the allocating fallback) cannot pin
   megabytes to every connection; chunked deliveries sit far below the
   cap by construction. *)
let hwm_send = Secmed_obs.Hwm.region "io.send"
let max_inline_frame = 1 lsl 18
let read_quantum = 65536

let set_fd_timeout fd seconds =
  (* 0. disables the timeout (the setsockopt convention). *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds

let of_fd ?(timeout = 0.) ~peer fd =
  if timeout > 0. then set_fd_timeout fd timeout;
  Secmed_obs.Hwm.alloc hwm_send 256;
  {
    fd;
    peer;
    stream = Wire.Stream.create ();
    send_mu = Mutex.create ();
    wbuf = Bytes.create 256;
    bytes_in = 0;
    bytes_out = 0;
    closed = false;
    peer_closed = false;
    reader = None;
  }

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

(* The one HOST:PORT syntax of every address flag.  IPv4 only, so a
   host never holds a ':'; an empty host is the loopback address. *)
let parse_addr s =
  let bad why = Error (Printf.sprintf "bad address %S (%s)" s why) in
  match String.split_on_char ':' s with
  | [ host; _ ] when String.exists (fun c -> String.contains ",;= \t" c) host ->
    bad "bad character in HOST"
  | [ host; port ] -> (
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && String.for_all (fun c -> c >= '0' && c <= '9') port ->
      Ok ((if String.equal host "" then "127.0.0.1" else host), p)
    | _ -> bad "PORT must be 1-65535")
  | _ -> bad "expected HOST:PORT"

let connect ?timeout ~host ~port () =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found | Invalid_argument _ -> (
      try Unix.inet_addr_of_string host
      with Failure _ -> fail "connect: unknown host %s" host)
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (addr, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail "connect %s:%d: %s" host port (Unix.error_message e));
  of_fd ?timeout ~peer:(Printf.sprintf "%s:%d" host port) fd

(* Backlog sized for a loadgen fleet's connect burst: admission answers
   fast (admit or typed Busy), so the queue only has to absorb the SYN
   spike, not hold sessions. *)
let listen ?(backlog = 256) ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd backlog
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail "listen %s:%d: %s" host port (Unix.error_message e));
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let accept ?timeout fd =
  match Unix.accept ~cloexec:true fd with
  | client_fd, addr ->
    (try Unix.setsockopt client_fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
    of_fd ?timeout ~peer:(string_of_sockaddr addr) client_fd
  | exception Unix.Unix_error (e, _, _) -> fail "accept: %s" (Unix.error_message e)

let set_timeout t seconds = set_fd_timeout t.fd seconds
let closed_by_peer t = t.peer_closed
let bytes_in t = t.bytes_in
let bytes_out t = t.bytes_out

(* A full write in the face of short writes, EINTR, and timeouts.  The
   caller holds [send_mu], so the frame lands contiguously even when
   several session threads share the connection. *)
let write_all_sub t b first len =
  let off = ref first in
  let len = first + len in
  while !off < len do
    match Unix.write t.fd b !off (len - !off) with
    | 0 -> fail "send to %s: connection closed" t.peer
    | n ->
      off := !off + n;
      t.bytes_out <- t.bytes_out + n;
      Secmed_obs.Metrics.incr ~by:n m_bytes_sent
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail "send to %s: timeout" t.peer
    | exception Unix.Unix_error (e, _, _) ->
      fail "send to %s: %s" t.peer (Unix.error_message e)
  done

let write_all t s = write_all_sub t (Bytes.unsafe_of_string s) 0 (String.length s)

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let send_frame t body =
  locked t.send_mu (fun () ->
      let n = String.length body in
      if n + 4 <= max_inline_frame then begin
        if Bytes.length t.wbuf < n + 4 then begin
          let cap = ref (Bytes.length t.wbuf) in
          while !cap < n + 4 do
            cap := !cap * 2
          done;
          Secmed_obs.Hwm.alloc hwm_send (!cap - Bytes.length t.wbuf);
          t.wbuf <- Bytes.create !cap
        end;
        Bytes.set t.wbuf 0 (Char.chr ((n lsr 24) land 0xff));
        Bytes.set t.wbuf 1 (Char.chr ((n lsr 16) land 0xff));
        Bytes.set t.wbuf 2 (Char.chr ((n lsr 8) land 0xff));
        Bytes.set t.wbuf 3 (Char.chr (n land 0xff));
        Bytes.blit_string body 0 t.wbuf 4 n;
        write_all_sub t t.wbuf 0 (n + 4)
      end
      else
        (* Oversized one-off: pay the concat rather than pinning a huge
           scratch buffer to the connection for its whole life. *)
        write_all t (Wire.frame body);
      Secmed_obs.Metrics.incr m_frames_sent)

let send_raw t s = locked t.send_mu (fun () -> write_all t s)

let recv_frame t =
  let rec next () =
    match Wire.Stream.next_frame t.stream with
    | Some body ->
      Secmed_obs.Metrics.incr m_frames_recv;
      body
    | None -> (
      (* Read straight into the reassembly buffer (Wire.Stream.reserve):
         the receive path allocates nothing per read beyond the frame
         body itself. *)
      let buf, off = Wire.Stream.reserve t.stream read_quantum in
      match Unix.read t.fd buf off read_quantum with
      | 0 ->
        t.peer_closed <- true;
        fail "recv from %s: connection closed" t.peer
      | n ->
        Wire.Stream.commit t.stream n;
        t.bytes_in <- t.bytes_in + n;
        Secmed_obs.Metrics.incr ~by:n m_bytes_recv;
        next ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> next ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fail "recv from %s: timeout" t.peer
      | exception Unix.Unix_error (e, _, _) ->
        if e = Unix.ECONNRESET then t.peer_closed <- true;
        fail "recv from %s: %s" t.peer (Unix.error_message e))
    | exception Wire.Malformed msg -> fail "recv from %s: %s" t.peer msg
  in
  next ()

let attach_reader t thread = t.reader <- Some thread

(* A reader blocked on the socket must leave before the descriptor is
   released: the kernel hands the number to the next socket opened, and
   a reader that wakes up later would consume that socket's frames.
   Shutdown wakes it (a cross-thread close need not); the join waits it
   out. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.reader with
    | Some thread when Thread.id thread <> Thread.id (Thread.self ()) ->
      (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join thread
    | _ -> ());
    Wire.Stream.dispose t.stream;
    Secmed_obs.Hwm.release hwm_send (Bytes.length t.wbuf);
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* Unlike [close], shutdown reliably wakes a thread blocked in read on
   this socket (close from another thread need not), so an owner can
   sever a connection whose reader it does not control.  The eventual
   [close] still releases the descriptor. *)
let shutdown t =
  if not t.closed then
    try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()
