open Secmed_mediation

(* One proxied connection, pumped by two threads (one per direction)
   until both have stopped. *)
type pair = { inbound : Io.conn; outbound : Io.conn; mutable pumps : int }

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  plan : Fault.plan;
  plan_mu : Mutex.t;  (* rule counters and the event log are shared by both pumps *)
  target : string * int;
  mu : Mutex.t;  (* guards [pairs] and every pair's [pumps] and close *)
  mutable pairs : pair list;
  mutable stopped : bool;
}

let detail fmt = Printf.ksprintf Fun.id fmt

(* Forward one decoded frame, applying at most one rule to a delivery's
   first chunk — so a rule's [times] counts deliveries, not chunks.
   Returns [false] when the stream was deliberately wrecked (truncation)
   and pumping must stop. *)
let forward t dst frame body =
  match frame with
  | Frame.Msg_chunk
      ({ ck_chunk = 0; ck_sender = sender; ck_receiver = receiver; ck_label = label; _ } as c) -> (
    let verdict =
      Mutex.protect t.plan_mu (fun () ->
          match Fault.select t.plan ~sender ~receiver ~label with
          | None -> None
          | Some action ->
            let log d = Fault.log_external t.plan ~sender ~receiver ~label ~action d in
            (match action with
            | Fault.Drop -> log (detail "proxy withheld the %d-byte frame" (String.length body))
            | Fault.Delay s -> log (detail "proxy stalled the stream %.3fs" s)
            | Fault.Corrupt n -> log (detail "proxy flipped bits in %d payload bytes" n)
            | Fault.Duplicate -> log "proxy replayed the frame"
            | Fault.Truncate n ->
              log (detail "proxy cut %d trailing bytes and severed the connection" n));
            Some action)
    in
    match verdict with
    | None ->
      Io.send_frame dst body;
      true
    | Some Fault.Drop -> true
    | Some (Fault.Delay s) ->
      Thread.delay s;
      Io.send_frame dst body;
      true
    | Some (Fault.Corrupt n) ->
      let corrupted =
        Mutex.protect t.plan_mu (fun () -> Fault.corrupt_bytes t.plan ~count:n c.ck_payload)
      in
      Io.send_frame dst (Frame.encode (Frame.Msg_chunk { c with ck_payload = corrupted }));
      true
    | Some Fault.Duplicate ->
      Io.send_frame dst body;
      Io.send_frame dst body;
      true
    | Some (Fault.Truncate n) ->
      let whole = Wire.frame body in
      let keep = max 0 (String.length whole - max 1 n) in
      Io.send_raw dst (String.sub whole 0 keep);
      false)
  | _ ->
    Io.send_frame dst body;
    true

(* A pump that stops shuts both sockets down: that wakes its sibling out
   of a blocked read and fails the sibling's next write (one held by a
   [Delay] may come seconds later), but releases neither descriptor.  A
   released number goes to the next socket this process opens, and the
   sibling would read or write that socket instead.  The second pump to
   stop closes both. *)
let pump t pair src dst =
  let rec loop () =
    let body = Io.recv_frame src in
    match Frame.decode body with
    | frame -> if forward t dst frame body then loop ()
    | exception Wire.Malformed _ ->
      (* Not ours to interpret; pass the bytes through untouched. *)
      Io.send_frame dst body;
      loop ()
  in
  (try loop () with Io.Transport_error _ -> ());
  Mutex.protect t.mu (fun () ->
      Io.shutdown src;
      Io.shutdown dst;
      pair.pumps <- pair.pumps - 1;
      if pair.pumps = 0 then begin
        Io.close src;
        Io.close dst;
        t.pairs <- List.filter (fun p -> p != pair) t.pairs
      end)

let start ~plan ~target_host ~target_port ?(port = 0) ?listen () =
  let listen_fd, port =
    match listen with Some bound -> bound | None -> Io.listen ~port ()
  in
  let t =
    {
      listen_fd;
      port;
      plan;
      plan_mu = Mutex.create ();
      target = (target_host, target_port);
      mu = Mutex.create ();
      pairs = [];
      stopped = false;
    }
  in
  let accept_loop () =
    let rec loop () =
      match Io.accept listen_fd with
      | inbound ->
        (match Io.connect ~host:(fst t.target) ~port:(snd t.target) () with
        | outbound ->
          let pair = { inbound; outbound; pumps = 2 } in
          Mutex.protect t.mu (fun () -> t.pairs <- pair :: t.pairs);
          ignore (Thread.create (fun () -> pump t pair inbound outbound) () : Thread.t);
          ignore (Thread.create (fun () -> pump t pair outbound inbound) () : Thread.t)
        | exception Io.Transport_error _ -> Io.close inbound);
        loop ()
      | exception Io.Transport_error _ ->
        (* The listener was shut down: only now is its descriptor
           released, by the one thread that uses it. *)
        (try Unix.close listen_fd with Unix.Unix_error _ -> ())
    in
    loop ()
  in
  ignore (Thread.create accept_loop () : Thread.t);
  t

let port t = t.port
let plan t = t.plan

(* Shut the listener down rather than close it: a close does not wake
   an [accept] blocked on it, which then pins the socket — the port
   keeps listening — and a later [accept] would run on whatever socket
   reuses the freed descriptor number.  Shutdown fails the blocked
   [accept] and every later one, and the acceptor releases the
   descriptor as it leaves. *)
let stop t =
  Mutex.protect t.mu (fun () ->
      if not t.stopped then begin
        t.stopped <- true;
        (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
        (* The pumps wake, stop and close their pair. *)
        List.iter
          (fun p ->
            Io.shutdown p.inbound;
            Io.shutdown p.outbound)
          t.pairs
      end)
