open Secmed_mediation
module Obs = Secmed_obs
module Protocol = Secmed_core.Protocol
module Request = Secmed_core.Request

exception Aborted of Fault.failure

module Mux = struct
  type t = {
    conn : Io.conn;
    mu : Mutex.t;
    subs : (int, (Frame.t * int) Queue.t) Hashtbl.t;
    closed : (int, unit) Hashtbl.t;
    closed_order : int Queue.t;  (* tombstone insertion order, for FIFO eviction *)
    max_tombstones : int;
    max_queue : int;
    over : (int, unit) Hashtbl.t;  (* sessions whose queue overflowed *)
    control : (Frame.t * int) Queue.t;
    mutable dropped : int;  (* frames discarded because their session was closed *)
    mutable dead : string option;
    changed : Condition.t;  (* a frame routed, a queue closed, or the reader died *)
    mutable timed_waiters : int;  (* waiters blocked with a finite deadline *)
  }

  (* Parked frames are mediator memory a fast peer controls, so they are
     charged to a high-water region and each session queue is bounded:
     overflow tombstones nothing silently — the frame is dropped and the
     session's next consumer read raises a typed transport error, the
     same failure shape as a severed link. *)
  let hwm = Obs.Hwm.region "mux.parked"

  let cost_of frame =
    64
    +
    match frame with
    | Frame.Msg_chunk { ck_payload; _ } -> String.length ck_payload
    | Frame.Stats { payload; _ } -> String.length payload
    | _ -> 0

  (* Routing must not depend on a consumer having subscribed yet: the
     recv thread sees a session's [Session_start] and, microseconds
     later, the chunk frames behind it — before any control-loop thread
     has had a chance to react.  So the first frame of an unknown
     session creates its queue and parks there.  Every [Session_start]
     is additionally announced on the control queue (a daemon spawns a
     handler on the first announcement per session and ignores the
     rest) — "every", because after a severed-and-redialed connection
     the announcement may not be the session's first frame on this mux.
     Frames for a session that was unsubscribed (finished) are
     dropped. *)
  let route t frame =
    Mutex.protect t.mu (fun () ->
        (* Waiters re-check their queue once the lock is released. *)
        Condition.broadcast t.changed;
        match Frame.session_of frame with
        | None -> Queue.push (frame, 0) t.control
        | Some sid when Hashtbl.mem t.closed sid -> t.dropped <- t.dropped + 1
        | Some sid ->
          let q =
            match Hashtbl.find_opt t.subs sid with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.replace t.subs sid q;
              q
          in
          if Queue.length q >= t.max_queue then begin
            (* The bound is the memory guarantee: drop and poison rather
               than balloon.  The consumer finds out on its next read. *)
            Hashtbl.replace t.over sid ();
            t.dropped <- t.dropped + 1
          end
          else begin
            let cost = cost_of frame in
            Obs.Hwm.alloc hwm cost;
            Queue.push (frame, cost) q
          end;
          (match frame with
          | Frame.Session_start _ -> Queue.push (frame, 0) t.control
          | _ -> ()))

  (* Set under the lock, then broadcast: a waiter that found no frame
     and no death must not miss the death it is about to sleep on. *)
  let die t msg =
    Mutex.protect t.mu (fun () ->
        t.dead <- Some msg;
        Condition.broadcast t.changed)

  (* Every mux's [changed] condition stays reachable for the process's
     lifetime: in a child forked while a thread waited on one, the mux
     is garbage at once, and the finalizer of a condition with a
     vanished waiter hangs the child's GC (see {!Secmed_core.Batch}).
     One condition per mux ever created, so the list grows with the
     links dialed. *)
  let conditions : Condition.t list Atomic.t = Atomic.make []

  let create ?(max_tombstones = 1024) ?(max_queue = 1024) conn =
    let changed = Condition.create () in
    let rec keep () =
      let l = Atomic.get conditions in
      if not (Atomic.compare_and_set conditions l (changed :: l)) then keep ()
    in
    keep ();
    let t =
      { conn; mu = Mutex.create (); subs = Hashtbl.create 8; closed = Hashtbl.create 8;
        closed_order = Queue.create (); max_tombstones = max max_tombstones 1;
        max_queue = max max_queue 1; over = Hashtbl.create 4;
        control = Queue.create (); dropped = 0; dead = None; changed; timed_waiters = 0 }
    in
    let rec recv_loop () =
      match Frame.decode (Io.recv_frame conn) with
      | frame ->
        route t frame;
        recv_loop ()
      | exception Io.Transport_error msg -> die t msg
      | exception Wire.Malformed msg -> die t ("malformed frame: " ^ msg)
    in
    (* Registered with the connection so [Io.close] shuts the socket
       down and waits for this thread to leave before releasing the
       descriptor: a reader outliving its socket would otherwise read
       whatever connection reuses the descriptor number next. *)
    Io.attach_reader conn (Thread.create recv_loop ());
    t

  let conn t = t.conn
  let alive t = Mutex.protect t.mu (fun () -> t.dead = None)
  let send t frame = Io.send_frame t.conn (Frame.encode frame)

  let release_queue q =
    Queue.iter (fun (_, cost) -> Obs.Hwm.release hwm cost) q;
    Queue.clear q

  (* Subscribing clears any tombstone for the id: a session id revived
     after an epoch bump (the server pairs every reuse with an epoch
     increment, and the leftover rule, [await], skips the stale frames)
     must be routable again, not silently dropped.  An overflowed queue
     is emptied too: nothing was read from it since the overflow, so it
     holds only the poisoned delivery's frames, and left full it would
     drop and re-poison the new epoch's first frame. *)
  let subscribe t sid =
    Mutex.protect t.mu (fun () ->
        Hashtbl.remove t.closed sid;
        (if Hashtbl.mem t.over sid then
           match Hashtbl.find_opt t.subs sid with
           | Some q -> release_queue q
           | None -> ());
        Hashtbl.remove t.over sid;
        if not (Hashtbl.mem t.subs sid) then Hashtbl.replace t.subs sid (Queue.create ()))

  (* Tombstones are bounded: eviction is FIFO over insertion order, so a
     long-lived source connection serving an unbounded session stream
     keeps O(max_tombstones) state.  [closed_order] may hold stale ids
     whose tombstone a later [subscribe] already cleared; popping those
     is a harmless no-op, and the queue is always at least as long as
     the table, so the loop terminates. *)
  let unsubscribe t sid =
    Mutex.protect t.mu (fun () ->
        (match Hashtbl.find_opt t.subs sid with
        | Some q -> release_queue q
        | None -> ());
        Hashtbl.remove t.subs sid;
        Hashtbl.remove t.over sid;
        (* A reader still parked on the session now fails "not subscribed". *)
        Condition.broadcast t.changed;
        if not (Hashtbl.mem t.closed sid) then begin
          Hashtbl.replace t.closed sid ();
          Queue.push sid t.closed_order;
          while Hashtbl.length t.closed > t.max_tombstones do
            match Queue.take_opt t.closed_order with
            | Some old -> Hashtbl.remove t.closed old
            | None -> Hashtbl.reset t.closed
          done
        end)

  let tombstones t = Mutex.protect t.mu (fun () -> Hashtbl.length t.closed)
  let dropped t = Mutex.protect t.mu (fun () -> t.dropped)
  let overflowed t sid = Mutex.protect t.mu (fun () -> Hashtbl.mem t.over sid)

  let backlog t =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ q acc -> acc + Queue.length q) t.subs (Queue.length t.control))

  (* Waking a waiter with a deadline.  OCaml 5.1's stdlib has no timed
     condition wait, so a waiter about to block with a finite deadline
     registers its mux here, and one ticker thread broadcasts on every
     registered mux each [tick] seconds: a timeout fires at most one tick
     late, while an arrival or a death wakes its waiters at once.  The
     ticker exits when nothing is registered, since a thread left
     running keeps its domain from being joined; the next registration
     starts a new one.  Entries carry their process id, so a child
     forked while waiters were registered starts its own ticker and
     never touches its parent's muxes. *)
  let tick = 0.05
  let registered : (int * t) list Atomic.t = Atomic.make []
  let ticker = Atomic.make 0 (* the process id whose ticker runs, or 0 *)

  let rec update f =
    let l = Atomic.get registered in
    if not (Atomic.compare_and_set registered l (f l)) then update f

  let rec run_ticker pid =
    Unix.sleepf tick;
    let mine () = List.filter (fun (p, _) -> p = pid) (Atomic.get registered) in
    match mine () with
    | [] ->
      (* Give up the slot, then look once more: a waiter that registered
         meanwhile is seen here, or finds the slot free and starts its
         own ticker — never neither. *)
      Atomic.set ticker 0;
      if mine () <> [] && Atomic.compare_and_set ticker 0 pid then run_ticker pid
    | waiting ->
      List.iter
        (fun (_, t) -> Mutex.protect t.mu (fun () -> Condition.broadcast t.changed))
        waiting;
      run_ticker pid

  (* Both under [t.mu]. *)
  let register t =
    t.timed_waiters <- t.timed_waiters + 1;
    if t.timed_waiters = 1 then begin
      let pid = Unix.getpid () in
      update (List.cons (pid, t));
      let running = Atomic.get ticker in
      if running <> pid && Atomic.compare_and_set ticker running pid then
        ignore (Thread.create run_ticker pid : Thread.t)
    end

  let unregister t =
    t.timed_waiters <- t.timed_waiters - 1;
    if t.timed_waiters = 0 then update (List.filter (fun (_, m) -> m != t))

  (* Take the next frame of [q_of ()], sleeping on [changed] until one
     is routed, the reader dies or the deadline passes. *)
  let wait t ~timeout ~what q_of =
    let deadline = if timeout > 0. then Unix.gettimeofday () +. timeout else infinity in
    let fail why = raise (Io.Transport_error (Printf.sprintf "%s: %s" what why)) in
    Mutex.protect t.mu @@ fun () ->
    let on_ticker = ref false in
    Fun.protect ~finally:(fun () -> if !on_ticker then unregister t) @@ fun () ->
    let rec loop () =
      match Queue.take_opt (q_of ()) with
      | Some (frame, cost) ->
        Obs.Hwm.release hwm cost;
        frame
      | None ->
        Option.iter fail t.dead;
        if deadline < infinity then begin
          if Unix.gettimeofday () > deadline then fail "timeout";
          if not !on_ticker then begin
            on_ticker := true;
            register t
          end
        end;
        Condition.wait t.changed t.mu;
        loop ()
    in
    loop ()

  let next t ~session ~timeout =
    wait t ~timeout ~what:(Printf.sprintf "session %d" session) (fun () ->
        if Hashtbl.mem t.over session then
          raise
            (Io.Transport_error
               (Printf.sprintf "session %d: receive queue overflow (cap %d frames)" session
                  t.max_queue));
        match Hashtbl.find_opt t.subs session with
        | Some q -> q
        | None ->
          (* Closed (or never opened): a handler that lost the race with
             the session's end reads this as a severed link. *)
          raise (Io.Transport_error (Printf.sprintf "session %d: not subscribed" session)))

  let next_control t ~timeout = wait t ~timeout ~what:"control" (fun () -> t.control)
end

type route = { r_send : Frame.t -> unit; r_next : timeout:float -> Frame.t }

let plain_route ~send ~next = { r_send = send; r_next = next }

(* Interned eagerly at module init (single-threaded, main domain):
   [Lazy.force] from two domains at once raises [Undefined], and these
   counters are bumped from recv threads and session workers that may
   live in loadgen worker domains. *)
let stream_rows_out = Obs.Metrics.counter "stream.rows.out"
let stream_rows_in = Obs.Metrics.counter "stream.rows.in"
let stream_bytes_out = Obs.Metrics.counter "stream.bytes.out"
let stream_bytes_in = Obs.Metrics.counter "stream.bytes.in"

(* Unacknowledged chunks currently in flight from this process, summed
   over all live streamed sends — the operator's "is streaming stuck"
   gauge. *)
let backlog_gauge = Obs.Metrics.gauge "stream.backlog.chunks"
let backlog_mu = Mutex.create ()

let backlog_add d =
  Mutex.protect backlog_mu (fun () ->
      let now = Obs.Metrics.gauge_value backlog_gauge +. float_of_int d in
      Obs.Metrics.set_gauge backlog_gauge (Float.max 0. now))

let stream_backlog () = int_of_float (Obs.Metrics.gauge_value backlog_gauge)

(* Sender window: how many chunks may be unacknowledged before the
   sender blocks awaiting a [Credit].  Sized so the in-flight bytes
   (window x chunk) stay near half a megabyte — comfortably inside the
   mux queue bound, far above what keeps a loopback pipe busy. *)
let credit_window = 8

(* Decoded entries a streamed receiver holds before handing them on:
   bounded by one chunk, and the bench asserts it. *)
let hwm_pending = Obs.Hwm.region "stream.pending"

let trace_frame dir ~phase ~party ~label ~size =
  if Obs.Trace.enabled () then
    Obs.Trace.event ("net." ^ dir)
      ~attrs:
        [
          ("phase", Obs.Json.Str phase);
          ("party", Obs.Json.Str (Transcript.party_name party));
          ("label", Obs.Json.Str label);
          ("bytes", Obs.Json.Int size);
        ]

(* The one leftover rule, which every session reader calls (the
   interface lists what it skips).  Only here is a frame's (epoch, seq)
   compared with the reader's. *)
let await (r : route) ~timeout ~epoch ~seq ~fail want =
  let unexpected f = fail ("unexpected " ^ Frame.tag_name f ^ " frame") in
  let rec go () =
    match r.r_next ~timeout with
    | exception Io.Transport_error msg -> fail ("never arrived: " ^ msg)
    | ( Frame.Msg_chunk { ck_epoch = e; ck_seq = s; _ }
      | Frame.Credit { cr_epoch = e; cr_seq = s; _ } ) as f -> (
      let order = compare (e, s) (epoch, seq) in
      match (want f, f) with
      | Some v, _ when order = 0 -> v
      | _, Frame.Credit _ -> go ()
      | _ when order < 0 -> go ()
      | _ when order > 0 ->
        fail
          (Printf.sprintf "frame gap: awaiting #%d of epoch %d, got #%d of epoch %d" seq epoch s
             e)
      | _ -> unexpected f)
    | f -> (
      match (want f, f) with
      | Some v, _ -> v
      | None, Frame.Report _ -> go ()
      | None, Frame.Abort { epoch = e; failure; _ } when e >= epoch -> raise (Aborted failure)
      | None, Frame.Abort _ -> go ()
      | None, Frame.Session_start { epoch = e; _ } when e <= epoch -> go ()
      | None, f -> unexpected f)
  in
  go ()

let bytes_of rows = List.fold_left (fun acc b -> acc + String.length b) 0 rows

(* The rows of a stream, whose indexes only a caller's bug could make
   anything but their positions: the index never travels. *)
let positional rows =
  List.mapi
    (fun i (row, bytes) ->
      if row <> i then invalid_arg (Printf.sprintf "Endpoint: row %d at position %d" row i);
      bytes)
    rows

let transport ~role ?(computes = Transcript.party_equal role) ~session ~epoch ~io_timeout
    ~route_of ?(after_io = fun ~phase:_ -> ()) () =
  let route ~phase ~receiver ~label party =
    match route_of party with
    | Some r -> r
    | None -> Fault.fail ~phase ~party:receiver (label ^ ": no route to its sender")
  in
  (* A reader's failure is a typed fault blamed at the receiving party. *)
  let failing ~phase ~receiver what reason =
    Fault.fail ~phase ~party:receiver (Printf.sprintf "%s: %s" what reason)
  in
  (* Sender: chunk the rows and keep at most [credit_window] chunks
     unacknowledged, replenished by the receiver's [Credit] grants
     arriving on the same route.  A chosen fault strikes the first
     chunk, as the chaos proxy's does; when nothing is left to send, this
     process fails the delivery at once. *)
  let send_rows ~phase ~seq ~sender ~receiver ~label ~size ?(damage = fun p -> [ p ]) rows =
    let rows = positional rows in
    match route_of receiver with
    | None -> ()
    | Some r ->
      let here = epoch () in
      let chunks = Frame.plan rows in
      let n = List.length chunks in
      let credits = ref credit_window in
      let outstanding = ref 0 in
      let await_credit () =
        let granted =
          await r ~timeout:io_timeout ~epoch:here ~seq
            ~fail:(failing ~phase ~receiver (label ^ ": stream credit"))
            (function Frame.Credit { cr_n; _ } -> Some cr_n | _ -> None)
        in
        credits := !credits + granted;
        outstanding := max 0 (!outstanding - granted);
        backlog_add (-granted)
      in
      List.iteri
        (fun ci batch ->
          while !credits <= 0 do
            await_credit ()
          done;
          let payload = Frame.pack ~label batch in
          let copies = if ci = 0 then damage payload else [ payload ] in
          if copies = [] then Fault.lost ~phase ~receiver ~label;
          List.iter
            (fun ck_payload ->
              try
                r.r_send
                  (Frame.Msg_chunk
                     { ck_session = session; ck_epoch = here; ck_seq = seq; ck_sender = sender;
                       ck_receiver = receiver; ck_label = label; ck_chunk = ci; ck_chunks = n;
                       ck_declared = size; ck_payload })
              with Io.Transport_error msg ->
                (* The link itself is down: a typed, retryable fault
                   blamed at the unreachable party. *)
                Fault.fail ~phase ~party:receiver (label ^ ": link down: " ^ msg))
            copies;
          decr credits;
          incr outstanding;
          backlog_add 1;
          Obs.Metrics.incr ~by:(bytes_of batch) stream_bytes_out;
          Obs.Metrics.incr ~by:(List.length batch) stream_rows_out)
        chunks;
      (* The last window is never acknowledged (the receiver grants
         only credits this loop awaits): settle the backlog gauge now. *)
      backlog_add (- !outstanding);
      trace_frame "send" ~phase ~party:receiver ~label ~size;
      after_io ~phase
  in
  (* The one chunk reader behind both streamed receivers: [on_row]
     sees every row with the index it is due at, its position in the
     stream.  It holds at most one decoded chunk (charged to the
     "stream.pending" region), so receive memory is bounded by one chunk
     however many rows flow.  It stops after [rows] rows when the
     receiver knows the count, else once the last chunk is spent; either
     way the stream must then be spent.  Every chunk must declare [size]
     bytes, or, with no [size], the size the first one declares, which
     is returned. *)
  let read_rows ~phase ~seq ~sender ~receiver ~label ?size ?rows on_row =
    let r = route ~phase ~receiver ~label sender in
    let here = epoch () in
    let declared = ref size in
    let pending = ref [] in
    let next_chunk = ref 0 in
    let chunks = ref max_int in
    let reject fmt =
      Printf.ksprintf (fun m -> Fault.fail ~phase ~party:receiver (label ^ " rejected: " ^ m)) fmt
    in
    (* Park the next chunk in [pending]. *)
    let rec pull () =
      let m =
        await r ~timeout:io_timeout ~epoch:here ~seq ~fail:(failing ~phase ~receiver label)
          (function Frame.Msg_chunk m -> Some m | _ -> None)
      in
      if not (Transcript.party_equal m.ck_sender sender && String.equal m.ck_label label) then
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "frame #%d: expected %s chunk from %s, got %s from %s" seq label
             (Transcript.party_name sender) m.ck_label (Transcript.party_name m.ck_sender))
      else if m.ck_chunk < !next_chunk then
        (* A replayed chunk (a [Duplicate]): already read. *)
        pull ()
      else if m.ck_chunk > !next_chunk then
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "%s: chunk gap: awaiting chunk %d, got %d" label !next_chunk
             m.ck_chunk)
      else begin
        (match !declared with
        | None -> declared := Some m.ck_declared
        | Some d when d <> m.ck_declared ->
          reject "stream declares %d bytes, %d expected" m.ck_declared d
        | Some _ -> ());
        next_chunk := m.ck_chunk + 1;
        chunks := m.ck_chunks;
        let batch =
          match Frame.unpack m with Ok rows -> rows | Error reason -> reject "%s" reason
        in
        (* Grant the replacement credit before reading on so the sender's
           pipeline never drains on our account — but only for a chunk
           the sender will await it for: its first window is free, so a
           stream of at most [credit_window] chunks draws no credit.  A
           dead return path surfaces on the next pull, not here. *)
        if m.ck_chunk + credit_window < m.ck_chunks then (
          try
            r.r_send
              (Frame.Credit { cr_session = session; cr_epoch = here; cr_seq = seq; cr_n = 1 })
          with Io.Transport_error _ -> ());
        let bytes = bytes_of batch in
        Obs.Hwm.alloc hwm_pending bytes;
        Obs.Metrics.incr ~by:bytes stream_bytes_in;
        Obs.Metrics.incr ~by:(List.length batch) stream_rows_in;
        pending := batch
      end
    in
    (* The next row, or [None] once the stream ended. *)
    let take () =
      while !pending = [] && !next_chunk < !chunks do
        pull ()
      done;
      match !pending with
      | [] -> None
      | row :: rest ->
        pending := rest;
        Obs.Hwm.release hwm_pending (String.length row);
        Some row
    in
    Fun.protect ~finally:(fun () -> Obs.Hwm.release hwm_pending (bytes_of !pending))
    @@ fun () ->
    let rec read i =
      if Option.fold rows ~none:true ~some:(fun n -> i < n) then
        match take () with
        | Some row ->
          on_row i row;
          read (i + 1)
        | None when rows <> None ->
          (* Rows remain but the stream is exhausted: an elided tail is
             a mismatch, not a hang. *)
          reject "wire payload mismatch (stream ended before row %d)" i
        | None -> ()
    in
    read 0;
    if take () <> None then reject "stream rows past the end";
    let size = Option.value !declared ~default:0 in
    trace_frame "recv" ~phase ~party:sender ~label ~size;
    after_io ~phase;
    size
  in
  (* Receiver that computed the rows: verify each row against its own.
     Nothing is concatenated. *)
  let recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect =
    let expect = Array.of_list (positional expect) in
    ignore
      (read_rows ~phase ~seq ~sender ~receiver ~label ~size ~rows:(Array.length expect)
         (fun i row ->
           if not (String.equal row expect.(i)) then
             Fault.fail ~phase ~party:receiver
               (Printf.sprintf
                  "%s rejected: wire payload mismatch (stream row %d: %d bytes received, %d \
                   computed)"
                  label i (String.length row) (String.length expect.(i))))
       : int)
  in
  (* Receiver that did not compute the rows: the received rows become
     the one string the caller decodes — a receiver that uses the rows
     holds them anyway. *)
  let take_rows ~phase ~seq ~sender ~receiver ~label =
    let buf = Buffer.create 4096 in
    let size =
      read_rows ~phase ~seq ~sender ~receiver ~label (fun _ row -> Buffer.add_string buf row)
    in
    (size, Buffer.contents buf)
  in
  {
    Link.speaks = Transcript.party_equal role;
    computes;
    rows = Some { Link.send_rows; recv_rows; take_rows };
  }

(* A source that refused the request, as the replica computing it reports it. *)
let refused i reason =
  Frame.St_failed { Fault.phase = "request"; party = Transcript.Source i; reason }

let run_replica ~role ?computes ~fault ~session ~epoch ~attempt ~scheme ~query ~io_timeout
    ~route env client =
  match Protocol.scheme_of_name scheme with
  | None ->
    ( Frame.St_failed
        { Fault.phase = "session"; party = role; reason = "unknown scheme: " ^ scheme },
      None )
  | Some sch -> (
    let tr =
      transport ~role ?computes ~session ~epoch:(fun () -> epoch) ~io_timeout
        ~route_of:(fun _ -> Some route) ()
    in
    match Protocol.attempt ?fault ~endpoint:tr sch env client ~query ~attempt with
    | Ok outcome -> (Frame.St_ok, Some outcome)
    | Error f -> (Frame.St_failed f, None)
    | exception Aborted _ -> (Frame.St_aborted, None)
    | exception Io.Transport_error msg ->
      (Frame.St_failed { Fault.phase = "transport"; party = role; reason = msg }, None)
    | exception Request.Bad_credential i -> (refused i "bad credential", None)
    | exception Request.Access_denied i -> (refused i "access denied", None)
    | exception e ->
      (* A step choking on what it received (this process decodes
         hostile bytes) must still report, or the mediator would wait
         out its timeout on a dead session thread. *)
      ( Frame.St_failed
          { Fault.phase = "replica"; party = role; reason = "unexpected " ^ Printexc.to_string e },
        None ))
