open Secmed_mediation
module Obs = Secmed_obs
module Protocol = Secmed_core.Protocol
module Stream = Secmed_core.Stream

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
    | Frame.Msg { payload; _ } -> String.length payload
    | Frame.Msg_chunk { ck_payload; _ } -> String.length ck_payload
    | Frame.Span_batch { payload; _ } -> String.length payload
    | Frame.Stats { payload; _ } -> String.length payload
    | _ -> 0

  (* Routing must not depend on a consumer having subscribed yet: the
     recv thread sees a session's [Session_start] and, microseconds
     later, the [Msg] frames behind it — before any control-loop thread
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

  let create ?(max_tombstones = 1024) ?(max_queue = 1024) conn =
    let t =
      { conn; mu = Mutex.create (); subs = Hashtbl.create 8; closed = Hashtbl.create 8;
        closed_order = Queue.create (); max_tombstones = max max_tombstones 1;
        max_queue = max max_queue 1; over = Hashtbl.create 4;
        control = Queue.create (); dropped = 0; dead = None }
    in
    let rec recv_loop () =
      match Frame.decode (Io.recv_frame conn) with
      | frame ->
        route t frame;
        recv_loop ()
      | exception Io.Transport_error msg -> t.dead <- Some msg
      | exception Wire.Malformed msg -> t.dead <- Some ("malformed frame: " ^ msg)
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
     increment, and the transport's epoch filter skips the stale frames)
     must be routable again, not silently dropped. *)
  let subscribe t sid =
    Mutex.protect t.mu (fun () ->
        Hashtbl.remove t.closed sid;
        Hashtbl.remove t.over sid;
        if not (Hashtbl.mem t.subs sid) then Hashtbl.replace t.subs sid (Queue.create ()))

  (* Tombstones are bounded: eviction is FIFO over insertion order, so a
     long-lived pooled connection serving an unbounded session stream
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

  (* The stdlib has no timed condition wait, so waiting is a polling
     loop at 1 ms granularity — coarse enough to stay invisible next to
     crypto, fine enough not to matter against I/O timeouts. *)
  let wait t ~timeout ~what q_of =
    let deadline = if timeout > 0. then Unix.gettimeofday () +. timeout else infinity in
    let rec loop () =
      let item, dead =
        Mutex.protect t.mu (fun () ->
            let q = q_of () in
            ( (if Queue.is_empty q then None
               else begin
                 let frame, cost = Queue.pop q in
                 Obs.Hwm.release hwm cost;
                 Some frame
               end),
              t.dead ))
      in
      match item with
      | Some frame -> frame
      | None ->
        (match dead with
        | Some msg -> raise (Io.Transport_error (Printf.sprintf "%s: %s" what msg))
        | None -> ());
        if Unix.gettimeofday () > deadline then
          raise (Io.Transport_error (Printf.sprintf "%s: timeout" what));
        Thread.delay 0.001;
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

(* [r_sub]: the per-shard sub-routes behind a fanned-out logical source.
   Scalar traffic uses the merged route ([r_send] broadcasts, [r_next]
   reads the designated shard 0); streamed deliveries merge chunk
   streams from every sub-route in row order. *)
type route = {
  r_send : Frame.t -> unit;
  r_next : timeout:float -> Frame.t;
  r_sub : route array option;
}

let plain_route ~send ~next = { r_send = send; r_next = next; r_sub = None }

(* Interned eagerly at module init (single-threaded, main domain):
   [Lazy.force] from two domains at once raises [Undefined], and these
   counters are bumped from recv threads and session workers that may
   live in loadgen worker domains. *)
let frames_out = Obs.Metrics.counter "net.frames.out"
let frames_in = Obs.Metrics.counter "net.frames.in"
let payload_out = Obs.Metrics.counter "net.payload.out"
let payload_in = Obs.Metrics.counter "net.payload.in"
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

(* Decoded-but-unmerged entries buffered while interleaving per-shard
   streams: bounded by one chunk per shard, and the bench asserts it. *)
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

(* Received payloads carry the [Fault.frame] integrity tag; a frame
   whose tag does not verify is rejected at the receiving party before
   anything decodes it. *)
let unframe ~phase ~receiver ~label framed =
  match Fault.unframe ~label framed with
  | Ok payload -> payload
  | Error reason ->
    Fault.fail ~phase ~party:receiver (Printf.sprintf "%s rejected: %s" label reason)

let transport ~role ?(computes = Transcript.party_equal role) ~session ~epoch ~io_timeout
    ~route_of ?(shard = (0, 1)) ?(after_io = fun ~phase:_ -> ()) () =
  let shard_index, shard_count = shard in
  if shard_count <= 0 || shard_index < 0 || shard_index >= shard_count then
    invalid_arg "Endpoint.transport: shard out of range";
  let send ~phase ~seq ~sender ~receiver ~label ~size payload =
    match route_of receiver with
    | None -> ()
    | Some r when shard_index <> 0 ->
      (* Scalar payloads are whole-message: exactly one shard may put
         them on the wire or the receiver would see k copies.  Shard 0
         is the designated scalar speaker; the others advance their
         sequence numbers silently. *)
      ignore r
    | Some r ->
      (try
         r.r_send
           (Frame.Msg
              { session; epoch = epoch (); seq; sender; receiver; label; declared = size;
                payload = Fault.frame ~label payload })
       with Io.Transport_error msg ->
         (* The link itself is down: a typed, retryable fault blamed at
            the unreachable party, like a simulated severed link. *)
         Fault.fail ~phase ~party:receiver (label ^ ": link down: " ^ msg));
      Obs.Metrics.incr frames_out;
      Obs.Metrics.incr ~by:size payload_out;
      trace_frame "send" ~phase ~party:receiver ~label ~size;
      after_io ~phase
  in
  let recv ~phase ~seq ~sender ~receiver ~label =
    match route_of sender with
    | None -> Fault.fail ~phase ~party:receiver (label ^ ": no route to its sender")
    | Some r ->
      let here = epoch () in
      let rec go () =
        match r.r_next ~timeout:io_timeout with
        | Frame.Msg m when m.epoch = here && m.seq = seq ->
          if not (Transcript.party_equal m.sender sender) || not (String.equal m.label label)
          then
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf "frame #%d: expected %s from %s, got %s from %s" seq label
                 (Transcript.party_name sender) m.label (Transcript.party_name m.sender))
          else (m.declared, unframe ~phase ~receiver ~label m.payload)
        | Frame.Msg m when m.epoch < here || (m.epoch = here && m.seq < seq) ->
          (* A replay (chaos Duplicate) or a leftover of an aborted
             attempt: the filter is what makes retries safe. *)
          go ()
        | Frame.Msg m ->
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s: frame gap: awaiting #%d of epoch %d, got #%d of epoch %d"
               label seq here m.seq m.epoch)
        | Frame.Msg_chunk m when m.ck_epoch < here || (m.ck_epoch = here && m.ck_seq < seq) ->
          go ()
        | Frame.Credit _ ->
          (* Flow-control residue of an earlier streamed send. *)
          go ()
        | Frame.Abort { epoch = e; failure; _ } when e >= here -> raise (Aborted failure)
        | Frame.Abort _ | Frame.Report _ -> go ()
        | Frame.Session_start { epoch = e; _ } when e <= here -> go ()
        (* Span traffic is observability, never protocol: skippable
           wherever it lands (the mediator's batching route normally
           intercepts it first). *)
        | Frame.Span_batch _ -> go ()
        | f ->
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s: unexpected %s frame mid-attempt" label (Frame.tag_name f))
        | exception Io.Transport_error msg ->
          (* The wire analogue of a simulated [Drop]: the frame never
             arrived, detected and blamed at the receiving party. *)
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s never arrived: %s" label msg)
      in
      let declared, payload = go () in
      Obs.Metrics.incr frames_in;
      Obs.Metrics.incr ~by:(String.length payload) payload_in;
      trace_frame "recv" ~phase ~party:sender ~label ~size:(String.length payload);
      after_io ~phase;
      (declared, payload)
  in
  (* Streamed sender: chunk this process's partition of the rows and
     keep at most [credit_window] chunks unacknowledged, replenished by
     the receiver's [Credit] grants arriving on the same route. *)
  let send_rows ~phase ~seq ~sender ~receiver ~label ~size rows =
    match route_of receiver with
    | None -> ()
    | Some r ->
      let here = epoch () in
      let rows =
        if shard_count = 1 then rows
        else Stream.partition ~k:shard_count ~shard:shard_index rows
      in
      (* At least one chunk, empty or not: a receiver that did not
         compute the rows learns that a shard's stream ended only from
         its chunks. *)
      let chunks = match Stream.plan rows with [] -> [ [] ] | chunks -> chunks in
      let n = List.length chunks in
      let credits = ref credit_window in
      let outstanding = ref 0 in
      let await_credit () =
        match r.r_next ~timeout:io_timeout with
        | Frame.Credit { cr_epoch; cr_seq; cr_n; _ } when cr_epoch = here && cr_seq = seq ->
          credits := !credits + cr_n;
          outstanding := max 0 (!outstanding - cr_n);
          backlog_add (-cr_n)
        | Frame.Credit _ -> ()
        | Frame.Abort { epoch = e; failure; _ } when e >= here -> raise (Aborted failure)
        | Frame.Abort _ | Frame.Report _ | Frame.Span_batch _ -> ()
        | Frame.Session_start { epoch = e; _ } when e <= here -> ()
        | Frame.Msg m when m.epoch < here || (m.epoch = here && m.seq < seq) -> ()
        | Frame.Msg_chunk m when m.ck_epoch < here || (m.ck_epoch = here && m.ck_seq < seq) ->
          ()
        | f ->
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s: unexpected %s frame awaiting stream credit" label
               (Frame.tag_name f))
        | exception Io.Transport_error msg ->
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s: stream credit never arrived: %s" label msg)
      in
      List.iteri
        (fun ci entries ->
          while !credits <= 0 do
            await_credit ()
          done;
          let payload = Fault.frame ~label (Stream.encode_entries entries) in
          (try
             r.r_send
               (Frame.Msg_chunk
                  { ck_session = session; ck_epoch = here; ck_seq = seq; ck_sender = sender;
                    ck_receiver = receiver; ck_label = label; ck_chunk = ci; ck_chunks = n;
                    ck_declared = size; ck_payload = payload })
           with Io.Transport_error msg ->
             Fault.fail ~phase ~party:receiver (label ^ ": link down: " ^ msg));
          decr credits;
          incr outstanding;
          backlog_add 1;
          Obs.Metrics.incr frames_out;
          let bytes =
            List.fold_left (fun acc e -> acc + String.length e.Stream.s_bytes) 0 entries
          in
          Obs.Metrics.incr ~by:bytes payload_out;
          Obs.Metrics.incr ~by:bytes stream_bytes_out;
          Obs.Metrics.incr ~by:(List.length entries) stream_rows_out)
        chunks;
      (* Trailing credits are granted but never awaited; the stale-credit
         skip absorbs them later.  Settle the backlog gauge now. *)
      backlog_add (- !outstanding);
      trace_frame "send" ~phase ~party:receiver ~label ~size;
      after_io ~phase
  in
  (* Pulling one counterpart's per-shard chunk streams.  [declared]
     checks each chunk's declared stream size; [pull si] parks the next
     chunk of shard [si] in [pending.(si)] (at most one decoded chunk
     per shard, charged to the "stream.pending" region). *)
  let chunk_streams ~phase ~seq ~sender ~receiver ~label ~declared =
    match route_of sender with
    | None -> Fault.fail ~phase ~party:receiver (label ^ ": no route to its sender")
    | Some r ->
      let subs = match r.r_sub with Some a when Array.length a > 0 -> a | _ -> [| r |] in
      let k = Array.length subs in
      let here = epoch () in
      let pending = Array.make k ([] : Stream.entry list) in
      let next_chunk = Array.make k 0 in
      let declared_chunks = Array.make k max_int in
      let pull si =
        let sub = subs.(si) in
        let rec go () =
          match sub.r_next ~timeout:io_timeout with
          | Frame.Msg_chunk m when m.ck_epoch = here && m.ck_seq = seq ->
            if
              (not (Transcript.party_equal m.ck_sender sender))
              || not (String.equal m.ck_label label)
            then
              Fault.fail ~phase ~party:receiver
                (Printf.sprintf "frame #%d: expected %s chunk from %s, got %s from %s" seq
                   label (Transcript.party_name sender) m.ck_label
                   (Transcript.party_name m.ck_sender))
            else if m.ck_chunk < next_chunk.(si) then
              (* A replayed chunk (chaos Duplicate): already merged. *)
              go ()
            else if m.ck_chunk > next_chunk.(si) then
              Fault.fail ~phase ~party:receiver
                (Printf.sprintf "%s: chunk gap: awaiting chunk %d, got %d" label
                   next_chunk.(si) m.ck_chunk)
            else begin
              declared m.ck_declared;
              next_chunk.(si) <- m.ck_chunk + 1;
              declared_chunks.(si) <- m.ck_chunks;
              let entries =
                try Stream.decode_entries (unframe ~phase ~receiver ~label m.ck_payload)
                with Wire.Malformed msg ->
                  Fault.fail ~phase ~party:receiver
                    (Printf.sprintf "%s rejected: malformed chunk %d: %s" label m.ck_chunk msg)
              in
              (* Grant the replacement credit before merging so the
                 sender's pipeline never drains on our account.  A dead
                 return path surfaces on the next pull, not here. *)
              (try
                 sub.r_send
                   (Frame.Credit
                      { cr_session = session; cr_epoch = here; cr_seq = seq; cr_n = 1 })
               with Io.Transport_error _ -> ());
              let bytes =
                List.fold_left (fun acc e -> acc + String.length e.Stream.s_bytes) 0 entries
              in
              Obs.Hwm.alloc hwm_pending bytes;
              Obs.Metrics.incr frames_in;
              Obs.Metrics.incr ~by:bytes payload_in;
              Obs.Metrics.incr ~by:bytes stream_bytes_in;
              Obs.Metrics.incr ~by:(List.length entries) stream_rows_in;
              pending.(si) <- entries
            end
          | Frame.Msg_chunk m when m.ck_epoch < here || (m.ck_epoch = here && m.ck_seq < seq)
            ->
            go ()
          | Frame.Msg_chunk m ->
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf "%s: frame gap: awaiting stream #%d of epoch %d, got #%d of epoch %d"
                 label seq here m.ck_seq m.ck_epoch)
          | Frame.Msg m when m.epoch < here || (m.epoch = here && m.seq < seq) -> go ()
          | Frame.Credit _ -> go ()
          | Frame.Abort { epoch = e; failure; _ } when e >= here -> raise (Aborted failure)
          | Frame.Abort _ | Frame.Report _ -> go ()
          | Frame.Session_start { epoch = e; _ } when e <= here -> go ()
          | Frame.Span_batch _ -> go ()
          | f ->
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf "%s: unexpected %s frame mid-stream" label (Frame.tag_name f))
          | exception Io.Transport_error msg ->
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf "%s never arrived: %s" label msg)
        in
        go ()
      in
      let exhausted si = next_chunk.(si) >= declared_chunks.(si) in
      (k, pending, pull, exhausted)
  in
  let entry_bytes entries =
    List.fold_left (fun acc e -> acc + String.length e.Stream.s_bytes) 0 entries
  in
  (* Streamed receiver: verify each entry against the locally computed
     rows in index order.  Nothing is concatenated, so receive-side
     memory is bounded by shards x chunk size however many rows flow. *)
  let recv_rows ~phase ~seq ~sender ~receiver ~label ~size ~expect =
    let declared d =
      if d <> size then
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "%s rejected: stream declares %d bytes, %d computed" label d size)
    in
    let k, pending, pull, exhausted =
      chunk_streams ~phase ~seq ~sender ~receiver ~label ~declared
    in
    List.iter
      (fun (row, bytes) ->
        let si = if k = 1 then 0 else Stream.shard_of_row ~k row in
        while pending.(si) = [] do
          if exhausted si then
            (* The shard's stream is exhausted but rows remain: an
               elided tail is a mismatch, not a hang. *)
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf
                 "%s rejected: wire payload mismatch (stream ended before row %d)" label row)
          else pull si
        done;
        match pending.(si) with
        | [] -> assert false
        | e :: rest ->
          pending.(si) <- rest;
          Obs.Hwm.release hwm_pending (String.length e.Stream.s_bytes);
          if e.Stream.s_row <> row || not (String.equal e.Stream.s_bytes bytes) then
            Fault.fail ~phase ~party:receiver
              (Printf.sprintf
                 "%s rejected: wire payload mismatch (stream row %d: %d bytes received, %d computed)"
                 label row
                 (String.length e.Stream.s_bytes)
                 (String.length bytes)))
      expect;
    Array.iteri
      (fun si p ->
        if p <> [] then begin
          Obs.Hwm.release hwm_pending (entry_bytes p);
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s rejected: %d trailing stream entries from shard %d" label
               (List.length p) si)
        end)
      pending;
    trace_frame "recv" ~phase ~party:sender ~label ~size;
    after_io ~phase
  in
  (* Streamed receiver of a process that did not compute the rows: drain
     every shard's stream, merging entries back into index order (row
     [i] must come from shard [i mod k], with no gap), into the one
     string the caller decodes — a receiver that uses the rows holds
     them anyway. *)
  let take_rows ~phase ~seq ~sender ~receiver ~label =
    let size = ref None in
    let declared d =
      match !size with
      | None -> size := Some d
      | Some s when s <> d ->
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "%s rejected: chunks declare %d and %d bytes" label s d)
      | Some _ -> ()
    in
    let k, pending, pull, exhausted =
      chunk_streams ~phase ~seq ~sender ~receiver ~label ~declared
    in
    let buf = Buffer.create 4096 in
    let rec merge row =
      let si = if k = 1 then 0 else Stream.shard_of_row ~k row in
      while pending.(si) = [] && not (exhausted si) do
        pull si
      done;
      match pending.(si) with
      | e :: rest when e.Stream.s_row = row ->
        pending.(si) <- rest;
        Obs.Hwm.release hwm_pending (String.length e.Stream.s_bytes);
        Buffer.add_string buf e.Stream.s_bytes;
        merge (row + 1)
      | [] -> ()
      | e :: _ ->
        Fault.fail ~phase ~party:receiver
          (Printf.sprintf "%s rejected: stream row %d where row %d was due" label e.Stream.s_row
             row)
    in
    merge 0;
    (* Row [n] was due from one shard whose stream ended; every other
       shard must have ended too, with nothing left over. *)
    Array.iteri
      (fun si _ ->
        while pending.(si) = [] && not (exhausted si) do
          pull si
        done;
        match pending.(si) with
        | [] -> ()
        | p ->
          Obs.Hwm.release hwm_pending (entry_bytes p);
          Fault.fail ~phase ~party:receiver
            (Printf.sprintf "%s rejected: %d stream entries from shard %d past the end" label
               (List.length p) si))
      pending;
    let size = Option.value !size ~default:0 in
    trace_frame "recv" ~phase ~party:sender ~label ~size;
    after_io ~phase;
    (size, Buffer.contents buf)
  in
  { Link.role; computes; send; recv; rows = Some { Link.send_rows; recv_rows; take_rows } }

let run_replica ~role ?computes ~fault ~session ~epoch ~attempt ~scheme ~query ~io_timeout
    ?shard ~route env client =
  match Protocol.scheme_of_name scheme with
  | None ->
    ( Frame.St_failed
        { Fault.phase = "session"; party = role; reason = "unknown scheme: " ^ scheme },
      None )
  | Some sch -> (
    let tr =
      transport ~role ?computes ~session ~epoch:(fun () -> epoch) ~io_timeout ?shard
        ~route_of:(fun _ -> Some route) ()
    in
    match Protocol.attempt ?fault ~endpoint:(Link.Remote tr) sch env client ~query ~attempt with
    | Ok outcome -> (Frame.St_ok, Some outcome)
    | Error f -> (Frame.St_failed f, None)
    | exception Aborted _ -> (Frame.St_aborted, None)
    | exception Io.Transport_error msg ->
      (Frame.St_failed { Fault.phase = "transport"; party = role; reason = msg }, None)
    | exception e ->
      (* A step choking on what it received (this process decodes
         hostile bytes) must still report, or the mediator would wait
         out its timeout on a dead session thread. *)
      ( Frame.St_failed
          { Fault.phase = "replica"; party = role; reason = "unexpected " ^ Printexc.to_string e },
        None ))
