open Secmed_mediation
open Secmed_core
module R = Resilience
module Mux = Endpoint.Mux
module Obs = Secmed_obs

(* One replica endpoint of a datasource.  [re_breaker] is its health,
   a {!R.replica_breaker} guarded by the link's [sl_mu]: Closed means
   up (assumed until a dial, probe, or draining report proves
   otherwise), and an Open breaker keeps the replica out of the dial
   order until its cooldown admits a probe.  It is not one of the
   session's protocol breakers, so a failover never trips those. *)
type replica = {
  re_index : int;
  re_host : string;
  re_port : int;
  re_breaker : R.breaker;
  mutable re_dials : int;
}

(* One pooled connection to a datasource.  Each slot owns at most one
   live mux; a session checks out exactly one slot per source for its
   whole lifetime, so a severed pooled connection faults only the
   sessions bound to that slot — the others never notice.  [ss_epoch]
   counts successful dials: 1 on the first connect, +1 per redial, so
   the ops surface can tell a stable slot from a flapping one.
   [ss_replica] is the slot's replica cursor: which endpoint the live
   mux is (or was last) dialed to. *)
type source_slot = {
  ss_index : int;
  ss_mu : Mutex.t;
  mutable ss_mux : Mux.t option;
  mutable ss_epoch : int;
  mutable ss_replica : int;
}

(* One shard of a logical source.  An unsharded source is the k = 1
   special case, so the whole pool/failover machinery below is per
   shard: each shard has its own replica set, its own slots, its own
   health state, and is dialed with its own scenario digest
   ({!Shard.digest}) so a miswired partition fails the handshake. *)
type source_link = {
  sl_id : int;
  sl_shard : int;
  sl_shard_count : int;
  sl_scenario : string;  (* the shard digest this link dials with *)
  sl_mu : Mutex.t;  (* guards every replica's breaker and dial count *)
  sl_replicas : replica array;
  sl_slots : source_slot array;
}

(* One entry of the failover transition log: a replica's breaker leaving
   or re-entering Closed, or a slot cursor move, timestamped relative to
   server start so a soak harness can match them against its seeded kill
   schedule. *)
type fo_event = {
  fo_at : float;
  fo_source : int;
  fo_replica : int;
  fo_kind : string;  (* "down" | "up" | "failover" *)
  fo_detail : string;
}

type t = {
  env : Env.t;
  client : Env.client;
  scenario : string;
  sources : source_link list;
  listen_fd : Unix.file_descr;
  policy : R.policy;
  rsession : R.session;
  max_sessions : int;
  io_timeout : float;
  drain_deadline : float;
  health_interval : float;  (* 0. = no prober thread *)
  sched : Sched.t;  (* bounds concurrent protocol drivers; overflow queues FIFO *)
  admission_mu : Mutex.t;
  mutable active : int;
  mutable next_session : int;
  mutable stopped : bool;
  mutable draining : bool;
  mutable drain_deadline_at : float;
  started_at : float;
  fo_mu : Mutex.t;
  mutable fo_events : fo_event list;  (* newest first, capped *)
  mutable fo_count : int;
  conns_mu : Mutex.t;
  mutable conn_seq : int;
  live_conns : (int, Io.conn) Hashtbl.t;  (* open client connections *)
}

(* Interned eagerly at module init — see the note in {!Endpoint}. *)
let sessions_admitted = Secmed_obs.Metrics.counter "serve.sessions.admitted"
let sessions_refused = Secmed_obs.Metrics.counter "serve.sessions.refused"
let sessions_drain_refused = Secmed_obs.Metrics.counter "serve.sessions.drain_refused"
let active_gauge = Secmed_obs.Metrics.gauge "serve.sessions.active"

(* Per-scheme serving cells, one row per protocol (the CLI aliases of
   [Protocol.all_schemes]) plus one [unknown] row that absorbs every
   name no protocol carries, so a hostile client cannot grow the
   registry.  Updates and the stats read hold [scheme_mu], so a row's
   counts and latency histogram move together. *)
type scheme_row = {
  served : Obs.Metrics.counter;
  degraded : Obs.Metrics.counter;
  failed : Obs.Metrics.counter;
  latency : Obs.Metrics.histogram;
}

let scheme_rows =
  List.map
    (fun name ->
      let cell k = Printf.sprintf "serve.scheme.%s.%s" name k in
      ( name,
        { served = Obs.Metrics.counter (cell "served");
          degraded = Obs.Metrics.counter (cell "degraded");
          failed = Obs.Metrics.counter (cell "failed");
          latency = Obs.Metrics.histogram (cell "latency_seconds") } ))
    [ "das"; "commutative"; "pm"; "mobile-code"; "plain"; "unknown" ]

let scheme_mu = Mutex.create ()

(* A scheme alias ("pm-direct"), a canonical name ("das[singleton]")
   and a driver's outcome label ("pm-session-keys") all start with their
   protocol's row name. *)
let row_of key =
  match List.find_opt (fun (row, _) -> String.starts_with ~prefix:row key) scheme_rows with
  | Some (_, r) -> r
  | None -> List.assoc "unknown" scheme_rows

let create ~env ~client ~scenario ~sources ~listen_fd ?(policy = R.default_policy)
    ?(max_sessions = 8) ?(io_timeout = 10.) ?(source_conns = 2) ?workers
    ?(drain_deadline = 30.) ?(health_interval = 0.) () =
  let source_conns = max 1 source_conns in
  let workers = match workers with Some w -> max 1 w | None -> max_sessions in
  let replica_config = R.replica_breaker ~cooldown:policy.R.breaker_config.R.cooldown in
  {
    env;
    client;
    scenario;
    sources =
      (* Flattened over shards: every piece of pool machinery (dialing,
         failover, probing, teardown) iterates physical endpoints; the
         logical grouping is recovered by [sl_id] where it matters (the
         route merge in [make_routes]). *)
      List.concat_map
        (fun (sl_id, shards) ->
          if shards = [] then invalid_arg "Server.create: source with no shards";
          let sl_shard_count = List.length shards in
          List.mapi
            (fun sl_shard replicas ->
              if replicas = [] then invalid_arg "Server.create: source with no replicas";
              {
                sl_id;
                sl_shard;
                sl_shard_count;
                sl_scenario = Shard.digest scenario ~shard:(sl_shard, sl_shard_count);
                sl_mu = Mutex.create ();
                sl_replicas =
                  Array.of_list
                    (List.mapi
                       (fun re_index (re_host, re_port) ->
                         { re_index; re_host; re_port;
                           re_breaker =
                             R.breaker ~config:replica_config R.monotonic
                               (Transcript.Source sl_id);
                           re_dials = 0 })
                       replicas);
                sl_slots =
                  Array.init source_conns (fun ss_index ->
                      { ss_index; ss_mu = Mutex.create (); ss_mux = None; ss_epoch = 0;
                        ss_replica = 0 });
              })
            shards)
        sources;
    listen_fd;
    policy;
    rsession = R.session ~policy ();
    max_sessions;
    io_timeout;
    drain_deadline;
    health_interval;
    sched = Sched.create ~workers;
    admission_mu = Mutex.create ();
    active = 0;
    next_session = 1;
    stopped = false;
    draining = false;
    drain_deadline_at = infinity;
    started_at = Unix.gettimeofday ();
    fo_mu = Mutex.create ();
    fo_events = [];
    fo_count = 0;
    conns_mu = Mutex.create ();
    conn_seq = 0;
    live_conns = Hashtbl.create 32;
  }

(* A session's slot for a source: round-robin by session id, so tests
   can predict which sessions share a pooled connection. *)
let slot_of sl sid = sl.sl_slots.((sid - 1) mod Array.length sl.sl_slots)

let log_fo t ~source ~replica ~kind ~detail =
  Mutex.protect t.fo_mu (fun () ->
      t.fo_count <- t.fo_count + 1;
      let kept =
        if List.length t.fo_events >= 512 then List.filteri (fun i _ -> i < 511) t.fo_events
        else t.fo_events
      in
      t.fo_events <-
        { fo_at = Unix.gettimeofday () -. t.started_at; fo_source = source;
          fo_replica = replica; fo_kind = kind; fo_detail = detail }
        :: kept)

let up re = R.breaker_state re.re_breaker = R.Closed

(* Apply one health verdict to replica [idx]'s breaker.  The failover
   log gets an entry only when the breaker leaves or re-enters Closed,
   so its length follows real world events, not probe frequency. *)
let set_health t sl idx ~reason verdict =
  let re = sl.sl_replicas.(idx) in
  let was_up, is_up =
    Mutex.protect sl.sl_mu (fun () ->
        let was_up = up re in
        verdict re.re_breaker;
        (was_up, up re))
  in
  if was_up <> is_up then
    log_fo t ~source:sl.sl_id ~replica:idx ~kind:(if is_up then "up" else "down")
      ~detail:reason

let mark_down t sl idx ~reason = set_health t sl idx ~reason (R.breaker_record ~ok:false)

(* Dial order: up replicas first, then those whose breaker admits a
   probe (failback), primary first within each group.  If none
   qualifies — every replica freshly down — try them all anyway: with
   a single replica that redials at once, and with several a
   fully-partitioned pool still dials rather than giving up. *)
let candidates sl =
  let idxs = List.init (Array.length sl.sl_replicas) Fun.id in
  let closed, down =
    Mutex.protect sl.sl_mu (fun () ->
        let closed, down = List.partition (fun i -> up sl.sl_replicas.(i)) idxs in
        (closed, List.filter (fun i -> R.breaker_allow sl.sl_replicas.(i).re_breaker) down))
  in
  match closed @ down with [] -> idxs | eligible -> eligible

(* The pooled datasource connection, dialed on first use and redialed
   when a previous incarnation died (e.g. peer SIGKILLed, or severed by
   the chaos proxy) — the transport-level half of "a connection failure
   is a typed, retryable fault".  Lazy redial is per slot: only the
   sessions checked out on the dead slot pay the reconnect.  The redial
   walks the replica candidates in health order, so a dead primary
   fails the bound sessions over to a standby within their one typed
   retry; a later redial after the cooldown fails back.  A live mux
   whose replica was marked down out-of-band (health probe, draining
   report) is proactively switched — but only when some other replica
   is known up, so a single-replica pool never churns a working
   connection. *)
let ensure_slot t sl slot =
  Mutex.protect slot.ss_mu (fun () ->
      (* A stopped server must not open fresh source connections: the
         teardown sweep severs the muxes it can see, and a session that
         transparently redialed behind it would sit out a full transport
         timeout on a connection nobody will ever tear down. *)
      if t.stopped then Error "mediator stopped"
      else
      let dial_replica re =
        match Io.connect ~timeout:t.io_timeout ~host:re.re_host ~port:re.re_port () with
        | exception Io.Transport_error msg -> Error msg
        | conn -> (
          try
            (* Each shard is dialed with its own digest: shard daemons
               prove which partition they serve the same way every peer
               proves which workload it built. *)
            Io.send_frame conn
              (Frame.encode
                 (Frame.Hello { role = Transcript.Mediator; scenario = sl.sl_scenario }));
            match Frame.decode (Io.recv_frame conn) with
            | Frame.Hello_ok { scenario } when String.equal scenario sl.sl_scenario ->
              (* The mux receive thread must outlive idle periods. *)
              Io.set_timeout conn 0.;
              Ok (Mux.create conn)
            | Frame.Hello_ok _ ->
              Io.close conn;
              Error "scenario digest mismatch (daemon built a different workload)"
            | Frame.Draining reason ->
              Io.close conn;
              Error ("draining: " ^ reason)
            | f ->
              Io.close conn;
              Error ("unexpected " ^ Frame.tag_name f ^ " in handshake")
          with
          | Io.Transport_error msg | Wire.Malformed msg ->
            Io.close conn;
            Error msg)
      in
      let redial () =
        (match slot.ss_mux with
        | Some m -> Io.close (Mux.conn m)
        | None -> ());
        slot.ss_mux <- None;
        let rec try_each last = function
          | [] -> Error (Option.value last ~default:"no replica reachable")
          | idx :: rest -> (
            let re = sl.sl_replicas.(idx) in
            Mutex.protect sl.sl_mu (fun () -> re.re_dials <- re.re_dials + 1);
            match dial_replica re with
            | Ok m ->
              (* A dial proves the replica up, whether its breaker
                 admitted it or every replica was down. *)
              set_health t sl idx ~reason:"" R.breaker_close;
              if slot.ss_epoch > 0 && slot.ss_replica <> idx then
                log_fo t ~source:sl.sl_id ~replica:idx ~kind:"failover"
                  ~detail:
                    (Printf.sprintf "%sslot %d: replica %d -> %d"
                       (if sl.sl_shard_count > 1 then
                          Printf.sprintf "shard %d " sl.sl_shard
                        else "")
                       slot.ss_index slot.ss_replica idx);
              slot.ss_replica <- idx;
              slot.ss_mux <- Some m;
              slot.ss_epoch <- slot.ss_epoch + 1;
              Ok m
            | Error msg ->
              mark_down t sl idx ~reason:msg;
              try_each
                (Some (Printf.sprintf "replica %d (%s:%d): %s" idx re.re_host re.re_port msg))
                rest)
        in
        try_each None (candidates sl)
      in
      match slot.ss_mux with
      | Some m when Mux.alive m ->
        let switch =
          Mutex.protect sl.sl_mu (fun () ->
              (not (up sl.sl_replicas.(slot.ss_replica)))
              && Array.exists
                   (fun re -> up re && re.re_index <> slot.ss_replica)
                   sl.sl_replicas)
        in
        if switch then redial () else Ok m
      | Some _ | None -> redial ())

let wire_failure (f : Protocol.failure) =
  { Fault.phase = f.Protocol.phase; party = f.Protocol.party; reason = f.Protocol.reason }

(* ------------------------------------------------------------------ *)
(* One client query *)

type peer_routes = {
  client_route : Endpoint.route;
  client_report : Frame.status option ref;
  source_routes : (int * Endpoint.route) list;
      (* per logical source: the merged route the driver's transport
         uses — [r_send] broadcasts to every shard, [r_next] reads the
         designated scalar speaker (shard 0), [r_sub] carries the
         per-shard routes a streamed receive merges *)
  source_reports : (int * int * Endpoint.route * Frame.status option ref) list;
      (* one per physical shard: (source id, shard, shard route, report
         cell) — the commit barrier awaits every shard's report *)
  stats : (Transcript.party * int ref * int ref) list;
}

(* A replica's Report can arrive while the mediator's driver is still
   blocked on a Msg from that very party — the replica gave up first
   (its own receive timed out, or it detected corruption on delivery).
   The driver's receive loop must not swallow the root cause: every
   current-epoch Report is stashed where the commit barrier can find
   it, and a St_failed fails the blocked receive fast — the frame it
   was waiting for will never come. *)
let stashing ?(on_failed = fun (_ : Fault.failure) -> ()) ~epoch ~party cell
    (route : Endpoint.route) =
  {
    route with
    Endpoint.r_next =
      (fun ~timeout ->
        match route.Endpoint.r_next ~timeout with
        | Frame.Report { epoch = e; status; _ } as f when e = !epoch ->
          cell := Some status;
          (match status with
          | Frame.St_failed failure ->
            on_failed failure;
            raise (Io.Transport_error (Transcript.party_name party ^ " reported a failure"))
          | Frame.St_ok | Frame.St_aborted ->
            (* Returned (not swallowed) so a blocked caller re-examines
               the stash at once instead of waiting out its timeout. *)
            f)
        | f -> f);
  }

(* Span batches are observability riding the session stream: record
   each one into the accumulator as it passes.  The frame is returned,
   not swallowed — every downstream reader (the endpoint's receive
   filter, the commit barrier, the post-verdict drain) skips it, and
   returning lets the drain notice a completed count without waiting
   out another read timeout. *)
let batching acc (route : Endpoint.route) =
  {
    route with
    Endpoint.r_next =
      (fun ~timeout ->
        match route.Endpoint.r_next ~timeout with
        | Frame.Span_batch { party; parent; payload; _ } as f ->
          acc := { Trace_wire.rm_party = party; rm_parent = parent; rm_payload = payload }
                 :: !acc;
          f
        | f -> f);
  }

(* Payload byte accounting per counterpart.  A [Msg_chunk] counts its
   row bytes (peeked from the count prefix, no decode), so for an
   unsharded run the per-link totals still equal the transcript's
   bytes-on-link — scalar and streamed encodings are interchangeable in
   the accounting too. *)
let counted (_, out_c, in_c) (route : Endpoint.route) =
  (* Payloads carry the integrity tag, which no byte stat counts. *)
  let bytes = function
    | Frame.Msg m -> max 0 (String.length m.Frame.payload - Fault.tag_bytes)
    | Frame.Msg_chunk m -> max 0 (Stream.payload_row_bytes m.Frame.ck_payload - Fault.tag_bytes)
    | _ -> 0
  in
  {
    route with
    Endpoint.r_send =
      (fun f ->
        out_c := !out_c + bytes f;
        route.Endpoint.r_send f);
    r_next =
      (fun ~timeout ->
        let f = route.Endpoint.r_next ~timeout in
        in_c := !in_c + bytes f;
        f);
  }

let make_routes t conn sid ~epoch ~batches =
  let stat party = (party, ref 0, ref 0) in
  let client_stat = stat Transcript.Client in
  let client_report = ref None in
  let client_route =
    stashing ~epoch ~party:Transcript.Client client_report
      (counted client_stat
         (Endpoint.plain_route
            ~send:(fun f -> Io.send_frame conn (Frame.encode f))
            ~next:(fun ~timeout ->
              Io.set_timeout conn timeout;
              Frame.decode (Io.recv_frame conn))))
  in
  (* A source route resolves its slot's mux on every call: when the
     previous incarnation died (peer crashed, chaos proxy severed the
     stream), the next send or receive redials through {!ensure_slot}
     — so a connection failure costs one attempt, not the whole query,
     and only for the sessions bound to that slot.

     A sharded source builds one such route per shard, then merges them:
     scalar sends broadcast (every shard replica awaits the mediator's
     messages), scalar receives read shard 0 (the designated scalar
     speaker), and the per-shard routes ride along in [r_sub] for the
     streamed receive to interleave. *)
  let ids = List.sort_uniq compare (List.map (fun sl -> sl.sl_id) t.sources) in
  let per_source =
    List.map
      (fun id ->
        let shards = List.filter (fun sl -> sl.sl_id = id) t.sources in
        let s = stat (Transcript.Source id) in
        let with_cells =
          List.map
            (fun sl ->
              let cell = ref None in
              let slot = slot_of sl sid in
              let describe () =
                if sl.sl_shard_count > 1 then
                  Printf.sprintf "source %d shard %d" id sl.sl_shard
                else Printf.sprintf "source %d" id
              in
              let mux () =
                match ensure_slot t sl slot with
                | Ok m ->
                  Mux.subscribe m sid;
                  m
                | Error msg ->
                  raise (Io.Transport_error (Printf.sprintf "%s: %s" (describe ()) msg))
              in
              (* A replica that reports "draining" is refusing new work
                 but still healthy enough to answer: mark it down so the
                 retry's {!ensure_slot} proactively switches this slot to
                 a standby instead of knocking on the same draining
                 daemon again. *)
              let on_failed (f : Fault.failure) =
                if String.equal f.Fault.reason "draining" then
                  mark_down t sl slot.ss_replica ~reason:"peer draining"
              in
              let r =
                stashing ~on_failed ~epoch ~party:(Transcript.Source id) cell
                  (batching batches
                     (counted s
                        (Endpoint.plain_route
                           ~send:(fun f -> Mux.send (mux ()) f)
                           ~next:(fun ~timeout -> Mux.next (mux ()) ~session:sid ~timeout))))
              in
              (sl.sl_shard, r, cell))
            shards
        in
        let arr = Array.of_list (List.map (fun (_, r, _) -> r) with_cells) in
        let merged =
          if Array.length arr = 1 then arr.(0)
          else
            {
              Endpoint.r_send = (fun f -> Array.iter (fun r -> r.Endpoint.r_send f) arr);
              r_next = arr.(0).Endpoint.r_next;
              r_sub = Some arr;
            }
        in
        (id, s, merged, List.map (fun (shard, r, c) -> (id, shard, r, c)) with_cells))
      ids
  in
  {
    client_route;
    client_report;
    source_routes = List.map (fun (id, _, merged, _) -> (id, merged)) per_source;
    source_reports = List.concat_map (fun (_, _, _, reps) -> reps) per_source;
    stats = client_stat :: List.map (fun (_, s, _, _) -> s) per_source;
  }

(* The commit barrier around each attempt: announce it, and afterwards
   collect every replica's report so no stale frames leak into the next
   attempt.  A replica's own typed fault is the root cause and outranks
   whatever downstream stall the mediator observed locally. *)
let coordinator t ~sid ~query ~fault_spec ~routes ~epoch ~failures ~trace_id ~session_span =
  let cells =
    routes.client_report :: List.map (fun (_, _, _, c) -> c) routes.source_reports
  in
  let broadcast frame =
    (try routes.client_route.Endpoint.r_send frame with Io.Transport_error _ -> ());
    (* The merged route's send fans out to every shard. *)
    List.iter
      (fun (_, r) -> try r.Endpoint.r_send frame with Io.Transport_error _ -> ())
      routes.source_routes
  in
  let begin_attempt ~scheme ~attempt =
    incr epoch;
    List.iter (fun c -> c := None) cells;
    broadcast
      (Frame.Session_start
         {
           session = sid;
           epoch = !epoch;
           attempt;
           scheme;
           query;
           fault_spec;
           trace_id;
           trace_parent = !session_span;
         })
  in
  (* The {!stashing} wrapper intercepts every current-epoch Report, so
     the stash cell — not the frame stream — is where a report lands,
     whether it arrived mid-attempt (swallowed by the driver's blocked
     receive) or during this barrier.  The loop just drains leftover
     frames until the cell fills or the window closes. *)
  let await name party (route : Endpoint.route) cell =
    let rec go () =
      match !cell with
      | Some status -> status
      | None -> (
        match route.Endpoint.r_next ~timeout:t.io_timeout with
        | _ -> go ()
        | exception Io.Transport_error msg -> (
          match !cell with
          | Some status -> status
          | None ->
            Frame.St_failed
              { Fault.phase = "transport"; party; reason = Printf.sprintf "%s: %s" name msg }))
    in
    go ()
  in
  let end_attempt ~scheme ~attempt:_ local =
    (match local with
    | Error f -> broadcast (Frame.Abort { session = sid; epoch = !epoch; failure = f })
    | Ok _ -> ());
    (* Sources before the client: in the star topology the client is
       downstream of every mediator stall, so when a source frame was
       lost the client's "mediator went quiet" timeout is a symptom —
       the source's own failure is the root cause and must win the
       blame, exactly as it does in the simulated (in-process) run.
       Every shard replica owes its own report. *)
    let statuses =
      List.map
        (fun (id, shard, r, c) ->
          let name =
            if List.exists (fun (i, s, _, _) -> i = id && s <> shard) routes.source_reports
            then Printf.sprintf "source %d shard %d" id shard
            else Printf.sprintf "source %d" id
          in
          await name (Transcript.Source id) r c)
        routes.source_reports
      @ [ await "client" Transcript.Client routes.client_route routes.client_report ]
    in
    let peer_failure =
      List.find_map (function Frame.St_failed f -> Some f | _ -> None) statuses
    in
    let verdict =
      match (local, peer_failure) with
      | _, Some pf -> Error pf
      | Error f, None -> Error f
      | Ok outcome, None -> Ok outcome
    in
    (match verdict with
    | Error f -> failures := (scheme, f) :: !failures
    | Ok _ -> ());
    (* A failed attempt on a stopped server must not enter the retry /
       degradation ladder: the client connection was severed by the
       teardown, so every further attempt (some of them crypto-heavy)
       would burn a worker the [Sched.stop] join is waiting on.  The
       typed abort unwinds the driver immediately. *)
    (match verdict with
    | Error f when t.stopped -> raise (Endpoint.Aborted f)
    | _ -> ());
    verdict
  in
  { Protocol.begin_attempt; end_attempt }

(* [key] is the scheme that answered (or, for a failure, the one that
   was asked). *)
let note_result ~key ~elapsed outcome =
  let row = row_of key in
  Mutex.protect scheme_mu (fun () ->
      (match outcome with
      | `Served -> Obs.Metrics.incr row.served
      | `Degraded ->
        Obs.Metrics.incr row.served;
        Obs.Metrics.incr row.degraded
      | `Failed -> Obs.Metrics.incr row.failed);
      Obs.Metrics.observe row.latency elapsed)

let run_query t conn sid ~release ~scheme ~query ~fault_spec ~deadline ~fallback ~trace =
  let started = Unix.gettimeofday () in
  let reply result =
    (* The admission slot is free before the client can observe the
       verdict: a closed-loop client that reconnects the instant its
       result lands must find room, not race the server's teardown. *)
    release ();
    try Io.send_frame conn (Frame.encode (Frame.Session_result { session = sid; result }))
    with Io.Transport_error _ -> ()
  in
  let refuse key failure =
    note_result ~key ~elapsed:(Unix.gettimeofday () -. started) `Failed;
    reply (Frame.W_unserved [ (scheme, failure, 0) ])
  in
  match Protocol.scheme_of_name scheme with
  | None ->
    refuse "unknown"
      { Fault.phase = "session"; party = Transcript.Mediator; reason = "unknown scheme: " ^ scheme }
  | Some sch -> (
    let fault =
      if String.equal fault_spec "" then Ok None
      else Result.map Option.some (Fault.of_spec fault_spec)
    in
    match fault with
    | Error e ->
      refuse scheme
        { Fault.phase = "session"; party = Transcript.Mediator; reason = "bad fault spec: " ^ e }
    | Ok fault -> (
      let rec dial acc = function
        | [] -> Ok (List.rev acc)
        | sl :: rest -> (
          match ensure_slot t sl (slot_of sl sid) with
          | Ok m -> dial ((sl.sl_id, m) :: acc) rest
          | Error msg -> Error (sl.sl_id, msg))
      in
      match dial [] t.sources with
      | Error (source_id, msg) ->
        refuse scheme
          { Fault.phase = "transport"; party = Transcript.Source source_id; reason = msg }
      | Ok smuxes ->
        List.iter (fun (_, m) -> Mux.subscribe m sid) smuxes;
        Fun.protect ~finally:(fun () ->
            (* Whatever mux this session's slot holds *now* — possibly a
               redialed incarnation — gets the end-of-session notice.
               [t.sources] is flat over shards, so every shard daemon
               hears it. *)
            List.iter
              (fun sl ->
                let slot = slot_of sl sid in
                Mutex.protect slot.ss_mu (fun () ->
                    match slot.ss_mux with
                    | Some m ->
                      (try Mux.send m (Frame.Session_end { session = sid })
                       with Io.Transport_error _ -> ());
                      Mux.unsubscribe m sid
                    | None -> ()))
              t.sources)
        @@ fun () ->
        let epoch = ref 0 in
        let batches = ref [] in
        let routes = make_routes t conn sid ~epoch ~batches in
        let failures = ref [] in
        (* Tracing: one collector for the whole session, bound to this
           worker thread, with a root "session" span whose id every
           [Session_start] carries as [trace_parent] — the anchor each
           replica's batch roots hang under. *)
        let trace_id = if trace then Printf.sprintf "s%d" sid else "" in
        let collector = if trace then Some (Obs.Trace.create ()) else None in
        let session_span = ref (-1) in
        let coordinator =
          coordinator t ~sid ~query ~fault_spec ~routes ~epoch ~failures ~trace_id ~session_span
        in
        let route_of = function
          | Transcript.Client -> Some routes.client_route
          | Transcript.Source i ->
            List.find_map
              (fun (id, r) -> if id = i then Some r else None)
              routes.source_routes
          | Transcript.Mediator | Transcript.Authority -> None
        in
        let deadline_ref = ref None in
        let after_io ~phase =
          match !deadline_ref with Some d -> R.check d ~phase | None -> ()
        in
        (* The mediator waits twice as long as the leaves: when a frame
           is lost, its true receiver must time out (and report the
           root-cause failure) while the mediator is still listening —
           the stash then fails the mediator's receive fast, so the
           margin is latency-free except when a peer is truly silent. *)
        let transport =
          Endpoint.transport ~role:Transcript.Mediator ~session:sid
            ~epoch:(fun () -> !epoch)
            ~io_timeout:(t.io_timeout *. 2.) ~route_of ~after_io ()
        in
        (* A per-query deadline narrows the budget but must not discard
           the long-lived breaker state, which only the shared session
           holds; queries content with the server policy share it (the
           shared session's breaker table is internally locked, so
           concurrent workers may use it directly). *)
        let rsession =
          if deadline > 0. then
            R.session ~policy:{ t.policy with R.deadline_budget = Some deadline } ()
          else t.rsession
        in
        let run_driver () =
          Protocol.run_session ?fault ~endpoint:(Link.Remote transport) ~coordinator
            ~on_deadline:(fun d -> deadline_ref := Some d)
            ~session:rsession
            ?chain:(if fallback then None else Some [])
            sch t.env t.client ~query
        in
        let run_traced () =
          match collector with
          | None -> run_driver ()
          | Some c ->
            Obs.Trace.with_collector c (fun () ->
                Obs.Trace.with_span ~kind:Obs.Trace.Protocol
                  ~attrs:
                    [
                      ("session", Obs.Json.Int sid);
                      ("scheme", Obs.Json.Str scheme);
                      ("party", Obs.Json.Str "mediator");
                    ]
                  "session"
                  (fun () ->
                    (match Obs.Trace.current_span_id () with
                    | Some id -> session_span := id
                    | None -> ());
                    run_driver ()))
        in
        let verdict =
          match run_traced () with
          | v -> Some v
          | exception Endpoint.Aborted _ ->
            (* The coordinator cut the session short (stopped server).
               No reply: a cut at the drain deadline must look to the
               client exactly like the process death it stands in for —
               a severed connection it redials — not a terminal Unserved
               verdict racing the teardown's socket sweep. *)
            None
        in
        (* Each source owes one batch per epoch; a bounded drain picks
           up the ones racing in behind the final Reports.  Best-effort:
           a dead or silent source just stops its own drain. *)
        let drain_batches () =
          let timeout = Float.min 2.0 t.io_timeout in
          (* Each shard replica ships one batch per epoch, all tagged
             with the same source party; drain each shard's own route
             until the source's total reaches epochs x shards (or the
             window closes — best-effort). *)
          List.iter
            (fun (id, _, (r : Endpoint.route), _) ->
              let shards =
                List.length (List.filter (fun (i, _, _, _) -> i = id) routes.source_reports)
              in
              let have () =
                List.length
                  (List.filter
                     (fun b -> b.Trace_wire.rm_party = Transcript.Source id)
                     !batches)
              in
              let rec go () =
                if have () < !epoch * shards then
                  match r.Endpoint.r_next ~timeout with
                  | _ -> go ()
                  | exception Io.Transport_error _ -> ()
              in
              go ())
            routes.source_reports
        in
        let forward_spans () =
          match collector with
          | None -> ()
          | Some c ->
            drain_batches ();
            let send rm =
              try
                Io.send_frame conn
                  (Frame.encode
                     (Frame.Span_batch
                        {
                          session = sid;
                          party = rm.Trace_wire.rm_party;
                          parent = rm.Trace_wire.rm_parent;
                          payload = rm.Trace_wire.rm_payload;
                        }))
              with Io.Transport_error _ -> ()
            in
            List.iter send (List.rev !batches);
            send
              {
                Trace_wire.rm_party = Transcript.Mediator;
                rm_parent = -1;
                rm_payload = Trace_wire.payload_of c;
              }
        in
        let elapsed = Unix.gettimeofday () -. started in
        (match verdict with
        | None ->
          note_result ~key:scheme ~elapsed `Failed;
          release ()
        | Some (Protocol.Served outcome) ->
          let w_degraded =
            match outcome.Outcome.degraded_from with
            | None -> None
            | Some from_scheme ->
              let reason =
                match
                  List.find_opt
                    (fun (s, _) -> not (String.equal s outcome.Outcome.scheme))
                    !failures
                with
                | Some (_, (f : Fault.failure)) -> f.Fault.reason
                | None -> "scheme exhausted its budget"
              in
              Some (from_scheme, reason)
          in
          note_result ~key:outcome.Outcome.scheme ~elapsed
            (match w_degraded with None -> `Served | Some _ -> `Degraded);
          forward_spans ();
          reply
            (Frame.W_served
               {
                 w_scheme = outcome.Outcome.scheme;
                 w_attempts = !epoch;
                 w_degraded;
                 w_link_stats =
                   List.map (fun (p, out_c, in_c) -> (p, !out_c, !in_c)) routes.stats;
               })
        | Some (Protocol.Unserved tried) ->
          (* A deadline can trip mid-attempt, leaving replicas blocked on
             a frame that will never come: release them before the
             result, so the client's replica unwinds ahead of reading it. *)
          let last_failure =
            match List.rev tried with
            | (_, f) :: _ -> wire_failure f
            | [] ->
              {
                Fault.phase = "session";
                party = Transcript.Mediator;
                reason = "no scheme attempted";
              }
          in
          (try
             routes.client_route.Endpoint.r_send
               (Frame.Abort { session = sid; epoch = !epoch; failure = last_failure })
           with Io.Transport_error _ -> ());
          List.iter
            (fun (_, r) ->
              try
                r.Endpoint.r_send
                  (Frame.Abort { session = sid; epoch = !epoch; failure = last_failure })
              with Io.Transport_error _ -> ())
            routes.source_routes;
          (* The client replica's Report to the final abort, if any. *)
          note_result ~key:scheme ~elapsed `Failed;
          forward_spans ();
          reply
            (Frame.W_unserved
               (List.map
                  (fun (s, (f : Protocol.failure)) -> (s, wire_failure f, f.Protocol.attempts))
                  tried)))))

(* ------------------------------------------------------------------ *)
(* Live stats snapshot *)

let stats_json t =
  let module J = Obs.Json in
  let now = Unix.gettimeofday () in
  let uptime = now -. t.started_at in
  let active, next_session =
    Mutex.protect t.admission_mu (fun () -> (t.active, t.next_session))
  in
  let sched = Sched.stats t.sched in
  let utilization =
    if uptime <= 0. then 0.
    else sched.Sched.st_busy_seconds /. (uptime *. float_of_int sched.Sched.st_workers)
  in
  let pool =
    List.map
      (fun sl ->
        let replicas =
          Mutex.protect sl.sl_mu (fun () ->
              Array.to_list
                (Array.map
                   (fun re ->
                     J.Obj
                       [
                         ("replica", J.Int re.re_index);
                         ("addr", J.Str (Printf.sprintf "%s:%d" re.re_host re.re_port));
                         ("up", J.Bool (up re));
                         ("dials", J.Int re.re_dials);
                         ("transitions", J.Int (R.breaker_transition_count re.re_breaker));
                       ])
                   sl.sl_replicas))
        in
        J.Obj
          [
            ("source", J.Int sl.sl_id);
            ("shard", J.Int sl.sl_shard);
            ("shards", J.Int sl.sl_shard_count);
            ( "addr",
              J.Str
                (Printf.sprintf "%s:%d" sl.sl_replicas.(0).re_host sl.sl_replicas.(0).re_port)
            );
            ("replicas", J.List replicas);
            ( "slots",
              J.List
                (Array.to_list
                   (Array.map
                      (fun slot ->
                        let connected, dials, replica =
                          Mutex.protect slot.ss_mu (fun () ->
                              ( (match slot.ss_mux with
                                | Some m -> Mux.alive m
                                | None -> false),
                                slot.ss_epoch, slot.ss_replica ))
                        in
                        J.Obj
                          [
                            ("slot", J.Int slot.ss_index);
                            ("connected", J.Bool connected);
                            ("dials", J.Int dials);
                            ("replica", J.Int replica);
                          ])
                      sl.sl_slots)) );
          ])
      t.sources
  in
  let failover =
    let events, count = Mutex.protect t.fo_mu (fun () -> (List.rev t.fo_events, t.fo_count)) in
    J.Obj
      [
        ("count", J.Int count);
        ( "events",
          J.List
            (List.map
               (fun e ->
                 J.Obj
                   [
                     ("at", J.Float e.fo_at);
                     ("source", J.Int e.fo_source);
                     ("replica", J.Int e.fo_replica);
                     ("kind", J.Str e.fo_kind);
                     ("detail", J.Str e.fo_detail);
                   ])
               events) );
      ]
  in
  let schemes =
    Mutex.protect scheme_mu (fun () ->
        List.filter_map
          (fun (name, row) ->
            let count = Obs.Metrics.histogram_count row.latency in
            if count = 0 then None
            else
              let p50, p90, p99 = Obs.Metrics.percentiles row.latency in
              Some
                ( name,
                  J.Obj
                    [
                      ("served", J.Int (Obs.Metrics.counter_value row.served));
                      ("degraded", J.Int (Obs.Metrics.counter_value row.degraded));
                      ("failed", J.Int (Obs.Metrics.counter_value row.failed));
                      ( "latency_seconds",
                        J.Obj
                          [
                            ("count", J.Int count);
                            ("p50", J.Float p50);
                            ("p90", J.Float p90);
                            ("p99", J.Float p99);
                            ("max", J.Float (Obs.Metrics.histogram_max row.latency));
                          ] );
                    ] ))
          scheme_rows)
  in
  let cv name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  let streams =
    J.Obj
      [
        ("rows_in", J.Int (cv "stream.rows.in"));
        ("rows_out", J.Int (cv "stream.rows.out"));
        ("bytes_in", J.Int (cv "stream.bytes.in"));
        ("bytes_out", J.Int (cv "stream.bytes.out"));
        ("backlog_chunks", J.Int (Endpoint.stream_backlog ()));
        ("hwm", Obs.Hwm.snapshot ());
      ]
  in
  J.Obj
    [
      ("uptime_seconds", J.Float uptime);
      ("scenario", J.Str t.scenario);
      ( "sessions",
        J.Obj
          [
            ("active", J.Int active);
            ("max", J.Int t.max_sessions);
            ("next_id", J.Int next_session);
            ("admitted", J.Int (Obs.Metrics.counter_value sessions_admitted));
            ("refused", J.Int (Obs.Metrics.counter_value sessions_refused));
            ("drain_refused", J.Int (Obs.Metrics.counter_value sessions_drain_refused));
            ("draining", J.Bool t.draining);
          ] );
      ( "scheduler",
        J.Obj
          [
            ("workers", J.Int sched.Sched.st_workers);
            ("busy", J.Int sched.Sched.st_busy);
            ("queued", J.Int sched.Sched.st_queued);
            ("submitted", J.Int sched.Sched.st_submitted);
            ("completed", J.Int sched.Sched.st_completed);
            ("rejected", J.Int sched.Sched.st_rejected);
            ("busy_seconds", J.Float sched.Sched.st_busy_seconds);
            ("utilization", J.Float utilization);
          ] );
      ("pool", J.List pool);
      ("failover", failover);
      ("breakers", R.breakers_json t.rsession);
      ( "net",
        J.Obj
          [
            ("bytes_sent", J.Int (cv "net.bytes_sent"));
            ("bytes_recv", J.Int (cv "net.bytes_recv"));
            ("frames_sent", J.Int (cv "net.frames_sent"));
            ("frames_recv", J.Int (cv "net.frames_recv"));
          ] );
      ("streams", streams);
      ("schemes", J.Obj schemes);
    ]

(* ------------------------------------------------------------------ *)
(* Drain *)

(* Only idempotent field writes: this is what the SIGTERM handler calls,
   and OCaml signal handlers may run at any safe point — taking a mutex
   here could deadlock against the very thread that was interrupted. *)
let begin_drain ?deadline t =
  if not t.draining then begin
    t.drain_deadline_at <-
      Unix.gettimeofday () +. (match deadline with Some d -> d | None -> t.drain_deadline);
    t.draining <- true
  end

let draining t = t.draining

(* Done draining when nothing is admitted, executing, or queued.  The
   admission slot frees just before the worker sends [Session_result],
   so [st_busy] (which drops only when the thunk returns, strictly
   after the send) is what keeps the barrier honest. *)
let drained t =
  let active = Mutex.protect t.admission_mu (fun () -> t.active) in
  let s = Sched.stats t.sched in
  active = 0 && s.Sched.st_busy = 0 && s.Sched.st_queued = 0

(* ------------------------------------------------------------------ *)
(* Accept loop *)

(* The connection thread reads the first frame to route it: a stats or
   health probe is answered immediately — no admission, no worker — so
   the ops surface stays responsive on a server at capacity; a client
   Hello goes through scenario check, then admission, then the
   handshake and query read, then blocks in {!Sched.run} while a pool
   worker executes the driver.  Scheduling whole sessions (not
   individual frames) keeps each driver's thread-local state — counter
   attribution, bigint caches — private to one worker for the
   session's entire lifetime. *)
let handle t conn ~admit ~release =
  match Frame.decode (Io.recv_frame conn) with
  | Frame.Stats_request ->
    Io.send_frame conn
      (Frame.encode (Frame.Stats { payload = Obs.Json.to_string (stats_json t) }))
  | Frame.Ping ->
    let h_active = Mutex.protect t.admission_mu (fun () -> t.active) in
    Io.send_frame conn
      (Frame.encode
         (Frame.Health { h_role = Transcript.Mediator; h_draining = t.draining; h_active }))
  | Frame.Drain { scenario; deadline } ->
    (* The drain frame is authenticated the same way the Hello handshake
       is: by knowledge of the scenario digest, which only a process
       built from the shared seed can present. *)
    if String.equal scenario t.scenario then begin
      begin_drain ?deadline:(if deadline > 0. then Some deadline else None) t;
      Io.send_frame conn (Frame.encode Frame.Drain_ok)
    end
    else
      Io.send_frame conn (Frame.encode (Frame.Busy "drain refused: scenario digest mismatch"))
  | Frame.Hello { role = Transcript.Client; scenario } ->
    if not (String.equal scenario t.scenario) then
      Io.send_frame conn
        (Frame.encode (Frame.Busy "scenario digest mismatch (wrong workload or parameters)"))
    else if t.draining then begin
      (* Typed and distinct from [Busy]: the client knows the refusal is
         terminal for this incarnation and retries against the restarted
         process instead of backing off against a full one. *)
      Secmed_obs.Metrics.incr sessions_drain_refused;
      Io.send_frame conn (Frame.encode (Frame.Draining "mediator is draining"))
    end
    else if not (admit ()) then begin
      (* Backpressure, not a hang: a typed refusal the load layer can
         count, sent before the handshake commits any session state. *)
      Secmed_obs.Metrics.incr sessions_refused;
      Io.send_frame conn
        (Frame.encode
           (Frame.Busy (Printf.sprintf "at capacity (%d concurrent sessions)" t.max_sessions)))
    end
    else begin
      Secmed_obs.Metrics.incr sessions_admitted;
      Io.send_frame conn (Frame.encode (Frame.Hello_ok { scenario = t.scenario }));
      match Frame.decode (Io.recv_frame conn) with
      | Frame.Query { scheme; query; fault_spec; deadline; fallback; trace } ->
        let sid =
          Mutex.protect t.admission_mu (fun () ->
              let sid = t.next_session in
              t.next_session <- sid + 1;
              sid)
        in
        (try
           Sched.run t.sched (fun () ->
               run_query t conn sid ~release ~scheme ~query ~fault_spec ~deadline ~fallback
                 ~trace)
         with Sched.Stopped ->
           (* The pool was torn down (drain deadline) with this session
              still queued: a typed refusal, not a silent hang. *)
           Io.send_frame conn
             (Frame.encode (Frame.Draining "mediator drained before the session started")))
      | _ -> ()
    end
  | Frame.Hello _ ->
    Io.send_frame conn (Frame.encode (Frame.Busy "only clients may connect to this port"))
  | _ -> ()

let conn_thread t conn =
  (* Registered so a deadline-expired teardown can sever this
     connection and wake whichever worker is blocked on it. *)
  let token =
    Mutex.protect t.conns_mu (fun () ->
        t.conn_seq <- t.conn_seq + 1;
        Hashtbl.replace t.live_conns t.conn_seq conn;
        t.conn_seq)
  in
  (* [release] is called at most once per admitted session: by [reply]
     on the worker thread (strictly before [Sched.run] returns), or by
     the teardown below when the session never reached a verdict. *)
  let state_mu = Mutex.create () in
  let admitted = ref false in
  let released = ref false in
  let admit () =
    let ok =
      Mutex.protect t.admission_mu (fun () ->
          if t.active < t.max_sessions then begin
            t.active <- t.active + 1;
            Secmed_obs.Metrics.set_gauge active_gauge (float_of_int t.active);
            true
          end
          else false)
    in
    if ok then Mutex.protect state_mu (fun () -> admitted := true);
    ok
  in
  let release () =
    let owe =
      Mutex.protect state_mu (fun () ->
          if !admitted && not !released then begin
            released := true;
            true
          end
          else false)
    in
    if owe then
      Mutex.protect t.admission_mu (fun () ->
          t.active <- t.active - 1;
          Secmed_obs.Metrics.set_gauge active_gauge (float_of_int t.active))
  in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.conns_mu (fun () -> Hashtbl.remove t.live_conns token);
      Io.close conn;
      release ())
    (fun () ->
      try handle t conn ~admit ~release with Io.Transport_error _ | Wire.Malformed _ -> ())

(* One health-probe pass: a short-lived connection per replica carrying
   a single Ping.  A draining or unreachable replica is marked down, so
   the pool proactively switches slots away from it instead of paying a
   session fault to discover the death. *)
let probe_replica t re =
  let timeout = Float.min 2. t.io_timeout in
  match Io.connect ~timeout ~host:re.re_host ~port:re.re_port () with
  | exception Io.Transport_error msg -> Error msg
  | conn -> (
    Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
    try
      Io.send_frame conn (Frame.encode Frame.Ping);
      match Frame.decode (Io.recv_frame conn) with
      | Frame.Health { h_draining = false; _ } -> Ok ()
      | Frame.Health _ -> Error "probe: peer is draining"
      | f -> Error ("probe: unexpected " ^ Frame.tag_name f)
    with Io.Transport_error msg | Wire.Malformed msg -> Error ("probe: " ^ msg))

let prober t () =
  let nap seconds =
    let rec go left =
      if left > 0. && not t.stopped then begin
        Thread.delay (Float.min 0.2 left);
        go (left -. 0.2)
      end
    in
    go seconds
  in
  while not t.stopped do
    List.iter
      (fun sl ->
        Array.iter
          (fun re ->
            (* A down replica is probed only when its breaker admits one:
               once per cooldown. *)
            if
              (not t.stopped)
              && Mutex.protect sl.sl_mu (fun () -> R.breaker_allow re.re_breaker)
            then
              match probe_replica t re with
              | Ok () -> set_health t sl re.re_index ~reason:"" (R.breaker_record ~ok:true)
              | Error msg -> mark_down t sl re.re_index ~reason:msg)
          sl.sl_replicas)
      t.sources;
    nap t.health_interval
  done

let teardown ~drain t =
  t.stopped <- true;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  List.iter
    (fun sl ->
      Array.iter
        (fun slot ->
          Mutex.protect slot.ss_mu (fun () ->
              match slot.ss_mux with
              | Some m ->
                (* Shutdown first: close alone need not wake the mux's
                   receive thread out of a blocked read, and sessions
                   waiting on its replies would sit out the full I/O
                   timeout. *)
                Io.shutdown (Mux.conn m);
                Io.close (Mux.conn m);
                slot.ss_mux <- None
              | None -> ()))
        sl.sl_slots)
    t.sources;
  (* A forced stop (drain deadline expired) severs every open client
     connection before joining the pool: a worker mid-session may be
     blocked reading its client for up to [io_timeout], and [Sched.stop]
     joins — without the shutdown the "deadline" would quietly stretch
     by a full I/O timeout.  The severed client sees a transport fault
     and redials the restarted mediator.  A graceful stop keeps them:
     its sessions already reached verdicts. *)
  if not drain then
    Mutex.protect t.conns_mu (fun () ->
        Hashtbl.iter (fun _ conn -> Io.shutdown conn) t.live_conns);
  Sched.stop ~drain t.sched

(* The accept loop ticks on a short select so draining is observed
   promptly: [Io.accept]'s timeout binds the accepted connection, not
   the accept call, so a blocking accept would pin a drained server to
   its socket until one more client showed up.  During a drain the loop
   keeps accepting — probes stay answerable and late Hellos get their
   typed [Draining] — until the in-flight sessions finish or the
   deadline passes, then tears down without running whatever is still
   queued. *)
let serve t =
  if t.health_interval > 0. then ignore (Thread.create (prober t) () : Thread.t);
  let rec loop () =
    if t.stopped then ()
    else if t.draining && (drained t || Unix.gettimeofday () > t.drain_deadline_at) then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ -> if not t.stopped then Thread.delay 0.05
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Io.accept ~timeout:t.io_timeout t.listen_fd with
        | exception Io.Transport_error _ -> ()
        | conn -> ignore (Thread.create (conn_thread t) conn : Thread.t)));
      loop ()
    end
  in
  loop ();
  if t.draining && not t.stopped then teardown ~drain:false t

let stop t = if not t.stopped then teardown ~drain:true t
