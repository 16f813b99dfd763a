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

(* One datasource: its replica set, their health state, and the one
   mux every session multiplexes over.  A severed link faults the
   sessions on it, and each pays one retry on the redialed connection.
   [sl_dials] counts successful dials (1 on the first connect, +1 per
   redial), so the ops surface can tell a stable link from a flapping
   one; [sl_replica] is the replica cursor, the endpoint the live mux
   is (or was last) dialed to. *)
type source_link = {
  sl_id : int;
  sl_mu : Mutex.t;  (* guards every replica's breaker and dial count *)
  sl_replicas : replica array;
  sl_conn_mu : Mutex.t;  (* guards the mux, dial count and cursor; held across a dial *)
  mutable sl_mux : Mux.t option;
  mutable sl_dials : int;
  mutable sl_replica : int;
}

(* One entry of the failover transition log: a replica's breaker leaving
   or re-entering Closed, or a link's cursor move, timestamped relative to
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
  life : Daemon.t;  (* drain state, SIGTERM and the accept loop *)
  health_interval : float;  (* 0. = no prober thread *)
  admission_mu : Mutex.t;
  mutable active : int;
  mutable next_session : int;
  mutable busy_seconds : float;  (* wall time inside [run_query], under [admission_mu] *)
  mutable stopped : bool;
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
    ?(max_sessions = 8) ?(io_timeout = 10.) ?(drain_deadline = 30.) ?(health_interval = 0.)
    () =
  let replica_config = R.replica_breaker ~cooldown:policy.R.breaker_config.R.cooldown in
  (* Sorted by id: the commit barrier reads the sources' reports in this
     order, so the lower id wins the blame between two failing sources
     whatever order the operator listed them in. *)
  let sources = List.sort (fun (a, _) (b, _) -> compare a b) sources in
  if List.length (List.sort_uniq compare (List.map fst sources)) <> List.length sources then
    invalid_arg "Server.create: duplicate source id";
  {
    env = Env.view env Transcript.Mediator;
    client;
    scenario;
    sources =
      List.map
        (fun (sl_id, replicas) ->
          if replicas = [] then invalid_arg "Server.create: source with no replicas";
          {
            sl_id;
            sl_mu = Mutex.create ();
            sl_replicas =
              Array.of_list
                (List.mapi
                   (fun re_index (re_host, re_port) ->
                     { re_index; re_host; re_port;
                       re_breaker =
                         R.breaker ~config:replica_config R.monotonic (Transcript.Source sl_id);
                       re_dials = 0 })
                   replicas);
            sl_conn_mu = Mutex.create ();
            sl_mux = None;
            sl_dials = 0;
            sl_replica = 0;
          })
        sources;
    listen_fd;
    policy;
    rsession = R.session ~policy ();
    max_sessions;
    io_timeout;
    life = Daemon.create ~role:Transcript.Mediator ~scenario ~drain_deadline;
    health_interval;
    admission_mu = Mutex.create ();
    active = 0;
    next_session = 1;
    busy_seconds = 0.;
    stopped = false;
    started_at = Unix.gettimeofday ();
    fo_mu = Mutex.create ();
    fo_events = [];
    fo_count = 0;
    conns_mu = Mutex.create ();
    conn_seq = 0;
    live_conns = Hashtbl.create 32;
  }

let parse_source s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "bad source %S (expected ID=HOST:PORT[,HOST:PORT...])" s)
  | Some i -> (
    match int_of_string_opt (String.sub s 0 i) with
    | Some id when id >= 1 ->
      let rec addrs acc = function
        | [] -> Ok (id, List.rev acc)
        | a :: rest -> Result.bind (Io.parse_addr a) (fun addr -> addrs (addr :: acc) rest)
      in
      addrs [] (String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1)))
    | _ -> Error (Printf.sprintf "bad source id in %S" s))

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
   fully-partitioned link still dials rather than giving up. *)
let candidates sl =
  let idxs = List.init (Array.length sl.sl_replicas) Fun.id in
  let closed, down =
    Mutex.protect sl.sl_mu (fun () ->
        let closed, down = List.partition (fun i -> up sl.sl_replicas.(i)) idxs in
        (closed, List.filter (fun i -> R.breaker_allow sl.sl_replicas.(i).re_breaker) down))
  in
  match closed @ down with [] -> idxs | eligible -> eligible

(* The link's datasource connection, dialed on first use and redialed
   when a previous incarnation died (e.g. peer SIGKILLed, or severed by
   the chaos proxy) — the transport-level half of "a connection failure
   is a typed, retryable fault".  Sessions that find the mux dead wait
   on [sl_conn_mu] for one redial and share its result.  The redial
   walks the replica candidates in health order, so a dead primary
   fails the link's sessions over to a standby within their one typed
   retry; a later redial after the cooldown fails back.  A live mux
   whose replica was marked down out-of-band (health probe, draining
   report) is proactively switched — but only when some other replica
   is known up, so a single-replica link never churns a working
   connection. *)
let ensure_link t sl =
  Mutex.protect sl.sl_conn_mu (fun () ->
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
            Io.send_frame conn
              (Frame.encode (Frame.Hello { role = Transcript.Mediator; scenario = t.scenario }));
            match Frame.decode (Io.recv_frame conn) with
            | Frame.Hello_ok { scenario } when String.equal scenario t.scenario ->
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
        (match sl.sl_mux with
        | Some m -> Io.close (Mux.conn m)
        | None -> ());
        sl.sl_mux <- None;
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
              if sl.sl_dials > 0 && sl.sl_replica <> idx then
                log_fo t ~source:sl.sl_id ~replica:idx ~kind:"failover"
                  ~detail:(Printf.sprintf "replica %d -> %d" sl.sl_replica idx);
              sl.sl_replica <- idx;
              sl.sl_mux <- Some m;
              sl.sl_dials <- sl.sl_dials + 1;
              Ok m
            | Error msg ->
              mark_down t sl idx ~reason:msg;
              try_each
                (Some (Printf.sprintf "replica %d (%s:%d): %s" idx re.re_host re.re_port msg))
                rest)
        in
        try_each None (candidates sl)
      in
      match sl.sl_mux with
      | Some m when Mux.alive m ->
        let switch =
          Mutex.protect sl.sl_mu (fun () ->
              (not (up sl.sl_replicas.(sl.sl_replica)))
              && Array.exists
                   (fun re -> up re && re.re_index <> sl.sl_replica)
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
  source_routes : (int * Endpoint.route * Frame.status option ref) list;
      (* per source: (id, route, report cell) — the commit barrier
         awaits every source's report *)
  bind : unit -> unit;  (* bind every source route to its link's mux for one attempt *)
  stats : (Transcript.party * int ref * int ref) list;
}

(* A replica's Report can arrive while the mediator's driver is still
   blocked on a delivery from that very party — the replica gave up first
   (its own receive timed out, or it detected corruption on delivery).
   The driver's receive loop must not swallow the root cause: every
   current-epoch Report is stashed where the commit barrier can find
   it, and a St_failed fails the blocked receive fast — the frame it
   was waiting for will never come.  A traced replica's span batch
   rides in its Report and is kept in [batches], whatever the epoch. *)
let stashing ?(on_failed = fun (_ : Fault.failure) -> ()) ~epoch ~party ~batches cell
    (route : Endpoint.route) =
  {
    route with
    Endpoint.r_next =
      (fun ~timeout ->
        match route.Endpoint.r_next ~timeout with
        | Frame.Report { epoch = e; status; spans; _ } as f ->
          if not (String.equal spans "") then batches := (party, spans) :: !batches;
          if e <> !epoch then f
          else begin
            cell := Some status;
            match status with
            | Frame.St_failed failure ->
              on_failed failure;
              raise (Io.Transport_error (Transcript.party_name party ^ " reported a failure"))
            | Frame.St_ok | Frame.St_aborted ->
              (* Returned (not swallowed) so a blocked caller re-examines
                 the stash at once instead of waiting out its timeout. *)
              f
          end
        | f -> f);
  }

(* Payload byte accounting per counterpart: a [Msg_chunk] counts its
   row bytes, peeked without a decode and without the integrity tag, so
   the per-link totals equal the transcript's bytes-on-link. *)
let counted (_, out_c, in_c) (route : Endpoint.route) =
  let bytes = function Frame.Msg_chunk c -> Frame.row_bytes c | _ -> 0 in
  {
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
    stashing ~epoch ~party:Transcript.Client ~batches client_report
      (counted client_stat
         (Endpoint.plain_route
            ~send:(fun f -> Io.send_frame conn (Frame.encode f))
            ~next:(fun ~timeout ->
              Io.set_timeout conn timeout;
              Frame.decode (Io.recv_frame conn))))
  in
  (* A source route is bound to its link's mux once per attempt, by
     [bind] at the attempt's start: when the previous incarnation died
     (peer crashed, chaos proxy severed the stream), that bind redials
     through {!ensure_link} — so a connection failure costs one attempt,
     not the whole query.  A mux that dies mid-attempt fails the
     attempt's reads, writes and end-of-attempt wait at once; nothing
     redials before the next attempt. *)
  let per_source =
    List.map
      (fun sl ->
        let id = sl.sl_id in
        let s = stat (Transcript.Source id) in
        let cell = ref None in
        let bound = ref (Error "not bound to an attempt") in
        let bind () =
          bound :=
            match ensure_link t sl with
            | Ok m ->
              Mux.subscribe m sid;
              Ok m
            | Error msg -> Error (Printf.sprintf "source %d: %s" id msg)
        in
        let mux () = match !bound with Ok m -> m | Error msg -> raise (Io.Transport_error msg) in
        (* A replica that reports "draining" is refusing new work but
           still healthy enough to answer: mark it down so the retry's
           {!ensure_link} proactively switches this link to a standby
           instead of knocking on the same draining daemon again. *)
        let on_failed (f : Fault.failure) =
          if String.equal f.Fault.reason "draining" then
            mark_down t sl sl.sl_replica ~reason:"peer draining"
        in
        let r =
          stashing ~on_failed ~epoch ~party:(Transcript.Source id) ~batches cell
            (counted s
               (Endpoint.plain_route
                  ~send:(fun f -> Mux.send (mux ()) f)
                  ~next:(fun ~timeout -> Mux.next (mux ()) ~session:sid ~timeout)))
        in
        (s, (id, r, cell), bind))
      t.sources
  in
  {
    client_route;
    client_report;
    source_routes = List.map (fun (_, route, _) -> route) per_source;
    bind = (fun () -> List.iter (fun (_, _, bind) -> bind ()) per_source);
    stats = client_stat :: List.map (fun (s, _, _) -> s) per_source;
  }

(* The commit barrier around each attempt: announce it, and afterwards
   collect every replica's report so no stale frames leak into the next
   attempt.  A replica's own typed fault is the root cause and outranks
   whatever downstream stall the mediator observed locally. *)
let coordinator t ~sid ~query ~fault_spec ~routes ~epoch ~failures ~trace_id =
  let cells = routes.client_report :: List.map (fun (_, _, c) -> c) routes.source_routes in
  let broadcast frame =
    (try routes.client_route.Endpoint.r_send frame with Io.Transport_error _ -> ());
    List.iter
      (fun (_, r, _) -> try r.Endpoint.r_send frame with Io.Transport_error _ -> ())
      routes.source_routes
  in
  let begin_attempt ~scheme ~attempt =
    incr epoch;
    List.iter (fun c -> c := None) cells;
    routes.bind ();
    broadcast
      (Frame.Session_start
         { session = sid; epoch = !epoch; attempt; scheme; query; fault_spec; trace_id })
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
       blame, exactly as it does in a run in one process. *)
    let statuses =
      List.map
        (fun (id, r, c) -> await (Printf.sprintf "source %d" id) (Transcript.Source id) r c)
        routes.source_routes
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
       would burn CPU for nobody.  The typed abort unwinds the driver
       immediately. *)
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
  let reply ?(spans = []) result =
    (* The admission slot is free before the client can observe the
       verdict: a closed-loop client that reconnects the instant its
       result lands must find room, not race the server's teardown. *)
    release ();
    try Io.send_frame conn (Frame.encode (Frame.Session_result { session = sid; result; spans }))
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
      (* Every source must be reachable before the session opens; each
         attempt then binds its routes to the links' muxes. *)
      let unreachable =
        List.find_map
          (fun sl ->
            match ensure_link t sl with
            | Ok _ -> None
            | Error msg -> Some (sl.sl_id, msg))
          t.sources
      in
      match unreachable with
      | Some (source_id, msg) ->
        refuse scheme
          { Fault.phase = "transport"; party = Transcript.Source source_id; reason = msg }
      | None ->
        Fun.protect ~finally:(fun () ->
            (* Whatever mux the link holds *now* — possibly a redialed
               incarnation — gets the end-of-session notice. *)
            List.iter
              (fun sl ->
                Mutex.protect sl.sl_conn_mu (fun () ->
                    match sl.sl_mux with
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
           connection thread, with a root "session" span — the anchor each
           replica's batch roots hang under. *)
        let trace_id = if trace then Printf.sprintf "s%d" sid else "" in
        let collector = if trace then Some (Obs.Trace.create ()) else None in
        let session_span = ref (-1) in
        let coordinator = coordinator t ~sid ~query ~fault_spec ~routes ~epoch ~failures ~trace_id in
        let route_of = function
          | Transcript.Client -> Some routes.client_route
          | Transcript.Source i ->
            List.find_map
              (fun (id, r, _) -> if id = i then Some r else None)
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
           concurrent sessions may use it directly). *)
        let rsession =
          if deadline > 0. then
            R.session ~policy:{ t.policy with R.deadline_budget = Some deadline } ()
          else t.rsession
        in
        let run_driver () =
          Protocol.run_session ?fault ~endpoint:transport ~coordinator
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
          | exception
              ( Secmed_sql.Parser.Error reason
              | Secmed_sql.Lexer.Error (reason, _)
              | Catalog.Unsupported reason ) ->
            (* The mediator could not decompose the query it was sent:
               no scheme can serve it. *)
            Some
              (Protocol.Unserved
                 [ (scheme,
                    { Protocol.phase = "request"; party = Transcript.Mediator; reason;
                      attempts = !epoch }) ])
        in
        (* Every replica's batch arrived in its Reports, which each
           attempt's barrier awaited; the mediator's own goes last. *)
        let spans () =
          match collector with
          | None -> []
          | Some c ->
            List.rev_map
              (fun (party, payload) ->
                { Trace_wire.rm_party = party; rm_parent = !session_span; rm_payload = payload })
              !batches
            @ [ { Trace_wire.rm_party = Transcript.Mediator; rm_parent = -1;
                  rm_payload = Trace_wire.payload_of c } ]
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
          reply ~spans:(spans ())
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
            (fun (_, r, _) ->
              try
                r.Endpoint.r_send
                  (Frame.Abort { session = sid; epoch = !epoch; failure = last_failure })
              with Io.Transport_error _ -> ())
            routes.source_routes;
          (* The client replica's Report to the final abort, if any. *)
          note_result ~key:scheme ~elapsed `Failed;
          reply ~spans:(spans ())
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
  let active, next_session, busy_seconds =
    Mutex.protect t.admission_mu (fun () -> (t.active, t.next_session, t.busy_seconds))
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
        let connected, replica, dials =
          Mutex.protect sl.sl_conn_mu (fun () ->
              ( (match sl.sl_mux with Some m -> Mux.alive m | None -> false),
                sl.sl_replica, sl.sl_dials ))
        in
        J.Obj
          [
            ("source", J.Int sl.sl_id);
            ( "addr",
              J.Str
                (Printf.sprintf "%s:%d" sl.sl_replicas.(0).re_host sl.sl_replicas.(0).re_port)
            );
            ("replicas", J.List replicas);
            ("connected", J.Bool connected);
            ("replica", J.Int replica);
            ("dials", J.Int dials);
            (* perfbench/layers.ml sums [slots[].dials] into net.pool_dials. *)
            ("slots", J.List [ J.Obj [ ("dials", J.Int dials) ] ]);
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
            ("draining", J.Bool (Daemon.draining t.life));
          ] );
      (* perfbench/layers.ml reads [busy_seconds] as net.sched_busy_share. *)
      ("scheduler", J.Obj [ ("busy_seconds", J.Float busy_seconds) ]);
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

(* Done draining when no client connection is left.  The admission
   slot frees just before a session sends [Session_result], so
   [active = 0] can hold while a verdict is still on its way; a
   connection leaves [live_conns] only after its thread is done with
   it. *)
let drained t = Mutex.protect t.conns_mu (fun () -> Hashtbl.length t.live_conns = 0)

(* ------------------------------------------------------------------ *)
(* Accept loop *)

(* The connection thread routes the first frame {!Daemon.serve} did not
   answer itself: a stats request is answered immediately — no
   admission — so the ops surface stays responsive on a server at
   capacity; a client Hello goes through drain check, then admission,
   then the handshake and query read, and the same thread then runs the
   session's driver.  A session never changes threads, so its
   thread-local state — crypto counters, bigint caches — stays private
   to it. *)
let handle t conn ~admit ~release = function
  | Frame.Stats_request ->
    Io.send_frame conn
      (Frame.encode (Frame.Stats { payload = Obs.Json.to_string (stats_json t) }))
  | Frame.Hello { role = Transcript.Client; _ } ->
    if Daemon.draining t.life then begin
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
        let started = Unix.gettimeofday () in
        Fun.protect
          ~finally:(fun () ->
            let busy = Unix.gettimeofday () -. started in
            Mutex.protect t.admission_mu (fun () -> t.busy_seconds <- t.busy_seconds +. busy))
          (fun () ->
            run_query t conn sid ~release ~scheme ~query ~fault_spec ~deadline ~fallback ~trace)
      | _ -> ()
    end
  | Frame.Hello _ ->
    Io.send_frame conn (Frame.encode (Frame.Busy "only clients may connect to this port"))
  | _ -> ()

let conn_thread t conn frame =
  (* Registered so a deadline-expired teardown can sever this
     connection and wake the session blocked on it. *)
  let token =
    Mutex.protect t.conns_mu (fun () ->
        t.conn_seq <- t.conn_seq + 1;
        Hashtbl.replace t.live_conns t.conn_seq conn;
        t.conn_seq)
  in
  (* [release] is called at most once per admitted session: by [reply]
     just before the verdict goes out, or by the teardown below when the
     session never reached a verdict. *)
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
      Secmed_crypto.Counters.release ();
      release ();
      Mutex.protect t.conns_mu (fun () -> Hashtbl.remove t.live_conns token))
    (fun () -> handle t conn ~admit ~release frame)

(* One health-probe pass: a short-lived connection per replica carrying
   a single Ping.  A draining or unreachable replica is marked down, so
   its link proactively switches away from it instead of paying a
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

(* The drain is over (every in-flight session finished, or the deadline
   passed): sever the source links and every open client connection.
   A session cut at the deadline sees a transport fault and unwinds;
   its client redials the restarted mediator. *)
let teardown t =
  t.stopped <- true;
  List.iter
    (fun sl ->
      Mutex.protect sl.sl_conn_mu (fun () ->
          match sl.sl_mux with
          | Some m ->
            (* Shutdown first: close alone need not wake the mux's
               receive thread out of a blocked read, and sessions
               waiting on its replies would sit out the full I/O
               timeout. *)
            Io.shutdown (Mux.conn m);
            Io.close (Mux.conn m);
            sl.sl_mux <- None
          | None -> ()))
    t.sources;
  Mutex.protect t.conns_mu (fun () -> Hashtbl.iter (fun _ conn -> Io.shutdown conn) t.live_conns)

let serve t =
  if t.health_interval > 0. then ignore (Thread.create (prober t) () : Thread.t);
  Daemon.serve t.life ~listen_fd:t.listen_fd ~io_timeout:t.io_timeout
    ~active:(fun () -> Mutex.protect t.admission_mu (fun () -> t.active))
    ~idle:(fun () -> drained t)
    (conn_thread t);
  teardown t
