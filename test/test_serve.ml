(* Sustained-load serving: the deterministic loadgen fleet against a
   forked loopback cluster, plus the domain-level concurrency pieces it
   rides on.

   Ordering note: the final suite spawns OCaml domains, and Unix.fork
   is illegal once any domain has been spawned — every cluster-forking
   test must (and does) run before it. *)

open Secmed_core
open Secmed_net

let fast = { Env.group_bits = 160; paillier_bits = 384 }

let small_spec =
  {
    Workload.default with
    rows_left = 10;
    rows_right = 10;
    distinct_left = 5;
    distinct_right = 5;
    overlap = 3;
    extra_attrs = 1;
    seed = 11;
  }

let base_config =
  {
    Loadgen.default_config with
    Loadgen.workers = 8;
    sessions_per_worker = 2;
    domains = 1;
    seed = "serve-test";
  }

let scheme_sequences plans =
  List.map (fun worker -> List.map (fun p -> p.Loadgen.p_scheme) worker) plans

(* ------------------------------------------------------------------ *)
(* The plan is pure and replayable. *)

let test_plan_deterministic () =
  let p1 = Loadgen.plan base_config and p2 = Loadgen.plan base_config in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  let other = Loadgen.plan { base_config with Loadgen.seed = "other" } in
  Alcotest.(check bool) "different seed, different draws" true
    (scheme_sequences p1 <> scheme_sequences other);
  List.iter
    (fun worker ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "scheme from the mix" true
            (List.mem_assoc p.Loadgen.p_scheme base_config.Loadgen.mix))
        worker)
    p1

let test_plan_poisson_arrivals () =
  let config = { base_config with Loadgen.arrival = Loadgen.Poisson 50. } in
  let plans = Loadgen.plan config in
  List.iter
    (fun worker ->
      ignore
        (List.fold_left
           (fun prev p ->
             Alcotest.(check bool) "arrival times strictly increase" true
               (p.Loadgen.p_at > prev);
             p.Loadgen.p_at)
           (-1.) worker))
    plans;
  (* The scheme draws come from their own split: pacing does not change
     which schemes a worker poses. *)
  Alcotest.(check bool) "same schemes as closed loop" true
    (scheme_sequences plans = scheme_sequences (Loadgen.plan base_config))

(* Nearest-rank: 0.9 of 140 samples is rank 126 exactly, which float
   rounding would otherwise push to 127. *)
let test_quantile_nearest_rank () =
  let samples = List.rev (List.init 140 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 0.)) "p90 of 140 is rank 126" 126. (Loadgen.quantile 0.9 samples);
  Alcotest.(check (float 0.)) "median of one sample" 7. (Loadgen.quantile 0.5 [ 7. ]);
  Alcotest.(check (float 0.)) "no samples" 0. (Loadgen.quantile 0.99 [])

(* ------------------------------------------------------------------ *)
(* The fleet against a live cluster. *)

let signature report =
  List.map
    (fun r -> (r.Loadgen.r_worker, r.Loadgen.r_index, r.Loadgen.r_scheme))
    report.Loadgen.records

(* CI smoke (8 workers x 2 sessions) doubling as the run-level
   determinism check: the same seed replays the identical per-worker
   scheme sequences, whatever the cluster's timing did. *)
let test_run_deterministic_smoke () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:8 @@ fun c ->
  let target = Loopback.target c in
  let r1 = Loadgen.run base_config target in
  let r2 = Loadgen.run base_config target in
  Alcotest.(check int) "all sessions accounted (run 1)" 16
    (List.length r1.Loadgen.records);
  Alcotest.(check bool) "same seed, same per-worker scheme sequences" true
    (signature r1 = signature r2);
  List.iter
    (fun r ->
      Alcotest.(check int) "nothing failed" 0 (Loadgen.count Loadgen.Failed r);
      Alcotest.(check int) "nothing unserved" 0 (Loadgen.count Loadgen.Unserved r);
      Alcotest.(check int) "nothing refused" 0 (Loadgen.count Loadgen.Refused r);
      Alcotest.(check int) "all served" 16
        (Loadgen.count Loadgen.Served r + Loadgen.count Loadgen.Degraded r);
      Alcotest.(check bool) "every session timed" true
        (List.for_all (fun s -> s.Loadgen.r_latency > 0.) r.Loadgen.records))
    [ r1; r2 ]

(* The acceptance bar: 64 concurrent-fleet sessions, every served one
   verified bit-for-bit (result relation, transcript messages, primitive
   counters) against the in-process reference execution. *)
let test_64_sessions_verified () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:8 @@ fun c ->
  let config =
    {
      base_config with
      Loadgen.workers = 8;
      sessions_per_worker = 8;
      seed = "verified-64";
      verify = true;
    }
  in
  let report = Loadgen.run config (Loopback.target c) in
  Alcotest.(check int) "64 sessions" 64 (List.length report.Loadgen.records);
  Alcotest.(check int) "zero refused" 0 (Loadgen.count Loadgen.Refused report);
  Alcotest.(check int) "zero unserved" 0 (Loadgen.count Loadgen.Unserved report);
  Alcotest.(check int) "zero failed" 0 (Loadgen.count Loadgen.Failed report);
  Alcotest.(check int) "all 64 served" 64 (Loadgen.count Loadgen.Served report);
  Alcotest.(check (list string)) "every session bit-identical to the reference" []
    report.Loadgen.verify_failures

let test_backpressure_counted_as_refused () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:0 @@ fun c ->
  let config = { base_config with Loadgen.workers = 4; sessions_per_worker = 2 } in
  let report = Loadgen.run config (Loopback.target c) in
  Alcotest.(check int) "every session typed Busy" 8
    (Loadgen.count Loadgen.Refused report);
  Alcotest.(check int) "none misfiled as failed" 0 (Loadgen.count Loadgen.Failed report);
  Alcotest.(check int) "none served" 0 (Loadgen.count Loadgen.Served report)

let test_poisson_open_loop_serves () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:8 @@ fun c ->
  let config =
    {
      base_config with
      Loadgen.workers = 2;
      sessions_per_worker = 2;
      arrival = Loadgen.Poisson 10.;
      seed = "poisson-run";
    }
  in
  let report = Loadgen.run config (Loopback.target c) in
  Alcotest.(check int) "all served" 4 (Loadgen.count Loadgen.Served report);
  Alcotest.(check bool) "throughput recorded" true (Loadgen.qps report > 0.)

(* ------------------------------------------------------------------ *)
(* Process death and graceful drain.  Still cluster-forking: these must
   also run before any domain is spawned. *)

(* The single in-process reference execution for a scheme, under the
   same fault plan the remote query carries (plan presence is
   protocol-visible: the commutative canary audit only runs when a plan
   is installed). *)
let reference_outcome c ~scheme ~fault_spec =
  let fault =
    if String.equal fault_spec "" then None
    else
      match Secmed_mediation.Fault.of_spec fault_spec with
      | Ok plan -> Some plan
      | Error msg -> Alcotest.fail msg
  in
  let sch =
    match Protocol.scheme_of_name scheme with
    | Some sch -> sch
    | None -> Alcotest.failf "unknown scheme %s" scheme
  in
  let outcome, _ =
    Secmed_crypto.Counters.with_fresh (fun () ->
        Protocol.run_exn ?fault sch (Loopback.env c) (Loopback.client_of c)
          ~query:(Loopback.canonical_query c))
  in
  outcome

let served_relation = function
  | Protocol.Served o -> Secmed_relalg.Relation.to_string o.Outcome.result
  | Protocol.Unserved _ -> Alcotest.fail "session unserved"

(* The survival tests need sessions that are slow in wall-clock terms,
   so a kill or drain deterministically lands mid-flight: with [fast]
   params, pm on the default 32x32 workload runs ~2s remotely, against
   ~0.2s on [small_spec]. *)
let slow_spec = Workload.default

(* SIGKILL the primary replica of source 1 while a session is mid-
   flight: the mediator fails over to the standby, reruns the session
   on a fresh epoch, and the served relation is byte-identical to the
   in-process reference.  The primary stays dead afterwards, so a
   second session pins the standby steady state too.  A source computes
   only its own steps, which can end well before the session does, so a
   chaos proxy holds the mediator's first frame to the primary: the
   kill lands while the session still needs it.  Each attempt binds
   its source routes to one mux, so the dead primary fails that
   attempt at once: at the default 10 s I/O timeout the query returns
   well inside one timeout. *)
let test_failover_mid_session_bit_identical () =
  let hold =
    Secmed_mediation.Fault.plan
      [
        Secmed_mediation.Fault.rule ~sender:Secmed_mediation.Transcript.Mediator
          ~receiver:(Secmed_mediation.Transcript.Source 1) ~times:1
          (Secmed_mediation.Fault.Delay 2.);
      ]
  in
  Loopback.with_cluster ~params:fast ~spec:slow_spec ~max_sessions:4 ~standbys:1
    ~health_interval:0.2 ~chaos:[ (1, hold) ] @@ fun c ->
  let scheme = "pm" and fault_spec = "retries=4" in
  let resp = ref None in
  let started = Unix.gettimeofday () in
  let t =
    Thread.create (fun () -> resp := Some (Loopback.query c ~fault_spec ~scheme ())) ()
  in
  Thread.delay 0.5;
  Unix.kill (Loopback.source_pid c ~id:1 ~replica:0 ()) Sys.sigkill;
  Thread.join t;
  let elapsed = Unix.gettimeofday () -. started in
  let response =
    match !resp with Some r -> r | None -> Alcotest.fail "query thread died"
  in
  Alcotest.(check bool)
    (Printf.sprintf "failover query returned in %.2fs, under 5s" elapsed)
    true (elapsed < 5.);
  let reference = reference_outcome c ~scheme ~fault_spec in
  Alcotest.(check string) "mid-session failover rerun is bit-identical"
    (Secmed_relalg.Relation.to_string reference.Outcome.result)
    (served_relation response.Peer.result);
  Alcotest.(check bool) "recovery took another protocol epoch" true
    (response.Peer.epochs >= 2);
  let again = Loopback.query c ~fault_spec ~scheme () in
  Alcotest.(check string) "standby serves the same bytes"
    (Secmed_relalg.Relation.to_string reference.Outcome.result)
    (served_relation again.Peer.result);
  Alcotest.(check int) "single epoch against the standby" 1 again.Peer.epochs

module J = Secmed_obs.Json

let jlist key j = Option.value ~default:[] (Option.bind (J.member key j) J.to_list)
let jint key j = Option.bind (J.member key j) J.to_int

let mediator_stats c =
  match J.parse (Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) ()) with
  | Ok j -> j
  | Error e -> Alcotest.failf "stats payload does not parse: %s" e

(* One replica's entry in the stats [pool]. *)
let pool_replica stats ~source ~replica =
  List.concat_map (jlist "replicas")
    (List.filter (fun sl -> jint "source" sl = Some source) (jlist "pool" stats))
  |> List.find_opt (fun re -> jint "replica" re = Some replica)

(* SIGTERM the primary of source 1 between sessions: it drains and
   exits, its health breaker opens, and the next session fails the
   source link over to the standby with a bit-identical answer.  The
   second session reuses the first one's link, so its cursor move is
   logged. *)
let test_source_drain_failover () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~standbys:1
    ~health_interval:0.2 @@ fun c ->
  let scheme = "das" and fault_spec = "retries=4" in
  ignore (Loopback.query c ~fault_spec ~scheme () : Peer.response);
  Unix.kill (Loopback.source_pid c ~id:1 ~replica:0 ()) Sys.sigterm;
  Thread.delay 0.5;
  let response = Loopback.query c ~fault_spec ~scheme () in
  let reference = reference_outcome c ~scheme ~fault_spec in
  Alcotest.(check string) "failed-over session is bit-identical"
    (Secmed_relalg.Relation.to_string reference.Outcome.result)
    (served_relation response.Peer.result);
  let stats = mediator_stats c in
  Alcotest.(check bool) "drained primary is down" true
    (match pool_replica stats ~source:1 ~replica:0 with
    | Some re -> J.member "up" re = Some (J.Bool false)
    | None -> false);
  let events =
    Option.fold ~none:[] ~some:(jlist "events") (J.member "failover" stats)
  in
  let logged kind ~replica =
    List.exists
      (fun e ->
        jint "source" e = Some 1
        && jint "replica" e = Some replica
        && J.member "kind" e = Some (J.Str kind))
      events
  in
  Alcotest.(check bool) "down logged for the primary" true (logged "down" ~replica:0);
  Alcotest.(check bool) "failover to the standby logged" true
    (logged "failover" ~replica:1)

(* The authenticated drain frame: a wrong digest is refused and changes
   nothing; the right digest flips the mediator into draining, where a
   new session gets the typed [Draining] (never misfiled as [Busy]),
   the in-flight session still finishes, and the process exits 0.  A
   chaos proxy holds the pm session's first frame to source 1, so the
   session is in flight when the drain and the refused session arrive:
   a pm session on a fast host can otherwise end between two stats
   polls, or between the poll and the drain, and a drained mediator
   with nothing in flight exits before the refused session connects. *)
let test_drain_typed_refusal_then_exit_zero () =
  let hold =
    Secmed_mediation.Fault.plan
      [
        Secmed_mediation.Fault.rule ~receiver:(Secmed_mediation.Transcript.Source 1)
          ~label:"homomorphic-pk" ~times:1 (Secmed_mediation.Fault.Delay 1.5);
      ]
  in
  Loopback.with_cluster ~params:fast ~spec:slow_spec ~max_sessions:4
    ~drain_deadline:8. ~chaos:[ (1, hold) ] @@ fun c ->
  (match
     Peer.drain ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:"deadbeef" ()
   with
  | () -> Alcotest.fail "unauthenticated drain accepted"
  | exception Peer.Refused _ -> ());
  let probe = Loopback.query c ~scheme:"das" () in
  Alcotest.(check bool) "still serving after the refused drain" true
    (match probe.Peer.result with Protocol.Served _ -> true | _ -> false);
  let inflight = ref None in
  let t =
    Thread.create (fun () -> inflight := Some (Loopback.query c ~scheme:"pm" ())) ()
  in
  (* Drain only once the mediator counts the pm session as active, so it
     is in flight however fast its crypto runs. *)
  let active () = Option.bind (J.member "sessions" (mediator_stats c)) (jint "active") in
  let deadline = Unix.gettimeofday () +. 10. in
  while Option.value ~default:0 (active ()) < 1 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "the pm session never became active";
    Thread.delay 0.02
  done;
  Peer.drain ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:(Loopback.scenario c)
    ();
  (match Loopback.query c ~scheme:"das" () with
  | _ -> Alcotest.fail "drained mediator admitted a new session"
  | exception Peer.Draining _ -> ()
  | exception Peer.Refused reason ->
    Alcotest.failf "drain misfiled as Busy: %s" reason);
  Thread.join t;
  let response =
    match !inflight with Some r -> r | None -> Alcotest.fail "in-flight thread died"
  in
  Alcotest.(check bool) "in-flight session finished under drain" true
    (match response.Peer.result with Protocol.Served _ -> true | _ -> false);
  Alcotest.(check bool) "the pm session was held in flight" true
    (Loopback.chaos_events c 1 <> []);
  Alcotest.(check int) "drained mediator exits 0" 0 (Loopback.wait_mediator c)

(* A [Peer] client of the cluster's mediator, and one session on it. *)
let connect c =
  Peer.connect ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:(Loopback.scenario c) ()

let query_on c client scheme =
  Peer.query client ~scheme ~query:(Loopback.canonical_query c) (Loopback.env c)
    (Loopback.client_of c)

(* A [Peer] client's connection outlives no mediator restart, but its
   next query does: the reused connection ends before the session's
   first frame, so the query redials once, at once, and is served in
   one epoch by the new incarnation, which counts that one connection. *)
let test_client_redials_after_restart () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  let client = connect c in
  Fun.protect ~finally:(fun () -> Peer.close client) @@ fun () ->
  let reference = reference_outcome c ~scheme:"das" ~fault_spec:"" in
  let first = query_on c client "das" in
  Loopback.restart_mediator c;
  let again = query_on c client "das" in
  List.iter
    (fun (name, (r : Peer.response)) ->
      Alcotest.(check string) (name ^ ": served bit-identical")
        (Secmed_relalg.Relation.to_string reference.Outcome.result)
        (served_relation r.Peer.result);
      Alcotest.(check int) (name ^ ": one epoch") 1 r.Peer.epochs)
    [ ("before the restart", first); ("after the restart", again) ];
  Alcotest.(check (option int)) "the new incarnation accepted the redial" (Some 1)
    (Option.bind (J.member "sessions" (mediator_stats c)) (jint "connections"))

(* The mediator closes a client connection that stays idle past its
   [io_timeout]; the client's next query finds it closed before the
   session's first frame, redials once and is served in one epoch. *)
let test_idle_connection_closed_then_redialed () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~io_timeout:0.5 @@ fun c ->
  let client = connect c in
  Fun.protect ~finally:(fun () -> Peer.close client) @@ fun () ->
  ignore (served_relation (query_on c client "plain").Peer.result : string);
  Thread.delay 1.2;
  let again = query_on c client "plain" in
  ignore (served_relation again.Peer.result : string);
  Alcotest.(check int) "one epoch" 1 again.Peer.epochs;
  Alcotest.(check (option int)) "the idle connection was closed and redialed" (Some 2)
    (Option.bind (J.member "sessions" (mediator_stats c)) (jint "connections"))

(* An idle client connection holds no drain open: a mediator that
   served a client which keeps its connection drains and exits 0 at
   once, well inside its drain deadline, severing the connection. *)
let test_idle_connection_does_not_hold_drain () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~drain_deadline:20. @@ fun c ->
  let client = connect c in
  Fun.protect ~finally:(fun () -> Peer.close client) @@ fun () ->
  ignore (served_relation (query_on c client "plain").Peer.result : string);
  let t0 = Unix.gettimeofday () in
  Peer.drain ~host:"127.0.0.1" ~port:(Loopback.port c) ~scenario:(Loopback.scenario c) ();
  Alcotest.(check int) "drained mediator exits 0" 0 (Loopback.wait_mediator c);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "drained in %.2fs, well inside the 20s deadline" elapsed)
    true (elapsed < 5.)

(* A drained daemon answers the connections still queued on its
   listener before closing it.  [idle] holds the drained daemon at the
   end of its accept loop until a second client has connected and
   written its [Hello], so that client is queued, never accepted by the
   loop, when the listener is about to close: it must read the typed
   [Draining], not a reset. *)
let test_drain_answers_queued_connections () =
  let listen_fd, port = Io.listen ~port:0 () in
  let d =
    Daemon.create ~role:Secmed_mediation.Transcript.Mediator ~scenario:"s" ~drain_deadline:30.
  in
  let mu = Mutex.create () and changed = Condition.create () in
  let idling = ref false and hello_written = ref false in
  let idle () =
    Mutex.protect mu (fun () ->
        idling := true;
        Condition.broadcast changed;
        while not !hello_written do
          Condition.wait changed mu
        done);
    true
  in
  let handle conn = function
    | Frame.Hello _ when Daemon.draining d ->
      Io.send_frame conn (Frame.encode (Frame.Draining "draining"))
    | f -> Io.send_frame conn (Frame.encode (Frame.Busy ("unexpected " ^ Frame.tag_name f)))
  in
  let server =
    Thread.create
      (fun () -> Daemon.serve d ~listen_fd ~io_timeout:5. ~active:(fun () -> 0) ~idle handle)
      ()
  in
  let ask frame =
    let conn = Io.connect ~timeout:5. ~host:"127.0.0.1" ~port () in
    Io.send_frame conn (Frame.encode frame);
    conn
  in
  let reply conn =
    Fun.protect ~finally:(fun () -> Io.close conn) @@ fun () ->
    match Frame.decode (Io.recv_frame conn) with
    | f -> Frame.tag_name f
    | exception Io.Transport_error msg -> "transport error: " ^ msg
  in
  Alcotest.(check string) "drain accepted" "drain-ok"
    (reply (ask (Frame.Drain { scenario = "s"; deadline = 30. })));
  Mutex.protect mu (fun () ->
      while not !idling do
        Condition.wait changed mu
      done);
  let queued = ask (Frame.Hello { role = Secmed_mediation.Transcript.Client; scenario = "s" }) in
  Mutex.protect mu (fun () ->
      hello_written := true;
      Condition.broadcast changed);
  Alcotest.(check string) "queued Hello refused typed" "draining" (reply queued);
  Thread.join server

(* A SIGKILLed replica takes its port down with it: a probe is refused
   at once, not left to sit out its I/O timeout on a listener another
   process of the cluster inherited.  A restart serves the same port. *)
let test_killed_replica_refuses () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~standbys:1 @@ fun c ->
  let port =
    let primary = pool_replica (mediator_stats c) ~source:1 ~replica:0 in
    match Option.bind primary (J.member "addr") with
    | Some (J.Str addr) -> int_of_string (List.nth (String.split_on_char ':' addr) 1)
    | _ -> Alcotest.fail "no address for the source 1 primary in the stats pool"
  in
  Loopback.kill_source c ~id:1 ~replica:0;
  let t0 = Unix.gettimeofday () in
  (match Peer.ping ~host:"127.0.0.1" ~port ~io_timeout:3. () with
  | _ -> Alcotest.fail "a killed replica answered a ping"
  | exception Io.Transport_error _ -> ());
  Alcotest.(check bool) "refused in under 1 s" true (Unix.gettimeofday () -. t0 < 1.);
  Loopback.restart_source c ~id:1 ~replica:0;
  let health = Peer.ping ~host:"127.0.0.1" ~port ~io_timeout:3. () in
  Alcotest.(check bool) "restarted replica answers Health" true
    (health.Peer.h_role = Secmed_mediation.Transcript.Source 1)

(* The process that owns a cluster dies without cleaning up: its
   supervisor sees the control socket close and takes every daemon
   down with it. *)
let test_owner_death_stops_cluster () =
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    (try
       Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
       let oc = Unix.out_channel_of_descr wr in
       Marshal.to_channel oc
         (Loopback.mediator_pid c
         :: List.map (fun id -> Loopback.source_pid c ~id ~replica:0 ()) [ 1; 2 ])
         [];
       flush oc;
       Unix.sleep 60
     with _ -> ());
    Unix._exit 1
  | helper ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let pids : int list =
      Fun.protect
        ~finally:(fun () ->
          close_in ic;
          Unix.kill helper Sys.sigkill;
          ignore (Unix.waitpid [] helper))
        (fun () -> Marshal.from_channel ic)
    in
    let gone pid =
      match Unix.kill pid 0 with
      | () -> false
      | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
    in
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (List.for_all gone pids)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.05
    done;
    let survivors = List.filter (fun pid -> not (gone pid)) pids in
    List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) survivors;
    Alcotest.(check (list int)) "no daemon outlives its owner" [] survivors

(* ------------------------------------------------------------------ *)
(* Domain-parallel mux consumers.  LAST: domains forbid later forks. *)

(* The seeded interleaving stress again, but with each session's
   consumer in its own OCaml domain: real parallelism on the shared
   queues, same invariant — no frame lost, duplicated, or
   cross-delivered. *)
let test_mux_domain_parallel_consumers () =
  let sessions = 4 and frames_per_session = 30 in
  let fd_a, fd_b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let a = Io.of_fd ~peer:"producer" fd_a in
  let b = Io.of_fd ~peer:"consumer" fd_b in
  Fun.protect ~finally:(fun () -> Io.close a; Io.close b) @@ fun () ->
  let mux = Endpoint.Mux.create b in
  let schedule =
    let all =
      Array.init (sessions * frames_per_session) (fun i ->
          ((i / frames_per_session) + 1, i mod frames_per_session))
    in
    Secmed_crypto.Prng.shuffle (Secmed_crypto.Prng.create ~seed:"mux-domains") all;
    all
  in
  List.iter (fun k -> Endpoint.Mux.subscribe mux (k + 1)) (List.init sessions Fun.id);
  let consumers =
    List.init sessions (fun k ->
        Domain.spawn (fun () ->
            let received = ref [] in
            (try
               for _ = 1 to frames_per_session do
                 match Endpoint.Mux.next mux ~session:(k + 1) ~timeout:10. with
                 | Frame.Msg_chunk { ck_session; ck_seq; _ } ->
                   received := (ck_session, ck_seq) :: !received
                 | _ -> ()
               done
             with Io.Transport_error _ -> ());
            List.rev !received))
  in
  Array.iter
    (fun (session, seq) ->
      Io.send_frame a
        (Frame.encode
           (Frame.Msg_chunk
              {
                ck_session = session;
                ck_epoch = 1;
                ck_seq = seq;
                ck_sender = Secmed_mediation.Transcript.Mediator;
                ck_receiver = Secmed_mediation.Transcript.Source 1;
                ck_label = Printf.sprintf "s%d-%d" session seq;
                ck_chunk = 0;
                ck_chunks = 1;
                ck_declared = 2;
                ck_payload = "xy";
              })))
    schedule;
  let results = List.map Domain.join consumers in
  List.iteri
    (fun k received ->
      let expected =
        Array.to_list schedule |> List.filter (fun (session, _) -> session = k + 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "domain consumer %d saw its wire subsequence" (k + 1))
        true (received = expected))
    results

(* Domain.join waits for every thread of the domain, so the thread
   cache parks none off the main domain: a domain that ran a parallel
   batch and a spawned task still joins.  An alarm bounds a join that
   hangs. *)
let test_domain_batch_and_spawn_join () =
  let d =
    Domain.spawn (fun () ->
        let squares =
          Batch.parallel_map
            (fun x ->
              Thread.delay 0.001;
              x * x)
            [| 1; 2; 3; 4 |]
        in
        let mu = Mutex.create () and cv = Condition.create () and ran = ref false in
        Thread_cache.spawn (fun () ->
            Mutex.protect mu (fun () ->
                ran := true;
                Condition.signal cv));
        Mutex.protect mu (fun () ->
            while not !ran do
              Condition.wait cv mu
            done);
        squares)
  in
  ignore (Unix.alarm 60 : int);
  let squares = Domain.join d in
  ignore (Unix.alarm 0 : int);
  Alcotest.(check (array int)) "batch on the domain" [| 1; 4; 9; 16 |] squares

let () =
  Alcotest.run "serve"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic and seed-sensitive" `Quick
            test_plan_deterministic;
          Alcotest.test_case "poisson arrivals well-formed" `Quick
            test_plan_poisson_arrivals;
          Alcotest.test_case "nearest-rank quantile" `Quick test_quantile_nearest_rank;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "smoke run replays byte-identically" `Slow
            test_run_deterministic_smoke;
          Alcotest.test_case "64 sessions verified against reference" `Slow
            test_64_sessions_verified;
          Alcotest.test_case "backpressure counted as refused" `Quick
            test_backpressure_counted_as_refused;
          Alcotest.test_case "poisson open loop serves" `Slow
            test_poisson_open_loop_serves;
        ] );
      ( "survival",
        [
          Alcotest.test_case "mid-session failover is bit-identical" `Slow
            test_failover_mid_session_bit_identical;
          Alcotest.test_case "drain refuses typed, finishes in-flight, exits 0"
            `Slow test_drain_typed_refusal_then_exit_zero;
          Alcotest.test_case "client redials after a mediator restart" `Slow
            test_client_redials_after_restart;
          Alcotest.test_case "idle connection closed, then redialed" `Slow
            test_idle_connection_closed_then_redialed;
          Alcotest.test_case "idle connection does not hold a drain" `Slow
            test_idle_connection_does_not_hold_drain;
          Alcotest.test_case "drain answers queued connections" `Quick
            test_drain_answers_queued_connections;
          Alcotest.test_case "source drain fails over" `Slow test_source_drain_failover;
          Alcotest.test_case "killed replica refuses" `Slow test_killed_replica_refuses;
          Alcotest.test_case "owner death stops the cluster" `Slow
            test_owner_death_stops_cluster;
        ] );
      ( "domains",
        [
          Alcotest.test_case "mux consumers across domains" `Quick
            test_mux_domain_parallel_consumers;
          Alcotest.test_case "batch and spawned task on a domain join" `Quick
            test_domain_batch_and_spawn_join;
        ] );
    ]
