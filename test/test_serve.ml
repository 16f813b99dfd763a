(* Sustained-load serving: the deterministic loadgen fleet against a
   forked loopback cluster, plus the domain-level concurrency pieces it
   rides on.

   Ordering note: the final suite spawns OCaml domains, and Unix.fork
   is illegal once any domain has been spawned — every cluster-forking
   test must (and does) run before it. *)

open Secmed_core
open Secmed_net
module Metrics = Secmed_obs.Metrics

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
      Alcotest.(check int) "latency histogram saw every session" 16
        (Metrics.histogram_count r.Loadgen.latency))
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
   kill lands while the session still needs it. *)
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
  let t =
    Thread.create (fun () -> resp := Some (Loopback.query c ~fault_spec ~scheme ())) ()
  in
  Thread.delay 0.5;
  Unix.kill (Loopback.source_pid c ~id:1 ~replica:0 ()) Sys.sigkill;
  Thread.join t;
  let response =
    match !resp with Some r -> r | None -> Alcotest.fail "query thread died"
  in
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

(* SIGTERM the primary of source 1 between sessions: it drains and
   exits, its health breaker opens, and the next session fails the
   pooled slot over to the standby with a bit-identical answer.  One
   pooled slot, so the second session reuses the first one's slot and
   its cursor move is logged. *)
let test_source_drain_failover () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~source_conns:1 ~standbys:1
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
  let module J = Secmed_obs.Json in
  let stats =
    match J.parse (Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats payload does not parse: %s" e
  in
  let list key j = Option.value ~default:[] (Option.bind (J.member key j) J.to_list) in
  let int key j = Option.bind (J.member key j) J.to_int in
  let primary =
    List.concat_map (list "replicas")
      (List.filter (fun sl -> int "source" sl = Some 1) (list "pool" stats))
    |> List.find_opt (fun re -> int "replica" re = Some 0)
  in
  Alcotest.(check bool) "drained primary is down" true
    (match primary with
    | Some re -> J.member "up" re = Some (J.Bool false)
    | None -> false);
  let events =
    Option.fold ~none:[] ~some:(list "events") (J.member "failover" stats)
  in
  let logged kind ~replica =
    List.exists
      (fun e ->
        int "source" e = Some 1
        && int "replica" e = Some replica
        && J.member "kind" e = Some (J.Str kind))
      events
  in
  Alcotest.(check bool) "down logged for the primary" true (logged "down" ~replica:0);
  Alcotest.(check bool) "failover to the standby logged" true
    (logged "failover" ~replica:1)

(* The authenticated drain frame: a wrong digest is refused and changes
   nothing; the right digest flips the mediator into draining, where a
   new session gets the typed [Draining] (never misfiled as [Busy]),
   the in-flight session still finishes, and the process exits 0. *)
let test_drain_typed_refusal_then_exit_zero () =
  Loopback.with_cluster ~params:fast ~spec:slow_spec ~max_sessions:4
    ~drain_deadline:8. @@ fun c ->
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
  Thread.delay 0.3;
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
  let _, status = Unix.waitpid [] (Loopback.mediator_pid c) in
  Alcotest.(check bool) "drained mediator exits 0" true (status = Unix.WEXITED 0)

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
                 | Frame.Msg { session; seq; _ } -> received := (session, seq) :: !received
                 | _ -> ()
               done
             with Io.Transport_error _ -> ());
            List.rev !received))
  in
  Array.iter
    (fun (session, seq) ->
      Io.send_frame a
        (Frame.encode
           (Frame.Msg
              {
                session;
                epoch = 1;
                seq;
                sender = Secmed_mediation.Transcript.Mediator;
                receiver = Secmed_mediation.Transcript.Source 1;
                label = Printf.sprintf "s%d-%d" session seq;
                declared = 2;
                payload = "xy";
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

let () =
  Alcotest.run "serve"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic and seed-sensitive" `Quick
            test_plan_deterministic;
          Alcotest.test_case "poisson arrivals well-formed" `Quick
            test_plan_poisson_arrivals;
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
          Alcotest.test_case "source drain fails over" `Slow test_source_drain_failover;
        ] );
      ( "domains",
        [
          Alcotest.test_case "mux consumers across domains" `Quick
            test_mux_domain_parallel_consumers;
        ] );
    ]
