(* The chaos soak harness: the kill/drain schedule is a pure function
   of the config, and a short smoke soak must hold every robustness
   invariant end to end, its drain landing while a session is in
   flight. *)

open Secmed_net

let fast_params = { Secmed_core.Env.group_bits = 160; paillier_bits = 384 }

(* The shape `make check-soak` runs: small fleet, real kills, one
   drain-restart, verification on; the fleet outlasts the schedule. *)
let smoke =
  {
    Soak.default_config with
    Soak.params = Some fast_params;
    workers = 2;
    sessions_per_worker = 8;
    kills = 2;
    drains = 1;
    rate = 6.;
    gap = 0.3;
    kill_hold = 0.5;
    seed = "soak-test";
  }

let test_schedule_deterministic () =
  let s1 = Soak.schedule smoke and s2 = Soak.schedule smoke in
  Alcotest.(check bool) "same config, same schedule" true (s1 = s2);
  let kills =
    List.filter (function Soak.Kill _ -> true | Soak.Drain_restart -> false) s1
  in
  Alcotest.(check int) "kills as configured" smoke.Soak.kills (List.length kills);
  Alcotest.(check int) "drains as configured" smoke.Soak.drains
    (List.length s1 - List.length kills);
  List.iter
    (function
      | Soak.Kill (sid, r) ->
        Alcotest.(check bool) "kill targets a live endpoint" true
          ((sid = 1 || sid = 2) && r >= 0 && r <= smoke.Soak.standbys)
      | Soak.Drain_restart -> ())
    s1;
  (* Reseeding shuffles the order but never the workload of actions. *)
  let reseeded = Soak.schedule { smoke with Soak.seed = "other-seed" } in
  Alcotest.(check int) "reseeding keeps the action count" (List.length s1)
    (List.length reseeded)

let test_smoke_soak_invariants () =
  let report = Soak.run smoke in
  Alcotest.(check (list string)) "every invariant holds" []
    report.Soak.sk_violations;
  Alcotest.(check bool) "report passes" true (Soak.ok report);
  let load = report.Soak.sk_load in
  Alcotest.(check int) "no session lost or duplicated"
    (smoke.Soak.workers * smoke.Soak.sessions_per_worker)
    (List.length load.Loadgen.records);
  Alcotest.(check int) "zero failed" 0 (Loadgen.count Loadgen.Failed load);
  Alcotest.(check int) "one drain-restart executed" 1
    (List.length report.Soak.sk_drain_exits);
  List.iter
    (fun code -> Alcotest.(check int) "drained mediator exited 0" 0 code)
    report.Soak.sk_drain_exits;
  Alcotest.(check bool) "every drain saw a session in flight" true
    (List.for_all (fun n -> n > 0) report.Soak.sk_drain_in_flight);
  Alcotest.(check int) "kills executed in schedule order" smoke.Soak.kills
    (List.length report.Soak.sk_kills);
  Alcotest.(check bool) "failover transitions recovered" true
    (report.Soak.sk_transitions <> [])

let () =
  Alcotest.run "soak"
    [
      ( "schedule",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_schedule_deterministic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "smoke soak holds the invariants" `Slow
            test_smoke_soak_invariants;
        ] );
    ]
