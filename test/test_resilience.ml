(* Resilience-layer suite (DESIGN.md §10): deadline budgets, seeded
   exponential backoff, per-datasource circuit breakers, and graceful
   scheme degradation.  Everything is deterministic — jitter is seeded
   and every clock is a manual clock, so nothing here ever sleeps — but
   for the delay fault, which really waits and trips a real-time
   deadline. *)

open Secmed_mediation
open Secmed_core
module R = Resilience

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
  }

let shared = lazy (Workload.scenario ~params:fast small_spec)

let pm = Protocol.Private_matching Pm_join.Session_keys

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let feps = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Backoff. *)

let test_backoff_exact_without_jitter () =
  let b = R.backoff ~base:0.1 ~factor:2.0 ~max_delay:0.4 ~jitter:0.0 () in
  Alcotest.(check (list feps))
    "doubling capped at max_delay"
    [ 0.1; 0.2; 0.4; 0.4; 0.4 ]
    (R.backoff_schedule b ~attempts:5);
  Alcotest.(check (list feps))
    "no_backoff is all zeros" [ 0.0; 0.0; 0.0 ]
    (R.backoff_schedule R.no_backoff ~attempts:3)

let test_backoff_jitter_deterministic () =
  let schedule seed =
    R.backoff_schedule (R.backoff ~base:0.1 ~jitter:0.2 ~seed ()) ~attempts:6
  in
  Alcotest.(check (list feps)) "same seed, same schedule" (schedule 7) (schedule 7);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (schedule 7 <> schedule 8);
  (* Jitter stays within the documented envelope around the raw delay. *)
  let b = R.backoff ~base:0.1 ~factor:2.0 ~max_delay:10.0 ~jitter:0.2 ~seed:3 () in
  List.iteri
    (fun i d ->
      let raw = 0.1 *. (2.0 ** float_of_int i) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within [0.8, 1.2] x raw" (i + 1))
        true
        (d >= (0.8 *. raw) -. 1e-9 && d <= (1.2 *. raw) +. 1e-9))
    (R.backoff_schedule b ~attempts:5)

(* ------------------------------------------------------------------ *)
(* Deadlines. *)

let test_deadline_accounting () =
  let clock, advance = R.manual () in
  let d = R.deadline clock ~budget:1.0 in
  advance 0.4;
  Alcotest.(check feps) "elapsed" 0.4 (R.elapsed d);
  Alcotest.(check feps) "remaining" 0.6 (R.remaining d);
  Alcotest.(check feps) "half the remaining budget" 0.3 (R.phase_budget d ~fraction:0.5);
  advance 0.3;
  Alcotest.(check feps) "elapsed advances with the clock" 0.7 (R.elapsed d);
  Alcotest.(check bool) "not yet expired" false (R.expired d);
  advance 0.4;
  Alcotest.(check bool) "expired" true (R.expired d);
  Alcotest.(check feps) "remaining clamps at zero" 0.0 (R.remaining d);
  (match R.check d ~phase:"p" with
   | () -> Alcotest.fail "expired deadline did not trip"
   | exception R.Deadline_exceeded { phase; elapsed; budget } ->
     Alcotest.(check string) "phase" "p" phase;
     Alcotest.(check feps) "elapsed at trip" 1.1 elapsed;
     Alcotest.(check feps) "budget at trip" 1.0 budget);
  let u = R.unlimited clock in
  advance 1000.0;
  R.check u ~phase:"never";
  Alcotest.(check bool) "unlimited never expires" false (R.expired u)

(* ------------------------------------------------------------------ *)
(* Circuit breakers. *)

let tight_breaker =
  { R.window = 4; failure_threshold = 0.5; min_samples = 2; cooldown = 5.0;
    half_open_probes = 1 }

let states b = List.map (fun t -> t.R.to_state) (R.breaker_transitions b)

(* The same lifecycle for a rate breaker and for a replica's health
   breaker, where one failure is enough to trip. *)
let test_breaker_lifecycle () =
  List.iter
    (fun (name, config) ->
      let check what = Alcotest.(check bool) (name ^ ": " ^ what) true in
      let clock, advance = R.manual () in
      let b = R.breaker ~config clock (Transcript.Source 1) in
      check "closed admits" (R.breaker_allow b);
      for _ = 2 to config.R.min_samples do
        R.breaker_record b ~ok:false;
        check "failure below min_samples" (R.breaker_state b = R.Closed)
      done;
      R.breaker_record b ~ok:false;
      check "tripped open" (R.breaker_state b = R.Open);
      check "open refuses" (not (R.breaker_allow b));
      advance 4.9;
      check "still cooling down" (not (R.breaker_allow b));
      advance 0.2;
      check "cooldown over: probe admitted" (R.breaker_allow b);
      check "half-open" (R.breaker_state b = R.Half_open);
      R.breaker_record b ~ok:true;
      check "probe success closes" (R.breaker_state b = R.Closed);
      check "transition log" (states b = [ R.Open; R.Half_open; R.Closed ]);
      (* The window was reset on close: it takes min_samples fresh
         failures to trip again. *)
      for _ = 2 to config.R.min_samples do
        R.breaker_record b ~ok:false
      done;
      check "window reset on close" (R.breaker_state b = R.Closed))
    [ ("rate", tight_breaker); ("replica", R.replica_breaker ~cooldown:5.0) ]

let test_breaker_probe_failure_reopens () =
  let clock, advance = R.manual () in
  let b = R.breaker ~config:tight_breaker clock (Transcript.Source 2) in
  R.breaker_record b ~ok:false;
  R.breaker_record b ~ok:false;
  advance 5.0;
  Alcotest.(check bool) "probe admitted" true (R.breaker_allow b);
  R.breaker_record b ~ok:false;
  Alcotest.(check bool) "probe failure reopens" true (R.breaker_state b = R.Open);
  Alcotest.(check bool) "reopened refuses" false (R.breaker_allow b);
  Alcotest.(check bool)
    "transition log" true
    (states b = [ R.Open; R.Half_open; R.Open ])

(* A replica that stays dead under the health prober trips, cools down
   and is re-probed forever: the count keeps growing, the kept history
   does not. *)
let test_breaker_history_bounded () =
  let clock, advance = R.manual () in
  let b = R.breaker ~config:(R.replica_breaker ~cooldown:1.0) clock (Transcript.Source 1) in
  for _ = 1 to 10_000 do
    R.breaker_record b ~ok:false;
    advance 1.0;
    ignore (R.breaker_allow b : bool)
  done;
  Alcotest.(check int) "every transition counted" 20_000 (R.breaker_transition_count b);
  let kept = R.breaker_transitions b in
  Alcotest.(check bool) "at most 64 kept" true (List.length kept <= 64);
  let last3 =
    List.filteri (fun i _ -> i >= List.length kept - 3) kept
    |> List.map (fun t -> (t.R.at, t.R.from_state, t.R.to_state))
  in
  Alcotest.(check bool) "newest three, in order" true
    (last3
    = [ (9_999., R.Open, R.Half_open); (9_999., R.Half_open, R.Open);
        (10_000., R.Open, R.Half_open) ])

let test_breaker_rate_threshold () =
  (* Failure *rate* over the sliding window, not a consecutive count:
     alternating outcomes at threshold 0.5 trip as soon as the window has
     min_samples. *)
  let clock, _ = R.manual () in
  let b =
    R.breaker
      ~config:{ tight_breaker with R.min_samples = 4; failure_threshold = 0.75 }
      clock (Transcript.Source 1)
  in
  List.iter (fun ok -> R.breaker_record b ~ok) [ false; true; true; false ];
  Alcotest.(check bool) "2/4 below 0.75 stays closed" true (R.breaker_state b = R.Closed);
  R.breaker_record b ~ok:false;
  (* the window slides: [true; true; false; false] is still only 0.5 *)
  Alcotest.(check bool) "sliding window still below" true (R.breaker_state b = R.Closed);
  R.breaker_record b ~ok:false;
  (* [true; false; false; false] = 0.75: the rate reaches the threshold *)
  Alcotest.(check bool) "rate reaches threshold" true (R.breaker_state b = R.Open)

(* ------------------------------------------------------------------ *)
(* The engine through Protocol.run: the factored retry path. *)

let test_retry_event_traced () =
  let env, client, query = Lazy.force shared in
  let plan = Fault.plan ~max_retries:2 [ Fault.rule ~times:1 Fault.Drop ] in
  let result, trace =
    Secmed_obs.Trace.collect (fun () ->
        Protocol.run ~fault:plan Protocol.Plain env client ~query)
  in
  (match result with
   | Protocol.Ok _ -> ()
   | Protocol.Fault f -> Alcotest.failf "unexpected fault: %s" f.Protocol.reason);
  let retries =
    List.filter (fun e -> e.Secmed_obs.Trace.ev_name = "retry") (Secmed_obs.Trace.events trace)
  in
  Alcotest.(check int) "one traced retry" 1 (List.length retries);
  let e = List.hd retries in
  Alcotest.(check bool)
    "retry event carries phase/reason/attempt" true
    (List.mem_assoc "phase" e.Secmed_obs.Trace.ev_attrs
     && List.mem_assoc "reason" e.Secmed_obs.Trace.ev_attrs
     && List.mem_assoc "attempt" e.Secmed_obs.Trace.ev_attrs)

(* ------------------------------------------------------------------ *)
(* Sessions: deadlines tripping on injected link delays, which really
   wait. *)

let session_with ?deadline ?breaker ?backoff () =
  let clock, advance = R.manual () in
  let policy =
    {
      R.deadline_budget = deadline;
      retry_backoff = Option.value ~default:R.no_backoff backoff;
      breaker_config = Option.value ~default:R.default_breaker breaker;
    }
  in
  (R.session ~policy ~clock (), clock, advance)

let test_deadline_trips_on_delay_fault () =
  let env, client, query = Lazy.force shared in
  let session =
    R.session ~policy:{ R.default_policy with R.deadline_budget = Some 0.1 } ()
  in
  let plan = Fault.plan ~max_retries:0 [ Fault.rule ~times:1 (Fault.Delay 0.5) ] in
  let started = Unix.gettimeofday () in
  match Protocol.run_session ~fault:plan ~session ~chain:[] pm env client ~query with
  | Protocol.Served _ -> Alcotest.fail "delayed run beat a 0.1s budget"
  | Protocol.Unserved [ (scheme, f) ] ->
    Alcotest.(check string) "pm was tried" "pm[session-keys]" scheme;
    Alcotest.(check string) "typed deadline failure" "deadline" f.Protocol.phase;
    Alcotest.(check bool)
      "reason names the budget" true
      (contains f.Protocol.reason "deadline exceeded"
       && contains f.Protocol.reason "0.100");
    Alcotest.(check bool)
      "the injected delay was waited out" true
      (Unix.gettimeofday () -. started >= 0.5);
    Alcotest.(check bool)
      "the delay is logged" true
      (List.exists
         (fun e -> e.Fault.event_action = Fault.Delay 0.5)
         (Fault.events plan))
  | Protocol.Unserved tried ->
    Alcotest.failf "expected one tried scheme, got %d" (List.length tried)

let test_backoff_waits_on_session_clock () =
  let env, client, query = Lazy.force shared in
  let session, clock, _ =
    session_with ~backoff:(R.backoff ~base:0.5 ~factor:2.0 ~jitter:0.0 ()) ()
  in
  let plan = Fault.plan ~max_retries:2 [ Fault.rule ~times:1 Fault.Drop ] in
  (match Protocol.run_session ~fault:plan ~session ~chain:[] Protocol.Plain env client ~query with
   | Protocol.Served outcome ->
     Alcotest.(check bool) "served correctly" true (Outcome.correct outcome)
   | Protocol.Unserved _ -> Alcotest.fail "transient drop should recover");
  Alcotest.(check int) "two attempts" 2 (Fault.attempts plan);
  (* One retry, one backoff sleep of exactly base seconds on the virtual
     clock — nothing slept for real. *)
  Alcotest.(check feps) "virtual clock advanced by the backoff" 0.5 (clock.R.now ())

(* ------------------------------------------------------------------ *)
(* Graceful degradation. *)

let test_degradation_chain_serves_query () =
  let env, client, query = Lazy.force shared in
  let session, _, _ = session_with () in
  let plan = Fault.plan ~max_retries:2 ~byzantine:[ (1, Fault.Garbage_paillier) ] [] in
  match Protocol.run_session ~fault:plan ~session pm env client ~query with
  | Protocol.Unserved tried ->
    Alcotest.failf "chain exhausted: %s"
      (String.concat ", " (List.map fst tried))
  | Protocol.Served outcome ->
    Alcotest.(check (option string))
      "annotated with the scheme that gave up"
      (Some "pm[session-keys]") outcome.Outcome.degraded_from;
    Alcotest.(check bool)
      "fallback scheme served it" true
      (contains outcome.Outcome.scheme "commutative");
    Alcotest.(check bool)
      "join result equals ground truth" true (Outcome.correct outcome);
    Alcotest.(check bool)
      "trade recorded in the transcript" true
      (List.exists
         (fun n -> contains n.Transcript.text "degraded")
         (Transcript.notes outcome.Outcome.transcript))

let test_degradation_chain_exhausts () =
  let env, client, query = Lazy.force shared in
  let session, _, _ = session_with () in
  (* Drop everything: every scheme in the chain fails in the request
     phase and the session reports each terminal failure in order. *)
  let plan = Fault.plan ~max_retries:0 [ Fault.rule Fault.Drop ] in
  match Protocol.run_session ~fault:plan ~session pm env client ~query with
  | Protocol.Served _ -> Alcotest.fail "nothing can serve under drop-everything"
  | Protocol.Unserved tried ->
    Alcotest.(check (list string))
      "every chain entry tried, in order"
      [ "pm[session-keys]"; "commutative"; "das[equi-depth(4)]" ]
      (List.map fst tried);
    List.iter
      (fun (scheme, f) ->
        Alcotest.(check int) (scheme ^ ": one attempt, no retries") 1 f.Protocol.attempts)
      tried

let test_no_fault_no_degradation () =
  let env, client, query = Lazy.force shared in
  let session, _, _ = session_with ~deadline:60.0 () in
  match Protocol.run_session ~session pm env client ~query with
  | Protocol.Served outcome ->
    Alcotest.(check (option string)) "not degraded" None outcome.Outcome.degraded_from;
    Alcotest.(check bool) "correct" true (Outcome.correct outcome)
  | Protocol.Unserved _ -> Alcotest.fail "honest run must serve"

(* ------------------------------------------------------------------ *)
(* Breakers across a long-lived session. *)

let test_breaker_opens_across_queries () =
  let env, client, query = Lazy.force shared in
  let session, _, advance =
    session_with
      ~breaker:{ tight_breaker with R.cooldown = 50.0 }
      ()
  in
  let poisoned () = Fault.plan ~max_retries:0 ~byzantine:[ (1, Fault.Garbage_paillier) ] [] in
  let run ?fault () = Protocol.run_session ?fault ~session ~chain:[] pm env client ~query in
  (* Two queries against the byzantine source feed its breaker.  (The
     garbage Paillier value is detected by the *opposite* source while
     evaluating the poisoned polynomial, so the blame - and hence the
     breaker - lands on whichever source the fault layer charges.) *)
  let blamed =
    match run ~fault:(poisoned ()) () with
    | Protocol.Unserved [ (_, f) ] ->
      (match f.Protocol.party with
       | Transcript.Source _ as p -> p
       | p ->
         Alcotest.failf "blame must land on a datasource, got %s"
           (Transcript.party_name p))
    | _ -> Alcotest.fail "byzantine query 1 must fail"
  in
  (match run ~fault:(poisoned ()) () with
   | Protocol.Unserved _ -> ()
   | Protocol.Served _ -> Alcotest.fail "byzantine query 2 must fail");
  let b = R.breaker_for session blamed in
  Alcotest.(check bool) "breaker open after repeated faults" true (R.breaker_state b = R.Open);
  (* ... so the next query - even a clean one - is refused up front. *)
  (match run () with
   | Protocol.Served _ -> Alcotest.fail "open breaker must short-circuit"
   | Protocol.Unserved [ (_, f) ] ->
     Alcotest.(check string) "typed breaker failure" "breaker" f.Protocol.phase;
     Alcotest.(check bool) "names the tripped party" true (f.Protocol.party = blamed);
     Alcotest.(check int) "no attempt burned" 0 f.Protocol.attempts
   | Protocol.Unserved tried ->
     Alcotest.failf "expected one tried scheme, got %d" (List.length tried));
  (* After the cooldown the half-open probe goes through, and the (now
     honest) source closes the breaker again. *)
  advance 50.0;
  (match run () with
   | Protocol.Served outcome ->
     Alcotest.(check bool) "probe query served" true (Outcome.correct outcome)
   | Protocol.Unserved _ -> Alcotest.fail "probe query must serve");
  Alcotest.(check bool) "breaker closed by the probe" true (R.breaker_state b = R.Closed);
  Alcotest.(check bool)
    "full lifecycle logged" true
    (states b = [ R.Open; R.Half_open; R.Closed ])

(* ------------------------------------------------------------------ *)
(* Observability of the new machinery. *)

let test_resilience_metrics () =
  let env, client, query = Lazy.force shared in
  Secmed_obs.Metrics.reset ();
  Fun.protect ~finally:Secmed_obs.Metrics.reset (fun () ->
      let session, _, _ = session_with () in
      let plan = Fault.plan ~max_retries:2 ~byzantine:[ (1, Fault.Garbage_paillier) ] [] in
      (match Protocol.run_session ~fault:plan ~session pm env client ~query with
       | Protocol.Served _ -> ()
       | Protocol.Unserved _ -> Alcotest.fail "degradation should serve");
      Alcotest.(check int)
        "degradation counted" 1
        (Secmed_obs.Metrics.counter_value
           (Secmed_obs.Metrics.counter "resilience.degradations")))

let test_breaker_events_traced () =
  let clock, _ = R.manual () in
  let _, trace =
    Secmed_obs.Trace.collect (fun () ->
        Secmed_obs.Trace.with_span "root" (fun () ->
            let b = R.breaker ~config:tight_breaker clock (Transcript.Source 1) in
            R.breaker_record b ~ok:false;
            R.breaker_record b ~ok:false))
  in
  match
    List.filter (fun e -> e.Secmed_obs.Trace.ev_name = "breaker") (Secmed_obs.Trace.events trace)
  with
  | [ e ] ->
    Alcotest.(check bool)
      "transition event carries party/from/to" true
      (List.assoc_opt "party" e.Secmed_obs.Trace.ev_attrs
         = Some (Secmed_obs.Json.Str "Source1")
       && List.assoc_opt "to" e.Secmed_obs.Trace.ev_attrs
          = Some (Secmed_obs.Json.Str "open"))
  | events -> Alcotest.failf "expected one breaker event, got %d" (List.length events)

let () =
  Alcotest.run "resilience"
    [
      ( "backoff",
        [
          Alcotest.test_case "exact without jitter" `Quick test_backoff_exact_without_jitter;
          Alcotest.test_case "seeded jitter deterministic" `Quick
            test_backoff_jitter_deterministic;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "accounting and trips" `Quick test_deadline_accounting;
          Alcotest.test_case "delay fault trips budget" `Quick
            test_deadline_trips_on_delay_fault;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "lifecycle" `Quick test_breaker_lifecycle;
          Alcotest.test_case "probe failure reopens" `Quick test_breaker_probe_failure_reopens;
          Alcotest.test_case "rate threshold" `Quick test_breaker_rate_threshold;
          Alcotest.test_case "history bounded" `Quick test_breaker_history_bounded;
          Alcotest.test_case "opens across session queries" `Quick
            test_breaker_opens_across_queries;
        ] );
      ( "engine",
        [
          Alcotest.test_case "retry always traced" `Quick test_retry_event_traced;
          Alcotest.test_case "backoff on session clock" `Quick
            test_backoff_waits_on_session_clock;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "chain serves query" `Quick test_degradation_chain_serves_query;
          Alcotest.test_case "chain exhausts" `Quick test_degradation_chain_exhausts;
          Alcotest.test_case "honest run not degraded" `Quick test_no_fault_no_degradation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics counted" `Quick test_resilience_metrics;
          Alcotest.test_case "breaker transitions traced" `Quick test_breaker_events_traced;
        ] );
    ]
