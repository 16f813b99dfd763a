(* BENCH_resilience.json: recovery behaviour of the mediation session
   layer under seeded fault plans — per scenario, how long the session
   took to serve (or give up on) the query, how many end-to-end attempts
   it burned, whether it degraded to a fallback scheme, and how often the
   per-party circuit breakers moved.  The schema is validated by
   `secmed check-bench` (and by make check-resilience in CI). *)

open Secmed_mediation
open Secmed_core
module R = Resilience
module Json = Secmed_obs.Json

(* Tiny backoff keeps the suite CI-fast while still exercising the
   schedule; all fault plans are seeded, so runs are reproducible. *)
let bench_policy ?deadline () =
  {
    R.deadline_budget = deadline;
    retry_backoff = R.backoff ~base:0.001 ~max_delay:0.01 ~seed:2007 ();
    breaker_config = R.default_breaker;
  }

let small_spec =
  {
    Workload.default with
    rows_left = 12;
    rows_right = 12;
    distinct_left = 6;
    distinct_right = 6;
    overlap = 3;
    extra_attrs = 1;
    seed = 2007;
  }

type scenario = {
  name : string;
  scheme : Protocol.scheme;
  plan : unit -> Fault.plan option;  (* fresh per run: plans are mutable *)
  deadline : float option;
  fallback : bool;
}

let pm = Protocol.Private_matching Pm_join.Session_keys

let scenarios =
  [
    { name = "clean"; scheme = pm; plan = (fun () -> None); deadline = Some 30.0;
      fallback = true };
    {
      name = "transient-drop";
      scheme = pm;
      plan = (fun () -> Some (Fault.plan ~max_retries:2 [ Fault.rule ~times:1 Fault.Drop ]));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "persistent-drop-degrade";
      (* Only PM's delivery label is dropped, so the chain recovers via
         the commutative fallback. *)
      scheme = pm;
      plan =
        (fun () -> Some (Fault.plan ~max_retries:2 [ Fault.rule ~label:"e-values" Fault.Drop ]));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "byzantine-degrade";
      scheme = pm;
      plan =
        (fun () ->
          Some (Fault.plan ~max_retries:2 ~byzantine:[ (1, Fault.Garbage_paillier) ] []));
      deadline = Some 30.0;
      fallback = true;
    };
    {
      name = "deadline-trip";
      scheme = pm;
      plan = (fun () -> Some (Fault.plan ~max_retries:0 [ Fault.rule (Fault.Delay 0.5) ]));
      deadline = Some 0.05;
      fallback = false;
    };
  ]

(* Every protocol attempt roots one Protocol trace span, so the span
   count is the number of end-to-end attempts across the whole
   degradation chain. *)
let measure_session f =
  let t0 = Secmed_obs.Clock.now_ns () in
  let result, trace = Secmed_obs.Trace.collect f in
  let seconds = Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:t0) in
  let attempts =
    List.length
      (List.filter
         (fun s -> s.Secmed_obs.Trace.kind = Secmed_obs.Trace.Protocol)
         (Secmed_obs.Trace.spans trace))
  in
  (result, seconds, attempts)

let breaker_transition_count session =
  List.fold_left
    (fun acc b -> acc + R.breaker_transition_count b)
    0 (R.breakers session)

let entry_json s ~outcome_kind ~degraded_from ~correct ~failures ~attempts ~seconds
    ~transitions =
  Json.Obj
    [
      ("scenario", Json.Str s.name);
      ("scheme", Json.Str (Protocol.scheme_name s.scheme));
      ("outcome", Json.Str outcome_kind);
      ( "degraded_from",
        match degraded_from with None -> Json.Null | Some d -> Json.Str d );
      ("correct", match correct with None -> Json.Null | Some b -> Json.Bool b);
      ("attempts", Json.Int attempts);
      ("seconds", Json.Float seconds);
      ( "deadline_budget",
        match s.deadline with None -> Json.Null | Some d -> Json.Float d );
      ("breaker_transitions", Json.Int transitions);
      ("schemes_failed", Json.List (List.map (fun n -> Json.Str n) failures));
    ]

let run_scenario env client query s =
  let session = R.session ~policy:(bench_policy ?deadline:s.deadline ()) () in
  let plan = s.plan () in
  let chain = if s.fallback then Protocol.degradation_chain s.scheme else [] in
  let result, seconds, attempts =
    measure_session (fun () ->
        Protocol.run_session ?fault:plan ~session ~chain s.scheme env client ~query)
  in
  let transitions = breaker_transition_count session in
  let outcome_kind, degraded_from, correct, failures =
    match result with
    | Protocol.Served o ->
      ( (if o.Outcome.degraded_from = None then "served" else "degraded"),
        o.Outcome.degraded_from,
        Some (Outcome.correct o),
        [] )
    | Protocol.Unserved tried ->
      ("failed", None, None, List.map (fun (scheme, _) -> scheme) tried)
  in
  entry_json s ~outcome_kind ~degraded_from ~correct ~failures ~attempts ~seconds
    ~transitions

(* A long-lived session: the same byzantine source across successive
   queries trips its breaker, and the next query is short-circuited
   without contacting anybody. *)
let breaker_scenario env client query =
  let s =
    { name = "breaker-short-circuit"; scheme = pm; plan = (fun () -> None);
      deadline = Some 30.0; fallback = false }
  in
  let policy =
    {
      (bench_policy ?deadline:s.deadline ()) with
      R.breaker_config =
        { R.default_breaker with R.min_samples = 2; window = 4; cooldown = 60.0 };
    }
  in
  let session = R.session ~policy () in
  let byzantine () = Some (Fault.plan ~max_retries:0 ~byzantine:[ (1, Fault.Garbage_paillier) ] []) in
  let result, seconds, attempts =
    measure_session (fun () ->
        (* Two poisoned queries open source 1's breaker ... *)
        let _ = Protocol.run_session ?fault:(byzantine ()) ~session ~chain:[] s.scheme env client ~query in
        let _ = Protocol.run_session ?fault:(byzantine ()) ~session ~chain:[] s.scheme env client ~query in
        (* ... so the third (clean!) query is refused up front. *)
        Protocol.run_session ~session ~chain:[] s.scheme env client ~query)
  in
  let failures =
    match result with
    | Protocol.Served _ -> []
    | Protocol.Unserved tried -> List.map (fun (_, f) -> f.Protocol.phase) tried
  in
  entry_json s
    ~outcome_kind:(match result with Protocol.Served _ -> "served" | _ -> "short-circuited")
    ~degraded_from:None ~correct:None ~failures ~attempts ~seconds
    ~transitions:(breaker_transition_count session)

let write ?(path = "BENCH_resilience.json") () =
  let env, client, query = Workload.scenario ~params:Experiments.bench_params small_spec in
  let entries =
    List.map (run_scenario env client query) scenarios
    @ [ breaker_scenario env client query ]
  in
  let json =
    Json.Obj
      [
        ( "params",
          Json.Obj
            [
              ("group_bits", Json.Int Experiments.bench_params.Env.group_bits);
              ("paillier_bits", Json.Int Experiments.bench_params.Env.paillier_bits);
            ] );
        ("scenarios", Json.List entries);
      ]
  in
  let contents = Json.to_string_pretty json ^ "\n" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
