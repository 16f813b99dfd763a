(* BENCH_serve.json: sustained-load serving under concurrency — a
   deterministic {!Secmed_net.Loadgen} fleet against a forked loopback
   cluster at 1/8/64/256 concurrent sessions (--smoke: 1/2/4/8), each
   level measured clean and under chaos (a times-bounded corrupt proxy
   on source 1's link plus a retry budget).  Each entry records
   throughput, outcome counts (the typed [Refused] column is the
   mediator's admission backpressure), and latency percentiles overall
   and per scheme.  The schema is validated by `secmed check-bench`
   (and by make check-serve in CI). *)

open Secmed_mediation
open Secmed_core
open Secmed_net
module Json = Secmed_obs.Json

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

(* Bounded chaos: two corrupted frames, each of which severs one pooled
   mediator->source connection and so faults *every* session bound to
   that slot at once.  The retry budget in the query's fault spec is
   sized for that amplification — a session can be hit by both events
   plus a redial race and still recover. *)
let chaos_plan () =
  match Fault.of_spec "corrupt:mediator->source1:times=2" with
  | Ok plan -> plan
  | Error e -> failwith ("serve_json: bad chaos spec: " ^ e)

let chaos_fault_spec = "retries=4"

(* The sweep's chaos rows measure sever → retry → redial recovery, so
   the source breakers must stay closed: one corrupted frame severs a
   pooled mediator->source connection and fails every session bound to
   that slot at once, instantly tripping a rate breaker — and a
   short-circuit is terminal for the whole query (by design: an open
   breaker refuses up front), so any session whose ~50ms first backoff
   lands inside the cooldown is stranded with budget to spare.  A
   threshold above 1.0 can never be reached, which disables tripping
   without touching the rest of the policy; the breaker's trip and
   half-open behavior is pinned by its own tests. *)
let bench_policy =
  {
    Resilience.default_policy with
    breaker_config = { Resilience.default_breaker with failure_threshold = 2.0 };
  }

(* Quantiles of the exact session latencies, never a histogram bucket
   edge. *)
let ms latencies q = Bench_util.quantile q latencies *. 1000.

(* Per scheme, the sessions Loadgen's [per_scheme] histograms count:
   served and degraded ones. *)
let scheme_entry report (scheme, _) =
  let latencies =
    List.filter_map
      (fun (r : Loadgen.record) ->
        match r.r_kind with
        | (Loadgen.Served | Loadgen.Degraded) when String.equal r.r_scheme scheme ->
          Some r.r_latency
        | _ -> None)
      report.Loadgen.records
  in
  let sessions = List.length latencies and elapsed = report.Loadgen.elapsed in
  Json.Obj
    [
      ("scheme", Json.Str scheme);
      ("sessions", Json.Int sessions);
      ("qps", Json.Float (if elapsed <= 0. then 0. else float_of_int sessions /. elapsed));
      ("p50_ms", Json.Float (ms latencies 0.5));
      ("p95_ms", Json.Float (ms latencies 0.95));
      ("p99_ms", Json.Float (ms latencies 0.99));
    ]

let level_entry ~mode ~concurrency ~sessions_per_worker report =
  let count k = Loadgen.count k report in
  let latencies = List.map (fun (r : Loadgen.record) -> r.r_latency) report.Loadgen.records in
  Json.Obj
    [
      ("mode", Json.Str mode);
      ("concurrency", Json.Int concurrency);
      ("sessions_per_worker", Json.Int sessions_per_worker);
      ("sessions", Json.Int (List.length report.Loadgen.records));
      ("seconds", Json.Float report.Loadgen.elapsed);
      ("qps", Json.Float (Loadgen.qps report));
      ("served", Json.Int (count Loadgen.Served));
      ("degraded", Json.Int (count Loadgen.Degraded));
      ("unserved", Json.Int (count Loadgen.Unserved));
      ("refused", Json.Int (count Loadgen.Refused));
      ("failed", Json.Int (count Loadgen.Failed));
      ("p50_ms", Json.Float (ms latencies 0.5));
      ("p95_ms", Json.Float (ms latencies 0.95));
      ("p99_ms", Json.Float (ms latencies 0.99));
      ("schemes", Json.List (List.map (scheme_entry report) report.Loadgen.per_scheme));
    ]

let run_level ?(trace = false) ~mode ~concurrency ~sessions_per_worker () =
  let chaos, fault_spec =
    match mode with
    | "chaos" -> ([ (1, chaos_plan ()) ], chaos_fault_spec)
    | _ -> ([], "")
  in
  (* A per-operation timeout scaled to the offered concurrency: at
     64-256 concurrent drivers the runtime is saturated and frame
     exchanges legitimately take tens of seconds — the sweep measures
     queueing delay, and must not let the io_timeout misread saturation
     as link faults (which retry, degrade, and amplify the very
     overload being measured). *)
  let io_timeout = Float.max 60. (0.75 *. float_of_int concurrency) in
  Loopback.with_cluster ~params:Experiments.bench_params ~policy:bench_policy
    ~spec:small_spec ~chaos ~max_sessions:concurrency ~workers:concurrency ~io_timeout
  @@ fun c ->
  let config =
    {
      Loadgen.default_config with
      workers = concurrency;
      sessions_per_worker;
      (* Workers stay systhreads in the bench: the harness forks a fresh
         cluster per level, and OCaml forbids Unix.fork once any domain
         has been spawned. *)
      domains = 1;
      seed = Printf.sprintf "serve-%s-%d" mode concurrency;
      fault_spec;
      io_timeout;
      trace;
    }
  in
  let report = Loadgen.run config (Loopback.target c) in
  Printf.printf "  %-5s c=%-3d %s%!" mode concurrency (Loadgen.render report);
  level_entry ~mode ~concurrency ~sessions_per_worker report

(* The cost of observing: the same clean closed-loop level twice, spans
   off vs spans on (collectors in every process, batches shipped and
   forwarded).  Separate clusters so the off run carries no residue. *)
let run_tracing_overhead ~concurrency ~sessions_per_worker =
  Printf.printf "  tracing overhead at c=%d\n%!" concurrency;
  let qps_of entry =
    match Json.member "qps" entry with
    | Some (Json.Float q) -> q
    | Some (Json.Int q) -> float_of_int q
    | _ -> 0.
  in
  let off = run_level ~mode:"clean" ~concurrency ~sessions_per_worker () in
  let on = run_level ~trace:true ~mode:"clean" ~concurrency ~sessions_per_worker () in
  let qps_off = qps_of off and qps_on = qps_of on in
  let overhead_pct =
    if qps_on <= 0. then 0. else 100. *. ((qps_off /. qps_on) -. 1.)
  in
  Json.Obj
    [
      ("concurrency", Json.Int concurrency);
      ("sessions_per_worker", Json.Int sessions_per_worker);
      ("qps_off", Json.Float qps_off);
      ("qps_on", Json.Float qps_on);
      ("overhead_pct", Json.Float overhead_pct);
      ("tracing_off", off);
      ("tracing_on", on);
    ]

(* The failover row: a seeded chaos soak (process SIGKILLs + a mediator
   drain-restart under load, every invariant checked) distilled into
   availability numbers.  Runs first: Soak.run forks its supervisor on
   entry, and the cleanest fork is one taken before this process has
   spawned any fleet thread. *)
let run_failover ~smoke =
  let cfg =
    {
      Secmed_net.Soak.default_config with
      params = Some Experiments.bench_params;
      spec = small_spec;
      workers = 4;
      sessions_per_worker = (if smoke then 6 else 12);
      standbys = 1;
      kills = 4;
      drains = 1;
      seed = "serve-failover";
      rate = (if smoke then 12. else 10.);
      verify = true;
    }
  in
  Printf.printf "  failover soak: %d kills + %d drains over %d sessions\n%!" cfg.kills
    cfg.drains
    (cfg.workers * cfg.sessions_per_worker);
  let report = Soak.run cfg in
  Printf.printf "%s%!" (Soak.render report);
  if not (Soak.ok report) then failwith "serve_json: failover soak violated invariants";
  Soak.summary_json report

let write ?(smoke = false) ?(path = "BENCH_serve.json") () =
  let levels = if smoke then [ 1; 2; 4; 8 ] else [ 1; 8; 64; 256 ] in
  let sessions_per_worker = 2 in
  Printf.printf "json-serve: loadgen sweep at concurrency %s\n%!"
    (String.concat "/" (List.map string_of_int levels));
  let failover = run_failover ~smoke in
  let entries =
    List.concat_map
      (fun concurrency ->
        List.map
          (fun mode -> run_level ~mode ~concurrency ~sessions_per_worker ())
          [ "clean"; "chaos" ])
      levels
  in
  let overhead =
    run_tracing_overhead ~concurrency:(if smoke then 8 else 64) ~sessions_per_worker
  in
  let json =
    Json.Obj
      [
        ( "params",
          Json.Obj
            [
              ("group_bits", Json.Int Experiments.bench_params.Env.group_bits);
              ("paillier_bits", Json.Int Experiments.bench_params.Env.paillier_bits);
              ("smoke", Json.Bool smoke);
            ] );
        ("serve", Json.List entries);
        ("failover", failover);
        ("tracing_overhead", overhead);
      ]
  in
  let contents = Json.to_string_pretty json ^ "\n" in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)
