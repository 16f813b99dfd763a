(* Tests of the telemetry subsystem: monotonic clock, hand-rolled JSON,
   span tracer, metrics registry, exporters — and the differential
   guarantees the rest of the stack relies on: per-(party, phase) crypto
   attribution sums to the global counters for every scheme, and the
   trace of a PM run covers (almost) all of its measured wall time. *)

open Secmed_crypto
open Secmed_mediation
open Secmed_core
open Secmed_obs

let fast = { Env.group_bits = 160; paillier_bits = 384 }

let small_spec =
  {
    Workload.default with
    rows_left = 12;
    rows_right = 12;
    distinct_left = 6;
    distinct_right = 6;
    overlap = 3;
    extra_attrs = 1;
  }

let scenario () = Workload.scenario ~params:fast small_spec

(* ------------------------------------------------------------------ *)
(* Clock. *)

let test_clock_monotonic () =
  let previous = ref (Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let now = Clock.now_ns () in
    if Int64.compare now !previous < 0 then Alcotest.fail "clock went backwards";
    previous := now
  done

let test_clock_elapsed () =
  let t0 = Clock.now_ns () in
  ignore (Sys.opaque_identity (List.init 1000 Fun.id));
  let e = Clock.elapsed_ns ~since:t0 in
  Alcotest.(check bool) "non-negative" true (Int64.compare e 0L >= 0);
  Alcotest.(check (float 1e-9)) "ns_to_s" 0.5 (Clock.ns_to_s 500_000_000L);
  Alcotest.(check (float 1e-9)) "ns_to_ms" 1.5 (Clock.ns_to_ms 1_500_000L)

(* ------------------------------------------------------------------ *)
(* Json. *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("str", Json.Str "quote \" backslash \\ newline \n tab \t unicode \x01");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
   | Ok parsed -> Alcotest.(check bool) "compact roundtrip" true (parsed = v)
   | Error e -> Alcotest.failf "compact: %s" e);
  match Json.parse (Json.to_string_pretty v) with
  | Ok parsed -> Alcotest.(check bool) "pretty roundtrip" true (parsed = v)
  | Error e -> Alcotest.failf "pretty: %s" e

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "[1] trailing"; "{'a':1}" ]

let test_json_accessors () =
  match Json.parse {|{"a": [1, 2.5, "x"], "b": {"c": 7}}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v ->
    (match Json.member "a" v with
     | Some (Json.List [ x; y; z ]) ->
       Alcotest.(check (option int)) "int" (Some 1) (Json.to_int x);
       Alcotest.(check (option (float 1e-9))) "float" (Some 2.5) (Json.to_float y);
       Alcotest.(check (option string)) "str" (Some "x") (Json.to_str z)
     | _ -> Alcotest.fail "member a");
    (match Json.member "b" v with
     | Some b -> Alcotest.(check (option int)) "nested" (Some 7)
                   (Option.bind (Json.member "c" b) Json.to_int)
     | None -> Alcotest.fail "member b")

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let test_metrics_counter_gauge () =
  Metrics.reset ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 2.25;
  Alcotest.(check (float 1e-9)) "gauge" 2.25 (Metrics.gauge_value g);
  Alcotest.(check bool) "interned" true (c == Metrics.counter "test.counter");
  (try
     ignore (Metrics.histogram "test.counter");
     Alcotest.fail "kind clash accepted"
   with Invalid_argument _ -> ());
  Metrics.reset ();
  Alcotest.(check int) "reset" 0 (Metrics.counter_value c)

let test_metrics_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  for i = 1 to 1000 do
    Metrics.observe h (float_of_int i /. 1000.0)
  done;
  Alcotest.(check int) "count" 1000 (Metrics.histogram_count h);
  let p50, p90, p99 = Metrics.percentiles h in
  let within q lo hi = q >= lo && q <= hi in
  Alcotest.(check bool) "p50 in [0.35,0.7]" true (within p50 0.35 0.7);
  Alcotest.(check bool) "p90 in [0.7,1.0]" true (within p90 0.7 1.0);
  Alcotest.(check bool) "p99 in [0.8,1.0]" true (within p99 0.8 1.0);
  Alcotest.(check bool) "ordered" true (p50 <= p90 && p90 <= p99);
  (* Zero and negative observations land in the underflow bucket and
     never make a quantile negative-infinite. *)
  Metrics.observe h 0.0;
  Metrics.observe h (-1.0);
  let p50, _, _ = Metrics.percentiles h in
  Alcotest.(check bool) "underflow safe" true (Float.is_finite p50)

let test_metrics_singleton_quantile () =
  Metrics.reset ();
  let h = Metrics.histogram "test.single" in
  Metrics.observe h 3.0;
  let p50, p90, p99 = Metrics.percentiles h in
  List.iter
    (fun q -> Alcotest.(check (float 1e-9)) "clamped to the one sample" 3.0 q)
    [ p50; p90; p99 ]

(* The loadgen recipe: each concurrent recorder observes into its own
   private histogram, merged after the join.  Because merge adds whole
   buckets, the merged quantiles must equal those of one histogram that
   observed every sample itself — bit-for-bit, not approximately. *)
let test_histogram_merge_concurrent_recorders () =
  let recorders = 4 and samples_each = 2500 in
  let sample r i = float_of_int ((r * samples_each) + i + 1) /. 1000. in
  let privates = Array.init recorders (fun _ -> Metrics.private_histogram ()) in
  let domains =
    List.init recorders (fun r ->
        Domain.spawn (fun () ->
            for i = 0 to samples_each - 1 do
              Metrics.observe privates.(r) (sample r i)
            done))
  in
  List.iter Domain.join domains;
  let merged = Metrics.private_histogram () in
  Array.iter (fun h -> Metrics.merge_into ~into:merged h) privates;
  let reference = Metrics.private_histogram () in
  for r = 0 to recorders - 1 do
    for i = 0 to samples_each - 1 do
      Metrics.observe reference (sample r i)
    done
  done;
  Alcotest.(check int) "no sample lost" (recorders * samples_each)
    (Metrics.histogram_count merged);
  Alcotest.(check (float 1e-9)) "sums equal"
    (Metrics.histogram_sum reference) (Metrics.histogram_sum merged);
  Alcotest.(check (float 1e-9)) "min equal"
    (Metrics.histogram_min reference) (Metrics.histogram_min merged);
  Alcotest.(check (float 1e-9)) "max equal"
    (Metrics.histogram_max reference) (Metrics.histogram_max merged);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.2f identical to single-threaded" q)
        (Metrics.quantile reference q) (Metrics.quantile merged q))
    [ 0.01; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ];
  (* The sources survive the merge unchanged. *)
  Alcotest.(check int) "source histogram intact" samples_each
    (Metrics.histogram_count privates.(0))

(* ------------------------------------------------------------------ *)
(* Trace. *)

let test_trace_disabled_is_passthrough () =
  Trace.uninstall ();
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  Alcotest.(check int) "value passes" 41 (Trace.with_span "noop" (fun () -> 41));
  Trace.add_attr "ignored" Json.Null;
  Trace.event "ignored"

let test_trace_nesting () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span ~kind:Trace.Protocol "root" (fun () ->
            Trace.with_span ~kind:Trace.Phase "child" (fun () ->
                Trace.add_attr "k" (Json.Int 1);
                Trace.event "hello" ~attrs:[ ("n", Json.Int 2) ]);
            Trace.with_span "second" (fun () -> ())))
  in
  match Trace.spans t with
  | [ root; child; second ] ->
    Alcotest.(check (option int)) "root is a root" None root.Trace.parent;
    Alcotest.(check (option int)) "child of root" (Some root.Trace.id) child.Trace.parent;
    Alcotest.(check (option int)) "second too" (Some root.Trace.id) second.Trace.parent;
    Alcotest.(check bool) "attr" true (Trace.find_attr child "k" = Some (Json.Int 1));
    (match Trace.events t with
     | [ e ] ->
       Alcotest.(check string) "event name" "hello" e.Trace.ev_name;
       Alcotest.(check (option int)) "anchored" (Some child.Trace.id) e.Trace.ev_span
     | events -> Alcotest.failf "expected 1 event, got %d" (List.length events));
    Alcotest.(check (list int)) "roots" [ root.Trace.id ]
      (List.map (fun s -> s.Trace.id) (Trace.roots t));
    Alcotest.(check (list int)) "children" [ child.Trace.id; second.Trace.id ]
      (List.map (fun s -> s.Trace.id) (Trace.children t root))
  | spans -> Alcotest.failf "expected 3 spans, got %d" (List.length spans)

exception Boom

let test_trace_exception_safety () =
  let result =
    Trace.collect (fun () ->
        try Trace.with_span "outer" (fun () ->
              Trace.with_span "inner" (fun () -> raise Boom))
        with Boom -> ())
  in
  let (), t = result in
  Alcotest.(check int) "both spans closed" 2 (List.length (Trace.spans t));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Trace.name ^ " has a stop time") true
        (Int64.compare s.Trace.stop_ns s.Trace.start_ns >= 0))
    (Trace.spans t);
  (* The stack recovered: a new span after the exception is a root. *)
  Alcotest.(check bool) "not enabled outside collect" false (Trace.enabled ())

let test_trace_collect_restores () =
  let outer = Trace.create () in
  Trace.install outer;
  let (), _inner = Trace.collect (fun () -> Trace.with_span "in" (fun () -> ())) in
  Alcotest.(check bool) "outer sink back" true (Trace.enabled ());
  Trace.with_span "after" (fun () -> ());
  Trace.uninstall ();
  Alcotest.(check int) "outer got only its own span" 1 (List.length (Trace.spans outer))

(* One installed collector hammered from 8 systhreads: ids stay unique,
   every child's parent is its own thread's outer span (the per-thread
   stacks never bleed into each other), and every span closes. *)
let test_trace_concurrent_threads () =
  let c = Trace.create () in
  Trace.install c;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let threads =
        List.init 8 (fun w ->
            Thread.create
              (fun () ->
                for i = 1 to 25 do
                  Trace.with_span ~kind:Trace.Phase
                    ~attrs:[ ("worker", Json.Int w) ] "outer" (fun () ->
                      Trace.with_span "inner" (fun () ->
                          if i mod 5 = 0 then Trace.event "tick"))
                done)
              ())
      in
      List.iter Thread.join threads);
  let spans = Trace.spans c in
  Alcotest.(check int) "all spans recorded" (8 * 25 * 2) (List.length spans);
  let ids = List.map (fun s -> s.Trace.id) spans in
  Alcotest.(check int) "ids unique" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  let by_id = Hashtbl.create 512 in
  List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
  List.iter
    (fun s ->
      Alcotest.(check bool) "stop after start" true
        (Int64.compare s.Trace.stop_ns s.Trace.start_ns >= 0);
      match s.Trace.parent with
      | None -> Alcotest.(check string) "roots are outer spans" "outer" s.Trace.name
      | Some p -> (
        Alcotest.(check string) "only inner spans have parents" "inner" s.Trace.name;
        match Hashtbl.find_opt by_id p with
        | None -> Alcotest.failf "span %d has unknown parent %d" s.Trace.id p
        | Some parent ->
          Alcotest.(check string) "inner under an outer" "outer" parent.Trace.name;
          Alcotest.(check bool) "same worker as its parent" true
            (Trace.find_attr parent "worker" <> None)))
    spans

(* [with_collector] shadows the global sink for the binding thread only:
   concurrent threads keep writing to the installed collector. *)
let test_trace_with_collector_isolation () =
  let global = Trace.create () and bound = Trace.create () in
  Trace.install global;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      let t =
        Thread.create
          (fun () ->
            Trace.with_collector bound (fun () ->
                Trace.with_span "bound" (fun () -> Thread.delay 0.005)))
          ()
      in
      Trace.with_span "global" (fun () -> ());
      Thread.join t);
  Alcotest.(check (list string)) "global sink" [ "global" ]
    (List.map (fun s -> s.Trace.name) (Trace.spans global));
  Alcotest.(check (list string)) "bound sink" [ "bound" ]
    (List.map (fun s -> s.Trace.name) (Trace.spans bound))

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let sample_trace () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span ~kind:Trace.Protocol "proto" (fun () ->
            Trace.with_span ~kind:Trace.Phase
              ~attrs:[ ("party", Json.Str "Client") ] "phase-a" (fun () ->
                Trace.event "message" ~attrs:[ ("bytes", Json.Int 7) ])))
  in
  t

let test_export_chrome_parses () =
  let t = sample_trace () in
  match Json.parse (Export.chrome_json_processes [ Export.process_of_trace t ]) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok (Json.List entries) ->
    let phs =
      List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_str) entries
    in
    Alcotest.(check bool) "has complete events" true (List.mem "X" phs);
    Alcotest.(check bool) "has metadata events" true (List.mem "M" phs);
    Alcotest.(check bool) "has instant events" true (List.mem "i" phs);
    Alcotest.(check bool) "an anonymous process is not named" false
      (List.exists (fun e -> Json.member "name" e = Some (Json.Str "process_name")) entries);
    List.iter
      (fun e ->
        if Option.bind (Json.member "ph" e) Json.to_str = Some "X" then begin
          Alcotest.(check bool) "ts present" true (Json.member "ts" e <> None);
          Alcotest.(check bool) "dur present" true (Json.member "dur" e <> None)
        end)
      entries
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

let test_export_jsonl_parses () =
  let t = sample_trace () in
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Export.jsonl_processes [ Export.process_of_trace t ]))
  in
  Alcotest.(check int) "header + process + 2 spans + 1 event" 5 (List.length lines);
  let types =
    List.map
      (fun line ->
        match Json.parse line with
        | Error e -> Alcotest.failf "line does not parse: %s (%s)" line e
        | Ok v ->
          (match Option.bind (Json.member "type" v) Json.to_str with
           | Some ty -> ty
           | None -> Alcotest.failf "line without type: %s" line))
      lines
  in
  Alcotest.(check (list string)) "line types" [ "clock"; "process"; "span"; "span"; "event" ]
    types

let test_export_format_of_path () =
  Alcotest.(check bool) "jsonl" true (Export.format_of_path "t.jsonl" = `Jsonl);
  Alcotest.(check bool) "chrome" true (Export.format_of_path "t.json" = `Chrome)

(* Multi-process Chrome export: deterministic pid/tid lanes, named
   process metadata, and no dangling lane for an empty span batch. *)
let test_export_process_lanes () =
  let t1 = sample_trace () in
  let (), t2 =
    Trace.collect (fun () ->
        Trace.with_span ~kind:Trace.Phase
          ~attrs:[ ("party", Json.Str "Source 1") ] "phase-b" (fun () -> ()))
  in
  let processes =
    [
      Export.process_of_trace ~pid:1 ~name:"client" t1;
      (* A participant that shipped an empty batch must not leave a lane. *)
      Export.process_of_trace ~pid:2 ~name:"mediator" (Trace.create ());
      Export.process_of_trace ~pid:3 ~name:"source-1" t2;
    ]
  in
  match Json.parse (Export.chrome_json_processes processes) with
  | Error e -> Alcotest.failf "merged trace does not parse: %s" e
  | Ok (Json.List entries) ->
    let pid_of e =
      match Json.member "pid" e with Some (Json.Int p) -> Some p | _ -> None
    in
    Alcotest.(check (list int)) "empty process omitted" [ 1; 3 ]
      (List.sort_uniq compare (List.filter_map pid_of entries));
    let process_names =
      List.filter_map
        (fun e ->
          if
            Json.member "ph" e = Some (Json.Str "M")
            && Json.member "name" e = Some (Json.Str "process_name")
          then
            match (pid_of e, Json.member "args" e) with
            | Some pid, Some args ->
              Option.map (fun n -> (pid, n)) (Option.bind (Json.member "name" args) Json.to_str)
            | _ -> None
          else None)
        entries
    in
    Alcotest.(check bool) "process names" true
      (process_names = [ (1, "client"); (3, "source-1") ]);
    let span_lane name =
      List.find_map
        (fun e ->
          if
            Json.member "ph" e = Some (Json.Str "X")
            && Json.member "name" e = Some (Json.Str name)
          then
            match (pid_of e, Json.member "tid" e) with
            | Some pid, Some (Json.Int tid) -> Some (pid, tid)
            | _ -> None
          else None)
        entries
    in
    (* tids are per process in order of first appearance, "run" = 0. *)
    Alcotest.(check (option (pair int int))) "root on run lane" (Some (1, 0))
      (span_lane "proto");
    Alcotest.(check (option (pair int int))) "client party lane" (Some (1, 1))
      (span_lane "phase-a");
    Alcotest.(check (option (pair int int))) "source party lane" (Some (3, 1))
      (span_lane "phase-b")
  | Ok _ -> Alcotest.fail "merged trace is not a JSON array"

(* Span nesting survives the JSONL round trip: parse every line back and
   re-link children to parents by id. *)
let test_export_jsonl_processes_roundtrip () =
  let t = sample_trace () in
  let out = Export.jsonl_processes [ Export.process_of_trace ~pid:7 ~name:"client" t ] in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  let parsed =
    List.map
      (fun line ->
        match Json.parse line with
        | Ok v -> v
        | Error e -> Alcotest.failf "line does not parse: %s (%s)" line e)
      lines
  in
  let type_of v = Option.bind (Json.member "type" v) Json.to_str in
  Alcotest.(check (list string)) "line types"
    [ "clock"; "process"; "span"; "span"; "event" ]
    (List.filter_map type_of parsed);
  let spans = List.filter (fun v -> type_of v = Some "span") parsed in
  (match spans with
   | [ root; child ] ->
     Alcotest.(check bool) "root has no parent" true
       (Json.member "parent" root = Some Json.Null);
     Alcotest.(check bool) "child links to root" true
       (Json.member "parent" child = Json.member "id" root
        && Json.member "id" root <> None);
     List.iter
       (fun v ->
         Alcotest.(check bool) "carries the pid" true
           (Json.member "pid" v = Some (Json.Int 7)))
       spans
   | _ -> Alcotest.fail "expected exactly two span lines")

(* ------------------------------------------------------------------ *)
(* Crypto counts on phase spans. *)

let ops_of span =
  List.filter_map
    (fun p ->
      match Trace.find_attr span ("ops." ^ Counters.name p) with
      | Some (Json.Int n) -> Some (p, n)
      | _ -> None)
    Counters.all

(* A party-labelled phase that raises still carries the counts bumped
   before the exception. *)
let test_phase_exception () =
  let phase () =
    try
      Outcome.Builder.phase ~party:"A" "p" (fun () ->
          Counters.bump Counters.Hash;
          Counters.bump Counters.Hash;
          raise Boom)
    with Boom -> ()
  in
  let ((), counts), t = Trace.collect (fun () -> Counters.with_fresh phase) in
  Alcotest.(check int) "counted" 2 (List.assoc Counters.Hash counts);
  (match Trace.spans t with
   | [ span ] ->
     Alcotest.(check bool) "phase span" true (span.Trace.kind = Trace.Phase);
     Alcotest.(check bool) "ops survive the exception" true
       (ops_of span = [ (Counters.Hash, 2) ])
   | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans))

(* The documented non-reentrancy of with_fresh: an inner with_fresh's
   counts vanish from the outer accounting (its restore puts back the
   outer partial counts).  This pins the behaviour the mli documents. *)
let test_with_fresh_not_reentrant () =
  let (), outer_counts =
    Counters.with_fresh (fun () ->
        Counters.bump Counters.Hash;
        let (), inner_counts =
          Counters.with_fresh (fun () -> Counters.bump Counters.Hash)
        in
        Alcotest.(check int) "inner sees only its own" 1
          (List.assoc Counters.Hash inner_counts))
  in
  Alcotest.(check int) "outer lost the inner bump" 1
    (List.assoc Counters.Hash outer_counts)

(* ------------------------------------------------------------------ *)
(* Differential: in a traced run of every scheme configuration and of
   every other query class (set operations, aggregation, selection) no
   phase span nests inside another, and each primitive's ops.* attributes
   summed over the phase spans equal the run's counter snapshot — the
   phase spans are the whole per-party split of Table 2. *)

let test_phase_ops_sum_per_scheme () =
  let env, client, query = scenario () in
  let schemes =
    Protocol.all_schemes
    @ List.filter_map Protocol.scheme_of_name [ "das-singleton"; "commutative-ids" ]
  in
  Alcotest.(check int) "seven configurations" 7 (List.length schemes);
  let configurations =
    List.map
      (fun scheme ->
        (Protocol.scheme_name scheme, fun () -> Protocol.run_exn scheme env client ~query))
      schemes
    @ List.map
        (fun c -> (c.Query_classes.name, fun () -> c.Query_classes.run None))
        Query_classes.all
  in
  Alcotest.(check int) "thirteen configurations" 13 (List.length configurations);
  List.iter
    (fun (name, run) ->
      let outcome, t = Trace.collect run in
      let spans = Trace.spans t in
      let by_id = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.replace by_id s.Trace.id s) spans;
      let rec phase_above s =
        match Option.bind s.Trace.parent (Hashtbl.find_opt by_id) with
        | Some p -> p.Trace.kind = Trace.Phase || phase_above p
        | None -> false
      in
      let phases = List.filter (fun s -> s.Trace.kind = Trace.Phase) spans in
      List.iter
        (fun s ->
          if phase_above s then
            Alcotest.failf "%s: phase %S nests inside a phase" name s.Trace.name)
        phases;
      let ops = List.concat_map ops_of phases in
      List.iter
        (fun (p, total) ->
          let on_spans =
            List.fold_left (fun acc (q, n) -> if q = p then acc + n else acc) 0 ops
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s" name (Counters.name p))
            total on_spans)
        outcome.Outcome.counters)
    configurations

(* ------------------------------------------------------------------ *)
(* End-to-end tracing: a traced PM run produces a protocol root span
   whose children cover at least 95% of its duration, with crypto ops
   attached to party-labelled phase spans. *)

let test_pm_trace_coverage () =
  let env, client, query = scenario () in
  let outcome, t =
    Trace.collect (fun () ->
        Protocol.run_exn (Protocol.Private_matching Pm_join.Session_keys) env client ~query)
  in
  Alcotest.(check bool) "run correct" true (Outcome.correct outcome);
  match Trace.roots t with
  | [ root ] ->
    Alcotest.(check bool) "root is the protocol span" true
      (root.Trace.kind = Trace.Protocol);
    let coverage = Trace.coverage t root in
    if coverage < 0.95 then
      Alcotest.failf "span coverage %.1f%% below 95%%" (coverage *. 100.0);
    (* Crypto ops surfaced as span attributes on party-labelled phases. *)
    let has_ops =
      List.exists
        (fun s ->
          s.Trace.kind = Trace.Phase
          && Trace.find_attr s "party" <> None
          && List.exists
               (fun (k, _) -> String.length k > 4 && String.sub k 0 4 = "ops.")
               (Trace.attrs s))
        (Trace.spans t)
    in
    Alcotest.(check bool) "ops.* attributes present" true has_ops;
    (* The transcript's messages surfaced as instant events. *)
    let n_messages = Transcript.message_count outcome.Outcome.transcript in
    let n_events =
      List.length
        (List.filter (fun e -> e.Trace.ev_name = "message") (Trace.events t))
    in
    Alcotest.(check int) "one event per message" n_messages n_events
  | roots -> Alcotest.failf "expected 1 root span, got %d" (List.length roots)

(* A faulted run emits fault events into the trace. *)
let test_fault_events_in_trace () =
  let env, client, query = scenario () in
  let plan =
    match Fault.of_spec "drop:mediator->client:*:times=1;retries=0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let result, t =
    Trace.collect (fun () ->
        Protocol.run (Protocol.Private_matching Pm_join.Session_keys) ~fault:plan env client
          ~query)
  in
  (match result with
   | Protocol.Fault _ -> ()
   | Protocol.Ok _ -> Alcotest.fail "expected the drop to fault the run");
  Alcotest.(check bool) "fault event present" true
    (List.exists (fun e -> e.Trace.ev_name = "fault") (Trace.events t))

(* The registry needs no switch: every recorded message bumps
   [transcript.messages], one per transcript entry. *)
let test_transcript_messages_counted () =
  let env, client, query = scenario () in
  let messages = Metrics.counter "transcript.messages" in
  List.iter
    (fun scheme ->
      let before = Metrics.counter_value messages in
      let outcome = Protocol.run_exn scheme env client ~query in
      Alcotest.(check int)
        (Protocol.scheme_name scheme)
        (Transcript.message_count outcome.Outcome.transcript)
        (Metrics.counter_value messages - before))
    Protocol.all_schemes

(* ------------------------------------------------------------------ *)
(* Transcript running totals: the incremental counters match a from-
   scratch recomputation over the message list. *)

let test_transcript_running_totals () =
  let tr = Transcript.create () in
  Alcotest.(check int) "empty count" 0 (Transcript.message_count tr);
  Alcotest.(check int) "empty bytes" 0 (Transcript.total_bytes tr);
  let prng = Prng.of_int_seed 11 in
  let parties = [| Transcript.Client; Transcript.Mediator; Transcript.Source 1 |] in
  for i = 0 to 99 do
    let sender = parties.(Prng.uniform_int prng 3) in
    let receiver = parties.(Prng.uniform_int prng 3) in
    Transcript.record tr ~sender ~receiver ~label:(Printf.sprintf "m%d" i)
      ~size:(Prng.uniform_int prng 5000)
  done;
  let messages = Transcript.messages tr in
  Alcotest.(check int) "count matches list" (List.length messages)
    (Transcript.message_count tr);
  Alcotest.(check int) "bytes match fold"
    (List.fold_left (fun acc m -> acc + m.Transcript.size) 0 messages)
    (Transcript.total_bytes tr)

(* ------------------------------------------------------------------ *)
(* Report. *)

let test_report_of_trace () =
  let env, client, query = scenario () in
  let _outcome, t =
    Trace.collect (fun () ->
        Protocol.run_exn (Protocol.Private_matching Pm_join.Session_keys) env client ~query)
  in
  let rendered = Report.of_trace t in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun line ->
               String.length line >= String.length needle
               &&
               let rec scan i =
                 i + String.length needle <= String.length line
                 && (String.sub line i (String.length needle) = needle || scan (i + 1))
               in
               scan 0)
             (String.split_on_char '\n' rendered))
      then Alcotest.failf "report lacks %S:\n%s" needle rendered)
    [ "party"; "Client"; "Source1"; "client-postprocess"; "total" ]

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [
          Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "elapsed" `Quick test_clock_elapsed;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram percentiles" `Quick test_metrics_histogram;
          Alcotest.test_case "singleton quantile" `Quick test_metrics_singleton_quantile;
          Alcotest.test_case "merge under concurrent recorders" `Quick
            test_histogram_merge_concurrent_recorders;
          Alcotest.test_case "transcript messages counted" `Slow
            test_transcript_messages_counted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled passthrough" `Quick test_trace_disabled_is_passthrough;
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "exception safety" `Quick test_trace_exception_safety;
          Alcotest.test_case "collect restores" `Quick test_trace_collect_restores;
          Alcotest.test_case "concurrent threads" `Quick test_trace_concurrent_threads;
          Alcotest.test_case "with_collector isolation" `Quick
            test_trace_with_collector_isolation;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome parses" `Quick test_export_chrome_parses;
          Alcotest.test_case "jsonl parses" `Quick test_export_jsonl_parses;
          Alcotest.test_case "format of path" `Quick test_export_format_of_path;
          Alcotest.test_case "process lanes" `Quick test_export_process_lanes;
          Alcotest.test_case "jsonl processes roundtrip" `Quick
            test_export_jsonl_processes_roundtrip;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "phase exception" `Quick test_phase_exception;
          Alcotest.test_case "with_fresh not reentrant" `Quick test_with_fresh_not_reentrant;
          Alcotest.test_case "sums per scheme" `Slow test_phase_ops_sum_per_scheme;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "pm trace coverage" `Slow test_pm_trace_coverage;
          Alcotest.test_case "fault events" `Slow test_fault_events_in_trace;
          Alcotest.test_case "transcript totals" `Quick test_transcript_running_totals;
          Alcotest.test_case "report" `Slow test_report_of_trace;
        ] );
    ]
