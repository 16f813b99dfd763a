(* Distributed tracing and the live ops surface (DESIGN.md §14): the
   Trace_wire codec round-trips a collector bit for bit; a forked
   loopback cluster queried with [trace] yields one merged multi-process
   trace whose per-process phase structure is the in-process reference
   run's, projected: the client replica traces every phase, the mediator
   and each source exactly their own party's; every source span is
   rooted under the mediator's session span; and a loaded mediator's
   [Stats] snapshot reports real scheduler, pool, and per-scheme latency
   numbers. *)

open Secmed_mediation
open Secmed_core
open Secmed_net
module Obs = Secmed_obs
module Trace = Obs.Trace
module Json = Obs.Json

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

let schemes = [ "das"; "commutative"; "pm"; "plain"; "mobile-code" ]

(* ------------------------------------------------------------------ *)
(* Trace_wire: the codec. *)

let sample_collector () =
  let (), t =
    Trace.collect (fun () ->
        Trace.with_span ~kind:Trace.Protocol "root" (fun () ->
            Trace.with_span ~kind:Trace.Phase
              ~attrs:[ ("party", Json.Str "Source 1"); ("n", Json.Int 3) ]
              "phase"
              (fun () -> Trace.event "message" ~attrs:[ ("bytes", Json.Int 9) ]);
            Trace.with_span ~kind:Trace.Operation "op" (fun () -> ())))
  in
  t

let test_payload_roundtrip () =
  let t = sample_collector () in
  let epoch, spans, events = Trace_wire.decode (Trace_wire.payload_of t) in
  Alcotest.(check int64) "epoch survives" (Trace.epoch_ns t) epoch;
  let originals = Trace.spans t in
  Alcotest.(check int) "span count" (List.length originals) (List.length spans);
  List.iter2
    (fun (a : Trace.span) (b : Trace.span) ->
      Alcotest.(check int) "id" a.Trace.id b.Trace.id;
      Alcotest.(check (option int)) "parent" a.Trace.parent b.Trace.parent;
      Alcotest.(check string) "name" a.Trace.name b.Trace.name;
      Alcotest.(check string) "kind" (Trace.kind_name a.Trace.kind)
        (Trace.kind_name b.Trace.kind);
      Alcotest.(check int64) "start" a.Trace.start_ns b.Trace.start_ns;
      Alcotest.(check int64) "stop" a.Trace.stop_ns b.Trace.stop_ns;
      Alcotest.(check bool) "attrs" true (Trace.attrs a = Trace.attrs b))
    originals spans;
  let ev_originals = Trace.events t in
  Alcotest.(check int) "event count" (List.length ev_originals) (List.length events);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) ->
      Alcotest.(check string) "ev name" a.Trace.ev_name b.Trace.ev_name;
      Alcotest.(check (option int)) "ev span" a.Trace.ev_span b.Trace.ev_span;
      Alcotest.(check int64) "ev at" a.Trace.ev_ns b.Trace.ev_ns;
      Alcotest.(check bool) "ev attrs" true (a.Trace.ev_attrs = b.Trace.ev_attrs))
    ev_originals events

let test_payload_malformed () =
  List.iter
    (fun s ->
      match Trace_wire.decode s with
      | _ -> Alcotest.failf "accepted malformed payload %S" s
      | exception Wire.Malformed _ -> ())
    [ ""; "x"; String.make 5 '\255' ]

(* ------------------------------------------------------------------ *)
(* The merged distributed trace, differentially against in-process. *)

(* The (name, party) multiset of Phase spans — the shape the projected
   model pins lane by lane (see the differential below). *)
let phases spans =
  List.filter_map
    (fun s ->
      if s.Trace.kind = Trace.Phase then
        Some
          ( s.Trace.name,
            match Trace.find_attr s "party" with
            | Some (Json.Str p) -> p
            | _ -> "" )
      else None)
    spans
  |> List.sort compare

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The party a lane's process computes: [None] for the client replica,
   which computes them all. *)
let party_of_lane = function
  | "client" -> None
  | "mediator" -> Some Transcript.Mediator
  | lane when starts_with ~prefix:"source-" lane ->
    Some (Transcript.Source (int_of_string (String.sub lane 7 (String.length lane - 7))))
  | lane -> Alcotest.failf "unexpected lane %s" lane

let test_distributed_trace_differential () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  List.iter
    (fun name ->
      let scheme = Option.get (Protocol.scheme_of_name name) in
      let _reference, ref_trace =
        Trace.collect (fun () ->
            Protocol.run_exn scheme (Loopback.env c) (Loopback.client_of c)
              ~query:(Loopback.canonical_query c))
      in
      let reference_phases = phases (Trace.spans ref_trace) in
      Alcotest.(check bool) (name ^ ": reference has phases") true
        (reference_phases <> []);
      let response, client_trace =
        Trace.collect (fun () -> Loopback.query c ~trace:true ~scheme:name ())
      in
      (match response.Peer.result with
      | Protocol.Served _ -> ()
      | Protocol.Unserved tried ->
        Alcotest.failf "%s unserved: %a" name Protocol.pp_session_failures tried);
      Alcotest.(check bool) (name ^ ": span batches arrived") true
        (response.Peer.remote_spans <> []);
      let processes = Trace_wire.merge ~client:client_trace response.Peer.remote_spans in
      Alcotest.(check bool)
        (name ^ ": at least client+mediator+source lanes") true
        (List.length processes >= 3);
      (* Rebased ids are globally unique across every lane. *)
      let all_spans = List.concat_map (fun p -> p.Obs.Export.pr_spans) processes in
      let ids = List.map (fun s -> s.Trace.id) all_spans in
      Alcotest.(check int) (name ^ ": globally unique span ids") (List.length ids)
        (List.length (List.sort_uniq compare ids));
      (* The mediator lane carries the session root... *)
      let mediator =
        match List.find_opt (fun p -> p.Obs.Export.pr_name = "mediator") processes with
        | Some p -> p
        | None -> Alcotest.failf "%s: no mediator lane" name
      in
      let session =
        match
          List.find_opt
            (fun s -> s.Trace.name = "session" && s.Trace.kind = Trace.Protocol)
            mediator.Obs.Export.pr_spans
        with
        | Some s -> s
        | None -> Alcotest.failf "%s: mediator lane has no session span" name
      in
      (* ...and every source lane's roots hang under it. *)
      let source_lanes =
        List.filter (fun p -> starts_with ~prefix:"source" p.Obs.Export.pr_name) processes
      in
      Alcotest.(check int) (name ^ ": both sources shipped spans") 2
        (List.length source_lanes);
      List.iter
        (fun p ->
          let own = Hashtbl.create 64 in
          List.iter (fun s -> Hashtbl.replace own s.Trace.id ()) p.Obs.Export.pr_spans;
          let roots =
            List.filter
              (fun s ->
                match s.Trace.parent with
                | None -> true
                | Some parent -> not (Hashtbl.mem own parent))
              p.Obs.Export.pr_spans
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s has roots" name p.Obs.Export.pr_name)
            true (roots <> []);
          List.iter
            (fun s ->
              Alcotest.(check (option int))
                (Printf.sprintf "%s: %s root under the mediator session" name
                   p.Obs.Export.pr_name)
                (Some session.Trace.id) s.Trace.parent)
            roots)
        source_lanes;
      (* Projected execution: the client replica traces every party's
         phases, exactly the in-process reference's; the mediator and
         each source trace exactly the reference's phases of their own
         party, nothing else. *)
      List.iter
        (fun p ->
          let expected =
            match party_of_lane p.Obs.Export.pr_name with
            | None -> reference_phases
            | Some party ->
              List.filter
                (fun (_, owner) -> String.equal owner (Transcript.party_name party))
                reference_phases
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "%s: %s phase structure" name p.Obs.Export.pr_name)
            expected (phases p.Obs.Export.pr_spans))
        processes;
      (* For the three ciphertext-processing protocols the mediator runs
         no client or source step — hence no Paillier or hybrid
         decryption. *)
      if List.mem name [ "das"; "commutative"; "pm" ] then
        List.iter
          (fun (phase, _) ->
            if starts_with ~prefix:"client-" phase || starts_with ~prefix:"source-" phase then
              Alcotest.failf "%s: mediator lane runs %s" name phase)
          (phases mediator.Obs.Export.pr_spans);
      (* And the merged artifact is one well-formed Chrome trace. *)
      match Json.parse (Obs.Export.chrome_json_processes processes) with
      | Ok (Json.List entries) ->
        Alcotest.(check bool) (name ^ ": merged chrome trace non-empty") true
          (entries <> [])
      | Ok _ -> Alcotest.failf "%s: merged chrome trace is not an array" name
      | Error e -> Alcotest.failf "%s: merged chrome trace does not parse: %s" name e)
    schemes

(* ------------------------------------------------------------------ *)
(* The stats surface of a loaded server. *)

let test_stats_surface () =
  Loopback.with_cluster ~params:fast ~spec:small_spec ~max_sessions:8 ~workers:4
  @@ fun c ->
  let config =
    {
      Loadgen.default_config with
      workers = 4;
      sessions_per_worker = 2;
      domains = 1;
      seed = "stats-surface";
    }
  in
  let report = Loadgen.run config (Loopback.target c) in
  let served = Loadgen.count Loadgen.Served report in
  Alcotest.(check bool) "burst mostly served" true (served > 0);
  (* The session reply is sent from inside the worker thunk, so the
     fleet can observe its last verdict a moment before the scheduler
     books the completion — poll until the counters settle. *)
  let completed json =
    match Option.bind (Json.member "scheduler" json) (Json.member "completed") with
    | Some (Json.Int n) -> n
    | _ -> 0
  in
  let rec fetch attempts =
    let payload = Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) () in
    match Json.parse payload with
    | Error e -> Alcotest.failf "stats payload does not parse: %s" e
    | Ok json ->
      if completed json >= 8 || attempts <= 0 then json
      else begin
        Thread.delay 0.05;
        fetch (attempts - 1)
      end
  in
  match fetch 40 with
  | json ->
    let section name =
      match Json.member name json with
      | Some v -> v
      | None -> Alcotest.failf "stats: missing section %S" name
    in
    let num ctx v =
      match v with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> Alcotest.failf "stats: %s is not a number" ctx
    in
    let field ctx obj key = num (ctx ^ "." ^ key) (Json.member key obj) in
    Alcotest.(check bool) "uptime positive" true
      (num "uptime_seconds" (Json.member "uptime_seconds" json) > 0.);
    let sessions = section "sessions" in
    Alcotest.(check bool) "admitted the burst" true
      (field "sessions" sessions "admitted" >= 8.);
    let sched = section "scheduler" in
    Alcotest.(check bool) "workers reported" true (field "scheduler" sched "workers" = 4.);
    Alcotest.(check bool) "completed the burst" true
      (field "scheduler" sched "completed" >= 8.);
    Alcotest.(check bool) "busy_seconds accumulated" true
      (field "scheduler" sched "busy_seconds" > 0.);
    Alcotest.(check bool) "utilization sane" true
      (let u = field "scheduler" sched "utilization" in
       u >= 0. && u <= 1.);
    (match section "pool" with
    | Json.List (_ :: _ as sources) ->
      List.iter
        (fun src ->
          match Json.member "slots" src with
          | Some (Json.List (_ :: _ as slots)) ->
            Alcotest.(check bool) "a slot dialed" true
              (List.exists (fun slot -> field "pool.slot" slot "dials" > 0.) slots)
          | _ -> Alcotest.fail "stats: pool source without slots")
        sources
    | _ -> Alcotest.fail "stats: pool is not a non-empty list");
    let net = section "net" in
    Alcotest.(check bool) "net bytes counted" true
      (field "net" net "bytes_sent" > 0. && field "net" net "bytes_recv" > 0.);
    (match section "schemes" with
    | Json.Obj (_ :: _ as per_scheme) ->
      let total_served =
        List.fold_left
          (fun acc (_, st) -> acc +. field "schemes" st "served")
          0. per_scheme
      in
      Alcotest.(check bool) "per-scheme served counts" true
        (total_served >= float_of_int served);
      List.iter
        (fun (scheme, st) ->
          match Json.member "latency_seconds" st with
          | Some lat ->
            Alcotest.(check bool) (scheme ^ ": latency percentiles") true
              (field scheme lat "count" > 0.
              && field scheme lat "p50" > 0.
              && field scheme lat "p99" >= field scheme lat "p50")
          | None -> Alcotest.failf "stats: scheme %s without latency" scheme)
        per_scheme
    | _ -> Alcotest.fail "stats: no per-scheme entries after a served burst")

(* A client naming 200 distinct bogus schemes costs the mediator one
   [unknown] row, not one row per name. *)
let test_hostile_scheme_names () =
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  for i = 1 to 200 do
    match (Loopback.query c ~scheme:(Printf.sprintf "bogus-%d" i) ()).Peer.result with
    | Protocol.Unserved _ -> ()
    | Protocol.Served _ -> Alcotest.failf "bogus-%d was served" i
  done;
  match Json.parse (Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) ()) with
  | Error e -> Alcotest.failf "stats payload does not parse: %s" e
  | Ok json -> (
    match Json.member "schemes" json with
    | Some (Json.Obj rows) ->
      Alcotest.(check bool) "at most one row per protocol plus unknown" true
        (List.length rows <= 6);
      let failed =
        Option.bind (List.assoc_opt "unknown" rows) (Json.member "failed")
      in
      Alcotest.(check (option int)) "unknown.failed" (Some 200)
        (Option.bind failed Json.to_int)
    | _ -> Alcotest.fail "stats: no schemes section")

(* A forked cluster's registry starts at zero: totals the test process
   ran up against an earlier cluster do not leak into a later one. *)
let test_fresh_cluster_stats () =
  Loopback.with_cluster ~params:fast ~spec:small_spec (fun c ->
      match (Loopback.query c ~scheme:"das" ()).Peer.result with
      | Protocol.Served _ -> ()
      | Protocol.Unserved _ -> Alcotest.fail "das on cluster A was not served");
  Loopback.with_cluster ~params:fast ~spec:small_spec @@ fun c ->
  match Json.parse (Peer.stats ~host:"127.0.0.1" ~port:(Loopback.port c) ()) with
  | Error e -> Alcotest.failf "stats payload does not parse: %s" e
  | Ok json ->
    let int path =
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some json) path
      |> Fun.flip Option.bind Json.to_int
    in
    Alcotest.(check (option int)) "net.frames_sent" (Some 0) (int [ "net"; "frames_sent" ]);
    List.iter
      (fun k -> Alcotest.(check (option int)) ("streams." ^ k) (Some 0) (int [ "streams"; k ]))
      [ "rows_in"; "rows_out"; "bytes_in"; "bytes_out"; "backlog_chunks" ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace_net"
    [
      ( "trace_wire",
        [
          Alcotest.test_case "payload roundtrip" `Quick test_payload_roundtrip;
          Alcotest.test_case "malformed payloads" `Quick test_payload_malformed;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "merged trace differential" `Slow
            test_distributed_trace_differential;
          Alcotest.test_case "stats surface" `Slow test_stats_surface;
          Alcotest.test_case "hostile scheme names" `Slow test_hostile_scheme_names;
          Alcotest.test_case "fresh cluster stats" `Slow test_fresh_cluster_stats;
        ] );
    ]
