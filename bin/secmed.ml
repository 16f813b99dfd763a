(* secmed — command-line front end for the secure mediation library.

   `secmed run`     runs one protocol over a synthetic workload
   `secmed query`   mediates a join over two CSV files
   `secmed schemes` lists the available protocols *)

open Cmdliner
open Secmed_relalg
open Secmed_mediation
open Secmed_core

let scheme_conv =
  let parse name =
    match Protocol.scheme_of_name name with
    | Some scheme -> Ok scheme
    | None -> Error (Printf.sprintf "unknown scheme %S (try `secmed schemes')" name)
  in
  let print fmt scheme = Format.pp_print_string fmt (Protocol.scheme_name scheme) in
  Arg.conv' (parse, print)

let scheme_arg =
  let doc = "Delivery protocol: das, das-singleton, das-nested-loop, commutative, \
             commutative-ids, pm, pm-direct, mobile-code, plain." in
  Arg.(value & opt scheme_conv (Protocol.Commutative { use_ids = false })
       & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let verbose_arg =
  let doc = "Also print the message transcript and leakage analysis." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* The raw spec string rides along with the parsed plan: a --connect
   client forwards the text so every replica re-parses the same plan. *)
let fault_conv =
  let parse s = Result.map (fun plan -> (s, plan)) (Fault.of_spec s) in
  Arg.conv' (parse, fun fmt (s, _) -> Format.pp_print_string fmt s)

let fault_arg =
  let doc =
    "Fault-injection plan: semicolon-separated clauses of \
     ACTION:FROM->TO[:LABEL][:times=N] with actions drop, truncate, corrupt, duplicate, \
     delay and parties client, mediator, sourceN or *; plus byzantine:SID:MODE (modes \
     malformed-ciphertexts, wrong-partition-ids, stale-commutative-key, \
     garbage-paillier), seed=N and retries=N.  A rule acts on the bytes of the \
     delivery it picks, in one place: the process sending it, locally or through \
     $(b,--connect).  A dropped delivery fails its sender at once, blamed on the \
     receiver; a truncated or corrupted one fails the receiver's integrity check; a \
     duplicated one is discarded by the reader; a delayed one makes the sender really \
     wait.  Example: $(b,drop:mediator->client:RC:times=1;retries=2)."
  in
  Arg.(value & opt (some fault_conv) None & info [ "fault" ] ~docv:"SPEC" ~doc)

(* Exit codes of `secmed run` (documented in README "Resilience"):
   0 = served exactly as requested, 3 = fault (query not served),
   4 = served, but by a degradation fallback. *)
let exit_fault = 3
let exit_degraded = 4

module R = Secmed_mediation.Resilience

(* A deadline travels in frames as a non-negative count of
   milliseconds, so a flag that sets one must be finite and
   non-negative. *)
let seconds_conv =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0. && f *. 1000. < float_of_int max_int -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%S is not a non-negative number of seconds" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let deadline_arg =
  let doc =
    "Per-query wall-clock budget in seconds.  Elapsed time consumes it, including \
     the real waits of --fault delay rules; when spent, the run fails with a typed \
     deadline failure instead of hanging."
  in
  Arg.(value & opt (some seconds_conv) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let fallback_conv =
  let parse = function
    | "none" -> Ok `None
    | "auto" -> Ok `Auto
    | spec ->
      let rec go acc = function
        | [] -> Ok (`Chain (List.rev acc))
        | name :: rest -> (
          match Protocol.scheme_of_name (String.trim name) with
          | Some scheme -> go (scheme :: acc) rest
          | None -> Error (Printf.sprintf "unknown fallback scheme %S" name))
      in
      go [] (String.split_on_char ',' spec)
  in
  let print fmt = function
    | `None -> Format.pp_print_string fmt "none"
    | `Auto -> Format.pp_print_string fmt "auto"
    | `Chain schemes ->
      Format.pp_print_string fmt
        (String.concat "," (List.map Protocol.scheme_name schemes))
  in
  Arg.conv' (parse, print)

let fallback_arg =
  let doc =
    "Graceful-degradation chain tried when the scheme exhausts its \
     retry/deadline budget: $(b,auto) (the default chain, pm -> commutative -> \
     das), $(b,none), or a comma-separated list of scheme names.  A degraded \
     but served run exits with code 4."
  in
  Arg.(value & opt fallback_conv `None & info [ "fallback" ] ~docv:"CHAIN" ~doc)

(* A served query carries only whether to degrade: the chain is the
   mediator's, so a client naming one is a usage error (exit 124). *)
let remote_fallback = function
  | `None -> Ok false
  | `Auto -> Ok true
  | `Chain _ -> Error "--fallback: a remote client takes auto or none (the chain is the mediator's)"

let breaker_conv =
  let parse spec =
    let apply cfg field =
      match String.split_on_char '=' field with
      | [ "window"; v ] ->
        Option.map (fun n -> { cfg with R.window = n }) (int_of_string_opt v)
      | [ "threshold"; v ] ->
        Option.map (fun r -> { cfg with R.failure_threshold = r }) (float_of_string_opt v)
      | [ "min"; v ] ->
        Option.map (fun n -> { cfg with R.min_samples = n }) (int_of_string_opt v)
      | [ "cooldown"; v ] ->
        Option.map (fun s -> { cfg with R.cooldown = s }) (float_of_string_opt v)
      | [ "probes"; v ] ->
        Option.map (fun n -> { cfg with R.half_open_probes = n }) (int_of_string_opt v)
      | _ -> None
    in
    let rec go cfg = function
      | [] -> Ok cfg
      | field :: rest -> (
        match apply cfg (String.trim field) with
        | Some cfg -> go cfg rest
        | None -> Error (Printf.sprintf "bad breaker field %S" field))
    in
    go R.default_breaker (String.split_on_char ',' spec)
  in
  let print fmt (cfg : R.breaker_config) =
    Format.fprintf fmt "window=%d,threshold=%g,min=%d,cooldown=%g,probes=%d" cfg.R.window
      cfg.R.failure_threshold cfg.R.min_samples cfg.R.cooldown cfg.R.half_open_probes
  in
  Arg.conv' (parse, print)

let breaker_arg =
  let doc =
    "Per-datasource circuit-breaker tuning as comma-separated fields \
     $(b,window=N,threshold=R,min=N,cooldown=S,probes=N) (defaults: 16, 0.5, \
     4, 1.0, 1).  A party whose failure rate over the sliding window reaches \
     the threshold is short-circuited until the cooldown admits a half-open \
     probe."
  in
  Arg.(value & opt breaker_conv R.default_breaker & info [ "breaker" ] ~docv:"SPEC" ~doc)

let print_fault_events fault =
  match fault with
  | Some plan when Fault.events plan <> [] ->
    print_newline ();
    print_endline "Injected faults:";
    List.iter (fun e -> Format.printf "  %a@." Fault.pp_event e) (Fault.events plan)
  | _ -> ()

let report outcome ~verbose ~ground_truth =
  print_endline "Result:";
  print_endline (Relation.to_string outcome.Outcome.result);
  Printf.printf "\ncorrect: %b   messages: %d   bytes: %d\n" (Outcome.correct outcome)
    (Transcript.message_count outcome.Outcome.transcript)
    (Transcript.total_bytes outcome.Outcome.transcript);
  if verbose then begin
    print_newline ();
    print_endline "Transcript:";
    print_string (Transcript.summary outcome.Outcome.transcript);
    print_newline ();
    (match ground_truth with
     | None -> ()
     | Some g ->
       let claims = Leakage.verify outcome ~ground_truth:g in
       if claims <> [] then begin
         print_endline "Leakage claims:";
         Format.printf "%a" Leakage.pp_claims claims
       end);
    print_newline ();
    print_endline "Flow diagram:";
    print_endline (Transcript.flow_diagram outcome.Outcome.transcript)
  end

module Obs = Secmed_obs
module Net = Secmed_net

let trace_arg =
  let doc =
    "Write a machine-readable trace of the run to $(docv): Chrome \
     trace-event JSON (load in chrome://tracing or Perfetto), or a compact \
     JSONL stream when $(docv) ends in .jsonl."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* One trace file, one pid lane per process: a distributed run merges
   the remote span batches under the client's own collector
   ([Net.Trace_wire.merge]), a local run is [[process_of_trace t]]. *)
let write_trace path processes =
  let contents =
    match Obs.Export.format_of_path path with
    | `Chrome -> Obs.Export.chrome_json_processes processes
    | `Jsonl -> Obs.Export.jsonl_processes processes
  in
  Obs.Export.write_file path contents;
  let spans =
    List.fold_left (fun acc p -> acc + List.length p.Obs.Export.pr_spans) 0 processes
  in
  Printf.printf "\ntrace: %s (%d processes, %d spans)\n" path (List.length processes) spans

(* ------------------------------------------------------------------ *)
(* secmed run *)

(* A workload term that rejects an impossible spec as a usage error
   (exit 124) before any command runs. *)
let valid_spec term =
  let check spec =
    match Workload.validate spec with
    | () -> Ok spec
    | exception Invalid_argument msg -> Error msg
  in
  Term.(term_result' ~usage:true (const check $ term))

(* Workload flags shared by every process of a deployment: all replicas
   must rebuild the identical scenario, so `run`, `serve` and `source`
   accept the same knobs. *)
let spec_term =
  let rows = Arg.(value & opt int 32 & info [ "rows" ] ~docv:"N" ~doc:"Rows per relation.") in
  let distinct =
    Arg.(value & opt int 16 & info [ "distinct" ] ~docv:"N" ~doc:"Distinct join values per side.")
  in
  let overlap =
    Arg.(value & opt int 8 & info [ "overlap" ] ~docv:"N" ~doc:"Shared distinct join values.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let strings =
    Arg.(value & flag & info [ "strings" ] ~doc:"Use string-typed join values.")
  in
  let make rows distinct overlap seed strings =
    {
      Workload.default with
      rows_left = rows;
      rows_right = rows;
      distinct_left = distinct;
      distinct_right = distinct;
      overlap;
      seed;
      value_kind = (if strings then Workload.Strings else Workload.Ints);
    }
  in
  valid_spec Term.(const make $ rows $ distinct $ overlap $ seed $ strings)

let io_timeout_arg =
  let doc =
    "Per-socket-operation timeout in seconds for networked runs (a stalled      read or write fails as a typed transport fault after this long)."
  in
  Arg.(value & opt float 10. & info [ "io-timeout" ] ~docv:"SECONDS" ~doc)

(* Address flags parse with [Net.Io.parse_addr], so a bad one is a
   usage error (exit 124) before any command runs. *)
let pp_addr fmt (host, port) = Format.fprintf fmt "%s:%d" host port
let addr_conv = Arg.conv' (Net.Io.parse_addr, pp_addr)

let addr_doc what = what ^ "  An empty HOST (\":PORT\") means 127.0.0.1."

let run_remote ~target:(host, port) ~spec ~scheme ~fault ~deadline ~fallback ~io_timeout
    ~trace_file ~verbose =
  let env, client, query = Workload.scenario spec in
  let scenario = Net.Scenario.digest spec in
  Printf.printf "scheme: %s\nquery:  %s\nvia:    %s:%d (scenario %s)\n\n"
    (Protocol.scheme_name scheme) query host port (String.sub scenario 0 12);
  let response, trace =
    Obs.Trace.collect (fun () ->
        Net.Peer.run ~host ~port ~scenario ~scheme:(Protocol.scheme_name scheme) ~query
          ?fault_spec:fault ~deadline:(Option.value deadline ~default:0.) ~fallback
          ~io_timeout ~trace:(Option.is_some trace_file) env client)
  in
  let bytes_in, bytes_out = response.Net.Peer.socket_bytes in
  let save_trace () =
    Option.iter
      (fun path ->
        write_trace path (Net.Trace_wire.merge ~client:trace response.Net.Peer.remote_spans))
      trace_file
  in
  match response.Net.Peer.result with
  | Protocol.Served outcome ->
    let left, right = Workload.generate spec in
    report outcome ~verbose
      ~ground_truth:(Some (Ground_truth.compute left right ~join_attr:"a_join"));
    Printf.printf "\nwire: %d attempt(s); client socket %d bytes in / %d bytes out\n"
      response.Net.Peer.epochs bytes_in bytes_out;
    (let cv name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
     Printf.printf "      net.* counters: %d frames sent / %d received\n"
       (cv "net.frames_sent") (cv "net.frames_recv"));
    if response.Net.Peer.link_stats <> [] then begin
      print_endline "mediator links:";
      List.iter
        (fun (party, out_bytes, in_bytes) ->
          Printf.printf "  %-10s %7d bytes to it / %7d bytes from it\n"
            (Transcript.party_name party) out_bytes in_bytes)
        response.Net.Peer.link_stats
    end;
    save_trace ();
    (match outcome.Outcome.degraded_from with
    | None -> ()
    | Some from_scheme ->
      Printf.printf "\nDEGRADED: served by %s instead of %s\n" outcome.Outcome.scheme
        from_scheme;
      exit exit_degraded)
  | Protocol.Unserved tried ->
    Format.printf "FAULT: query not served@.%a" Protocol.pp_session_failures tried;
    save_trace ();
    exit exit_fault

let run_cmd =
  let connect =
    let doc =
      addr_doc
        "Run as a remote client against a `secmed serve' mediator instead of in-process.  \
         The workload flags must match the ones the mediator and its datasources were \
         started with (enforced by a scenario-digest handshake)."
    in
    let connect =
      Arg.(value & opt (some addr_conv) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)
    in
    let check connect fallback =
      match connect with
      | None -> Ok (None, fallback)
      | Some target ->
        Result.map (fun degrade -> (Some (target, degrade), fallback)) (remote_fallback fallback)
    in
    Term.(term_result' ~usage:true (const check $ connect $ fallback_arg))
  in
  let action scheme spec (connect, fallback) fault deadline breaker io_timeout trace_file
      verbose =
    match connect with
    | Some (target, degrade) ->
      (try
         run_remote ~target ~spec ~scheme ~fault:(Option.map fst fault) ~deadline
           ~fallback:degrade ~io_timeout ~trace_file ~verbose
       with Net.Io.Transport_error msg ->
         Printf.eprintf "transport error: %s\n" msg;
         exit exit_fault)
    | None ->
      let fault = Option.map snd fault in
      let env, client, query = Workload.scenario spec in
      Printf.printf "scheme: %s\nquery:  %s\n\n" (Protocol.scheme_name scheme) query;
      let policy =
        { R.default_policy with R.deadline_budget = deadline; breaker_config = breaker }
      in
      let session = R.session ~policy () in
      let chain =
        match fallback with
        | `None -> []
        | `Auto -> Protocol.degradation_chain scheme
        | `Chain schemes -> schemes
      in
      let session_result, trace =
        Obs.Trace.collect (fun () ->
            Protocol.run_session ?fault ~session ~chain scheme env client ~query)
      in
      let save_trace () =
        Option.iter (fun path -> write_trace path [ Obs.Export.process_of_trace trace ]) trace_file
      in
      (match session_result with
      | Protocol.Served outcome ->
        let left, right = Workload.generate spec in
        report outcome ~verbose
          ~ground_truth:(Some (Ground_truth.compute left right ~join_attr:"a_join"));
        print_fault_events fault;
        save_trace ();
        (match outcome.Outcome.degraded_from with
        | None -> ()
        | Some from_scheme ->
          Printf.printf "\nDEGRADED: served by %s instead of %s\n" outcome.Outcome.scheme
            from_scheme;
          exit exit_degraded)
      | Protocol.Unserved tried ->
        Format.printf "FAULT: query not served@.%a" Protocol.pp_session_failures tried;
        print_fault_events fault;
        save_trace ();
        exit exit_fault)
  in
  let term =
    Term.(const action $ scheme_arg $ spec_term $ connect $ fault_arg $ deadline_arg
          $ breaker_arg $ io_timeout_arg $ trace_arg $ verbose_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one protocol over a synthetic workload, in-process or against a \
             remote mediator (--connect)")
    term

(* ------------------------------------------------------------------ *)
(* secmed serve / secmed source *)

let bind_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "bind" ] ~docv:"HOST" ~doc:"Address to listen on.")

let serve_cmd =
  let port =
    Arg.(value & opt int 7000 & info [ "port" ] ~docv:"PORT" ~doc:"TCP port to listen on.")
  in
  let source =
    let doc =
      "Datasource address as $(b,ID=HOST:PORT[,HOST:PORT...]); give sources 1 and 2 once \
       each.  Comma-separated endpoints are standby replicas: the mediator dials the first \
       one that is up (primary first) and fails a severed or draining endpoint over to the \
       next, failing back after the $(b,--breaker) cooldown.  An empty HOST \
       ($(b,1=:7001)) means 127.0.0.1."
    in
    let print fmt (id, addrs) =
      Format.fprintf fmt "%d=%s" id
        (String.concat "," (List.map (Format.asprintf "%a" pp_addr) addrs))
    in
    let source_conv = Arg.conv' (Net.Server.parse_source, print) in
    let check sources =
      match List.sort compare (List.map fst sources) with
      | [ 1; 2 ] -> Ok sources
      | _ -> Error "the workload needs exactly one --source 1=... and one --source 2=..."
    in
    let sources =
      Arg.(value & opt_all source_conv [] & info [ "source" ] ~docv:"ID=H:P,..." ~doc)
    in
    Term.(term_result' ~usage:true (const check $ sources))
  in
  let health_interval =
    Arg.(value & opt float 1.0
         & info [ "health-interval" ] ~docv:"SECONDS"
             ~doc:"Probe every source replica with a Ping frame this often and \
                   proactively mark dead or draining ones down (0 disables probing).")
  in
  let drain_deadline =
    Arg.(value & opt float 30.
         & info [ "drain-deadline" ] ~docv:"SECONDS"
             ~doc:"On SIGTERM (or an authenticated Drain frame) stop admitting \
                   sessions, let in-flight ones finish up to this long, then exit 0.")
  in
  let max_sessions =
    Arg.(value & opt int 8
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Concurrent client sessions admitted before answering Busy; each runs \
                   on its client connection's thread, and a connection carries its \
                   client's sessions in turn.")
  in
  let action bind port sources max_sessions io_timeout deadline breaker health_interval
      drain_deadline spec =
    let env, client, _query = Workload.scenario spec in
    let scenario = Net.Scenario.digest spec in
    let policy =
      { R.default_policy with R.deadline_budget = deadline; breaker_config = breaker }
    in
    let listen_fd, bound = Net.Io.listen ~host:bind ~port () in
    Printf.printf "mediator listening on %s:%d (scenario %s)\n%!" bind bound
      (String.sub scenario 0 12);
    List.iter
      (fun (id, replicas) ->
        Printf.printf "  source %d at %s\n%!" id
          (String.concat ", " (List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) replicas)))
      sources;
    Net.Server.serve
      (Net.Server.create ~env ~client ~scenario ~sources ~listen_fd ~policy ~max_sessions
         ~io_timeout ~drain_deadline ~health_interval ())
  in
  let term =
    Term.(const action $ bind_arg $ port $ source $ max_sessions $ io_timeout_arg $ deadline_arg
          $ breaker_arg $ health_interval $ drain_deadline $ spec_term)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the mediator as a network server over `secmed source' daemons")
    term

let source_cmd =
  let id =
    let check id =
      if id = 1 || id = 2 then Ok id else Error "--id: the workload has sources 1 and 2"
    in
    Term.(term_result' ~usage:true
            (const check
             $ Arg.(required & opt (some int) None
                    & info [ "id" ] ~docv:"N" ~doc:"Datasource id: 1 or 2.")))
  in
  let port =
    Arg.(value & opt int 0
         & info [ "port" ] ~docv:"PORT"
             ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let drain_deadline =
    Arg.(value & opt float 30.
         & info [ "drain-deadline" ] ~docv:"SECONDS"
             ~doc:"On SIGTERM (or an authenticated Drain frame) refuse new sessions, \
                   let in-flight ones finish up to this long, then exit 0.")
  in
  let action bind id port io_timeout drain_deadline spec =
    let env, client, _query = Workload.scenario spec in
    let scenario = Net.Scenario.digest spec in
    let listen_fd, bound = Net.Io.listen ~host:bind ~port () in
    Printf.printf "source %d listening on %s:%d (scenario %s)\n%!" id bind bound
      (String.sub scenario 0 12);
    Net.Peer.source ~id ~env ~client ~scenario ~listen_fd ~io_timeout ~drain_deadline ()
  in
  let term =
    Term.(const action $ bind_arg $ id $ port $ io_timeout_arg $ drain_deadline $ spec_term)
  in
  Cmd.v
    (Cmd.info "source" ~doc:"Run one datasource as a daemon for a `secmed serve' mediator")
    term

(* ------------------------------------------------------------------ *)
(* secmed loadgen *)

let mix_conv =
  let parse s =
    try
      Ok
        (List.map
           (fun field ->
             match String.split_on_char '=' (String.trim field) with
             | [ scheme; w ] -> (
               let scheme = String.trim scheme in
               if Option.is_none (Protocol.scheme_of_name scheme) then
                 failwith (Printf.sprintf "unknown scheme %S" scheme);
               match int_of_string_opt (String.trim w) with
               | Some w when w >= 0 -> (scheme, w)
               | _ -> failwith (Printf.sprintf "bad weight in %S" field))
             | _ -> failwith (Printf.sprintf "expected SCHEME=WEIGHT, got %S" field))
           (String.split_on_char ',' s))
    with Failure msg -> Error ("--mix: " ^ msg)
  in
  let print fmt mix =
    Format.pp_print_string fmt
      (String.concat "," (List.map (fun (s, w) -> Printf.sprintf "%s=%d" s w) mix))
  in
  Arg.conv' (parse, print)

let loadgen_cmd =
  let connect =
    Arg.(required & opt (some addr_conv) None
         & info [ "connect" ] ~docv:"HOST:PORT" ~doc:(addr_doc "Mediator to drive load at."))
  in
  let workers =
    Arg.(value & opt int 8
         & info [ "workers" ] ~docv:"N" ~doc:"Concurrent client workers in the fleet.")
  in
  let sessions =
    Arg.(value & opt int 4
         & info [ "sessions" ] ~docv:"N" ~doc:"Sessions each worker poses.")
  in
  let domains =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"N"
             ~doc:"OCaml domains the workers are grouped onto (1 = plain threads; more \
                   parallelizes client-side crypto).")
  in
  let mix =
    Arg.(value
         & opt mix_conv [ ("das", 1); ("commutative", 1); ("pm", 1) ]
         & info [ "mix" ] ~docv:"SCHEME=W,..."
             ~doc:"Weighted scheme mix each session draws from, e.g. \
                   $(b,das=2,commutative=1,pm=1).")
  in
  let arrival =
    let check = function
      | None -> Ok Net.Loadgen.Closed
      | Some r when r > 0. -> Ok (Net.Loadgen.Poisson r)
      | Some _ -> Error "--rate must be positive"
    in
    let rate =
      Arg.(value & opt (some float) None
           & info [ "rate" ] ~docv:"QPS"
               ~doc:"Open-loop (Poisson) aggregate arrival rate in sessions/sec.  Without \
                     it the fleet runs closed-loop: each worker poses its next session \
                     when the previous one finishes.")
    in
    Term.(term_result' ~usage:true (const check $ rate))
  in
  let fallback = Term.(term_result' ~usage:true (const remote_fallback $ fallback_arg)) in
  let seed =
    Arg.(value & opt string "loadgen"
         & info [ "loadgen-seed" ] ~docv:"SEED"
             ~doc:"Seed for the fleet's scheme draws and arrival times; the same seed \
                   and config replay the identical workload.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Check every served session bit-for-bit (result, transcript, \
                   primitive counters) against the in-process reference execution of \
                   its scheme.")
  in
  let retry =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:"Re-pose a session that never started (unreachable peer, link death \
                   before the verdict, typed Draining) up to $(docv) times with \
                   exponential backoff — lets the fleet ride out a rolling restart.  \
                   Busy is never retried.")
  in
  let action (host, port) workers sessions domains mix arrival seed verify retry fault
      deadline fallback io_timeout spec =
    let env, client, query = Workload.scenario spec in
    let scenario = Net.Scenario.digest spec in
    let config =
      {
        Net.Loadgen.workers;
        sessions_per_worker = sessions;
        domains;
        mix;
        arrival;
        seed;
        fault_spec = (match fault with None -> "" | Some (raw, _) -> raw);
        deadline = Option.value deadline ~default:0.;
        fallback;
        io_timeout;
        verify;
        retry_connect = retry;
      }
    in
    let target = { Net.Loadgen.host; port; scenario; env; client; query } in
    let report =
      try Net.Loadgen.run config target
      with Net.Io.Transport_error msg ->
        Printf.eprintf "transport error: %s\n" msg;
        exit exit_fault
    in
    print_string (Net.Loadgen.render report);
    if report.Net.Loadgen.verify_failures <> [] then exit exit_fault;
    if Net.Loadgen.count Net.Loadgen.Served report
       + Net.Loadgen.count Net.Loadgen.Degraded report
       = 0
    then exit exit_fault
  in
  let term =
    Term.(const action $ connect $ workers $ sessions $ domains $ mix $ arrival $ seed
          $ verify $ retry $ fault_arg $ deadline_arg $ fallback
          $ io_timeout_arg $ spec_term)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a deterministic client fleet at a `secmed serve' mediator and report \
             throughput, latency percentiles, and backpressure")
    term

(* ------------------------------------------------------------------ *)
(* secmed stats *)

let render_stats j =
  let module J = Obs.Json in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let mem path v =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some v) path
  in
  let num path = Option.value ~default:0. (Option.bind (mem path j) J.to_float) in
  let i path = Option.value ~default:0 (Option.bind (mem path j) J.to_int) in
  let s path = Option.value ~default:"" (Option.bind (mem path j) J.to_str) in
  add "uptime %.1fs  scenario %s\n" (num [ "uptime_seconds" ])
    (let sc = s [ "scenario" ] in
     if String.length sc > 12 then String.sub sc 0 12 else sc);
  add "sessions:  %d/%d active, %d admitted, %d refused (%d while draining), %.1fs busy\n"
    (i [ "sessions"; "active" ])
    (i [ "sessions"; "max" ])
    (i [ "sessions"; "admitted" ])
    (i [ "sessions"; "refused" ])
    (i [ "sessions"; "drain_refused" ])
    (num [ "scheduler"; "busy_seconds" ]);
  add "clients:   %d connections accepted\n" (i [ "sessions"; "connections" ]);
  (match mem [ "sessions"; "draining" ] j with
  | Some (J.Bool true) -> add "draining:  yes (new sessions refused)\n"
  | _ -> ());
  (match Option.bind (mem [ "pool" ] j) J.to_list with
  | None | Some [] -> ()
  | Some sources ->
    add "pool:\n";
    List.iter
      (fun src ->
        let si path = Option.value ~default:0 (Option.bind (mem path src) J.to_int) in
        let replicas =
          match Option.bind (mem [ "replicas" ] src) J.to_list with
          | None | Some [] | Some [ _ ] -> ""
          | Some reps ->
            Printf.sprintf " [%s]"
              (String.concat ", "
                 (List.map
                    (fun re ->
                      Printf.sprintf "replica %d %s"
                        (Option.value ~default:0
                           (Option.bind (J.member "replica" re) J.to_int))
                        (match J.member "up" re with
                        | Some (J.Bool true) -> "up"
                        | _ -> "down"))
                    reps))
        in
        add "  source %d @%s%s: %s (%d dial%s)\n" (si [ "source" ])
          (Option.value ~default:"" (Option.bind (mem [ "addr" ] src) J.to_str))
          replicas
          (match mem [ "connected" ] src with Some (J.Bool true) -> "up" | _ -> "down")
          (si [ "dials" ])
          (if si [ "dials" ] = 1 then "" else "s"))
      sources);
  (match
     Option.bind (mem [ "failover"; "count" ] j) J.to_int
   with
  | Some count when count > 0 ->
    add "failover:  %d transitions\n" count;
    (match Option.bind (mem [ "failover"; "events" ] j) J.to_list with
    | Some events ->
      let n = List.length events in
      List.iteri
        (fun idx e ->
          if idx >= n - 5 then
            add "  %7.2fs source %d replica %d %-8s %s\n"
              (Option.value ~default:0. (Option.bind (J.member "at" e) J.to_float))
              (Option.value ~default:0 (Option.bind (J.member "source" e) J.to_int))
              (Option.value ~default:0 (Option.bind (J.member "replica" e) J.to_int))
              (Option.value ~default:"" (Option.bind (J.member "kind" e) J.to_str))
              (Option.value ~default:"" (Option.bind (J.member "detail" e) J.to_str)))
        events
    | None -> ())
  | _ -> ());
  (match Option.bind (mem [ "breakers" ] j) J.to_list with
  | None | Some [] -> add "breakers:  none created yet\n"
  | Some breakers ->
    add "breakers:  %s\n"
      (String.concat ", "
         (List.map
            (fun b ->
              Printf.sprintf "%s %s (%d transitions)"
                (Option.value ~default:"?" (Option.bind (J.member "party" b) J.to_str))
                (Option.value ~default:"?" (Option.bind (J.member "state" b) J.to_str))
                (Option.value ~default:0 (Option.bind (J.member "transitions" b) J.to_int)))
            breakers)));
  add "net:       %d bytes sent / %d recv (%d / %d frames)\n" (i [ "net"; "bytes_sent" ])
    (i [ "net"; "bytes_recv" ])
    (i [ "net"; "frames_sent" ])
    (i [ "net"; "frames_recv" ]);
  add "streams:   %d rows in / %d out, %d bytes in / %d out, backlog %d chunk%s\n"
    (i [ "streams"; "rows_in" ])
    (i [ "streams"; "rows_out" ])
    (i [ "streams"; "bytes_in" ])
    (i [ "streams"; "bytes_out" ])
    (i [ "streams"; "backlog_chunks" ])
    (if i [ "streams"; "backlog_chunks" ] = 1 then "" else "s");
  (match mem [ "schemes" ] j with
  | Some (J.Obj []) | None -> add "schemes:   none served yet\n"
  | Some (J.Obj schemes) ->
    add "schemes:\n";
    List.iter
      (fun (name, st) ->
        let si path = Option.value ~default:0 (Option.bind (mem path st) J.to_int) in
        let sn path = Option.value ~default:0. (Option.bind (mem path st) J.to_float) in
        add "  %-14s %d served (%d degraded), %d failed; latency p50=%.1fms p90=%.1fms p99=%.1fms\n"
          name (si [ "served" ]) (si [ "degraded" ]) (si [ "failed" ])
          (1000. *. sn [ "latency_seconds"; "p50" ])
          (1000. *. sn [ "latency_seconds"; "p90" ])
          (1000. *. sn [ "latency_seconds"; "p99" ]))
      schemes
  | Some _ -> ());
  Buffer.contents buf

let stats_cmd =
  let target =
    Arg.(required & pos 0 (some addr_conv) None
         & info [] ~docv:"HOST:PORT" ~doc:(addr_doc "Mediator to query."))
  in
  let watch =
    Arg.(value & opt (some float) None
         & info [ "watch" ] ~docv:"SECONDS"
             ~doc:"Refresh the snapshot every $(docv) seconds until interrupted.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the raw JSON snapshot instead.")
  in
  let action (host, port) watch json_flag io_timeout =
    let once () =
      let payload = Net.Peer.stats ~host ~port ~io_timeout () in
      if json_flag then print_endline payload
      else
        match Obs.Json.parse payload with
        | Error e -> failwith ("unparseable stats payload: " ^ e)
        | Ok j -> print_string (render_stats j)
    in
    match watch with
    | None -> once ()
    | Some interval ->
      let interval = Float.max 0.2 interval in
      (* A drain-restarting mediator refuses connections for a moment;
         a watch should ride that out, not die on the first
         ECONNREFUSED/EPIPE.  Bounded exponential backoff: ~10
         consecutive failures (about a minute) means it really is gone. *)
      let max_failures = 10 in
      let backoff = R.backoff ~base:interval ~max_delay:10. ~jitter:0. () in
      let rec go failures =
        match once () with
        | () ->
          print_newline ();
          flush stdout;
          Thread.delay interval;
          go 0
        | exception Net.Io.Transport_error msg ->
          if failures + 1 >= max_failures then begin
            Printf.eprintf "mediator unreachable after %d attempts: %s\n" max_failures msg;
            exit exit_fault
          end;
          Printf.printf "-- mediator unreachable (%s); retrying\n%!" msg;
          Thread.delay (R.backoff_delay backoff ~attempt:(failures + 1));
          go (failures + 1)
      in
      go 0
  in
  let term = Term.(const action $ target $ watch $ json_flag $ io_timeout_arg) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show a running mediator's live serving telemetry (admission, busy time, \
             source links, breakers, per-scheme latency)")
    term

(* ------------------------------------------------------------------ *)
(* secmed ping / drain *)

let ping_cmd =
  let target =
    Arg.(required & pos 0 (some addr_conv) None
         & info [] ~docv:"HOST:PORT" ~doc:(addr_doc "Mediator or datasource to probe."))
  in
  let action (host, port) io_timeout =
    match Net.Peer.ping ~host ~port ~io_timeout () with
    | h ->
      Printf.printf "%s: %s, %d active session%s\n"
        (Transcript.party_name h.Net.Peer.h_role)
        (if h.Net.Peer.h_draining then "draining" else "up")
        h.Net.Peer.h_active
        (if h.Net.Peer.h_active = 1 then "" else "s")
    | exception Net.Io.Transport_error msg ->
      Printf.eprintf "down: %s\n" msg;
      exit exit_fault
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:"Probe a mediator or datasource daemon with a Ping frame (answered before \
             admission, so it works against a process at capacity)")
    Term.(const action $ target $ io_timeout_arg)

let drain_cmd =
  let target =
    Arg.(required & pos 0 (some addr_conv) None
         & info [] ~docv:"HOST:PORT" ~doc:(addr_doc "Mediator or datasource to drain."))
  in
  let deadline =
    Arg.(value & opt (some seconds_conv) None
         & info [ "drain-deadline" ] ~docv:"SECONDS"
             ~doc:"Override the peer's drain deadline for this drain.")
  in
  let action (host, port) deadline io_timeout spec =
    let scenario = Net.Scenario.digest spec in
    match
      Net.Peer.drain ~host ~port ~scenario
        ~deadline:(Option.value deadline ~default:0.)
        ~io_timeout ()
    with
    | () -> Printf.printf "draining: peer stopped admitting, finishing in-flight sessions\n"
    | exception Net.Peer.Refused reason ->
      Printf.eprintf "drain refused: %s\n" reason;
      exit exit_fault
    | exception Net.Io.Transport_error msg ->
      Printf.eprintf "unreachable: %s\n" msg;
      exit exit_fault
  in
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Gracefully drain a running mediator or datasource daemon.  The Drain frame \
             is authenticated by the scenario digest, so the workload flags must match \
             the peer's")
    Term.(const action $ target $ deadline $ io_timeout_arg $ spec_term)

(* ------------------------------------------------------------------ *)
(* secmed soak *)

let soak_cmd =
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N" ~doc:"Concurrent client workers.")
  in
  let sessions =
    Arg.(value & opt int 8
         & info [ "sessions" ] ~docv:"N" ~doc:"Sessions each worker poses.")
  in
  let standbys =
    Arg.(value & opt int 1
         & info [ "standbys" ] ~docv:"N" ~doc:"Standby replica daemons per source.")
  in
  let kills =
    Arg.(value & opt int 4
         & info [ "kills" ] ~docv:"N"
             ~doc:"SIGKILL/restart cycles, cycling over every source replica.")
  in
  let drains =
    Arg.(value & opt int 1
         & info [ "drains" ] ~docv:"N" ~doc:"Mediator drain-restart cycles.")
  in
  let rate =
    Arg.(value & opt float 10.
         & info [ "rate" ] ~docv:"QPS"
             ~doc:"Open-loop (Poisson) aggregate arrival rate; 0 = closed loop.")
  in
  let seed =
    Arg.(value & opt string "soak"
         & info [ "soak-seed" ] ~docv:"SEED"
             ~doc:"Seeds both the kill schedule's shuffle and the client fleet; the \
                   same seed and config replay the identical soak.")
  in
  let gap =
    Arg.(value & opt float 0.5
         & info [ "gap" ] ~docv:"SECONDS" ~doc:"Settle time before each schedule action.")
  in
  let hold =
    Arg.(value & opt float 1.0
         & info [ "hold" ] ~docv:"SECONDS" ~doc:"How long a killed process stays dead.")
  in
  let retry =
    Arg.(value & opt int 10
         & info [ "retry" ] ~docv:"N"
             ~doc:"Per-session connect-retry budget (rides out restarts).")
  in
  let no_verify =
    Arg.(value & flag
         & info [ "no-verify" ]
             ~doc:"Skip the bit-for-bit comparison of served sessions against the \
                   in-process reference execution.")
  in
  let log =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Write the machine-readable transition log (JSON lines: executed \
                   schedule, recovered failover transitions, drain exit codes, \
                   violations, summary).")
  in
  let fast =
    Arg.(value & flag
         & info [ "fast" ]
             ~doc:"Small crypto parameters (160-bit group, 384-bit Paillier) — smoke \
                   speed, not security.")
  in
  let action workers sessions standbys kills drains rate seed gap hold retry no_verify log
      fast io_timeout spec =
    let cfg =
      {
        Net.Soak.params =
          (if fast then Some { Env.group_bits = 160; paillier_bits = 384 } else None);
        spec;
        workers;
        sessions_per_worker = sessions;
        standbys;
        kills;
        drains;
        seed;
        rate;
        gap;
        kill_hold = hold;
        retry_connect = retry;
        io_timeout;
        verify = not no_verify;
      }
    in
    let report = Net.Soak.run ~progress:(fun line -> Printf.printf "%s\n%!" line) cfg in
    print_string (Net.Soak.render report);
    Option.iter
      (fun path ->
        Net.Soak.write_log ~path report;
        Printf.printf "wrote %s\n" path)
      log;
    if not (Net.Soak.ok report) then exit exit_fault
  in
  let term =
    Term.(const action $ workers $ sessions $ standbys $ kills $ drains $ rate $ seed $ gap
          $ hold $ retry $ no_verify $ log $ fast $ io_timeout_arg $ spec_term)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run a seeded crash/restart chaos soak: SIGKILL and restart source replicas \
             and drain-restart the mediator under a verifying client fleet, then check \
             the robustness invariants (no failed or lost sessions, bit-identical \
             results, clean drain exits, failover transitions matching the schedule)")
    term

(* ------------------------------------------------------------------ *)
(* secmed query *)

let types_conv =
  let parse s =
    try
      Ok
        (List.map
           (fun t ->
             match String.lowercase_ascii (String.trim t) with
             | "int" -> Value.Tint
             | "string" | "str" -> Value.Tstring
             | "bool" -> Value.Tbool
             | other -> failwith other)
           (String.split_on_char ',' s))
    with Failure t -> Error (Printf.sprintf "unknown type %S (use int|string|bool)" t)
  in
  let print fmt tys =
    Format.pp_print_string fmt (String.concat "," (List.map Value.ty_name tys))
  in
  Arg.conv' (parse, print)

let load_csv path types =
  let header =
    let ic = open_in path in
    let line = Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic) in
    List.map String.trim (String.split_on_char ',' line)
  in
  if List.length header <> List.length types then
    failwith
      (Printf.sprintf "%s: %d columns but %d types given" path (List.length header)
         (List.length types));
  let schema = Schema.make (List.map2 (fun name ty -> Schema.attr name ty) header types) in
  Csv.load_file schema path

let query_cmd =
  let pos n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc) in
  let left_csv = pos 0 "LEFT.csv" "CSV file of the first datasource (header row required)." in
  let right_csv = pos 1 "RIGHT.csv" "CSV file of the second datasource." in
  let left_types =
    Arg.(required & opt (some types_conv) None
         & info [ "left-types" ] ~docv:"T,T,..." ~doc:"Column types of LEFT.csv.")
  in
  let right_types =
    Arg.(required & opt (some types_conv) None
         & info [ "right-types" ] ~docv:"T,T,..." ~doc:"Column types of RIGHT.csv.")
  in
  let sql =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"SQL"
             ~doc:"Join query (default: SELECT * FROM L NATURAL JOIN R).")
  in
  let action scheme left_path right_path left_types right_types sql verbose =
    (* An unreadable or malformed CSV is reported, not an internal error. *)
    match
      let left = load_csv left_path left_types in
      (left, load_csv right_path right_types)
    with
    | exception (Sys_error msg | Failure msg | Invalid_argument msg) -> Error (`Msg msg)
    | exception End_of_file -> Error (`Msg "a CSV file has no header row")
    | left, right ->
      let env = Env.two_source ~left:("L", left) ~right:("R", right) () in
      let client = Env.make_client env ~identity:"cli" ~properties:[ [] ] in
      let query = Option.value ~default:"select * from L natural join R" sql in
      Printf.printf "scheme: %s\nquery:  %s\n\n" (Protocol.scheme_name scheme) query;
      let outcome = Protocol.run_exn scheme env client ~query in
      let join_attr =
        match Schema.common_names (Relation.schema left) (Relation.schema right) with
        | [ a ] -> Some a
        | _ -> None
      in
      let ground_truth =
        Option.map (fun join_attr -> Ground_truth.compute left right ~join_attr) join_attr
      in
      report outcome ~verbose ~ground_truth;
      Ok ()
  in
  let term =
    Term.(term_result
            (const action $ scheme_arg $ left_csv $ right_csv $ left_types $ right_types $ sql
             $ verbose_arg))
  in
  Cmd.v (Cmd.info "query" ~doc:"Mediate a join over two CSV files") term

(* ------------------------------------------------------------------ *)
(* secmed setop *)

let setop_cmd =
  let op_conv =
    let parse = function
      | "intersection" | "intersect" -> Ok Set_ops.Intersection
      | "difference" | "diff" -> Ok Set_ops.Difference
      | "semi-join" | "semijoin" -> Ok Set_ops.Semi_join
      | other -> Error (Printf.sprintf "unknown operation %S" other)
    in
    Arg.conv' (parse, fun fmt op -> Format.pp_print_string fmt (Set_ops.op_name op))
  in
  let op_arg =
    Arg.(required & pos 0 (some op_conv) None
         & info [] ~docv:"OP" ~doc:"intersection, difference, or semi-join.")
  in
  let rows = Arg.(value & opt int 24 & info [ "rows" ] ~docv:"N" ~doc:"Rows per relation.") in
  let distinct =
    Arg.(value & opt int 12 & info [ "distinct" ] ~docv:"N" ~doc:"Distinct join values per side.")
  in
  let overlap =
    Arg.(value & opt int 6 & info [ "overlap" ] ~docv:"N" ~doc:"Shared distinct join values.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let spec =
    let make rows distinct overlap seed =
      { Workload.default with rows_left = rows; rows_right = rows; distinct_left = distinct;
        distinct_right = distinct; overlap; seed }
    in
    valid_spec Term.(const make $ rows $ distinct $ overlap $ seed)
  in
  let action op spec verbose =
    (* Whole-tuple operations need layout-identical relations, so the
       synthetic workload keeps only the join column for them. *)
    let extra_attrs =
      match op with Set_ops.Intersection | Set_ops.Difference -> 0 | Set_ops.Semi_join -> 2
    in
    let left, right = Workload.generate { spec with Workload.extra_attrs } in
    let seed = spec.Workload.seed in
    let env = Env.two_source ~seed ~left:("L", left) ~right:("R", right) () in
    let client = Env.make_client env ~identity:"cli" ~properties:[ [] ] in
    let on = match op with Set_ops.Semi_join -> Some [ "a_join" ] | _ -> None in
    Printf.printf "operation: %s\n\n" (Set_ops.op_name op);
    let outcome = Set_ops.run ?on env client op ~left:"L" ~right:"R" in
    report outcome ~verbose ~ground_truth:None
  in
  let term = Term.(const action $ op_arg $ spec $ verbose_arg) in
  Cmd.v
    (Cmd.info "setop" ~doc:"Mediate a set operation over a synthetic workload")
    term

(* ------------------------------------------------------------------ *)
(* secmed chain *)

let chain_cmd =
  let sources =
    let check n = if n >= 2 then Ok n else Error "--sources must be at least 2" in
    let sources =
      Arg.(value & opt int 3 & info [ "sources" ] ~docv:"N" ~doc:"Number of datasources (>= 2).")
    in
    Term.(term_result' ~usage:true (const check $ sources))
  in
  let action scheme n_sources =
    let prng = Secmed_crypto.Prng.of_int_seed 99 in
    let relations =
      List.init n_sources (fun i ->
          let attrs =
            if i = n_sources - 1 then [ (Printf.sprintf "k%d" i, Value.Tint) ]
            else
              [ (Printf.sprintf "k%d" i, Value.Tint); (Printf.sprintf "k%d" (i + 1), Value.Tint) ]
          in
          let schema = Schema.of_list attrs in
          let rows =
            List.init 10 (fun _ ->
                List.map (fun _ -> Value.Int (Secmed_crypto.Prng.uniform_int prng 6)) attrs)
          in
          (Printf.sprintf "T%d" i, Relation.of_rows schema rows))
    in
    let entry i (name, rel) =
      { Catalog.relation = name; source = i + 1; schema = Relation.schema rel;
        source_relation = name }
    in
    let env =
      Env.make ~seed:99
        ~catalog:(Catalog.make (List.mapi entry relations))
        ~sources:
          (List.mapi
             (fun i (name, rel) ->
               { Env.source_id = i + 1; relations = [ (name, rel) ];
                 policy = Policy.open_policy; advertised = [] })
             relations)
        ()
    in
    let client = Env.make_client env ~identity:"cli" ~properties:[ [] ] in
    let query =
      "select * from T0 "
      ^ String.concat " "
          (List.init (n_sources - 1) (fun i -> Printf.sprintf "natural join T%d" (i + 1)))
    in
    Printf.printf "scheme: %s\nquery:  %s\n\n" (Protocol.scheme_name scheme) query;
    let chain = Multi_join.run ~scheme env client ~query in
    List.iteri
      (fun i stage ->
        Printf.printf "round %d: %s -> %d tuples (%s)\n" (i + 1) stage.Multi_join.stage_query
          (Relation.cardinality stage.Multi_join.outcome.Outcome.result)
          (if Outcome.correct stage.Multi_join.outcome then "correct" else "WRONG"))
      chain.Multi_join.stages;
    Printf.printf "\nchain correct: %b   total: %d messages, %d bytes\n"
      (Multi_join.correct chain) chain.Multi_join.total_messages chain.Multi_join.total_bytes;
    print_newline ();
    print_endline (Relation.to_string chain.Multi_join.result)
  in
  Cmd.v
    (Cmd.info "chain" ~doc:"Run successive joins over an n-source chain")
    Term.(const action $ scheme_arg $ sources)

(* ------------------------------------------------------------------ *)
(* secmed select *)

let select_cmd =
  let rows = Arg.(value & opt int 64 & info [ "rows" ] ~docv:"N" ~doc:"Rows in the relation.") in
  let partitions =
    let check k = if k > 0 then Ok k else Error "--partitions must be positive" in
    let partitions =
      Arg.(value & opt int 4
           & info [ "partitions" ] ~docv:"K" ~doc:"Index partitions per attribute.")
    in
    Term.(term_result' ~usage:true (const check $ partitions))
  in
  let sql =
    Arg.(value & opt (some string) None
         & info [ "q"; "query" ] ~docv:"SQL" ~doc:"Selection query over relation T.")
  in
  let action partitions rows sql verbose =
    let prng = Secmed_crypto.Prng.of_int_seed 5 in
    let relation =
      Relation.of_rows
        (Schema.of_list [ ("id", Value.Tint); ("score", Value.Tint) ])
        (List.init rows (fun i ->
             [ Value.Int i; Value.Int (Secmed_crypto.Prng.uniform_int prng 1000) ]))
    in
    let dummy = Relation.of_rows (Schema.of_list [ ("x", Value.Tint) ]) [ [ Value.Int 0 ] ] in
    let env = Env.two_source ~seed:5 ~left:("T", relation) ~right:("U", dummy) () in
    let client = Env.make_client env ~identity:"cli" ~properties:[ [] ] in
    let query = Option.value ~default:"select * from T where score < 250" sql in
    Printf.printf "query: %s  (equi-depth %d)\n\n" query partitions;
    let outcome =
      Select_query.run ~strategy:(Das_partition.Equi_depth partitions) env client ~query
    in
    report outcome ~verbose ~ground_truth:None
  in
  Cmd.v
    (Cmd.info "select" ~doc:"Run a selection query over one encrypted relation")
    Term.(const action $ partitions $ rows $ sql $ verbose_arg)

(* ------------------------------------------------------------------ *)
(* secmed report *)

let report_cmd =
  let rows = Arg.(value & opt int 32 & info [ "rows" ] ~docv:"N" ~doc:"Rows per relation.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let all =
    Arg.(value & flag & info [ "all" ] ~doc:"Report every scheme, not just the selected one.")
  in
  (* Distinct and overlap scale with the row count (16 and 8 at the
     default 32), so any positive --rows is a valid workload. *)
  let spec =
    let make rows seed =
      { Workload.default with rows_left = rows; rows_right = rows;
        distinct_left = max 1 (rows / 2); distinct_right = max 1 (rows / 2);
        overlap = rows / 4; seed }
    in
    valid_spec Term.(const make $ rows $ seed)
  in
  let action scheme spec all =
    let env, client, query = Workload.scenario spec in
    let schemes = if all then Protocol.all_schemes else [ scheme ] in
    List.iter
      (fun scheme ->
        let outcome, trace =
          Obs.Trace.collect (fun () -> Protocol.run_exn scheme env client ~query)
        in
        Printf.printf "%s  (%d messages, %d bytes)\n"
          (Protocol.scheme_name scheme)
          (Transcript.message_count outcome.Outcome.transcript)
          (Transcript.total_bytes outcome.Outcome.transcript);
        print_string (Obs.Report.of_trace trace);
        print_newline ())
      schemes
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Render the per-party / per-phase cost matrix (time and crypto operations) \
             of a traced protocol run")
    Term.(const action $ scheme_arg $ spec $ all)

(* ------------------------------------------------------------------ *)
(* secmed schemes *)

let schemes_cmd =
  let action () =
    List.iter
      (fun (name, description) -> Printf.printf "%-16s %s\n" name description)
      [
        ("das", "DAS delivery, equi-depth(4) index (Listing 2)");
        ("das-singleton", "DAS with one partition per value (exact server result)");
        ("das-nested-loop", "DAS with the literal sigma-over-product mediator");
        ("commutative", "commutative encryption delivery (Listing 3)");
        ("commutative-ids", "commutative with the footnote-1 ID optimization");
        ("pm", "private matching, session-key payloads (Listing 4 + footnote 2)");
        ("pm-direct", "private matching with direct payload packing");
        ("mobile-code", "prior-work baseline: client-side join of encrypted partials");
        ("plain", "non-private baseline: trusted mediator joins plaintexts");
      ]
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List available protocols") Term.(const action $ const ())

let () =
  let info =
    Cmd.info "secmed" ~version:"1.0"
      ~doc:"Secure mediation of join queries by processing ciphertexts (ICDE 2007)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; serve_cmd; source_cmd; loadgen_cmd; stats_cmd; ping_cmd; drain_cmd;
            soak_cmd; query_cmd; setop_cmd;
            chain_cmd; select_cmd;
            report_cmd; schemes_cmd ]))
