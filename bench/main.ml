(* Benchmark harness entry point.

   Each subcommand regenerates one of the paper's evaluation artifacts
   (see DESIGN.md §4 for the experiment index); running with no arguments
   executes the full suite, as expected by EXPERIMENTS.md. *)

open Cmdliner

let default_sizes = [ 4; 8; 16; 32 ]

let sizes_arg =
  let doc = "Active-domain sizes for the sweep (comma-separated)." in
  Arg.(value & opt (list int) default_sizes & info [ "sizes" ] ~docv:"N,N,..." ~doc)

let degrees_arg =
  let doc = "Polynomial degrees for the Horner ablation." in
  Arg.(value & opt (list int) [ 4; 8; 16; 32 ] & info [ "degrees" ] ~docv:"N,N,..." ~doc)

let rounds_arg =
  let doc =
    "Measurement rounds per sample for the JSON emitters (lower it to 1-2 for a CI \
     smoke run)."
  in
  Arg.(value & opt int 7 & info [ "rounds" ] ~docv:"N" ~doc)

let smoke_arg =
  let doc = "Shrink the concurrency sweep to 1/2/4/8 for a CI smoke run." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let experiments : (string * string * (unit -> unit) Term.t) list =
  [
    ("table1", "Table 1: extra information disclosed to client and mediator",
     Term.(const (fun () () -> Experiments.table1 ()) $ const ()));
    ("table2", "Table 2: applied cryptographic primitives",
     Term.(const (fun () () -> Experiments.table2 ()) $ const ()));
    ("figure1", "Figure 1: basic mediated system (flow diagram)",
     Term.(const (fun () () -> Experiments.figure1 ()) $ const ()));
    ("figure2", "Figure 2: credential-based MMM (flow diagram)",
     Term.(const (fun () () -> Experiments.figure2 ()) $ const ()));
    ("rounds", "P1: interactions with the mediator per party",
     Term.(const (fun () () -> Experiments.rounds ()) $ const ()));
    ("perf", "P2: wall clock vs active-domain size",
     Term.(const (fun sizes () -> Experiments.perf ~sizes ()) $ sizes_arg));
    ("comm", "P3: communication volume vs active-domain size",
     Term.(const (fun sizes () -> Experiments.comm ~sizes ()) $ sizes_arg));
    ("postproc", "P4: client-side burden per protocol",
     Term.(const (fun () () -> Experiments.postproc ()) $ const ()));
    ("das-tradeoff", "P5: DAS partition granularity trade-off",
     Term.(const (fun () () -> Experiments.das_tradeoff ()) $ const ()));
    ("security-sweep", "P6: protocol cost vs security parameters",
     Term.(const (fun () () -> Experiments.security_sweep ()) $ const ()));
    ("skew", "P7: skewed join-value distributions",
     Term.(const (fun () () -> Experiments.skew_sweep ()) $ const ()));
    ("chain", "E1: successive joins over 2/3/4-source chains",
     Term.(const (fun () () -> Experiments.chain ()) $ const ()));
    ("setops", "E2: secure set operations (intersection/difference/semi-join)",
     Term.(const (fun () () -> Experiments.setops_experiment ()) $ const ()));
    ("aggregation", "E3: encrypted aggregation vs join-then-aggregate",
     Term.(const (fun () () -> Experiments.aggregation ()) $ const ()));
    ("selection", "E4: DAS selection over one encrypted relation",
     Term.(const (fun () () -> Experiments.selection ()) $ const ()));
    ("ablation-pm", "A1: PM direct payload vs session keys",
     Term.(const (fun () () -> Ablations.pm_payload ()) $ const ()));
    ("ablation-das", "A2: DAS mediator pair-index vs nested loop",
     Term.(const (fun sizes () -> Ablations.das_server_eval ~sizes ()) $ sizes_arg));
    ("ablation-horner", "A3: homomorphic Horner vs naive evaluation",
     Term.(const (fun degrees () -> Ablations.horner ~degrees ()) $ degrees_arg));
    ("ablation-karatsuba", "A4: bigint Karatsuba threshold",
     Term.(const (fun () () -> Ablations.karatsuba ()) $ const ()));
    ("ablation-montgomery", "A5: Montgomery vs plain modular exponentiation",
     Term.(const (fun () () -> Ablations.montgomery ()) $ const ()));
    ("ablation-setops", "A6: lean set-operation protocols vs join-based",
     Term.(const (fun () () -> Ablations.setops ()) $ const ()));
    ("ablation-das-settings", "A7: DAS translator placement",
     Term.(const (fun () () -> Ablations.das_settings ()) $ const ()));
    ("micro", "Microbenchmarks of the crypto primitives",
     Term.(const (fun () () -> Ablations.micro ()) $ const ()));
    ("json", "Write BENCH_modexp.json and BENCH_protocols.json (full machine-readable record)",
     Term.(const (fun sizes rounds () ->
               Ablations.modexp_json ~rounds ~sizes ();
               Protocols_json.write ~sizes ())
           $ sizes_arg $ rounds_arg));
    ("json-protocols", "Write only BENCH_protocols.json: per-scheme/phase/party costs",
     Term.(const (fun sizes () -> Protocols_json.write ~sizes ()) $ sizes_arg));
    ("json-resilience",
     "Write BENCH_resilience.json: session recovery latency and degradation rates under \
      seeded fault plans",
     Term.(const (fun () () -> Resilience_json.write ()) $ const ()));
    ("json-net",
     "Write BENCH_net.json: in-process vs loopback-TCP cost per scheme, with socket-level \
      byte accounting",
     Term.(const (fun () () -> Net_json.write ()) $ const ()));
    ("json-serve",
     "Write BENCH_serve.json: loadgen throughput and latency percentiles per scheme at \
      increasing session concurrency, clean vs chaos",
     Term.(const (fun smoke () -> Serve_json.write ~smoke ()) $ smoke_arg));
    ("json-stream",
     "Write BENCH_stream.json: chunked streaming throughput with bounded-memory high-water \
      marks (unsharded and k=4), protocol-level stream flatness, and receive-buffer reuse \
      allocation counts",
     Term.(const (fun smoke () -> Stream_json.write ~smoke ()) $ smoke_arg));
  ]

let run_all () =
  print_endline "secmed benchmark harness — full reproduction run";
  print_endline "(see DESIGN.md section 4 for the experiment index and EXPERIMENTS.md";
  print_endline " for paper-vs-measured records)";
  Experiments.table1 ();
  Experiments.table2 ();
  Experiments.figure1 ();
  Experiments.figure2 ();
  Experiments.rounds ();
  Experiments.perf ~sizes:default_sizes ();
  Experiments.comm ~sizes:default_sizes ();
  Experiments.postproc ();
  Experiments.das_tradeoff ();
  Experiments.security_sweep ();
  Experiments.skew_sweep ();
  Experiments.chain ();
  Experiments.setops_experiment ();
  Experiments.aggregation ();
  Experiments.selection ();
  Ablations.pm_payload ();
  Ablations.das_server_eval ~sizes:[ 4; 8; 16 ] ();
  Ablations.horner ~degrees:[ 4; 8; 16 ] ();
  Ablations.karatsuba ();
  Ablations.montgomery ();
  Ablations.setops ();
  Ablations.das_settings ();
  Ablations.micro ()

let commands =
  List.map
    (fun (name, doc, term) ->
      Cmd.v (Cmd.info name ~doc) Term.(const (fun f -> f ()) $ term))
    experiments

let all_cmd = Cmd.v (Cmd.info "all" ~doc:"Run every experiment") Term.(const run_all $ const ())

let () =
  let info =
    Cmd.info "secmed-bench" ~version:"1.0"
      ~doc:"Regenerates the evaluation artifacts of 'Secure Mediation of Join Queries by \
            Processing Ciphertexts' (ICDE 2007)"
  in
  let default = Term.(const run_all $ const ()) in
  exit (Cmd.eval (Cmd.group ~default info (all_cmd :: commands)))
