(* Ablation benchmarks for the design choices called out in DESIGN.md
   (A1–A4) plus a microbenchmark suite for the cryptographic
   primitives. *)

open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_core

(* ------------------------------------------------------------------ *)
(* A1 — PM payload encodings: direct vs session keys (footnote 2). *)

let pm_payload () =
  Bench_util.heading
    "A1 — PM payload encoding: direct packing vs session-key/ID-table (footnote 2)";
  (* Direct packing needs the tuple set to fit the Paillier plaintext, so
     this ablation uses a 1024-bit key and sweeps rows per join value. *)
  let params = { Env.group_bits = 256; paillier_bits = 1024 } in
  let rows =
    List.filter_map
      (fun rows_per_value ->
        let spec =
          {
            Workload.default with
            rows_left = 6 * rows_per_value;
            rows_right = 6 * rows_per_value;
            distinct_left = 6;
            distinct_right = 6;
            overlap = 3;
            extra_attrs = 0;
            seed = 2007;
          }
        in
        let env, client, query = Workload.scenario ~params spec in
        let run variant = Protocol.run_exn (Protocol.Private_matching variant) env client ~query in
        let session = run Pm_join.Session_keys in
        let direct =
          try
            let o = run Pm_join.Direct_payload in
            Some o
          with Invalid_argument _ -> None
        in
        let bytes o = Secmed_mediation.Transcript.total_bytes o.Outcome.transcript in
        Some
          [
            string_of_int rows_per_value;
            (match direct with
             | Some o -> Printf.sprintf "%s (%s)" (Bench_util.fmt_bytes (bytes o))
                           (if Outcome.correct o then "ok" else "WRONG")
             | None -> "exceeds plaintext capacity");
            Printf.sprintf "%s (%s)" (Bench_util.fmt_bytes (bytes session))
              (if Outcome.correct session then "ok" else "WRONG");
          ])
      [ 1; 2; 4; 8 ]
  in
  Bench_util.print_table
    ~headers:[ "rows per join value"; "direct payload"; "session keys" ]
    rows;
  print_endline "The direct encoding hits the Paillier plaintext ceiling as tuple sets grow;";
  print_endline "the session-key variant scales (the paper's motivation for footnote 2)."

(* ------------------------------------------------------------------ *)
(* A2 — mediator server-query evaluation: pair-index vs nested loop. *)

let das_server_eval ~sizes () =
  Bench_util.heading "A2 — DAS mediator evaluation: pair-index join vs literal sigma-over-product";
  let rows =
    List.map
      (fun size ->
        let spec = Experiments.spec_for_domain size in
        let env, client, query = Workload.scenario ~params:Experiments.bench_params spec in
        let mediator_time eval =
          let _, phases =
            Bench_util.with_phase_times (fun () ->
                Protocol.run_exn (Protocol.Das (Das_partition.Equi_depth 4, eval)) env client ~query)
          in
          Bench_util.phase_time phases "mediator-server-query"
        in
        [
          string_of_int size;
          Bench_util.fmt_ms (mediator_time Das.Pair_index);
          Bench_util.fmt_ms (mediator_time Das.Nested_loop);
        ])
      sizes
  in
  Bench_util.print_table
    ~headers:[ "|domactive|"; "pair-index (ms)"; "nested-loop (ms)" ]
    rows

(* ------------------------------------------------------------------ *)
(* A3 — encrypted polynomial evaluation: Horner vs naive powers. *)

let horner ~degrees () =
  Bench_util.heading "A3 — homomorphic polynomial evaluation: Horner vs term-by-term";
  let prng = Prng.of_int_seed 1 in
  let sk = Paillier.keygen prng ~bits:512 in
  let pk = Paillier.public sk in
  let point = Pm_join.root_of_value (Value.Int 42) in
  let rows =
    List.map
      (fun degree ->
        let roots =
          List.init degree (fun i -> Pm_join.root_of_value (Value.Int i))
        in
        let poly = Pm_poly.from_roots ~modulus:pk.Paillier.n roots in
        let coeffs = Pm_poly.encrypt prng pk poly in
        let t_horner =
          Bench_util.time_median ~runs:3 (fun () -> Pm_poly.eval_encrypted pk coeffs point)
        in
        let t_naive =
          Bench_util.time_median ~runs:3 (fun () ->
              Pm_poly.eval_encrypted_naive prng pk coeffs point)
        in
        [ string_of_int degree; Bench_util.fmt_ms t_horner; Bench_util.fmt_ms t_naive;
          Printf.sprintf "%.2fx" (t_naive /. Float.max 1e-9 t_horner) ])
      degrees
  in
  Bench_util.print_table
    ~headers:[ "degree"; "Horner (ms)"; "naive (ms)"; "naive/Horner" ]
    rows

(* ------------------------------------------------------------------ *)
(* A4 — Karatsuba threshold in the bigint substrate. *)

(* Calibration: at which operand width (in 31-bit limbs) does one
   Karatsuba split start beating plain schoolbook?  For each width the
   "split" configuration sets the threshold to exactly that width, so the
   top level splits once and the halves run schoolbook — isolating the
   crossover the recursive threshold should sit at.  The two run in
   interleaved rounds (Bench_util.interleaved), so each round is one
   pair. *)
type kara_sample = { ks_limbs : int; ks_school : float array; ks_split : float array }

let kara_limb_sizes = [ 8; 16; 24; 32; 36; 40; 44; 48; 52; 56; 60; 64; 67; 72; 96 ]
let kara_thresholds = [ 8; 12; 16; 20; 24; 28; 32; 40; 48; 56; 64; 1_000_000 ]

(* The split wins a width when it is faster in most rounds. *)
let split_wins s = 2 * Bench_util.wins s.ks_split s.ks_school > Array.length s.ks_split

let measure_karatsuba () =
  let prng = Prng.of_int_seed 11 in
  let src = Prng.byte_source prng in
  (* Operands with a non-zero top limb, so the magnitude is exactly
     [limbs] limbs wide. *)
  let full_width bits =
    let rec gen () =
      let x = Bigint.random_bits src bits in
      if Bigint.numbits x > bits - 31 then x else gen ()
    in
    gen ()
  in
  let timed thresholds x y =
    Bench_util.interleaved ~rounds:12
      (Array.of_list
         (List.map (fun threshold () -> Bigint.mul_karatsuba ~threshold x y) thresholds))
  in
  let sweep =
    List.map
      (fun limbs ->
        let bits = limbs * 31 in
        let x = full_width bits and y = full_width bits in
        let t = timed [ 1_000_000; limbs ] x y in
        { ks_limbs = limbs; ks_school = t.(0); ks_split = t.(1) })
      kara_limb_sizes
  in
  (* Crossover: the smallest width from which the split wins at every
     wider width of the sweep. *)
  let crossover =
    List.fold_left
      (fun start s ->
        if not (split_wins s) then None else if start = None then Some s.ks_limbs else start)
      None sweep
  in
  (* Full recursion: best threshold over 2048-bit operands. *)
  let x = full_width 2048 and y = full_width 2048 in
  let recursive = List.combine kara_thresholds (Array.to_list (timed kara_thresholds x y)) in
  let best_threshold, _ =
    List.fold_left
      (fun (bt, bv) (t, v) ->
        let v = Bench_util.median v in
        if v < bv then (t, v) else (bt, bv))
      (Bigint.karatsuba_threshold, infinity) recursive
  in
  (sweep, crossover, recursive, best_threshold)

let karatsuba () =
  Bench_util.heading "A4 — bigint multiplication: Karatsuba threshold calibration";
  let sweep, crossover, recursive, best_threshold = measure_karatsuba () in
  let fmt_us = Bench_util.fmt_spread ~scale:1e6 in
  Bench_util.subheading "single split vs schoolbook, by operand width (12 interleaved pairs)";
  Bench_util.print_table
    ~headers:
      [ "limbs"; "bits"; "schoolbook µs (IQR)"; "one split µs (IQR)"; "split wins (pairs)" ]
    (List.map
       (fun s ->
         [ string_of_int s.ks_limbs; string_of_int (s.ks_limbs * 31);
           fmt_us s.ks_school; fmt_us s.ks_split;
           Printf.sprintf "%d/%d" (Bench_util.wins s.ks_split s.ks_school)
             (Array.length s.ks_split) ])
       sweep);
  Printf.printf "measured crossover: %s (current default threshold: %d)\n"
    (match crossover with
     | Some limbs -> Printf.sprintf "%d limbs" limbs
     | None -> "none (the split loses at the widest width)")
    Bigint.karatsuba_threshold;
  Bench_util.subheading "full recursion at 2048-bit operands, by threshold (12 interleaved rounds)";
  Bench_util.print_table
    ~headers:[ "threshold"; "2048-bit multiply µs (IQR)" ]
    (List.map (fun (t, v) -> [ string_of_int t; fmt_us v ]) recursive);
  Printf.printf "best recursive threshold at 2048 bits (median): %d\n" best_threshold;
  print_endline "threshold=1000000 disables Karatsuba (pure schoolbook)."

(* ------------------------------------------------------------------ *)
(* A5 — modular exponentiation: plain division vs per-call Montgomery
   setup (the pre-context behaviour) vs cached context vs fixed-base
   window tables, plus the transparent context cache's hit rate over a
   run of every scheme. *)

(* One measurement row: seconds per exponentiation in each interleaved
   round for each of the four configurations at the given modulus
   width. *)
type modexp_sample = {
  ms_bits : int;
  ms_exp_bits : int;
  t_plain : float array;
  t_per_call : float array;
  t_cached : float array;
  t_fixed_base : float array;
}

let measure_modexp ?exp_bits bits =
  let exp_bits = Option.value ~default:bits exp_bits in
  let prng = Prng.of_int_seed (5 + bits + exp_bits) in
  let src = Prng.byte_source prng in
  let m = Bigint.random_bits src bits in
  let m = if Bigint.is_even m then Bigint.succ m else m in
  let b = Bigint.emod (Bigint.random_bits src bits) m in
  (* Insist on a full-width exponent so every context configuration
     runs the kernel (mod_pow takes the plain loop below 17 bits). *)
  let rec gen_exp () =
    let e = Bigint.random_bits src exp_bits in
    if Bigint.numbits e = exp_bits then e else gen_exp ()
  in
  let e = gen_exp () in
  let ctx = Bigint.Ctx.create m in
  let fb = Bigint.Fixed_base.create ~base:b ~modulus:m ~bits:exp_bits in
  let plain () = Bigint.mod_pow_plain b e m in
  (* Per-call rebuilds the Montgomery context on every exponentiation:
     exactly what every call paid before the transparent cache. *)
  let per_call () = Bigint.Ctx.mod_pow (Bigint.Ctx.create m) b e in
  let cached () = Bigint.Ctx.mod_pow ctx b e in
  let fixed () = Bigint.Fixed_base.pow fb e in
  let t = Bench_util.interleaved [| plain; per_call; cached; fixed |] in
  {
    ms_bits = bits;
    ms_exp_bits = exp_bits;
    t_plain = t.(0);
    t_per_call = t.(1);
    t_cached = t.(2);
    t_fixed_base = t.(3);
  }

(* The two exponent regimes worth reporting: full-width exponents (the
   protocols' common case, where the context setup amortizes to <0.1% of
   the call) and short RSA-style exponents (e around 2^16) over large
   moduli, where per-call context setup is a measurable fraction and the
   cache's win shows up directly. *)
let modexp_workloads =
  List.map (fun bits -> (bits, None)) [ 256; 512; 1024 ]
  @ List.map (fun bits -> (bits, Some 17)) [ 1024; 2048 ]

(* ------------------------------------------------------------------ *)
(* Hot-path round two: CRT Paillier decryption, simultaneous 2-base
   exponentiation, and the domain-parallel batch-encryption executor. *)

type crt_sample = { crt_bits : int; t_plain_dec : float array; t_crt_dec : float array }

let measure_crt bits =
  let prng = Prng.of_int_seed (100 + bits) in
  let sk = Paillier.keygen prng ~bits in
  let pk = Paillier.public sk in
  let ct = Paillier.encrypt prng pk (Bigint.of_int 0x5ec4ed) in
  let t =
    Bench_util.interleaved
      [| (fun () -> Paillier.decrypt_plain sk ct); (fun () -> Paillier.decrypt sk ct) |]
  in
  { crt_bits = bits; t_plain_dec = t.(0); t_crt_dec = t.(1) }

type multi_exp_sample = { me_bits : int; t_separate : float array; t_joint : float array }

let measure_multi_exp bits =
  let prng = Prng.of_int_seed (200 + bits) in
  let src = Prng.byte_source prng in
  let m = Bigint.random_bits src bits in
  let m = if Bigint.is_even m then Bigint.succ m else m in
  let b1 = Bigint.emod (Bigint.random_bits src bits) m in
  let b2 = Bigint.emod (Bigint.random_bits src bits) m in
  let e1 = Bigint.random_bits src bits in
  let e2 = Bigint.random_bits src bits in
  let ctx = Bigint.Ctx.create m in
  let t =
    Bench_util.interleaved
      [| (fun () ->
           Bigint.Ctx.mod_mul ctx (Bigint.Ctx.mod_pow ctx b1 e1) (Bigint.Ctx.mod_pow ctx b2 e2));
         (fun () ->
           Bigint.Ctx.of_mont ctx
             (Bigint.Multi_exp.mont_pow2 ctx (Bigint.Ctx.to_mont ctx b1) e1
                (Bigint.Ctx.to_mont ctx b2) e2)) |]
  in
  { me_bits = bits; t_separate = t.(0); t_joint = t.(1) }

(* Source-side batch encryption: tuples/sec of per-tuple hybrid
   encryption through the Batch executor at each domain count. *)
type batch_sample = { bs_domains : int; bs_seconds : float array }

let batch_tuples = 48
let batch_payload_bytes = 256

let measure_batch ~domain_counts () =
  let group = Group.default ~bits:256 in
  let kp = Elgamal.keygen (Prng.create ~seed:"bench-batch-key") group in
  let pk = Elgamal.public kp in
  let prng = Prng.create ~seed:"bench-batch" in
  let payloads =
    Array.init batch_tuples (fun i ->
        String.make batch_payload_bytes (Char.chr (33 + (i mod 90))))
  in
  let t =
    Bench_util.interleaved ~rounds:5 ~min_time:0.0
      (Array.of_list
         (List.map
            (fun domains () ->
              Batch.map_seeded ~domains ~prng ~label:"bench"
                (fun _ prng p -> Hybrid.encrypt prng pk p)
                payloads)
            domain_counts))
  in
  List.mapi (fun i domains -> { bs_domains = domains; bs_seconds = t.(i) }) domain_counts

(* The ratio of two variants' medians, as "N.NNx". *)
let speedup slow fast =
  Printf.sprintf "%.2fx" (Bench_util.median slow /. Float.max 1e-9 (Bench_util.median fast))

let hot_path_tables () =
  let fmt_ms = Bench_util.fmt_spread in
  let crt = List.map measure_crt [ 512; 1024 ] in
  Bench_util.subheading "CRT Paillier decryption (client's n+m PM decryptions)";
  Bench_util.print_table
    ~headers:[ "key bits"; "decrypt_plain ms (IQR)"; "decrypt CRT ms (IQR)"; "speedup" ]
    (List.map
       (fun s ->
         [ string_of_int s.crt_bits; fmt_ms s.t_plain_dec; fmt_ms s.t_crt_dec;
           speedup s.t_plain_dec s.t_crt_dec ])
       crt);
  let me = List.map measure_multi_exp [ 256; 512; 1024 ] in
  Bench_util.subheading "simultaneous 2-base exponentiation (Straus) vs two mod_pows";
  Bench_util.print_table
    ~headers:[ "modulus bits"; "two mod_pows ms (IQR)"; "joint mont_pow2 ms (IQR)"; "speedup" ]
    (List.map
       (fun s ->
         [ string_of_int s.me_bits; fmt_ms s.t_separate; fmt_ms s.t_joint;
           speedup s.t_separate s.t_joint ])
       me);
  let batch = measure_batch ~domain_counts:[ 1; 2; 4 ] () in
  let tuples_per_sec s = float_of_int batch_tuples /. Float.max 1e-9 (Bench_util.median s.bs_seconds) in
  let base = match batch with s :: _ -> s.bs_seconds | [] -> [| 1.0 |] in
  Bench_util.subheading
    (Printf.sprintf
       "domain-parallel source encryption (%d tuples x %d B, recommended domains on this \
        machine: %d)"
       batch_tuples batch_payload_bytes (Batch.recommended_domains ()));
  Bench_util.print_table
    ~headers:[ "domains"; "tuples/sec (median)"; "speedup vs 1" ]
    (List.map
       (fun s ->
         [ string_of_int s.bs_domains;
           Printf.sprintf "%.1f" (tuples_per_sec s);
           speedup base s.bs_seconds ])
       batch)

let montgomery () =
  Bench_util.heading
    "A5 — modular exponentiation: plain vs per-call Montgomery vs cached context vs \
     fixed-base windows";
  let samples =
    List.map (fun (bits, exp_bits) -> measure_modexp ?exp_bits bits) modexp_workloads
  in
  let fmt = Bench_util.fmt_spread in
  let rows =
    List.map
      (fun s ->
        [ string_of_int s.ms_bits;
          string_of_int s.ms_exp_bits;
          fmt s.t_plain;
          fmt s.t_per_call;
          fmt s.t_cached;
          fmt s.t_fixed_base;
          speedup s.t_per_call s.t_cached;
          speedup s.t_per_call s.t_fixed_base ])
      samples
  in
  Bench_util.print_table
    ~headers:
      [ "modulus bits"; "exp bits"; "plain ms (IQR)"; "per-call ms (IQR)";
        "cached ctx ms (IQR)"; "fixed-base ms (IQR)"; "cached/per-call"; "fixed/per-call" ]
    rows;
  print_endline
    "Each cell is the median of 9 interleaved rounds, with its interquartile range;";
  print_endline "the ratios divide medians.";
  print_endline
    "Full-width exponents amortize the context setup below the measurement noise;";
  print_endline
    "the short-exponent rows (e ~ 2^16 over 1024/2048-bit moduli) isolate the setup";
  print_endline "cost the cached context avoids on every call.";
  (* The transparent cache's efficacy over a run of every scheme.  The
     protocols thread explicit contexts through their own hot loops,
     so the transparent cache only sees the remaining generic mod_pow
     callers (group membership, ElGamal decryption, credentials); run
     every scheme once to exercise them all. *)
  let spec = Experiments.spec_for_domain 8 in
  let env, client, query = Workload.scenario ~params:Experiments.bench_params spec in
  Bigint.ctx_cache_reset ();
  List.iter
    (fun scheme -> ignore (Protocol.run_exn scheme env client ~query))
    Protocol.all_schemes;
  let hits, misses = Bigint.ctx_cache_stats () in
  Printf.printf
    "transparent context cache over one run of every scheme: %d hits / %d misses \
     (%.1f%% hit rate)\n"
    hits misses
    (100.0 *. float_of_int hits /. Float.max 1.0 (float_of_int (hits + misses)));
  (* Round two of the hot path: CRT decryption, joint 2-base
     exponentiation, and the domain-parallel batch executor. *)
  hot_path_tables ()

(* ------------------------------------------------------------------ *)
(* A6 — lean set-operation protocols vs full join + projection. *)

let setops () =
  Bench_util.heading
    "A6 — set operations: lean protocol (no right-side payloads) vs join-based";
  let spec = Experiments.spec_for_domain 16 in
  let left, right = Workload.generate spec in
  let env =
    Env.two_source ~params:Experiments.bench_params ~seed:spec.Workload.seed
      ~left:("L", left) ~right:("R", right) ()
  in
  let client = Env.make_client env ~identity:"bench" ~properties:[ [] ] in
  let semi = Set_ops.run ~on:[ "a_join" ] env client Set_ops.Semi_join ~left:"L" ~right:"R" in
  let join =
    Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client
      ~query:"select * from L natural join R"
  in
  let bytes o = Secmed_mediation.Transcript.total_bytes o.Outcome.transcript in
  let s2 o = Secmed_mediation.Transcript.bytes_sent_by o.Outcome.transcript
      (Secmed_mediation.Transcript.Source 2) in
  Bench_util.print_table
    ~headers:[ "pipeline"; "total bytes"; "right-source bytes"; "correct" ]
    [
      [ "semi-join protocol"; Bench_util.fmt_bytes (bytes semi); Bench_util.fmt_bytes (s2 semi);
        string_of_bool (Outcome.correct semi) ];
      [ "commutative join"; Bench_util.fmt_bytes (bytes join); Bench_util.fmt_bytes (s2 join);
        string_of_bool (Outcome.correct join) ];
    ];
  print_endline "The dedicated semi-join never ships right-source tuple data."

(* ------------------------------------------------------------------ *)
(* A7 — DAS query-translator placement (paper §3.1: client / source /
   mediator settings; only the client setting is described there). *)

let das_settings () =
  Bench_util.heading
    "A7 — DAS translator placement: client vs source vs mediator setting";
  let spec = Experiments.spec_for_domain 16 in
  let env, client, query = Workload.scenario ~params:Experiments.bench_params spec in
  let rows =
    List.map
      (fun setting ->
        let o =
          Das.run ~strategy:(Das_partition.Equi_depth 4) ~setting env client ~query
        in
        let t = o.Outcome.transcript in
        let observed list key =
          match Outcome.observed list key with Some v -> string_of_int v | None -> "-"
        in
        [
          Das.setting_name setting;
          string_of_bool (Outcome.correct o);
          string_of_int (Secmed_mediation.Transcript.sends_by t Secmed_mediation.Transcript.Client);
          Bench_util.fmt_bytes (Secmed_mediation.Transcript.total_bytes t);
          observed o.Outcome.mediator_observed "partitions-R1";
          (match Outcome.observed o.Outcome.mediator_observed "approx-value-centibits-R1" with
           | Some cb -> Printf.sprintf "%.2f bits/tuple" (float_of_int cb /. 100.0)
           | None -> "-");
        ])
      [ Das.Client_setting; Das.Source_setting; Das.Mediator_setting ]
  in
  Bench_util.print_table
    ~headers:
      [ "setting"; "correct"; "client sends"; "total bytes"; "mediator sees partitions";
        "mediator value approximation" ]
    rows;
  print_endline "Paper §6: 'it is crucial to encrypt the index table and let the query";
  print_endline "translator reside on client side' — the mediator setting is cheaper (one";
  print_endline "client interaction) but hands the mediator the partition ranges."

(* ------------------------------------------------------------------ *)
(* Micro: best-of-rounds time per call of the primitives every
   protocol builds on. *)

let micro () =
  Bench_util.heading "Microbenchmarks — cryptographic primitives";
  let prng = Prng.of_int_seed 3 in
  let group = Group.default ~bits:256 in
  let elg = Elgamal.keygen prng group in
  let pk = Elgamal.public elg in
  let hybrid_ct = Hybrid.encrypt prng pk (String.make 256 'x') in
  let comm_key = Commutative.keygen prng group in
  let oracle_point = Random_oracle.hash group "bench" in
  let paillier = Paillier.keygen prng ~bits:512 in
  let ppk = Paillier.public paillier in
  let pct = Paillier.encrypt prng ppk (Bigint.of_int 31337) in
  let exponent = Group.random_exponent prng group in
  let sha_block = String.make 1024 'a' in
  let aes_key = Prng.bytes prng 16 and aes_nonce = Prng.bytes prng 12 in
  let aes_block = String.make 1024 'b' in
  let scalar = Pm_join.root_of_value (Value.Int 7) in
  let cases =
    [
      ("sha256 (1 KiB)", fun () -> ignore (Sha256.digest sha_block));
      ( "aes128-ctr (1 KiB)",
        fun () -> ignore (Aes.ctr_transform ~key:aes_key ~nonce:aes_nonce aes_block) );
      ("modpow 256-bit", fun () -> ignore (Bigint.mod_pow group.Group.g exponent group.Group.p));
      ( "hybrid encrypt (256 B)",
        fun () -> ignore (Hybrid.encrypt prng pk (String.make 256 'x')) );
      ("hybrid decrypt (256 B)", fun () -> ignore (Hybrid.decrypt elg hybrid_ct));
      ("commutative apply", fun () -> ignore (Commutative.apply comm_key oracle_point));
      ("random-oracle hash", fun () -> ignore (Random_oracle.hash group "some-join-value"));
      ( "paillier encrypt (512-bit n)",
        fun () -> ignore (Paillier.encrypt prng ppk (Bigint.of_int 99)) );
      ("paillier decrypt (512-bit n)", fun () -> ignore (Paillier.decrypt paillier pct));
      ( "paillier scalar-mul (128-bit k)",
        fun () -> ignore (Paillier.scalar_mul ppk scalar pct) );
    ]
  in
  Bench_util.subheading "primitive costs";
  Bench_util.print_table ~headers:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, f) -> [ name; Bench_util.fmt_ns (1e9 *. Bench_util.best_time f) ])
       cases)
