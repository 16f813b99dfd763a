(* Differential tests of the domain-parallel Batch executor: order and
   exception semantics, counter merging, bit-identical ciphertext bytes
   at every domain count, and full-protocol equivalence for all five
   schemes when the parallel executor is enabled. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_core

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

let domain_counts = [ 1; 2; 4 ]

let with_domains k f =
  let saved = Batch.default_domains () in
  Batch.set_default_domains k;
  Fun.protect ~finally:(fun () -> Batch.set_default_domains saved) f

(* ------------------------------------------------------------------ *)
(* Executor semantics. *)

let test_parallel_map_basics () =
  let items = Array.init 37 Fun.id in
  let expect = Array.map (fun x -> x * x) items in
  List.iter
    (fun k ->
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains" k)
        expect
        (Batch.parallel_map ~domains:k (fun x -> x * x) items))
    domain_counts;
  Alcotest.(check (array int)) "mapi passes indices"
    (Array.init 10 (fun i -> 2 * i))
    (Batch.parallel_mapi ~domains:3 (fun i x -> i + x) (Array.init 10 Fun.id));
  Alcotest.(check (array int)) "empty input" [||]
    (Batch.parallel_map ~domains:4 Fun.id [||]);
  Alcotest.(check (array int)) "fewer items than domains" [| 7 |]
    (Batch.parallel_map ~domains:4 Fun.id [| 7 |]);
  Alcotest.(check (list int)) "list wrapper" [ 2; 4; 6 ]
    (Batch.map_list ~domains:2 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.check_raises "worker exception propagates" (Invalid_argument "boom")
    (fun () ->
      ignore
        (Batch.parallel_map ~domains:2
           (fun x -> if x = 5 then invalid_arg "boom" else x)
           items));
  Alcotest.check_raises "bad domain count"
    (Invalid_argument "Batch.set_default_domains: must be >= 1") (fun () ->
      Batch.set_default_domains 0)

(* Worker-domain counters must fold back into the caller's open phase:
   the totals and the phase span's ops.* attributes equal the
   sequential run's. *)
let test_counter_merge () =
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-counter-key") group in
  let pk = Elgamal.public kp in
  let prng = Prng.create ~seed:"batch-counter" in
  let payloads = Array.init 12 (fun i -> String.make 40 (Char.chr (65 + i))) in
  let run k =
    let b = Outcome.Builder.create ~scheme:"batch" in
    let ((), counts), t =
      Secmed_obs.Trace.collect (fun () ->
          Counters.with_fresh (fun () ->
              Outcome.Builder.timed b ~party:"S1" "source-encrypt" (fun () ->
                  ignore
                    (Batch.map_seeded ~domains:k ~prng ~label:"cnt"
                       (fun _ prng p -> Hybrid.encrypt prng pk p)
                       payloads))))
    in
    let ops =
      List.concat_map
        (fun s ->
          List.filter
            (fun (key, _) -> String.starts_with ~prefix:"ops." key)
            (Secmed_obs.Trace.attrs s))
        (Secmed_obs.Trace.spans t)
    in
    (ops, counts)
  in
  let ops1, counts1 = run 1 in
  Alcotest.(check int) "sequential run counted hybrid encryptions" 12
    (List.assoc Counters.Hybrid_encrypt counts1);
  Alcotest.(check bool) "phase span carries them" true
    (ops1 = [ ("ops.hybrid-encrypt", Secmed_obs.Json.Int 12) ]);
  List.iter
    (fun k ->
      let opsk, countsk = run k in
      Alcotest.(check bool)
        (Printf.sprintf "totals at %d domains" k)
        true (counts1 = countsk);
      Alcotest.(check bool)
        (Printf.sprintf "phase ops at %d domains" k)
        true (ops1 = opsk))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Bit-identical ciphertext bytes at any domain count. *)

let test_seeded_bit_identical () =
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-bytes-key") group in
  let pk = Elgamal.public kp in
  let prng = Prng.create ~seed:"batch-bytes" in
  let payloads = Array.init 17 (fun i -> String.make (20 + i) (Char.chr (97 + (i mod 26)))) in
  let wire k =
    String.concat ""
      (Array.to_list
         (Array.map Hybrid.to_wire
            (Batch.map_seeded ~domains:k ~prng ~label:"bytes"
               (fun _ prng p -> Hybrid.encrypt prng pk p)
               payloads)))
  in
  let reference = wire 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "bytes at %d domains" k)
        true
        (String.equal reference (wire k)))
    [ 2; 3; 4 ];
  (* The parent stream is not consumed by splitting: a draw after the
     batch is position-independent of the batch size. *)
  let p1 = Prng.create ~seed:"parent-probe" in
  ignore (Batch.map_seeded ~domains:2 ~prng:p1 ~label:"probe"
            (fun _ prng _ -> Prng.bytes prng 8) (Array.make 5 ()));
  let after_batch = Prng.bytes p1 8 in
  let p2 = Prng.create ~seed:"parent-probe" in
  Alcotest.(check string) "parent stream untouched" (Prng.bytes p2 8) after_batch

(* DAS source encryption: the full encrypted relation (ciphertexts and
   index vectors) is byte-identical across domain counts. *)
let test_das_rows_identical () =
  let left, _ = Workload.generate small_spec in
  let group = Group.default ~bits:160 in
  let kp = Elgamal.keygen (Prng.create ~seed:"batch-das-key") group in
  let pk = Elgamal.public kp in
  let join_attrs = [ "a_join" ] in
  let tables =
    [ Das_partition.build (Das_partition.Equi_depth 3) ~relation:"R1" ~attr:"a_join"
        (Relation.column left "a_join") ]
  in
  let encode k =
    let prng = Prng.create ~seed:"batch-das" in
    let er = Das.encrypt_relation ~domains:k prng pk tables ~join_attrs left in
    String.concat ""
      (List.map
         (fun (ct, idx) ->
           Hybrid.to_wire ct
           ^ String.concat ":" (Array.to_list (Array.map string_of_int idx)))
         er.Das.rows)
  in
  let reference = encode 1 in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "rows at %d domains" k)
        true
        (String.equal reference (encode k)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Full protocols: every scheme must produce the same result relation,
   transcript (labels, sizes, order) and counter totals whether the
   batch executor runs on 1, 2 or 4 domains. *)

let test_all_schemes_domain_invariant () =
  let run scheme k =
    with_domains k (fun () ->
        let env, client, query = Workload.scenario ~params:fast small_spec in
        Protocol.run_exn scheme env client ~query)
  in
  List.iter
    (fun scheme ->
      let name = Protocol.scheme_name scheme in
      let reference = run scheme 1 in
      Alcotest.(check bool)
        (Printf.sprintf "%s correct" name)
        true (Outcome.correct reference);
      List.iter
        (fun k ->
          let o = run scheme k in
          Alcotest.(check string)
            (Printf.sprintf "%s result at %d domains" name k)
            (Relation.to_string reference.Outcome.result)
            (Relation.to_string o.Outcome.result);
          Alcotest.(check bool)
            (Printf.sprintf "%s transcript at %d domains" name k)
            true
            (Secmed_mediation.Transcript.messages reference.Outcome.transcript
            = Secmed_mediation.Transcript.messages o.Outcome.transcript);
          Alcotest.(check bool)
            (Printf.sprintf "%s counters at %d domains" name k)
            true
            (reference.Outcome.counters = o.Outcome.counters))
        [ 2; 4 ])
    Protocol.all_schemes

let () =
  Alcotest.run "batch"
    [
      ( "executor",
        [
          Alcotest.test_case "parallel map semantics" `Quick test_parallel_map_basics;
          Alcotest.test_case "counter merge" `Quick test_counter_merge;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "seeded encryption bit-identical" `Quick
            test_seeded_bit_identical;
          Alcotest.test_case "das rows bit-identical" `Quick test_das_rows_identical;
          Alcotest.test_case "all schemes domain-invariant" `Quick
            test_all_schemes_domain_invariant;
        ] );
    ]
