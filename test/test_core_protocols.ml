(* End-to-end tests of the paper's three delivery protocols and the two
   baselines, plus their building blocks (partitioning, polynomials),
   access control, and the machine-checked Table 1 leakage claims. *)

open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation
open Secmed_core

(* Reduced security parameters keep the suite fast; the protocols are
   parameter-independent. *)
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

let scenario ?(spec = small_spec) () = Workload.scenario ~params:fast spec

(* ------------------------------------------------------------------ *)
(* Das_partition. *)

let ints lo hi = List.init (hi - lo + 1) (fun i -> Value.Int (lo + i))

let strategies =
  [ Das_partition.Singleton; Das_partition.Equi_width 3; Das_partition.Equi_depth 3;
    Das_partition.Hash_buckets 3 ]

let test_partition_covers_active_domain () =
  let values = ints 10 29 in
  List.iter
    (fun strategy ->
      let table = Das_partition.build strategy ~relation:"R" ~attr:"a" values in
      List.iter
        (fun v ->
          match Das_partition.index_of_opt table v with
          | Some _ -> ()
          | None ->
            Alcotest.failf "%s: no partition for %s"
              (Das_partition.strategy_name strategy) (Value.to_string v))
        values)
    strategies

let test_partition_identifiers_unique () =
  List.iter
    (fun strategy ->
      let table = Das_partition.build strategy ~relation:"R" ~attr:"a" (ints 0 40) in
      let ids = List.map snd (Das_partition.entries table) in
      Alcotest.(check int)
        (Das_partition.strategy_name strategy)
        (List.length ids)
        (List.length (List.sort_uniq compare ids)))
    strategies

let test_partition_disjoint_within_table () =
  (* A value must fall into exactly one partition of its own table. *)
  List.iter
    (fun strategy ->
      let values = ints 0 20 in
      let table = Das_partition.build strategy ~relation:"R" ~attr:"a" values in
      List.iter
        (fun v ->
          let hits =
            List.filter
              (fun (p, _) -> Das_partition.overlap p (Das_partition.Value_set [ v ]))
              (Das_partition.entries table)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s covers %s once" (Das_partition.strategy_name strategy)
               (Value.to_string v))
            1 (List.length hits))
        values)
    strategies

let test_partition_counts () =
  let values = ints 0 19 in
  let count strategy =
    Das_partition.partition_count (Das_partition.build strategy ~relation:"R" ~attr:"a" values)
  in
  Alcotest.(check int) "singleton" 20 (count Das_partition.Singleton);
  Alcotest.(check int) "equi-depth" 4 (count (Das_partition.Equi_depth 4));
  Alcotest.(check bool) "equi-width bounded" true (count (Das_partition.Equi_width 4) <= 4);
  Alcotest.(check bool) "hash buckets bounded" true (count (Das_partition.Hash_buckets 4) <= 4)

let test_partition_overlap_semantics () =
  let open Das_partition in
  Alcotest.(check bool) "intervals overlap" true (overlap (Interval (0, 5)) (Interval (5, 9)));
  Alcotest.(check bool) "intervals disjoint" false (overlap (Interval (0, 4)) (Interval (5, 9)));
  Alcotest.(check bool) "interval/value" true
    (overlap (Interval (0, 4)) (Value_set [ Value.Int 3 ]));
  Alcotest.(check bool) "value sets" true
    (overlap (Value_set [ Value.Str "a"; Value.Str "b" ]) (Value_set [ Value.Str "b" ]));
  Alcotest.(check bool) "value sets disjoint" false
    (overlap (Value_set [ Value.Str "a" ]) (Value_set [ Value.Str "b" ]))

let test_overlapping_pairs_brute_force () =
  let left = Das_partition.build (Das_partition.Equi_depth 3) ~relation:"R1" ~attr:"a" (ints 0 15) in
  let right = Das_partition.build (Das_partition.Equi_width 4) ~relation:"R2" ~attr:"a" (ints 8 30) in
  let pairs = Das_partition.overlapping_pairs left right in
  let brute =
    List.concat_map
      (fun (p1, i1) ->
        List.filter_map
          (fun (p2, i2) -> if Das_partition.overlap p1 p2 then Some (i1, i2) else None)
          (Das_partition.entries right))
      (Das_partition.entries left)
  in
  Alcotest.(check int) "same pair count" (List.length brute) (List.length pairs)

let test_partition_wire_roundtrip () =
  List.iter
    (fun strategy ->
      let table = Das_partition.build strategy ~relation:"R" ~attr:"a" (ints 0 12) in
      let table' = Das_partition.of_wire (Das_partition.to_wire table) in
      Alcotest.(check string) "relation" (Das_partition.relation table)
        (Das_partition.relation table');
      Alcotest.(check int) "entries"
        (Das_partition.partition_count table)
        (Das_partition.partition_count table');
      List.iter
        (fun v ->
          Alcotest.(check int) "same index"
            (Das_partition.index_of table v)
            (Das_partition.index_of table' v))
        (ints 0 12))
    strategies

let test_partition_string_domain () =
  let values = List.map (fun s -> Value.Str s) [ "ann"; "bob"; "cyd"; "dee"; "eve" ] in
  let table = Das_partition.build (Das_partition.Equi_depth 2) ~relation:"R" ~attr:"n" values in
  Alcotest.(check int) "two partitions" 2 (Das_partition.partition_count table);
  List.iter (fun v -> ignore (Das_partition.index_of table v)) values;
  Alcotest.check_raises "equi-width needs ints"
    (Invalid_argument "Das_partition: equi-width needs an integer domain") (fun () ->
      ignore (Das_partition.build (Das_partition.Equi_width 2) ~relation:"R" ~attr:"n" values))

let test_disclosure_bits () =
  let values = ints 0 15 in
  let bits strategy =
    Das_partition.disclosure_bits
      (Das_partition.build strategy ~relation:"R" ~attr:"a" values)
      values
  in
  let singleton = bits Das_partition.Singleton in
  let coarse = bits (Das_partition.Equi_depth 2) in
  let trivial = bits (Das_partition.Equi_depth 1) in
  Alcotest.(check (float 0.001)) "singleton = full entropy" 4.0 singleton;
  Alcotest.(check (float 0.001)) "one partition leaks nothing" 0.0 trivial;
  Alcotest.(check bool) "finer leaks more" true (singleton > coarse && coarse > trivial)

let test_partition_empty_domain () =
  let table = Das_partition.build Das_partition.Singleton ~relation:"R" ~attr:"a" [] in
  Alcotest.(check int) "no partitions" 0 (Das_partition.partition_count table);
  Alcotest.(check bool) "no index" true (Das_partition.index_of_opt table (Value.Int 1) = None)

(* ------------------------------------------------------------------ *)
(* Pm_poly. *)

let pm_key = lazy (Paillier.keygen (Prng.create ~seed:"pm-poly-tests") ~bits:384)

let test_poly_roots () =
  let sk = Lazy.force pm_key in
  let n = (Paillier.public sk).Paillier.n in
  let roots = List.map Bigint.of_int [ 3; 17; 99 ] in
  let p = Pm_poly.from_roots ~modulus:n roots in
  Alcotest.(check int) "degree" 3 (Pm_poly.degree p);
  List.iter
    (fun r -> Alcotest.(check bool) "vanishes at root" true (Bigint.is_zero (Pm_poly.eval p r)))
    roots;
  Alcotest.(check bool) "non-root" false (Bigint.is_zero (Pm_poly.eval p (Bigint.of_int 4)))

let test_poly_known_coefficients () =
  (* (2 - x)(3 - x) = 6 - 5x + x^2. *)
  let n = Bigint.of_int 1009 in
  let p = Pm_poly.from_roots ~modulus:n [ Bigint.of_int 2; Bigint.of_int 3 ] in
  Alcotest.(check (list string)) "coefficients" [ "6"; "1004"; "1" ]
    (List.map Bigint.to_string (Pm_poly.coefficients p))

let test_poly_empty_roots () =
  let n = Bigint.of_int 101 in
  let p = Pm_poly.from_roots ~modulus:n [] in
  Alcotest.(check int) "degree 0" 0 (Pm_poly.degree p);
  Alcotest.(check string) "constant one" "1" (Bigint.to_string (Pm_poly.eval p (Bigint.of_int 5)))

(* The r of [Pm_poly.eval_masked], replayed from a PRNG seeded as the
   evaluation's was: it is the first draw. *)
let replayed_r prng n = Bigint.succ (Bigint.random_below (Prng.byte_source prng) (Bigint.pred n))

(* What an e-value must decrypt to: r·P(a) + payload mod n. *)
let masked_plain p n ~r ~payload a =
  Bigint.emod (Bigint.add (Bigint.mul r (Pm_poly.eval p a)) payload) n

let test_poly_encrypted_eval () =
  let sk = Lazy.force pm_key in
  let pk = Paillier.public sk in
  let n = pk.Paillier.n in
  let rng = Prng.of_int_seed 8 in
  let roots = List.map Bigint.of_int [ 11; 22; 33; 44 ] in
  let p = Pm_poly.from_roots ~modulus:n roots in
  let tables = Pm_poly.tables pk (Pm_poly.encrypt rng pk p) ~uses:5 in
  List.iter
    (fun x ->
      let x = Bigint.of_int x in
      let seed = Printf.sprintf "eval-%s" (Bigint.to_string x) in
      let got = Pm_poly.eval_masked (Prng.create ~seed) tables x ~payload:Bigint.zero in
      let r = replayed_r (Prng.create ~seed) n in
      Alcotest.(check string) "tabled evaluation = r * plaintext eval"
        (Bigint.to_string (masked_plain p n ~r ~payload:Bigint.zero x))
        (Bigint.to_string (Paillier.decrypt sk got)))
    [ 11; 33; 5; 0; 100 ]

let test_poly_mask_and_add () =
  let sk = Lazy.force pm_key in
  let pk = Paillier.public sk in
  let rng = Prng.of_int_seed 9 in
  let roots = [ Bigint.of_int 7 ] in
  let p = Pm_poly.from_roots ~modulus:pk.Paillier.n roots in
  let tables = Pm_poly.tables pk (Pm_poly.encrypt rng pk p) ~uses:2 in
  let payload = Bigint.of_int 424242 in
  (* At a root, the mask vanishes and the payload survives. *)
  let at_root = Pm_poly.eval_masked rng tables (Bigint.of_int 7) ~payload in
  Alcotest.(check string) "payload at root" "424242"
    (Bigint.to_string (Paillier.decrypt sk at_root));
  (* Away from a root, the decryption is (whp) not the payload. *)
  let away = Pm_poly.eval_masked rng tables (Bigint.of_int 8) ~payload in
  Alcotest.(check bool) "masked away from root" true
    (not (Bigint.equal payload (Paillier.decrypt sk away)));
  Alcotest.check_raises "payload out of range"
    (Invalid_argument "Pm_poly.eval_masked: payload out of range") (fun () ->
      ignore (Pm_poly.eval_masked rng tables (Bigint.of_int 8) ~payload:pk.Paillier.n))

(* The masked evaluation against its plaintext oracle: over degrees 0 to
   16, at the polynomial's 128-bit roots (where it must decrypt to the
   payload exactly) and at other 128-bit and full-width points, every
   e-value decrypts to r·P(a) + payload mod n, with r replayed from an
   identically seeded PRNG and P evaluated in the clear. *)
let prop_poly_masked_eval =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"masked evaluation matches plaintext" ~count:25
       QCheck2.Gen.(pair (int_range 0 16) (int_range 0 1_000_000))
       (fun (degree, seed) ->
         let sk = Lazy.force pm_key in
         let pk = Paillier.public sk in
         let n = pk.Paillier.n in
         let rng = Prng.of_int_seed seed in
         let source = Prng.byte_source rng in
         let roots = List.init degree (fun _ -> Bigint.random_bits source 128) in
         let p = Pm_poly.from_roots ~modulus:n roots in
         let points =
           roots @ [ Bigint.random_bits source 128; Bigint.random_below source n; Bigint.pred n ]
         in
         let tables = Pm_poly.tables pk (Pm_poly.encrypt rng pk p) ~uses:(List.length points) in
         List.for_all
           (fun a ->
             let payload = Bigint.random_below source n in
             let seed = Printf.sprintf "masked-%d-%s" seed (Bigint.to_string a) in
             let got =
               Paillier.decrypt sk (Pm_poly.eval_masked (Prng.create ~seed) tables a ~payload)
             in
             let r = replayed_r (Prng.create ~seed) n in
             Bigint.equal got (masked_plain p n ~r ~payload a)
             && ((not (List.exists (Bigint.equal a) roots)) || Bigint.equal got payload))
           points))

let test_root_of_value_deterministic () =
  Alcotest.(check bool) "same value same root" true
    (Bigint.equal (Pm_join.root_of_value (Value.Int 5)) (Pm_join.root_of_value (Value.Int 5)));
  Alcotest.(check bool) "distinct values distinct roots" true
    (not (Bigint.equal (Pm_join.root_of_value (Value.Int 5)) (Pm_join.root_of_value (Value.Int 6))));
  Alcotest.(check bool) "type-sensitive" true
    (not
       (Bigint.equal (Pm_join.root_of_value (Value.Int 5)) (Pm_join.root_of_value (Value.Str "5"))))

(* ------------------------------------------------------------------ *)
(* End-to-end protocol correctness. *)

let run_scheme ?spec scheme =
  let env, client, query = scenario ?spec () in
  Protocol.run_exn scheme env client ~query

let check_correct name outcome =
  if not (Outcome.correct outcome) then
    Alcotest.failf "%s: result differs from reference join\nresult:\n%s\nexact:\n%s" name
      (Relation.to_string outcome.Outcome.result)
      (Relation.to_string outcome.Outcome.exact)

let test_all_schemes_correct () =
  List.iter
    (fun scheme ->
      check_correct (Protocol.scheme_name scheme) (run_scheme scheme))
    Protocol.all_schemes

let test_das_all_strategies_correct () =
  List.iter
    (fun strategy ->
      check_correct
        (Das_partition.strategy_name strategy)
        (run_scheme (Protocol.Das (strategy, Das.Pair_index))))
    strategies

let test_das_nested_loop_agrees () =
  let a = run_scheme (Protocol.Das (Das_partition.Equi_depth 3, Das.Pair_index)) in
  let b = run_scheme (Protocol.Das (Das_partition.Equi_depth 3, Das.Nested_loop)) in
  check_correct "pair-index" a;
  check_correct "nested-loop" b;
  Alcotest.(check int) "same candidate set size" a.Outcome.client_received_tuples
    b.Outcome.client_received_tuples

let test_commutative_ids_variant () =
  let plain = run_scheme (Protocol.Commutative { use_ids = false }) in
  let ids = run_scheme (Protocol.Commutative { use_ids = true }) in
  check_correct "commutative" plain;
  check_correct "commutative-ids" ids;
  Alcotest.(check bool) "ids variant moves fewer bytes" true
    (Transcript.total_bytes ids.Outcome.transcript
    < Transcript.total_bytes plain.Outcome.transcript)

let test_pm_variants_agree () =
  (* Direct payload needs a larger plaintext space. *)
  let params = { Env.group_bits = 160; paillier_bits = 768 } in
  let spec = { small_spec with rows_left = 6; rows_right = 6; extra_attrs = 0 } in
  let env, client, query = Workload.scenario ~params spec in
  let direct = Protocol.run_exn (Protocol.Private_matching Pm_join.Direct_payload) env client ~query in
  let session = Protocol.run_exn (Protocol.Private_matching Pm_join.Session_keys) env client ~query in
  check_correct "pm-direct" direct;
  check_correct "pm-session" session;
  Alcotest.(check bool) "same result" true
    (Relation.equal_contents direct.Outcome.result session.Outcome.result)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* The CLI's `--rows 16 --distinct 8 --overlap 4` at the default key
   size: a Tup_i(a) of the direct-payload variant outgrows the Paillier
   plaintext space.  That is the evaluating source's typed failure in
   its own phase, not an escaped [Invalid_argument], and the default
   chain degrades to commutative. *)
let test_pm_direct_over_capacity_typed () =
  let spec =
    { Workload.default with rows_left = 16; rows_right = 16; distinct_left = 8;
      distinct_right = 8; overlap = 4 }
  in
  let env, client, query = Workload.scenario spec in
  let scheme = Protocol.Private_matching Pm_join.Direct_payload in
  (match Protocol.run_session ~chain:[] scheme env client ~query with
  | Protocol.Unserved [ (_, f) ] ->
    Alcotest.(check string) "phase" "source-evaluate" f.Protocol.phase;
    Alcotest.(check bool) "blamed on a source" true
      (match f.Protocol.party with Transcript.Source _ -> true | _ -> false);
    Alcotest.(check bool) (Printf.sprintf "reason %S" f.Protocol.reason) true
      (contains f.Protocol.reason "plaintext bytes but the Paillier key holds")
  | Protocol.Unserved _ -> Alcotest.fail "expected exactly one failed scheme"
  | Protocol.Served _ -> Alcotest.fail "an over-capacity Tup_i must not be served");
  match Protocol.run_session scheme env client ~query with
  | Protocol.Served o ->
    check_correct "degraded" o;
    Alcotest.(check string) "served by commutative" "commutative" o.Outcome.scheme
  | Protocol.Unserved _ -> Alcotest.fail "the default chain must degrade to commutative"

let test_multiple_seeds () =
  List.iter
    (fun seed ->
      let spec = { small_spec with seed } in
      List.iter
        (fun scheme ->
          check_correct
            (Printf.sprintf "%s seed %d" (Protocol.scheme_name scheme) seed)
            (run_scheme ~spec scheme))
        Protocol.paper_schemes)
    [ 1; 2; 3 ]

let test_string_join_values () =
  let spec = { small_spec with value_kind = Workload.Strings } in
  List.iter
    (fun scheme ->
      check_correct (Protocol.scheme_name scheme) (run_scheme ~spec scheme))
    [ Protocol.Das (Das_partition.Equi_depth 3, Das.Pair_index);
      Protocol.Commutative { use_ids = false };
      Protocol.Private_matching Pm_join.Session_keys ]

let test_disjoint_domains () =
  let spec = { small_spec with overlap = 0 } in
  List.iter
    (fun scheme ->
      let o = run_scheme ~spec scheme in
      check_correct (Protocol.scheme_name scheme) o;
      Alcotest.(check int)
        (Protocol.scheme_name scheme ^ " empty result")
        0
        (Relation.cardinality o.Outcome.result))
    Protocol.paper_schemes

let test_full_overlap () =
  let spec = { small_spec with overlap = 6 } in
  List.iter
    (fun scheme -> check_correct (Protocol.scheme_name scheme) (run_scheme ~spec scheme))
    Protocol.paper_schemes

let test_duplicate_join_values () =
  (* Many rows per value exercise the Tup_i(a) set machinery. *)
  let spec = { small_spec with rows_left = 24; rows_right = 18; distinct_left = 4;
               distinct_right = 4; overlap = 2 } in
  List.iter
    (fun scheme -> check_correct (Protocol.scheme_name scheme) (run_scheme ~spec scheme))
    Protocol.paper_schemes

(* Composite join keys: the Section 8 extension. *)
let multi_attr_env () =
  let left =
    Relation.of_rows
      (Schema.of_list
         [ ("site", Value.Tstring); ("day", Value.Tint); ("reading", Value.Tint) ])
      [
        [ Value.Str "north"; Value.Int 1; Value.Int 10 ];
        [ Value.Str "north"; Value.Int 2; Value.Int 11 ];
        [ Value.Str "south"; Value.Int 1; Value.Int 12 ];
        [ Value.Str "south"; Value.Int 2; Value.Int 13 ];
        [ Value.Str "north"; Value.Int 1; Value.Int 14 ];
      ]
  in
  let right =
    Relation.of_rows
      (Schema.of_list
         [ ("site", Value.Tstring); ("day", Value.Tint); ("crew", Value.Tstring) ])
      [
        [ Value.Str "north"; Value.Int 1; Value.Str "alpha" ];
        [ Value.Str "south"; Value.Int 2; Value.Str "beta" ];
        [ Value.Str "west"; Value.Int 1; Value.Str "gamma" ];
        [ Value.Str "north"; Value.Int 3; Value.Str "delta" ];
      ]
  in
  (Env.two_source ~params:fast ~seed:5 ~left:("Readings", left) ~right:("Shifts", right) (),
   left, right)

let test_multi_attribute_join () =
  let env, left, right = multi_attr_env () in
  let client = Env.make_client env ~identity:"m" ~properties:[ [] ] in
  let query = "select * from Readings natural join Shifts" in
  (* (north,1) matches twice on the left, (south,2) once: 3 pairs. *)
  let g = Ground_truth.compute_keys left right ~join_attrs:[ "day"; "site" ] in
  Alcotest.(check int) "expected pairs" 3 g.Ground_truth.exact_join_pairs;
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query in
      check_correct ("multi-attr " ^ Protocol.scheme_name scheme) o;
      Alcotest.(check int)
        ("multi-attr size " ^ Protocol.scheme_name scheme)
        3
        (Relation.cardinality o.Outcome.result))
    (Protocol.all_schemes
    @ [ Protocol.Das (Das_partition.Singleton, Das.Pair_index);
        Protocol.Das (Das_partition.Equi_depth 2, Das.Nested_loop) ])

let test_multi_attribute_leakage () =
  let env, left, right = multi_attr_env () in
  let client = Env.make_client env ~identity:"m2" ~properties:[ [] ] in
  let query = "select * from Readings natural join Shifts" in
  let g = Ground_truth.compute_keys left right ~join_attrs:[ "day"; "site" ] in
  let o = Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query in
  let claims = Leakage.verify o ~ground_truth:g in
  if not (Leakage.all_hold claims) then
    Alcotest.failf "multi-attribute leakage claims violated:\n%s"
      (Format.asprintf "%a" Leakage.pp_claims claims)

let test_join_key_module () =
  let k1 = Join_key.of_values [ Value.Int 1; Value.Str "a" ] in
  let k2 = Join_key.of_values [ Value.Int 1; Value.Str "a" ] in
  let k3 = Join_key.of_values [ Value.Int 1; Value.Str "b" ] in
  Alcotest.(check bool) "equal" true (Join_key.equal k1 k2);
  Alcotest.(check bool) "distinct" false (Join_key.equal k1 k3);
  Alcotest.(check bool) "encode injective" true
    (not (String.equal (Join_key.encode k1) (Join_key.encode k3)));
  Alcotest.(check int) "arity" 2 (Join_key.arity k1);
  Alcotest.check_raises "empty rejected" (Invalid_argument "Join_key.of_values: empty key")
    (fun () -> ignore (Join_key.of_values []))

let test_das_translator_settings () =
  let env, client, query = scenario () in
  let run setting = Das.run ~strategy:(Das_partition.Equi_depth 3) ~setting env client ~query in
  let client_o = run Das.Client_setting in
  let source_o = run Das.Source_setting in
  let mediator_o = run Das.Mediator_setting in
  check_correct "client setting" client_o;
  check_correct "source setting" source_o;
  check_correct "mediator setting" mediator_o;
  (* All settings produce the same candidate set (same index tables). *)
  Alcotest.(check int) "same superset" client_o.Outcome.client_received_tuples
    mediator_o.Outcome.client_received_tuples;
  (* Client setting: only the client sees partition structure. *)
  Alcotest.(check bool) "client sees partitions" true
    (Outcome.observed client_o.Outcome.client_observed "partitions-R1" <> None);
  Alcotest.(check bool) "mediator blind in client setting" true
    (Outcome.observed client_o.Outcome.mediator_observed "partitions-R1" = None);
  (* Source setting: S1 learns S2's partition structure, mediator none. *)
  Alcotest.(check bool) "S1 sees S2 partitions" true
    (Option.bind
       (List.assoc_opt 1 source_o.Outcome.sources_observed)
       (List.assoc_opt "partitions-R2")
    <> None);
  Alcotest.(check bool) "mediator blind in source setting" true
    (Outcome.observed source_o.Outcome.mediator_observed "partitions-R1" = None);
  (* Mediator setting: the mediator holds plaintext tables and can
     approximate values. *)
  Alcotest.(check bool) "mediator sees partitions" true
    (Outcome.observed mediator_o.Outcome.mediator_observed "partitions-R1" <> None);
  Alcotest.(check bool) "mediator approximates values" true
    (Option.value ~default:0
       (Outcome.observed mediator_o.Outcome.mediator_observed "approx-value-centibits-R1")
    > 0);
  (* Interaction counts: the client sends only the query in the source
     and mediator settings, twice in the client setting. *)
  let sends o = Transcript.sends_by o.Outcome.transcript Transcript.Client in
  Alcotest.(check int) "client setting: 2 sends" 2 (sends client_o);
  Alcotest.(check int) "source setting: 1 send" 1 (sends source_o);
  Alcotest.(check int) "mediator setting: 1 send" 1 (sends mediator_o)

let test_superset_behaviour () =
  let env, client, query = scenario () in
  let das = Protocol.run_exn (Protocol.Das (Das_partition.Equi_depth 2, Das.Pair_index)) env client ~query in
  let commutative = Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query in
  Alcotest.(check bool) "das superset factor >= 1" true (Outcome.superset_factor das >= 1.0);
  Alcotest.(check (float 0.0001)) "commutative exact" 1.0 (Outcome.superset_factor commutative);
  (* Finer DAS partitions shrink the superset. *)
  let das_fine =
    Protocol.run_exn (Protocol.Das (Das_partition.Singleton, Das.Pair_index)) env client ~query
  in
  Alcotest.(check bool) "singleton minimizes superset" true
    (das_fine.Outcome.client_received_tuples <= das.Outcome.client_received_tuples)

let test_residual_query_clauses () =
  let left, right = Workload.generate small_spec in
  let env = Env.two_source ~params:fast ~left:("R1", left) ~right:("R2", right) () in
  let client = Env.make_client env ~identity:"c" ~properties:[ [] ] in
  let query = "select distinct a_join from R1 natural join R2 where a_join >= 0" in
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query in
      check_correct (Protocol.scheme_name scheme) o;
      Alcotest.(check (list string)) "projected schema" [ "R1.a_join" ]
        (Schema.names (Relation.schema o.Outcome.result)))
    Protocol.paper_schemes

(* ------------------------------------------------------------------ *)
(* Successive joins over three sources (Section 8 extension). *)

let three_source_env () =
  let a =
    Relation.of_rows
      (Schema.of_list [ ("k", Value.Tint); ("x", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ];
        [ Value.Int 3; Value.Int 30 ] ]
  in
  let bb =
    Relation.of_rows
      (Schema.of_list [ ("k", Value.Tint); ("y", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 7 ]; [ Value.Int 2; Value.Int 8 ];
        [ Value.Int 2; Value.Int 9 ]; [ Value.Int 4; Value.Int 7 ] ]
  in
  let c =
    Relation.of_rows
      (Schema.of_list [ ("y", Value.Tint); ("tag", Value.Tstring) ])
      [ [ Value.Int 7; Value.Str "seven" ]; [ Value.Int 8; Value.Str "eight" ];
        [ Value.Int 99; Value.Str "unused" ] ]
  in
  let entry relation source rel =
    { Catalog.relation; source; schema = Relation.schema rel; source_relation = relation }
  in
  let env =
    Env.make ~params:fast ~seed:13
      ~catalog:(Catalog.make [ entry "A" 1 a; entry "B" 2 bb; entry "C" 3 c ])
      ~sources:
        [
          { Env.source_id = 1; relations = [ ("A", a) ]; policy = Policy.open_policy;
            advertised = [] };
          { Env.source_id = 2; relations = [ ("B", bb) ]; policy = Policy.open_policy;
            advertised = [] };
          { Env.source_id = 3; relations = [ ("C", c) ]; policy = Policy.open_policy;
            advertised = [] };
        ]
      ()
  in
  (env, a, bb, c)

let reference_three_way a bb c =
  (* Unqualified chained join, as Multi_join's client computes it. *)
  Relation.natural_join (Relation.natural_join a bb) c

let test_successive_joins () =
  let env, a, bb, c = three_source_env () in
  let client = Env.make_client env ~identity:"chain" ~properties:[ [] ] in
  let chain =
    Multi_join.run env client ~query:"select * from A natural join B natural join C"
  in
  Alcotest.(check int) "two rounds" 2 (List.length chain.Multi_join.stages);
  Alcotest.(check bool) "chain correct" true (Multi_join.correct chain);
  let reference = reference_three_way a bb c in
  Alcotest.(check int) "expected size" (Relation.cardinality reference)
    (Relation.cardinality chain.Multi_join.result);
  Alcotest.(check bool) "matches plaintext three-way join" true
    (Relation.equal_contents reference
       (Relation.make
          (Relation.schema reference)
          (Relation.tuples chain.Multi_join.result)))

let test_successive_joins_all_schemes () =
  let env, a, bb, c = three_source_env () in
  let client = Env.make_client env ~identity:"chain2" ~properties:[ [] ] in
  let reference = reference_three_way a bb c in
  List.iter
    (fun scheme ->
      let chain =
        Multi_join.run ~scheme env client
          ~query:"select * from A natural join B natural join C"
      in
      Alcotest.(check bool)
        ("chain with " ^ Protocol.scheme_name scheme)
        true (Multi_join.correct chain);
      Alcotest.(check int)
        ("size with " ^ Protocol.scheme_name scheme)
        (Relation.cardinality reference)
        (Relation.cardinality chain.Multi_join.result))
    Protocol.paper_schemes

let test_successive_joins_residuals () =
  let env, _, _, _ = three_source_env () in
  let client = Env.make_client env ~identity:"chain3" ~properties:[ [] ] in
  let chain =
    Multi_join.run env client
      ~query:"select distinct tag from A natural join B natural join C where x < 25"
  in
  Alcotest.(check bool) "chain correct" true (Multi_join.correct chain);
  Alcotest.(check (list string)) "projected schema"
    (Schema.names (Relation.schema chain.Multi_join.result))
    (Schema.names (Relation.schema chain.Multi_join.exact));
  (* k=1 -> y=7 -> seven; k=2 (x=20) -> y in {8,9} -> eight. *)
  Alcotest.(check int) "distinct tags" 2 (Relation.cardinality chain.Multi_join.result)

let test_successive_joins_unsupported () =
  let env, _, _, _ = three_source_env () in
  let client = Env.make_client env ~identity:"chain4" ~properties:[ [] ] in
  let rejects query =
    match Multi_join.run env client ~query with
    | exception Multi_join.Unsupported _ -> ()
    | _ -> Alcotest.failf "should reject %S" query
  in
  rejects "select * from A";
  rejects "select * from A join B on A.k = B.k natural join C";
  rejects "select A.x from A natural join B natural join C"

(* ------------------------------------------------------------------ *)
(* Set operations (Section 8 extension). *)

let setop_env () =
  let schema = Schema.of_list [ ("part", Value.Tstring); ("qty", Value.Tint) ] in
  let left =
    Relation.of_rows schema
      [ [ Value.Str "bolt"; Value.Int 5 ]; [ Value.Str "nut"; Value.Int 3 ];
        [ Value.Str "washer"; Value.Int 9 ]; [ Value.Str "bolt"; Value.Int 5 ] ]
  in
  let right =
    Relation.of_rows schema
      [ [ Value.Str "bolt"; Value.Int 5 ]; [ Value.Str "nut"; Value.Int 7 ];
        [ Value.Str "gear"; Value.Int 1 ] ]
  in
  (Env.two_source ~params:fast ~seed:21 ~left:("Stock", left) ~right:("Order", right) (),
   left, right)

let run_setop ?on op =
  let env, _, _ = setop_env () in
  let client = Env.make_client env ~identity:"ops" ~properties:[ [] ] in
  Set_ops.run ?on env client op ~left:"Stock" ~right:"Order"

let test_intersection () =
  let o = run_setop Set_ops.Intersection in
  check_correct "intersection" o;
  (* Only (bolt,5) appears in both, once (set semantics). *)
  Alcotest.(check int) "one common tuple" 1 (Relation.cardinality o.Outcome.result);
  (* Leakage claims: the mediator learns the (whole-tuple) key-set sizes. *)
  let _, left, right = setop_env () in
  let g = Ground_truth.compute_keys left right ~join_attrs:[ "part"; "qty" ] in
  let claims = Leakage.verify o ~ground_truth:g in
  if claims = [] || not (Leakage.all_hold claims) then
    Alcotest.failf "intersection leakage claims violated:\n%s"
      (Format.asprintf "%a" Leakage.pp_claims claims)

let test_difference () =
  let o = run_setop Set_ops.Difference in
  check_correct "difference" o;
  (* Distinct left tuples not in right: (nut,3) and (washer,9). *)
  Alcotest.(check int) "two remaining" 2 (Relation.cardinality o.Outcome.result)

let test_semi_join () =
  (* On the common attributes (whole layout) this equals intersection with
     bag semantics; restrict to the part attribute for a real semi-join. *)
  let o = run_setop ~on:[ "part" ] Set_ops.Semi_join in
  check_correct "semi-join" o;
  (* Stock tuples whose part occurs in Order: bolt x2, nut. *)
  Alcotest.(check int) "matched rows" 3 (Relation.cardinality o.Outcome.result)

let test_setop_layout_mismatch () =
  let left =
    Relation.of_rows (Schema.of_list [ ("a", Value.Tint) ]) [ [ Value.Int 1 ] ]
  in
  let right =
    Relation.of_rows (Schema.of_list [ ("a", Value.Tint); ("b", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 2 ] ]
  in
  let env = Env.two_source ~params:fast ~seed:3 ~left:("L", left) ~right:("R", right) () in
  let client = Env.make_client env ~identity:"x" ~properties:[ [] ] in
  match Set_ops.run env client Set_ops.Intersection ~left:"L" ~right:"R" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "layout mismatch must be rejected"

let test_setop_right_source_ships_no_tuples () =
  (* The lean protocol: S2 transmits only fixed-size hashes, so its
     outbound volume is far below the full join protocol's. *)
  let env, _, _ = setop_env () in
  let client = Env.make_client env ~identity:"t" ~properties:[ [] ] in
  let semi = Set_ops.run ~on:[ "part" ] env client Set_ops.Semi_join ~left:"Stock" ~right:"Order" in
  let join =
    Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client
      ~query:"select * from Stock natural join Order"
  in
  let sent o = Transcript.bytes_sent_by o.Outcome.transcript (Transcript.Source 2) in
  Alcotest.(check bool) "S2 sends less in the semi-join" true (sent semi < sent join)

(* ------------------------------------------------------------------ *)
(* Every query class's transcript — (sender, receiver, label, size) per
   message, in order — pinned to literals, so that reworking the message
   path or the commutative round cannot move a byte of the paper's
   communication accounting unnoticed. *)

let pinned_transcripts =
  let open Transcript in
  [
      ( "intersection",
        [
          (Client, Mediator, "global-query", 185);
          (Mediator, Source 1, "partial-query", 175);
          (Mediator, Source 2, "partial-query", 175);
          (Source 1, Mediator, "M_1(keys+payloads)", 690);
          (Source 2, Mediator, "M_2(keys)", 100);
          (Mediator, Source 2, "hashes-1", 140);
          (Mediator, Source 1, "hashes-2", 100);
          (Source 1, Mediator, "doubly-encrypted-2", 100);
          (Source 2, Mediator, "doubly-encrypted-1", 140);
          (Mediator, Client, "selected-payloads", 354);
        ] );
      ( "semi-join",
        [
          (Client, Mediator, "global-query", 185);
          (Mediator, Source 1, "partial-query", 175);
          (Mediator, Source 2, "partial-query", 175);
          (Source 1, Mediator, "M_1(keys+payloads)", 890);
          (Source 2, Mediator, "M_2(keys)", 100);
          (Mediator, Source 2, "hashes-1", 140);
          (Mediator, Source 1, "hashes-2", 100);
          (Source 1, Mediator, "doubly-encrypted-2", 100);
          (Source 2, Mediator, "doubly-encrypted-1", 140);
          (Mediator, Client, "selected-payloads", 536);
        ] );
      ( "difference",
        [
          (Client, Mediator, "global-query", 185);
          (Mediator, Source 1, "partial-query", 175);
          (Mediator, Source 2, "partial-query", 175);
          (Source 1, Mediator, "M_1(keys+payloads)", 690);
          (Source 2, Mediator, "M_2(keys)", 100);
          (Mediator, Source 2, "hashes-1", 140);
          (Mediator, Source 1, "hashes-2", 100);
          (Source 1, Mediator, "doubly-encrypted-2", 100);
          (Source 2, Mediator, "doubly-encrypted-1", 140);
          (Mediator, Client, "selected-payloads", 236);
        ] );
      ( "aggregate",
        [
          (Client, Mediator, "global-query", 239);
          (Mediator, Source 1, "partial-query", 175);
          (Mediator, Source 2, "partial-query", 175);
          (Source 1, Mediator, "agg-bundles", 830);
          (Source 2, Mediator, "agg-bundles", 750);
          (Mediator, Source 2, "hashes-1", 140);
          (Mediator, Source 1, "hashes-2", 140);
          (Source 1, Mediator, "doubly-encrypted", 140);
          (Source 2, Mediator, "doubly-encrypted", 140);
          (Mediator, Client, "matched-bundles", 828);
        ] );
      ( "aggregate-homomorphic",
        [
          (Client, Mediator, "global-query", 215);
          (Mediator, Source 1, "partial-query", 175);
          (Mediator, Source 2, "partial-query", 175);
          (Source 1, Mediator, "hashes", 100);
          (Source 2, Mediator, "agg-ciphertexts", 1060);
          (Mediator, Source 2, "hashes-1", 100);
          (Mediator, Source 1, "hashes-2", 140);
          (Source 1, Mediator, "doubly-encrypted", 140);
          (Source 2, Mediator, "doubly-encrypted", 100);
          (Mediator, Client, "aggregate-totals", 192);
        ] );
      ( "das-select",
        [
          (Client, Mediator, "global-query", 184);
          (Mediator, Source 1, "partial-query", 155);
          (Source 1, Mediator, "RS+enc(ITables)", 1520);
          (Mediator, Client, "enc(ITables)", 250);
          (Client, Mediator, "server-query-qS", 24);
          (Mediator, Client, "RC", 714);
        ] );
  ]

let test_query_class_transcripts () =
  List.iter
    (fun (name, expected) ->
      let o = (Query_classes.find name).Query_classes.run None in
      check_correct name o;
      let actual =
        List.map
          (fun m -> (m.Transcript.sender, m.Transcript.receiver, m.Transcript.label, m.Transcript.size))
          (Transcript.messages o.Outcome.transcript)
      in
      let show (s, r, l, n) =
        Printf.sprintf "%s->%s %s %d" (Transcript.party_name s) (Transcript.party_name r) l n
      in
      Alcotest.(check (list string)) name (List.map show expected) (List.map show actual))
    pinned_transcripts

(* ------------------------------------------------------------------ *)
(* DAS exposed internals. *)

let das_internal_env () =
  let prng = Prng.of_int_seed 71 in
  let group = Group.default ~bits:160 in
  let sk = Elgamal.keygen prng group in
  (prng, sk)

let test_das_encrypt_relation_internals () =
  let prng, sk = das_internal_env () in
  let relation =
    Relation.of_rows
      (Schema.of_list [ ("k", Value.Tint); ("v", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ] ]
  in
  let table =
    Das_partition.build Das_partition.Singleton ~relation:"T" ~attr:"k"
      (Relation.column relation "k")
  in
  let er =
    Das.encrypt_relation prng (Elgamal.public sk) [ table ] ~join_attrs:[ "k" ] relation
  in
  Alcotest.(check int) "rows" 2 (List.length er.Das.rows);
  Alcotest.(check bool) "size accounted" true (er.Das.wire_size > 0);
  (* Each etuple decrypts back to its row. *)
  List.iter
    (fun (ct, _) ->
      match Secmed_crypto.Hybrid.decrypt sk ct with
      | Some blob -> ignore (Tuple.decode blob)
      | None -> Alcotest.fail "etuple must decrypt")
    er.Das.rows;
  (* Table-count mismatch is rejected. *)
  match Das.encrypt_relation prng (Elgamal.public sk) [] ~join_attrs:[ "k" ] relation with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing index table must be rejected"

(* Step 7 decrypts each distinct R_C ciphertext once.  Under singleton
   partitions R_C holds exactly the joining pairs, and each source row has
   one ciphertext, so the distinct ciphertexts are the rows of either side
   whose join value the other side has.  The client's other decryptions
   are the two index tables of step 2. *)
let das_singleton = Protocol.Das (Das_partition.Singleton, Das.Pair_index)

let test_das_decrypts_each_ciphertext_once () =
  let env, client, query = scenario () in
  let o, trace =
    Secmed_obs.Trace.collect (fun () -> Protocol.run_exn das_singleton env client ~query)
  in
  check_correct "das" o;
  let client_decrypts =
    List.fold_left
      (fun acc span ->
        let attr k = Secmed_obs.Trace.find_attr span k in
        match (attr "party", attr "ops.hybrid-decrypt") with
        | Some (Secmed_obs.Json.Str "Client"), Some (Secmed_obs.Json.Int n) -> acc + n
        | _ -> acc)
      0 (Secmed_obs.Trace.spans trace)
  in
  let join_values id =
    match (Env.source_by_id env id).Env.relations with
    | [ (_, r) ] -> Relation.column r "a_join"
    | _ -> Alcotest.fail "one relation per source"
  in
  let left = join_values 1 and right = join_values 2 in
  let joining mine theirs = List.length (List.filter (fun v -> List.mem v theirs) mine) in
  let distinct = joining left right + joining right left in
  let pairs = o.Outcome.client_received_tuples in
  Alcotest.(check bool) "ciphertexts recur across pairs" true (2 * pairs > distinct);
  Alcotest.(check int) "one decryption per distinct ciphertext" (distinct + 2) client_decrypts;
  (* The transcript is the one the per-pair decryption produced: the memo
     changes what the client computes, not what crosses the wire. *)
  Alcotest.(check (list (triple string string int)))
    "transcript"
    [
      ("Client->Mediator", "global-query", 185);
      ("Mediator->Source1", "partial-query", 175);
      ("Mediator->Source2", "partial-query", 175);
      ("Source1->Mediator", "R1S+ITables", 1842);
      ("Source2->Mediator", "R2S+ITables", 1842);
      ("Mediator->Client", "enc(ITables_R1)", 318);
      ("Mediator->Client", "enc(ITables_R2)", 318);
      ("Client->Mediator", "server-query-qS", 48);
      ("Mediator->Client", "RC", 3094);
    ]
    (List.map
       (fun m ->
         Transcript.
           ( party_name m.sender ^ "->" ^ party_name m.receiver,
             m.label,
             m.size ))
       (Transcript.messages o.Outcome.transcript))

(* Decrypting once still authenticates every distinct ciphertext: a source
   whose etuples fail their MAC is caught at the client, typed. *)
let test_das_tampered_etuple_fails_typed () =
  let env, client, query = scenario () in
  let plan = Fault.plan ~byzantine:[ (1, Fault.Malformed_ciphertexts) ] [] in
  match Protocol.run ~fault:plan das_singleton env client ~query with
  | Protocol.Ok _ -> Alcotest.fail "a tampered etuple must not decrypt"
  | Protocol.Fault f ->
    Alcotest.(check string) "phase" "client-postprocess" f.Protocol.phase;
    Alcotest.(check bool) "party" true (f.Protocol.party = Transcript.Client);
    Alcotest.(check bool) "reason" true
      (String.starts_with ~prefix:"authentication failure decrypting etuple"
         f.Protocol.reason)

let test_das_server_condition_shape () =
  let domain = ints 0 7 in
  let t1 = Das_partition.build (Das_partition.Equi_depth 2) ~relation:"R1" ~attr:"a" domain in
  let t2 = Das_partition.build (Das_partition.Equi_depth 2) ~relation:"R2" ~attr:"a" domain in
  let cond = Das.server_condition ~left_tables:[ t1 ] ~right_tables:[ t2 ] in
  (* 2x2 partitions over the same domain: the diagonal pairs overlap. *)
  Alcotest.(check int) "condition size"
    (2 * List.length (Das_partition.overlapping_pairs t1 t2))
    (Predicate.size cond);
  let pairs = Das.server_query_pairs ~left_tables:[ t1 ] ~right_tables:[ t2 ] in
  Alcotest.(check int) "one attribute" 1 (List.length pairs);
  (* No pairs -> empty candidate set regardless of rows. *)
  let prng, sk = das_internal_env () in
  let relation =
    Relation.of_rows (Schema.of_list [ ("a", Value.Tint) ]) [ [ Value.Int 1 ] ]
  in
  let table = Das_partition.build Das_partition.Singleton ~relation:"X" ~attr:"a"
      (Relation.column relation "a") in
  let er = Das.encrypt_relation prng (Elgamal.public sk) [ table ] ~join_attrs:[ "a" ] relation in
  Alcotest.(check int) "no compatible pairs" 0
    (List.length (Das.server_join Das.Pair_index [ [] ] er er))

(* ------------------------------------------------------------------ *)
(* DAS condition translation and the selection protocol. *)

let translate_tables domain strategy =
  let table = Das_partition.build strategy ~relation:"T" ~attr:"a" domain in
  fun name -> if String.equal name "a" then Some table else None

(* Soundness oracle: every domain value satisfying the plaintext condition
   must fall in a partition kept by the server condition. *)
let check_translation_sound domain strategy predicate =
  let tables = translate_tables domain strategy in
  let server = Das_translate.translate ~tables predicate in
  let table = Option.get (tables "a") in
  let plain_schema = Schema.of_list [ ("a", Value.Tint) ] in
  let index_schema = Schema.of_list [ ("idx_a", Value.Tint) ] in
  List.for_all
    (fun v ->
      let satisfies =
        Predicate.eval plain_schema (Tuple.of_list [ v ]) predicate
      in
      (not satisfies)
      ||
      let index = Das_partition.index_of table v in
      Predicate.eval index_schema (Tuple.of_list [ Value.Int index ]) server)
    domain

let test_translate_atoms_sound () =
  let domain = ints 0 31 in
  let open Predicate in
  let predicates =
    [ eq_const "a" (Value.Int 7);
      Cmp (Lt, Attr "a", Const (Value.Int 13));
      Cmp (Ge, Attr "a", Const (Value.Int 20));
      Cmp (Ne, Attr "a", Const (Value.Int 7));
      Cmp (Gt, Const (Value.Int 9), Attr "a");
      In (Attr "a", [ Value.Int 1; Value.Int 30 ]);
      Not (In (Attr "a", [ Value.Int 1; Value.Int 30 ]));
      And (Cmp (Ge, Attr "a", Const (Value.Int 5)), Cmp (Le, Attr "a", Const (Value.Int 10)));
      Or (eq_const "a" (Value.Int 0), eq_const "a" (Value.Int 31));
      Not (And (Cmp (Lt, Attr "a", Const (Value.Int 9)), Cmp (Gt, Attr "a", Const (Value.Int 3))));
      True;
      Not True ]
  in
  List.iter
    (fun strategy ->
      List.iteri
        (fun i p ->
          if not (check_translation_sound domain strategy p) then
            Alcotest.failf "%s: predicate %d translated unsoundly"
              (Das_partition.strategy_name strategy) i)
        predicates)
    strategies

let test_translate_precision () =
  (* With singleton partitions the translation is exact for equality. *)
  let domain = ints 0 9 in
  let tables = translate_tables domain Das_partition.Singleton in
  let server = Das_translate.translate ~tables (Predicate.eq_const "a" (Value.Int 4)) in
  (match server with
   | Predicate.In (_, [ Value.Int _ ]) -> ()
   | _ -> Alcotest.failf "expected a single-id IN, got %s" (Predicate.to_string server));
  (* Unknown attributes translate to True (sound). *)
  let server = Das_translate.translate ~tables (Predicate.eq_const "ghost" (Value.Int 1)) in
  Alcotest.(check string) "unknown attr" "true" (Predicate.to_string server);
  (* Unsatisfiable conditions collapse to False. *)
  let server = Das_translate.translate ~tables (Predicate.eq_const "a" (Value.Int 99)) in
  Alcotest.(check string) "out of domain" "false" (Predicate.to_string server)

let prop_translation_sound =
  let prng = Secmed_crypto.Prng.of_int_seed 55 in
  let gen_atom =
    QCheck2.Gen.(
      let* op = oneofl [ Predicate.Eq; Ne; Lt; Le; Gt; Ge ] in
      let* v = int_range (-5) 40 in
      return (Predicate.Cmp (op, Predicate.Attr "a", Predicate.Const (Value.Int v))))
  in
  let rec gen_pred depth =
    if depth = 0 then gen_atom
    else
      QCheck2.Gen.(
        let* shape = int_range 0 3 in
        match shape with
        | 0 -> gen_atom
        | 1 ->
          let* a = gen_pred (depth - 1) and* b = gen_pred (depth - 1) in
          return (Predicate.And (a, b))
        | 2 ->
          let* a = gen_pred (depth - 1) and* b = gen_pred (depth - 1) in
          return (Predicate.Or (a, b))
        | _ ->
          let* a = gen_pred (depth - 1) in
          return (Predicate.Not a))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random predicates translate soundly" ~count:200
       (QCheck2.Gen.pair (gen_pred 3) (QCheck2.Gen.int_range 1 6))
       (fun (predicate, k) ->
         let size = 8 + Secmed_crypto.Prng.uniform_int prng 24 in
         let domain = ints 0 (size - 1) in
         List.for_all
           (fun strategy -> check_translation_sound domain strategy predicate)
           [ Das_partition.Singleton; Das_partition.Equi_depth k;
             Das_partition.Equi_width k; Das_partition.Hash_buckets k ]))

let select_env () =
  let inventory =
    Relation.of_rows
      (Schema.of_list
         [ ("sku", Value.Tint); ("price", Value.Tint); ("label", Value.Tstring) ])
      (List.init 20 (fun i ->
           [ Value.Int i; Value.Int (10 * i); Value.Str (if i mod 2 = 0 then "even" else "odd") ]))
  in
  let dummy = Relation.of_rows (Schema.of_list [ ("x", Value.Tint) ]) [ [ Value.Int 0 ] ] in
  Env.two_source ~params:fast ~seed:29 ~left:("Inventory", inventory) ~right:("Dummy", dummy) ()

let run_select ?strategy query =
  let env = select_env () in
  let client = Env.make_client env ~identity:"sel" ~properties:[ [] ] in
  Select_query.run ?strategy env client ~query

let test_select_query_end_to_end () =
  List.iter
    (fun query ->
      List.iter
        (fun strategy ->
          let o = run_select ~strategy query in
          check_correct (query ^ " / " ^ Das_partition.strategy_name strategy) o)
        strategies)
    [ "select * from Inventory where price < 50";
      "select * from Inventory where price >= 120 and price <= 160";
      "select sku from Inventory where label = 'even' and price > 100";
      "select * from Inventory where sku in (1, 5, 19)";
      "select * from Inventory where not (price < 180)";
      "select distinct label from Inventory" ]

let test_select_query_superset () =
  (* Coarse partitions return a superset; the count is visible to the
     mediator and bounded below by the true result. *)
  let o = run_select ~strategy:(Das_partition.Equi_depth 2) "select * from Inventory where price < 30" in
  check_correct "superset run" o;
  let exact = Relation.cardinality o.Outcome.exact in
  Alcotest.(check bool) "superset" true (o.Outcome.client_received_tuples >= exact);
  let fine = run_select ~strategy:Das_partition.Singleton "select * from Inventory where price < 30" in
  Alcotest.(check int) "singleton is tight" exact fine.Outcome.client_received_tuples

let test_select_query_unsupported () =
  let rejects query =
    match run_select query with
    | exception Select_query.Unsupported _ -> ()
    | _ -> Alcotest.failf "should reject %S" query
  in
  rejects "select * from Inventory natural join Dummy";
  rejects "select count(*) from Inventory";
  rejects "select * from Ghost"

(* ------------------------------------------------------------------ *)
(* Encrypted aggregation (related-work query class, Section 7). *)

let agg_env () =
  let purchases =
    Relation.of_rows
      (Schema.of_list [ ("cust", Value.Tint); ("segment", Value.Tstring) ])
      [ [ Value.Int 1; Value.Str "gold" ]; [ Value.Int 2; Value.Str "silver" ];
        [ Value.Int 3; Value.Str "gold" ]; [ Value.Int 9; Value.Str "none" ] ]
  in
  let orders =
    Relation.of_rows
      (Schema.of_list [ ("cust", Value.Tint); ("amount", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 100 ]; [ Value.Int 1; Value.Int 50 ];
        [ Value.Int 2; Value.Int 70 ]; [ Value.Int 3; Value.Int 10 ];
        [ Value.Int 7; Value.Int 999 ] ]
  in
  Env.two_source ~params:fast ~seed:17 ~left:("Customers", purchases)
    ~right:("Orders", orders) ()

let run_agg ?strategy query =
  let env = agg_env () in
  let client = Env.make_client env ~identity:"agg" ~properties:[ [] ] in
  Aggregate_join.run ?strategy env client ~query

let test_aggregate_scalar () =
  let o = run_agg "select count(*), sum(amount) from Customers natural join Orders" in
  check_correct "scalar aggregates" o;
  match Relation.tuples o.Outcome.result with
  | [ t ] ->
    (* Matching pairs: cust 1 (2 orders), 2 (1), 3 (1) -> count 4, sum 230. *)
    Alcotest.(check string) "count" "4" (Value.to_string (Tuple.get t 0));
    Alcotest.(check string) "sum" "230" (Value.to_string (Tuple.get t 1))
  | _ -> Alcotest.fail "expected one row"

let test_aggregate_grouped () =
  let o =
    run_agg
      "select cust, count(*), sum(amount) as spent, min(amount), max(amount), avg(amount) \
       from Customers natural join Orders group by cust"
  in
  check_correct "grouped aggregates" o;
  Alcotest.(check int) "three groups" 3 (Relation.cardinality o.Outcome.result);
  (* Leakage: the mediator derives the same quantities as in Listing 3. *)
  let purchases_g =
    let left =
      Relation.of_rows
        (Schema.of_list [ ("cust", Value.Tint); ("segment", Value.Tstring) ])
        [ [ Value.Int 1; Value.Str "gold" ]; [ Value.Int 2; Value.Str "silver" ];
          [ Value.Int 3; Value.Str "gold" ]; [ Value.Int 9; Value.Str "none" ] ]
    in
    let right =
      Relation.of_rows
        (Schema.of_list [ ("cust", Value.Tint); ("amount", Value.Tint) ])
        [ [ Value.Int 1; Value.Int 100 ]; [ Value.Int 1; Value.Int 50 ];
          [ Value.Int 2; Value.Int 70 ]; [ Value.Int 3; Value.Int 10 ];
          [ Value.Int 7; Value.Int 999 ] ]
    in
    Ground_truth.compute left right ~join_attr:"cust"
  in
  let claims = Leakage.verify o ~ground_truth:purchases_g in
  if claims = [] || not (Leakage.all_hold claims) then
    Alcotest.failf "aggregate leakage claims violated:\n%s"
      (Format.asprintf "%a" Leakage.pp_claims claims)

let test_aggregate_left_side_column () =
  (* Aggregating a column of the left relation (min over segment strings
     is rejected; use min over cust ints on the left). *)
  let o = run_agg "select min(cust), count(*) from Customers natural join Orders" in
  check_correct "left-side aggregate" o

let test_aggregate_homomorphic () =
  let o =
    run_agg ~strategy:Aggregate_join.Homomorphic
      "select count(*), sum(amount) from Customers natural join Orders"
  in
  check_correct "homomorphic aggregates" o;
  (* The client receives exactly one ciphertext per aggregate. *)
  Alcotest.(check (option int)) "ciphertexts" (Some 2)
    (Outcome.observed o.Outcome.client_observed "ciphertexts-received");
  (* Paillier additions actually happened at the mediator. *)
  Alcotest.(check bool) "homomorphic additions" true
    (Option.value ~default:0
       (List.assoc_opt Secmed_crypto.Counters.Homomorphic_add o.Outcome.counters)
    > 0)

let test_aggregate_homomorphic_unsupported () =
  let rejects ?strategy query =
    match run_agg ?strategy query with
    | exception Aggregate_join.Unsupported _ -> ()
    | _ -> Alcotest.failf "should reject %S" query
  in
  rejects ~strategy:Aggregate_join.Homomorphic
    "select cust, sum(amount) from Customers natural join Orders group by cust";
  rejects ~strategy:Aggregate_join.Homomorphic
    "select min(amount) from Customers natural join Orders";
  (* Duplicate left join keys break the c1 = 1 precondition. *)
  let dup =
    Relation.of_rows
      (Schema.of_list [ ("cust", Value.Tint); ("segment", Value.Tstring) ])
      [ [ Value.Int 1; Value.Str "a" ]; [ Value.Int 1; Value.Str "b" ] ]
  in
  let orders =
    Relation.of_rows
      (Schema.of_list [ ("cust", Value.Tint); ("amount", Value.Tint) ])
      [ [ Value.Int 1; Value.Int 5 ] ]
  in
  let env = Env.two_source ~params:fast ~seed:18 ~left:("L", dup) ~right:("R", orders) () in
  let client = Env.make_client env ~identity:"dup" ~properties:[ [] ] in
  match
    Aggregate_join.run ~strategy:Aggregate_join.Homomorphic env client
      ~query:"select sum(amount) from L natural join R"
  with
  | exception Aggregate_join.Unsupported _ -> ()
  | _ -> Alcotest.fail "duplicate left keys must be rejected"

let test_aggregate_unsupported_shapes () =
  let rejects query =
    match run_agg query with
    | exception Aggregate_join.Unsupported _ -> ()
    | _ -> Alcotest.failf "should reject %S" query
  in
  rejects "select * from Customers natural join Orders";
  rejects "select count(*) from Customers natural join Orders where amount > 10";
  rejects "select segment, count(*) from Customers natural join Orders group by segment";
  rejects "select sum(ghost) from Customers natural join Orders";
  (* Aggregating the join attribute itself is fine (both sides agree). *)
  check_correct "sum over join attribute"
    (run_agg "select sum(cust) from Customers natural join Orders")

let test_aggregate_via_join_protocols () =
  (* The ordinary join protocols also answer aggregation queries (the
     client aggregates after decryption); results must agree with the
     dedicated protocol. *)
  let env = agg_env () in
  let client = Env.make_client env ~identity:"agg2" ~properties:[ [] ] in
  let query = "select cust, sum(amount) as spent from Customers natural join Orders group by cust" in
  let via_join = Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query in
  let via_agg = Aggregate_join.run env client ~query in
  check_correct "via join" via_join;
  check_correct "via aggregate protocol" via_agg;
  Alcotest.(check bool) "same results" true
    (Relation.equal_contents via_join.Outcome.result via_agg.Outcome.result);
  (* The aggregation protocol ships less data. *)
  Alcotest.(check bool) "less traffic" true
    (Transcript.total_bytes via_agg.Outcome.transcript
    < Transcript.total_bytes via_join.Outcome.transcript)

(* ------------------------------------------------------------------ *)
(* End-to-end property: random workloads, every protocol stays exact. *)

let prop_random_workloads =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random workloads run correctly" ~count:10
       QCheck2.Gen.(
         tup5 (int_range 2 5) (int_range 2 5) (int_range 0 2) (int_range 1 1000)
           (int_range 0 4))
       (fun (distinct_left, distinct_right, extra_overlap, seed, scheme_index) ->
         let overlap = Stdlib.min extra_overlap (Stdlib.min distinct_left distinct_right) in
         let spec =
           {
             Workload.default with
             rows_left = 2 * distinct_left;
             rows_right = 2 * distinct_right;
             distinct_left;
             distinct_right;
             overlap;
             extra_attrs = 1;
             seed;
           }
         in
         let env, client, query = Workload.scenario ~params:fast spec in
         let scheme = List.nth Protocol.all_schemes scheme_index in
         let o = Protocol.run_exn scheme env client ~query in
         Outcome.correct o))

let prop_setops_algebra =
  (* Algebraic laws of the secure set operations: |I| + |D| = |distinct L|,
     semi-join ⊆ L, I ⊆ both. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"set operation algebra" ~count:8
       QCheck2.Gen.(pair (int_range 1 300) (int_range 2 6))
       (fun (seed, distinct) ->
         let spec =
           {
             Workload.default with
             rows_left = 2 * distinct;
             rows_right = 2 * distinct;
             distinct_left = distinct;
             distinct_right = distinct;
             overlap = distinct / 2;
             extra_attrs = 0;
             seed;
           }
         in
         let left, right = Workload.generate spec in
         let env =
           Env.two_source ~params:fast ~seed ~left:("L", left) ~right:("R", right) ()
         in
         let client = Env.make_client env ~identity:"p" ~properties:[ [] ] in
         let result op = (Set_ops.run env client op ~left:"L" ~right:"R").Outcome.result in
         let inter = result Set_ops.Intersection in
         let diff = result Set_ops.Difference in
         let distinct_left = Relation.distinct (Relation.rename "L" left) in
         Relation.cardinality inter + Relation.cardinality diff
         = Relation.cardinality distinct_left))

(* ------------------------------------------------------------------ *)
(* Leakage: the machine-checked Table 1 claims. *)

let test_leakage_claims_hold () =
  let env, client, query = scenario () in
  let left, right = Workload.generate small_spec in
  let g = Ground_truth.compute left right ~join_attr:"a_join" in
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query in
      let claims = Leakage.verify o ~ground_truth:g in
      Alcotest.(check bool)
        (Protocol.scheme_name scheme ^ " has claims")
        true (claims <> []);
      if not (Leakage.all_hold claims) then
        Alcotest.failf "%s leakage claims violated:\n%s" (Protocol.scheme_name scheme)
          (Format.asprintf "%a" Leakage.pp_claims claims))
    Protocol.paper_schemes

let test_table_rendering () =
  let env, client, query = scenario () in
  let outcomes = List.map (fun s -> Protocol.run_exn s env client ~query) Protocol.paper_schemes in
  let t1 = Leakage.table1 outcomes and t2 = Leakage.table2 outcomes in
  Alcotest.(check bool) "table1 non-trivial" true (String.length t1 > 100);
  Alcotest.(check bool) "table2 non-trivial" true (String.length t2 > 100);
  Alcotest.(check bool) "commutative row" true (contains t1 "commutative");
  Alcotest.(check bool) "homomorphic column" true (contains t2 "homomorphic")

let test_counters_match_paper_table2 () =
  let env, client, query = scenario () in
  let counts scheme primitive =
    let o = Protocol.run_exn scheme env client ~query in
    Option.value ~default:0 (List.assoc_opt primitive o.Outcome.counters)
  in
  (* DAS uses the collision-free hash, no commutative or homomorphic ops. *)
  Alcotest.(check bool) "das hash" true
    (counts (Protocol.Das (Das_partition.Equi_depth 3, Das.Pair_index)) Counters.Hash > 0);
  Alcotest.(check int) "das no commutative" 0
    (counts (Protocol.Das (Das_partition.Equi_depth 3, Das.Pair_index)) Counters.Commutative_encrypt);
  (* Commutative uses the ideal hash + commutative encryption, nothing
     homomorphic. *)
  Alcotest.(check bool) "comm ideal hash" true
    (counts (Protocol.Commutative { use_ids = false }) Counters.Ideal_hash > 0);
  Alcotest.(check bool) "comm encryptions" true
    (counts (Protocol.Commutative { use_ids = false }) Counters.Commutative_encrypt > 0);
  Alcotest.(check int) "comm no homomorphic" 0
    (counts (Protocol.Commutative { use_ids = false }) Counters.Homomorphic_encrypt);
  (* PM uses homomorphic encryption and fresh random masks. *)
  Alcotest.(check bool) "pm homomorphic" true
    (counts (Protocol.Private_matching Pm_join.Session_keys) Counters.Homomorphic_encrypt > 0);
  Alcotest.(check bool) "pm random masks" true
    (counts (Protocol.Private_matching Pm_join.Session_keys) Counters.Random_number > 0);
  Alcotest.(check int) "pm no commutative" 0
    (counts (Protocol.Private_matching Pm_join.Session_keys) Counters.Commutative_encrypt)

let test_transcript_interactions () =
  let env, client, query = scenario () in
  (* Commutative: each source sends twice (M_i, then the re-encrypted
     set) — "they have to interact twice with the mediator". *)
  let o = Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query in
  Alcotest.(check int) "source-1 sends twice" 2
    (Transcript.sends_by o.Outcome.transcript (Transcript.Source 1));
  (* DAS: the client interacts twice (global query, then q_S). *)
  let o = Protocol.run_exn (Protocol.Das (Das_partition.Equi_depth 3, Das.Pair_index)) env client ~query in
  Alcotest.(check int) "das client sends twice" 2
    (Transcript.sends_by o.Outcome.transcript Transcript.Client);
  (* DAS sources send only once — "the most convenient one". *)
  Alcotest.(check int) "das source sends once" 1
    (Transcript.sends_by o.Outcome.transcript (Transcript.Source 1))

(* ------------------------------------------------------------------ *)
(* Access control integration. *)

let records =
  Relation.of_rows
    (Schema.of_list [ ("a_join", Value.Tint); ("diagnosis", Value.Tstring); ("public", Value.Tbool) ])
    [ [ Value.Int 1; Value.Str "flu"; Value.Bool true ];
      [ Value.Int 2; Value.Str "rare"; Value.Bool false ];
      [ Value.Int 3; Value.Str "cold"; Value.Bool true ] ]

let billing =
  Relation.of_rows
    (Schema.of_list [ ("a_join", Value.Tint); ("amount", Value.Tint) ])
    [ [ Value.Int 1; Value.Int 100 ]; [ Value.Int 2; Value.Int 250 ]; [ Value.Int 3; Value.Int 60 ] ]

let restricted_env ?(seed = 11) ~policy () =
  let entry relation source rel =
    { Catalog.relation; source; schema = Relation.schema rel; source_relation = relation }
  in
  let catalog = Catalog.make [ entry "Records" 1 records; entry "Billing" 2 billing ] in
  Env.make ~params:fast ~seed ~catalog
    ~sources:
      [
        { Env.source_id = 1; relations = [ ("Records", records) ]; policy; advertised = [ "role" ] };
        { Env.source_id = 2; relations = [ ("Billing", billing) ]; policy = Policy.open_policy;
          advertised = [] };
      ]
    ()

let nurse_policy =
  Policy.make
    [
      { Policy.requires = [ Credential.property "role" "physician" ]; grant = Policy.Full };
      { Policy.requires = [ Credential.property "role" "nurse" ];
        grant = Policy.Filtered (Predicate.eq_const "public" (Value.Bool true)) };
    ]

let query_rb = "select * from Records natural join Billing"

let test_access_full () =
  let env = restricted_env ~policy:nurse_policy () in
  let client =
    Env.make_client env ~identity:"doc" ~properties:[ [ Credential.property "role" "physician" ] ]
  in
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query:query_rb in
      check_correct (Protocol.scheme_name scheme) o;
      Alcotest.(check int) "all rows" 3 (Relation.cardinality o.Outcome.result))
    Protocol.paper_schemes

let test_access_filtered () =
  let env = restricted_env ~policy:nurse_policy () in
  let client =
    Env.make_client env ~identity:"nn" ~properties:[ [ Credential.property "role" "nurse" ] ]
  in
  List.iter
    (fun scheme ->
      let o = Protocol.run_exn scheme env client ~query:query_rb in
      check_correct (Protocol.scheme_name scheme) o;
      (* Row with public=false is filtered before the join. *)
      Alcotest.(check int) "filtered rows" 2 (Relation.cardinality o.Outcome.result))
    Protocol.paper_schemes

let test_access_denied () =
  let env = restricted_env ~policy:nurse_policy () in
  let client =
    Env.make_client env ~identity:"rando" ~properties:[ [ Credential.property "role" "visitor" ] ]
  in
  match Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query:query_rb with
  | exception Request.Access_denied 1 -> ()
  | exception Request.Access_denied i -> Alcotest.failf "denied by unexpected source %d" i
  | _ -> Alcotest.fail "visitor must be denied"

let test_bad_credential_rejected () =
  let env = restricted_env ~policy:nurse_policy () in
  (* A credential from a different CA is rejected at the source. *)
  let rogue_env = restricted_env ~seed:99 ~policy:nurse_policy () in
  let client =
    Env.make_client rogue_env ~identity:"doc"
      ~properties:[ [ Credential.property "role" "physician" ] ]
  in
  match Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query:query_rb with
  | exception Request.Bad_credential _ -> ()
  | _ -> Alcotest.fail "foreign credential must be rejected"

let test_credential_subset_selection () =
  let env = restricted_env ~policy:nurse_policy () in
  let client =
    Env.make_client env ~identity:"multi"
      ~properties:
        [ [ Credential.property "role" "physician" ];
          [ Credential.property "hobby" "chess" ] ]
  in
  let o = Protocol.run_exn Protocol.Plain env client ~query:query_rb in
  check_correct "subset selection still authorizes" o

(* ------------------------------------------------------------------ *)
(* Workload and environment plumbing. *)

let test_workload_validate () =
  let invalid = { small_spec with overlap = 100 } in
  Alcotest.check_raises "overlap too large"
    (Invalid_argument "Workload: overlap must be within both distinct counts") (fun () ->
      Workload.validate invalid);
  let invalid = { small_spec with rows_left = 1 } in
  Alcotest.check_raises "too few rows"
    (Invalid_argument "Workload: need at least as many rows as distinct values") (fun () ->
      Workload.validate invalid)

let test_workload_respects_spec () =
  let left, right = Workload.generate small_spec in
  Alcotest.(check int) "rows left" small_spec.Workload.rows_left (Relation.cardinality left);
  Alcotest.(check int) "rows right" small_spec.Workload.rows_right (Relation.cardinality right);
  Alcotest.(check int) "distinct left" small_spec.Workload.distinct_left
    (List.length (Relation.active_domain left "a_join"));
  Alcotest.(check int) "distinct right" small_spec.Workload.distinct_right
    (List.length (Relation.active_domain right "a_join"));
  let g = Ground_truth.compute left right ~join_attr:"a_join" in
  Alcotest.(check int) "overlap" small_spec.Workload.overlap g.Ground_truth.domactive_intersection

let test_workload_deterministic () =
  let a1, b1 = Workload.generate small_spec in
  let a2, b2 = Workload.generate small_spec in
  Alcotest.(check bool) "same left" true (Relation.equal_contents a1 a2);
  Alcotest.(check bool) "same right" true (Relation.equal_contents b1 b2);
  let a3, _ = Workload.generate { small_spec with seed = small_spec.Workload.seed + 1 } in
  Alcotest.(check bool) "different seed differs" true (not (Relation.equal_contents a1 a3))

let alias_spellings =
  [ "das"; "das-singleton"; "das-nested-loop"; "commutative"; "commutative-ids"; "pm";
    "pm-direct"; "mobile-code"; "plain" ]

let test_protocol_names () =
  (* Canonical names round-trip: parsing what scheme_name prints gives the
     same scheme back, for every representative configuration. *)
  List.iter
    (fun scheme ->
      let name = Protocol.scheme_name scheme in
      match Protocol.scheme_of_name name with
      | Some parsed ->
        Alcotest.(check string)
          (name ^ " round-trips") name (Protocol.scheme_name parsed)
      | None -> Alcotest.failf "canonical name %s not parsed back" name)
    Protocol.all_schemes;
  (* Alias spellings parse, and parsing is idempotent through the
     canonical name. *)
  List.iter
    (fun alias ->
      match Protocol.scheme_of_name alias with
      | None -> Alcotest.failf "unknown alias %s" alias
      | Some scheme ->
        let canonical = Protocol.scheme_name scheme in
        Alcotest.(check bool)
          (alias ^ " -> " ^ canonical ^ " round-trips")
          true
          (Protocol.scheme_of_name canonical = Some scheme))
    alias_spellings;
  List.iter
    (fun bogus ->
      Alcotest.(check bool)
        ("unknown rejected: " ^ bogus)
        true
        (Protocol.scheme_of_name bogus = None))
    [ "quantum"; "pm["; "das[equi-depth(5)]"; "commutative[IDS]"; ""; "PLAIN" ]

(* Phase time lives only in the trace: a run's Phase spans name at
   least three distinct phases and add up to a positive total. *)
let test_outcome_accessors () =
  let module Trace = Secmed_obs.Trace in
  let env, client, query = scenario () in
  let o, trace =
    Trace.collect (fun () ->
        Protocol.run_exn (Protocol.Commutative { use_ids = false }) env client ~query)
  in
  Alcotest.(check bool) "correct" true (Outcome.correct o);
  let phases = List.filter (fun s -> s.Trace.kind = Trace.Phase) (Trace.spans trace) in
  let names = List.sort_uniq compare (List.map (fun s -> s.Trace.name) phases) in
  Alcotest.(check bool) "phases recorded" true (List.length names >= 3);
  let total = List.fold_left (fun acc s -> Int64.add acc (Trace.duration_ns s)) 0L phases in
  Alcotest.(check bool) "total positive" true (Int64.compare total 0L > 0)

let () =
  Alcotest.run "core-protocols"
    [
      ( "das-partition",
        [
          Alcotest.test_case "covers active domain" `Quick test_partition_covers_active_domain;
          Alcotest.test_case "unique identifiers" `Quick test_partition_identifiers_unique;
          Alcotest.test_case "disjoint partitions" `Quick test_partition_disjoint_within_table;
          Alcotest.test_case "partition counts" `Quick test_partition_counts;
          Alcotest.test_case "overlap semantics" `Quick test_partition_overlap_semantics;
          Alcotest.test_case "overlapping pairs" `Quick test_overlapping_pairs_brute_force;
          Alcotest.test_case "wire roundtrip" `Quick test_partition_wire_roundtrip;
          Alcotest.test_case "string domains" `Quick test_partition_string_domain;
          Alcotest.test_case "disclosure bits" `Quick test_disclosure_bits;
          Alcotest.test_case "empty domain" `Quick test_partition_empty_domain;
        ] );
      ( "pm-poly",
        [
          Alcotest.test_case "roots vanish" `Quick test_poly_roots;
          Alcotest.test_case "known coefficients" `Quick test_poly_known_coefficients;
          Alcotest.test_case "empty roots" `Quick test_poly_empty_roots;
          Alcotest.test_case "encrypted evaluation" `Quick test_poly_encrypted_eval;
          Alcotest.test_case "mask and add" `Quick test_poly_mask_and_add;
          prop_poly_masked_eval;
          Alcotest.test_case "root encoding" `Quick test_root_of_value_deterministic;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "all schemes correct" `Quick test_all_schemes_correct;
          Alcotest.test_case "das strategies" `Quick test_das_all_strategies_correct;
          Alcotest.test_case "das nested loop agrees" `Quick test_das_nested_loop_agrees;
          Alcotest.test_case "commutative ids variant" `Quick test_commutative_ids_variant;
          Alcotest.test_case "pm variants agree" `Slow test_pm_variants_agree;
          Alcotest.test_case "pm direct over capacity fails typed" `Slow
            test_pm_direct_over_capacity_typed;
          Alcotest.test_case "multiple seeds" `Slow test_multiple_seeds;
          Alcotest.test_case "string join values" `Quick test_string_join_values;
          Alcotest.test_case "disjoint domains" `Quick test_disjoint_domains;
          Alcotest.test_case "full overlap" `Quick test_full_overlap;
          Alcotest.test_case "duplicate join values" `Quick test_duplicate_join_values;
          prop_random_workloads;
          prop_setops_algebra;
          Alcotest.test_case "multi-attribute joins" `Quick test_multi_attribute_join;
          Alcotest.test_case "multi-attribute leakage" `Quick test_multi_attribute_leakage;
          Alcotest.test_case "join-key module" `Quick test_join_key_module;
          Alcotest.test_case "das translator settings" `Quick test_das_translator_settings;
          Alcotest.test_case "superset behaviour" `Quick test_superset_behaviour;
          Alcotest.test_case "residual clauses" `Quick test_residual_query_clauses;
        ] );
      ( "successive-joins",
        [
          Alcotest.test_case "three sources" `Quick test_successive_joins;
          Alcotest.test_case "all schemes" `Quick test_successive_joins_all_schemes;
          Alcotest.test_case "residual clauses" `Quick test_successive_joins_residuals;
          Alcotest.test_case "unsupported shapes" `Quick test_successive_joins_unsupported;
        ] );
      ( "set-operations",
        [
          Alcotest.test_case "intersection" `Quick test_intersection;
          Alcotest.test_case "difference" `Quick test_difference;
          Alcotest.test_case "semi-join" `Quick test_semi_join;
          Alcotest.test_case "layout mismatch" `Quick test_setop_layout_mismatch;
          Alcotest.test_case "lean right source" `Quick test_setop_right_source_ships_no_tuples;
        ] );
      ( "query-classes",
        [ Alcotest.test_case "pinned transcripts" `Quick test_query_class_transcripts ] );
      ( "das-internals",
        [
          Alcotest.test_case "encrypt_relation" `Quick test_das_encrypt_relation_internals;
          Alcotest.test_case "server condition" `Quick test_das_server_condition_shape;
        ] );
      ( "das-decrypt-once",
        [
          Alcotest.test_case "one decryption per ciphertext" `Quick
            test_das_decrypts_each_ciphertext_once;
          Alcotest.test_case "tampered etuple" `Quick test_das_tampered_etuple_fails_typed;
        ] );
      ( "das-select",
        [
          Alcotest.test_case "atom translation sound" `Quick test_translate_atoms_sound;
          Alcotest.test_case "translation precision" `Quick test_translate_precision;
          prop_translation_sound;
          Alcotest.test_case "end to end" `Quick test_select_query_end_to_end;
          Alcotest.test_case "superset behaviour" `Quick test_select_query_superset;
          Alcotest.test_case "unsupported shapes" `Quick test_select_query_unsupported;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "scalar" `Quick test_aggregate_scalar;
          Alcotest.test_case "grouped" `Quick test_aggregate_grouped;
          Alcotest.test_case "left-side column" `Quick test_aggregate_left_side_column;
          Alcotest.test_case "homomorphic" `Quick test_aggregate_homomorphic;
          Alcotest.test_case "homomorphic preconditions" `Quick
            test_aggregate_homomorphic_unsupported;
          Alcotest.test_case "unsupported shapes" `Quick test_aggregate_unsupported_shapes;
          Alcotest.test_case "agrees with join protocols" `Quick
            test_aggregate_via_join_protocols;
        ] );
      ( "leakage",
        [
          Alcotest.test_case "claims hold" `Quick test_leakage_claims_hold;
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "table 2 counters" `Quick test_counters_match_paper_table2;
          Alcotest.test_case "interaction counts" `Quick test_transcript_interactions;
        ] );
      ( "access-control",
        [
          Alcotest.test_case "full access" `Quick test_access_full;
          Alcotest.test_case "filtered access" `Quick test_access_filtered;
          Alcotest.test_case "denied" `Quick test_access_denied;
          Alcotest.test_case "bad credential" `Quick test_bad_credential_rejected;
          Alcotest.test_case "credential subset" `Quick test_credential_subset_selection;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "workload validation" `Quick test_workload_validate;
          Alcotest.test_case "workload spec" `Quick test_workload_respects_spec;
          Alcotest.test_case "workload determinism" `Quick test_workload_deterministic;
          Alcotest.test_case "scheme names" `Quick test_protocol_names;
          Alcotest.test_case "outcome accessors" `Quick test_outcome_accessors;
        ] );
    ]
