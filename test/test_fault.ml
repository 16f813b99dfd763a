(* Fault-injection and differential protocol-conformance suite.

   Exercises the Fault subsystem end to end (DESIGN.md §8): every channel
   fault category and byzantine mode against every protocol family, the
   hardened wire layer under fuzzing, the retry policy, the CLI fault-spec
   parser, and a seeded differential property — under any plan a protocol
   either returns the correct result (possibly after retry) or a typed
   fault; it never returns a wrong answer and never escapes an untyped
   exception. *)

open Secmed_bigint
open Secmed_relalg
open Secmed_mediation
open Secmed_core

(* Reduced security parameters keep the suite fast; the fault paths are
   parameter-independent. *)
let fast = { Env.group_bits = 160; paillier_bits = 384 }

(* One fixed seed for every randomized test: `make check-fault` runs are
   reproducible byte for byte. *)
let suite_seed = 0xfa0175
let seed_rand () = Random.State.make [| suite_seed |]

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Wire hardening: fuzzing the reader paths. *)

type field =
  | Fint of int
  | Fstr of string
  | Fbig of string
  | Flist of int list
  | Fraw of string  (* fixed width, read back by its known length *)
  | Ftuple of int list  (* self-delimiting, read back at an offset *)

let write_field w = function
  | Fint n -> Wire.write_int w n
  | Fstr s -> Wire.write_string w s
  | Fbig digits -> Wire.write_bigint w (Bigint.of_string digits)
  | Flist l -> Wire.write_list w (fun x -> Wire.write_int w x) l
  | Fraw s -> Wire.write_raw w s
  | Ftuple l -> Wire.write_raw w (Tuple.encode (Tuple.of_list (List.map (fun i -> Value.Int i) l)))

let read_field r = function
  | Fint _ -> ignore (Wire.read_int r)
  | Fstr _ -> ignore (Wire.read_string r)
  | Fbig _ -> ignore (Wire.read_bigint r)
  | Flist _ -> ignore (Wire.read_list r (fun () -> Wire.read_int r))
  | Fraw s -> ignore (Wire.read_raw r (String.length s))
  | Ftuple _ -> ignore (Wire.read_at r Tuple.decode_at)

let encode_fields fields =
  let w = Wire.writer () in
  List.iter (write_field w) fields;
  Wire.contents w

let read_fields blob fields =
  let r = Wire.reader blob in
  List.iter (read_field r) fields;
  Wire.expect_end r

let gen_field =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Fint n) int;
        map (fun s -> Fstr s) (string_size (int_range 0 30));
        map (fun n -> Fbig (string_of_int n)) nat;
        map (fun l -> Flist l) (small_list nat);
        map (fun s -> Fraw s) (string_size (int_range 0 30));
        map (fun l -> Ftuple l) (small_list int);
      ])

type mutation =
  | Keep
  | Trunc of int
  | Flip of int * int
  | Garbage of string

let gen_mutation =
  QCheck2.Gen.(
    oneof
      [
        return Keep;
        map (fun k -> Trunc k) nat;
        map (fun (p, b) -> Flip (p, b)) (pair nat (int_range 0 7));
        map (fun s -> Garbage s) (string_size (int_range 0 40));
      ])

let apply_mutation blob = function
  | Keep -> blob
  | Trunc k -> String.sub blob 0 (k mod (String.length blob + 1))
  | Flip (pos, bit) ->
    if blob = "" then blob
    else
      let pos = pos mod String.length blob in
      String.mapi
        (fun i c -> if i = pos then Char.chr (Char.code c lxor (1 lsl bit)) else c)
        blob
  | Garbage s -> s

(* The single observable failure mode of the reader is Wire.Malformed:
   any other exception escaping (Invalid_argument, Out_of_memory from a
   trusted length, ...) fails the property by propagating. *)
let prop_wire_fuzz =
  QCheck_alcotest.to_alcotest ~rand:(seed_rand ())
    (QCheck2.Test.make ~name:"fuzzed reader only raises Wire.Malformed" ~count:500
       QCheck2.Gen.(pair (small_list gen_field) gen_mutation)
       (fun (fields, mutation) ->
         let blob = encode_fields fields in
         match mutation with
         | Keep ->
           read_fields blob fields;
           true
         | _ -> (
           let mutated = apply_mutation blob mutation in
           match read_fields mutated fields with
           | () -> true (* benign mutation, e.g. a flip inside a string payload *)
           | exception Wire.Malformed _ -> true)))

let test_read_list_hostile_count () =
  (* A 4-byte count field is attacker-controlled: a huge declared count
     with (almost) no bytes behind it must be rejected up front, not
     trusted into List.init. *)
  let hostile blob =
    match Wire.read_list (Wire.reader blob) (fun () -> 0) with
    | _ -> Alcotest.fail "hostile list count accepted"
    | exception Wire.Malformed _ -> ()
  in
  hostile "\xff\xff\xff\xff";
  hostile "\x7f\xff\xff\xff";
  hostile "\x00\x00\x04\x00\x01\x02\x03";
  (* An honest empty list still reads. *)
  let r = Wire.reader "\x00\x00\x00\x00" in
  Alcotest.(check (list int)) "empty list" [] (Wire.read_list r (fun () -> 0));
  Wire.expect_end r

let test_reader_negative_length () =
  (* A length prefix with the top bit set decodes as a negative int; the
     reader must refuse it rather than underflow. *)
  let w = Wire.writer () in
  Wire.write_int w min_int;
  let blob = Wire.contents w ^ "payload" in
  let r = Wire.reader blob in
  match Wire.read_string r with
  | _ -> Alcotest.fail "negative string length accepted"
  | exception Wire.Malformed _ -> ()

(* The selection's server condition q_S is decoded at the mediator from
   the client's bytes: any damage, including nesting deep enough to
   exhaust a naive recursive reader, fails as Wire.Malformed. *)
let conditions =
  Predicate.
    [|
      True;
      Cmp (Lt, Attr "idx_price", Const (Value.Int 3));
      And
        ( Or (Cmp (Eq, Attr "idx_a", Const (Value.Str "x")), False),
          Not (In (Attr "idx_b", [ Value.Int 1; Value.Str "y"; Value.Bool true ])) );
    |]

let prop_condition_fuzz =
  QCheck_alcotest.to_alcotest ~rand:(seed_rand ())
    (QCheck2.Test.make ~name:"fuzzed q_S decoder only raises Wire.Malformed" ~count:500
       QCheck2.Gen.(pair (int_range 0 (Array.length conditions - 1)) gen_mutation)
       (fun (i, mutation) ->
         let blob = Select_query.condition_to_wire conditions.(i) in
         match Select_query.condition_of_wire (apply_mutation blob mutation) with
         | decoded -> mutation <> Keep || decoded = conditions.(i)
         | exception Wire.Malformed _ -> mutation <> Keep))

let test_condition_deep_nesting () =
  let deep = List.fold_left (fun p _ -> Predicate.Not p) Predicate.True (List.init 10_000 Fun.id) in
  match Select_query.condition_of_wire (Select_query.condition_to_wire deep) with
  | _ -> Alcotest.fail "ten thousand nested NOTs decoded"
  | exception Wire.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Shared fault-test scenario. *)

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

let family_name scheme = Protocol.scheme_name scheme

(* The final mediator -> client delivery message of each family. *)
let final_label = function
  | Protocol.Das _ -> "RC"
  | Protocol.Commutative _ -> "result-messages"
  | Protocol.Private_matching _ -> "e-values"
  | Protocol.Mobile_code -> "encrypted-partials+code"
  | Protocol.Plain -> "global-result"

let run_with plan scheme =
  let env, client, query = Lazy.force shared in
  Protocol.run ?fault:plan scheme env client ~query

let expect_fault ~msg plan scheme =
  match run_with (Some plan) scheme with
  | Protocol.Ok _ -> Alcotest.failf "%s (%s): expected a typed fault" msg (family_name scheme)
  | Protocol.Fault f ->
    Alcotest.(check bool)
      (Printf.sprintf "%s (%s): fault events recorded or byzantine" msg (family_name scheme))
      true
      (Fault.events plan <> [] || f.Protocol.reason <> "");
    f

let expect_ok ~msg plan scheme =
  match run_with (Some plan) scheme with
  | Protocol.Ok outcome ->
    Alcotest.(check bool)
      (Printf.sprintf "%s (%s): correct" msg (family_name scheme))
      true (Outcome.correct outcome);
    outcome
  | Protocol.Fault f ->
    Alcotest.failf "%s (%s): unexpected fault: %s" msg (family_name scheme) f.Protocol.reason

(* ------------------------------------------------------------------ *)
(* Channel-fault categories, per protocol family. *)

let test_drop_detected () =
  List.iter
    (fun scheme ->
      let plan = Fault.plan ~max_retries:0 [ Fault.rule Fault.Drop ] in
      let f = expect_fault ~msg:"drop" plan scheme in
      Alcotest.(check string)
        (family_name scheme ^ ": detected in the request phase")
        "request" f.Protocol.phase;
      Alcotest.(check int) (family_name scheme ^ ": single attempt") 1 f.Protocol.attempts)
    Protocol.all_schemes

let test_truncate_detected () =
  List.iter
    (fun scheme ->
      let plan = Fault.plan ~max_retries:0 [ Fault.rule (Fault.Truncate 4) ] in
      let f = expect_fault ~msg:"truncate" plan scheme in
      Alcotest.(check bool)
        (family_name scheme ^ ": envelope caught the truncation")
        true
        (contains f.Protocol.reason "truncat" || contains f.Protocol.reason "integrity"))
    Protocol.all_schemes

let test_corrupt_detected () =
  List.iter
    (fun scheme ->
      let plan = Fault.plan ~max_retries:0 [ Fault.rule (Fault.Corrupt 2) ] in
      let f = expect_fault ~msg:"corrupt" plan scheme in
      Alcotest.(check bool)
        (family_name scheme ^ ": envelope caught the corruption")
        true
        (contains f.Protocol.reason "integrity" || contains f.Protocol.reason "truncat"))
    Protocol.all_schemes

let test_delivery_drop_detected () =
  (* Target each family's final delivery message by label. *)
  List.iter
    (fun scheme ->
      let plan =
        Fault.plan ~max_retries:0
          [
            Fault.rule ~sender:Transcript.Mediator ~receiver:Transcript.Client
              ~label:(final_label scheme) Fault.Drop;
          ]
      in
      ignore (expect_fault ~msg:"delivery drop" plan scheme))
    Protocol.all_schemes

let test_duplicate_is_harmless () =
  List.iter
    (fun scheme ->
      let plan =
        Fault.plan ~max_retries:0
          [ Fault.rule ~label:(final_label scheme) ~times:1 Fault.Duplicate ]
      in
      let outcome = expect_ok ~msg:"duplicate" plan scheme in
      let messages = Transcript.messages outcome.Outcome.transcript in
      Alcotest.(check bool)
        (family_name scheme ^ ": replayed copy accounted")
        true
        (List.exists (fun m -> contains m.Transcript.label "(dup)") messages);
      Alcotest.(check bool)
        (family_name scheme ^ ": injection noted")
        true
        (Transcript.notes outcome.Outcome.transcript <> []))
    Protocol.all_schemes

let test_delay_is_harmless () =
  List.iter
    (fun scheme ->
      let plan = Fault.plan ~max_retries:0 [ Fault.rule ~times:1 (Fault.Delay 0.05) ] in
      let started = Unix.gettimeofday () in
      let _ = expect_ok ~msg:"delay" plan scheme in
      Alcotest.(check bool)
        (family_name scheme ^ ": the sender waited")
        true
        (Unix.gettimeofday () -. started >= 0.05))
    Protocol.all_schemes

(* ------------------------------------------------------------------ *)
(* Retry policy. *)

let test_retry_recovers_transient_drop () =
  List.iter
    (fun scheme ->
      let plan = Fault.plan ~max_retries:2 [ Fault.rule ~times:1 Fault.Drop ] in
      let outcome = expect_ok ~msg:"transient drop" plan scheme in
      Alcotest.(check int) (family_name scheme ^ ": two attempts") 2 (Fault.attempts plan);
      Alcotest.(check bool)
        (family_name scheme ^ ": retry noted in transcript")
        true
        (List.exists
           (fun n -> contains n.Transcript.text "retry")
           (Transcript.notes outcome.Outcome.transcript)))
    Protocol.all_schemes

let test_retry_budget_exhausts () =
  let plan = Fault.plan ~max_retries:2 [ Fault.rule Fault.Drop ] in
  match run_with (Some plan) Protocol.Plain with
  | Protocol.Ok _ -> Alcotest.fail "persistent drop cannot succeed"
  | Protocol.Fault f ->
    Alcotest.(check int) "budget spent" 3 f.Protocol.attempts;
    Alcotest.(check int) "one drop per attempt" 3 (List.length (Fault.events plan))

(* ------------------------------------------------------------------ *)
(* Byzantine datasources, per applicable protocol. *)

let test_byzantine_detected () =
  let cases =
    [
      (Protocol.default_das, Fault.Wrong_partition_ids, "mediator-server-query");
      (Protocol.default_das, Fault.Malformed_ciphertexts, "client-postprocess");
      (Protocol.Commutative { use_ids = false }, Fault.Stale_commutative_key, "mediator-match");
      (Protocol.Commutative { use_ids = false }, Fault.Malformed_ciphertexts,
       "client-postprocess");
      (Protocol.Private_matching Pm_join.Session_keys, Fault.Garbage_paillier,
       "source-evaluate");
      (Protocol.Private_matching Pm_join.Session_keys, Fault.Malformed_ciphertexts,
       "client-postprocess");
      (Protocol.Mobile_code, Fault.Malformed_ciphertexts, "client-postprocess");
    ]
  in
  List.iter
    (fun (scheme, mode, expected_phase) ->
      let plan = Fault.plan ~max_retries:2 ~byzantine:[ (1, mode) ] [] in
      let f =
        expect_fault
          ~msg:(Printf.sprintf "byzantine %s" (Fault.mode_name mode))
          plan scheme
      in
      Alcotest.(check string)
        (Printf.sprintf "%s/%s: detection phase" (family_name scheme) (Fault.mode_name mode))
        expected_phase f.Protocol.phase;
      (* A fresh request reaches the same liar: byzantine plans never
         retry, whatever the budget. *)
      Alcotest.(check int)
        (Printf.sprintf "%s/%s: no retry" (family_name scheme) (Fault.mode_name mode))
        1 f.Protocol.attempts)
    cases

(* The other query classes run the same hooks: a damaged payload of S1
   fails authentication at the client, and S1's stale re-encryption key
   trips the canary audit in every caller of the commutative round. *)
let test_query_class_byzantine_detected () =
  List.iter
    (fun (name, mode, expected_phase, expected_party) ->
      let plan = Fault.plan ~byzantine:[ (1, mode) ] [] in
      let what = Printf.sprintf "%s/%s" name (Fault.mode_name mode) in
      match (Query_classes.find name).Query_classes.run (Some plan) with
      | _ -> Alcotest.failf "%s: expected a typed fault" what
      | exception Fault.Fault_detected f ->
        Alcotest.(check string) (what ^ ": detection phase") expected_phase f.Fault.phase;
        Alcotest.(check string)
          (what ^ ": blamed party")
          (Transcript.party_name expected_party)
          (Transcript.party_name f.Fault.party))
    ([ ("intersection", Fault.Malformed_ciphertexts, "client-postprocess", Transcript.Client);
       ("aggregate", Fault.Malformed_ciphertexts, "client-postprocess", Transcript.Client) ]
    @ List.map
        (fun name -> (name, Fault.Stale_commutative_key, "mediator-match", Transcript.Mediator))
        [ "intersection"; "semi-join"; "difference"; "aggregate"; "aggregate-homomorphic" ])

(* ------------------------------------------------------------------ *)
(* Outcome edge cases. *)

let test_outcome_empty_join () =
  let spec = { small_spec with overlap = 0 } in
  let env, client, query = Workload.scenario ~params:fast spec in
  List.iter
    (fun scheme ->
      let outcome = Protocol.run_exn scheme env client ~query in
      Alcotest.(check bool)
        (family_name scheme ^ ": empty join correct")
        true (Outcome.correct outcome);
      Alcotest.(check int)
        (family_name scheme ^ ": empty result")
        0
        (Relation.cardinality outcome.Outcome.result);
      let sf = Outcome.superset_factor outcome in
      Alcotest.(check bool)
        (family_name scheme ^ ": superset factor finite and non-negative")
        true
        (Float.is_finite sf && sf >= 0.0))
    Protocol.all_schemes

let test_outcome_empty_relation () =
  (* One side empty: Workload.validate forbids this shape, so build the
     environment directly. *)
  let left_schema = Schema.of_list [ ("a_join", Value.Tint); ("lx", Value.Tint) ] in
  let right_schema = Schema.of_list [ ("a_join", Value.Tint); ("ry", Value.Tint) ] in
  let left = Relation.make left_schema [] in
  let right =
    Relation.of_rows right_schema
      [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Int 20 ] ]
  in
  let env = Env.two_source ~params:fast ~seed:11 ~left:("L", left) ~right:("R", right) () in
  let client = Env.make_client env ~identity:"edge" ~properties:[ [] ] in
  let query = "select * from L natural join R" in
  List.iter
    (fun scheme ->
      let outcome = Protocol.run_exn scheme env client ~query in
      Alcotest.(check bool)
        (family_name scheme ^ ": empty relation correct")
        true (Outcome.correct outcome);
      Alcotest.(check int)
        (family_name scheme ^ ": empty result")
        0
        (Relation.cardinality outcome.Outcome.result);
      let sf = Outcome.superset_factor outcome in
      Alcotest.(check bool)
        (family_name scheme ^ ": superset factor finite")
        true
        (Float.is_finite sf && sf >= 0.0))
    Protocol.all_schemes

(* ------------------------------------------------------------------ *)
(* Fault-spec parser (the CLI surface). *)

let test_spec_parses () =
  (match Fault.of_spec "drop:mediator->client:RC:times=1;retries=1;seed=5" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
    Alcotest.(check int) "retries" 1 (Fault.max_retries (Some plan));
    Alcotest.(check bool) "retryable" true (Fault.retryable (Some plan)));
  match Fault.of_spec "byzantine:2:garbage-paillier" with
  | Error e -> Alcotest.failf "byzantine spec rejected: %s" e
  | Ok plan ->
    Alcotest.(check bool)
      "mode" true
      (Fault.byzantine_mode (Some plan) 2 = Some Fault.Garbage_paillier);
    Alcotest.(check bool) "byzantine not retryable" false (Fault.retryable (Some plan))

let test_spec_rejects_garbage () =
  List.iter
    (fun spec ->
      match Fault.of_spec spec with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" spec
      | Error _ -> ())
    [ "explode:client->mediator"; "drop"; "byzantine:x:garbage-paillier";
      "byzantine:1:lying"; "retries=many"; "drop:nowhere->client" ]

let test_spec_end_to_end () =
  match Fault.of_spec "drop:mediator->client:global-result" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan -> (
    match run_with (Some plan) Protocol.Plain with
    | Protocol.Ok _ -> Alcotest.fail "drop spec had no effect"
    | Protocol.Fault f ->
      Alcotest.(check bool) "timeout reported" true (contains f.Protocol.reason "never arrived"))

(* ------------------------------------------------------------------ *)
(* Differential conformance. *)

let canon relation = List.sort compare (List.map Tuple.encode (Relation.tuples relation))

let test_no_fault_differential () =
  (* Honest runs of every scheme agree with the Plain reference pipeline
     across join selectivities, including the empty join. *)
  List.iter
    (fun (rows, distinct, overlap) ->
      let spec =
        {
          small_spec with
          rows_left = rows;
          rows_right = rows;
          distinct_left = distinct;
          distinct_right = distinct;
          overlap;
          seed = 100 + rows + overlap;
        }
      in
      let env, client, query = Workload.scenario ~params:fast spec in
      let reference =
        match Protocol.run Protocol.Plain env client ~query with
        | Protocol.Ok o -> o
        | Protocol.Fault f -> Alcotest.failf "plain faulted honestly: %s" f.Protocol.reason
      in
      Alcotest.(check bool) "reference correct" true (Outcome.correct reference);
      List.iter
        (fun scheme ->
          let outcome = Protocol.run_exn scheme env client ~query in
          Alcotest.(check bool)
            (family_name scheme ^ ": correct")
            true (Outcome.correct outcome);
          Alcotest.(check bool)
            (family_name scheme ^ ": equals the plain reference")
            true
            (canon outcome.Outcome.result = canon reference.Outcome.result))
        Protocol.all_schemes)
    [ (6, 3, 2); (10, 5, 0); (12, 6, 6); (8, 4, 1) ]

(* Random fault plans over random schemes and query classes: the
   differential property — Ok implies correct; the only other allowed
   outcome is a typed Fault.  Any escaped exception fails the property by
   propagating.  Query classes draw channel rules only; a labelled rule
   targets the class's final mediator -> client message. *)
type target =
  | Join of Protocol.scheme
  | Class of Query_classes.t

let gen_case =
  QCheck2.Gen.(
    let gen_target =
      oneofl
        (List.map (fun s -> Join s) Protocol.all_schemes
        @ List.map (fun c -> Class c) Query_classes.all)
    in
    let gen_action =
      oneofl [ Fault.Drop; Fault.Truncate 4; Fault.Corrupt 2; Fault.Duplicate; Fault.Delay 0.01 ]
    in
    gen_target >>= fun target ->
    let applicable_modes =
      match target with
      | Join (Protocol.Das _) -> [ Fault.Wrong_partition_ids; Fault.Malformed_ciphertexts ]
      | Join (Protocol.Commutative _) ->
        [ Fault.Stale_commutative_key; Fault.Malformed_ciphertexts ]
      | Join (Protocol.Private_matching _) ->
        [ Fault.Garbage_paillier; Fault.Malformed_ciphertexts ]
      | Join Protocol.Mobile_code -> [ Fault.Malformed_ciphertexts ]
      | Join Protocol.Plain | Class _ -> []
    in
    let final = function
      | Join scheme -> final_label scheme
      | Class c -> c.Query_classes.final_label
    in
    let gen_byzantine =
      if applicable_modes = [] then return []
      else
        frequency
          [ (3, return []); (1, map (fun m -> [ (1, m) ]) (oneofl applicable_modes)) ]
    in
    let gen_rules =
      frequency
        [
          (1, return []);
          ( 4,
            map
              (fun (action, times, labelled) ->
                let label = if labelled then Some (final target) else None in
                [ Fault.rule ?label ~times action ])
              (triple gen_action (int_range 1 3) bool) );
        ]
    in
    map
      (fun (rules, byzantine, retries, seed) -> (target, rules, byzantine, retries, seed))
      (quad gen_rules gen_byzantine (int_range 0 2) nat))

let prop_differential_under_faults =
  QCheck_alcotest.to_alcotest ~rand:(seed_rand ())
    (QCheck2.Test.make
       ~name:"fault plans never yield a wrong answer or an untyped exception" ~count:200
       gen_case
       (fun (target, rules, byzantine, retries, seed) ->
         let plan = Fault.plan ~seed ~max_retries:retries ~byzantine rules in
         match target with
         | Join scheme -> (
           match run_with (Some plan) scheme with
           | Protocol.Ok outcome -> Outcome.correct outcome
           | Protocol.Fault f -> f.Protocol.reason <> "")
         | Class c -> (
           match c.Query_classes.run (Some plan) with
           | outcome -> Outcome.correct outcome
           | exception Fault.Fault_detected f -> f.Fault.reason <> "")))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fault"
    [
      ( "wire-fuzz",
        [
          prop_wire_fuzz;
          Alcotest.test_case "hostile list count" `Quick test_read_list_hostile_count;
          Alcotest.test_case "negative length" `Quick test_reader_negative_length;
          prop_condition_fuzz;
          Alcotest.test_case "q_S deep nesting" `Quick test_condition_deep_nesting;
        ] );
      ( "channel-faults",
        [
          Alcotest.test_case "drop detected" `Quick test_drop_detected;
          Alcotest.test_case "truncate detected" `Quick test_truncate_detected;
          Alcotest.test_case "corrupt detected" `Quick test_corrupt_detected;
          Alcotest.test_case "delivery drop detected" `Quick test_delivery_drop_detected;
          Alcotest.test_case "duplicate harmless" `Quick test_duplicate_is_harmless;
          Alcotest.test_case "delay harmless" `Quick test_delay_is_harmless;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient drop recovers" `Quick test_retry_recovers_transient_drop;
          Alcotest.test_case "budget exhausts" `Quick test_retry_budget_exhausts;
        ] );
      ( "byzantine",
        [
          Alcotest.test_case "all modes detected" `Quick test_byzantine_detected;
          Alcotest.test_case "query classes detected" `Quick test_query_class_byzantine_detected;
        ] );
      ( "outcome-edges",
        [
          Alcotest.test_case "empty join" `Quick test_outcome_empty_join;
          Alcotest.test_case "empty relation" `Quick test_outcome_empty_relation;
        ] );
      ( "fault-spec",
        [
          Alcotest.test_case "parses" `Quick test_spec_parses;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "end to end" `Quick test_spec_end_to_end;
        ] );
      ( "differential",
        [
          Alcotest.test_case "honest runs match plain" `Quick test_no_fault_differential;
          prop_differential_under_faults;
        ] );
    ]
