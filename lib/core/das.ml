open Secmed_relalg
open Secmed_crypto
open Secmed_mediation

type server_eval =
  | Pair_index
  | Nested_loop

type encrypted_relation = {
  rows : (Hybrid.ciphertext * int array) list;
  wire_size : int;
}

(* Each row: its hybrid ciphertext plus 8 bytes per partition index. *)
let of_rows ~arity rows =
  let wire_size =
    List.fold_left (fun acc (ct, _) -> acc + Hybrid.size ct + (8 * arity)) 0 rows
  in
  { rows; wire_size }

let encrypt_relation ?domains prng pk tables ~join_attrs relation =
  let positions = Join_key.positions (Relation.schema relation) join_attrs in
  let tables = Array.of_list tables in
  if Array.length tables <> Array.length positions then
    invalid_arg "Das.encrypt_relation: one index table per join attribute required";
  (* Per-tuple hybrid encryption is the dominant source-side cost and
     embarrassingly parallel: each tuple draws from its own PRNG stream
     split off the source seed, so the wire bytes are bit-identical no
     matter how many domains the Batch executor uses. *)
  let rows =
    Batch.map_seeded_list ?domains ~prng ~label:"das-row"
      (fun _ prng tuple ->
        let etuple = Hybrid.encrypt prng pk (Tuple.encode tuple) in
        let indexes =
          Array.mapi
            (fun k position -> Das_partition.index_of tables.(k) (Tuple.get tuple position))
            positions
        in
        (etuple, indexes))
      (Relation.tuples relation)
  in
  of_rows ~arity:(Array.length positions) rows

let server_query_pairs ~left_tables ~right_tables =
  List.map2 Das_partition.overlapping_pairs left_tables right_tables

(* Cond_S: conjunction over join attributes of the disjunction over the
   attribute's overlapping partition pairs. *)
let condition_of_pairs per_attr_pairs =
  Predicate.conj
    (List.mapi
       (fun k pairs ->
         Predicate.disj
           (List.map
              (fun (i1, i2) ->
                Predicate.And
                  ( Predicate.eq_const (Printf.sprintf "R1S.idx_%d" k) (Value.Int i1),
                    Predicate.eq_const (Printf.sprintf "R2S.idx_%d" k) (Value.Int i2) ))
              pairs))
       per_attr_pairs)

let server_condition ~left_tables ~right_tables =
  condition_of_pairs (server_query_pairs ~left_tables ~right_tables)

(* View of an encrypted relation as an ordinary relation over
   (etuple : string, idx_0 .. idx_{k-1} : int); the nested-loop evaluation
   runs the literal sigma-over-product on the relational engine. *)
let as_relation name arity er =
  let schema =
    Schema.make
      (Schema.attr ~rel:name "etuple" Value.Tstring
      :: List.init arity (fun k -> Schema.attr ~rel:name (Printf.sprintf "idx_%d" k) Value.Tint))
  in
  Relation.make schema
    (List.map
       (fun (ct, indexes) ->
         Tuple.of_list
           (Value.Str (Hybrid.to_wire ct)
           :: Array.to_list (Array.map (fun i -> Value.Int i) indexes)))
       er.rows)

let key_arity er = match er.rows with [] -> 0 | (_, indexes) :: _ -> Array.length indexes

let vector_key indexes =
  String.concat ":" (Array.to_list (Array.map string_of_int indexes))

let server_join eval per_attr_pairs left right =
  match eval with
  | Pair_index ->
    (* Group right rows by their full index vector; for each left row,
       enumerate the (usually few) right vectors compatible with it under
       Cond_S and look them up. *)
    let right_groups = Hashtbl.create 64 in
    List.iter
      (fun (ct, indexes) ->
        let key = vector_key indexes in
        Hashtbl.replace right_groups key
          (ct :: Option.value ~default:[] (Hashtbl.find_opt right_groups key)))
      right.rows;
    (* Per attribute: idx1 -> compatible idx2 list. *)
    let compatible =
      List.map
        (fun pairs ->
          let table = Hashtbl.create 32 in
          List.iter
            (fun (i1, i2) ->
              Hashtbl.replace table i1 (i2 :: Option.value ~default:[] (Hashtbl.find_opt table i1)))
            pairs;
          table)
        per_attr_pairs
    in
    let compatible = Array.of_list compatible in
    (* Cartesian product of the per-attribute compatible index lists: the
       right-side index vectors this left row can pair with under Cond_S. *)
    let candidates_for indexes =
      let arity = Array.length indexes in
      let rec go k acc =
        if k = arity then [ List.rev acc ]
        else begin
          match Hashtbl.find_opt compatible.(k) indexes.(k) with
          | None -> []
          | Some i2s -> List.concat_map (fun i2 -> go (k + 1) (i2 :: acc)) i2s
        end
      in
      go 0 []
    in
    List.concat_map
      (fun (ct1, indexes) ->
        List.concat_map
          (fun vector ->
            let key = String.concat ":" (List.map string_of_int vector) in
            match Hashtbl.find_opt right_groups key with
            | None -> []
            | Some cts -> List.map (fun ct2 -> (ct1, ct2)) cts)
          (candidates_for indexes))
      left.rows
  | Nested_loop ->
    let arity =
      Stdlib.max (List.length per_attr_pairs) (Stdlib.max (key_arity left) (key_arity right))
    in
    let r1s = as_relation "R1S" arity left and r2s = as_relation "R2S" arity right in
    let rc = Relation.select (condition_of_pairs per_attr_pairs) (Relation.product r1s r2s) in
    List.map
      (fun tuple ->
        match (Tuple.get tuple 0, Tuple.get tuple (arity + 1)) with
        | Value.Str w1, Value.Str w2 -> (Hybrid.of_wire w1, Hybrid.of_wire w2)
        | _ -> assert false)
      (Relation.tuples rc)

let decrypt_or_fail ~phase ~party sk label ct =
  match Hybrid.decrypt sk ct with
  | Some plain -> plain
  | None ->
    Fault.fail ~phase ~party (Printf.sprintf "authentication failure decrypting %s" label)

(* Wire bundle of one source's encrypted index tables. *)
let tables_to_wire tables =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Das_partition.to_wire t)) tables;
  Wire.contents w

let tables_of_wire blob =
  let r = Wire.reader blob in
  let tables = Wire.read_list r (fun () -> Das_partition.of_wire (Wire.read_string r)) in
  Wire.expect_end r;
  tables

type setting =
  | Client_setting    (* Listing 2: the translator at the client *)
  | Source_setting    (* translator at S1; S2's tables travel encrypted to S1 *)
  | Mediator_setting  (* translator at the mediator; tables in plaintext there *)

let setting_name = function
  | Client_setting -> "client-setting"
  | Source_setting -> "source-setting"
  | Mediator_setting -> "mediator-setting"

(* Deterministic per-source ElGamal keys (the source setting needs sources
   to address each other confidentially). *)
let source_keypair env sid =
  Elgamal.keygen (Env.prng_for env (Printf.sprintf "source-key-%d" sid)) env.Env.group

let partition_count_sum tables =
  List.fold_left (fun acc t -> acc + Das_partition.partition_count t) 0 tables

(* Byzantine source behaviours (syntactically detectable — see DESIGN.md
   §8): wrong partition ids are pushed outside the valid index range so
   the mediator's bounds check catches them; malformed ciphertexts keep
   their framing but fail authentication at the client. *)
let apply_byzantine mode er =
  match mode with
  | Some Fault.Wrong_partition_ids ->
    { er with rows = List.map (fun (ct, idx) -> (ct, Array.map (fun i -> -1 - i) idx)) er.rows }
  | Some Fault.Malformed_ciphertexts ->
    { er with rows = List.map (fun (ct, idx) -> (Codec.hybrid.Codec.malformed ct, idx)) er.rows }
  | _ -> er

(* The mediator rejects index vectors outside the table range before
   evaluating q_S — an honest source never produces them. *)
let validate_indexes which er =
  List.iter
    (fun (_, idx) ->
      Array.iter
        (fun i ->
          if i < 0 then
            Fault.fail ~phase:"mediator-server-query" ~party:Mediator
              (Printf.sprintf "R%dS row carries out-of-range partition index %d" which i))
        idx)
    er.rows

(* Canonical wire form of an encrypted relation: each row's hybrid
   ciphertext followed by its 8-byte big-endian partition indexes —
   exactly [er.wire_size] bytes, so socket-level byte counts match the
   transcript entry in distributed runs.  One string per row, so the
   upload can travel row-wise ([Link.exchange_rows]) without ever
   concatenating the relation. *)
let er_rows er =
  List.map
    (fun (ct, idx) ->
      let w = Wire.writer () in
      Wire.write_raw w (Hybrid.to_wire ct);
      Array.iter (fun i -> Wire.write_int w i) idx;
      Wire.contents w)
    er.rows

let read_hybrid = Codec.hybrid.Codec.read

(* The receiver's side: [arity] indexes per row, rows until the end. *)
let read_er ~arity r =
  of_rows ~arity
    (Wire.read_rest r (fun () ->
         let ct = read_hybrid r in
         (ct, Array.init arity (fun _ -> Wire.read_int r))))

(* The index tables a source uploads beside its rows, in this setting's
   form: none, sealed under a key the mediator lacks, or in the clear. *)
type tables_part =
  | No_tables
  | Sealed of Hybrid.ciphertext
  | Clear of Das_partition.t list

let tables_size = function
  | No_tables -> 0
  | Sealed ct -> Hybrid.size ct
  | Clear tables -> String.length (tables_to_wire tables)

(* The upload: the tables (when any) lead, then one row per tuple, so a
   receiver can split the message without knowing the row count. *)
let upload_rows (er, tables) =
  (match tables with
  | No_tables -> []
  | Sealed ct -> [ Hybrid.to_wire ct ]
  | Clear tables -> [ tables_to_wire tables ])
  @ er_rows er

let decode_upload ~arity ~tables blob =
  let r = Wire.reader blob in
  let tables =
    match tables with
    | `None -> No_tables
    | `Sealed -> Sealed (read_hybrid r)
    | `Clear -> Clear (Wire.read_list r (fun () -> Das_partition.of_wire (Wire.read_string r)))
  in
  (read_er ~arity r, tables)

let exchange_upload link ~sid ~label ~arity ~tables value =
  Link.exchange_rows link ~phase:"source-upload" ~sender:(Source sid) ~receiver:Mediator ~label
    ~size:(fun (er, tables) -> er.wire_size + tables_size tables)
    ~rows:upload_rows ~decode:(decode_upload ~arity ~tables) value

(* Canonical q_S encoding: 16 bytes per overlapping pair (two 8-byte
   big-endian indexes), matching the 16*|pairs| transcript size.
   Partition ids lie in [0, 2^62), so the first pair of each join
   attribute carries its left index complemented (negative): a receiver
   regroups a composite key's pairs per attribute.  An attribute with no
   pair empties the join, whatever its position, so a receiver pads
   missing groups at the end. *)
let pairs_payload pairs =
  let w = Wire.writer () in
  List.iter
    (List.iteri (fun n (i1, i2) ->
         Wire.write_int w (if n = 0 then lnot i1 else i1);
         Wire.write_int w i2))
    pairs;
  Wire.contents w

let pairs_of_payload ~arity blob =
  let r = Wire.reader blob in
  let rec go groups =
    if Wire.at_end r then groups
    else begin
      let i1 = Wire.read_int r in
      let i2 = Wire.read_int r in
      match groups with
      | _ when i1 < 0 -> go ([ (lnot i1, i2) ] :: groups)
      | current :: rest -> go (((i1, i2) :: current) :: rest)
      | [] -> raise (Wire.Malformed "q_S starts without an attribute marker")
    end
  in
  let groups = List.rev_map List.rev (go []) in
  let n = List.length groups in
  if n > arity then
    raise (Wire.Malformed (Printf.sprintf "q_S names %d join attributes of %d" n arity));
  groups @ List.init (arity - n) (fun _ -> [])

let pair_count pairs = List.fold_left (fun acc p -> acc + List.length p) 0 pairs

let sealed_exchange link ~phase ~receiver ~label =
  Codec.exchange link ~phase ~sender:Mediator ~receiver ~label Codec.hybrid

let run ?fault ?endpoint ?(strategy = Das_partition.Equi_depth 4) ?(server_eval = Pair_index)
    ?(setting = Client_setting) env client ~query =
  let scheme =
    match setting with
    | Client_setting -> "das"
    | Source_setting | Mediator_setting -> "das/" ^ setting_name setting
  in
  Outcome.Builder.run_request ~scheme ?fault ?endpoint env client ~query
    (fun b link request _exact ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      let join_attrs = Request.join_attrs request in
      let arity = List.length join_attrs in
      let pk = request.Request.client_pk in
      let s1 = request.Request.decomposition.Catalog.left.Catalog.source in
      let s2 = request.Request.decomposition.Catalog.right.Catalog.source in

      (* Listing 2, steps 1-3 at each source: partition every join
         attribute and encrypt the partial result DAS-style.  Where the
         index tables go — and under which key — depends on the
         translator placement. *)
      let source_side (entry : Catalog.entry) relation =
        let sid = entry.Catalog.source in
        step (Source sid) "source-encrypt" (fun () ->
            let prng = Env.prng_for env (Printf.sprintf "das-source-%d" sid) in
            let tables =
              List.map
                (fun attr ->
                  let column = Relation.column relation attr in
                  Das_partition.build
                    (Das_partition.adapt strategy column)
                    ~relation:entry.Catalog.relation ~attr column)
                join_attrs
            in
            let encrypted = encrypt_relation prng pk tables ~join_attrs relation in
            (prng, tables, apply_byzantine (Fault.byzantine_mode fault sid) encrypted))
      in
      let side1 =
        source_side request.Request.decomposition.Catalog.left request.Request.left_result
      in
      let side2 =
        source_side request.Request.decomposition.Catalog.right request.Request.right_result
      in
      (* S1's key pair, for the source setting: S2 seals its tables to
         it, S1 opens them. *)
      let s1_keys = lazy (source_keypair env s1) in
      let seal sid key = function
        | None -> None
        | Some (prng, tables, _) ->
          step (Source sid) "source-encrypt" (fun () ->
              Sealed (Hybrid.encrypt prng (key ()) (tables_to_wire tables)))
      in
      let clear = Option.map (fun (_, tables, _) -> Clear tables) in
      let bare = Option.map (fun _ -> No_tables) in
      let (tables1, kind1), (tables2, kind2) =
        match setting with
        | Client_setting ->
          ( (seal s1 (fun () -> pk) side1, `Sealed),
            (seal s2 (fun () -> pk) side2, `Sealed) )
        | Source_setting ->
          ( (bare side1, `None),
            (seal s2 (fun () -> Elgamal.public (Lazy.force s1_keys)) side2, `Sealed) )
        | Mediator_setting -> ((clear side1, `Clear), (clear side2, `Clear))
      in
      (* One upload per source: the encrypted rows plus this setting's
         form of the index tables (so sources still "send data once"). *)
      let upload sid which side tables ~kind =
        let value =
          match (side, tables) with
          | Some (_, _, er), Some tables -> Some (er, tables)
          | _ -> None
        in
        exchange_upload link ~sid ~label:(Printf.sprintf "R%dS+ITables" which) ~arity
          ~tables:kind value
      in
      let up1 = upload s1 1 side1 tables1 ~kind:kind1 in
      let up2 = upload s2 2 side2 tables2 ~kind:kind2 in
      (* What the mediator holds from here on: the uploads as received. *)
      let up1 = if computes Mediator then up1 else None in
      let up2 = if computes Mediator then up2 else None in
      let sealed_of = function Some (_, Sealed ct) -> Some ct | _ -> None in
      (match (up1, up2) with
      | Some (r1s, _), Some (r2s, _) ->
        (* The tuple-wise encryption reveals the partial result sizes
           to the mediator. *)
        Outcome.Builder.mediator_sees b "cardinality-R1S" (List.length r1s.rows);
        Outcome.Builder.mediator_sees b "cardinality-R2S" (List.length r2s.rows)
      | _ -> ());

      (* Steps 4/5: route the index tables to the translator, which
         derives the server query q_S. *)
      let send_query sender pairs =
        Link.exchange link ~phase:"mediator-server-query" ~sender ~receiver:Mediator
          ~label:"server-query-qS"
          ~size:(fun pairs -> 16 * pair_count pairs)
          ~encode:pairs_payload ~decode:(pairs_of_payload ~arity) pairs
      in
      let per_attr_pairs =
        match setting with
        | Client_setting ->
          (* Tables encrypted for the client; client translates. *)
          let enc_it1 =
            sealed_exchange link ~phase:"client-translate" ~receiver:Client
              ~label:"enc(ITables_R1)" (sealed_of up1)
          in
          let enc_it2 =
            sealed_exchange link ~phase:"client-translate" ~receiver:Client
              ~label:"enc(ITables_R2)" (sealed_of up2)
          in
          let pairs =
            match (enc_it1, enc_it2) with
            | Some enc_it1, Some enc_it2 ->
              step Client "client-translate" (fun () ->
                  let it1 =
                    tables_of_wire
                      (decrypt_or_fail ~phase:"client-translate" ~party:Client client.Env.key
                         "ITables_R1" enc_it1)
                  in
                  let it2 =
                    tables_of_wire
                      (decrypt_or_fail ~phase:"client-translate" ~party:Client client.Env.key
                         "ITables_R2" enc_it2)
                  in
                  Outcome.Builder.client_sees b "partitions-R1" (partition_count_sum it1);
                  Outcome.Builder.client_sees b "partitions-R2" (partition_count_sum it2);
                  server_query_pairs ~left_tables:it1 ~right_tables:it2)
            | _ -> None
          in
          send_query Client pairs
        | Source_setting ->
          (* S2's tables travel, encrypted under S1's source key, to S1,
             which translates — learning S2's partition structure. *)
          let enc_it2 =
            sealed_exchange link ~phase:"source-translate" ~receiver:(Source s1)
              ~label:"enc_S1(ITables_R2)" (sealed_of up2)
          in
          let pairs =
            match (side1, enc_it2) with
            | Some (_, tables1, _), Some enc_it2 ->
              step (Source s1) "source-translate" (fun () ->
                  let it2 =
                    tables_of_wire
                      (decrypt_or_fail ~phase:"source-translate" ~party:(Source s1)
                         (Lazy.force s1_keys) "ITables_R2" enc_it2)
                  in
                  Outcome.Builder.source_sees b s1 "partitions-R2" (partition_count_sum it2);
                  server_query_pairs ~left_tables:tables1 ~right_tables:it2)
            | _ -> None
          in
          send_query (Source s1) pairs
        | Mediator_setting -> (
          (* Tables in plaintext at the mediator — cheapest, but the
             mediator can now approximate every tuple's join value
             (the paper's Section 6 warning). *)
          match (up1, up2) with
          | Some (_, Clear tables1), Some (_, Clear tables2) ->
            Outcome.Builder.mediator_sees b "partitions-R1" (partition_count_sum tables1);
            Outcome.Builder.mediator_sees b "partitions-R2" (partition_count_sum tables2);
            (* Measured value approximation: entropy of the index values
               it holds, in centibits per tuple. *)
            let centibits tables relation =
              List.fold_left
                (fun acc table ->
                  acc
                  + int_of_float
                      (100.0
                      *. Das_partition.disclosure_bits table
                           (Relation.column relation (Das_partition.attr table))))
                0 tables
            in
            Outcome.Builder.mediator_sees b "approx-value-centibits-R1"
              (centibits tables1 request.Request.left_result);
            Outcome.Builder.mediator_sees b "approx-value-centibits-R2"
              (centibits tables2 request.Request.right_result);
            step Mediator "mediator-translate" (fun () ->
                server_query_pairs ~left_tables:tables1 ~right_tables:tables2)
          | _ -> None)
      in

      (* Step 6: the mediator evaluates q_S over the encrypted relations
         it received and returns R_C. *)
      let rc =
        match (per_attr_pairs, up1, up2) with
        | Some pairs, Some (r1s, _), Some (r2s, _) ->
          let rc =
            step Mediator "mediator-server-query" (fun () ->
                validate_indexes 1 r1s;
                validate_indexes 2 r2s;
                server_join server_eval pairs r1s r2s)
          in
          Option.iter
            (fun rc ->
              Outcome.Builder.mediator_sees b "condition-size-qS" (pair_count pairs);
              Outcome.Builder.mediator_sees b "cardinality-RC" (List.length rc))
            rc;
          rc
        | _ -> None
      in
      let rc =
        Codec.exchange_list link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"RC" (Codec.pair Codec.hybrid Codec.hybrid) rc
      in

      (* Step 7: the client decrypts R_C and applies q_C. *)
      let client_view =
        match rc with
        | Some rc when computes Client ->
          Outcome.Builder.client_sees b "candidate-pairs-received" (List.length rc);
          step Client "client-postprocess" (fun () ->
              let left_schema = Relation.schema request.Request.left_result in
              let right_schema = Relation.schema request.Request.right_result in
              let pos_left = Join_key.positions left_schema join_attrs in
              let pos_right = Join_key.positions right_schema join_attrs in
              let keep_right =
                Array.of_list
                  (List.filter
                     (fun i -> not (Array.exists (Int.equal i) pos_right))
                     (List.init (Schema.arity right_schema) Fun.id))
              in
              let joined_schema =
                Schema.append left_schema
                  (Schema.make
                     (List.map (Schema.attr_at right_schema) (Array.to_list keep_right)))
              in
              (* A tuple's ciphertext recurs in every candidate pair it
                 joins: decrypt (and authenticate) each distinct one once,
                 keyed by its wire bytes. *)
              let decrypted = Hashtbl.create 64 in
              let decrypt label ct =
                let wire = Hybrid.to_wire ct in
                match Hashtbl.find_opt decrypted wire with
                | Some t -> t
                | None ->
                  let t =
                    Tuple.decode
                      (decrypt_or_fail ~phase:"client-postprocess" ~party:Client
                         client.Env.key label ct)
                  in
                  Hashtbl.add decrypted wire t;
                  t
              in
              let joined =
                List.filter_map
                  (fun (ct1, ct2) ->
                    let t1 = decrypt "etuple1" ct1 in
                    let t2 = decrypt "etuple2" ct2 in
                    (* q_C : R1.A_join = R2.A_join on the plaintexts. *)
                    if
                      Join_key.equal
                        (Join_key.of_tuple pos_left t1)
                        (Join_key.of_tuple pos_right t2)
                    then Some (Tuple.append t1 (Tuple.project keep_right t2))
                    else None)
                  rc
              in
              (Request.finalize request (Relation.make joined_schema joined), List.length rc))
        | _ -> None
      in
      client_view)
