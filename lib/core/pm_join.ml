open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type variant =
  | Direct_payload
  | Session_keys

let variant_name = function
  | Direct_payload -> "direct-payload"
  | Session_keys -> "session-keys"

(* Join values are injected into Z_n through a deterministic 128-bit
   encoding (the paper uses the values directly; hashing makes the
   encoding type-uniform and width-bounded — see DESIGN.md).  Both the
   polynomial roots and the evaluation points use this encoding, and the
   16 bytes double as the "a_k" prefix of the packed plaintext the client
   matches on. *)
let root_bytes key = String.sub (Sha256.digest ("pm-root" ^ Join_key.encode key)) 0 16

let root_of_key key = Bigint.of_bytes_be (root_bytes key)

let root_of_value v = root_of_key (Join_key.of_values [ v ])

let encode_tuple_set tuples =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) tuples;
  Wire.contents w

let decode_tuple_set blob =
  let r = Wire.reader blob in
  let tuples = Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)) in
  Wire.expect_end r;
  tuples

let ciphertext_bytes pk = (Bigint.numbits pk.Paillier.n_squared + 7) / 8

let be64 v = String.init 8 (fun i -> Char.chr ((v lsr ((7 - i) * 8)) land 0xff))

let read_be64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* What one source's pass produces: the e-values plus (session-key
   variant) an ID table of DEM-encrypted tuple sets. *)
type side_output = {
  e_values : Paillier.ciphertext list;
  id_table : (int * string) list;
  id_table_bytes : int;
}

(* Receiver-side range/group check: a valid Paillier ciphertext is a unit
   of Z_{n^2}, so 0 never appears honestly; the private-type constructor
   already excludes values >= n^2.  Run unconditionally — it is the
   defence against a source shipping garbage coefficients. *)
let validate_ciphertexts ~phase ~party label cts =
  List.iter
    (fun c ->
      if Bigint.is_zero (Paillier.ciphertext_to_bigint c) then
        Fault.fail ~phase ~party
          (Printf.sprintf "%s carries an out-of-group Paillier value (0 not a unit)" label))
    cts

(* Steps 5/6 of Listing 4: for each own value a, homomorphically evaluate
   the opposite polynomial at a, mask with fresh randomness and add the
   packed (a ‖ payload), as one multi-exponentiation over the
   coefficients' tables, built once here after the coefficients pass the
   group check.  Each group entry runs on its own PRNG stream (split from
   the side's seed) through the Batch executor: the masked evaluation per
   entry is the source's dominant cost and is independent across entries,
   and the tables are read-only.  IDs are assigned by position — entry i
   of this side gets [first_id + i] — which reproduces the sequential
   numbering whichever thread evaluates which entry. *)
let evaluate_side ~variant ~prng ~pk ~opp_coeffs ~request ~which ~sid ~first_id =
  if opp_coeffs = [] then
    Fault.fail ~phase:"source-evaluate" ~party:(Source sid)
      "opposite polynomial has no coefficients";
  validate_ciphertexts ~phase:"source-evaluate" ~party:(Source sid) "opposite polynomial"
    opp_coeffs;
  let groups = Array.of_list (Request.groups request which) in
  let tables = Pm_poly.tables pk opp_coeffs ~uses:(Array.length groups) in
  let items =
    Batch.map_seeded ~prng ~label:"pm-eval"
      (fun i prng (a, tuples) ->
        let payload, id_entry =
          match variant with
          | Direct_payload -> (encode_tuple_set tuples, None)
          | Session_keys ->
            let key = Hybrid.random_session_key prng in
            let id = first_id + i in
            (key ^ be64 id, Some (id, Hybrid.seal ~key (encode_tuple_set tuples)))
        in
        let packed = root_bytes a ^ payload in
        let message =
          try Paillier.encode_bytes pk packed
          with Invalid_argument _ ->
            (* A plaintext over the key's capacity is the evaluating
               source's typed failure, in its own phase. *)
            Fault.fail ~phase:"source-evaluate" ~party:(Source sid)
              (Printf.sprintf
                 "Pm_join: Tup_i(%s) needs %d plaintext bytes but the Paillier key holds %d; \
                  use the Session_keys variant or a larger key"
                 (Join_key.to_string a) (String.length packed)
                 (Paillier.max_plaintext_bytes pk))
        in
        (Pm_poly.eval_masked prng tables (root_of_key a) ~payload:message, id_entry))
      groups
  in
  let e_values = Array.to_list (Array.map fst items) in
  let id_table = List.filter_map snd (Array.to_list items) in
  let id_table_bytes =
    List.fold_left (fun acc (_, blob) -> acc + 8 + String.length blob) 0 id_table
  in
  { e_values; id_table; id_table_bytes }

(* The client's view of one decrypted e-value. *)
type decrypted_entry = {
  root : string;       (* 16 bytes *)
  entry_payload : string;
}

let decrypt_entries sk e_values =
  let pk = Paillier.public sk in
  (* Step 8's n+m CRT decryptions fan out across the Batch threads;
     decryption is deterministic, so a plain map keeps the list order. *)
  let plains = Batch.map_list (Paillier.decrypt sk) e_values in
  List.filter_map
    (fun plain ->
      match Paillier.decode_bytes pk plain with
      | Some packed when String.length packed >= 16 ->
        Some
          {
            root = String.sub packed 0 16;
            entry_payload = String.sub packed 16 (String.length packed - 16);
          }
      | Some _ | None -> None)
    plains

let recover_tuples ~variant ~id_lookup entry =
  match variant with
  | Direct_payload -> (
    try Some (decode_tuple_set entry.entry_payload)
    with Invalid_argument _ | Wire.Malformed _ -> None)
  | Session_keys ->
    if String.length entry.entry_payload <> 24 then None
    else begin
      let key = String.sub entry.entry_payload 0 16 in
      let id = read_be64 entry.entry_payload 16 in
      match id_lookup id with
      | None -> None
      | Some blob ->
        (match Hybrid.unseal ~key blob with
         | Some set -> (
           try Some (decode_tuple_set set)
           with Invalid_argument _ | Wire.Malformed _ -> None)
         | None -> None)
    end

(* Canonical payloads: every Paillier ciphertext at the fixed modulus
   width, ID-table entries as an 8-byte header + DEM blob — so each
   message's wire form is exactly the size the transcript declares.  One
   string per ciphertext / table entry, so the e-value messages can
   travel row-wise ([Link.exchange_rows]).  The ID-table header packs
   the blob's length above bit 32 and the id below it, so a receiver can
   split the table without knowing the blobs' sizes. *)
let cts_rows ct_bytes cts =
  List.map
    (fun c -> Bigint.to_bytes_be_padded ct_bytes (Paillier.ciphertext_to_bigint c))
    cts

let cts_payload ct_bytes cts = String.concat "" (cts_rows ct_bytes cts)

let id_table_rows table =
  List.map (fun (id, blob) -> be64 ((String.length blob lsl 32) lor id) ^ blob) table

(* Receivers' side of the payloads above, under the receiver's copy of
   the public key. *)
let read_cts pk r ~count =
  let ct_bytes = ciphertext_bytes pk in
  List.init count (fun _ ->
      Paillier.ciphertext_of_bigint pk (Bigint.of_bytes_be (Wire.read_raw r ct_bytes)))

let read_id_table variant r ~count =
  match variant with
  | Direct_payload -> []
  | Session_keys ->
    List.init count (fun _ ->
        let header = Wire.read_int r in
        let blob = Wire.read_raw r (header lsr 32) in
        (header land 0xffffffff, blob))

let decode_cts pk blob =
  let r = Wire.reader blob in
  let ct_bytes = ciphertext_bytes pk in
  if Wire.remaining r mod ct_bytes <> 0 then
    raise (Wire.Malformed "ciphertext list is not a whole number of ciphertexts");
  read_cts pk r ~count:(Wire.remaining r / ct_bytes)

let output_of e_values id_table =
  {
    e_values;
    id_table;
    id_table_bytes = List.fold_left (fun acc (_, blob) -> acc + 8 + String.length blob) 0 id_table;
  }

(* One source's e-values: one per own join value, so [count] is the
   degree of the polynomial that source sent. *)
let decode_output variant pk ~count blob =
  let r = Wire.reader blob in
  let e_values = read_cts pk r ~count in
  let id_table = read_id_table variant r ~count in
  Wire.expect_end r;
  output_of e_values id_table

(* What the mediator forwards to the client: both sides' e-values, then
   both sides' ID tables. *)
let decode_outputs variant pk ~counts:(n1, n2) blob =
  let r = Wire.reader blob in
  let e1 = read_cts pk r ~count:n1 in
  let e2 = read_cts pk r ~count:n2 in
  let t1 = read_id_table variant r ~count:n1 in
  let t2 = read_id_table variant r ~count:n2 in
  Wire.expect_end r;
  (output_of e1 t1, output_of e2 t2)

let output_size pk out = (ciphertext_bytes pk * List.length out.e_values) + out.id_table_bytes

let modulus_bytes pk = (Bigint.numbits pk.Paillier.n + 7) / 8

let decode_pk blob =
  let n = Bigint.of_bytes_be blob in
  if Bigint.numbits n < 64 || Bigint.is_even n then
    raise (Wire.Malformed "homomorphic key: modulus is not an odd number of at least 64 bits");
  Paillier.public_of_n n

let run ?fault ?endpoint ?(variant = Session_keys) env client ~query =
  (* Only a party that holds the value runs these; the others pass
     [None] and never call them. *)
  let with_pk pk f x = f (Option.get pk) x in
  Request.frame ~scheme:("pm-" ^ variant_name variant) ?fault ?endpoint env client ~query
    (fun b link request ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      let s1 = request.Request.decomposition.Catalog.left.Catalog.source in
      let s2 = request.Request.decomposition.Catalog.right.Catalog.source in

      (* Step 1: the client's homomorphic public key is distributed with
         its credentials (we account for it explicitly); every party
         works under the copy it received. *)
      let share ~sender ~receiver pk =
        Link.exchange link ~phase:"request" ~sender ~receiver ~label:"homomorphic-pk"
          ~size:modulus_bytes
          ~encode:(fun pk -> Bigint.to_bytes_be_padded (modulus_bytes pk) pk.Paillier.n)
          ~decode:decode_pk pk
      in
      let pk_client =
        if computes Client then Some (Paillier.public client.Env.paillier_key) else None
      in
      let pk_mediator = share ~sender:Client ~receiver:Mediator pk_client in
      let forward_pk sid =
        share ~sender:Mediator ~receiver:(Source sid)
          (if computes Mediator then pk_mediator else None)
      in
      let pk1 = forward_pk s1 in
      let pk2 = forward_pk s2 in

      (* Steps 2/3: each source builds its polynomial from its active
         domain and sends the encrypted coefficients to the mediator. *)
      let prng_of sid = Env.prng_for env (Printf.sprintf "pm-source-%d" sid) in
      let prng1 = lazy (prng_of s1) and prng2 = lazy (prng_of s2) in
      let build_poly which prng sid pk =
        let coeffs =
          match pk with
          | None -> None
          | Some pk ->
            step (Source sid) "source-polynomial" (fun () ->
                let roots = List.map root_of_key (Request.join_attr_values request which) in
                let poly = Pm_poly.from_roots ~modulus:pk.Paillier.n roots in
                let coeffs = Pm_poly.encrypt (Lazy.force prng) pk poly in
                (* A byzantine source ships values outside the
                   ciphertext group; the opposite source's range check
                   catches them. *)
                match Fault.byzantine_mode fault sid with
                | Some Fault.Garbage_paillier ->
                  List.map (fun _ -> Paillier.ciphertext_of_bigint pk Bigint.zero) coeffs
                | _ -> coeffs)
        in
        Link.exchange_rows link ~phase:"mediator-forward" ~sender:(Source sid)
          ~receiver:Mediator ~label:"encrypted-coefficients"
          ~size:(with_pk pk (fun pk coeffs -> ciphertext_bytes pk * List.length coeffs))
          ~rows:(with_pk pk (fun pk -> cts_rows (ciphertext_bytes pk)))
          ~decode:(with_pk pk_mediator decode_cts) coeffs
      in
      let coeffs1 = build_poly `Left prng1 s1 pk1 in
      let coeffs2 = build_poly `Right prng2 s2 pk2 in
      let at_mediator v = if computes Mediator then v else None in
      (* The coefficient count reveals the polynomial degree, i.e. the
         size of the active domain, to the mediator (and to the opposite
         source after forwarding). *)
      (match (at_mediator coeffs1, at_mediator coeffs2) with
      | Some coeffs1, Some coeffs2 ->
        Outcome.Builder.mediator_sees b "cardinality-domactive-R1" (List.length coeffs1 - 1);
        Outcome.Builder.mediator_sees b "cardinality-domactive-R2" (List.length coeffs2 - 1)
      | _ -> ());

      (* Step 4: the mediator forwards the encrypted coefficients. *)
      let forward sid label coeffs pk =
        Link.exchange link ~phase:"source-evaluate" ~sender:Mediator ~receiver:(Source sid)
          ~label
          ~size:(with_pk pk_mediator (fun pk coeffs -> ciphertext_bytes pk * List.length coeffs))
          ~encode:(with_pk pk_mediator (fun pk -> cts_payload (ciphertext_bytes pk)))
          ~decode:(with_pk pk decode_cts) (at_mediator coeffs)
      in
      let opp2 = forward s2 "encrypted-coefficients-P1" coeffs1 pk2 in
      let opp1 = forward s1 "encrypted-coefficients-P2" coeffs2 pk1 in
      let sees sid opp =
        match opp with
        | Some opp when computes (Source sid) ->
          Outcome.Builder.source_sees b sid "degree-opposite-polynomial" (List.length opp - 1)
        | _ -> ()
      in
      sees s1 opp1;
      sees s2 opp2;

      (* Steps 5/6: each source evaluates the opposite polynomial it
         received at its own values and returns the masked e-values.
         IDs are unique across both sides: the right side's start after
         the left side's, whose count is the degree of the left
         polynomial it received. *)
      let eval_side which prng sid pk opp_coeffs =
        let output =
          match (pk, opp_coeffs) with
          | Some pk, Some opp_coeffs ->
            step (Source sid) "source-evaluate" (fun () ->
                let first_id =
                  match which with `Left -> 0 | `Right -> List.length opp_coeffs - 1
                in
                let output =
                  evaluate_side ~variant ~prng:(Lazy.force prng) ~pk ~opp_coeffs ~request
                    ~which ~sid ~first_id
                in
                (* A byzantine source damages the DEM blobs of its ID
                   table (session-key variant); the client's
                   authenticated DEM decryption fails on every matched
                   entry. *)
                match Fault.byzantine_mode fault sid with
                | Some Fault.Malformed_ciphertexts ->
                  {
                    output with
                    id_table =
                      List.map (fun (id, blob) -> (id, Fault.flip_tail blob)) output.id_table;
                  }
                | _ -> output)
          | _ -> None
        in
        let own_coeffs = match which with `Left -> coeffs1 | `Right -> coeffs2 in
        Link.exchange_rows link ~phase:"mediator-forward" ~sender:(Source sid)
          ~receiver:Mediator ~label:"e-values" ~size:(with_pk pk output_size)
          ~rows:
            (with_pk pk (fun pk output ->
                 cts_rows (ciphertext_bytes pk) output.e_values @ id_table_rows output.id_table))
          ~decode:(fun blob ->
            (* One e-value per value of the sender's own domain: the
               degree of the polynomial it sent. *)
            decode_output variant (Option.get pk_mediator)
              ~count:(List.length (Option.get own_coeffs) - 1)
              blob)
          output
      in
      let out1 = eval_side `Left prng1 s1 pk1 opp1 in
      let out2 = eval_side `Right prng2 s2 pk2 opp2 in

      (* Step 7: the mediator sends the n+m encrypted values (and, in the
         session-key variant, the ID tables) to the client. *)
      let outputs =
        match (at_mediator out1, at_mediator out2) with
        | Some out1, Some out2 -> Some (out1, out2)
        | _ -> None
      in
      let outputs =
        Link.exchange_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"e-values"
          ~size:(with_pk pk_mediator (fun pk (out1, out2) ->
              output_size pk out1 + output_size pk out2))
          ~rows:
            (with_pk pk_mediator (fun pk (out1, out2) ->
                 let ct_bytes = ciphertext_bytes pk in
                 cts_rows ct_bytes out1.e_values
                 @ cts_rows ct_bytes out2.e_values
                 @ id_table_rows out1.id_table
                 @ id_table_rows out2.id_table))
          ~decode:(fun blob ->
            let degree coeffs = List.length (Option.get coeffs) - 1 in
            decode_outputs variant (Option.get pk_client)
              ~counts:(degree coeffs1, degree coeffs2)
              blob)
          outputs
      in

      (* Step 8: the client decrypts everything and keeps the matches. *)
      let client_view =
        match outputs with
        | Some (out1, out2) when computes Client ->
          Outcome.Builder.client_sees b "ciphertexts-received"
            (List.length out1.e_values + List.length out2.e_values);
          step Client "client-postprocess" (fun () ->
              validate_ciphertexts ~phase:"client-postprocess" ~party:Client "e-values"
                out1.e_values;
              validate_ciphertexts ~phase:"client-postprocess" ~party:Client "e-values"
                out2.e_values;
              let entries1 = decrypt_entries client.Env.paillier_key out1.e_values in
              let entries2 = decrypt_entries client.Env.paillier_key out2.e_values in
              Outcome.Builder.client_sees b "well-formed-decryptions"
                (List.length entries1 + List.length entries2);
              (* Hash the ID tables and the right-side entries once, so
                 the postprocess is O(n + m) rather than O(n * m) list
                 scans (mirrors the mediator's match in
                 commutative_join.ml). *)
              let id_lookup table =
                let h = Hashtbl.create (List.length table) in
                List.iter
                  (fun (id, blob) -> if not (Hashtbl.mem h id) then Hashtbl.add h id blob)
                  table;
                Hashtbl.find_opt h
              in
              let by_root = Hashtbl.create (List.length entries2) in
              List.iter (fun e -> Hashtbl.replace by_root e.root e) entries2;
              let join_attrs = Request.join_attrs request in
              let right_schema = Request.schema request `Right in
              let pos_right = Join_key.positions right_schema join_attrs in
              let keep_right =
                Array.of_list
                  (List.filter
                     (fun i -> not (Array.exists (Int.equal i) pos_right))
                     (List.init (Schema.arity right_schema) Fun.id))
              in
              let joined_schema =
                Schema.append (Request.schema request `Left)
                  (Schema.make
                     (List.map (Schema.attr_at right_schema) (Array.to_list keep_right)))
              in
              let received = ref 0 in
              let joined =
                List.concat_map
                  (fun e1 ->
                    match Hashtbl.find_opt by_root e1.root with
                    | None -> []
                    | Some e2 -> (
                      let tup1 =
                        recover_tuples ~variant ~id_lookup:(id_lookup out1.id_table) e1
                      in
                      let tup2 =
                        recover_tuples ~variant ~id_lookup:(id_lookup out2.id_table) e2
                      in
                      match (tup1, tup2) with
                      | Some tup1, Some tup2 ->
                        received := !received + (List.length tup1 * List.length tup2);
                        List.concat_map
                          (fun t1 ->
                            List.map
                              (fun t2 -> Tuple.append t1 (Tuple.project keep_right t2))
                              tup2)
                          tup1
                      | None, _ | _, None ->
                        (* A root match certifies both sides carried
                           this join value, so honest payloads always
                           recover (16-byte root collisions are
                           negligible): an unrecoverable payload is a
                           damaged ID table, not a non-match — fail
                           closed rather than silently under-report. *)
                        Fault.fail ~phase:"client-postprocess" ~party:Client
                          "matched entry with unrecoverable payload"))
                  entries1
              in
              (Request.finalize request (Relation.make joined_schema joined), !received))
        | _ -> None
      in
      client_view)
