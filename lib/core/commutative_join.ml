open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

let group_bytes group = (group.Group.bits + 7) / 8

(* Serialization of a tuple set Tup_i(a) for hybrid encryption. *)
let encode_tuple_set tuples =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) tuples;
  Wire.contents w

let decode_tuple_set blob =
  let r = Wire.reader blob in
  let tuples = Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)) in
  Wire.expect_end r;
  tuples

(* One source's step 1-3: key generation, hashing, encryption, and the
   shuffled message set M_i. *)
let build_messages prng group pk request which =
  let key = Commutative.keygen prng group in
  (* Per-group hash + f_e + hybrid encryption on independent split
     streams: the Batch executor fans the loop across domains with
     bit-identical messages at any domain count.  The shuffle below
     draws from the parent stream, after the splits, as before. *)
  let shuffled =
    Batch.map_seeded ~prng ~label:"comm-msg"
      (fun _ prng (a, tuples) ->
        let hashed = Random_oracle.hash group (Join_key.encode a) in
        (Commutative.apply key hashed, Hybrid.encrypt prng pk (encode_tuple_set tuples)))
      (Array.of_list (Request.groups request which))
  in
  Prng.shuffle prng shuffled;
  (key, Array.to_list shuffled)

let message_set_size group messages =
  List.fold_left (fun acc (_, ct) -> acc + group_bytes group + Hybrid.size ct) 0 messages

(* Canonical payloads: hashed keys at the group's fixed byte width and
   IDs as 8-byte integers, so each message's wire form is exactly the
   size the transcript declares.  One string per message, so the sets
   can travel row-wise ([Link.exchange_rows]). *)
let message_rows group messages =
  let gb = group_bytes group in
  List.map
    (fun (h, ct) -> Bigint.to_bytes_be_padded gb h ^ Hybrid.to_wire ct)
    messages

let entry_rows group entries =
  let gb = group_bytes group in
  List.map
    (fun (h, payload) ->
      let w = Wire.writer () in
      Wire.write_raw w (Bigint.to_bytes_be_padded gb h);
      (match payload with
       | `Id i -> Wire.write_int w i
       | `Ct ct -> Wire.write_raw w (Hybrid.to_wire ct));
      Wire.contents w)
    entries

let entries_payload group entries = String.concat "" (entry_rows group entries)

let read_hybrid r = Wire.read_at r Hybrid.of_wire_at

let read_hash group r = Bigint.of_bytes_be (Wire.read_raw r (group_bytes group))

(* Receivers' side of the canonical payloads above. *)
let decode_messages group blob =
  let r = Wire.reader blob in
  Wire.read_rest r (fun () ->
      let h = read_hash group r in
      (h, read_hybrid r))

let decode_entries group ~use_ids blob =
  let r = Wire.reader blob in
  Wire.read_rest r (fun () ->
      let h = read_hash group r in
      (h, if use_ids then `Id (Wire.read_int r) else `Ct (read_hybrid r)))

let encode_point group h = Bigint.to_bytes_be_padded (group_bytes group) h
let decode_point group blob =
  let r = Wire.reader blob in
  let h = read_hash group r in
  Wire.expect_end r;
  h

let result_size result_messages =
  List.fold_left (fun acc (a, c) -> acc + Hybrid.size a + Hybrid.size c) 0 result_messages

let decode_result blob =
  let r = Wire.reader blob in
  Wire.read_rest r (fun () ->
      let a = read_hybrid r in
      (a, read_hybrid r))

let run ?fault ?endpoint ?(use_ids = false) env client ~query =
  let b = Outcome.Builder.create ~scheme:"commutative" in
  let tr = Outcome.Builder.transcript b in
  Fault.attach fault tr;
  let link = Link.make ?endpoint ?fault tr in
  let computes = Link.computes link in
  let step party phase f = Outcome.Builder.step b link party phase f in
  let group = env.Env.group in
  let gb = group_bytes group in
  let (exact, client_view), counters =
    Counters.with_fresh (fun () ->
        let request =
          Outcome.Builder.replicated b link Mediator "request" (fun () ->
              Request.run link env client ~query)
        in
        let exact = Request.exact_result env request in
        let pk = request.Request.client_pk in
        let source_of which =
          match which with
          | `Left -> request.Request.decomposition.Catalog.left.Catalog.source
          | `Right -> request.Request.decomposition.Catalog.right.Catalog.source
        in

        (* Steps 1-3: each source builds and sends its message set M_i. *)
        let side which =
          let sid = source_of which in
          let built =
            step (Source sid) "source-encrypt" (fun () ->
                let prng = Env.prng_for env (Printf.sprintf "comm-source-%d" sid) in
                let key, messages = build_messages prng group pk request which in
                (* A byzantine source ships ciphertexts that parse but
                   fail authentication when the client opens them
                   (DESIGN.md §8). *)
                match Fault.byzantine_mode fault sid with
                | Some Fault.Malformed_ciphertexts ->
                  ( key,
                    List.map
                      (fun (h, ct) -> (h, Hybrid.of_wire (Fault.flip_tail (Hybrid.to_wire ct))))
                      messages )
                | _ -> (key, messages))
          in
          let messages =
            Link.exchange_rows link ~phase:"mediator-exchange" ~sender:(Source sid)
              ~receiver:Mediator ~label:"M_i" ~size:(message_set_size group)
              ~rows:(message_rows group) ~decode:(decode_messages group)
              (Option.map snd built)
          in
          (sid, Option.map fst built, messages)
        in
        let s1, key1, m1 = side `Left in
        let s2, key2, m2 = side `Right in
        (* Conformance audit (only under a fault plan, so honest runs stay
           byte-identical): a public canary h0 travels the same path as
           the message sets — each source's f_ei(h0) to the mediator, on
           to the opposite source, back doubly encrypted — and the
           mediator checks f_e1(f_e2(h0)) = f_e2(f_e1(h0)), which catches
           a source whose second pass used a stale key. *)
        let auditing = Fault.auditing fault in
        let canary ~phase ~sender ~receiver ~label value =
          if auditing then
            Link.exchange link ~phase ~sender ~receiver ~label ~guard:false ~size:(fun _ -> gb)
              ~encode:(encode_point group) ~decode:(decode_point group) (value ())
          else None
        in
        let h0 = lazy (Random_oracle.hash group "commutative-canary") in
        let send_canary sid key =
          canary ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator ~label:"canary"
            (fun () -> Option.map (fun key -> Commutative.apply key (Lazy.force h0)) key)
        in
        let canary1 = send_canary s1 key1 in
        let canary2 = send_canary s2 key2 in
        let at_mediator v = if computes Mediator then v else None in
        let m1 = at_mediator m1 and m2 = at_mediator m2 in
        let canary1 = at_mediator canary1 and canary2 = at_mediator canary2 in
        (match (m1, m2) with
        | Some m1, Some m2 ->
          Outcome.Builder.mediator_sees b "cardinality-domactive-R1" (List.length m1);
          Outcome.Builder.mediator_sees b "cardinality-domactive-R2" (List.length m2)
        | _ -> ());

        (* Step 4: the mediator exchanges the message sets (footnote 1:
           optionally substituting fixed-length IDs for the ciphertexts). *)
        let outbound messages =
          if use_ids then List.mapi (fun i (h, _) -> (h, `Id i)) messages
          else List.map (fun (h, ct) -> (h, `Ct ct)) messages
        in
        let wire_size entries =
          List.fold_left
            (fun acc (_, payload) ->
              acc + gb + (match payload with `Id _ -> 8 | `Ct ct -> Hybrid.size ct))
            0 entries
        in
        let forward sid label messages =
          Link.exchange link ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source sid)
            ~label ~size:wire_size ~encode:(entries_payload group)
            ~decode:(decode_entries group ~use_ids) (Option.map outbound messages)
        in
        let to_s2 = forward s2 "M_1" m1 in
        let to_s1 = forward s1 "M_2" m2 in
        let sees sid entries =
          Option.iter
            (fun entries ->
              if computes (Source sid) then
                Outcome.Builder.source_sees b sid "cardinality-domactive-opposite"
                  (List.length entries))
            entries
        in
        sees s1 to_s1;
        sees s2 to_s2;
        let opposite1 =
          canary ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s1)
            ~label:"opposite-canary" (fun () -> canary2)
        in
        let opposite2 =
          canary ~phase:"source-reencrypt" ~sender:Mediator ~receiver:(Source s2)
            ~label:"opposite-canary" (fun () -> canary1)
        in

        (* Steps 5-6: each source applies its key on top of the other's.
           A byzantine source may use a stale (different) key for the
           second pass, which would silently empty the intersection —
           the canary audit catches it. *)
        let double_encrypt sid key entries opposite =
          let done_ =
            match (key, entries) with
            | Some key, Some entries ->
              step (Source sid) "source-reencrypt" (fun () ->
                  let key =
                    match Fault.byzantine_mode fault sid with
                    | Some Fault.Stale_commutative_key ->
                      Commutative.keygen
                        (Env.prng_for env (Printf.sprintf "stale-comm-key-%d" sid))
                        group
                    | _ -> key
                  in
                  ( List.map (fun (h, payload) -> (Commutative.apply key h, payload)) entries,
                    Option.map (Commutative.apply key) opposite ))
            | _ -> None
          in
          let reencrypted =
            Link.exchange_rows link ~phase:"mediator-match" ~sender:(Source sid)
              ~receiver:Mediator ~label:"doubly-encrypted" ~size:wire_size
              ~rows:(entry_rows group) ~decode:(decode_entries group ~use_ids)
              (Option.map fst done_)
          in
          let double_canary =
            canary ~phase:"mediator-match" ~sender:(Source sid) ~receiver:Mediator
              ~label:"double-canary" (fun () -> Option.bind done_ snd)
          in
          (at_mediator reencrypted, at_mediator double_canary)
        in
        let from_s1, double_canary1 = double_encrypt s1 key1 to_s1 opposite1 in
        let from_s2, double_canary2 = double_encrypt s2 key2 to_s2 opposite2 in
        (match (double_canary1, double_canary2) with
        | Some a, Some b when Bigint.to_string a <> Bigint.to_string b ->
          Fault.fail ~phase:"mediator-match" ~party:Mediator
            "commutative canary mismatch: a source re-encrypted under a stale key"
        | _ -> ());

        (* Step 7: the mediator matches identical first components. *)
        let result_messages =
          match (from_s1, from_s2, m1, m2) with
          | Some from_s1, Some from_s2, Some m1, Some m2 ->
            let matches =
              step Mediator "mediator-match" (fun () ->
                  let table = Hashtbl.create 64 in
                  List.iter
                    (fun (h, payload) -> Hashtbl.replace table (Bigint.to_string h) payload)
                    from_s2;
                  (* from_s2 carries (f_e2(f_e1(h(a))), Tup_1(a)); from_s1
                     carries (f_e1(f_e2(h(a))), Tup_2(a)). *)
                  List.filter_map
                    (fun (h, payload2) ->
                      match Hashtbl.find_opt table (Bigint.to_string h) with
                      | Some payload1 -> Some (payload1, payload2)
                      | None -> None)
                    from_s1)
            in
            Option.map
              (fun matches ->
                Outcome.Builder.mediator_sees b "intersection-size" (List.length matches);
                (* With IDs the mediator resolves them back to the
                   ciphertexts it retained; without, the ciphertexts
                   travelled with the hashes. *)
                let ids_of messages =
                  let t = Hashtbl.create 64 in
                  List.iteri (fun i (_, ct) -> Hashtbl.replace t i ct) messages;
                  t
                in
                let table_m1 = ids_of m1 and table_m2 = ids_of m2 in
                let resolve side_table = function
                  | `Ct ct -> ct
                  | `Id id -> (
                    match Hashtbl.find_opt side_table id with
                    | Some ct -> ct
                    | None ->
                      Fault.fail ~phase:"mediator-match" ~party:Mediator
                        (Printf.sprintf "doubly-encrypted entry names unknown id %d" id))
                in
                List.map
                  (fun (payload1, payload2) ->
                    (resolve table_m1 payload1, resolve table_m2 payload2))
                  matches)
              matches
          | _ -> None
        in
        let result_messages =
          Link.exchange_rows link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
            ~label:"result-messages" ~size:result_size
            ~rows:(List.map (fun (a, c) -> Hybrid.to_wire a ^ Hybrid.to_wire c))
            ~decode:decode_result result_messages
        in

        (* Step 8: the client decrypts and combines the tuple sets. *)
        let client_view =
          match result_messages with
          | Some result_messages when computes Client ->
            let join_attrs = Request.join_attrs request in
            let right_schema = Relation.schema request.Request.right_result in
            let pos_right = Join_key.positions right_schema join_attrs in
            let keep_right =
              Array.of_list
                (List.filter
                   (fun i -> not (Array.exists (Int.equal i) pos_right))
                   (List.init (Schema.arity right_schema) Fun.id))
            in
            let joined_schema =
              Schema.append
                (Relation.schema request.Request.left_result)
                (Schema.make (List.map (Schema.attr_at right_schema) (Array.to_list keep_right)))
            in
            let decrypt_set label ct =
              match Hybrid.decrypt client.Env.key ct with
              | Some blob -> decode_tuple_set blob
              | None ->
                Fault.fail ~phase:"client-postprocess" ~party:Client
                  ("authentication failure on " ^ label)
            in
            let view =
              step Client "client-postprocess" (fun () ->
                  let received = ref 0 in
                  let joined =
                    List.concat_map
                      (fun (ct1, ct2) ->
                        let tup1 = decrypt_set "Tup1" ct1 and tup2 = decrypt_set "Tup2" ct2 in
                        received := !received + (List.length tup1 * List.length tup2);
                        List.concat_map
                          (fun t1 ->
                            List.map
                              (fun t2 -> Tuple.append t1 (Tuple.project keep_right t2))
                              tup2)
                          tup1)
                      result_messages
                  in
                  (Request.finalize request (Relation.make joined_schema joined), !received))
            in
            Outcome.Builder.client_sees b "result-messages-received"
              (List.length result_messages);
            view
          | _ -> None
        in
        (exact, client_view))
  in
  Outcome.Builder.finish_projected b ~exact ~counters client_view
