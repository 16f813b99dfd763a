open Secmed_relalg
open Secmed_crypto
open Secmed_mediation
module Round = Commutative_round

let run ?fault ?endpoint ?(use_ids = false) env client ~query =
  Outcome.Builder.run_request ~scheme:"commutative" ?fault ?endpoint env client ~query
    (fun b link request _exact ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      let pk = request.Request.client_pk in

      (* Steps 1-6: both sources' message sets M_i, hybrid-encrypted
         tuple sets Tup_i(a) as payloads, forwarded as ciphertexts or
         (footnote 1) as fixed-length IDs. *)
      let set which label =
        {
          Round.groups = Request.groups request which;
          seal = (fun prng _ tuples -> Hybrid.encrypt prng pk (Codec.encode Codec.tuples tuples));
          payload = Codec.hybrid;
          forward = (if use_ids then Round.Id else Round.Payload);
          labels = ("M_i", label, "doubly-encrypted");
        }
      in
      let doubled =
        Round.run b link ?fault env request ~left:(set `Left "M_1") ~right:(set `Right "M_2")
      in

      (* Step 7: the mediator matches identical first components:
         (f_e2(f_e1(h(a))), Tup_1(a)) against (f_e1(f_e2(h(a))), Tup_2(a)). *)
      let result_messages =
        Option.bind doubled (fun (left, right) ->
            step Mediator "mediator-match" (fun () -> Round.pairs ~left ~right))
      in
      Option.iter
        (fun matches -> Outcome.Builder.mediator_sees b "intersection-size" (List.length matches))
        result_messages;
      let result_messages =
        Codec.exchange_list link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"result-messages" (Codec.pair Codec.hybrid Codec.hybrid) result_messages
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
            Codec.decode Codec.tuples
              (Das.decrypt_or_fail ~phase:"client-postprocess" ~party:Client client.Env.key
                 label ct)
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
      client_view)
