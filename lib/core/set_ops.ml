open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation
module Round = Commutative_round

type op =
  | Intersection
  | Semi_join
  | Difference

let op_name = function
  | Intersection -> "intersection"
  | Semi_join -> "semi-join"
  | Difference -> "difference"

(* Reference (trusted-mediator) results. *)
let exact_result op ~on left right =
  match op with
  | Intersection -> Relation.intersect (Relation.distinct left) (Relation.distinct right)
  | Difference -> Relation.diff (Relation.distinct left) (Relation.distinct right)
  | Semi_join ->
    let right_keys = Join_key.distinct_keys right on in
    let positions = Join_key.positions (Relation.schema left) on in
    Relation.make (Relation.schema left)
      (List.filter
         (fun tuple ->
           let key = Join_key.of_tuple positions tuple in
           List.exists (Join_key.equal key) right_keys)
         (Relation.tuples left))

let run ?fault ?on env client op ~left ~right =
  Outcome.Builder.run ~scheme:(op_name op) ?fault (fun b link ->
      let computes = Link.computes link in
      let step party phase f = Outcome.Builder.step link party phase f in
      (* Request phase as usual; the two partial queries are the same
         "select *" queries as for a join, but the reference is the set
         operation, not their join. *)
      let query = Printf.sprintf "select * from %s natural join %s" left right in
      let request = Request.run link env client ~query in
      let left_schema = Request.schema request `Left in
      let key_attrs =
        match op with
        | Semi_join -> Option.value ~default:(Request.join_attrs request) on
        | Intersection | Difference ->
          if not (Schema.equal_layout left_schema (Request.schema request `Right)) then
            invalid_arg
              (Printf.sprintf "Set_ops.%s: relations %s and %s have different layouts"
                 (op_name op) left right);
          List.map (fun a -> a.Schema.name) (Schema.attrs left_schema)
      in
      let groups which = lazy (Join_key.group_by (Request.partial request which) key_attrs) in
      let pk = request.Request.client_pk in
      let payload_of tuples =
        match op with
        | Semi_join -> tuples
        | Intersection | Difference ->
          (* Whole-tuple keys: every member of the group is the same
             tuple; ship one representative (set semantics). *)
          (match tuples with [] -> [] | t :: _ -> [ t ])
      in
      (* Only S1 seals payloads, which the mediator keeps and forwards
         by id; S2 contributes bare hashes — no tuple data leaves S2. *)
      let doubled =
        Round.run b link ?fault env request
          ~left:
            {
              Round.groups = groups `Left;
              seal =
                (fun prng _ tuples ->
                  Hybrid.encrypt prng pk (Codec.encode Codec.tuples (payload_of tuples)));
              payload = Codec.hybrid;
              forward = Round.Id;
              labels = ("M_1(keys+payloads)", "hashes-1", "doubly-encrypted-1");
            }
          ~right:
            {
              Round.groups = groups `Right;
              seal = (fun _ _ _ -> ());
              payload = Codec.none;
              forward = Round.Bare;
              labels = ("M_2(keys)", "hashes-2", "doubly-encrypted-2");
            }
      in
      (* Matching: intersection and semi-join keep the left payloads
         whose key the right set holds, difference the others. *)
      let selected =
        Option.bind doubled (fun (left, right) ->
            step Mediator "mediator-match" (fun () ->
                let present = Hashtbl.create 64 in
                List.iter (fun (h, ()) -> Hashtbl.replace present (Bigint.to_string h) ()) right;
                let wanted =
                  match op with Intersection | Semi_join -> true | Difference -> false
                in
                List.filter_map
                  (fun (h, ct) ->
                    if Hashtbl.mem present (Bigint.to_string h) = wanted then Some ct else None)
                  left))
      in
      Option.iter
        (fun selected ->
          Outcome.Builder.mediator_sees b "payloads-forwarded" (List.length selected))
        selected;
      let selected =
        Codec.exchange_list link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"selected-payloads" Codec.hybrid selected
      in

      (* Client: decrypt and assemble. *)
      let client_view =
        match selected with
        | Some selected when computes Client ->
          step Client "client-postprocess" (fun () ->
              let tuples =
                List.concat_map
                  (fun ct ->
                    Codec.decode Codec.tuples
                      (Das.decrypt_or_fail ~phase:"client-postprocess" ~party:Client
                         client.Env.key "payload" ct))
                  selected
              in
              let relation = Relation.make left_schema tuples in
              let relation =
                match op with
                | Intersection | Difference -> Relation.distinct relation
                | Semi_join -> relation
              in
              (Request.finalize request relation, List.length tuples))
        | _ -> None
      in
      (* The reference, built only where the client is. *)
      let exact =
        if computes Client then
          Request.finalize request
            (exact_result op ~on:key_attrs (Request.partial request `Left)
               (Request.partial request `Right))
        else Relation.make left_schema []
      in
      (exact, client_view))
