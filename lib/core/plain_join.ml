open Secmed_relalg
open Secmed_mediation

let relation_size relation =
  List.fold_left (fun acc t -> acc + String.length (Tuple.encode t)) 0 (Relation.tuples relation)

(* Canonical payload: the tuples' self-delimiting encodings back to
   back, exactly [relation_size] bytes. *)
let encode_tuples relation = String.concat "" (List.map Tuple.encode (Relation.tuples relation))

let decode_tuples schema blob =
  let r = Wire.reader blob in
  Relation.make schema (Wire.read_rest r (fun () -> Wire.read_at r Tuple.decode_at))

let run ?fault ?endpoint env client ~query =
  Request.frame ~scheme:"plain" ?fault ?endpoint env client ~query (fun b link request ->
      let send which side (entry : Catalog.entry) relation =
        Link.exchange link ~phase:"mediator-join" ~sender:(Source entry.Catalog.source)
          ~receiver:Mediator ~label:(Printf.sprintf "plaintext-R%d" which) ~size:relation_size
          ~encode:encode_tuples ~decode:(decode_tuples (Request.schema request side)) relation
      in
      let r1 =
        send 1 `Left request.Request.decomposition.Catalog.left request.Request.left_result
      in
      let r2 =
        send 2 `Right request.Request.decomposition.Catalog.right request.Request.right_result
      in
      (* The mediator joins what the sources sent, and sees all of it. *)
      let result =
        match (r1, r2) with
        | Some r1, Some r2 when Link.computes link Mediator ->
          Outcome.Builder.mediator_sees b "plaintext-tuples-seen"
            (Relation.cardinality r1 + Relation.cardinality r2);
          Outcome.Builder.step link Mediator "mediator-join" (fun () ->
              Request.finalize request (Relation.natural_join r1 r2))
        | _ -> None
      in
      let result =
        Link.exchange link ~phase:"client-receive" ~sender:Mediator ~receiver:Client
          ~label:"global-result" ~size:relation_size ~encode:encode_tuples
          ~decode:(decode_tuples (Request.result_schema request))
          result
      in
      let client_view =
        match result with
        | Some result when Link.computes link Client ->
          Outcome.Builder.client_sees b "tuples-received" (Relation.cardinality result);
          Some (result, Relation.cardinality result)
        | _ -> None
      in
      client_view)
