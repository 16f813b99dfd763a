open Secmed_crypto
open Secmed_relalg
open Secmed_sql
open Secmed_mediation

(* What the mediator ships to the client: both encrypted partial results
   followed by the mobile join program. *)
let encode_bundle (ct1, ct2, program) = Hybrid.to_wire ct1 ^ Hybrid.to_wire ct2 ^ program

let decode_bundle blob =
  let r = Wire.reader blob in
  let ct1 = Codec.hybrid.Codec.read r in
  let ct2 = Codec.hybrid.Codec.read r in
  (ct1, ct2, Wire.read_raw r (Wire.remaining r))

let run ?fault ?endpoint env client ~query =
  Request.frame ~scheme:"mobile-code" ?fault ?endpoint env client ~query
    (fun b link request ->
      let pk = request.Request.client_pk in
      let encrypt_side which side (entry : Catalog.entry) =
        let sid = entry.Catalog.source in
        let ct =
          Outcome.Builder.step link (Source sid) "source-encrypt" (fun () ->
              let prng = Env.prng_for env (Printf.sprintf "mc-source-%d" sid) in
              let tuples = Relation.tuples (Request.partial request side) in
              let ct = Hybrid.encrypt prng pk (Codec.encode Codec.tuples tuples) in
              match Fault.byzantine_mode fault sid with
              | Some Fault.Malformed_ciphertexts -> Codec.hybrid.Codec.malformed ct
              | _ -> ct)
        in
        Codec.exchange link ~phase:"mediator-forward" ~sender:(Source sid) ~receiver:Mediator
          ~label:(Printf.sprintf "encrypted-R%d" which) Codec.hybrid ct
      in
      let ct1 = encrypt_side 1 `Left request.Request.decomposition.Catalog.left in
      let ct2 = encrypt_side 2 `Right request.Request.decomposition.Catalog.right in
      (* The mediator ships the partial results plus the mobile join
         program (the rendered algebra tree). *)
      let bundle =
        match (ct1, ct2) with
        | Some ct1, Some ct2 when Link.computes link Mediator ->
          Outcome.Builder.mediator_sees b "ciphertext-bytes-R1" (Hybrid.size ct1);
          Outcome.Builder.mediator_sees b "ciphertext-bytes-R2" (Hybrid.size ct2);
          Some (ct1, ct2, Algebra.to_string (Algebra.of_query (Parser.parse query)))
        | _ -> None
      in
      let bundle =
        Link.exchange link ~phase:"client-postprocess" ~sender:Mediator ~receiver:Client
          ~label:"encrypted-partials+code"
          ~size:(fun (ct1, ct2, program) ->
            Hybrid.size ct1 + Hybrid.size ct2 + String.length program)
          ~encode:encode_bundle ~decode:decode_bundle bundle
      in

      (* The client executes the code: decrypt, then join locally. *)
      let decrypt label ct =
        Codec.decode Codec.tuples
          (Das.decrypt_or_fail ~phase:"client-postprocess" ~party:Client client.Env.key label ct)
      in
      let client_view =
        match bundle with
        | None -> None
        | Some (ct1, ct2, _) ->
          Outcome.Builder.step link Client "client-postprocess" (fun () ->
              let left = Relation.make (Request.schema request `Left) (decrypt "R1" ct1) in
              let right = Relation.make (Request.schema request `Right) (decrypt "R2" ct2) in
              let received = Relation.cardinality left + Relation.cardinality right in
              Outcome.Builder.client_sees b "tuples-received" received;
              (Request.finalize request (Relation.natural_join left right), received))
      in
      client_view)
