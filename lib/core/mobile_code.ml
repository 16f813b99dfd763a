open Secmed_crypto
open Secmed_relalg
open Secmed_sql
open Secmed_mediation

let encode_relation relation =
  let w = Wire.writer () in
  Wire.write_list w (fun t -> Wire.write_string w (Tuple.encode t)) (Relation.tuples relation);
  Wire.contents w

let decode_tuples blob =
  let r = Wire.reader blob in
  let tuples = Wire.read_list r (fun () -> Tuple.decode (Wire.read_string r)) in
  Wire.expect_end r;
  tuples

let read_hybrid r = Wire.read_at r Hybrid.of_wire_at

(* What the mediator ships to the client: both encrypted partial results
   followed by the mobile join program. *)
let encode_bundle (ct1, ct2, program) = Hybrid.to_wire ct1 ^ Hybrid.to_wire ct2 ^ program

let decode_bundle blob =
  let r = Wire.reader blob in
  let ct1 = read_hybrid r in
  let ct2 = read_hybrid r in
  (ct1, ct2, Wire.read_raw r (Wire.remaining r))

let run ?fault ?endpoint env client ~query =
  let b = Outcome.Builder.create ~scheme:"mobile-code" in
  let tr = Outcome.Builder.transcript b in
  Fault.attach fault tr;
  let link = Link.make ?endpoint ?fault tr in
  let (exact, client_view), counters =
    Counters.with_fresh (fun () ->
        let request =
          Outcome.Builder.replicated b link Mediator "request" (fun () ->
              Request.run link env client ~query)
        in
        let exact = Request.exact_result env request in
        let pk = request.Request.client_pk in
        let encrypt_side which (entry : Catalog.entry) relation =
          let sid = entry.Catalog.source in
          let ct =
            Outcome.Builder.step b link (Source sid) "source-encrypt" (fun () ->
                let prng = Env.prng_for env (Printf.sprintf "mc-source-%d" sid) in
                let ct = Hybrid.encrypt prng pk (encode_relation relation) in
                match Fault.byzantine_mode fault sid with
                | Some Fault.Malformed_ciphertexts ->
                  Hybrid.of_wire (Fault.flip_tail (Hybrid.to_wire ct))
                | _ -> ct)
          in
          Link.exchange link ~phase:"mediator-forward" ~sender:(Source sid) ~receiver:Mediator
            ~label:(Printf.sprintf "encrypted-R%d" which)
            ~size:Hybrid.size ~encode:Hybrid.to_wire ~decode:Hybrid.of_wire ct
        in
        let ct1 =
          encrypt_side 1 request.Request.decomposition.Catalog.left request.Request.left_result
        in
        let ct2 =
          encrypt_side 2 request.Request.decomposition.Catalog.right
            request.Request.right_result
        in
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
          match Hybrid.decrypt client.Env.key ct with
          | Some blob -> decode_tuples blob
          | None ->
            Fault.fail ~phase:"client-postprocess" ~party:Client
              ("authentication failure on " ^ label)
        in
        let client_view =
          match bundle with
          | None -> None
          | Some (ct1, ct2, _) ->
            Outcome.Builder.step b link Client "client-postprocess" (fun () ->
                let left =
                  Relation.make (Relation.schema request.Request.left_result) (decrypt "R1" ct1)
                in
                let right =
                  Relation.make (Relation.schema request.Request.right_result) (decrypt "R2" ct2)
                in
                let received = Relation.cardinality left + Relation.cardinality right in
                Outcome.Builder.client_sees b "tuples-received" received;
                (Request.finalize request (Relation.natural_join left right), received))
        in
        (exact, client_view))
  in
  Outcome.Builder.finish_projected b ~exact ~counters client_view
