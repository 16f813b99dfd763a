open Secmed_crypto

(* ------------------------------------------------------------------ *)
(* Table rendering helpers. *)

let render_table ~headers rows =
  let columns = List.length headers in
  let widths = Array.make columns 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row in
  measure headers;
  List.iter measure rows;
  let buf = Buffer.create 512 in
  let line () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let row cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (Printf.sprintf " %-*s |" widths.(i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  line ();
  row headers;
  line ();
  List.iter row rows;
  line ();
  Buffer.contents buf

let describe_observations observations =
  match observations with
  | [] -> "-"
  | _ ->
    String.concat "; "
      (List.map (fun (key, value) -> Printf.sprintf "%s=%d" key value) observations)

(* ------------------------------------------------------------------ *)
(* Table 1: extra information disclosed to client and mediator. *)

let table1 outcomes =
  let rows =
    List.map
      (fun (o : Outcome.t) ->
        [
          o.Outcome.scheme;
          Printf.sprintf "%s (received %d of %d exact pairs)"
            (describe_observations o.Outcome.client_observed)
            o.Outcome.client_received_tuples
            (Secmed_relalg.Relation.cardinality o.Outcome.exact);
          describe_observations o.Outcome.mediator_observed;
        ])
      outcomes
  in
  render_table ~headers:[ "scheme"; "client"; "mediator" ] rows

(* ------------------------------------------------------------------ *)
(* Table 2: applied cryptographic primitives.  The paper's classes are
   mapped onto our counters. *)

let primitive_classes =
  [
    ("hashfunction", [ Counters.Hash ]);
    ("ideal hash (random oracle)", [ Counters.Ideal_hash ]);
    ("commutative encryption", [ Counters.Commutative_encrypt; Counters.Commutative_decrypt ]);
    ( "homomorphic encryption",
      [ Counters.Homomorphic_encrypt; Counters.Homomorphic_decrypt; Counters.Homomorphic_add;
        Counters.Homomorphic_scalar ] );
    ("random numbers", [ Counters.Random_number ]);
    ("hybrid encryption", [ Counters.Hybrid_encrypt; Counters.Hybrid_decrypt ]);
  ]

let table2 outcomes =
  let class_count (o : Outcome.t) primitives =
    List.fold_left
      (fun acc p -> acc + Option.value ~default:0 (List.assoc_opt p o.Outcome.counters))
      0 primitives
  in
  let rows =
    List.map
      (fun (o : Outcome.t) ->
        o.Outcome.scheme
        :: List.map
             (fun (_, primitives) ->
               let n = class_count o primitives in
               if n = 0 then "-" else string_of_int n)
             primitive_classes)
      outcomes
  in
  render_table ~headers:("scheme" :: List.map fst primitive_classes) rows

(* ------------------------------------------------------------------ *)
(* Machine-checked Table 1 claims. *)

type claim = {
  subject : string;
  description : string;
  expected : int;
  measured : int option;
}

let claim ~subject ~description ~expected ~measured = { subject; description; expected; measured }

let verify (o : Outcome.t) ~(ground_truth : Ground_truth.t) =
  let g = ground_truth in
  let mediator key = Outcome.observed o.Outcome.mediator_observed key in
  let scheme = o.Outcome.scheme in
  if String.length scheme >= 3 && String.sub scheme 0 3 = "das" then
    [
      claim ~subject:"mediator" ~description:"derives |R1| from tuple-wise encryption"
        ~expected:g.Ground_truth.card_left ~measured:(mediator "cardinality-R1S");
      claim ~subject:"mediator" ~description:"derives |R2|"
        ~expected:g.Ground_truth.card_right ~measured:(mediator "cardinality-R2S");
      claim ~subject:"mediator"
        ~description:"learns |RC|, an upper bound of the global result size"
        ~expected:1
        ~measured:
          (match mediator "cardinality-RC" with
           | Some rc when rc >= g.Ground_truth.exact_join_pairs -> Some 1
           | Some _ | None -> None);
      claim ~subject:"client" ~description:"receives a superset of the global result"
        ~expected:1
        ~measured:
          (if o.Outcome.client_received_tuples >= g.Ground_truth.exact_join_pairs then Some 1
           else None);
    ]
  else if String.length scheme >= 11 && String.sub scheme 0 11 = "commutative" then
    [
      claim ~subject:"mediator" ~description:"learns |domactive(R1.Ajoin)|"
        ~expected:g.Ground_truth.domactive_left
        ~measured:(mediator "cardinality-domactive-R1");
      claim ~subject:"mediator" ~description:"learns |domactive(R2.Ajoin)|"
        ~expected:g.Ground_truth.domactive_right
        ~measured:(mediator "cardinality-domactive-R2");
      claim ~subject:"mediator" ~description:"learns the active-domain intersection size"
        ~expected:g.Ground_truth.domactive_intersection
        ~measured:(mediator "intersection-size");
      claim ~subject:"client" ~description:"receives only the exact global result"
        ~expected:g.Ground_truth.exact_join_pairs
        ~measured:(Some o.Outcome.client_received_tuples);
      claim ~subject:"source-1" ~description:"learns |domactive| of the opposite source"
        ~expected:g.Ground_truth.domactive_right
        ~measured:
          (Option.bind
             (List.assoc_opt 1 o.Outcome.sources_observed)
             (fun obs -> List.assoc_opt "cardinality-domactive-opposite" obs));
    ]
  else if
    List.exists (String.equal scheme) [ "intersection"; "semi-join"; "difference" ]
  then
    [
      claim ~subject:"mediator" ~description:"learns the left key-set size"
        ~expected:g.Ground_truth.domactive_left
        ~measured:(mediator "cardinality-domactive-R1");
      claim ~subject:"mediator" ~description:"learns the right key-set size"
        ~expected:g.Ground_truth.domactive_right
        ~measured:(mediator "cardinality-domactive-R2");
    ]
  else if String.length scheme >= 9 && String.sub scheme 0 9 = "aggregate" then
    [
      claim ~subject:"mediator" ~description:"learns |domactive(R1.Ajoin)|"
        ~expected:g.Ground_truth.domactive_left
        ~measured:(mediator "cardinality-domactive-R1");
      claim ~subject:"mediator" ~description:"learns |domactive(R2.Ajoin)|"
        ~expected:g.Ground_truth.domactive_right
        ~measured:(mediator "cardinality-domactive-R2");
      claim ~subject:"mediator" ~description:"learns the active-domain intersection size"
        ~expected:g.Ground_truth.domactive_intersection
        ~measured:(mediator "intersection-size");
    ]
  else if String.length scheme >= 2 && String.sub scheme 0 2 = "pm" then
    [
      claim ~subject:"mediator" ~description:"learns |domactive(R1.Ajoin)| from the degree of P1"
        ~expected:g.Ground_truth.domactive_left
        ~measured:(mediator "cardinality-domactive-R1");
      claim ~subject:"mediator" ~description:"learns |domactive(R2.Ajoin)| from the degree of P2"
        ~expected:g.Ground_truth.domactive_right
        ~measured:(mediator "cardinality-domactive-R2");
      claim ~subject:"client" ~description:"can decipher only the exact global result"
        ~expected:g.Ground_truth.exact_join_pairs
        ~measured:(Some o.Outcome.client_received_tuples);
      claim ~subject:"client" ~description:"receives one ciphertext per active-domain value"
        ~expected:(g.Ground_truth.domactive_left + g.Ground_truth.domactive_right)
        ~measured:(Outcome.observed o.Outcome.client_observed "ciphertexts-received");
      claim ~subject:"source-2" ~description:"learns the degree of the opposite polynomial"
        ~expected:g.Ground_truth.domactive_left
        ~measured:
          (Option.bind
             (List.assoc_opt 2 o.Outcome.sources_observed)
             (fun obs -> List.assoc_opt "degree-opposite-polynomial" obs));
    ]
  else []

let claim_holds c = c.measured = Some c.expected

let all_hold claims = List.for_all claim_holds claims

let pp_claims fmt claims =
  List.iter
    (fun c ->
      Format.fprintf fmt "%-9s %-55s expected %d, measured %s -> %s@." c.subject
        c.description c.expected
        (match c.measured with Some v -> string_of_int v | None -> "n/a")
        (if claim_holds c then "ok" else "VIOLATED"))
    claims
