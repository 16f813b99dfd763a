open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type t = {
  scheme : string;
  result : Relation.t;
  exact : Relation.t;
  transcript : Transcript.t;
  mediator_observed : (string * int) list;
  client_observed : (string * int) list;
  sources_observed : (int * (string * int) list) list;
  client_received_tuples : int;
  counters : (Counters.primitive * int) list;
  degraded_from : string option;
}

let correct t = Relation.equal_contents t.result t.exact

let mark_degraded t ~from_scheme ~reason =
  Transcript.note t.transcript
    (Printf.sprintf "degraded: served by %s after %s gave up (%s)" t.scheme from_scheme
       reason);
  { t with degraded_from = Some from_scheme }

let superset_factor t =
  (* Tuples of the two sources that appear in the exact join, counted once
     per source row used; the DAS client receives more than this. *)
  let exact = Stdlib.max 1 (Relation.cardinality t.exact) in
  float_of_int t.client_received_tuples /. float_of_int exact

let observed list key = List.assoc_opt key list

module Builder = struct
  type builder = {
    mutable mediator : (string * int) list;
    mutable client : (string * int) list;
    mutable sources : (int * (string * int) list) list;
  }

  let mediator_sees b key value = b.mediator <- b.mediator @ [ (key, value) ]
  let client_sees b key value = b.client <- b.client @ [ (key, value) ]

  let source_sees b id key value =
    let current = Option.value ~default:[] (List.assoc_opt id b.sources) in
    b.sources <- (id, current @ [ (key, value) ]) :: List.remove_assoc id b.sources

  (* With a trace being recorded, the phase span carries the thread's
     counter deltas over the thunk as [ops.<primitive>] attributes,
     stamped on exit (an exception included).  Batch merges worker
     counts at join, inside this window. *)
  let phase ~party name f =
    if not (Secmed_obs.Trace.enabled ()) then f ()
    else
      let before = Counters.snapshot () in
      let stamp () =
        List.iter2
          (fun (p, n0) (_, n1) ->
            if n1 > n0 then
              Secmed_obs.Trace.add_attr ("ops." ^ Counters.name p) (Secmed_obs.Json.Int (n1 - n0)))
          before (Counters.snapshot ())
      in
      Secmed_obs.Trace.with_span ~kind:Secmed_obs.Trace.Phase
        ~attrs:[ ("party", Secmed_obs.Json.Str party) ]
        name
        (fun () -> Fun.protect ~finally:stamp f)

  let step link party name f =
    if Link.computes link party then Some (phase ~party:(Transcript.party_name party) name f)
    else None

  (* The run frame: the only place a driver's transcript, fault plan,
     link and counter window are set up, and the outcome assembled. *)
  let run ~scheme ?fault ?endpoint body =
    let b = { mediator = []; client = []; sources = [] } in
    let transcript = Transcript.create () in
    Fault.attach fault transcript;
    let link = Link.make ?endpoint ?fault transcript in
    let (exact, client), counters = Counters.with_fresh (fun () -> body b link) in
    (* A process that did not compute the client holds no result. *)
    let result, client_received_tuples =
      Option.value client ~default:(Relation.make (Relation.schema exact) [], 0)
    in
    {
      scheme;
      result;
      exact;
      transcript;
      mediator_observed = b.mediator;
      client_observed = b.client;
      sources_observed = List.sort compare b.sources;
      client_received_tuples;
      counters;
      degraded_from = None;
    }
end
