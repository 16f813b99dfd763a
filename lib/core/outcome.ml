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
  timings : (string * float) list;
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

let timing_total t = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 t.timings

let pp_summary fmt t =
  Format.fprintf fmt "[%s%s] result=%d tuples (exact %d, %s), received=%d, %d messages / %d bytes, %.1f ms@."
    t.scheme
    (match t.degraded_from with
     | None -> ""
     | Some from_scheme -> Printf.sprintf ", degraded from %s" from_scheme)
    (Relation.cardinality t.result) (Relation.cardinality t.exact)
    (if correct t then "correct" else "WRONG")
    t.client_received_tuples
    (Transcript.message_count t.transcript)
    (Transcript.total_bytes t.transcript)
    (timing_total t *. 1000.0)

module Builder = struct
  type builder = {
    scheme : string;
    transcript_ : Transcript.t;
    mutable mediator : (string * int) list;
    mutable client : (string * int) list;
    mutable sources : (int * (string * int) list) list;
    mutable timings : (string * float) list; (* reversed *)
  }

  let create ~scheme =
    {
      scheme;
      transcript_ = Transcript.create ();
      mediator = [];
      client = [];
      sources = [];
      timings = [];
    }

  let transcript b = b.transcript_

  let mediator_sees b key value = b.mediator <- b.mediator @ [ (key, value) ]
  let client_sees b key value = b.client <- b.client @ [ (key, value) ]

  let source_sees b id key value =
    let current = Option.value ~default:[] (List.assoc_opt id b.sources) in
    b.sources <- (id, current @ [ (key, value) ]) :: List.remove_assoc id b.sources

  (* With a trace being recorded, the phase span carries the thread's
     counter deltas over the thunk as [ops.<primitive>] attributes,
     stamped on exit (an exception included).  Batch merges worker
     counts at join, inside this window. *)
  let timed b ~party phase f =
    let start = Secmed_obs.Clock.now_ns () in
    let before = if Secmed_obs.Trace.enabled () then Some (Counters.snapshot ()) else None in
    let finish () =
      Option.iter
        (fun before ->
          List.iter2
            (fun (p, n0) (_, n1) ->
              if n1 > n0 then
                Secmed_obs.Trace.add_attr ("ops." ^ Counters.name p)
                  (Secmed_obs.Json.Int (n1 - n0)))
            before (Counters.snapshot ()))
        before;
      let elapsed = Secmed_obs.Clock.ns_to_s (Secmed_obs.Clock.elapsed_ns ~since:start) in
      match List.assoc_opt phase b.timings with
      | Some prior ->
        b.timings <- (phase, prior +. elapsed) :: List.remove_assoc phase b.timings
      | None -> b.timings <- (phase, elapsed) :: b.timings
    in
    Secmed_obs.Trace.with_span ~kind:Secmed_obs.Trace.Phase
      ~attrs:[ ("party", Secmed_obs.Json.Str party) ]
      phase
      (fun () -> Fun.protect ~finally:finish f)

  let step b link party phase f =
    if Link.computes link party then Some (timed b ~party:(Transcript.party_name party) phase f)
    else None

  let replicated b link party phase f =
    if Link.computes link party then timed b ~party:(Transcript.party_name party) phase f
    else f ()

  let finish_projected b ~exact ~counters client =
    let result, client_received_tuples =
      match client with
      | Some view -> view
      | None -> (Relation.make (Relation.schema exact) [], 0)
    in
    {
      scheme = b.scheme;
      result;
      exact;
      transcript = b.transcript_;
      mediator_observed = b.mediator;
      client_observed = b.client;
      sources_observed = List.sort compare b.sources;
      client_received_tuples;
      counters;
      timings = List.rev b.timings;
      degraded_from = None;
    }
end
