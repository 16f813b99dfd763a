(** Shipping trace collectors across the wire and merging them back.

    A distributed [--trace] run collects spans in three-plus processes
    at once: the client, the mediator, and every source.  Each source
    serializes its collector with {!payload_of} into the [spans] of its
    [Frame.Report] for the attempt, and the mediator forwards every
    batch plus its own inside [Frame.Session_result]; the client decodes
    every batch and
    {!merge}s them — rebasing span ids into one shared id space,
    reparenting each batch's roots under the mediator's session span,
    and shifting timestamps onto the client collector's epoch (the
    monotonic clock is comparable across processes on one host, so the
    per-collector [epoch_ns] carried in the payload is all the merge
    needs to share a timeline).

    The result is a {!Secmed_obs.Export.process} list ready for
    [Export.chrome_json_processes] / [Export.jsonl_processes]: one
    Chrome pid lane per process, every source span hanging under the
    mediator's session span. *)

open Secmed_mediation
module Obs = Secmed_obs

val payload_of : Obs.Trace.t -> string
(** The collector's epoch, spans and events, [Wire]-encoded.  Span
    attributes travel as compact JSON text. *)

val decode : string -> int64 * Obs.Trace.span list * Obs.Trace.event list
(** Inverse of {!payload_of}; raises {!Wire.Malformed} on anything it
    would not produce. *)

(** One received span batch, still in its sender's id/time space.
    [rm_parent] is the span id {e in the mediator's id space} the
    batch's roots belong under ([-1] = none — the mediator's own
    batch). *)
type remote = {
  rm_party : Transcript.party;
  rm_parent : int;
  rm_payload : string;
}

val merge : client:Obs.Trace.t -> remote list -> Obs.Export.process list
(** The client's own lane (pid 1) followed by one lane per remote party
    (mediator pid 2, source [i] pid [2+i]), ids rebased to be globally
    unique, roots reparented, timestamps on the client's epoch.
    Mediator batches are rebased first so source roots can resolve
    [rm_parent]; multiple batches from one party (sources ship one per
    epoch) share a lane in arrival order. *)
