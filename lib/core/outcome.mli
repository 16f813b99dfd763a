(** Result of one end-to-end protocol run: the global result the client
    obtained, plus everything the evaluation harness needs — transcript,
    per-party derived observations (for Table 1), primitive counts (for
    Table 2) and per-phase timings. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type t = {
  scheme : string;
  result : Relation.t;             (** global result as obtained by the client *)
  exact : Relation.t;              (** trusted-mediator reference result *)
  transcript : Transcript.t;
  mediator_observed : (string * int) list;
      (** quantities the mediator could derive from what it handled *)
  client_observed : (string * int) list;
  sources_observed : (int * (string * int) list) list;
  client_received_tuples : int;
      (** source tuples the client could decrypt (DAS: the superset) *)
  counters : (Counters.primitive * int) list;
  timings : (string * float) list; (** phase -> seconds, in execution order *)
  degraded_from : string option;
      (** [Some s] when the resilience session served the query with this
          scheme only after scheme [s] exhausted its retry/deadline budget
          (see {!Protocol.run_session}); the trade is recorded as a
          transcript note too *)
}

val correct : t -> bool
(** Whether the protocol's result equals the reference result. *)

val mark_degraded : t -> from_scheme:string -> reason:string -> t
(** Annotate the outcome as served via a degradation fallback: sets
    {!field-degraded_from} and appends a transcript note naming the scheme
    that gave up and why. *)

val superset_factor : t -> float
(** client_received_tuples / source tuples in the exact join (>= 1 for a
    correct protocol with a non-empty result; 1 = minimal disclosure). *)

val observed : (string * int) list -> string -> int option
val timing_total : t -> float
val pp_summary : Format.formatter -> t -> unit

(** Mutable builder used by the protocol implementations. *)
module Builder : sig
  type builder

  val create : scheme:string -> builder
  val transcript : builder -> Transcript.t
  val mediator_sees : builder -> string -> int -> unit
  val client_sees : builder -> string -> int -> unit
  val source_sees : builder -> int -> string -> int -> unit
  val timed : builder -> party:string -> string -> (unit -> 'a) -> 'a
  (** Accumulates monotonic wall-clock time under the phase name (summing
      repeats).  Opens a [Phase] trace span with a [party] attribute for
      the duration; when a trace is being recorded the span also carries
      one [ops.<primitive>] attribute per primitive the thunk counted
      (even when it raises).  Untraced runs take no snapshot. *)

  val step : builder -> Link.t -> Transcript.party -> string -> (unit -> 'a) -> 'a option
  (** One party-local step: {!timed} under the party's name where the
      link computes the party ({!Link.computes}), [None] — the thunk not
      run — everywhere else. *)

  val replicated : builder -> Link.t -> Transcript.party -> string -> (unit -> 'a) -> 'a
  (** A step every process runs (the plaintext request phase), timed as
      the party's phase only where the link computes the party — so each
      process's trace holds exactly the phases of the parties it
      computes. *)

  val finish_projected :
    builder ->
    exact:Relation.t ->
    counters:(Counters.primitive * int) list ->
    (Relation.t * int) option ->
    t
  (** The outcome from the client's (result, received tuples) when this
      process computed the client; a process that did not gets an empty
      result over the reference schema and zero received tuples. *)
end
