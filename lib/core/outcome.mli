(** Result of one end-to-end protocol run: the global result the client
    obtained, plus everything the evaluation harness needs — transcript,
    per-party derived observations (for Table 1) and primitive counts
    (for Table 2).  Phase time is not kept here: each party step is one
    [Phase] trace span ({!Builder.phase}), which carries its duration and,
    in a recorded trace, its per-primitive counts. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

type t = {
  scheme : string;
  result : Relation.t;
      (** global result as obtained by the client; empty in a process
          that does not compute the client *)
  exact : Relation.t;
      (** trusted-mediator reference result, built only where the client
          is computed (empty elsewhere) *)
  transcript : Transcript.t;
  mediator_observed : (string * int) list;
      (** quantities the mediator could derive from what it handled *)
  client_observed : (string * int) list;
  sources_observed : (int * (string * int) list) list;
  client_received_tuples : int;
      (** source tuples the client could decrypt (DAS: the superset) *)
  counters : (Counters.primitive * int) list;
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

(** The run frame every protocol driver runs inside, and the party
    steps it runs. *)
module Builder : sig
  type builder
  (** The per-party observations of one run (Table 1). *)

  val mediator_sees : builder -> string -> int -> unit
  val client_sees : builder -> string -> int -> unit
  val source_sees : builder -> int -> string -> int -> unit

  val phase : party:string -> string -> (unit -> 'a) -> 'a
  (** Runs the thunk as one [Phase] trace span with a [party] attribute.
      When a trace is being recorded the span also carries one
      [ops.<primitive>] attribute per primitive the thunk counted (even
      when it raises); untraced runs take no snapshot. *)

  val step : Link.t -> Transcript.party -> string -> (unit -> 'a) -> 'a option
  (** One party-local step: a {!phase} under the party's name where the
      link computes the party ({!Link.computes}), [None] — the thunk not
      run — everywhere else. *)

  val run :
    scheme:string ->
    ?fault:Fault.plan ->
    ?endpoint:Link.endpoint ->
    (builder -> Link.t -> Relation.t * (Relation.t * int) option) ->
    t
  (** The run frame: a fresh transcript with the fault plan attached
      ({!Fault.attach}), the link over it ({!Link.make}), and the body
      run inside one {!Counters.with_fresh} window.  The body returns
      the reference result and, where this process computed the client,
      the client's (result, received tuples); a process that did not
      gets an empty result over the reference schema and zero received
      tuples.  Listing 1's request phase and the join reference come
      with {!Request.frame}, which runs inside this one. *)
end
