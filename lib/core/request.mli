(** The basic MMM request phase (paper Listing 1), common to all delivery
    protocols, as projected party steps — each one a ["request"] phase
    of its own party ({!Outcome.Builder.step}):

    1. the client sends the global query q and credential set CR to the
       mediator;
    2. the mediator decomposes the q it received into partial queries,
       localizes S1/S2 and selects the credential subsets CR1/CR2;
    3. the mediator sends ⟨q_i, CR_i, A_i⟩ to S_i, which checks that q_i
       is its catalogue entry's partial query;
    4. S_i checks the credentials and, if authorized, evaluates q_i
       (applying any row-level policy filter) yielding R_i.

    Each message is its text, zero-padded up to its declared size (the
    credential and join-attribute bytes are not materialised); padding
    that is not all NUL bytes, or a q_i other than the expected one,
    fails typed at a receiver that decodes it.  A process that does not
    compute the mediator takes the session's decomposition from the
    query it was started with.  The partial results R_i stay at their
    sources: R_i exists only where [Source i] is computed, and the
    delivery-phase implementations use it inside that source's steps. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

exception Access_denied of int
(** Source id that refused the partial query. *)

exception Bad_credential of int
(** Source id that rejected a credential signature. *)

type t = {
  decomposition : Catalog.decomposition;
  client_pk : Elgamal.public_key;  (** taken from the forwarded credentials *)
  left_result : Relation.t option;
      (** R_1, qualified with its relation name, where this process
          computes its source *)
  right_result : Relation.t option;  (** R_2, likewise *)
}

val run : Link.t -> Env.t -> Env.client -> query:string -> t
(** Steps 1–4, every message over the link (transcript + fault plan +
    optional transport).  Raises {!Access_denied}, {!Bad_credential},
    [Parser.Error], [Lexer.Error], [Catalog.Unsupported], or
    {!Fault.Fault_detected} when an installed fault plan hits the
    request-phase messages or a receiver rejects one. *)

val frame :
  scheme:string ->
  ?fault:Fault.plan ->
  ?endpoint:Link.endpoint ->
  Env.t ->
  Env.client ->
  query:string ->
  (Outcome.Builder.builder -> Link.t -> t -> (Relation.t * int) option) ->
  Outcome.t
(** {!Outcome.Builder.run} with the request phase ({!run}) first and,
    after the body, the reference result ({!exact_result}) — built only
    where the link computes the client; elsewhere the outcome's result
    and reference are empty over {!result_schema}. *)

(** {2 The steps, for query classes with their own request texts} *)

val send_query : Link.t -> Env.client -> query:string -> string option
(** Step 1 as the client's step: q, with CR's bytes as padding.  The
    text where this process computes the client or receives as the
    mediator. *)

val send_partial : Link.t -> Catalog.entry -> padding:int -> string -> unit
(** Step 3: the mediator sends q_i to the entry's source, [padding]
    bytes standing for CR_i and A_i; a receiving source that did not
    compute the mediator rejects any text but q_i. *)

val authorize : Link.t -> Env.t -> Catalog.entry -> Credential.t list -> Relation.t option
(** Step 4 as the entry's source's step: verify every credential, then
    evaluate the entry's partial query under the source's policy,
    qualified with the global relation name.  [None] where the link
    does not compute the source.  Raises {!Bad_credential} or
    {!Access_denied} (also for an empty credential set, and for a
    relation the source does not hold). *)

(** {2 Reading a request} *)

val schema : t -> [ `Left | `Right ] -> Schema.t
(** R_i's schema, from the catalogue: known in every process. *)

val partial : t -> [ `Left | `Right ] -> Relation.t
(** R_i.  Raises [Invalid_argument] where this process does not compute
    its source. *)

val result_schema : t -> Schema.t
(** The global result's schema, from the catalogue alone. *)

val exact_result : t -> Relation.t
(** The reference global result: natural join of the partial results with
    the residual WHERE / projection / DISTINCT applied — what an honest
    trusted mediator would return.  Protocol outputs are tested against
    this.  Needs both partial results. *)

val finalize : t -> Relation.t -> Relation.t
(** Applies the residual WHERE, projection and DISTINCT of the query to a
    joined relation (the client's last local step). *)

val join_attrs : t -> string list
(** Bare names of the join attributes (singleton in the paper's setting,
    longer for the Section 8 composite-key extension). *)

val join_attr_values : t -> [ `Left | `Right ] -> Join_key.t list
(** dom_active(R_i.A_join) — sorted distinct join keys of a partial
    result (where its source is computed). *)

val groups : t -> [ `Left | `Right ] -> (Join_key.t * Tuple.t list) list
(** Every (a, Tup_i(a)) pair in key order, where the paper's Tup_i(a)
    holds the tuples of R_i whose join key equals a (where its source is
    computed). *)

val credential_size : Credential.t list -> int
(** Combined wire size, for transcript accounting. *)
