(** The basic MMM request phase (paper Listing 1), common to all delivery
    protocols:

    1. the client sends the global query q and credential set CR to the
       mediator;
    2. the mediator localizes S1/S2, decomposes q into partial queries and
       selects credential subsets CR1/CR2;
    3. the mediator sends ⟨q_i, CR_i, A_i⟩ to S_i;
    4. S_i checks the credentials and, if authorized, evaluates q_i
       (applying any row-level policy filter) yielding R_i.  Only a
       process that computes [Source i] checks CR_i: the mediator
       verifies nothing.

    The partial results R_i conceptually remain at the sources; the record
    returned here hands them to the delivery-phase implementations as the
    sources' inputs. *)

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
  left_result : Relation.t;        (** R_1, qualified with its relation name *)
  right_result : Relation.t;       (** R_2 *)
  credentials_left : Credential.t list;   (** CR_1 *)
  credentials_right : Credential.t list;  (** CR_2 *)
}

val run : Link.t -> Env.t -> Env.client -> query:string -> t
(** Parses and decomposes [query], performs steps 1–4 delivering every
    message over the link (transcript + fault plan + optional transport),
    and returns the sources' granted partial results.  Raises
    {!Access_denied}, {!Bad_credential}, [Parser.Error], [Lexer.Error],
    [Catalog.Unsupported], or {!Fault.Fault_detected} when an installed
    fault plan hits the request-phase messages. *)

val authorize : Link.t -> Env.t -> int -> Catalog.entry -> Credential.t list -> Relation.t
(** Step 4 at source [i]: verify every credential where the link
    computes [Source i] (only S_i checks its CR_i), then evaluate the
    entry's partial query under the source's policy, qualified with the
    global relation name.  Raises {!Bad_credential} or {!Access_denied}
    (also for an empty credential set). *)

val exact_result : Env.t -> t -> Relation.t
(** The reference global result: natural join of the partial results with
    the residual WHERE / projection / DISTINCT applied — what an honest
    trusted mediator would return.  Protocol outputs are tested against
    this. *)

val finalize : t -> Relation.t -> Relation.t
(** Applies the residual WHERE, projection and DISTINCT of the query to a
    joined relation (the client's last local step). *)

val join_attrs : t -> string list
(** Bare names of the join attributes (singleton in the paper's setting,
    longer for the Section 8 composite-key extension). *)

val join_attr_values : t -> [ `Left | `Right ] -> Join_key.t list
(** dom_active(R_i.A_join) — sorted distinct join keys of a partial
    result. *)

val groups : t -> [ `Left | `Right ] -> (Join_key.t * Tuple.t list) list
(** Every (a, Tup_i(a)) pair in key order, where the paper's Tup_i(a)
    holds the tuples of R_i whose join key equals a. *)

val credential_size : Credential.t list -> int
(** Combined wire size, for transcript accounting. *)
