(** Steps 1–7 of the commutative-encryption protocol (paper Listing 3,
    after Agrawal et al.) as one projected round over {!Link}, shared by
    every query class that matches keys by commutative encryption:
    {!Commutative_join}, {!Set_ops} and both {!Aggregate_join} strategies.

    Each source hashes its keys, encrypts them under a fresh commutative
    key, seals one payload per key, shuffles and sends the set to the
    mediator; the mediator forwards each set to the opposite source in
    the set's {!forward} form; each source re-encrypts what it received
    and returns it; the mediator ends up with both sets doubly encrypted,
    where equal keys collide.  The canary audit and the byzantine hooks
    ([Malformed_ciphertexts], [Stale_commutative_key]) run inside the
    round.  Callers keep only their matching rule and their client
    step. *)

open Secmed_bigint
open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

(** How the mediator forwards a set to the opposite source, fixed per
    set: the payload itself, an 8-byte id into the copy the mediator
    keeps (the paper's footnote 1), or the bare hash (sets without a
    payload). *)
type _ forward =
  | Payload : 'p forward
  | Id : 'p forward
  | Bare : unit forward

type 'p set = {
  groups : (Join_key.t * Tuple.t list) list Lazy.t;
      (** the source's keys and their tuples, forced only in its step *)
  seal : Prng.t -> Join_key.t -> Tuple.t list -> 'p;
      (** the payload of one key, on its own split PRNG stream *)
  payload : 'p Codec.t;
  forward : 'p forward;
  labels : string * string * string;
      (** the set's three messages: source to mediator, mediator to the
          opposite source, and back doubly encrypted *)
}

val run :
  Outcome.Builder.builder ->
  Link.t ->
  ?fault:Fault.plan ->
  Env.t ->
  Request.t ->
  left:'p1 set ->
  right:'p2 set ->
  ((Bigint.t * 'p1) list * (Bigint.t * 'p2) list) option
(** The round between the request's two sources; the left set is S1's.
    Where the link computes the mediator, returns both sets doubly
    encrypted, each entry with its own set's payload (resolved from the
    retained copy when forwarded by id); [None] elsewhere.  Raises
    {!Fault.Fault_detected} on channel faults, on an unknown id, and —
    when a fault plan is installed — on a canary mismatch
    ([mediator-match]). *)

val pairs : left:(Bigint.t * 'a) list -> right:(Bigint.t * 'b) list -> ('a * 'b) list
(** The join matching rule: every right entry whose hash some left entry
    shares, with both payloads, in right-set order. *)
