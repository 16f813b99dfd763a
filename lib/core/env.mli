(** The mediated system's participants and run environment.

    Mirrors Figure 2: a client with credentials from a certification
    authority, a mediator holding the global catalog, and datasources with
    their relations and access-control policies.  Protocol runs are
    in-process but every transmission flows through {!Transcript}-recorded
    wire messages. *)

open Secmed_crypto
open Secmed_relalg
open Secmed_mediation

(** Security parameters.  The defaults (256-bit group, 768-bit Paillier)
    keep test runs fast; benches sweep them. *)
type params = {
  group_bits : int;
  paillier_bits : int;
}

val default_params : params

type source = {
  source_id : int;
  relations : (string * Relation.t) list;  (** source-local name -> data *)
  policy : Policy.t;
  advertised : string list;
      (** property keys this source bases decisions on; the mediator uses
          them to select the credential subsets CR_i *)
}

type client = {
  identity : string;
  key : Elgamal.private_key;
  credentials : Credential.t list;
  paillier_key : Paillier.private_key;
}

type t = {
  params : params;
  group : Group.t;
  ca : Credential.Authority.ca;
  catalog : Catalog.t;
  sources : source list;
  master_prng : Prng.t;
}

val make :
  ?params:params ->
  ?seed:int ->
  catalog:Catalog.t ->
  sources:source list ->
  unit ->
  t

val make_client :
  t ->
  identity:string ->
  properties:Credential.property list list ->
  client
(** One credential per property list, all over the same fresh ElGamal key,
    plus a Paillier keypair for the PM protocol. *)

val source_by_id : t -> int -> source
(** Raises [Not_found]. *)

val view : t -> Transcript.party -> t
(** The data a served process of [party] holds: datasource [i] keeps
    only its own relations, and every other party — the mediator above
    all — none.  Policies, advertised keys, the catalogue and every key
    stay (only the client replica, which still computes every party,
    keeps the whole environment). *)

val prng_for : t -> string -> Prng.t
(** Independent deterministic randomness stream for the named participant
    and run (parties must not share randomness). *)

(** Helper: build a complete two-source environment around two relations
    registered under the given global names (open access policy). *)
val two_source :
  ?params:params ->
  ?seed:int ->
  left:string * Relation.t ->
  right:string * Relation.t ->
  unit ->
  t
