(** The DAS delivery phase, client setting (paper Listing 2).

    Each source builds an index table over dom_active(A) for every join
    attribute A, encrypts its partial result tuple-wise (hybrid encryption
    under the client's key) alongside the vector of index values, and
    encrypts the index tables themselves.  The client — acting as the DAS
    query translator — derives the server query q_S (per join attribute, a
    disjunction over overlapping partition pairs, conjoined across
    attributes) and the client query q_C; the mediator evaluates q_S on
    the encrypted relations and returns the superset R_C, which the client
    decrypts and post-filters with q_C.

    With a single join attribute this is exactly the paper's protocol;
    with several it is the Section 8 extension. *)

open Secmed_relalg
open Secmed_crypto

type server_eval =
  | Pair_index   (** hash join on the Cond_S index pairs (default) *)
  | Nested_loop  (** literal σ_CondS(R1S × R2S) over the relational engine *)

(** Placement of the DAS query translator (paper Section 3.1: "In
    principle, it is possible to place the DAS query translator in any
    layer... mediator setting, source setting and client setting.  In
    this article we only describe the client setting.")  All three are
    implemented here, with their differing disclosures measured. *)
type setting =
  | Client_setting
      (** Listing 2: index tables travel encrypted to the client, which
          derives q_S — the paper's confidentiality-preserving choice *)
  | Source_setting
      (** the translator sits at S1; S2's index tables travel to it
          encrypted under S1's source key (S1 learns S2's partition
          structure) *)
  | Mediator_setting
      (** index tables in plaintext at the mediator — one client round
          fewer, but the mediator "would know the partition ranges and
          thus be able to approximate the join attribute value for each
          tuple" (Section 6); the outcome records the measured
          approximation power in centibits per tuple *)

val setting_name : setting -> string

val run :
  ?fault:Secmed_mediation.Fault.plan ->
  ?endpoint:Secmed_mediation.Link.transport ->
  ?strategy:Das_partition.strategy ->
  ?server_eval:server_eval ->
  ?setting:setting ->
  Env.t ->
  Env.client ->
  query:string ->
  Outcome.t
(** End-to-end request + DAS delivery.  Default strategy: [Equi_depth 4]
    (applied to each join attribute); default setting: [Client_setting].
    With a fault plan installed the run may raise
    [Secmed_mediation.Fault.Fault_detected]: channel faults are caught by
    the integrity envelope at the receiver, byzantine partition indexes by
    the mediator's bounds check, and byzantine ciphertexts by the client's
    authenticated decryption. *)

(** {1 Exposed internals (unit-tested / reused by benches)} *)

type encrypted_relation = {
  rows : (Hybrid.ciphertext * int array) list;
      (** (etuple, a^S vector) — the schema R^S(Etuple, A^S_1, ..) *)
  wire_size : int;
}

val encrypt_relation :
  Prng.t -> Elgamal.public_key -> Das_partition.t list ->
  join_attrs:string list -> Relation.t -> encrypted_relation
(** Per-tuple hybrid encryption through the {!Batch} executor on
    independent per-tuple PRNG streams: the rows are bit-identical
    however its threads interleave. *)

(** The index tables a source uploads beside its rows: none, sealed
    under a key the mediator lacks, or in the clear. *)
type tables_part =
  | No_tables
  | Sealed of Hybrid.ciphertext
  | Clear of Das_partition.t list

val exchange_upload :
  Secmed_mediation.Link.t ->
  sid:int ->
  label:string ->
  arity:int ->
  tables:[ `None | `Sealed | `Clear ] ->
  (encrypted_relation * tables_part) option ->
  (encrypted_relation * tables_part) option
(** A source's one upload to the mediator ({!Secmed_mediation.Link.exchange_rows},
    phase [source-upload]): its tables part, then one row per encrypted
    tuple with [arity] partition indexes.  [tables] is the form a
    receiver expects; hostile bytes fail typed at the mediator. *)

val server_query_pairs :
  left_tables:Das_partition.t list ->
  right_tables:Das_partition.t list ->
  (int * int) list list
(** Per join attribute, the index-value pairs of overlapping partitions:
    the disjuncts of that attribute's part of Cond_S. *)

val server_condition :
  left_tables:Das_partition.t list -> right_tables:Das_partition.t list -> Predicate.t
(** Cond_S as a predicate over [R1S.idx_k] / [R2S.idx_k] (used by the
    nested-loop evaluation and shown in diagnostics). *)

val server_join :
  server_eval ->
  (int * int) list list ->
  encrypted_relation ->
  encrypted_relation ->
  (Hybrid.ciphertext * Hybrid.ciphertext) list
(** The mediator's evaluation of q_S: candidate ciphertext pairs R_C. *)

val decrypt_or_fail :
  phase:string ->
  party:Secmed_mediation.Transcript.party ->
  Elgamal.private_key ->
  string ->
  Hybrid.ciphertext ->
  string
(** Authenticated decryption, or {!Secmed_mediation.Fault.Fault_detected}
    blamed on [party] in [phase] naming the labelled ciphertext. *)
