(** Instrumentation of cryptographic primitive invocations.

    Every primitive the protocols use reports here, so that Table 2 of the
    paper ("applied cryptographic primitives") can be regenerated from
    actual executions rather than asserted. *)

(** Counts are a flat per-thread tally: each systhread — and therefore
    each OCaml 5 domain's initial thread — counts independently from
    zero, so concurrent protocol drivers (the mediator's session workers,
    a source daemon's per-session handlers, a loadgen fleet) never observe
    each other's counts.  A parallel executor snapshots each worker's
    counts at join time and folds them into the spawning thread with
    {!merge}.  Long-lived servers should {!release} a session thread's
    slot when the thread retires.

    The per-(party, phase) split of Table 2 is not kept here: a traced
    phase span carries the counts bumped during it as [ops.<primitive>]
    attributes (see [Outcome.Builder.phase]). *)

type primitive =
  | Hash                  (** collision-free hash (SHA-256 in index tables) *)
  | Ideal_hash            (** random-oracle hash into the commutative domain *)
  | Hybrid_encrypt        (** the paper's [encrypt] *)
  | Hybrid_decrypt        (** the paper's [decrypt] *)
  | Commutative_encrypt   (** one application of f_e *)
  | Commutative_decrypt
  | Homomorphic_encrypt   (** Paillier encryption *)
  | Homomorphic_decrypt
  | Homomorphic_add       (** ciphertext-ciphertext addition *)
  | Homomorphic_scalar    (** ciphertext-constant multiplication *)
  | Random_number         (** fresh masking randomness (the PM r values) *)

val all : primitive list
val name : primitive -> string

val bump : primitive -> unit
val bump_by : primitive -> int -> unit

val merge : (primitive * int) list -> unit
(** Folds a {!snapshot} taken in another domain into this domain's
    counts, as a batch of {!bump_by}s — zero entries are skipped.  Used
    by the Batch executor to fold worker-domain counts into the caller
    at join time. *)

val reset : unit -> unit

val release : unit -> unit
(** Drops the calling thread's counter state entirely (the next bump on
    this thread starts from a fresh zero state).  Call from a session
    thread's teardown in long-lived servers so retired thread ids don't
    accumulate state in the per-domain registry.  Never required for
    correctness in short-lived programs. *)

val count : primitive -> int

val snapshot : unit -> (primitive * int) list
(** Counts for every primitive, in {!all} order (zeros included). *)

val used : unit -> primitive list
(** Primitives with a non-zero count since the last {!reset}. *)

val with_fresh : (unit -> 'a) -> 'a * (primitive * int) list
(** Runs the thunk with counters reset, returning its result and the counts
    it accumulated; restores the previous counts afterwards.

    Not reentrant: a nested [with_fresh] isolates its own counts and then
    restores the outer partial counts, so nothing the inner thunk counted
    is visible to the outer tally. *)
