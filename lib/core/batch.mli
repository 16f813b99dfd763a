(** Domain-parallel batch executor for per-tuple crypto loops.

    The protocols' dominant cost is embarrassingly parallel: each source
    hybrid-encrypts every tuple of its relation, and the PM client
    decrypts all n+m e-values.  This module fans such loops out over
    OCaml 5 domains under two contracts:

    {b Determinism} — outputs are bit-identical for any domain count.
    Randomised work must go through {!map_seeded}, which derives an
    independent PRNG stream per item from the parent seed
    ([Prng.split prng (label ^ "#" ^ index)]); the sequential path uses
    the identical streams.  Labels must be unique per call site under
    one parent PRNG, since splitting is a pure function of the seed.

    {b Counting} — [Counters] are per-thread; workers start at zero,
    their snapshots are folded into the calling thread with
    [Counters.merge] at join time, inside the caller's open phase span,
    so the span's crypto counts match a sequential run exactly.

    Domains are spawned per call and joined before returning.  A
    persistent pool is ruled out: [Unix.fork] is illegal once any domain
    has been spawned, and the loopback clusters, the ledger and the soak
    all fork.  Spawning is not free either: a [Domain.spawn] plus [join]
    of an empty domain cost 0.15–4 ms per call (median 0.3–1.7 ms) on a
    2-vCPU box, more than a small batch saves, which is why the default
    stays 1 (DESIGN.md §12).  Worker exceptions propagate after all
    domains joined. *)

val default_domains : unit -> int
(** Current default worker-domain count (1 unless overridden).  The
    [SECMED_DOMAINS] environment variable sets the initial value. *)

val set_default_domains : int -> unit
(** Requires >= 1; raises [Invalid_argument] otherwise. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()] — what the runtime considers
    the useful parallelism of this machine. *)

val parallel_map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map, contiguous chunks across [domains] worker
    domains (default {!default_domains}; capped at the item count).
    [domains <= 1] runs sequentially in the calling domain. *)

val parallel_mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val map_seeded :
  ?domains:int ->
  prng:Secmed_crypto.Prng.t ->
  label:string ->
  (int -> Secmed_crypto.Prng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_seeded ~prng ~label f items] applies [f i stream_i items.(i)]
    where [stream_i = Prng.split prng (label ^ "#" ^ i)] — the
    deterministic-parallelism entry point for randomised per-item work.
    The parent [prng]'s position is not consumed. *)

val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over lists. *)

val map_seeded_list :
  ?domains:int ->
  prng:Secmed_crypto.Prng.t ->
  label:string ->
  (int -> Secmed_crypto.Prng.t -> 'a -> 'b) ->
  'a list ->
  'b list
(** {!map_seeded} over lists. *)
