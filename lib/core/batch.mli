(** Thread-parallel batch executor for per-item crypto loops.

    The protocols' dominant cost is a loop of independent items: each
    source encrypts its polynomial's coefficients or its tuples and
    evaluates the opposite polynomial at each of its values, and the PM
    client decrypts all n+m e-values.  A call of two or more items runs
    them on the calling thread plus
    [Domain.recommended_domain_count () - 1] helper systhreads (at most
    one fewer than the items), taken from {!Thread_cache}: parked threads
    are reused and a new one is created only when none is parked.  The
    call returns once every helper has finished.  The threads overlap
    inside the bigint kernel, which runs every large exponentiation (each
    Paillier one) without the runtime lock; smaller work runs one thread
    at a time.  On a domain other than the main one each helper is a
    thread that exits when its work ends, so [Domain.join] returns
    (DESIGN.md §12).

    {b Determinism} — outputs do not depend on the interleaving.
    Randomised work must go through {!map_seeded}, which derives an
    independent PRNG stream per item from the parent seed
    ([Prng.split prng (label ^ "#" ^ index)]).  Labels must be unique per
    call site under one parent PRNG, since splitting is a pure function
    of the seed.

    {b Counting} — [Counters] are per-thread; helpers start at zero, and
    their snapshots are folded into the calling thread with
    [Counters.merge] once they finish, inside the caller's open phase
    span, so the span's crypto counts match a sequential run exactly.

    {b Failure} — when items raise, the lowest-index item's exception is
    re-raised, after every helper has finished: the exception a sequential
    map would raise. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map. *)

val parallel_mapi : (int -> 'a -> 'b) -> 'a array -> 'b array

val map_seeded :
  prng:Secmed_crypto.Prng.t ->
  label:string ->
  (int -> Secmed_crypto.Prng.t -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_seeded ~prng ~label f items] applies [f i stream_i items.(i)]
    where [stream_i = Prng.split prng (label ^ "#" ^ i)] — the
    deterministic-parallelism entry point for randomised per-item work.
    The parent [prng]'s position is not consumed. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over lists. *)

val map_seeded_list :
  prng:Secmed_crypto.Prng.t ->
  label:string ->
  (int -> Secmed_crypto.Prng.t -> 'a -> 'b) ->
  'a list ->
  'b list
(** {!map_seeded} over lists. *)
