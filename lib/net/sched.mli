(** A bounded worker-thread pool with a FIFO submission queue — the
    mediator's per-session scheduler.

    Admission control decides how many sessions get {e accepted};
    the pool decides how many protocol drivers {e execute} at once.
    Submissions beyond the worker count queue in arrival order, so a
    burst degrades to queueing delay rather than refusals or
    interleaved execution.  Workers are systhreads: every piece of
    driver state that matters ([Counters] attribution, Bigint
    context caches) is thread-local, so drivers on distinct workers
    never corrupt each other. *)

type t

exception Stopped
(** Raised at a submitter whose job was refused ({!run} after {!stop})
    or rejected while queued (by {!stop}). *)

val create : workers:int -> t
(** Spawns [max 1 workers] worker threads, all idle. *)

val workers : t -> int

(** A consistent snapshot of the pool's accounting, read under the pool
    lock.  [st_busy_seconds] is cumulative wall time spent inside job
    thunks since creation, so utilization over an observation interval
    is [Δst_busy_seconds / (interval × st_workers)]. *)
type stats = {
  st_workers : int;
  st_busy : int;       (** workers executing a job right now *)
  st_queued : int;     (** submitted jobs not yet picked up *)
  st_submitted : int;
  st_completed : int;
  st_rejected : int;   (** queued jobs rejected by {!stop} *)
  st_busy_seconds : float;
}

val stats : t -> stats

val run : t -> (unit -> 'a) -> 'a
(** Submit a thunk and block until a worker has run it; returns its
    result or re-raises its exception (with backtrace).  FIFO across
    concurrent submitters.  Raises {!Stopped} after {!stop}. *)

val stop : t -> unit
(** Queued-but-unstarted jobs are rejected: each blocked submitter gets
    a typed {!Stopped} instead of hanging on a slot no worker will fill.
    Jobs already executing still finish, and the workers are joined.
    Idempotent. *)
