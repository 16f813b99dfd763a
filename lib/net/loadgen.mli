(** A deterministic client fleet for sustained-load measurement.

    [run] drives [workers × sessions_per_worker] remote queries against
    a live mediator, each worker in its own thread (grouped onto
    [domains] OCaml domains when client-side crypto should parallelize
    for real) and holding one {!Peer.client}: one connection and one
    [Hello] for its slice of the plan, one [Query] per session, closed
    at the end.  The connection is dialed again only after a link
    death, a [Draining] refusal, or (silently, inside {!Peer.query})
    when the mediator closed it between sessions.  Everything randomized — which
    scheme each session poses, and when (open loop) — derives from pure
    [Prng.split]s of [seed] keyed by worker index, computed {e before}
    any I/O: the same seed and config replay the identical workload,
    whatever the cluster under test does with it.

    Arrival models:
    - [Closed]: each worker poses its next session the moment the
      previous one finishes — think "N looping users"; throughput is
      bounded by latency.
    - [Poisson rate]: open loop — session start times are drawn from an
      exponential inter-arrival distribution at [rate/workers] per
      worker, and a slow mediator does not slow the offered load down,
      it just answers late.  This is the model that exposes queueing
      collapse.

    Outcomes are typed: [Refused] counts the mediator's admission
    backpressure ([Busy] frames) separately from protocol failures
    ([Unserved]) and broken links ([Failed]).  Every session's exact
    latency is in its [record]; {!render} reports nearest-rank
    {!quantile}s of them.

    With [verify = true] every served session is compared bit-for-bit
    (result relation, transcript messages, primitive counters) against
    the single in-process reference execution of its scheme — valid
    because replicas re-derive all randomness from the shared scenario
    seed, so a scheme's execution is identical across sessions. *)

open Secmed_core

type arrival = Closed | Poisson of float  (** aggregate sessions/sec *)

type config = {
  workers : int;
  sessions_per_worker : int;
  domains : int;
      (** worker-thread groups; 1 = plain threads.  Note OCaml forbids
          forking once any domain has been spawned: keep this at 1 in a
          process that enters {!Loopback.with_cluster} afterwards. *)
  mix : (string * int) list;  (** scheme → weight (weights need not sum to anything) *)
  arrival : arrival;
  seed : string;
  fault_spec : string;  (** forwarded to every query, "" = none *)
  deadline : float;  (** per-query deadline seconds, 0 = none *)
  fallback : bool;
  io_timeout : float;
  verify : bool;
  retry_connect : int;
      (** how many times a session that never started (unreachable
          peer, link death before the verdict, typed [Draining]) is
          re-posed; 0 = never.  [Busy] is never retried.  What lets a
          fleet ride out a process restart without losing sessions.
          Retries back off exponentially: 0.25s, 0.5s, 1s, then 2s. *)
}

val default_config : config
(** 8 closed-loop workers × 4 sessions, das/commutative/pm equally
    weighted, seed ["loadgen"], no faults, no verification. *)

type planned = { p_worker : int; p_index : int; p_scheme : string; p_at : float }

val plan : config -> planned list list
(** The full deterministic schedule, one list per worker: scheme per
    session and (open loop) the planned start offset in seconds.  Pure:
    never touches the network, never mutates the config's seed. *)

type outcome_kind = Served | Degraded | Unserved | Refused | Failed

val kind_name : outcome_kind -> string

type record = {
  r_worker : int;
  r_index : int;
  r_scheme : string;
  r_kind : outcome_kind;
  r_latency : float;
      (** seconds from the [Query] to the verdict, plus the connect and
          [Hello] when the session dialed (final try only) *)
  r_epochs : int;
  r_started : float;  (** first try's start, seconds since fleet start *)
  r_finished : float;  (** verdict instant, seconds since fleet start *)
  r_retries : int;
      (** retries this session burned under [retry_connect]; the silent
          redial of a reused connection is not one *)
}

type report = {
  records : record list;  (** per worker, in issue order *)
  elapsed : float;
  verify_failures : string list;  (** empty unless [verify] and a mismatch *)
}

val count : outcome_kind -> report -> int
val qps : report -> float

val quantile : float -> float list -> float
(** [quantile q samples]: the nearest-rank quantile, i.e. the smallest
    sample with at least a share [q] of all samples at or below it
    (every reported value was measured); 0 for no samples. *)

type target = {
  host : string;
  port : int;
  scenario : string;
  env : Env.t;
  client : Env.client;
  query : string;
}

val run : config -> target -> report

val render : report -> string
(** Multi-line human-readable summary (counts, qps, percentiles per
    scheme, verification failures if any). *)
