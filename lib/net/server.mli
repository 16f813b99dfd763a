(** The mediator as a network server.

    One process owns the hub of the star topology: it accepts client
    connections (thread-per-session, bounded by [max_sessions] — excess
    connections are refused with a typed [Busy] frame the load layer
    counts as backpressure), keeps a pool of [source_conns] persistent,
    multiplexed connections per datasource daemon (each dialed lazily,
    redialed when found dead; a session checks out one pooled
    connection per source by round-robin on its session id, so a
    severed pooled link faults only the sessions bound to it), and
    drives each query through {!Secmed_core.Protocol.run_session} with

    - a [Remote] link endpoint, so the mediator's protocol messages
      cross real sockets;
    - a session coordinator that broadcasts [Session_start] per attempt,
      aborts the replicas when the local attempt fails, and folds their
      end-of-attempt reports into the attempt verdict (a replica's typed
      fault outranks the mediator's own downstream transport stall);
    - a real-time deadline hook: every blocking send/recv re-checks the
      query budget, so a stalled wire trips [Timed_out] exactly like a
      simulated delay;
    - one shared {!Secmed_mediation.Resilience.session}, so breaker
      state persists across queries (a per-query deadline in the [Query]
      frame gets a fresh session scoped to that budget).

    Drivers execute concurrently on a bounded {!Sched} worker pool
    ([workers], default [max_sessions]) — no head-of-line blocking:
    admission bounds how many sessions are accepted, the pool bounds how
    many drivers run at once, and sessions beyond the pool queue FIFO.
    This is safe because every piece of cross-driver state is either
    thread-local (crypto counter attribution, bigint caches) or
    internally locked (the shared resilience session's breakers). *)

open Secmed_mediation
open Secmed_core

type t

val create :
  env:Env.t ->
  client:Env.client ->
  scenario:string ->
  sources:(int * (string * int) list list) list ->
  listen_fd:Unix.file_descr ->
  ?policy:Resilience.policy ->
  ?max_sessions:int ->
  ?io_timeout:float ->
  ?source_conns:int ->
  ?workers:int ->
  ?drain_deadline:float ->
  ?health_interval:float ->
  unit ->
  t
(** [sources] maps each datasource id to its shards, each shard a
    replica list — [(host, port)] endpoints, primary first, every one a
    daemon serving the same deterministic replica of that source.  A
    single-shard entry is the classic unsharded deployment; with k
    shards, streamed deliveries arrive as k partitioned chunk streams
    merged back into row order (DESIGN.md §16), and each shard is
    dialed with its own {!Shard.digest} of [scenario] (which the client
    handshake still uses in base form).  [io_timeout] (default 10s)
    bounds each blocking frame exchange; [max_sessions] (default 8) the
    concurrent client sessions; [source_conns] (default 2) the pooled
    connections per shard; [workers] (default [max_sessions]) the
    concurrent protocol drivers.

    Each replica's health is a {!Resilience.replica_breaker} whose
    cooldown is [policy]'s [breaker_config.cooldown]: one failed dial
    or probe, a draining health answer or a ["draining"] report opens
    it.  Each pool slot keeps a replica cursor: a redial walks the
    replicas in health order (up first, then those whose breaker admits
    a probe, primary first), so a dead primary fails the slot over to a
    standby within a session's one typed retry, and a later redial
    after the cooldown fails back.  [drain_deadline] (default 30s)
    bounds how long {!begin_drain} waits for in-flight sessions;
    [health_interval] > 0 (default 0 = off) starts a prober thread that
    Pings every up replica, and each down one once per cooldown, and
    proactively marks draining or unreachable ones down. *)

val serve : t -> unit
(** Accept loop; returns when {!stop} is called or a drain completes
    (all in-flight sessions finished, or the drain deadline passed —
    the draining teardown rejects still-queued sessions with a typed
    [Draining]).  Every accepted connection is routed by its first
    frame: [Stats_request] and [Ping] are answered immediately —
    without admission control, so the ops surface works on a server at
    capacity — a [Drain] carrying the right scenario digest flips the
    server into draining, and a client [Hello] goes through scenario
    check, drain check, admission, handshake, and the scheduler. *)

val begin_drain : ?deadline:float -> t -> unit
(** Flip into draining (idempotent, async-signal-safe: only field
    writes, so it may be called from a SIGTERM handler).  New sessions
    are refused with [Draining]; {!serve} returns once in-flight
    sessions finish or [deadline] (default [drain_deadline]) passes. *)

val draining : t -> bool

val stats_json : t -> Secmed_obs.Json.t
(** The live serving snapshot the [Stats] frame carries: uptime,
    admission state (including draining), scheduler utilization,
    per-source pool slots (with dial counts and replica cursors),
    per-replica health, the failover transition log (the newest 512
    entries, each a replica's breaker leaving or re-entering Closed —
    kind ["down"]/["up"] — or a slot's replica cursor move —
    ["failover"]), the session's protocol breaker states,
    process-wide transport volume, streamed-delivery totals (rows and
    bytes each way, the current chunk backlog, and the tracked
    high-water memory regions), and per-scheme served/degraded/failed
    counts with latency percentiles (one row per protocol plus
    [unknown], listed once nonzero).  Every count is read from the
    metrics registry.  Lock order is per-subsystem; the snapshot is
    consistent per field group, not globally atomic. *)

val stop : t -> unit
(** Close the listener and the pooled datasource connections, and
    retire the worker pool. *)
