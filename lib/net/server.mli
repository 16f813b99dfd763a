(** The mediator as a network server.

    One process owns the hub of the star topology.  It accepts client
    connections, one thread per connection; admission ([max_sessions])
    is its only concurrency bound, and an excess connection is refused
    with a typed [Busy] frame the load layer counts as backpressure.
    It keeps one persistent, multiplexed connection per datasource,
    to one of its replicas (dialed lazily, redialed when found
    dead; every session multiplexes over it), and each admitted
    connection's thread drives
    its query through {!Secmed_core.Protocol.run_session} with

    - an {!Endpoint.transport}, so the mediator's protocol messages
      cross real sockets;
    - a session coordinator that broadcasts [Session_start] per attempt,
      aborts the replicas when the local attempt fails, and folds their
      end-of-attempt reports into the attempt verdict (a replica's typed
      fault outranks the mediator's own downstream transport stall);
    - a real-time deadline hook: every blocking send/recv re-checks the
      query budget, so a stalled wire trips [Timed_out] exactly as an
      injected delay does in one process;
    - one shared {!Secmed_mediation.Resilience.session}, so breaker
      state persists across queries (a per-query deadline in the [Query]
      frame gets a fresh session scoped to that budget).

    Concurrent sessions are safe because every piece of cross-session
    state is either thread-local (crypto counters, bigint caches) or
    internally locked (the shared resilience session's breakers, each
    link's mux). *)

open Secmed_mediation
open Secmed_core

type t

val create :
  env:Env.t ->
  client:Env.client ->
  scenario:string ->
  sources:(int * (string * int) list) list ->
  listen_fd:Unix.file_descr ->
  ?policy:Resilience.policy ->
  ?max_sessions:int ->
  ?io_timeout:float ->
  ?drain_deadline:float ->
  ?health_interval:float ->
  unit ->
  t
(** The server keeps only the mediator's view of [env]
    ({!Env.view}): no source's relation.  [sources] maps each
    datasource id (at most once) to its replica
    list — [(host, port)] endpoints, primary first, every one a daemon
    serving the same deterministic replica of that source, and each
    dialed with the [scenario] digest.  [io_timeout] (default 10s)
    bounds each blocking frame exchange; [max_sessions] (default 8) the
    concurrent client sessions.

    Each replica's health is a {!Resilience.replica_breaker} whose
    cooldown is [policy]'s [breaker_config.cooldown]: one failed dial
    or probe, a draining health answer or a ["draining"] report opens
    it.  Each source link keeps a replica cursor: a redial walks the
    replicas in health order (up first, then those whose breaker admits
    a probe, primary first), so a dead primary fails the link over to a
    standby within a session's one typed retry, and a later redial
    after the cooldown fails back.  [drain_deadline] (default 30s)
    bounds how long a drain waits for in-flight sessions;
    [health_interval] > 0 (default 0 = off) starts a prober thread that
    Pings every up replica, and each down one once per cooldown, and
    proactively marks draining or unreachable ones down. *)

val parse_source : string -> (int * (string * int) list, string) result
(** ["ID=HOST:PORT[,HOST:PORT...]"], one [sources] entry as
    [secmed serve --source] takes it: a positive id, then its replicas,
    primary first, each in {!Io.parse_addr}'s syntax. *)

val serve : t -> unit
(** Run the mediator daemon under {!Daemon.serve}: [Ping] and an
    authenticated [Drain] (or SIGTERM) are handled there, before
    admission.  Returns once a drain completes: all in-flight sessions
    finished, or the drain deadline passed.  The teardown then severs
    the source links and any open client connection.  A
    [Stats_request] is answered immediately — without admission
    control, so the ops surface works on a server at capacity — and a
    client [Hello] goes through drain check, admission and handshake,
    then runs its session on its own connection thread. *)

val stats_json : t -> Secmed_obs.Json.t
(** The live serving snapshot the [Stats] frame carries: uptime,
    admission state (including draining), the cumulative wall time
    spent inside sessions ([scheduler.busy_seconds]), one [pool] entry
    per source link (connection state, dial count and replica cursor;
    its one-element [slots] list repeats the dial count for the
    benchmark ledger), per-replica health, the failover transition log
    (the newest 512 entries, each a replica's breaker leaving or
    re-entering Closed — kind ["down"]/["up"] — or a link's replica
    cursor move — ["failover"]), the session's protocol breaker states,
    process-wide transport volume, streamed-delivery totals (rows and
    bytes each way, the current chunk backlog, and the tracked
    high-water memory regions), and per-scheme served/degraded/failed
    counts with latency percentiles (one row per protocol plus
    [unknown], listed once nonzero).  Every count is read from the
    metrics registry.  Lock order is per-subsystem; the snapshot is
    consistent per field group, not globally atomic. *)
