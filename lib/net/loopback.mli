(** A complete distributed deployment on 127.0.0.1, for tests, benches
    and the chaos soak.

    {!with_cluster} is the only way a cluster is started.  The calling
    process (the owner) never forks.  At its first cluster it starts one
    launcher: its own executable, run again through
    [Unix.create_process] with an internal argument that this module
    recognises when it is initialised, so the program needs no flag or
    setting of its own.  The launcher creates no thread, so it may fork;
    it is the parent of every member of every cluster of its owner.  For
    each cluster the owner builds the environment and sends it, with the
    rest of the cluster's description, on the launcher's stdin; the
    launcher binds every port (ephemeral: no races, no fixed-port
    collisions) and forks one daemon per datasource replica and one for
    the mediator server, which all replay the identical scenario by
    construction — the same guarantee the digest handshake enforces for
    independently started daemons.  The owner plays the remote client
    via {!query} or {!target}, and asks the launcher to kill, restart,
    drain or wait for a daemon, one request at a time.

    - Every daemon closes every listener but its own, so a SIGKILLed
      daemon takes its port down: a connect to it is refused at once.
    - When a cluster ends, its daemons are killed and reaped.  If the
      owner dies, the launcher sees end of file on its stdin, kills and
      reaps every daemon and exits; an owner that exits closes that
      stdin and reaps the launcher.
    - The launcher inherits only its stdin and stdout: every socket
      {!Io} opens, and the launcher's pipes, are close-on-exec.  So a
      descriptor the owner opens close-on-exec reaches no member, and the
      owner may have spawned domains and threads before any cluster.

    Chaos plans, when given, interpose a {!Chaos} proxy on the named
    source's mediator link; the proxy threads run in the owner, so the
    plan's event log stays readable by the test. *)

open Secmed_mediation
open Secmed_core

type cluster

val env : cluster -> Env.t
val client_of : cluster -> Env.client
val canonical_query : cluster -> string
val scenario : cluster -> string
val port : cluster -> int

val chaos_events : cluster -> int -> Fault.event list
(** What the proxy on this source's link actually did to the stream. *)

val with_cluster :
  ?params:Env.params ->
  ?policy:Resilience.policy ->
  ?chaos:(int * Fault.plan) list ->
  ?max_sessions:int ->
  ?io_timeout:float ->
  ?standbys:int ->
  ?health_interval:float ->
  ?drain_deadline:float ->
  spec:Workload.spec ->
  (cluster -> 'a) ->
  'a
(** Every daemon is killed and reaped (and proxies stopped) however
    the callback ends.
    [health_interval]/[drain_deadline] forward to {!Server.create}.
    [standbys] (default 0) starts that many extra replica daemons per
    source — deterministic twins the mediator lists as failover
    candidates behind the primary; chaos proxies, when given, interpose
    on the primary (replica 0) only.  Every daemon drains on SIGTERM
    ({!Daemon.serve}), so a test can drain-restart it like a real
    deployment would. *)

val source_pid : cluster -> id:int -> replica:int -> unit -> int
(** The process id of the current incarnation of the daemon serving
    [replica] (0 = primary) of source [id].  Raises
    [Invalid_argument] for a member the cluster does not have. *)

val mediator_pid : cluster -> int
(** The process id of the current incarnation of the mediator. *)

val kill_source : cluster -> id:int -> replica:int -> unit
(** SIGKILL [replica] of source [id] and reap it.  Its port
    then refuses connections until {!restart_source}. *)

val restart_source : cluster -> id:int -> replica:int -> unit
(** Start a fresh incarnation of [replica] of source [id] on
    its old port, killing a live one first.  The port is bound again
    before this returns, so connections queue from then on. *)

val drain_mediator : cluster -> int
(** SIGTERM the mediator (a graceful drain) and wait for its exit code
    ([-1] when it did not exit normally, or is not running). *)

val wait_mediator : cluster -> int
(** Wait for the mediator to exit by itself — after a [Drain] frame —
    and return its exit code, as {!drain_mediator} does. *)

val restart_mediator : cluster -> unit
(** Start a fresh mediator on the same port, killing a live one first. *)

val target : cluster -> Loadgen.target
(** The cluster's mediator as a {!Loadgen} target (the owner
    plays the whole client fleet). *)

val query :
  cluster ->
  ?fault_spec:string ->
  ?deadline:float ->
  ?fallback:bool ->
  ?io_timeout:float ->
  ?trace:bool ->
  scheme:string ->
  unit ->
  Peer.response
(** One remote query from the owner (a fresh client connection
    per call).  [trace] forwards to {!Peer.run}: every process collects
    spans and the response carries the merged-ready batches. *)
