(** The leaf processes: datasource daemons and the remote client.

    Both are replicas in the deterministic-execution model — they build
    the same environment from the same seed as the mediator, run the
    same drivers, and the transport only carries the messages each party
    actually plays a side of (plus the session-control frames).  Both
    run one attempt loop: between attempts they wait under
    {!Endpoint.await}'s leftover rule, then run each announced attempt
    and answer it with a [Report]. *)

open Secmed_mediation
open Secmed_core

exception Refused of string
(** The mediator (or a datasource) turned a query away with a typed
    [Busy] frame at capacity (admission-control backpressure), or a
    connection away on a scenario digest mismatch.  The payload is the peer's reason.
    Distinct from {!Io.Transport_error} so a load generator can count
    backpressure separately from broken links. *)

exception Draining of string
(** The peer refused a new session with a typed [Draining] frame: it is
    shutting down gracefully.  Distinct from {!Refused} ([Busy]) — a
    draining process will not come back, so the right reaction is to
    retry against its restarted successor, not to back off. *)

(** A peer's answer to a [Ping] probe. *)
type health = {
  h_role : Secmed_mediation.Transcript.party;
  h_draining : bool;
  h_active : int;  (** sessions currently in flight at the peer *)
}

val source :
  id:int ->
  env:Env.t ->
  client:Env.client ->
  scenario:string ->
  listen_fd:Unix.file_descr ->
  ?io_timeout:float ->
  ?drain_deadline:float ->
  unit ->
  unit
(** Run datasource [id] as a daemon, holding only its own relations of
    [env] ({!Env.view}): accept mediator connections (a
    thread per connection — one per mediator, and a restarted
    mediator dials anew while the old link drains),
    multiplex concurrent sessions over each (a thread per session),
    and per [Session_start] run this source's replica of the attempt and
    report how it ended (with the attempt's span batch in the [Report]
    when the session is traced).  [scenario] is the {!Scenario.digest}
    the mediator's [Hello] must present.
    The session's fault spec is parsed once, so a [times]-bounded rule
    burns down across attempts exactly as it does in-process.  Returns
    once a drain completes.

    The lifecycle is {!Daemon.serve}'s: [Ping] probes are answered
    with a [Health] frame before any handshake, and a [Drain] frame
    carrying the right scenario digest, or SIGTERM, flips the daemon
    into draining.  New connections are then refused with [Draining],
    brand-new sessions on existing connections are refused with a
    typed [St_failed]/"draining" report (the mediator fails them over to
    a standby), in-flight sessions finish under [drain_deadline]
    (default 30s), and the daemon then returns cleanly. *)

(** What a remote query yields on the client side.  [result] is
    reconstructed from the client replica's own outcomes plus the
    mediator's [Session_result] verdict; [link_stats] are the mediator's
    per-counterpart payload byte counters [(party, sent, received)];
    [socket_bytes] the raw (framing-included) bytes this session moved
    on the client socket: from its [Query] to its verdict, plus the
    connect handshake when the session was the connection's first. *)
type response = {
  result : Protocol.session_result;
  epochs : int;  (** attempts broadcast across the whole session *)
  link_stats : (Transcript.party * int * int) list;
  socket_bytes : int * int;  (** (received, sent) by this session *)
  remote_spans : Trace_wire.remote list;
      (** the span batches of the mediator's [Session_result]: one per
          source replica per epoch, in arrival order, then the
          mediator's own; [[]] unless [trace] was set *)
}

type client
(** One connection to a mediator, carrying any number of sessions in
    sequence: one [Hello] per connection, one [Query] per session.  Not
    for concurrent use: a client poses one session at a time. *)

val connect :
  host:string -> port:int -> scenario:string -> ?io_timeout:float -> unit -> client
(** Dial a mediator and check its [Hello_ok] carries [scenario].
    [io_timeout] (default 10s) bounds each blocking frame exchange of
    this client's sessions.  Raises {!Refused} when the mediator's
    digest disagrees, {!Draining} when it is draining, and
    {!Io.Transport_error} when it is unreachable. *)

val query :
  client ->
  scheme:string ->
  query:string ->
  ?fault_spec:string ->
  ?deadline:float ->
  ?fallback:bool ->
  ?trace:bool ->
  Env.t ->
  Env.client ->
  response
(** Pose one query on the client's connection, and play the client
    replica for every attempt the mediator announces.  With [trace]
    (default off) the query asks every process to collect spans and
    ship them back; merge [remote_spans] with the caller's own
    collector via {!Trace_wire.merge}.

    Admission is per query: {!Refused} when the mediator is at
    capacity ([Busy]), and the connection stays usable; {!Draining}
    when it is draining.  {!Io.Transport_error} when the link dies
    mid-session.  After anything but a verdict or [Busy] the
    connection is dropped and the next query dials a new one.

    A reused connection can end before the first frame of its session
    arrives — the mediator restarted, or closed the connection after
    its idle bound: a send error, end of file or reset.  The session
    never started, so [query] redials once, at once, and poses it
    again.  A session on a connection dialed for it gets no second
    chance.  A caller timing [query] ({!Loadgen}'s [r_latency]) so
    times the session from its [Query] to its verdict, plus the connect
    and [Hello] when the session dialed. *)

val close : client -> unit
(** Close the connection.  Idempotent; a later {!query} dials anew. *)

val run :
  host:string ->
  port:int ->
  scenario:string ->
  scheme:string ->
  query:string ->
  ?fault_spec:string ->
  ?deadline:float ->
  ?fallback:bool ->
  ?io_timeout:float ->
  ?trace:bool ->
  Env.t ->
  Env.client ->
  response
(** One-shot: {!connect}, one {!query}, {!close}.  Raises what they
    raise. *)

val stats : host:string -> port:int -> ?io_timeout:float -> unit -> string
(** Ask a running mediator for its live stats snapshot (JSON text, the
    [Stats] frame payload).  Answered without admission control, so it
    works against a server at capacity. *)

val ping : host:string -> port:int -> ?io_timeout:float -> unit -> health
(** One liveness probe against a mediator or datasource daemon.
    Answered before admission and before any handshake; raises
    {!Io.Transport_error} when the peer is unreachable. *)

val drain :
  host:string -> port:int -> scenario:string -> ?deadline:float -> ?io_timeout:float ->
  unit -> unit
(** Ask a peer to drain gracefully.  [scenario] must be the peer's
    {!Scenario.digest} — the drain frame is authenticated by the same
    shared-seed credential as the session handshake.  [deadline] [> 0]
    overrides the peer's default drain deadline.  Raises {!Refused} when
    the digest does not match. *)
