(** From sockets to {!Secmed_mediation.Link.transport}.

    The drivers are endpoint-parametric: they hand each message to
    [Link] and the attached transport decides what, if anything, crosses
    a wire.  This module supplies that transport for the projected model
    (DESIGN.md §11) — each process sends the frames whose sender it
    plays and awaits the frames whose receiver it plays, filtering by
    (attempt, seq) so duplicated or stale frames from an abandoned
    attempt are discarded rather than misdelivered.  Every payload
    travels with the [Fault.frame] integrity tag, checked at the
    receiver before anything decodes it.

    Row-wise deliveries ([Link.exchange_rows]) travel as bounded
    [Msg_chunk] frames under credit-based flow control, and a logical
    source split into shards fans the stream out across the shard routes
    (DESIGN.md §16).

    {!Mux} demultiplexes one shared connection (a mediator↔datasource
    link carries every concurrent session) into per-session frame queues
    fed by a single receive thread. *)

open Secmed_mediation

exception Aborted of Fault.failure
(** Raised out of a replica's [recv] when the mediator aborts the
    attempt; the replica's driver unwinds and reports [St_aborted]. *)

module Mux : sig
  type t

  val create : ?max_tombstones:int -> ?max_queue:int -> Io.conn -> t
  (** Spawn the receive thread.  The connection must have no other
      reader from this point on.  [max_tombstones] (default 1024) bounds
      the closed-session tombstone set; the oldest tombstones are
      evicted FIFO so a long-lived pooled connection keeps O(1) state
      per retained session.  [max_queue] (default 1024) bounds each
      session's parked-frame queue: a frame arriving at a full queue is
      dropped and the session poisoned, so its next {!next} raises
      {!Io.Transport_error} — memory stays bounded and the consumer sees
      the same typed failure as a severed link.  Parked frame bytes are
      charged to the ["mux.parked"] {!Secmed_obs.Hwm} region.  The
      receive thread is attached to the connection ({!Io.attach_reader}),
      so {!Io.close} returns only after it has left the socket. *)

  val conn : t -> Io.conn
  val alive : t -> bool
  (** [false] once the receive thread died (peer closed, reset,
      malformed stream) — the cue for lazy reconnection. *)

  val send : t -> Frame.t -> unit

  val subscribe : t -> int -> unit
  (** Open a queue for a session id (idempotent).  Session queues are
      also opened implicitly by the first frame that names the session —
      the receive thread must never race a consumer's subscription —
      with a [Session_start] additionally announced on the control
      queue so a daemon can spawn the session's handler.  Subscribing
      clears any tombstone (and any overflow poisoning) for the id, so a
      session id reused after an epoch bump routes again (the
      transport's epoch filter discards whatever stale frames slip
      through). *)

  val unsubscribe : t -> int -> unit
  (** Close the session's queue; late frames for it are dropped (and
      counted in {!dropped}). *)

  val tombstones : t -> int
  (** Closed-session tombstones currently retained (≤ [max_tombstones]). *)

  val dropped : t -> int
  (** Frames discarded because their session was already closed, plus
      frames discarded by the per-session queue bound. *)

  val overflowed : t -> int -> bool
  (** Whether the session's queue has overflowed since it was last
      subscribed. *)

  val backlog : t -> int
  (** Frames currently parked across all queues (control included). *)

  val next : t -> session:int -> timeout:float -> Frame.t
  (** Block (polling) until the session's queue yields a frame.  Raises
      {!Io.Transport_error} on timeout, when the receive thread died and
      the queue is drained, when the session's queue overflowed, or when
      the session is not subscribed (already closed). *)

  val next_control : t -> timeout:float -> Frame.t
  (** Same, for connection-level frames and session announcements. *)
end

type route = {
  r_send : Frame.t -> unit;
  r_next : timeout:float -> Frame.t;  (** already session-filtered *)
  r_sub : route array option;
      (** per-shard sub-routes behind a fanned-out logical source:
          [r_send] on the merged route broadcasts and [r_next] reads the
          designated shard 0, while streamed receives interleave every
          sub-route's chunk stream in row order.  [None] for an unsharded
          counterpart. *)
}
(** One counterpart this process exchanges frames with.  A leaf (client
    or datasource) has exactly one route — its mediator connection; the
    mediator has one per remote counterpart. *)

val plain_route : send:(Frame.t -> unit) -> next:(timeout:float -> Frame.t) -> route
(** An unsharded route ([r_sub = None]). *)

val credit_window : int
(** Chunks a streaming sender may leave unacknowledged before blocking
    on a [Credit] grant. *)

val stream_backlog : unit -> int
(** Unacknowledged chunks currently in flight from this process, summed
    over all live streamed sends: the ["stream.backlog.chunks"]
    gauge. *)

val transport :
  role:Transcript.party ->
  ?computes:(Transcript.party -> bool) ->
  session:int ->
  epoch:(unit -> int) ->
  io_timeout:float ->
  route_of:(Transcript.party -> route option) ->
  ?shard:int * int ->
  ?after_io:(phase:string -> unit) ->
  unit ->
  Link.transport
(** Sends route by the message's {e receiver}, receives by its
    {e sender} ([route_of] returning [None] means the counterpart is
    local — nothing crosses a wire).  Receive-side failures surface as
    typed faults blamed on this process's receiving party: a timeout
    matches a simulated [Drop], a frame failing its integrity tag (or,
    at a receiver that computed the message, a payload mismatch checked
    by [Link.deliver]) matches a simulated [Corrupt].  [computes]
    (default: the [role] alone) is the set of parties whose steps this
    process runs ({!Link.computes}).  [after_io] runs
    after every blocking send/recv — the mediator hooks its real-time
    deadline check here so wall-clock stalls trip the budget
    mid-attempt.  [epoch] is read per frame so the mediator can reuse
    one transport across every attempt of a resilient session.

    [shard] (default [(0, 1)]) is this process's (index, count) within a
    sharded logical source: shard 0 alone speaks scalar messages for the
    party, and a streamed [send_rows] transmits only the shard's
    row partition ([Secmed_core.Stream.partition]).  A streamed
    [recv_rows] holds at most one decoded chunk per shard (charged to
    the ["stream.pending"] {!Secmed_obs.Hwm} region) while merging, so
    receive memory is bounded by shards × chunk size regardless of how
    many rows flow; [take_rows] merges the same streams into the one
    string a non-computing receiver decodes.  A streamed send always
    carries at least one (possibly empty) chunk per shard. *)

val run_replica :
  role:Transcript.party ->
  ?computes:(Transcript.party -> bool) ->
  fault:Fault.plan option ->
  session:int ->
  epoch:int ->
  attempt:int ->
  scheme:string ->
  query:string ->
  io_timeout:float ->
  ?shard:int * int ->
  route:route ->
  Secmed_core.Env.t ->
  Secmed_core.Env.client ->
  Frame.status * Secmed_core.Outcome.t option
(** One leaf-side protocol attempt: resolve the scheme name, run the
    driver over a [Remote] link bound to [route] (computing the parties
    [computes] names, default [role] alone), and translate the ending
    into the {!Frame.status} the process reports.  The outcome is
    returned on [St_ok] so the client replica can keep its result. *)
