(** From sockets to {!Secmed_mediation.Link.transport}.

    The drivers are endpoint-parametric: they hand each message to
    [Link] and the attached transport decides what, if anything, crosses
    a wire.  This module supplies that transport for the projected model
    (DESIGN.md §11) — each process sends the frames whose sender it
    plays and awaits the frames whose receiver it plays.  Every session
    reader goes through {!await}, the one rule that discards duplicated
    or stale frames from an abandoned attempt rather than misdelivering
    them.  Every payload
    travels with the [Fault.frame] integrity tag, checked at the
    receiver before anything decodes it.

    Every delivery travels as one stream of bounded [Msg_chunk] frames
    in {!Frame}'s one chunk format — a scalar message is a one-row
    stream in one chunk — under credit-based flow control (DESIGN.md
    §16).

    {!Mux} demultiplexes one shared connection (a mediator↔datasource
    link carries every concurrent session) into per-session frame queues
    fed by a single receive thread.  Receivers wake on arrival: a reader
    of an empty queue sleeps on the mux's condition, which the receive
    thread signals on every frame and on its death. *)

open Secmed_mediation

exception Aborted of Fault.failure
(** Raised out of a replica's receive when the mediator aborts the
    attempt; the replica's driver unwinds and reports [St_aborted]. *)

module Mux : sig
  type t

  val create : ?max_tombstones:int -> ?max_queue:int -> Io.conn -> t
  (** Spawn the receive thread.  The connection must have no other
      reader from this point on.  [max_tombstones] (default 1024) bounds
      the closed-session tombstone set; the oldest tombstones are
      evicted FIFO so a long-lived source connection keeps O(1) state
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
      clears any tombstone (and any overflow poisoning, with the frames
      parked before the overflow) for the id, so a session id reused
      after an epoch bump routes again ({!await}'s leftover rule
      discards whatever stale frames slip through). *)

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
  (** Block until the session's queue yields a frame, woken by its
      arrival ([timeout = 0.] waits without a deadline).  Raises
      {!Io.Transport_error} on timeout, when the receive thread died and
      the queue is drained, when the session's queue overflowed, or when
      the session is not subscribed (already closed, including by an
      {!unsubscribe} while this reader waits).  A deadline is observed
      by one per-process ticker with a 50 ms period, so a timeout fires
      no earlier than [timeout] and at most one tick later. *)

  val next_control : t -> timeout:float -> Frame.t
  (** Same, for connection-level frames and session announcements. *)
end

type route = {
  r_send : Frame.t -> unit;
  r_next : timeout:float -> Frame.t;  (** already session-filtered *)
}
(** One counterpart this process exchanges frames with.  A leaf (client
    or datasource) has exactly one route — its mediator connection; the
    mediator has one per remote counterpart. *)

val plain_route : send:(Frame.t -> unit) -> next:(timeout:float -> Frame.t) -> route

val await :
  route -> timeout:float -> epoch:int -> seq:int -> fail:(string -> 'a) ->
  (Frame.t -> 'a option) -> 'a
(** The leftover rule, shared by every session reader.  A reader at
    delivery [seq] of [epoch] takes the next frame [want] accepts, where
    a [Msg_chunk] or [Credit] counts only at exactly (epoch, seq).
    Of the rest:
    - a [Msg_chunk] from an older epoch or an earlier slot of this one
      is skipped; one from a later slot fails ["frame gap"];
    - [Credit] residue and every [Report] are skipped;
    - an [Abort] of [epoch] or later raises {!Aborted}; an older one is
      skipped, and so is a [Session_start] of [epoch] or earlier;
    - any other frame fails ["unexpected <tag> frame"];
    - a route error fails ["never arrived: <reason>"].
    [fail] receives the reason and must raise.  A reader between
    attempts waits at [seq = 0] of the epoch after the last one it
    ran. *)

val credit_window : int
(** Chunks a sender may leave unacknowledged before blocking on a
    [Credit] grant.  A receiver grants credit for chunk [j] of [n] only
    when [j + credit_window < n] — exactly the grants the sender awaits
    — so a stream of at most [credit_window] chunks draws none. *)

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
  ?after_io:(phase:string -> unit) ->
  unit ->
  Link.transport
(** Sends route by the message's {e receiver}, receives by its
    {e sender} ([route_of] returning [None] means the counterpart is
    local — nothing crosses a wire).  Receive-side failures surface as
    typed faults blamed on this process's receiving party: a timeout
    matches a simulated [Drop], a frame failing its integrity tag (or,
    at a receiver that computed the message, a row mismatch checked by
    [recv_rows]) matches a simulated [Corrupt].  [computes]
    (default: the [role] alone) is the set of parties whose steps this
    process runs ({!Link.computes}).  [after_io] runs after every
    blocking send or receive — the mediator hooks its real-time
    deadline check here so wall-clock stalls trip the budget
    mid-attempt.  [epoch] is read per frame so the mediator can reuse
    one transport across every attempt of a resilient session.

    A row's index is its position in the stream and never travels:
    [send_rows] and [recv_rows] raise [Invalid_argument] on a row whose
    index is not its position.  [recv_rows] and [take_rows] share one
    chunk reader.  It holds at most one decoded chunk (charged to the
    ["stream.pending"] {!Secmed_obs.Hwm} region), so receive memory is
    bounded by one chunk however many rows flow.  A replayed chunk is
    skipped; a chunk gap, a chunk whose tag or row list is rejected,
    chunks that disagree on the declared size, a stream shorter than the
    expected rows and rows past the end fail typed.  [recv_rows] checks
    each row against the locally computed one; [take_rows] returns the
    rows, in stream order, as the one string a non-computing receiver
    decodes.  A send always carries at least one (possibly empty)
    chunk. *)

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
  route:route ->
  Secmed_core.Env.t ->
  Secmed_core.Env.client ->
  Frame.status * Secmed_core.Outcome.t option
(** One leaf-side protocol attempt: resolve the scheme name, run the
    driver over a [Remote] link bound to [route] (computing the parties
    [computes] names, default [role] alone), and translate the ending
    into the {!Frame.status} the process reports — a source's refusal
    of the request ([Request.Bad_credential], [Request.Access_denied])
    as a ["request"]-phase failure of that source.  The outcome is
    returned on [St_ok] so the client replica can keep its result. *)
