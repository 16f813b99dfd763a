(** The session-layer frame vocabulary of the distributed transport.

    One TCP connection carries a sequence of these, each encoded by
    {!encode} and delimited by the {!Wire.frame} length prefix (decoded
    by [Io]).  The conversation shape (DESIGN.md §11):

    - connection setup: [Hello] / [Hello_ok] (or [Busy]);
    - the client poses a [Query]; the mediator opens one session per
      attempt-chain and broadcasts [Session_start] per attempt;
    - every protocol message travels as a stream of [Msg_chunk]
      slices — one slice unless it outgrows a chunk — under [Credit]
      flow control, each tagged with (session, epoch, seq) so stale
      frames from an abandoned attempt are skippable ({!Endpoint.await}
      is the one rule that skips them);
    - each replica ends an attempt with a [Report], which carries its
      span batch for the attempt when the session is traced; the
      mediator may cut an attempt short with [Abort];
    - the mediator closes with [Session_result], which carries every
      span batch to the client, and [Session_end]. *)

open Secmed_mediation

type status =
  | St_ok                        (** replica finished the attempt cleanly *)
  | St_failed of Fault.failure   (** replica detected a typed fault *)
  | St_aborted                   (** replica stopped on the mediator's [Abort] *)

(** What the mediator tells the remote client at the end of a query.
    [w_link_stats] are the mediator's own per-counterpart payload byte
    counters [(party, bytes_to, bytes_from)] — the ground truth the
    differential test compares against transcript totals. *)
type wire_result =
  | W_served of {
      w_scheme : string;          (** canonical name of the scheme that served *)
      w_attempts : int;
      w_degraded : (string * string) option;  (** (original scheme, reason) *)
      w_link_stats : (Transcript.party * int * int) list;
    }
  | W_unserved of (string * Fault.failure * int) list
      (** per tried scheme: name, final failure, attempts *)

(** One bounded slice of a protocol message in flight (DESIGN.md §16),
    chunk [ck_chunk] of [ck_chunks].  [ck_epoch] is the session-global
    attempt counter (monotonic across a degradation chain, unlike the
    per-scheme attempt number, so stale frames are always
    distinguishable); [ck_seq] the link's delivery index within the
    epoch.  [ck_payload] is the chunk's rows as {!pack} builds them;
    [ck_declared] repeats the whole stream's transcript size so any one
    frame identifies its delivery.  The decoder enforces the
    {!max_chunks} cap, so a corrupted header cannot promise a
    pathological chunk count.  A named record (not inline) so the chaos
    proxy can bind and rewrite one wholesale. *)
type chunk = {
  ck_session : int;
  ck_epoch : int;
  ck_seq : int;
  ck_sender : Transcript.party;
  ck_receiver : Transcript.party;
  ck_label : string;
  ck_chunk : int;
  ck_chunks : int;
  ck_declared : int;
  ck_payload : string;
}

type t =
  | Hello of { role : Transcript.party; scenario : string }
  | Hello_ok of { scenario : string }
  | Busy of string
  | Query of {
      scheme : string;
      query : string;
      fault_spec : string;  (** [""] = none; parsed by each replica *)
      deadline : float;     (** seconds; [0.] = the server's default policy *)
      fallback : bool;      (** enable the scheme degradation chain *)
      trace : bool;         (** ask every process to trace and ship spans back *)
    }
  | Session_start of {
      session : int;
      epoch : int;
      attempt : int;  (** the per-scheme attempt number the fault layer sees *)
      scheme : string;
      query : string;
      fault_spec : string;
      trace_id : string;  (** [""] = tracing off for this session *)
    }
  | Msg_chunk of chunk
  | Credit of { cr_session : int; cr_epoch : int; cr_seq : int; cr_n : int }
      (** Flow-control grant: the consumer of stream (epoch, seq) has
          absorbed a chunk and permits [cr_n] more in flight.  Sent only
          for a chunk the sender's window does not already cover, so a
          stream of at most {!Endpoint.credit_window} chunks draws none.
          Residue arriving outside an active [send_rows] is skipped
          wherever it lands. *)
  | Report of {
      session : int;
      epoch : int;
      status : status;
      spans : string;
          (** the replica's {!Trace_wire.payload_of} batch for this
              attempt; [""] when the session is not traced *)
    }
  | Abort of { session : int; epoch : int; failure : Fault.failure }
  | Session_result of {
      session : int;
      result : wire_result;
      spans : Trace_wire.remote list;
          (** every replica's batch, one per [Report] that carried one,
              then the mediator's own; [[]] when not traced *)
    }
  | Session_end of { session : int }
  | Stats_request  (** connection-level: answered without admission *)
  | Stats of { payload : string }  (** the server's stats snapshot as JSON text *)
  | Ping  (** connection-level liveness probe, answered before admission *)
  | Health of {
      h_role : Transcript.party;  (** who answered: [Mediator] or [Source i] *)
      h_draining : bool;          (** refusing new sessions, finishing old ones *)
      h_active : int;             (** sessions currently in flight *)
    }
  | Drain of { scenario : string; deadline : float }
      (** ask the peer to drain; [scenario] must match the peer's digest
          (the same shared-seed credential the [Hello] handshake checks),
          [deadline] bounds how long in-flight sessions may linger *)
  | Drain_ok  (** the peer accepted the [Drain] and is now draining *)
  | Draining of string
      (** typed refusal of a new session while draining — distinct from
          [Busy] so clients can retry against a restarted process *)

val encode : t -> string
(** Every int of a frame travels as a canonical unsigned LEB128 varint,
    every string as its varint length and bytes, so a header field of
    under 128 takes one byte.  Raises [Invalid_argument] on a negative
    int (no frame has one: ids, counts, sizes and millisecond deadlines
    are non-negative, and a span's parent travels as [rm_parent + 1]). *)

val decode : string -> t
(** Raises {!Wire.Malformed} on anything {!encode} would not produce,
    among it a truncated, non-canonical, over-long (past nine bytes) or
    above-[max_int] varint, and a chunk whose count exceeds
    {!max_chunks} or whose index is not below its count. *)

(** {2 Chunk payloads}

    The one chunk format: a chunk's rows travel as a [Wire] list of
    strings behind the [Fault.frame] integrity tag over (label, rows).
    No row carries an index — a row's index is its position in the
    stream. *)

val max_chunks : int
(** Hostile cap on a frame's declared chunk count. *)

val chunk_bytes : int
(** Target payload per chunk (64 KiB). *)

val plan : string list -> string list list
(** Split rows, in order, into batches whose payload stays within
    {!chunk_bytes}; a larger row forms a batch of one.  Never empty: no
    rows make one empty batch, so a receiver that did not compute the
    rows still learns from a chunk that the stream ended. *)

val pack : label:string -> string list -> string
(** A chunk payload carrying [rows]. *)

val unpack : chunk -> (string list, string) result
(** The chunk's rows, or why its tag (checked against [ck_label]) or
    its row list is rejected. *)

val row_bytes : chunk -> int
(** The row bytes a chunk carries, peeked in O(1) from the payload's
    count prefix without checking the tag (0 when the payload is
    shorter than a count and a tag) — for byte accounting. *)

val tag_name : t -> string
(** Constructor name, for traces and error messages. *)

val session_of : t -> int option
(** The session id a frame belongs to; [None] for connection-level
    frames ([Hello], [Hello_ok], [Busy], [Query], [Stats_request],
    [Stats], [Ping], [Health], [Drain], [Drain_ok], [Draining]). *)
