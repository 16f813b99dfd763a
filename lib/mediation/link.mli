(** Endpoint-parametric, role-aware message delivery.

    Every protocol message of every query class goes through this module
    — the five join schemes, and the set operations, aggregation and
    selection drivers, which run in-process only — so no driver records
    a transcript entry itself.  Per message it keeps three things in
    lockstep:

    - the {b transcript} entry ([Transcript.record]) — the paper's
      communication accounting;
    - the {b fault verdict} ([Fault.select] / [Fault.apply]) — simulated
      channel faults, decided from the message's addressing and the
      plan's state, never from its bytes;
    - the {b transport hop} — when an {!endpoint} is attached, the bytes
      actually cross a socket as a stream of rows (a scalar message is a
      one-row stream), framed with the [Fault.frame] integrity tag.

    The execution model is {e projected}: each process {e computes} a
    set of parties ({!computes}).  An in-process run (the default
    {!Inproc} endpoint) and the remote client replica compute every
    party; the mediator computes [Mediator]; datasource [i] computes
    [Source i].  A driver runs a party's local step only where that
    party is computed, and hands each message's value to {!exchange}
    (or {!exchange_rows}) as [Some v] exactly when it computed the
    sender:

    - a computing sender builds the value and sends it;
    - a computing receiver (the client) byte-compares what arrives with
      its own value, so wire corruption surfaces as a typed
      {!Fault.Fault_detected} at the receiving party;
    - a non-computing receiver decodes the bytes it received — the
      mediator decomposes the query the client sent and matches and
      forwards what the sources sent; a source checks the partial query
      it was sent and evaluates what the mediator forwarded — and
      records the frame's declared size;
    - every other process only advances the sequence number.

    Every process still derives every party's keys from the shared
    seed: projection distributes the {e computation} and the {e data},
    not yet the {e secrets} (DESIGN.md §11). *)

(* One process's view of a live transport is {!transport} below, as
   closures so this library stays below [Secmed_net].  [seq] is the
   global per-attempt delivery index — identical across processes
   because they make the same delivery calls in the same order — used
   to discard duplicated or stale frames. *)

(** How a delivery crosses the wire: the message as (row index, bytes)
    rows, where a row's index is its position — the index never travels,
    and a transport may raise [Invalid_argument] on a row out of
    position.  [send_rows] chunks and transmits; [recv_rows] pulls chunk
    frames and verifies each row against the locally computed [expect]
    list incrementally — the received relation is never materialised as
    one string; [take_rows] is the receive of a process that did not
    compute the rows: it returns the stream's declared size and its rows'
    bytes in stream order.  Receive failures (timeout, closed stream, tag
    mismatch) raise, ideally as a typed {!Fault.Fault_detected}. *)
type rows_transport = {
  send_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    (int * string) list ->
    unit;
  recv_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    size:int ->
    expect:(int * string) list ->
    unit;
  take_rows :
    phase:string ->
    seq:int ->
    sender:Transcript.party ->
    receiver:Transcript.party ->
    label:string ->
    int * string;
}

type transport = {
  role : Transcript.party;  (** the party this process speaks for on the wire *)
  computes : Transcript.party -> bool;
      (** the parties whose local steps this process runs (its own
          role at least) *)
  rows : rows_transport option;
      (** Always [Some]: {!make} rejects [None] with
          [Invalid_argument]. *)
}

type endpoint = Inproc | Remote of transport

type t

val make : ?endpoint:endpoint -> ?fault:Fault.plan -> Transcript.t -> t
(** A link bound to one protocol run's transcript.  Default endpoint is
    {!Inproc} (direct calls, every party computed here).  Raises
    [Invalid_argument] on a [Remote] transport without [rows]. *)

val computes : t -> Transcript.party -> bool
(** Whether this process runs the party's local steps: always on an
    {!Inproc} link, else the transport's [computes]. *)

val exchange :
  t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  ?guard:bool ->
  size:('a -> int) ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  'a option ->
  'a option
(** One projected message.  Pass [Some v] exactly when this process
    computes [sender]; it is recorded with [size v] declared, runs the
    fault verdict ([~guard:false] exempts audit-only messages from
    interception), and is returned.  On a remote link [encode v]
    travels as a one-row stream, zero bytes padding it up to [size v]
    when that exceeds it, so socket byte counts match transcript
    totals: the sender sends it, and a computing receiver byte-compares
    what arrives with its own value (a mismatch is a typed
    {!Fault.Fault_detected} at the receiving party).  Given [None], a
    process playing [receiver] awaits the frame, records its declared
    size and returns [Some (decode bytes)] — bytes that do not match the
    declared size, or a decoder's [Wire.Malformed] or
    [Invalid_argument], become a typed {!Fault.Fault_detected} at the
    receiver — and any other process returns [None].  Every process
    runs the same payload-free fault verdict.  Raises [Invalid_argument]
    when given [None] on an in-process link or at the sender. *)

val exchange_rows :
  t ->
  phase:string ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  ?guard:bool ->
  size:('a -> int) ->
  rows:('a -> string list) ->
  decode:(string -> 'a) ->
  'a option ->
  'a option
(** {!exchange} of a row-wise message: the same transcript entry,
    sequence slot and padding to [size v] as {!exchange} of the rows'
    concatenation, and the same payload-free fault verdict — but on a
    remote link each row is its own stream entry, checked row by row
    at a computing receiver, so neither side materialises the relation
    as one string.  A non-computing receiver decodes the rows'
    concatenation. *)
