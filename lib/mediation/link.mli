(** Transport-parametric, role-aware message delivery.

    Every protocol message of every query class goes through this module
    — the five join schemes, and the set operations, aggregation and
    selection drivers, which run in one process only — so no driver
    records a transcript entry itself.  Per message it keeps three
    things in lockstep:

    - the {b transcript} entry ([Transcript.record]) — the paper's
      communication accounting;
    - the {b fault choice} ([Fault.select], then [Fault.note]) — made
      from the message's addressing and the plan's state, never from its
      bytes, in every process.  A damaging choice ([Drop], [Truncate],
      [Corrupt]) fails the attempt wherever its bytes go, so the link
      makes no further choice in that attempt, and a rule's [times]
      counter burns down alike in every process, served or not;
    - the {b transport hop} — the bytes cross the attached {!transport}
      as a stream of rows (a scalar message is a one-row stream) in the
      [Fault.frame] integrity envelope.  A chosen fault is carried out
      once, on those bytes, by the sending transport ([Fault.damage]).

    There is one execution path.  A run in one process speaks for every
    party over an in-memory transport ({!Memory}); a deployed process
    speaks for its own party over sockets ([Secmed_net.Endpoint]).  The
    execution model is {e projected}: each process {e computes} a set of
    parties ({!computes}).  An in-process run and the remote client
    replica compute every party; the mediator computes [Mediator];
    datasource [i] computes [Source i].  A driver runs a party's local
    step only where that party is computed, and hands each message's
    value to {!exchange} (or {!exchange_rows}) as [Some v] exactly when
    it computed the sender:

    - a process speaking for the sender sends the value;
    - a computing receiver byte-compares what arrives with its own
      value, so wire corruption surfaces as a typed
      {!Fault.Fault_detected} at the receiving party;
    - a non-computing receiver decodes the bytes it received — the
      mediator decomposes the query the client sent and matches and
      forwards what the sources sent; a source checks the partial query
      it was sent and evaluates what the mediator forwarded — and
      records the frame's declared size;
    - every other process only makes the fault choice and advances the
      sequence number.  It does not fail with the delivery: a process
      learns of a fault from the bytes, or from the mediator's abort.

    Every process still derives every party's keys from the shared
    seed: projection distributes the {e computation} and the {e data},
    not yet the {e secrets} (DESIGN.md §11). *)

(* One process's view of a transport is {!transport} below, as closures
   so this library stays below [Secmed_net].  [seq] is the global
   per-attempt delivery index — identical across processes because they
   make the same delivery calls in the same order — used to discard
   duplicated or stale frames. *)

(** How a delivery crosses the wire: the message as (row index, bytes)
    rows, where a row's index is its position — the index never travels,
    and a transport may raise [Invalid_argument] on a row out of
    position.  [send_rows] chunks and transmits, passing the framed
    payload of its first chunk through [damage] ({!Fault.damage} of the
    chosen fault, when one was chosen) and failing with {!Fault.lost}
    when that leaves nothing to send; [recv_rows] pulls chunk
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
    ?damage:(string -> string list) ->
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
  speaks : Transcript.party -> bool;
      (** the parties this process sends and receives for: its own role
          on a socket, every party in memory *)
  computes : Transcript.party -> bool;
      (** the parties whose local steps this process runs (every party
          it speaks for at least) *)
  rows : rows_transport option;
      (** Always [Some]: {!make} rejects [None] with
          [Invalid_argument]. *)
}

type t

val make : transport:transport -> ?fault:Fault.plan -> Transcript.t -> t
(** A link bound to one protocol run's transcript.  Raises
    [Invalid_argument] on a transport without [rows]. *)

val computes : t -> Transcript.party -> bool
(** Whether this process runs the party's local steps: the transport's
    [computes]. *)

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
    computes [sender]; it is recorded with [size v] declared, makes the
    fault choice ([~guard:false] exempts audit-only messages from
    interception), and is returned.  [encode v] travels as a one-row
    stream, zero bytes padding it up to [size v] when that exceeds it,
    so socket byte counts match transcript totals: a process speaking
    for the sender sends it, damaged as the choice says, and one
    speaking for the receiver byte-compares what arrives with its own
    value (a mismatch, or a frame failing its tag, is a typed
    {!Fault.Fault_detected} at the receiving party).  Given [None], a
    process speaking for [receiver] awaits the frame, records its
    declared size and returns [Some (decode bytes)] — bytes that do not
    match the declared size, or a decoder's [Wire.Malformed] or
    [Invalid_argument], become a typed {!Fault.Fault_detected} at the
    receiver — and any other process returns [None].  Every process
    makes the same payload-free fault choice, and where the size is
    known accounts a [Duplicate]'s replayed copy as a [label(dup)]
    entry.  Raises [Invalid_argument] when given [None] at a process
    speaking for the sender. *)

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
    concatenation, and the same payload-free fault choice — but each row
    is its own stream entry, checked row by row at a computing receiver,
    so a socket transport never materialises the relation as one
    string.  A non-computing receiver decodes the rows'
    concatenation. *)
