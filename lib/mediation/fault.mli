(** Declarative, deterministic fault injection for the mediation pipeline.

    The mediator combines partial results from autonomous datasources it
    does not control, so the stack must stay correct — or fail closed with
    a typed error — when a link misdelivers or a party misbehaves.  A
    {!plan} describes, per link and per message label, which channel
    faults to inject (drop, truncate, corrupt, duplicate, delay) and which
    datasources act byzantine (malformed ciphertexts, out-of-range
    partition ids, stale commutative keys, out-of-range Paillier values).
    All injections are seeded and replayable; every injected fault and
    every retry is recorded both in the plan's event log and as a
    {!Transcript.note}, so communication/leakage accounting stays
    truthful.  A channel fault is chosen per delivery without looking at
    the payload ({!select}) and carried out on the framed bytes by one
    function, {!damage}, wherever they travel.  See DESIGN.md §8 for the
    fault model. *)

type action =
  | Drop           (** message never arrives *)
  | Truncate of int  (** cut the trailing n bytes off the frame *)
  | Corrupt of int   (** flip n distinct seeded random bits of the frame *)
  | Duplicate      (** deliver a second, replayed copy *)
  | Delay of float   (** the sender waits this many seconds first *)

val action_name : action -> string

type byzantine_mode =
  | Malformed_ciphertexts  (** hybrid/DEM ciphertexts fail authentication *)
  | Wrong_partition_ids    (** DAS index vectors outside the table range *)
  | Stale_commutative_key  (** re-encryption pass under a different key *)
  | Garbage_paillier       (** Paillier values outside the ciphertext group *)

val mode_name : byzantine_mode -> string
val mode_of_name : string -> byzantine_mode option

type rule

val rule :
  ?sender:Transcript.party ->
  ?receiver:Transcript.party ->
  ?label:string ->
  ?times:int ->
  action ->
  rule
(** Omitted selectors are wildcards; [times] bounds how many matching
    messages the rule fires on (default: unlimited). *)

type event = {
  event_sender : Transcript.party;
  event_receiver : Transcript.party;
  event_label : string;
  event_action : action;
  detail : string;
}

val pp_event : Format.formatter -> event -> unit

(** Typed protocol failure: which phase of which protocol detected the
    fault, at which party, and why.  Raised by hardened drivers and mapped
    to [Protocol.Fault] at the top level. *)
type failure = { phase : string; party : Transcript.party; reason : string }

exception Fault_detected of failure

val fail : phase:string -> party:Transcript.party -> string -> 'a
(** Raise {!Fault_detected}. *)

type plan
(** Mutable: rule counters, the event log and the retry state advance as
    the plan is replayed, so a [times]-bounded transient fault is consumed
    across retries. *)

val plan :
  ?seed:int ->
  ?max_retries:int ->
  ?byzantine:(int * byzantine_mode) list ->
  rule list ->
  plan
(** [seed] drives the positions {!damage} corrupts (default 0);
    [max_retries] bounds the mediator's retry-with-fresh-request policy
    (default 2); [byzantine] marks datasources by id. *)

val of_spec : string -> (plan, string) result
(** Parse a plan from the CLI syntax: semicolon-separated clauses of
    [ACTION:FROM->TO[:LABEL][:times=N]] (parties [client], [mediator],
    [sourceN]/[sN] or [*]), [byzantine:SID:MODE], [seed=N], [retries=N].
    Example: ["drop:mediator->client:RC:times=1;byzantine:2:garbage-paillier"]. *)

val events : plan -> event list
(** Injected faults, in injection order, across all attempts. *)

val attempts : plan -> int

val byzantine_mode : plan option -> int -> byzantine_mode option
(** How the given datasource misbehaves, if at all. *)

val auditing : plan option -> bool
(** Whether drivers should run the (transcript-visible) conformance
    audits that only matter under a fault model — e.g. the commutative
    canary exchange. *)

val max_retries : plan option -> int
val retryable : plan option -> bool
(** Whether a retry can help: true for channel faults, false when any
    source is byzantine (a fresh request reaches the same liar). *)

val start_attempt : plan option -> attempt:int -> unit
(** Called by the protocol driver loop before each attempt; queues a
    retry note for the next transcript. *)

val record_failure : plan option -> failure -> unit
(** Called by the protocol driver loop when an attempt fails; the next
    attempt's retry note names this failure's phase, party and
    reason. *)

val attach : plan option -> Transcript.t -> unit
(** Called by drivers right after creating their transcript; flushes the
    queued retry note so retries are visible in the final accounting. *)

val flip_tail : string -> string
(** Flip the low bit of the last byte: the byzantine-source primitive that
    damages a ciphertext while leaving its framing parseable, so the
    fault is caught by authentication, not by a parser crash. *)

val tag_bytes : int
(** Length of the integrity tag {!frame} appends (16). *)

val frame : label:string -> string -> string
(** [payload ^ tag], the tag a 16-byte SHA-256 digest over (label,
    payload).  Every payload a transport carries travels framed, so the
    receiver rejects truncation and corruption before decoding. *)

val unframe : label:string -> string -> (string, string) result
(** The payload of a framed string, or why the tag check failed. *)

(** {2 Channel faults} *)

val select :
  plan ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  action option
(** Consume the first rule matching the link and label (decrementing its
    [times] counter) and return its action; [None] when no rule fires.
    The choice reads the addressing and the plan's state only, never the
    payload, so every process of a distributed run makes it at the same
    delivery.  Nothing is logged: {!Link} follows a choice with {!note},
    the chaos proxy with {!log_external}. *)

val note :
  plan ->
  Transcript.t ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  action ->
  unit
(** Log a chosen action to {!events}, note it in the transcript, and emit
    a ["fault"] trace event. *)

val log_external :
  plan ->
  sender:Transcript.party ->
  receiver:Transcript.party ->
  label:string ->
  action:action ->
  string ->
  unit
(** Append an event to the plan's log without touching any transcript
    (the chaos proxy runs outside every protocol run). *)

val damage : plan -> action -> string -> string list
(** Carry out an action on one {!frame}d payload: the byte strings that
    travel in its place, in order.  [Drop] yields none; [Duplicate] the
    payload twice, so the reader must discard the replay; [Truncate n]
    the payload less its last [n] bytes and [Corrupt n] a copy with [n]
    seeded random bits flipped, both of which fail the receiver's tag
    check; [Delay s] the payload, after really waiting [s] seconds.  The
    in-memory transport, the socket sender and the chaos proxy all damage
    through this one function. *)

val lost : phase:string -> receiver:Transcript.party -> label:string -> 'a
(** Raise the typed failure of a delivery that never travelled, blamed
    on its receiver: what a sending transport raises when {!damage}
    leaves it nothing to send. *)
