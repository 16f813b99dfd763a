(** Length-delimited binary wire format.

    Everything a party transmits is serialized through this module so that
    communication volumes in the transcripts are real byte counts, not
    estimates.

    Readers are hardened against adversarial input: every [read_*] either
    returns a value or raises {!Malformed} — never [Invalid_argument], an
    out-of-bounds access, or an attempt to allocate a structure larger than
    the message that claims to contain it. *)

exception Malformed of string
(** The only failure readers are allowed to surface. *)

type writer

val writer : unit -> writer
val write_int : writer -> int -> unit
(** 8-byte big-endian. *)

val write_raw : writer -> string -> unit
(** Bytes as-is, no length prefix — for fixed-width canonical encodings
    whose framing is implied by the schema. *)

val write_string : writer -> string -> unit
(** 4-byte length prefix + bytes. *)

val write_bigint : writer -> Secmed_bigint.Bigint.t -> unit
(** Non-negative values only. *)

val write_list : writer -> ('a -> unit) -> 'a list -> unit
(** 4-byte count followed by each element written by the callback. *)

val contents : writer -> string

type reader

val reader : string -> reader
val remaining : reader -> int
(** Bytes left to read. *)

val read_int : reader -> int
val read_string : reader -> string

val read_raw : reader -> int -> string
(** Exactly [n] bytes, no prefix: the reader of {!write_raw}'s
    fixed-width fields. *)

val read_bigint : reader -> Secmed_bigint.Bigint.t

val read_list : reader -> (unit -> 'a) -> 'a list
(** The declared count is capped by the remaining bytes before any element
    is read, so a corrupted count prefix cannot drive a huge allocation. *)

val read_at : reader -> (string -> int -> 'a * int) -> 'a
(** Run an offset-based decoder ([decode data pos] returning the value
    and the offset just past it — e.g. [Tuple.decode_at]) at the
    reader's position and advance past what it consumed.  A decoder's
    [Invalid_argument], or one that makes no progress, raises
    {!Malformed}. *)

val read_rest : reader -> (unit -> 'a) -> 'a list
(** Read elements until the message ends — for concatenations whose
    element count the receiver cannot know in advance.  Raises
    {!Malformed} if an element read consumes nothing. *)

val at_end : reader -> bool
val expect_end : reader -> unit
(** Raises {!Malformed} when bytes remain. *)

val frame : string -> string
(** [frame body] length-prefixes [body] with its 4-byte big-endian size,
    producing the unit a stream transport writes; {!Stream} is the
    matching decoder. *)

(** Incremental frame decoder for stream transports.

    A TCP read returns an arbitrary chunk of the byte stream — possibly
    half a length prefix, possibly three frames and the beginning of a
    fourth.  [Stream] buffers whatever arrives and hands back complete
    frame bodies, whatever the chunk boundaries were: feeding a byte
    string split at {e any} offset yields the same frames as feeding it
    whole (tested at every 1-byte offset in [test_net.ml]). *)
module Stream : sig
  type t

  val create : ?max_frame:int -> unit -> t
  (** [max_frame] caps the declared size of a single frame (default
      64 MiB) so a corrupted or hostile length prefix cannot drive an
      unbounded allocation. *)

  val feed : t -> string -> unit
  (** Append a chunk of the byte stream to the buffer. *)

  val feed_bytes : t -> Bytes.t -> off:int -> len:int -> unit
  (** [feed] from a [Bytes.t] slice (what [Unix.read] fills) without an
      intermediate copy of the whole buffer. *)

  val next_frame : t -> string option
  (** The next complete frame body, consuming it from the buffer, or
      [None] if the buffered bytes do not yet hold one.  Raises
      {!Malformed} when a length prefix exceeds the [max_frame] cap. *)

  val buffered : t -> int
  (** Bytes fed but not yet consumed by {!next_frame}. *)

  val capacity : t -> int
  (** Current size of the underlying buffer (monotone; grows to the
      largest frame seen). *)

  val reserve : t -> int -> Bytes.t * int
  (** [reserve t n] makes room for at least [n] more bytes and returns
      the buffer and the offset of the write window, so a transport can
      [Unix.read] straight into the reassembly buffer — no per-read
      scratch allocation, no copy.  The window is invalidated by any
      other call on [t]; follow with {!commit} before touching the
      stream again. *)

  val commit : t -> int -> unit
  (** [commit t n] publishes [n] bytes written into the window returned
      by the matching {!reserve}.  Raises [Invalid_argument] when [n]
      overruns the reservation. *)

  val dispose : t -> unit
  (** Return the buffer's bytes to the ["wire.stream"] high-water
      region (idempotent).  Call when the owning connection closes. *)
end
