(** Chunked row streams: planning and codec for [Msg_chunk] frames
    (DESIGN.md §16).

    A row-wise delivery is split into bounded chunks of
    (row index, bytes) entries; the explicit indexes let the receiver
    check that every row arrives, once, in order.  A whole message of
    one row skips this codec: the transport sends that row bare, in the
    one-row form of [Msg_chunk]. *)

type entry = { s_row : int; s_bytes : string }

val default_chunk_bytes : int
(** Target encoded payload per chunk (64 KiB). *)

val max_chunks : int
(** Hostile cap on a frame's declared chunk count; receivers reject
    frames claiming more. *)

val encode_entries : entry list -> string
val decode_entries : string -> entry list
(** Raises [Wire.Malformed] on truncation, trailing bytes, or an entry
    count exceeding what the payload can hold. *)

val total_bytes : (int * string) list -> int
(** Sum of the row byte lengths (the transcript size of the stream). *)

val entry_overhead : int
(** Encoded bytes per entry beyond the row bytes themselves. *)

val payload_row_bytes : string -> int
(** The row bytes carried by an encoded chunk payload, peeked from its
    count prefix without decoding — for byte accounting. *)

val plan : ?chunk_bytes:int -> (int * string) list -> entry list list
(** Split rows (in order) into batches whose encoded size stays near
    [chunk_bytes]; an oversized single row forms a chunk of one. *)
