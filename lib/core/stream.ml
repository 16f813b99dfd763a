(* Chunked row streams (DESIGN.md §16).

   A row-wise protocol message — per-tuple hybrid ciphertexts, PM
   e-values, commutative message sets — is delivered as a sequence of
   bounded [Msg_chunk] frames instead of one whole-relation payload.
   Each chunk carries a batch of (row index, bytes) entries; the indexes
   make the stream self-describing, so the receiver can check that every
   row arrives, once, in order.

   This module is pure planning and codec; the transport semantics
   (credits, epoch filtering, verification) live in Secmed_net. *)

open Secmed_mediation

type entry = { s_row : int; s_bytes : string }

(* Target payload bytes per chunk.  Small enough that reassembly
   buffers, mux queues, and the merge window all stay well under a
   megabyte per connection; large enough that framing overhead is noise
   against ciphertext rows. *)
let default_chunk_bytes = 65536

(* Hostile cap on a frame's declared chunk count: a corrupted header
   must not convince a receiver to wait on (or account for) a
   pathological number of chunks. *)
let max_chunks = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Codec: a chunk payload is a counted list of (row, bytes) entries.   *)

let encode_entries entries =
  let w = Wire.writer () in
  Wire.write_list w
    (fun e ->
      Wire.write_int w e.s_row;
      Wire.write_string w e.s_bytes)
    entries;
  Wire.contents w

let decode_entries payload =
  let r = Wire.reader payload in
  let entries =
    Wire.read_list r (fun () ->
        let s_row = Wire.read_int r in
        let s_bytes = Wire.read_string r in
        { s_row; s_bytes })
  in
  Wire.expect_end r;
  entries

(* ------------------------------------------------------------------ *)
(* Planning. *)

let total_bytes rows = List.fold_left (fun acc (_, b) -> acc + String.length b) 0 rows

let entry_overhead = 12 (* 8-byte row index + 4-byte length prefix *)

(* The row bytes carried by an encoded chunk payload, peeked from the
   count prefix without decoding (payload = be32 count ++ count x
   (8-byte row index + 4-byte length + bytes)) — for byte accounting on
   routes that must not pay a full decode. *)
let payload_row_bytes payload =
  let n = String.length payload in
  if n < 4 then 0
  else
    let count =
      (Char.code payload.[0] lsl 24)
      lor (Char.code payload.[1] lsl 16)
      lor (Char.code payload.[2] lsl 8)
      lor Char.code payload.[3]
    in
    max 0 (n - 4 - (entry_overhead * count))

(* Split [rows] into chunk batches whose encoded payload stays near
   [chunk_bytes].  A single row larger than the budget still travels
   (as a chunk of one): the cap bounds buffering, not expressiveness. *)
let plan ?(chunk_bytes = default_chunk_bytes) rows =
  if chunk_bytes <= 0 then invalid_arg "Stream.plan: chunk_bytes must be positive";
  let flush acc batch = match batch with [] -> acc | b -> List.rev b :: acc in
  let rec go acc batch used = function
    | [] -> List.rev (flush acc batch)
    | (row, bytes) :: rest ->
      let cost = entry_overhead + String.length bytes in
      if batch <> [] && used + cost > chunk_bytes then
        go (flush acc batch) [ { s_row = row; s_bytes = bytes } ] cost rest
      else go acc ({ s_row = row; s_bytes = bytes } :: batch) (used + cost) rest
  in
  go [] [] 0 rows
