(* FIPS 180-4 SHA-256: buffering and padding here, the compression
   function in sha256_stubs.c. *)

let digest_size = 32

(* [compress state s off n] hashes the [n] 64-byte blocks of [s] from
   byte [off] into [state] (H0..H7, big-endian). *)
external compress : Bytes.t -> string -> int -> int -> unit = "secmed_sha256_compress"
[@@noalloc]

let iv =
  "\x6a\x09\xe6\x67\xbb\x67\xae\x85\x3c\x6e\xf3\x72\xa5\x4f\xf5\x3a\
   \x51\x0e\x52\x7f\x9b\x05\x68\x8c\x1f\x83\xd9\xab\x5b\xe0\xcd\x19"

type ctx = {
  h : Bytes.t; (* 32-byte state *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes fed *)
}

let init () = { h = Bytes.of_string iv; buf = Bytes.create 64; buf_len = 0; total = 0 }

let compress_buf ctx = compress ctx.h (Bytes.unsafe_to_string ctx.buf) 0 1

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partially filled block first. *)
  if ctx.buf_len > 0 then begin
    let take = Stdlib.min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  let blocks = (len - !pos) / 64 in
  if blocks > 0 then begin
    compress ctx.h s !pos blocks;
    pos := !pos + (64 * blocks)
  end;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf ctx.buf_len (len - !pos);
    ctx.buf_len <- ctx.buf_len + (len - !pos)
  end

let finalize ctx =
  let n = ctx.buf_len in
  Bytes.set ctx.buf n '\x80';
  Bytes.fill ctx.buf (n + 1) (63 - n) '\000';
  (* The 64-bit length needs the last 8 bytes of a block. *)
  if n >= 56 then begin
    compress_buf ctx;
    Bytes.fill ctx.buf 0 56 '\000'
  end;
  Bytes.set_int64_be ctx.buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx;
  Bytes.to_string ctx.h

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_digest s = Bytes_util.to_hex (digest s)
