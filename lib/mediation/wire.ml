open Secmed_bigint
open Secmed_crypto

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun msg -> raise (Malformed msg)) fmt

type writer = Buffer.t

let writer () = Buffer.create 128

let write_int buf v =
  for i = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (i * 8)) land 0xff))
  done

let write_raw = Buffer.add_string

let write_string buf s =
  Buffer.add_string buf (Bytes_util.be32 (String.length s));
  Buffer.add_string buf s

let write_bigint buf v = write_string buf (Bigint.to_bytes_be v)

let write_list buf write_elem items =
  Buffer.add_string buf (Bytes_util.be32 (List.length items));
  List.iter write_elem items

let contents = Buffer.contents

type reader = { data : string; mutable pos : int }

let reader data = { data; pos = 0 }

let remaining r = String.length r.data - r.pos

let need r n =
  if n < 0 then malformed "negative field length %d at offset %d" n r.pos;
  if r.pos + n > String.length r.data then
    malformed "truncated message: need %d bytes at offset %d, %d remain" n r.pos (remaining r)

let read_int r =
  need r 8;
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code r.data.[r.pos + i]
  done;
  r.pos <- r.pos + 8;
  !v

let read_raw r n =
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let read_at r decode =
  match decode r.data r.pos with
  | v, next when next > r.pos && next <= String.length r.data ->
    r.pos <- next;
    v
  | _ -> malformed "decoder made no progress at offset %d" r.pos
  | exception Invalid_argument msg -> malformed "%s at offset %d" msg r.pos

let read_string r =
  need r 4;
  let len = Bytes_util.read_be32 r.data r.pos in
  r.pos <- r.pos + 4;
  read_raw r len

let read_bigint r = Bigint.of_bytes_be (read_string r)

let read_list r read_elem =
  need r 4;
  let count = Bytes_util.read_be32 r.data r.pos in
  r.pos <- r.pos + 4;
  (* A corrupted count must not drive the allocation: every element
     consumes at least one byte of the remaining input, so the count is
     bounded by it. *)
  if count > remaining r then
    malformed "list count %d exceeds the %d remaining bytes" count (remaining r);
  List.init count (fun _ -> read_elem ())

let at_end r = r.pos = String.length r.data

let expect_end r =
  if not (at_end r) then malformed "%d trailing bytes at offset %d" (remaining r) r.pos

let read_rest r read =
  let rec go acc =
    if at_end r then List.rev acc
    else begin
      let before = r.pos in
      let v = read () in
      if r.pos <= before then malformed "element reader made no progress at offset %d" before;
      go (v :: acc)
    end
  in
  go []

(* ------------------------------------------------------------------ *)
(* Stream framing *)

let frame body = Bytes_util.be32 (String.length body) ^ body

module Stream = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* offset of the first unconsumed byte *)
    mutable len : int;    (* unconsumed bytes from [start] *)
    max_frame : int;
    mutable disposed : bool;
  }

  let default_max_frame = 1 lsl 26

  (* Reassembly buffers are the first memory a fast peer can balloon, so
     their capacity is charged to a high-water region: the stream bench
     asserts this stays flat while row counts scale 1000x. *)
  let hwm = Secmed_obs.Hwm.region "wire.stream"

  let create ?(max_frame = default_max_frame) () =
    if max_frame <= 0 then invalid_arg "Wire.Stream.create: max_frame must be positive";
    Secmed_obs.Hwm.alloc hwm 4096;
    { buf = Bytes.create 4096; start = 0; len = 0; max_frame; disposed = false }

  let buffered t = t.len
  let capacity t = Bytes.length t.buf

  let dispose t =
    if not t.disposed then begin
      t.disposed <- true;
      Secmed_obs.Hwm.release hwm (Bytes.length t.buf)
    end

  (* Make room for [extra] more bytes after the unconsumed region,
     compacting to the front and doubling the buffer as needed. *)
  let ensure t extra =
    let need = t.len + extra in
    if t.start > 0 && t.start + need > Bytes.length t.buf then begin
      Bytes.blit t.buf t.start t.buf 0 t.len;
      t.start <- 0
    end;
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit t.buf t.start grown 0 t.len;
      if not t.disposed then Secmed_obs.Hwm.alloc hwm (!cap - Bytes.length t.buf);
      t.buf <- grown;
      t.start <- 0
    end

  let feed_bytes t b ~off ~len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Wire.Stream.feed_bytes";
    ensure t len;
    Bytes.blit b off t.buf (t.start + t.len) len;
    t.len <- t.len + len

  let feed t s =
    let len = String.length s in
    ensure t len;
    Bytes.blit_string s 0 t.buf (t.start + t.len) len;
    t.len <- t.len + len

  (* Zero-copy receive: a transport reads from the socket directly into
     the reassembly buffer instead of through its own scratch buffer.
     [reserve] hands back the write window, [commit] publishes however
     many bytes the read actually produced.  The window is invalidated
     by any other mutation of the stream, so the pattern is strictly
     reserve -> read -> commit with nothing in between. *)
  let reserve t n =
    if n <= 0 then invalid_arg "Wire.Stream.reserve";
    ensure t n;
    (t.buf, t.start + t.len)

  let commit t n =
    if n < 0 || t.start + t.len + n > Bytes.length t.buf then
      invalid_arg "Wire.Stream.commit";
    t.len <- t.len + n

  let next_frame t =
    if t.len < 4 then None
    else begin
      let n = Bytes_util.read_be32 (Bytes.unsafe_to_string t.buf) t.start in
      if n > t.max_frame then
        malformed "stream frame of %d bytes exceeds the %d-byte cap" n t.max_frame;
      if t.len < 4 + n then None
      else begin
        let body = Bytes.sub_string t.buf (t.start + 4) n in
        t.start <- t.start + 4 + n;
        t.len <- t.len - 4 - n;
        if t.len = 0 then t.start <- 0;
        Some body
      end
    end
end
