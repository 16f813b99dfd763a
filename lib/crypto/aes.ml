(* AES-128.  GF(2^8) arithmetic modulo x^8+x^4+x^3+x+1 (0x11b); the S-box
   is computed from field inverses and the FIPS affine transform, and the
   round tables from the S-boxes and the MixColumns coefficients. *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2

(* Bit-serial field multiply: used only to build the tables below. *)
let gf_mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then acc := !acc lxor !a;
    a := xtime !a;
    b := !b lsr 1
  done;
  !acc

(* Discrete log tables over the generator 3. *)
let alog = Array.make 256 0
let log_ = Array.make 256 0

let () =
  let v = ref 1 in
  for i = 0 to 254 do
    alog.(i) <- !v;
    log_.(!v) <- i;
    v := gf_mul !v 3
  done;
  alog.(255) <- 1

let gf_inv b = if b = 0 then 0 else alog.((255 - log_.(b)) mod 255)

let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff

let sbox =
  Array.init 256 (fun b ->
      let s = gf_inv b in
      s lxor rotl8 s 1 lxor rotl8 s 2 lxor rotl8 s 3 lxor rotl8 s 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i s -> t.(s) <- i) sbox;
  t

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

(* A state column is one 32-bit word, row 0 in the top byte; a block is
   four column words in order. *)
let word b0 b1 b2 b3 = (b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3
let load s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff
let ror8 w = (w lsr 8) lor ((w land 0xff) lsl 24)

(* Round tables (T-tables): t0.(x) is the matrix column [c0; c1; c2; c3]
   times box.(x), and t1..t3 rotate it one row down each.  One round of
   SubBytes, ShiftRows and MixColumns is then four lookups per column. *)
let tables box (c0, c1, c2, c3) =
  let t0 =
    Array.init 256 (fun x ->
        let s = box.(x) in
        word (gf_mul c0 s) (gf_mul c1 s) (gf_mul c2 s) (gf_mul c3 s))
  in
  let t1 = Array.map ror8 t0 in
  let t2 = Array.map ror8 t1 in
  (t0, t1, t2, Array.map ror8 t2)

let te0, te1, te2, te3 = tables sbox (2, 1, 1, 3)
let td0, td1, td2, td3 = tables inv_sbox (14, 9, 13, 11)

(* Encryption round keys as 44 words (round r is words 4r..4r+3), and the
   decryption keys of the equivalent inverse cipher (FIPS 197 5.3.5):
   the same words in reverse round order, InvMixColumns applied to rounds
   1..9. *)
type key = { enc : int array; dec : int array }

let encryption_schedule key_bytes =
  if String.length key_bytes <> 16 then invalid_arg "Aes.expand_key: need 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- load key_bytes (4 * i)
  done;
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        (* SubWord (RotWord prev) xor Rcon *)
        word
          (sbox.((prev lsr 16) land 0xff) lxor rcon.((i / 4) - 1))
          sbox.((prev lsr 8) land 0xff) sbox.(prev land 0xff) sbox.(prev lsr 24)
      else prev
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

(* The td tables apply the inverse S-box before InvMixColumns, so feeding
   them S(x) applies InvMixColumns to x alone. *)
let inv_mix_column w =
  td0.(sbox.(w lsr 24))
  lxor td1.(sbox.((w lsr 16) land 0xff))
  lxor td2.(sbox.((w lsr 8) land 0xff))
  lxor td3.(sbox.(w land 0xff))

let expand_key key_bytes =
  let enc = encryption_schedule key_bytes in
  let dec =
    Array.init 44 (fun i ->
        let r = i / 4 in
        let w = enc.((4 * (10 - r)) + (i mod 4)) in
        if r = 0 || r = 10 then w else inv_mix_column w)
  in
  { enc; dec }

(* One output column of a full round: row r reads input word wr. *)
let[@inline] column t0 t1 t2 t3 w0 w1 w2 w3 k =
  t0.(w0 lsr 24)
  lxor t1.((w1 lsr 16) land 0xff)
  lxor t2.((w2 lsr 8) land 0xff)
  lxor t3.(w3 land 0xff)
  lxor k

(* The same for the last round, which has no (Inv)MixColumns. *)
let[@inline] last_column box w0 w1 w2 w3 k =
  word box.(w0 lsr 24) box.((w1 lsr 16) land 0xff) box.((w2 lsr 8) land 0xff) box.(w3 land 0xff)
  lxor k

let store dst w0 w1 w2 w3 =
  Bytes.set_int32_be dst 0 (Int32.of_int w0);
  Bytes.set_int32_be dst 4 (Int32.of_int w1);
  Bytes.set_int32_be dst 8 (Int32.of_int w2);
  Bytes.set_int32_be dst 12 (Int32.of_int w3)

(* Encrypts the block whose columns are s0..s3 into the first 16 bytes of
   [dst].  ShiftRows makes row r of output column c read column c + r. *)
let encrypt_into rk s0 s1 s2 s3 dst =
  let s0 = ref (s0 lxor rk.(0)) and s1 = ref (s1 lxor rk.(1)) in
  let s2 = ref (s2 lxor rk.(2)) and s3 = ref (s3 lxor rk.(3)) in
  for r = 1 to 9 do
    let k = 4 * r and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := column te0 te1 te2 te3 a0 a1 a2 a3 rk.(k);
    s1 := column te0 te1 te2 te3 a1 a2 a3 a0 rk.(k + 1);
    s2 := column te0 te1 te2 te3 a2 a3 a0 a1 rk.(k + 2);
    s3 := column te0 te1 te2 te3 a3 a0 a1 a2 rk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  store dst
    (last_column sbox a0 a1 a2 a3 rk.(40))
    (last_column sbox a1 a2 a3 a0 rk.(41))
    (last_column sbox a2 a3 a0 a1 rk.(42))
    (last_column sbox a3 a0 a1 a2 rk.(43))

(* InvShiftRows makes row r of output column c read column c - r. *)
let decrypt_into dk s0 s1 s2 s3 dst =
  let s0 = ref (s0 lxor dk.(0)) and s1 = ref (s1 lxor dk.(1)) in
  let s2 = ref (s2 lxor dk.(2)) and s3 = ref (s3 lxor dk.(3)) in
  for r = 1 to 9 do
    let k = 4 * r and a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    s0 := column td0 td1 td2 td3 a0 a3 a2 a1 dk.(k);
    s1 := column td0 td1 td2 td3 a1 a0 a3 a2 dk.(k + 1);
    s2 := column td0 td1 td2 td3 a2 a1 a0 a3 dk.(k + 2);
    s3 := column td0 td1 td2 td3 a3 a2 a1 a0 dk.(k + 3)
  done;
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
  store dst
    (last_column inv_sbox a0 a3 a2 a1 dk.(40))
    (last_column inv_sbox a1 a0 a3 a2 dk.(41))
    (last_column inv_sbox a2 a1 a0 a3 dk.(42))
    (last_column inv_sbox a3 a2 a1 a0 dk.(43))

let block_op name f rk block =
  if String.length block <> 16 then invalid_arg ("Aes." ^ name ^ ": need 16 bytes");
  let out = Bytes.create 16 in
  f rk (load block 0) (load block 4) (load block 8) (load block 12) out;
  Bytes.to_string out

let encrypt_block key block = block_op "encrypt_block" encrypt_into key.enc block
let decrypt_block key block = block_op "decrypt_block" decrypt_into key.dec block

let ctr_transform ~key ~nonce msg =
  if String.length nonce <> 12 then invalid_arg "Aes.ctr_transform: need 12 nonce bytes";
  let rk = encryption_schedule key in
  let n0 = load nonce 0 and n1 = load nonce 4 and n2 = load nonce 8 in
  let len = String.length msg in
  let out = Bytes.create len and keystream = Bytes.create 16 in
  for b = 0 to ((len + 15) / 16) - 1 do
    encrypt_into rk n0 n1 n2 (b land 0xffffffff) keystream;
    let off = 16 * b in
    for i = 0 to Stdlib.min 16 (len - off) - 1 do
      Bytes.set out (off + i)
        (Char.chr (Char.code msg.[off + i] lxor Char.code (Bytes.get keystream i)))
    done
  done;
  Bytes.to_string out
