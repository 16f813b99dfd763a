open Secmed_bigint

type ciphertext = {
  c1 : Bigint.t;
  sealed : string; (* tag (32 bytes) ‖ body *)
  key_bytes : int; (* byte width of the group modulus, for wire encoding *)
}

(* Every key this DEM sees encrypts exactly one message, so the CTR
   nonce can be a constant. *)
let zero_nonce = String.make 12 '\000'

let derive_keys secret =
  let enc_key = String.sub (Sha256.digest ("enc" ^ secret)) 0 16 in
  let mac_key = Sha256.digest ("mac" ^ secret) in
  (enc_key, mac_key)

let seal ~key plaintext =
  let enc_key, mac_key = derive_keys key in
  let body = Aes.ctr_transform ~key:enc_key ~nonce:zero_nonce plaintext in
  Hmac.sha256 ~key:mac_key body ^ body

let unseal ~key blob =
  if String.length blob < 32 then None
  else begin
    let enc_key, mac_key = derive_keys key in
    let body = String.sub blob 32 (String.length blob - 32) in
    if Hmac.verify ~key:mac_key body ~tag:(String.sub blob 0 32) then
      Some (Aes.ctr_transform ~key:enc_key ~nonce:zero_nonce body)
    else None
  end

let random_session_key prng = Prng.bytes prng 16

let encrypt prng pk plaintext =
  Counters.bump Counters.Hybrid_encrypt;
  let c1, secret = Elgamal.encapsulate prng pk in
  let key_bytes = (pk.Elgamal.group.Group.bits + 7) / 8 in
  { c1; sealed = seal ~key:secret plaintext; key_bytes }

let decrypt sk ct =
  Counters.bump Counters.Hybrid_decrypt;
  Option.bind (Elgamal.decapsulate sk ct.c1) (fun key -> unseal ~key ct.sealed)

(* Exact wire size: key-width header, c1, sealed-length header, tag and
   body. *)
let size ct = 4 + ct.key_bytes + 4 + String.length ct.sealed

let to_wire ct =
  Bytes_util.be32 ct.key_bytes
  ^ Bigint.to_bytes_be_padded ct.key_bytes ct.c1
  ^ Bytes_util.be32 (String.length ct.sealed)
  ^ ct.sealed

let of_wire_at s off =
  let fail () = invalid_arg "Hybrid.of_wire: malformed ciphertext" in
  let avail = String.length s - off in
  if off < 0 || avail < 4 then fail ();
  let key_bytes = Bytes_util.read_be32 s off in
  let header = 4 + key_bytes + 4 in
  if key_bytes <= 0 || avail < header then fail ();
  let c1 = Bigint.of_bytes_be (String.sub s (off + 4) key_bytes) in
  let sealed_len = Bytes_util.read_be32 s (off + header - 4) in
  if sealed_len < 32 || avail - header < sealed_len then fail ();
  ({ c1; sealed = String.sub s (off + header) sealed_len; key_bytes }, off + header + sealed_len)

let of_wire s =
  match of_wire_at s 0 with
  | ct, next when next = String.length s -> ct
  | _ -> invalid_arg "Hybrid.of_wire: malformed ciphertext"
