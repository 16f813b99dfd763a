open Secmed_bigint

type ciphertext = {
  kem : Elgamal.ciphertext;
  nonce : string; (* 12 bytes *)
  body : string;
  tag : string; (* 32 bytes *)
  key_bytes : int; (* byte width of the group modulus, for wire encoding *)
}

let derive_keys secret =
  let enc_key = String.sub (Sha256.digest ("enc" ^ secret)) 0 16 in
  let mac_key = Sha256.digest ("mac" ^ secret) in
  (enc_key, mac_key)

let encrypt prng pk plaintext =
  Counters.bump Counters.Hybrid_encrypt;
  let kem, secret = Elgamal.encapsulate prng pk in
  let enc_key, mac_key = derive_keys secret in
  let nonce = Prng.bytes prng 12 in
  let body = Aes.ctr_transform ~key:enc_key ~nonce plaintext in
  let tag = Hmac.sha256 ~key:mac_key (nonce ^ body) in
  let key_bytes = (pk.Elgamal.group.Group.bits + 7) / 8 in
  { kem; nonce; body; tag; key_bytes }

let decrypt sk ct =
  Counters.bump Counters.Hybrid_decrypt;
  match Elgamal.decapsulate sk ct.kem with
  | None -> None
  | Some secret ->
    let enc_key, mac_key = derive_keys secret in
    if Hmac.verify ~key:mac_key (ct.nonce ^ ct.body) ~tag:ct.tag then
      Some (Aes.ctr_transform ~key:enc_key ~nonce:ct.nonce ct.body)
    else None

(* Exact wire size: key-width header, two group elements, nonce, tag,
   body-length header, body. *)
let size ct = 4 + (2 * ct.key_bytes) + 12 + 32 + 4 + String.length ct.body

let to_wire ct =
  let c1 = Bigint.to_bytes_be_padded ct.key_bytes ct.kem.Elgamal.c1 in
  let c2 = Bigint.to_bytes_be_padded ct.key_bytes ct.kem.Elgamal.c2 in
  Bytes_util.be32 ct.key_bytes ^ c1 ^ c2 ^ ct.nonce ^ ct.tag
  ^ Bytes_util.be32 (String.length ct.body)
  ^ ct.body

let of_wire_at s off =
  let fail () = invalid_arg "Hybrid.of_wire: malformed ciphertext" in
  let avail = String.length s - off in
  if off < 0 || avail < 4 then fail ();
  let key_bytes = Bytes_util.read_be32 s off in
  let header = 4 + (2 * key_bytes) + 12 + 32 + 4 in
  if key_bytes <= 0 || avail < header then fail ();
  let c1 = Bigint.of_bytes_be (String.sub s (off + 4) key_bytes) in
  let c2 = Bigint.of_bytes_be (String.sub s (off + 4 + key_bytes) key_bytes) in
  let nonce = String.sub s (off + 4 + (2 * key_bytes)) 12 in
  let tag = String.sub s (off + 4 + (2 * key_bytes) + 12) 32 in
  let body_len = Bytes_util.read_be32 s (off + header - 4) in
  if avail - header < body_len then fail ();
  let body = String.sub s (off + header) body_len in
  ({ kem = { Elgamal.c1; c2 }; nonce; body; tag; key_bytes }, off + header + body_len)

let of_wire s =
  match of_wire_at s 0 with
  | ct, next when next = String.length s -> ct
  | _ -> invalid_arg "Hybrid.of_wire: malformed ciphertext"

let random_session_key prng = Prng.bytes prng 16

let dem_encrypt prng ~key plaintext =
  let nonce = Prng.bytes prng 12 in
  let body = Aes.ctr_transform ~key ~nonce plaintext in
  let mac_key = Sha256.digest ("dem-mac" ^ key) in
  let tag = Hmac.sha256 ~key:mac_key (nonce ^ body) in
  nonce ^ tag ^ body

let dem_decrypt ~key blob =
  if String.length blob < 44 then None
  else begin
    let nonce = String.sub blob 0 12 in
    let tag = String.sub blob 12 32 in
    let body = String.sub blob 44 (String.length blob - 44) in
    let mac_key = Sha256.digest ("dem-mac" ^ key) in
    if Hmac.verify ~key:mac_key (nonce ^ body) ~tag then
      Some (Aes.ctr_transform ~key ~nonce body)
    else None
  end
