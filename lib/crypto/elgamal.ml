open Secmed_bigint

type public_key = { group : Group.t; y : Bigint.t }
type private_key = { public : public_key; x : Bigint.t }

let keygen prng group =
  let x = Group.random_exponent prng group in
  let y = Group.element_of_exponent group x in
  { public = { group; y }; x }

let public key = key.public

(* H(p, c1, z) over fixed-width encodings, so the hashed string is
   unambiguous; c1 is taken mod p on both sides. *)
let secret group c1 z =
  let width = (group.Group.bits + 7) / 8 in
  Sha256.digest
    ("secmed-kem" ^ Bigint.to_bytes_be group.Group.p
    ^ Bigint.to_bytes_be_padded width c1
    ^ Bigint.to_bytes_be_padded width z)

let encapsulate prng pk =
  let group = pk.group in
  let r = Group.random_exponent prng group in
  let c1 = Group.element_of_exponent group r in
  (* y is fixed for the lifetime of the key: fixed-base windowing pays
     the table once per key and makes every y^r cheap. *)
  let y_fb =
    Bigint.Fixed_base.cached ~base:pk.y ~modulus:group.p ~bits:(Group.exponent_bits group)
  in
  (c1, secret group c1 (Bigint.Fixed_base.pow y_fb r))

let decapsulate sk c1 =
  let group = sk.public.group in
  let p = group.Group.p in
  let c1 = Bigint.emod c1 p in
  (* c1 = 0 (mod p) is the one non-unit; any unit, in QR_p or not, is
     raised to x as it is, with no subgroup test. *)
  if Bigint.is_zero c1 then None else Some (secret group c1 (Bigint.mod_pow c1 sk.x p))

let fingerprint pk =
  let raw =
    Sha256.digest
      (Bigint.to_bytes_be pk.group.Group.p
      ^ "|" ^ Bigint.to_bytes_be pk.group.Group.g
      ^ "|" ^ Bigint.to_bytes_be pk.y)
  in
  Bytes_util.to_hex (String.sub raw 0 8)
