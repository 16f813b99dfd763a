open Secmed_bigint

type public_key = { group : Group.t; y : Bigint.t }
type private_key = { public : public_key; x : Bigint.t }

let keygen prng group =
  let x = Group.random_exponent prng group in
  let y = Group.element_of_exponent group x in
  { public = { group; y }; x }

let public key = key.public

type ciphertext = { c1 : Bigint.t; c2 : Bigint.t }

let encrypt prng pk m =
  let group = pk.group in
  let r = Group.random_exponent prng group in
  let c1 = Group.element_of_exponent group r in
  (* y is fixed for the lifetime of the key: fixed-base windowing pays
     the table once per key and makes every encryption cheap. *)
  let y_fb =
    Bigint.Fixed_base.cached ~base:pk.y ~modulus:group.p ~bits:(Group.exponent_bits group)
  in
  (* m * y^r with the window multiplications accumulating directly onto
     m in the Montgomery domain. *)
  let c2 = Bigint.Multi_exp.mul_pow_fb y_fb (Bigint.emod m group.p) r in
  { c1; c2 }

(* c1 = 0 (mod p) is the one non-unit: no key maps it to a message. *)
let degenerate group c1 = Bigint.is_zero (Bigint.emod c1 group.Group.p)

let decrypt sk { c1; c2 } =
  let group = sk.public.group in
  let p = group.p in
  if degenerate group c1 then invalid_arg "Elgamal.decrypt: degenerate ciphertext";
  (* m = c2 * (c1^x)^-1.  p is prime, so c1^(p-1) = 1 for every unit and
     the inverse is c1^(p-1-x), inside QR_p = <g> or not: one fused
     multiply-exponentiate whatever c1 is, no residuosity test and no
     extended Euclid.  The context comes from the same domain-local cache
     that mod_pow uses, so the Montgomery setup for p is already paid. *)
  Bigint.Multi_exp.mul_pow (Bigint.cached_ctx p) c2 c1 (Bigint.sub (Bigint.pred p) sk.x)

let secret_of_element group m =
  Sha256.digest ("secmed-kem" ^ Bigint.to_bytes_be group.Group.p ^ Bigint.to_bytes_be m)

let encapsulate prng pk =
  let group = pk.group in
  (* A random QR_p element: g^t for uniform t. *)
  let t = Group.random_exponent prng group in
  let m = Group.element_of_exponent group t in
  (encrypt prng pk m, secret_of_element group m)

let decapsulate sk ct =
  let group = sk.public.group in
  if degenerate group ct.c1 then None else Some (secret_of_element group (decrypt sk ct))

let fingerprint pk =
  let raw =
    Sha256.digest
      (Bigint.to_bytes_be pk.group.Group.p
      ^ "|" ^ Bigint.to_bytes_be pk.group.Group.g
      ^ "|" ^ Bigint.to_bytes_be pk.y)
  in
  Bytes_util.to_hex (String.sub raw 0 8)
