open Secmed_bigint

type key = { group : Group.t; e : Bigint.t; d : Bigint.t; p_ctx : Bigint.Ctx.ctx }

let keygen prng group =
  let e = Group.random_exponent prng group in
  (* q is prime and 1 <= e < q, so e^(q-2) is e's inverse mod q
     (Fermat): one exponentiation on the kernel, no extended Euclid. *)
  let q = group.Group.q in
  let d = Bigint.mod_pow e (Bigint.sub q Bigint.two) q in
  { group; e; d; p_ctx = Bigint.Ctx.create group.Group.p }

let key_exponent key = key.e

let apply key x =
  Counters.bump Counters.Commutative_encrypt;
  Bigint.Ctx.mod_pow key.p_ctx x key.e

let unapply key y =
  Counters.bump Counters.Commutative_decrypt;
  Bigint.Ctx.mod_pow key.p_ctx y key.d

let group key = key.group
