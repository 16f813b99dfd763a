(** Hashed ElGamal (DHIES) over QR_p: the key-encapsulation half of the
    hybrid scheme.  The encapsulation is one group element [c1 = g^r];
    the shared secret is [H(p, c1, y^r)], which the key holder recomputes
    as [H(p, c1, c1^x)].  The secret is pseudorandom under CDH (gap-DH
    for chosen-ciphertext use) in QR_p with [H] a random oracle. *)

open Secmed_bigint

type public_key = { group : Group.t; y : Bigint.t }
type private_key = { public : public_key; x : Bigint.t }

val keygen : Prng.t -> Group.t -> private_key
val public : private_key -> public_key

val encapsulate : Prng.t -> public_key -> Bigint.t * string
(** [(c1, secret)]: [c1 = g^r] for a fresh exponent [r], and the 32-byte
    secret [H(p, c1, y^r)], with [y^r] from the key's cached fixed-base
    table. *)

val decapsulate : private_key -> Bigint.t -> string option
(** [H(p, c1, c1^x)] with [c1] taken mod p, or [None] when
    [c1 = 0 (mod p)]: a degenerate encapsulation fails like a forged one
    instead of raising.  No subgroup check: a unit outside QR_p is raised
    to [x] as it is, so an active party that learns whether such a [c1]
    was accepted learns at most [x mod 2]. *)

val fingerprint : public_key -> string
(** Short stable identifier for a public key (hex of a truncated hash);
    used inside credentials. *)
