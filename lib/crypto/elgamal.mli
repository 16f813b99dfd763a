(** ElGamal over QR_p, used as the key-encapsulation half of the hybrid
    scheme.  Semantic security follows from DDH in QR_p. *)

open Secmed_bigint

type public_key = { group : Group.t; y : Bigint.t }
type private_key = { public : public_key; x : Bigint.t }

val keygen : Prng.t -> Group.t -> private_key
val public : private_key -> public_key

type ciphertext = { c1 : Bigint.t; c2 : Bigint.t }

val encrypt : Prng.t -> public_key -> Bigint.t -> ciphertext
(** Encrypts a group element (caller must supply an element of QR_p). *)

val decrypt : private_key -> ciphertext -> Bigint.t
(** [c2 * (c1^x)^-1 mod p] for any [c1] that is a unit mod p, in the
    subgroup or not.  Raises [Invalid_argument] when [c1 = 0 (mod p)]. *)

val encapsulate : Prng.t -> public_key -> ciphertext * string
(** Picks a random group element, encrypts it, and returns the ciphertext
    together with a 32-byte shared secret derived from the element. *)

val decapsulate : private_key -> ciphertext -> string option
(** The shared secret, or [None] when [c1 = 0 (mod p)]: a degenerate
    ciphertext fails like a forged one instead of raising. *)

val fingerprint : public_key -> string
(** Short stable identifier for a public key (hex of a truncated hash);
    used inside credentials. *)
