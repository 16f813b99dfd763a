(** The Paillier cryptosystem (EUROCRYPT '99), the additively homomorphic
    scheme the paper cites for the private-matching protocol.

    Plaintext space Z_n, ciphertext space Z_{n^2}^*.  With the standard
    choice g = n + 1, encryption is E(m; r) = (1 + m·n) · r^n mod n^2.
    Homomorphic properties: E(a)·E(b) = E(a+b) and E(a)^k = E(k·a). *)

open Secmed_bigint

type public_key = private {
  n : Bigint.t;
  n_squared : Bigint.t;
  bits : int; (** bit size of n *)
  n2_ctx : Bigint.Ctx.ctx;
  (** Montgomery context for n^2, built once at key (re)construction;
      every homomorphic operation under this key reuses it. *)
}

type private_key

val keygen : Prng.t -> bits:int -> private_key
(** [bits] is the size of the modulus n = p·q (two [bits/2]-bit primes). *)

val public : private_key -> public_key
val public_of_n : Bigint.t -> public_key
(** Rebuild a public key from a transmitted modulus. *)

type ciphertext = private Bigint.t

val random_unit : Prng.t -> public_key -> Bigint.t
(** A uniform unit of Z_n^* in [\[1, n)] — the blinding factor shape used
    by {!encrypt}; exposed so callers fusing encryption into a larger
    multi-exponentiation (see [Pm_poly.eval_masked]) draw the identical
    randomness. *)

val encrypt : Prng.t -> public_key -> Bigint.t -> ciphertext
(** Plaintext must lie in [\[0, n)].  Computes (1 + m·n) · r^n mod n^2
    with the multiply fused into the exponentiation's Montgomery domain
    ({!Bigint.Multi_exp.mul_pow}). *)

val decrypt : private_key -> ciphertext -> Bigint.t
(** CRT-accelerated when the key carries its factorization (always true
    for {!keygen} keys): two half-width exponentiations mod p^2 and q^2
    with exponents p-1 and q-1, recombined by Garner's formula — ~4x
    faster than the full-width path.  Falls back to {!decrypt_plain}
    otherwise.  Both paths return identical values on every ciphertext
    in [\[0, n^2)] (differentially tested). *)

val decrypt_plain : private_key -> ciphertext -> Bigint.t
(** The textbook full-width path, L(c^lambda mod n^2)·mu mod n — kept as
    the reference implementation for differential tests and the
    decryption benchmark baseline. *)

val add : public_key -> ciphertext -> ciphertext -> ciphertext
(** E(a) ⊞ E(b) = E(a + b mod n). *)

val scalar_mul : public_key -> Bigint.t -> ciphertext -> ciphertext
(** k ⊠ E(a) = E(k·a mod n). *)

val rerandomize : Prng.t -> public_key -> ciphertext -> ciphertext
(** Multiplies by a fresh encryption of zero. *)

val ciphertext_to_bigint : ciphertext -> Bigint.t
val ciphertext_of_bigint : public_key -> Bigint.t -> ciphertext
(** Raises [Invalid_argument] when outside [\[0, n^2)]. *)

val max_plaintext_bytes : public_key -> int
(** Largest byte-string length that can be packed into one plaintext. *)

val encode_bytes : public_key -> string -> Bigint.t
(** Length-prefixed injection of a byte string into Z_n; raises
    [Invalid_argument] when it does not fit. *)

val decode_bytes : public_key -> Bigint.t -> string option
(** Inverse of {!encode_bytes}; [None] when the plaintext is not a valid
    encoding (e.g. it is the random value of a non-matching PM entry). *)
