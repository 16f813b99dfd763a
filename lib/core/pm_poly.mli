(** Polynomials over Z_n for the private-matching protocol (Freedman,
    Nissim, Pinkas; paper Section 5).

    A datasource builds P(x) = (a_1 - x)(a_2 - x)...(a_d - x) whose roots
    are its input values, and the opposite side evaluates the encryption of
    P at its own values using only the encrypted coefficients: it builds
    the coefficients' {!tables} once, then makes one masked evaluation
    ({!eval_masked}) per value.  Horner's rule survives only as the
    plaintext reference {!eval}. *)

open Secmed_bigint
open Secmed_crypto

type t
(** Coefficients c_0..c_d, least-significant first, all reduced mod n. *)

val of_coefficients : modulus:Bigint.t -> Bigint.t list -> t
(** Raises [Invalid_argument] on an empty list. *)

val from_roots : modulus:Bigint.t -> Bigint.t list -> t
(** P(x) = Π (a_i - x) mod n; for no roots, the constant polynomial 1. *)

val coefficients : t -> Bigint.t list
val degree : t -> int

val eval : t -> Bigint.t -> Bigint.t
(** Horner evaluation mod n (plaintext reference). *)

val encrypt :
  ?label:string -> Prng.t -> Paillier.public_key -> t -> Paillier.ciphertext list
(** E(c_0)..E(c_d): what the source transmits.  Coefficient encryptions
    run through the {!Batch} executor on independent per-coefficient
    PRNG streams split from the parent seed under [label] (default
    ["pm-coeff"]) — bit-identical however the executor's threads
    interleave; callers encrypting several polynomials must vary the
    parent PRNG or [label]. *)

type tables
(** The odd-power tables of one received polynomial's encrypted
    coefficients ({!Bigint.Multi_exp.table}), built once and shared by
    every value the receiving source evaluates it at; read-only, so
    {!Batch} threads share them. *)

val tables : Paillier.public_key -> Paillier.ciphertext list -> uses:int -> tables
(** The tables of E(c_0)..E(c_d), sized for [uses] evaluations and built
    through {!Batch}, one item per coefficient.  Raises
    [Invalid_argument] on an empty coefficient list. *)

val eval_masked :
  Prng.t -> tables -> Bigint.t -> payload:Bigint.t -> Paillier.ciphertext
(** [eval_masked prng t a ~payload] is E(r·P(a) + payload) for a fresh
    uniform r in [\[1, n)], drawn from [prng] before the encryption's
    randomness s: Equation (1) of the paper with the payload in place of
    a0l, as one multi-exponentiation
    Π E(c_i)^(r·a^i mod n) · s^n · (1 + payload·n).  It decrypts to
    exactly what Horner's E(P(a)) masked with the same r and s does;
    only the n-th-residue part of the ciphertext differs.  Raises
    [Invalid_argument] unless [0 <= payload < n]. *)
