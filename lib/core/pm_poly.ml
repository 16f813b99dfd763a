open Secmed_bigint
open Secmed_crypto

type t = { modulus : Bigint.t; coeffs : Bigint.t array }
(* coeffs.(k) is c_k; invariant: length >= 1, all in [0, modulus). *)

let of_coefficients ~modulus coeffs =
  if coeffs = [] then invalid_arg "Pm_poly.of_coefficients: empty";
  { modulus; coeffs = Array.of_list (List.map (fun c -> Bigint.emod c modulus) coeffs) }

let from_roots ~modulus roots =
  (* Multiply (a - x) factors incrementally: if P has coefficients c, then
     (a - x) * P has coefficients a*c_k - c_{k-1}. *)
  let multiply_by_factor coeffs a =
    let d = Array.length coeffs in
    Array.init (d + 1) (fun k ->
        let scaled = if k < d then Bigint.mul a coeffs.(k) else Bigint.zero in
        let shifted = if k > 0 then coeffs.(k - 1) else Bigint.zero in
        Bigint.emod (Bigint.sub scaled shifted) modulus)
  in
  let coeffs = List.fold_left multiply_by_factor [| Bigint.one |] roots in
  { modulus; coeffs }

let coefficients p = Array.to_list p.coeffs
let degree p = Array.length p.coeffs - 1

let eval p x =
  let x = Bigint.emod x p.modulus in
  Array.fold_right
    (fun c acc -> Bigint.emod (Bigint.add (Bigint.mul acc x) c) p.modulus)
    p.coeffs Bigint.zero

let encrypt ?(label = "pm-coeff") prng pk p =
  (* One independent randomness stream per coefficient (split from the
     parent seed, position-free), so the encryptions run in parallel with
     output that does not depend on the interleaving.  Callers encrypting
     more than one polynomial must use distinct parent PRNGs or labels. *)
  Batch.map_seeded_list ~prng ~label
    (fun _ prng c -> Paillier.encrypt prng pk c)
    (coefficients p)

(* The opposite source's side of Listing 4, steps 5 and 6, per value a:
   E(r·P(a) + payload) = Π E(c_i)^(r·a^i mod n) · s^n · (1 + payload·n).
   The product over the coefficients decrypts to r·P(a) and differs from
   Horner's E(P(a))^r only by an n-th power, which the fresh s^n
   absorbs, so the e-value keeps its distribution.  Every value reuses
   the coefficients' odd-power tables, built once per polynomial, one
   Batch item per coefficient. *)
type tables = { pk : Paillier.public_key; coeff_tables : Bigint.Multi_exp.table array }

let tables pk encrypted_coeffs ~uses =
  if encrypted_coeffs = [] then invalid_arg "Pm_poly.tables: empty coefficient list";
  let ctx = pk.Paillier.n2_ctx and bits = Bigint.numbits pk.Paillier.n in
  let table c =
    Bigint.Multi_exp.table ctx
      (Bigint.Ctx.to_mont ctx (Paillier.ciphertext_to_bigint c))
      ~uses ~bits
  in
  { pk; coeff_tables = Batch.parallel_map table (Array.of_list encrypted_coeffs) }

let eval_masked prng t x ~payload =
  let pk = t.pk in
  let n = pk.Paillier.n and ctx = pk.Paillier.n2_ctx in
  let degree = Array.length t.coeff_tables - 1 in
  (* The counter bumps mirror the homomorphic operations this computes:
     Horner's scalar multiplication and addition per coefficient past the
     first, then the mask's random number, encryption, scalar
     multiplication and addition, keeping Table 2 reproductions
     identical. *)
  for _ = 1 to degree do
    Counters.bump Counters.Homomorphic_scalar;
    Counters.bump Counters.Homomorphic_add
  done;
  Counters.bump Counters.Random_number;
  let r = Bigint.succ (Bigint.random_below (Prng.byte_source prng) (Bigint.pred n)) in
  Counters.bump Counters.Homomorphic_encrypt;
  let s = Paillier.random_unit prng pk in
  Counters.bump Counters.Homomorphic_scalar;
  Counters.bump Counters.Homomorphic_add;
  if Bigint.sign payload < 0 || Bigint.compare payload n >= 0 then
    invalid_arg "Pm_poly.eval_masked: payload out of range";
  let x = Bigint.emod x n in
  let exps = Array.make (degree + 3) r in
  for i = 1 to degree do
    exps.(i) <- Bigint.emod (Bigint.mul exps.(i - 1) x) n
  done;
  exps.(degree + 1) <- n;
  exps.(degree + 2) <- Bigint.one;
  let once b bits = Bigint.Multi_exp.table ctx (Bigint.Ctx.to_mont ctx b) ~uses:1 ~bits in
  let g = Bigint.emod (Bigint.succ (Bigint.mul payload n)) pk.Paillier.n_squared in
  let masked =
    Bigint.Multi_exp.pow ctx
      (Array.append t.coeff_tables [| once s (Bigint.numbits n); once g 1 |])
      exps
  in
  Paillier.ciphertext_of_bigint pk (Bigint.Ctx.of_mont ctx masked)
