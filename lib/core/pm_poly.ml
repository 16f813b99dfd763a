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
     parent seed, position-free), so the encryptions parallelize with
     bit-identical output at any domain count.  Callers encrypting more
     than one polynomial must use distinct parent PRNGs or labels. *)
  Batch.map_seeded_list ~prng ~label
    (fun _ prng c -> Paillier.encrypt prng pk c)
    (coefficients p)

let eval_encrypted pk encrypted_coeffs x =
  match List.rev encrypted_coeffs with
  | [] -> invalid_arg "Pm_poly.eval_encrypted: empty coefficient list"
  | highest :: rest ->
    (* Horner entirely in the domain of n^2's context: one conversion in
       per coefficient and one conversion out at the end, instead of a
       domain round-trip per scalar_mul/add.  The counter bumps mirror
       the homomorphic operations Horner's rule performs (one scalar
       multiplication and one addition per step), keeping Table 2
       reproductions identical. *)
    let ctx = pk.Paillier.n2_ctx in
    let x = Bigint.emod x pk.Paillier.n in
    let acc = ref (Bigint.Ctx.to_mont ctx (Paillier.ciphertext_to_bigint highest)) in
    List.iter
      (fun c ->
        Counters.bump Counters.Homomorphic_scalar;
        Counters.bump Counters.Homomorphic_add;
        let c_m = Bigint.Ctx.to_mont ctx (Paillier.ciphertext_to_bigint c) in
        acc := Bigint.Ctx.mont_mul ctx (Bigint.Ctx.mont_pow ctx !acc x) c_m)
      rest;
    Paillier.ciphertext_of_bigint pk (Bigint.Ctx.of_mont ctx !acc)

let eval_encrypted_naive prng pk encrypted_coeffs x =
  let zero = Paillier.encrypt prng pk Bigint.zero in
  let acc, _ =
    List.fold_left
      (fun (acc, x_pow) c ->
        let term = Paillier.scalar_mul pk x_pow c in
        (Paillier.add pk acc term, Bigint.emod (Bigint.mul x_pow x) pk.Paillier.n))
      (zero, Bigint.one) encrypted_coeffs
  in
  acc

let mask_and_add prng pk evaluated ~payload =
  Counters.bump Counters.Random_number;
  let n = pk.Paillier.n in
  let r = Bigint.succ (Bigint.random_below (Prng.byte_source prng) (Bigint.pred n)) in
  (* E(eval)^r * E(payload; s) = eval^r * s^n * (1 + payload*n): the two
     variable-base exponentiations (same n^2 modulus, same-width
     exponents) share one squaring chain via Shamir's trick, and the
     binomial factor folds in with a single in-domain multiplication.
     The counter bumps mirror the homomorphic encryption, scalar
     multiplication and addition this computes, keeping Table 2
     reproductions identical. *)
  let ctx = pk.Paillier.n2_ctx in
  Counters.bump Counters.Homomorphic_encrypt;
  let s = Paillier.random_unit prng pk in
  Counters.bump Counters.Homomorphic_scalar;
  Counters.bump Counters.Homomorphic_add;
  if Bigint.sign payload < 0 || Bigint.compare payload n >= 0 then
    invalid_arg "Pm_poly.mask_and_add: payload out of range";
  let g_m = Bigint.emod (Bigint.succ (Bigint.mul payload n)) pk.Paillier.n_squared in
  let eval_m = Bigint.Ctx.to_mont ctx (Paillier.ciphertext_to_bigint evaluated) in
  let pair_m = Bigint.Multi_exp.mont_pow2 ctx eval_m r (Bigint.Ctx.to_mont ctx s) n in
  let masked = Bigint.Ctx.mont_mul ctx pair_m (Bigint.Ctx.to_mont ctx g_m) in
  Paillier.ciphertext_of_bigint pk (Bigint.Ctx.of_mont ctx masked)
