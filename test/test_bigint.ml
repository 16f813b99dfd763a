(* Unit and property tests for the arbitrary-precision integer substrate. *)

open Secmed_bigint

let b = Bigint.of_string
let i = Bigint.of_int

let check_big msg expected actual =
  Alcotest.check Alcotest.string msg expected (Bigint.to_string actual)

(* ------------------------------------------------------------------ *)
(* Unit tests. *)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (Bigint.to_int (i n)))
    [ 0; 1; -1; 42; -42; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 40 ]

let test_of_string_decimal () =
  check_big "plain" "123456789" (b "123456789");
  check_big "negative" "-987" (b "-987");
  check_big "plus sign" "55" (b "+55");
  check_big "underscores" "1000000" (b "1_000_000");
  check_big "leading zeros" "7" (b "0007");
  check_big "zero" "0" (b "-0")

let test_of_string_hex () =
  check_big "hex" "255" (b "0xff");
  check_big "hex upper" "48879" (b "0XBEEF");
  check_big "hex negative" "-16" (b "-0x10");
  Alcotest.(check string) "hex render" "0xdeadbeef" (Bigint.to_hex (b "0xdeadbeef"))

let test_of_string_errors () =
  List.iter
    (fun s ->
      match Bigint.of_string_opt s with
      | None -> ()
      | Some v -> Alcotest.failf "%S should not parse (got %s)" s (Bigint.to_string v))
    [ ""; "-"; "abc"; "12x"; "0x"; "--5"; " 42"; "4 2" ]

let test_known_product () =
  check_big "big product"
    "121932631137021795226185032733744855963362292333223746380111126352690"
    (Bigint.mul
       (b "123456789012345678901234567890")
       (b "987654321098765432109876543210987654321"))

let test_known_quotient () =
  let q, r = Bigint.divmod (b "10000000000000000000000000000000000000001") (b "333333333333333") in
  check_big "quotient" "30000000000000030000000000" q;
  check_big "remainder" "10000000001" r

let test_factorial () =
  let rec fact acc n = if n = 0 then acc else fact (Bigint.mul_int acc n) (n - 1) in
  check_big "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (fact Bigint.one 50)

let test_pow () =
  check_big "2^200" "1606938044258990275541962092341162602522202993782792835301376"
    (Bigint.pow Bigint.two 200);
  check_big "x^0" "1" (Bigint.pow (b "123456") 0);
  check_big "(-3)^3" "-27" (Bigint.pow (i (-3)) 3);
  Alcotest.check_raises "negative exponent" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (Bigint.pow Bigint.two (-1)))

let test_truncated_division_signs () =
  let cases =
    [ (7, 2, 3, 1); (-7, 2, -3, -1); (7, -2, -3, 1); (-7, -2, 3, -1); (6, 3, 2, 0) ]
  in
  List.iter
    (fun (x, y, q, r) ->
      let q', r' = Bigint.divmod (i x) (i y) in
      Alcotest.(check int) (Printf.sprintf "%d/%d q" x y) q (Bigint.to_int q');
      Alcotest.(check int) (Printf.sprintf "%d mod %d" x y) r (Bigint.to_int r'))
    cases

let test_euclidean_division () =
  Alcotest.(check int) "emod pos" 1 (Bigint.to_int (Bigint.emod (i (-7)) (i 2)));
  Alcotest.(check int) "emod neg divisor" 1 (Bigint.to_int (Bigint.emod (i (-7)) (i (-2))));
  Alcotest.(check int) "ediv" (-4) (Bigint.to_int (Bigint.ediv (i (-7)) (i 2)))

let test_division_by_zero () =
  Alcotest.check_raises "div zero" Bigint.Division_by_zero_big (fun () ->
      ignore (Bigint.div Bigint.one Bigint.zero));
  Alcotest.check_raises "emod zero" Bigint.Division_by_zero_big (fun () ->
      ignore (Bigint.emod Bigint.one Bigint.zero))

let test_shifts () =
  check_big "shl" "1024" (Bigint.shift_left Bigint.one 10);
  check_big "shr" "1" (Bigint.shift_right (b "1024") 10);
  check_big "shr to zero" "0" (Bigint.shift_right (b "1023") 10);
  check_big "shl big" (Bigint.to_string (Bigint.pow Bigint.two 100))
    (Bigint.shift_left Bigint.one 100);
  check_big "neg shl" "-8" (Bigint.shift_left (i (-1)) 3)

let test_numbits_testbit () =
  Alcotest.(check int) "numbits 0" 0 (Bigint.numbits Bigint.zero);
  Alcotest.(check int) "numbits 1" 1 (Bigint.numbits Bigint.one);
  Alcotest.(check int) "numbits 255" 8 (Bigint.numbits (i 255));
  Alcotest.(check int) "numbits 256" 9 (Bigint.numbits (i 256));
  Alcotest.(check int) "numbits 2^100" 101 (Bigint.numbits (Bigint.pow Bigint.two 100));
  Alcotest.(check bool) "bit0 of 5" true (Bigint.testbit (i 5) 0);
  Alcotest.(check bool) "bit1 of 5" false (Bigint.testbit (i 5) 1);
  Alcotest.(check bool) "bit2 of 5" true (Bigint.testbit (i 5) 2);
  Alcotest.(check bool) "bit99 of 2^100" false (Bigint.testbit (Bigint.pow Bigint.two 100) 99);
  Alcotest.(check bool) "bit100 of 2^100" true (Bigint.testbit (Bigint.pow Bigint.two 100) 100)

let test_gcd () =
  Alcotest.(check int) "gcd" 6 (Bigint.to_int (Bigint.gcd (i 48) (i 18)));
  Alcotest.(check int) "gcd neg" 6 (Bigint.to_int (Bigint.gcd (i (-48)) (i 18)));
  Alcotest.(check int) "gcd zero" 5 (Bigint.to_int (Bigint.gcd Bigint.zero (i 5)));
  Alcotest.(check int) "gcd both zero" 0 (Bigint.to_int (Bigint.gcd Bigint.zero Bigint.zero))

let test_extended_gcd () =
  let g, u, v = Bigint.extended_gcd (i 240) (i 46) in
  Alcotest.(check int) "g" 2 (Bigint.to_int g);
  Alcotest.(check bool) "bezout" true
    (Bigint.equal g (Bigint.add (Bigint.mul u (i 240)) (Bigint.mul v (i 46))))

let test_mod_inverse () =
  (match Bigint.mod_inverse (i 3) (i 11) with
   | Some inv -> Alcotest.(check int) "3^-1 mod 11" 4 (Bigint.to_int inv)
   | None -> Alcotest.fail "inverse exists");
  (match Bigint.mod_inverse (i 4) (i 8) with
   | None -> ()
   | Some _ -> Alcotest.fail "no inverse for gcd > 1");
  match Bigint.mod_inverse (i (-3)) (i 11) with
  | Some inv ->
    Alcotest.(check int) "negative base" 1
      (Bigint.to_int (Bigint.emod (Bigint.mul inv (i (-3))) (i 11)))
  | None -> Alcotest.fail "inverse of negative exists"

let test_mod_pow () =
  (* Fermat's little theorem for a large prime. *)
  let p = b "1000000007" in
  Alcotest.(check bool) "fermat" true
    (Bigint.is_one (Bigint.mod_pow (i 2) (Bigint.pred p) p));
  Alcotest.(check int) "zero exponent" 1 (Bigint.to_int (Bigint.mod_pow (i 5) Bigint.zero (i 7)));
  Alcotest.(check int) "mod one" 0 (Bigint.to_int (Bigint.mod_pow (i 5) (i 3) Bigint.one));
  (* Negative exponent = inverse power. *)
  let x = Bigint.mod_pow (i 3) (i (-1)) (i 11) in
  Alcotest.(check int) "negative exponent" 4 (Bigint.to_int x)

let test_bytes_roundtrip () =
  let v = b "123456789123456789123456789" in
  Alcotest.(check bool) "roundtrip" true (Bigint.equal v (Bigint.of_bytes_be (Bigint.to_bytes_be v)));
  Alcotest.(check string) "empty for zero" "" (Bigint.to_bytes_be Bigint.zero);
  Alcotest.(check string) "single byte" "\x2a" (Bigint.to_bytes_be (i 42));
  Alcotest.(check string) "padded" "\x00\x00\x2a" (Bigint.to_bytes_be_padded 3 (i 42));
  Alcotest.check_raises "too wide" (Invalid_argument "Bigint.to_bytes_be_padded: value too wide")
    (fun () -> ignore (Bigint.to_bytes_be_padded 1 (i 300)))

let test_comparisons () =
  let values = List.map b [ "-100"; "-1"; "0"; "1"; "99"; "100"; "10000000000000000000" ] in
  let sorted = List.sort Bigint.compare (List.rev values) in
  Alcotest.(check (list string)) "sorted order"
    (List.map Bigint.to_string values)
    (List.map Bigint.to_string sorted);
  Alcotest.(check bool) "min" true (Bigint.equal (i (-5)) (Bigint.min (i (-5)) (i 3)));
  Alcotest.(check bool) "max" true (Bigint.equal (i 3) (Bigint.max (i (-5)) (i 3)))

let test_to_int_overflow () =
  let too_big = Bigint.pow Bigint.two 80 in
  Alcotest.check_raises "overflow" Bigint.Overflow (fun () -> ignore (Bigint.to_int too_big));
  Alcotest.(check bool) "opt none" true (Bigint.to_int_opt too_big = None);
  Alcotest.(check bool) "min_int fits" true (Bigint.to_int_opt (i min_int) = Some min_int);
  Alcotest.(check bool) "min_int-1 overflows" true
    (Bigint.to_int_opt (Bigint.pred (i min_int)) = None)

let test_montgomery_edges () =
  (* Small moduli, degenerate bases/exponents, both code paths. *)
  let cases =
    [ (0, 100, 3); (1, 100, 3); (2, 100, 3); (5, 0, 7); (5, 1, 7); (7, 64, 3);
      (10, 33, 1); (123456, 65537, 1000003) ]
  in
  List.iter
    (fun (base, e, m) ->
      let expected =
        Bigint.mod_pow_plain (Bigint.emod (i base) (i m)) (i e) (i m)
      in
      Alcotest.(check string)
        (Printf.sprintf "%d^%d mod %d" base e m)
        (Bigint.to_string expected)
        (Bigint.to_string (Bigint.mod_pow (i base) (i e) (i m))))
    cases;
  (* A modulus of exactly one limb boundary (2^31 +/- around). *)
  let m = Bigint.succ (Bigint.shift_left Bigint.one 31) in
  let r = Bigint.mod_pow (i 3) (i 1000) m in
  Alcotest.(check string) "limb boundary" (Bigint.to_string (Bigint.mod_pow_plain (i 3) (i 1000) m))
    (Bigint.to_string r)

let test_ctx_edges () =
  (* Explicit contexts: degenerate moduli, exponent zero, base >= m,
     even moduli (no Montgomery inverse — plain kind). *)
  Alcotest.check_raises "zero modulus" (Invalid_argument "Bigint.Ctx.create: modulus must be positive")
    (fun () -> ignore (Bigint.Ctx.create Bigint.zero));
  Alcotest.check_raises "negative modulus" (Invalid_argument "Bigint.Ctx.create: modulus must be positive")
    (fun () -> ignore (Bigint.Ctx.create (i (-7))));
  let one_ctx = Bigint.Ctx.create Bigint.one in
  Alcotest.(check int) "mod one" 0 (Bigint.to_int (Bigint.Ctx.mod_pow one_ctx (i 5) (i 3)));
  let odd = Bigint.Ctx.create (i 1000003) in
  Alcotest.(check int) "exp zero" 1 (Bigint.to_int (Bigint.Ctx.mod_pow odd (i 5) Bigint.zero));
  Alcotest.(check int) "base >= m" (Bigint.to_int (Bigint.mod_pow_plain (Bigint.emod (i 2000007) (i 1000003)) (i 12) (i 1000003)))
    (Bigint.to_int (Bigint.Ctx.mod_pow odd (i 2000007) (i 12)));
  Alcotest.(check int) "negative exponent" 4
    (Bigint.to_int (Bigint.Ctx.mod_pow (Bigint.Ctx.create (i 11)) (i 3) (i (-1))));
  let even = Bigint.Ctx.create (i 1000000) in
  Alcotest.(check bool) "even modulus never montgomery" false (Bigint.Ctx.uses_montgomery even);
  Alcotest.(check int) "even modulus pow" (Bigint.to_int (Bigint.mod_pow_plain (i 7) (i 65) (i 1000000)))
    (Bigint.to_int (Bigint.Ctx.mod_pow even (i 7) (i 65)));
  Alcotest.(check int) "mod_mul" ((123 * 4567) mod 1000003)
    (Bigint.to_int (Bigint.Ctx.mod_mul odd (i 123) (i 4567)))

let test_fixed_base_edges () =
  let m = b "0xffffffff00000001" in  (* odd 64-bit *)
  let g = i 7 in
  let fb = Bigint.Fixed_base.create ~base:g ~modulus:m ~bits:64 in
  Alcotest.(check int) "exp zero" 1 (Bigint.to_int (Bigint.Fixed_base.pow fb Bigint.zero));
  let e = b "0x123456789abcdef" in
  check_big "in-range exponent"
    (Bigint.to_string (Bigint.mod_pow_plain g e m))
    (Bigint.Fixed_base.pow fb e);
  (* Exponent wider than the table: falls back to the generic context path. *)
  let wide = Bigint.shift_left Bigint.one 80 in
  check_big "oversized exponent falls back"
    (Bigint.to_string (Bigint.mod_pow_plain g wide m))
    (Bigint.Fixed_base.pow fb wide);
  check_big "negative exponent falls back"
    (Bigint.to_string (Bigint.mod_pow g (i (-1)) m))
    (Bigint.Fixed_base.pow fb (i (-1)));
  (* An even modulus gets a plain context: the same table scan runs in
     the ordinary residue ring. *)
  let even = Bigint.succ m in
  let fb_even = Bigint.Fixed_base.create ~base:g ~modulus:even ~bits:64 in
  check_big "plain kind" (Bigint.to_string (Bigint.mod_pow_plain g e even))
    (Bigint.Fixed_base.pow fb_even e)

let test_ctx_cache () =
  (* A cache hit must return exactly what the cold miss computed, and
     filling all slots must evict cleanly. *)
  Bigint.ctx_cache_reset ();
  let m = b "0xc000000000000000000000000000000d" in
  let base = b "0x123456789" and e = b "0x87654321fedcba" in
  let cold = Bigint.mod_pow base e m in
  let _, misses0 = Bigint.ctx_cache_stats () in
  let warm = Bigint.mod_pow base e m in
  let hits1, misses1 = Bigint.ctx_cache_stats () in
  Alcotest.(check bool) "hit equals miss" true (Bigint.equal cold warm);
  Alcotest.(check bool) "second call hit" true (hits1 >= 1 && misses1 = misses0);
  (* Force eviction: more distinct odd moduli than slots, then revisit. *)
  for k = 0 to 9 do
    let mk = Bigint.add m (i (2 * k)) in
    ignore (Bigint.mod_pow base e mk)
  done;
  let again = Bigint.mod_pow base e m in
  Alcotest.(check bool) "post-eviction recompute agrees" true (Bigint.equal cold again)

let test_multi_exp () =
  let rng = Secmed_crypto.Prng.of_int_seed 4242 in
  let rand bits = Bigint.random_bits (Secmed_crypto.Prng.byte_source rng) bits in
  let reference c b1 e1 b2 e2 =
    Bigint.Ctx.mod_mul c (Bigint.Ctx.mod_pow c b1 e1) (Bigint.Ctx.mod_pow c b2 e2)
  in
  let pow2 c b1 e1 b2 e2 =
    let table b e =
      Bigint.Multi_exp.table c (Bigint.Ctx.to_mont c b) ~uses:1 ~bits:(Bigint.numbits e)
    in
    Bigint.Ctx.of_mont c (Bigint.Multi_exp.pow c [| table b1 e1; table b2 e2 |] [| e1; e2 |])
  in
  let moduli =
    [
      b "0xc000000000000000000000000000000d" (* odd: Montgomery kind *);
      Bigint.succ (b "0xc000000000000000000000000000000d") (* even: plain kind *);
      i 2;
      i 1 (* ring collapses to 0 *);
    ]
  in
  List.iter
    (fun m ->
      let c = Bigint.Ctx.create m in
      for _ = 1 to 25 do
        let b1 = Bigint.emod (rand 130) m and b2 = Bigint.emod (rand 130) m in
        let e1 = rand 130 and e2 = rand 130 in
        check_big "two-base pow matches two mod_pows"
          (Bigint.to_string (reference c b1 e1 b2 e2))
          (pow2 c b1 e1 b2 e2)
      done;
      (* Degenerate exponent shapes. *)
      let b1 = Bigint.emod (rand 100) m and b2 = Bigint.emod (rand 100) m in
      List.iter
        (fun (e1, e2) ->
          check_big "two-base pow edge exponents"
            (Bigint.to_string (reference c b1 e1 b2 e2))
            (pow2 c b1 e1 b2 e2))
        [
          (Bigint.zero, Bigint.zero);
          (Bigint.zero, rand 90);
          (rand 90, Bigint.zero);
          (Bigint.one, rand 4);
          (rand 300, rand 5) (* very unbalanced widths *);
          (rand 5, rand 300);
        ])
    moduli;
  (* mul_pow against multiply-then-pow. *)
  let m = b "0xffffffff00000001" in
  let c = Bigint.Ctx.create m in
  for _ = 1 to 25 do
    let a = Bigint.emod (rand 64) m and base = Bigint.emod (rand 64) m in
    let e = rand 64 in
    check_big "mul_pow"
      (Bigint.to_string (Bigint.Ctx.mod_mul c a (Bigint.Ctx.mod_pow c base e)))
      (Bigint.Multi_exp.mul_pow c a base e)
  done;
  (* Fixed-base exponentiation, in-table and out-of-table. *)
  let g = i 7 in
  let fb = Bigint.Fixed_base.create ~base:g ~modulus:m ~bits:64 in
  let check_fb e =
    check_big "Fixed_base.pow" (Bigint.to_string (Bigint.mod_pow g e m)) (Bigint.Fixed_base.pow fb e)
  in
  for _ = 1 to 25 do
    check_fb (rand 64)
  done;
  check_fb (rand 100);
  check_fb Bigint.zero;
  (* An even modulus runs the same in-domain code on a plain context. *)
  let even = Bigint.succ m in
  let ce = Bigint.Ctx.create even in
  let fb_even = Bigint.Fixed_base.create ~base:g ~modulus:even ~bits:64 in
  let a = Bigint.emod (rand 64) even and base = Bigint.emod (rand 64) even in
  let e = rand 64 in
  let plain_product x y e = Bigint.emod (Bigint.mul x (Bigint.mod_pow_plain y e even)) even in
  check_big "plain-kind Fixed_base.pow" (Bigint.to_string (Bigint.mod_pow_plain g e even))
    (Bigint.Fixed_base.pow fb_even e);
  check_big "plain-kind mul_pow" (Bigint.to_string (plain_product a base e))
    (Bigint.Multi_exp.mul_pow ce a base e)

(* (uses, bits) shapes for which the width rule of Multi_exp.table,
   minimising 2^(w-1)/uses + bits/(w+1), picks the widths 1 to 8 in turn. *)
let width_shapes =
  [| (1, 0); (1, 8); (1, 30); (1, 100); (1, 300); (1, 1100); (4, 1100); (16, 1100) |]

(* The product of each base's power through Multi_exp.pow, each base's
   table built for one use, in the ordinary domain. *)
let pow_of c pairs =
  let table (b, e) = Bigint.Multi_exp.table c b ~uses:1 ~bits:(Bigint.numbits e) in
  Bigint.Ctx.of_mont c
    (Bigint.Multi_exp.pow c (Array.of_list (List.map table pairs))
       (Array.of_list (List.map snd pairs)))

(* The word kernel against division-based arithmetic at its edges: moduli
   one bit below, at and above 64-bit word boundaries (so the top word is
   nearly empty, full, or holds one bit), among them the 4-word group and
   the 8-word CRT halves the protocols run; all-ones moduli whose
   products push every carry and the final conditional subtraction to
   their bounds, operands 0, 1 and m - 1, and exponents that are 0, 1, 2
   (a lone squaring), 3 (the table's squaring), all ones, or one set bit
   followed by long runs of zero windows; m - 1 squared on an all-ones
   modulus fills every column accumulator to its third word.  On moduli
   up to 1,025 bits every power is also taken over the base's tables of
   each window width 1 to 8.  Even moduli take the Plain context through
   the same entry points. *)
let test_kernel_word_edges () =
  let rng = Secmed_crypto.Prng.of_int_seed 6464 in
  let rand bits = Bigint.random_bits (Secmed_crypto.Prng.byte_source rng) bits in
  let pow2 k = Bigint.shift_left Bigint.one k in
  let ones k = Bigint.pred (pow2 k) in
  let exponents =
    [ Bigint.zero; Bigint.one; i 2; i 3; i 15; i 16; ones 31; ones 64; ones 65; ones 128;
      pow2 200; Bigint.succ (pow2 257); Bigint.shift_left (ones 64) 128; rand 160 ]
  in
  let plain_pow a e m = Bigint.mod_pow_plain (Bigint.emod a m) e m in
  List.iter
    (fun bits ->
      let top = pow2 (bits - 1) in
      let odd_random = Bigint.add top (Bigint.succ (Bigint.shift_left (rand (bits - 2)) 1)) in
      let moduli =
        [ ones bits; Bigint.succ top; odd_random; pow2 bits; Bigint.sub (pow2 bits) (i 2) ]
      in
      List.iter
        (fun m ->
          let c = Bigint.Ctx.create m in
          let label what = Printf.sprintf "%d-bit %s %s" bits (Bigint.to_hex m) what in
          let second = Bigint.random_below (Secmed_crypto.Prng.byte_source rng) m in
          let second_m = Bigint.Ctx.to_mont c second in
          let wide = Bigint.add (pow2 1024) (rand 1024) in
          (* The division-based reference to a 1,025-bit power is slow on
             the widest moduli, so only moduli up to 1,025 bits take it. *)
          let second_wide = if bits <= 1025 then Some (plain_pow second wide m) else None in
          Alcotest.(check bool) (label "kind") (Bigint.is_odd m) (Bigint.Ctx.uses_montgomery c);
          let operands =
            [ Bigint.zero; Bigint.one; Bigint.pred m;
              Bigint.random_below (Secmed_crypto.Prng.byte_source rng) m ]
          in
          List.iter
            (fun a ->
              let a_m = Bigint.Ctx.to_mont c a in
              check_big (label "roundtrip") (Bigint.to_string a) (Bigint.Ctx.of_mont c a_m);
              List.iter
                (fun bb ->
                  let product = Bigint.emod (Bigint.mul a bb) m in
                  let got = Bigint.Ctx.mont_mul c a_m (Bigint.Ctx.to_mont c bb) in
                  check_big (label "mont_mul") (Bigint.to_string product) (Bigint.Ctx.of_mont c got);
                  Alcotest.(check bool) (label "canonical product") true
                    (Bigint.Ctx.mont_equal got (Bigint.Ctx.to_mont c product)))
                operands;
              let fb = Bigint.Fixed_base.create ~base:a ~modulus:m ~bits:260 in
              (* Tables of every width, on moduli up to 1,025 bits: at
                 2,048 and 4,096 bits eight scans per exponent would
                 dominate the suite. *)
              let tables =
                if bits <= 1025 then
                  Array.map
                    (fun (uses, bits) -> Bigint.Multi_exp.table c a_m ~uses ~bits)
                    width_shapes
                else [||]
              in
              List.iter
                (fun e ->
                  let want = plain_pow a e m in
                  let label what = label (Printf.sprintf "%s e=%s" what (Bigint.to_hex e)) in
                  check_big (label "mont_pow") (Bigint.to_string want)
                    (Bigint.Ctx.of_mont c (Bigint.Ctx.mont_pow c a_m e));
                  check_big (label "Fixed_base.pow") (Bigint.to_string want) (Bigint.Fixed_base.pow fb e);
                  let other = Bigint.pred m and e2 = Bigint.succ e in
                  check_big (label "two-base pow")
                    (Bigint.to_string (Bigint.emod (Bigint.mul want (plain_pow other e2 m)) m))
                    (pow_of c [ (a_m, e); (Bigint.Ctx.to_mont c other, e2) ]);
                  Array.iteri
                    (fun w table ->
                      check_big (label (Printf.sprintf "width-%d table" (w + 1)))
                        (Bigint.to_string want)
                        (Bigint.Ctx.of_mont c (Bigint.Multi_exp.pow c [| table |] [| e |])))
                    tables)
                exponents;
              Alcotest.(check bool) (label "mont_pow e=2 is mont_mul a a") true
                (Bigint.Ctx.mont_equal (Bigint.Ctx.mont_pow c a_m (i 2))
                   (Bigint.Ctx.mont_mul c a_m a_m));
              (* Square-and-multiply chained through [mont_mul c x x] and
                 [mont_mul c x a], each into a fresh result, against the
                 kernel's exponentiation, whose accumulator is the result
                 and the first operand of every step at once. *)
              let chained = ref a_m in
              for _ = 2 to 64 do
                chained := Bigint.Ctx.mont_mul c (Bigint.Ctx.mont_mul c !chained !chained) a_m
              done;
              Alcotest.(check bool) (label "chained mont_mul is mont_pow e=2^64-1") true
                (Bigint.Ctx.mont_equal !chained (Bigint.Ctx.mont_pow c a_m (ones 64)));
              (* Two bases: one exponent zero, lengths of 1 bit against
                 1,025 bits in both orders, and the same base twice. *)
              let e = rand 40 and e' = rand 40 in
              let check_pow2 what want a1 e1 a2 e2 =
                check_big (label ("two-base pow " ^ what)) (Bigint.to_string want)
                  (pow_of c [ (a1, e1); (a2, e2) ])
              in
              let times x y = Bigint.emod (Bigint.mul x y) m in
              check_pow2 "second exponent zero" (plain_pow a e m) a_m e second_m Bigint.zero;
              check_pow2 "first exponent zero" (plain_pow second e m) a_m Bigint.zero second_m e;
              Option.iter
                (fun second_wide ->
                  let want = times a second_wide in
                  check_pow2 "1 bit against 1025 bits" want a_m Bigint.one second_m wide;
                  check_pow2 "1025 bits against 1 bit" want second_m wide a_m Bigint.one)
                second_wide;
              check_pow2 "same base twice" (plain_pow a (Bigint.add e e') m) a_m e a_m e')
            operands)
        moduli)
    [ 63; 64; 65; 127; 128; 129; 255; 256; 257; 511; 512; 513; 1023; 1024; 1025; 2048; 4096 ]

let test_cache_domain_stress () =
  (* Domains hammer the transparent context cache with more distinct odd
     moduli than slots, concurrently; every result must match the plain
     reference, and the main domain's counters must be untouched. *)
  Bigint.ctx_cache_reset ();
  let base_m = b "0xc000000000000000000000000000000d" in
  let e = b "0x87654321fedcba987654321" in
  let worker d () =
    let ok = ref true in
    for round = 0 to 19 do
      let mk = Bigint.add base_m (i (2 * (((d * 20) + round) mod 12))) in
      let base = Bigint.add (i (d + 2)) (i round) in
      let got = Bigint.mod_pow base e mk in
      let want = Bigint.mod_pow_plain (Bigint.emod base mk) e mk in
      if not (Bigint.equal got want) then ok := false
    done;
    let hits, misses = Bigint.ctx_cache_stats () in
    (!ok, hits + misses)
  in
  let hits0, misses0 = Bigint.ctx_cache_stats () in
  let doms = Array.init 4 (fun d -> Domain.spawn (worker d)) in
  let results = Array.map Domain.join doms in
  Array.iter
    (fun (ok, touched) ->
      Alcotest.(check bool) "worker results correct" true ok;
      Alcotest.(check bool) "worker used its own cache" true (touched > 0))
    results;
  let hits1, misses1 = Bigint.ctx_cache_stats () in
  Alcotest.(check (pair int int)) "main-domain stats isolated" (hits0, misses0)
    (hits1, misses1);
  (* Fixed-base table cache: same base/modulus from several domains at
     once, each domain building (then reusing) its own table. *)
  let m = b "0xffffffff00000001" in
  let fb_worker d () =
    let fb = Bigint.Fixed_base.cached ~base:(i 7) ~modulus:m ~bits:64 in
    let fb' = Bigint.Fixed_base.cached ~base:(i 7) ~modulus:m ~bits:64 in
    let e = Bigint.add (b "0x123456789abcdef") (i d) in
    fb == fb' && Bigint.equal (Bigint.Fixed_base.pow fb e) (Bigint.mod_pow_plain (i 7) e m)
  in
  let doms = Array.init 4 (fun d -> Domain.spawn (fb_worker d)) in
  Array.iter
    (fun d -> Alcotest.(check bool) "fixed-base cache per domain" true (Domain.join d))
    doms

(* Two threads run the kernel at once with a tiny minor heap, so minor
   collections run inside each other's lock-free sections: 1 to 16
   tables at 8- and 16-word moduli, exponents wide enough that every
   exponentiation (and the wider tables' builds) leaves the runtime
   lock, and young tables and results that a collection may move.  Each
   product must equal its mod_pow_plain reference. *)
let test_kernel_threads_under_gc () =
  let worker t () =
    let source = Secmed_crypto.Prng.byte_source (Secmed_crypto.Prng.of_int_seed (700 + t)) in
    let small k = Bigint.to_int (Bigint.random_below source (i k)) in
    let ok = ref true in
    for round = 0 to 9 do
      let bits = if (round + t) land 1 = 0 then 512 else 1024 in
      let low = Bigint.random_bits source (bits - 1) in
      let m =
        Bigint.add (Bigint.shift_left Bigint.one (bits - 1))
          (if Bigint.is_odd low then low else Bigint.succ low)
      in
      let ctx = Bigint.Ctx.create m in
      let n = 1 + small 16 in
      let bases = Array.init n (fun _ -> Bigint.random_below source m) in
      let exps =
        Array.init n (fun _ ->
            let w = 256 + small 64 in
            Bigint.add (Bigint.shift_left Bigint.one (w - 1)) (Bigint.random_bits source (w - 1)))
      in
      let tables =
        Array.map
          (fun b ->
            let uses = [| 1; 4; 64 |].(small 3) in
            Bigint.Multi_exp.table ctx (Bigint.Ctx.to_mont ctx b) ~uses ~bits:320)
          bases
      in
      let got = Bigint.Ctx.of_mont ctx (Bigint.Multi_exp.pow ctx tables exps) in
      let want = ref (Bigint.emod Bigint.one m) in
      Array.iteri
        (fun j b -> want := Bigint.emod (Bigint.mul !want (Bigint.mod_pow_plain b exps.(j) m)) m)
        bases;
      if not (Bigint.equal got !want) then ok := false
    done;
    !ok
  in
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 4096 };
  let results = Array.make 2 false in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      let threads = Array.init 2 (fun t -> Thread.create (fun () -> results.(t) <- worker t ()) ()) in
      Array.iter Thread.join threads);
  Array.iteri
    (fun t ok -> Alcotest.(check bool) (Printf.sprintf "thread %d products" t) true ok)
    results

let test_infix () =
  let open Bigint.Infix in
  Alcotest.(check bool) "arith" true (i 2 + i 3 * i 4 = i 14);
  Alcotest.(check bool) "compare" true (i 5 > i 4 && i 4 >= i 4 && i 3 < i 4 && i 3 <> i 4);
  Alcotest.(check bool) "unary minus" true (-i 5 = i (-5));
  Alcotest.(check bool) "mod" true (i 7 mod i 3 = i 1)

(* ------------------------------------------------------------------ *)
(* Property tests. *)

let prng = Secmed_crypto.Prng.of_int_seed 99

let arbitrary_bigint =
  (* Random magnitude up to ~600 bits with random sign; biased toward
     interesting small values. *)
  let gen =
    QCheck2.Gen.(
      let* shape = int_range 0 10 in
      if shape = 0 then map Bigint.of_int (int_range (-1000) 1000)
      else begin
        let* bits = int_range 1 600 in
        let* negative = bool in
        return
          (let v = Bigint.random_bits (Secmed_crypto.Prng.byte_source prng) bits in
           if negative then Bigint.neg v else v)
      end)
  in
  QCheck2.Gen.map (fun v -> v) gen

let prop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let pair2 = QCheck2.Gen.pair arbitrary_bigint arbitrary_bigint
let triple3 = QCheck2.Gen.triple arbitrary_bigint arbitrary_bigint arbitrary_bigint

(* The quadratic definitions the linear byte codec replaced, kept as its
   reference: one shift and one add per byte in, one [testbit] per bit
   out. *)
let ref_of_bytes_be s =
  let acc = ref Bigint.zero in
  String.iter (fun c -> acc := Bigint.add (Bigint.shift_left !acc 8) (i (Char.code c))) s;
  !acc

let ref_to_bytes_be a =
  let len = (Bigint.numbits a + 7) / 8 in
  String.init len (fun k ->
      let bit = (len - 1 - k) * 8 in
      let byte = ref 0 in
      for b = 7 downto 0 do
        byte := (!byte lsl 1) lor (if Bigint.testbit a (bit + b) then 1 else 0)
      done;
      Char.chr !byte)

(* 0–600 bytes, often at a 31-bit limb edge (3/4 and 7/8 bytes straddle
   the first and second limb, 31 bytes fill 8 limbs exactly), and often
   with leading zero bytes. *)
let codec_bytes =
  QCheck2.Gen.(
    let* len = oneof [ oneofl [ 0; 1; 3; 4; 7; 8; 31; 32 ]; int_range 0 600 ] in
    let* zeros = oneof [ return 0; int_range 0 len ] in
    let* body = string_size ~gen:char (return (len - zeros)) in
    return (String.make zeros '\000' ^ body))

let codec_props =
  [
    prop "of_bytes_be matches shift-and-add" codec_bytes (fun s ->
        Bigint.equal (Bigint.of_bytes_be s) (ref_of_bytes_be s));
    prop "to_bytes_be matches bit-by-bit" codec_bytes (fun s ->
        let v = ref_of_bytes_be s in
        String.equal (Bigint.to_bytes_be v) (ref_to_bytes_be v));
    prop "to_bytes_be_padded width and errors"
      (QCheck2.Gen.pair codec_bytes (QCheck2.Gen.int_range 0 40))
      (fun (s, w) ->
        let v = ref_of_bytes_be s in
        let minimal = ref_to_bytes_be v in
        let n = String.length minimal in
        let too_wide = Invalid_argument "Bigint.to_bytes_be_padded: value too wide" in
        let negative = Invalid_argument "Bigint.to_bytes_be: negative value" in
        let raises e f = try ignore (f ()); false with x -> x = e in
        (if w < n then raises too_wide (fun () -> Bigint.to_bytes_be_padded w v)
         else
           String.equal (Bigint.to_bytes_be_padded w v) (String.make (w - n) '\000' ^ minimal))
        && String.equal (Bigint.to_bytes_be_padded (String.length s) v)
             (String.make (String.length s - n) '\000' ^ minimal)
        && (Bigint.is_zero v
           || raises negative (fun () -> Bigint.to_bytes_be_padded (n + w) (Bigint.neg v))));
  ]

let props =
  [
    prop "string roundtrip" arbitrary_bigint (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_string a)));
    prop "hex roundtrip" arbitrary_bigint (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_hex a)));
    prop "add commutative" pair2 (fun (a, bb) ->
        Bigint.equal (Bigint.add a bb) (Bigint.add bb a));
    prop "add associative" triple3 (fun (a, bb, c) ->
        Bigint.equal (Bigint.add a (Bigint.add bb c)) (Bigint.add (Bigint.add a bb) c));
    prop "add neg is sub" pair2 (fun (a, bb) ->
        Bigint.equal (Bigint.sub a bb) (Bigint.add a (Bigint.neg bb)));
    prop "mul commutative" pair2 (fun (a, bb) ->
        Bigint.equal (Bigint.mul a bb) (Bigint.mul bb a));
    prop "mul associative" ~count:120 triple3 (fun (a, bb, c) ->
        Bigint.equal (Bigint.mul a (Bigint.mul bb c)) (Bigint.mul (Bigint.mul a bb) c));
    prop "distributivity" ~count:120 triple3 (fun (a, bb, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add bb c))
          (Bigint.add (Bigint.mul a bb) (Bigint.mul a c)));
    prop "divmod identity" pair2 (fun (a, bb) ->
        QCheck2.assume (not (Bigint.is_zero bb));
        let q, r = Bigint.divmod a bb in
        Bigint.equal a (Bigint.add (Bigint.mul q bb) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs bb) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    prop "euclidean remainder range" pair2 (fun (a, bb) ->
        QCheck2.assume (not (Bigint.is_zero bb));
        let r = Bigint.emod a bb in
        Bigint.sign r >= 0 && Bigint.compare r (Bigint.abs bb) < 0);
    prop "gcd divides" pair2 (fun (a, bb) ->
        QCheck2.assume (not (Bigint.is_zero a) || not (Bigint.is_zero bb));
        let g = Bigint.gcd a bb in
        Bigint.is_zero (Bigint.emod a g) && Bigint.is_zero (Bigint.emod bb g));
    prop "binary gcd matches Euclid" pair2 (fun (a, bb) ->
        let rec euclid x y = if Bigint.is_zero y then x else euclid y (Bigint.emod x y) in
        (* Shifted copies share factors of two; a * bb shares all of a. *)
        List.for_all
          (fun (x, y) -> Bigint.equal (Bigint.gcd x y) (euclid (Bigint.abs x) (Bigint.abs y)))
          [ (a, bb); (Bigint.shift_left a 70, Bigint.shift_left bb 3); (a, Bigint.zero);
            (Bigint.mul a bb, a) ]);
    prop "egcd bezout" pair2 (fun (a, bb) ->
        let g, u, v = Bigint.extended_gcd a bb in
        Bigint.equal g (Bigint.add (Bigint.mul u a) (Bigint.mul v bb)));
    prop "mod_inverse correct" pair2 (fun (a, m) ->
        let m = Bigint.succ (Bigint.abs m) in
        match Bigint.mod_inverse a m with
        | Some inv ->
          Bigint.is_one m || Bigint.is_one (Bigint.emod (Bigint.mul inv a) m)
        | None -> not (Bigint.is_one (Bigint.gcd a m)));
    prop "mod_pow additive in exponent" ~count:60
      (QCheck2.Gen.triple arbitrary_bigint
         (QCheck2.Gen.int_range 0 40)
         (QCheck2.Gen.int_range 0 40))
      (fun (base, e1, e2) ->
        let m = Bigint.of_string "1000000000000000003" in
        Bigint.equal
          (Bigint.mod_pow base (Bigint.of_int (e1 + e2)) m)
          (Bigint.emod
             (Bigint.mul (Bigint.mod_pow base (i e1) m) (Bigint.mod_pow base (i e2) m))
             m));
    prop "mod_pow matches pow" ~count:60
      (QCheck2.Gen.pair (QCheck2.Gen.int_range (-50) 50) (QCheck2.Gen.int_range 0 20))
      (fun (base, e) ->
        let m = b "97" in
        Bigint.equal
          (Bigint.mod_pow (i base) (i e) m)
          (Bigint.emod (Bigint.pow (i base) e) m));
    prop "shift_left is multiply by power of two"
      (QCheck2.Gen.pair arbitrary_bigint (QCheck2.Gen.int_range 0 128))
      (fun (a, k) ->
        Bigint.equal (Bigint.shift_left a k) (Bigint.mul a (Bigint.pow Bigint.two k)));
    prop "shift_right inverts shift_left"
      (QCheck2.Gen.pair arbitrary_bigint (QCheck2.Gen.int_range 0 128))
      (fun (a, k) -> Bigint.equal (Bigint.shift_right (Bigint.shift_left a k) k) a);
    prop "bytes roundtrip" arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        Bigint.equal a (Bigint.of_bytes_be (Bigint.to_bytes_be a)));
    prop "karatsuba agrees with schoolbook" ~count:60
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 600 1200) (QCheck2.Gen.int_range 600 1200))
      (fun (bits_a, bits_b) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let x = Bigint.random_bits source bits_a in
        let y = Bigint.random_bits source bits_b in
        let fast = Bigint.mul_karatsuba ~threshold:4 x y in
        let slow = Bigint.mul_karatsuba ~threshold:1_000_000 x y in
        Bigint.equal fast slow);
    prop "random_below in range" ~count:100
      (QCheck2.Gen.int_range 1 1_000_000)
      (fun bound ->
        let v = Bigint.random_below (Secmed_crypto.Prng.byte_source prng) (i bound) in
        Bigint.sign v >= 0 && Bigint.compare v (i bound) < 0);
    prop "montgomery mod_pow matches plain" ~count:150
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 512) (QCheck2.Gen.int_range 1 256)
         (QCheck2.Gen.int_range 1 512))
      (fun (base_bits, exp_bits, mod_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let base = Bigint.random_bits source base_bits in
        let e = Bigint.random_bits source exp_bits in
        let m =
          let candidate = Bigint.random_bits source mod_bits in
          let candidate = if Bigint.compare candidate Bigint.two < 0 then Bigint.of_int 3 else candidate in
          if Bigint.is_even candidate then Bigint.succ candidate else candidate
        in
        Bigint.equal (Bigint.mod_pow base e m) (Bigint.mod_pow_plain (Bigint.emod base m) e m));
    prop "montgomery handles even moduli via fallback" ~count:60
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 1 200) (QCheck2.Gen.int_range 1 100))
      (fun (base_bits, exp_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let base = Bigint.random_bits source base_bits in
        let e = Bigint.random_bits source exp_bits in
        let m = Bigint.shift_left (Bigint.succ (Bigint.random_bits source 64)) 1 in
        Bigint.equal (Bigint.mod_pow base e m) (Bigint.mod_pow_plain (Bigint.emod base m) e m));
    prop "Ctx.mod_pow matches plain" ~count:150
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 512) (QCheck2.Gen.int_range 1 256)
         (QCheck2.Gen.int_range 1 512))
      (fun (base_bits, exp_bits, mod_bits) ->
        (* Both kinds: odd moduli take the Montgomery kind, even ones the
           plain kind — the answers must be indistinguishable. *)
        let source = Secmed_crypto.Prng.byte_source prng in
        let base = Bigint.random_bits source base_bits in
        let e = Bigint.random_bits source exp_bits in
        let m = Bigint.succ (Bigint.random_bits source mod_bits) in
        let ctx = Bigint.Ctx.create m in
        Bigint.equal (Bigint.Ctx.mod_pow ctx base e)
          (Bigint.mod_pow_plain (Bigint.emod base m) e m));
    prop "Ctx montgomery-domain roundtrip and mul" ~count:100
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 400) (QCheck2.Gen.int_range 1 400)
         (QCheck2.Gen.int_range 2 400))
      (fun (a_bits, b_bits, mod_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let m =
          let c = Bigint.random_bits source mod_bits in
          let c = if Bigint.compare c (i 3) < 0 then i 3 else c in
          if Bigint.is_even c then Bigint.succ c else c
        in
        let ctx = Bigint.Ctx.create m in
        let a = Bigint.emod (Bigint.random_bits source a_bits) m in
        let bb = Bigint.emod (Bigint.random_bits source b_bits) m in
        let a_m = Bigint.Ctx.to_mont ctx a in
        let b_m = Bigint.Ctx.to_mont ctx bb in
        Bigint.equal (Bigint.Ctx.of_mont ctx a_m) a
        && Bigint.equal
             (Bigint.Ctx.of_mont ctx (Bigint.Ctx.mont_mul ctx a_m b_m))
             (Bigint.emod (Bigint.mul a bb) m)
        && Bigint.Ctx.mont_equal (Bigint.Ctx.to_mont ctx Bigint.one) (Bigint.Ctx.mont_one ctx));
    prop "Ctx.mont_pow matches plain" ~count:100
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 400) (QCheck2.Gen.int_range 0 1100)
         (QCheck2.Gen.int_range 2 400))
      (fun (base_bits, exp_bits, mod_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let m =
          let c = Bigint.random_bits source mod_bits in
          let c = if Bigint.compare c (i 3) < 0 then i 3 else c in
          if Bigint.is_even c then Bigint.succ c else c
        in
        let ctx = Bigint.Ctx.create m in
        let base = Bigint.emod (Bigint.random_bits source base_bits) m in
        let e = Bigint.random_bits source exp_bits in
        Bigint.equal
          (Bigint.Ctx.of_mont ctx (Bigint.Ctx.mont_pow ctx (Bigint.Ctx.to_mont ctx base) e))
          (Bigint.mod_pow_plain base e m));
    prop "Multi_exp.pow of two bases vs plain" ~count:60
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 2 2100) (QCheck2.Gen.int_range 0 1100)
         (QCheck2.Gen.int_range 0 1100))
      (fun (mod_bits, ea_bits, eb_bits) ->
        (* Odd moduli of 1 to 33 words, exponents of independent lengths. *)
        let source = Secmed_crypto.Prng.byte_source prng in
        let m =
          Bigint.add (Bigint.shift_left Bigint.one (mod_bits - 1))
            (Bigint.succ (Bigint.shift_left (Bigint.random_bits source (mod_bits - 2)) 1))
        in
        let ctx = Bigint.Ctx.create m in
        let a = Bigint.random_below source m and bb = Bigint.random_below source m in
        let ea = Bigint.random_bits source ea_bits and eb = Bigint.random_bits source eb_bits in
        Bigint.equal
          (pow_of ctx [ (Bigint.Ctx.to_mont ctx a, ea); (Bigint.Ctx.to_mont ctx bb, eb) ])
          (Bigint.emod
             (Bigint.mul (Bigint.mod_pow_plain a ea m) (Bigint.mod_pow_plain bb eb m))
             m));
    prop "Multi_exp.pow over tables matches mod_pow products" ~count:60
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 2 1100) (QCheck2.Gen.int_range 1 16)
         (QCheck2.Gen.int_range 0 1))
      (fun (mod_bits, n, parity) ->
        (* 1 to 16 bases on an odd or an even modulus, each with a table
           of a width from 1 to 8 and an exponent of 0 to 1,100 bits,
           about one in five of them zero; the last base repeats the
           first. *)
        let source = Secmed_crypto.Prng.byte_source prng in
        let m =
          let c = Bigint.random_bits source mod_bits in
          let c = if Bigint.compare c (i 4) < 0 then i 4 else c in
          if Bigint.is_odd c = (parity = 1) then c else Bigint.succ c
        in
        let ctx = Bigint.Ctx.create m in
        let small k = Bigint.to_int (Bigint.random_below source (i k)) in
        let bases = Array.init n (fun _ -> Bigint.random_below source m) in
        if n > 1 then bases.(n - 1) <- bases.(0);
        let exps =
          Array.init n (fun _ ->
              if small 5 = 0 then Bigint.zero else Bigint.random_bits source (small 1101))
        in
        let tables =
          Array.map
            (fun b ->
              let uses, bits = width_shapes.(small 8) in
              Bigint.Multi_exp.table ctx (Bigint.Ctx.to_mont ctx b) ~uses ~bits)
            bases
        in
        let want = ref (Bigint.emod Bigint.one m) in
        Array.iteri
          (fun j b -> want := Bigint.emod (Bigint.mul !want (Bigint.mod_pow_plain b exps.(j) m)) m)
          bases;
        Bigint.equal (Bigint.Ctx.of_mont ctx (Bigint.Multi_exp.pow ctx tables exps)) !want);
    prop "Fixed_base.pow matches plain" ~count:100
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 300) (QCheck2.Gen.int_range 1 300)
         (QCheck2.Gen.int_range 8 300))
      (fun (base_bits, exp_bits, mod_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let m =
          let c = Bigint.random_bits source mod_bits in
          let c = if Bigint.compare c (i 3) < 0 then i 3 else c in
          if Bigint.is_even c then Bigint.succ c else c
        in
        let base = Bigint.random_bits source base_bits in
        let e = Bigint.random_bits source exp_bits in
        let fb = Bigint.Fixed_base.create ~base ~modulus:m ~bits:300 in
        Bigint.equal (Bigint.Fixed_base.pow fb e)
          (Bigint.mod_pow_plain (Bigint.emod base m) e m));
    (* The Montgomery route against the division-based reference on odd
       moduli of 1, 9, 17 and 34 31-bit limbs, where the conversion
       between limbs and 64-bit words splits limbs across words.  A top
       limb near 2^31 sets every high bit of the modulus; a one-limb
       operand converts to mostly zero words; m - 1 is the largest
       representative.  The
       in-domain product must also be the canonical representative,
       which mont_equal relies on.  Word boundaries themselves are
       covered by the kernel word-edge test. *)
    prop "montgomery ≡ plain on 1/9/17/34-limb moduli" ~count:160
      (QCheck2.Gen.quad
         (QCheck2.Gen.oneofl [ 1; 9; 17; 34 ])
         QCheck2.Gen.bool
         (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 3) (QCheck2.Gen.int_range 0 3))
         (QCheck2.Gen.int_range 17 160))
      (fun (limbs, near_top, (shape_a, shape_b), exp_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let bits = 31 * limbs in
        let m =
          let c =
            if near_top then
              Bigint.sub (Bigint.shift_left Bigint.one bits) (Bigint.random_bits source (bits - 8))
            else
              Bigint.add
                (Bigint.shift_left Bigint.one (bits - 31))
                (Bigint.random_bits source (bits - 1))
          in
          let c = if Bigint.is_even c then Bigint.pred c else c in
          if Bigint.compare c (i 3) < 0 then i 3 else c
        in
        let operand = function
          | 0 -> Bigint.random_below source m
          | 1 -> Bigint.pred m
          | 2 -> Bigint.emod (Bigint.random_bits source 31) m
          | _ -> Bigint.one
        in
        let a = operand shape_a and b = operand shape_b in
        let e =
          Bigint.add (Bigint.shift_left Bigint.one (exp_bits - 1))
            (Bigint.random_bits source (exp_bits - 1))
        in
        let c = Bigint.Ctx.create m in
        let expected = Bigint.emod (Bigint.mul a b) m in
        let product = Bigint.Ctx.mont_mul c (Bigint.Ctx.to_mont c a) (Bigint.Ctx.to_mont c b) in
        let power = Bigint.mod_pow_plain a e m in
        Bigint.Ctx.uses_montgomery c
        && Bigint.equal (Bigint.Ctx.of_mont c product) expected
        && Bigint.Ctx.mont_equal product (Bigint.Ctx.to_mont c expected)
        && Bigint.equal (Bigint.Ctx.mod_pow c a e) power
        && Bigint.equal (Bigint.Ctx.of_mont c (Bigint.Ctx.mont_pow c (Bigint.Ctx.to_mont c a) e)) power);
    prop "transparent cache: hit equals cold result" ~count:60
      (QCheck2.Gen.triple (QCheck2.Gen.int_range 1 256) (QCheck2.Gen.int_range 17 128)
         (QCheck2.Gen.int_range 64 256))
      (fun (base_bits, exp_bits, mod_bits) ->
        let source = Secmed_crypto.Prng.byte_source prng in
        let base = Bigint.random_bits source base_bits in
        let e = Bigint.random_bits source exp_bits in
        let m =
          let c = Bigint.random_bits source mod_bits in
          let c = if Bigint.compare c (i 3) < 0 then i 3 else c in
          if Bigint.is_even c then Bigint.succ c else c
        in
        Bigint.ctx_cache_reset ();
        let cold = Bigint.mod_pow base e m in
        let warm = Bigint.mod_pow base e m in
        Bigint.equal cold warm && Bigint.equal cold (Bigint.mod_pow_plain (Bigint.emod base m) e m));
    prop "isqrt bounds" arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        let s = Bigint.isqrt a in
        Bigint.compare (Bigint.mul s s) a <= 0
        && Bigint.compare (Bigint.mul (Bigint.succ s) (Bigint.succ s)) a > 0);
    prop "is_square detects squares" arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        Bigint.is_square (Bigint.mul a a));
    prop "compare antisymmetric" pair2 (fun (a, bb) ->
        Bigint.compare a bb = -Bigint.compare bb a);
    prop "numbits bounds value" arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        let nb = Bigint.numbits a in
        if Bigint.is_zero a then nb = 0
        else
          Bigint.compare a (Bigint.pow Bigint.two nb) < 0
          && Bigint.compare a (Bigint.pow Bigint.two (nb - 1)) >= 0);
  ]

let () =
  Alcotest.run "bigint"
    [
      ( "unit",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "of_string decimal" `Quick test_of_string_decimal;
          Alcotest.test_case "of_string hex" `Quick test_of_string_hex;
          Alcotest.test_case "of_string errors" `Quick test_of_string_errors;
          Alcotest.test_case "known product" `Quick test_known_product;
          Alcotest.test_case "known quotient" `Quick test_known_quotient;
          Alcotest.test_case "factorial 50" `Quick test_factorial;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "truncated division signs" `Quick test_truncated_division_signs;
          Alcotest.test_case "euclidean division" `Quick test_euclidean_division;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "numbits / testbit" `Quick test_numbits_testbit;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "extended gcd" `Quick test_extended_gcd;
          Alcotest.test_case "mod_inverse" `Quick test_mod_inverse;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "montgomery edges" `Quick test_montgomery_edges;
          Alcotest.test_case "explicit context edges" `Quick test_ctx_edges;
          Alcotest.test_case "fixed-base edges" `Quick test_fixed_base_edges;
          Alcotest.test_case "context cache" `Quick test_ctx_cache;
          Alcotest.test_case "simultaneous multi-exponentiation" `Quick test_multi_exp;
          Alcotest.test_case "kernel word edges" `Quick test_kernel_word_edges;
          Alcotest.test_case "domain-local caches under stress" `Quick
            test_cache_domain_stress;
          Alcotest.test_case "kernel on two threads under GC pressure" `Quick
            test_kernel_threads_under_gc;
          Alcotest.test_case "infix operators" `Quick test_infix;
        ] );
      ("properties", props);
      ("byte codec", codec_props);
    ]
