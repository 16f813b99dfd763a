(* Sign-magnitude arbitrary-precision integers.

   Magnitudes are little-endian arrays of 31-bit limbs (base 2^31).  The
   base is chosen so that every intermediate of schoolbook multiplication
   and Knuth Algorithm-D division fits in OCaml's 63-bit native int:
   (B-1)^2 + 2*(B-1) = B^2 - 1 = 2^62 - 1 = max_int. *)

type t = { sign : int; mag : int array }
(* Invariants: [mag] has no leading (high-index) zero limb; [sign] is 0 iff
   [mag] is empty, otherwise -1 or 1. *)

exception Overflow
exception Division_by_zero_big

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

(* Calibrated by the A4 ablation (bench/ablations.ml), which times one
   Karatsuba split against schoolbook in interleaved pairs: the split
   loses at 40-52 limbs and wins most pairs from about 60 limbs up, and
   three sweeps put the crossover at 60, 64 and 67 limbs (~2000 bits);
   [bench ablation-karatsuba] prints the sweep. *)
let karatsuba_threshold = 64

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude (nat) helpers: arrays may carry leading zeros internally;
   [trim] restores the canonical form. *)

let trim_len (a : int array) =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  !n

let trim a =
  let n = trim_len a in
  if n = Array.length a then a else Array.sub a 0 n

let nat_of_int n =
  (* n >= 0 *)
  if n = 0 then [||]
  else if n < base then [| n |]
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let len = count 0 n in
    Array.init len (fun i -> (n lsr (i * limb_bits)) land mask)
  end

let nat_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let nat_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  trim r

(* [nat_sub a b] requires a >= b. *)
let nat_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  trim r

let nat_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai * b.(j) <= (B-1)^2; + r + carry <= B^2 - 1 = max_int *)
          let p = (ai * b.(j)) + r.(i + j) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr limb_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    trim r
  end

(* Karatsuba split at limb k: x = x1 * B^k + x0. *)
let nat_split a k =
  let la = Array.length a in
  if la <= k then (a, [||])
  else (Array.sub a 0 k, Array.sub a k (la - k))

let rec nat_mul ~threshold a b =
  let la = Array.length a and lb = Array.length b in
  let smaller = if la < lb then la else lb in
  if smaller < threshold then nat_mul_school a b
  else begin
    let k = (if la > lb then la else lb) / 2 in
    let a0, a1 = nat_split a k in
    let b0, b1 = nat_split b k in
    let z0 = nat_mul ~threshold a0 b0 in
    let z2 = nat_mul ~threshold a1 b1 in
    let z1 = nat_sub (nat_mul ~threshold (nat_add a0 a1) (nat_add b0 b1)) (nat_add z0 z2) in
    (* result = z2 * B^2k + z1 * B^k + z0 *)
    let lr = la + lb in
    let r = Array.make lr 0 in
    Array.blit z0 0 r 0 (Array.length z0);
    let add_shifted src off =
      let carry = ref 0 in
      let ls = Array.length src in
      let i = ref 0 in
      while !i < ls || !carry <> 0 do
        let idx = off + !i in
        let sv = if !i < ls then src.(!i) else 0 in
        let s = r.(idx) + sv + !carry in
        r.(idx) <- s land mask;
        carry := s lsr limb_bits;
        incr i
      done
    in
    add_shifted z1 k;
    add_shifted z2 (2 * k);
    trim r
  end

let nat_shift_left a n =
  if Array.length a = 0 then [||]
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    trim r
  end

let nat_shift_right a n =
  let limbs = n / limb_bits and bits = n mod limb_bits in
  let la = Array.length a in
  if limbs >= la then [||]
  else begin
    let lr = la - limbs in
    let r = Array.make lr 0 in
    if bits = 0 then Array.blit a limbs r 0 lr
    else
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- lo lor hi
      done;
    trim r
  end

let int_numbits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let nat_numbits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * limb_bits) + int_numbits a.(la - 1)

(* Division by a single limb; returns (quotient, remainder-int). *)
let nat_divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (trim q, !r)

(* Knuth TAOCP vol.2 Algorithm D.  Requires Array.length v >= 2 and
   v trimmed (top limb non-zero), and nat_cmp u v >= 0 not required. *)
let nat_divmod_knuth u v =
  let n = Array.length v in
  let shift = limb_bits - int_numbits v.(n - 1) in
  let vn = trim (nat_shift_left v shift) in
  let un_t = nat_shift_left u shift in
  let m = Array.length u - n in
  (* Working dividend with one extra high limb. *)
  let un = Array.make (Array.length u + 1) 0 in
  Array.blit un_t 0 un 0 (Array.length un_t);
  let q = Array.make (m + 1) 0 in
  let v1 = vn.(n - 1) and v2 = vn.(n - 2) in
  for j = m downto 0 do
    let u2 = un.(j + n) and u1 = un.(j + n - 1) and u0 = un.(j + n - 2) in
    let num = (u2 lsl limb_bits) lor u1 in
    let qhat = ref (num / v1) and rhat = ref (num mod v1) in
    let continue_adjust = ref true in
    while !continue_adjust do
      if !qhat >= base || !qhat * v2 > (!rhat lsl limb_bits) lor u0 then begin
        decr qhat;
        rhat := !rhat + v1;
        if !rhat >= base then continue_adjust := false
      end
      else continue_adjust := false
    done;
    (* Multiply and subtract qhat * vn from un[j .. j+n]. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = un.(j + i) - (p land mask) - !borrow in
      if d < 0 then begin
        un.(j + i) <- d + base;
        borrow := 1
      end
      else begin
        un.(j + i) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let carry2 = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(j + i) + vn.(i) + !carry2 in
        un.(j + i) <- s land mask;
        carry2 := s lsr limb_bits
      done;
      un.(j + n) <- (un.(j + n) + !carry2) land mask
    end
    else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = nat_shift_right (trim (Array.sub un 0 n)) shift in
  (trim q, r)

let nat_divmod a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero_big
  else if nat_cmp a b < 0 then ([||], a)
  else if lb = 1 then begin
    let q, r = nat_divmod_limb a b.(0) in
    (q, nat_of_int r)
  end
  else nat_divmod_knuth a b

(* ------------------------------------------------------------------ *)
(* Signed layer. *)

let make sign mag =
  let mag = trim mag in
  if Array.length mag = 0 then zero else { sign; mag }

let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

let of_int n =
  if n = 0 then zero
  else if n > 0 then { sign = 1; mag = nat_of_int n }
  else if n = min_int then
    (* -min_int overflows; build from magnitude bits directly. *)
    { sign = -1; mag = nat_add (nat_of_int max_int) [| 1 |] }
  else { sign = -1; mag = nat_of_int (-n) }

let to_int_opt a =
  let la = Array.length a.mag in
  if la = 0 then Some 0
  else if nat_numbits a.mag > 62 then
    if a.sign < 0 && nat_numbits a.mag = 63 then begin
      (* Could still be min_int. *)
      let m = of_int min_int in
      if nat_cmp a.mag m.mag = 0 then Some min_int else None
    end
    else None
  else begin
    let v = ref 0 in
    for i = la - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.mag.(i)
    done;
    Some (a.sign * !v)
  end

let to_int a = match to_int_opt a with Some v -> v | None -> raise Overflow

let sign a = a.sign
let is_zero a = a.sign = 0
let is_one a = a.sign = 1 && Array.length a.mag = 1 && a.mag.(0) = 1
let is_even a = a.sign = 0 || a.mag.(0) land 1 = 0
let is_odd a = not (is_even a)

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then nat_cmp a.mag b.mag
  else nat_cmp b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash a = Hashtbl.hash (a.sign, a.mag)

let neg a = if a.sign = 0 then zero else { a with sign = -a.sign }
let abs a = if a.sign < 0 then neg a else a

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (nat_add a.mag b.mag)
  else begin
    let c = nat_cmp a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (nat_sub a.mag b.mag)
    else make b.sign (nat_sub b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul_karatsuba ~threshold a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (nat_mul ~threshold a.mag b.mag)

let mul a b = mul_karatsuba ~threshold:karatsuba_threshold a b

let divmod a b =
  if b.sign = 0 then raise Division_by_zero_big
  else if a.sign = 0 then (zero, zero)
  else begin
    let q, r = nat_divmod a.mag b.mag in
    let quotient = make (a.sign * b.sign) q in
    let remainder = make a.sign r in
    (quotient, remainder)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_rem a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let ediv a b = fst (ediv_rem a b)
let emod a b = snd (ediv_rem a b)

let mul_int a n = mul a (of_int n)
let add_int a n = add a (of_int n)

let pow a n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent"
  else begin
    let rec go acc b n =
      if n = 0 then acc
      else begin
        let acc = if n land 1 = 1 then mul acc b else acc in
        go acc (mul b b) (n lsr 1)
      end
    in
    go one a n
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative count"
  else if a.sign = 0 || n = 0 then a
  else make a.sign (nat_shift_left a.mag n)

let shift_right a n =
  if n < 0 then invalid_arg "Bigint.shift_right: negative count"
  else if a.sign = 0 || n = 0 then a
  else make a.sign (nat_shift_right a.mag n)

let numbits a = nat_numbits a.mag

let testbit a n =
  if n < 0 then invalid_arg "Bigint.testbit: negative index"
  else begin
    let limb = n / limb_bits and bit = n mod limb_bits in
    limb < Array.length a.mag && (a.mag.(limb) lsr bit) land 1 = 1
  end

(* ------------------------------------------------------------------ *)
(* Number theory. *)

(* Binary (Stein) gcd: for odd u > v, gcd(u, v) = gcd((u - v) / 2^j, v),
   so every step is one subtraction and one shift, done in place on two
   copies of the magnitudes regrouped into 62-bit limbs (two 31-bit
   limbs each), with no division and no allocation per step. *)
let gcd_limb_bits = 2 * limb_bits
let gcd_mask = (1 lsl gcd_limb_bits) - 1

let gcd_limbs_of_nat (a : int array) =
  let la = Array.length a in
  Array.init ((la + 1) / 2) (fun i ->
      let hi = if (2 * i) + 1 < la then a.((2 * i) + 1) lsl limb_bits else 0 in
      a.(2 * i) lor hi)

let nat_of_gcd_limbs (x : int array) len =
  let r = Array.make (2 * len) 0 in
  for i = 0 to len - 1 do
    r.(2 * i) <- x.(i) land mask;
    r.((2 * i) + 1) <- x.(i) lsr limb_bits
  done;
  trim r

(* Count of trailing zero bits of a non-zero value. *)
let gcd_twos x =
  let i = ref 0 in
  while x.(!i) = 0 do
    incr i
  done;
  let c = ref 0 in
  while (x.(!i) lsr !c) land 1 = 0 do
    incr c
  done;
  (!i * gcd_limb_bits) + !c

(* x (of [len] limbs) >>= s in place; returns the trimmed length. *)
let gcd_shift_right x len s =
  let limbs = s / gcd_limb_bits and bits = s mod gcd_limb_bits in
  let n = len - limbs in
  for i = 0 to n - 1 do
    let hi =
      if bits > 0 && i + limbs + 1 < len then
        (x.(i + limbs + 1) lsl (gcd_limb_bits - bits)) land gcd_mask
      else 0
    in
    x.(i) <- (x.(i + limbs) lsr bits) lor hi
  done;
  let n = ref n in
  while !n > 0 && x.(!n - 1) = 0 do
    decr n
  done;
  !n

let gcd_cmp x xl y yl =
  if xl <> yl then Int.compare xl yl
  else begin
    let i = ref (xl - 1) in
    while !i >= 0 && x.(!i) = y.(!i) do
      decr i
    done;
    if !i < 0 then 0 else Int.compare x.(!i) y.(!i)
  end

(* x -= y in place, for x > y; a negative difference has bit 62 set. *)
let gcd_sub x xl y yl =
  let borrow = ref 0 in
  for i = 0 to xl - 1 do
    let d = x.(i) - (if i < yl then y.(i) else 0) - !borrow in
    x.(i) <- d land gcd_mask;
    borrow := (d lsr gcd_limb_bits) land 1
  done

let gcd a b =
  if a.sign = 0 then abs b
  else if b.sign = 0 then abs a
  else begin
    let u = gcd_limbs_of_nat a.mag and v = gcd_limbs_of_nat b.mag in
    let tu = gcd_twos u and tv = gcd_twos v in
    let ul = ref (gcd_shift_right u (Array.length u) tu)
    and vl = ref (gcd_shift_right v (Array.length v) tv) in
    let c = ref (gcd_cmp u !ul v !vl) in
    while !c <> 0 do
      if !c > 0 then begin
        gcd_sub u !ul v !vl;
        ul := gcd_shift_right u !ul (gcd_twos u)
      end
      else begin
        gcd_sub v !vl u !ul;
        vl := gcd_shift_right v !vl (gcd_twos v)
      end;
      c := gcd_cmp u !ul v !vl
    done;
    shift_left (make 1 (nat_of_gcd_limbs u !ul)) (Stdlib.min tu tv)
  end

let extended_gcd a b =
  (* Invariants: r = u*a + v*b for both running rows. *)
  let rec go r0 u0 v0 r1 u1 v1 =
    if is_zero r1 then (r0, u0, v0)
    else begin
      let q = div r0 r1 in
      go r1 u1 v1 (sub r0 (mul q r1)) (sub u0 (mul q u1)) (sub v0 (mul q v1))
    end
  in
  let g, u, v = go a one zero b zero one in
  if g.sign < 0 then (neg g, neg u, neg v) else (g, u, v)

let mod_inverse a m =
  if m.sign <= 0 then invalid_arg "Bigint.mod_inverse: modulus must be positive"
  else begin
    let g, u, _ = extended_gcd (emod a m) m in
    if is_one g then Some (emod u m) else None
  end

(* Plain square-and-multiply with full divisions after every step: the
   reference implementation, and the arithmetic of a plain context. *)
let mod_pow_plain b e m =
  let nbits = numbits e in
  let result = ref one and acc = ref b in
  for i = 0 to nbits - 1 do
    if testbit e i then result := emod (mul !result !acc) m;
    if i < nbits - 1 then acc := emod (mul !acc !acc) m
  done;
  !result

(* b^e mod m for m > 0, with a negative exponent inverting the base
   first.  [wide] computes exponents of more than 16 bits; below that
   the division-based loop beats the domain conversions (a square, e = 2,
   takes about 1.1 µs plain and 1.4 µs through the kernel at 256 bits). *)
let pow_checked name b e m ~wide =
  if is_one m then zero
  else begin
    let b =
      if e.sign < 0 then
        match mod_inverse b m with
        | Some inv -> inv
        | None -> invalid_arg (name ^ ": negative exponent, base not invertible")
      else emod b m
    in
    let e = abs e in
    if numbits e > 16 then wide b e else mod_pow_plain b e m
  end

(* ------------------------------------------------------------------ *)
(* Montgomery arithmetic for odd moduli runs on the C kernel in
   bigint_stubs.c: one product-scanning multiply over native-endian
   64-bit words with R = 2^(64k) for a k-word modulus, which squares
   too; a table of odd powers per base; and a whole sliding-window
   exponentiation of one or more bases over those tables per call.  The
   kernels are stateless, and every result and table is allocated here
   and passed in.  The multiply is noalloc and runs in place; the other
   two are ordinary externals, since a large call copies its operands
   into C memory and runs without the runtime lock, so other threads
   compute (and collect) meanwhile. *)

(* ctx r a b scratch: r <- a * b * R^-1 mod m; scratch is k words. *)
external kernel_mont_mul : Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> Bytes.t -> unit
  = "secmed_bigint_mont_mul"
[@@noalloc]

(* ctx table base: table <- base, base^3, ..., one odd power per k words
   of the table (a power of two of them). *)
external kernel_mont_odd_powers : Bytes.t -> Bytes.t -> Bytes.t -> unit
  = "secmed_bigint_mont_odd_powers"

(* ctx r tables exps: r <- the product of b_i^exps_i, for n bases given
   as their odd-power tables and their exponents as 31-bit limbs, at
   least one non-zero. *)
external kernel_mont_multi_pow : Bytes.t -> Bytes.t -> Bytes.t array -> int array array -> unit
  = "secmed_bigint_mont_multi_pow"

(* The sliding-window width for a base raised in [uses] exponentiations
   of [bits]-bit exponents: its table's 2^(w-1) multiplies are shared by
   the uses, and a scan makes about bits/(w+1) multiplies for it, so the
   width minimises 2^(w-1)/uses + bits/(w+1), up to 8.  Widening from w
   to w + 1 adds 2^(w-1)/uses and saves bits/((w+1)(w+2)), so it pays
   while 2^(w-1)(w+1)(w+2) < bits * uses; the left side grows with w,
   so the first w where it stops paying is the minimum. *)
let max_window = 8

let window_width ~uses ~bits =
  let w = ref 1 in
  while !w < max_window && (1 lsl (!w - 1)) * (!w + 1) * (!w + 2) < bits * Stdlib.max 1 uses do
    incr w
  done;
  !w

let word_bits = 64

let words_for m = Stdlib.max 1 ((nat_numbits m + word_bits - 1) / word_bits)

(* The magnitude [a] (below 2^(64k)) as k words, least significant
   first, each in native byte order. *)
let words_of_nat k (a : int array) =
  let w = Bytes.make (8 * k) '\000' in
  let acc = ref 0L and fill = ref 0 and pos = ref 0 in
  for i = 0 to Array.length a - 1 do
    let limb = a.(i) in
    acc := Int64.logor !acc (Int64.shift_left (Int64.of_int limb) !fill);
    fill := !fill + limb_bits;
    if !fill >= word_bits then begin
      Bytes.set_int64_ne w !pos !acc;
      pos := !pos + 8;
      fill := !fill - word_bits;
      acc := Int64.of_int (limb lsr (limb_bits - !fill))
    end
  done;
  (* Bits left over past the last whole word are zero when they would
     fall outside the k words. *)
  if !fill > 0 && !pos < Bytes.length w then Bytes.set_int64_ne w !pos !acc;
  w

let nat_of_words (w : Bytes.t) =
  let k = Bytes.length w / 8 in
  let n = ((word_bits * k) + limb_bits - 1) / limb_bits in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let bit = i * limb_bits in
    let wi = bit / word_bits and off = bit mod word_bits in
    let lo = Int64.shift_right_logical (Bytes.get_int64_ne w (8 * wi)) off in
    let v =
      if off + limb_bits > word_bits && wi + 1 < k then
        Int64.logor lo (Int64.shift_left (Bytes.get_int64_ne w (8 * (wi + 1))) (word_bits - off))
      else lo
    in
    r.(i) <- Int64.to_int v land mask
  done;
  trim r

(* ------------------------------------------------------------------ *)
(* Per-modulus contexts: the only code that knows whether a modulus
   runs on the Montgomery kernel (odd m > 1) or in the plain residue
   ring (even m, or m = 1, where no Montgomery inverse exists).  Both
   kinds answer the same in-domain operations, so every caller above
   this module runs one code path for any modulus. *)

module Ctx = struct
  type kind =
    | Mont of {
        kernel_ctx : Bytes.t; (* m's k words, then -m^{-1} mod 2^64 *)
        one : Bytes.t; (* R mod m: the Montgomery representation of 1 *)
        r2 : Bytes.t; (* R^2 mod m: converts into the domain by a multiply *)
        unit_words : Bytes.t; (* plain 1: converts out of the domain *)
      }
    | Plain

  type ctx = { modulus : t; kind : kind; words : int }

  (* Representative: exactly [words] 64-bit words below m, in the
     Montgomery domain for a [Mont] context and the ordinary residue
     ring for a [Plain] one. *)
  type mont = Bytes.t

  (* Inverse of an odd word modulo 2^64 by Newton iteration: m0 is its
     own inverse to 3 bits, and each step doubles the correct bits. *)
  let word_inverse m0 =
    let x = ref m0 in
    for _ = 1 to 5 do
      x := Int64.mul !x (Int64.sub 2L (Int64.mul m0 !x))
    done;
    !x

  let create modulus =
    if modulus.sign <= 0 then invalid_arg "Bigint.Ctx.create: modulus must be positive";
    let k = words_for modulus.mag in
    let kind =
      if is_even modulus || is_one modulus then Plain
      else begin
        let kernel_ctx = Bytes.make (8 * (k + 1)) '\000' in
        Bytes.blit (words_of_nat k modulus.mag) 0 kernel_ctx 0 (8 * k);
        Bytes.set_int64_ne kernel_ctx (8 * k)
          (Int64.neg (word_inverse (Bytes.get_int64_ne kernel_ctx 0)));
        let r_pow i = words_of_nat k (emod (shift_left one (i * k * word_bits)) modulus).mag in
        Mont { kernel_ctx; one = r_pow 1; r2 = r_pow 2; unit_words = words_of_nat k [| 1 |] }
      end
    in
    { modulus; kind; words = k }

  let modulus c = c.modulus
  let uses_montgomery c = match c.kind with Mont _ -> true | Plain -> false
  let mod_mul c a b = emod (mul a b) c.modulus

  let kernel_mul c kernel_ctx a b =
    let r = Bytes.create (8 * c.words) in
    kernel_mont_mul kernel_ctx r a b (Bytes.create (8 * c.words));
    r

  let plain_words c x = words_of_nat c.words (emod x c.modulus).mag
  let value r = make 1 (nat_of_words r)

  let to_mont c x =
    let x = plain_words c x in
    match c.kind with
    | Mont mc -> kernel_mul c mc.kernel_ctx x mc.r2
    | Plain -> x

  (* The kernel reads exactly [words] words of every operand, so an
     operand from a context of another width is refused here. *)
  let check c (r : mont) =
    if Bytes.length r <> 8 * c.words then
      invalid_arg "Bigint.Ctx: representative from another context"

  let of_mont c r =
    check c r;
    match c.kind with
    | Mont mc -> value (kernel_mul c mc.kernel_ctx r mc.unit_words)
    | Plain -> value r

  let mont_one c = match c.kind with Mont mc -> mc.one | Plain -> plain_words c one

  (* Representatives are canonical (below m, fixed width), so byte
     equality decides value equality. *)
  let mont_equal (a : mont) (b : mont) = Bytes.equal a b

  let mont_mul c a b =
    check c a;
    check c b;
    match c.kind with
    | Mont mc -> kernel_mul c mc.kernel_ctx a b
    | Plain -> plain_words c (mul (value a) (value b))

  (* A base's table: its odd powers b, b^3, ..., b^(2^w - 1) in the
     domain, for the width the cost rule picks.  A Plain context keeps
     the base alone, since its powers divide anyway. *)
  type table = Bytes.t

  let table c b ~uses ~bits =
    check c b;
    match c.kind with
    | Mont mc ->
      let k = c.words in
      let t = Bytes.create ((8 * k) lsl (window_width ~uses ~bits - 1)) in
      kernel_mont_odd_powers mc.kernel_ctx t b;
      t
    | Plain -> b

  (* A table holds a power of two of k-word entries, at most
     2^(max_window - 1), so the kernel reads it whole. *)
  let check_table c (t : table) =
    let entries = Bytes.length t / (8 * c.words) in
    if Bytes.length t mod (8 * c.words) <> 0 || entries = 0 || entries land (entries - 1) <> 0
       || entries > 1 lsl (max_window - 1)
    then invalid_arg "Bigint.Multi_exp: table from another context"

  (* The product of the tables' bases raised to [exps] in the domain: one
     kernel call sharing one squaring chain, or the residue ring for a
     Plain context. *)
  let multi_pow c (tables : table array) exps =
    if Array.length tables <> Array.length exps then
      invalid_arg "Bigint.Multi_exp.pow: one exponent per table";
    if Array.exists (fun e -> e.sign < 0) exps then
      invalid_arg "Bigint.Multi_exp.pow: negative exponent";
    Array.iter (check_table c) tables;
    match c.kind with
    | Mont mc when Array.for_all is_zero exps -> mc.one
    | Mont mc ->
      let k = c.words in
      let r = Bytes.create (8 * k) in
      kernel_mont_multi_pow mc.kernel_ctx r tables (Array.map (fun e -> e.mag) exps);
      r
    | Plain ->
      let powers = Array.mapi (fun i t -> mod_pow_plain (value t) exps.(i) c.modulus) tables in
      plain_words c (Array.fold_left (fun acc p -> emod (mul acc p) c.modulus) one powers)

  let mont_pow c b e = multi_pow c [| table c b ~uses:1 ~bits:(numbits e) |] [| e |]

  let mod_pow c b e =
    pow_checked "Bigint.Ctx.mod_pow" b e c.modulus ~wide:(fun b e ->
        of_mont c (mont_pow c (to_mont c b) e))
end

(* ------------------------------------------------------------------ *)
(* Bounded least-recently-used caches, one per domain and per kind of
   entry.  Entries are immutable once built, but the slots, stamps and
   counters are not, so each domain keeps its own and concurrent domains
   never race on the bookkeeping; the price is one rebuild per (domain,
   entry) pair.  Threads of one domain share its caches: a switch inside
   an update can lose an entry or a count, but a lookup returns only an
   entry that matches. *)

let lru_slots = 8

type 'a lru = {
  entries : 'a option array;
  stamps : int array; (* last use; 0 for an empty slot *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let lru_key () =
  Domain.DLS.new_key (fun () ->
      { entries = Array.make lru_slots None; stamps = Array.make lru_slots 0; tick = 0;
        hits = 0; misses = 0 })

(* The first entry satisfying [matches]; on a miss, [build ()] replaces
   the least recently used slot. *)
let lru_find key matches build =
  let st = Domain.DLS.get key in
  st.tick <- st.tick + 1;
  let rec find i =
    if i = lru_slots then None
    else
      match st.entries.(i) with
      | Some v when matches v ->
        st.stamps.(i) <- st.tick;
        Some v
      | _ -> find (i + 1)
  in
  match find 0 with
  | Some v ->
    st.hits <- st.hits + 1;
    v
  | None ->
    st.misses <- st.misses + 1;
    let v = build () in
    let victim = ref 0 in
    for i = 1 to lru_slots - 1 do
      if st.stamps.(i) < st.stamps.(!victim) then victim := i
    done;
    st.entries.(!victim) <- Some v;
    st.stamps.(!victim) <- st.tick;
    v

(* The protocol workloads reuse a handful of moduli (n^2, p, q, prime
   candidates) across thousands of exponentiations; caching their
   contexts pays the Montgomery setup once per modulus instead of once
   per exponentiation, without any caller-visible API change. *)
let ctx_cache : Ctx.ctx lru Domain.DLS.key = lru_key ()

let ctx_cache_stats () =
  let st = Domain.DLS.get ctx_cache in
  (st.hits, st.misses)

let ctx_cache_reset () =
  let st = Domain.DLS.get ctx_cache in
  Array.fill st.entries 0 lru_slots None;
  Array.fill st.stamps 0 lru_slots 0;
  st.tick <- 0;
  st.hits <- 0;
  st.misses <- 0

let ctx_of_modulus m = lru_find ctx_cache (fun c -> equal c.Ctx.modulus m) (fun () -> Ctx.create m)

let cached_ctx m =
  if m.sign <= 0 then invalid_arg "Bigint.cached_ctx: modulus must be positive"
  else ctx_of_modulus m

(* Only odd moduli enter the cache: an even one needs no setup. *)
let mod_pow b e m =
  if m.sign <= 0 then invalid_arg "Bigint.mod_pow: modulus must be positive"
  else
    pow_checked "Bigint.mod_pow" b e m ~wide:(fun b e ->
        let c = if is_odd m then ctx_of_modulus m else Ctx.create m in
        Ctx.of_mont c (Ctx.mont_pow c (Ctx.to_mont c b) e))

(* ------------------------------------------------------------------ *)
(* Fixed-base windowed exponentiation.  For a base that is raised to
   many different exponents under one modulus (group generators, public
   keys), precompute base^(d * 16^i) for every 4-bit window position i
   and digit d in the context's domain: an exponentiation then costs one
   multiplication per non-zero window and no squarings at all. *)

module Fixed_base = struct
  let window = 4

  type fb = {
    fb_ctx : Ctx.ctx;
    fb_base : t;
    covered_bits : int; (* exponents of up to this many bits use the table *)
    table : Ctx.mont array array; (* table.(i).(d-1) = base^(d * 16^i) *)
  }

  let create ~base ~modulus ~bits =
    if bits <= 0 then invalid_arg "Bigint.Fixed_base.create: bits must be positive";
    let fb_ctx = Ctx.create modulus in
    let windows = (bits + window - 1) / window in
    let digits = (1 lsl window) - 1 in
    let cur = ref (Ctx.to_mont fb_ctx base) in
    let table =
      Array.init windows (fun _ ->
          let row = Array.make digits !cur in
          for d = 1 to digits - 1 do
            row.(d) <- Ctx.mont_mul fb_ctx row.(d - 1) !cur
          done;
          (* base^(16^(i+1)) = base^(15 * 16^i) * base^(16^i). *)
          cur := Ctx.mont_mul fb_ctx row.(digits - 1) !cur;
          row)
    in
    { fb_ctx; fb_base = base; covered_bits = windows * window; table }

  let covers fb e = e.sign >= 0 && numbits e <= fb.covered_bits

  (* acc * base^e in the domain, for an exponent the table covers: one
     table multiplication per non-zero window. *)
  let scan fb acc e =
    let acc = ref acc in
    for i = 0 to ((numbits e + window - 1) / window) - 1 do
      let digit = ref 0 in
      for bit = window - 1 downto 0 do
        digit := (!digit lsl 1) lor (if testbit e ((i * window) + bit) then 1 else 0)
      done;
      if !digit <> 0 then acc := Ctx.mont_mul fb.fb_ctx !acc fb.table.(i).(!digit - 1)
    done;
    !acc

  (* Negative exponents and exponents wider than the table take the
     context's general exponentiation. *)
  let pow fb e =
    if covers fb e then Ctx.of_mont fb.fb_ctx (scan fb (Ctx.mont_one fb.fb_ctx) e)
    else Ctx.mod_pow fb.fb_ctx fb.fb_base e

  (* A cached table is reused when it covers at least [bits]. *)
  let cache : fb lru Domain.DLS.key = lru_key ()

  let cached ~base ~modulus ~bits =
    lru_find cache
      (fun fb ->
        equal fb.fb_base base && equal (Ctx.modulus fb.fb_ctx) modulus && fb.covered_bits >= bits)
      (fun () -> create ~base ~modulus ~bits)
end

(* ------------------------------------------------------------------ *)
(* Simultaneous multi-exponentiation (Straus's method) over odd-power
   tables that callers build once per base and reuse across calls: one
   kernel call scans every exponent's sliding windows together in one
   context's domain, so the squaring chain is paid once, and a table
   built for many uses is paid once too, which is the shape of PM's
   evaluation of one polynomial at many points. *)

module Multi_exp = struct
  type table = Ctx.table

  let table = Ctx.table
  let pow = Ctx.multi_pow

  (* a * b^e with the conversions fused: one conversion of [a] into the
     domain instead of a full-width modular multiplication at the end. *)
  let mul_pow c a b e =
    if e.sign < 0 then Ctx.mod_mul c a (Ctx.mod_pow c b e)
    else Ctx.of_mont c (Ctx.mont_mul c (Ctx.to_mont c a) (Ctx.mont_pow c (Ctx.to_mont c b) e))

  (* a * base^e against a fixed-base table: the window multiplications
     accumulate directly onto [a] in the domain. *)
  let mul_pow_fb (fb : Fixed_base.fb) a e =
    let c = fb.Fixed_base.fb_ctx in
    if Fixed_base.covers fb e then Ctx.of_mont c (Fixed_base.scan fb (Ctx.to_mont c a) e)
    else Ctx.mod_mul c a (Fixed_base.pow fb e)
end

(* ------------------------------------------------------------------ *)
(* String conversions.  Decimal I/O works in chunks of 9 digits
   (10^9 < 2^31 fits in one limb). *)

let chunk_pow = 1_000_000_000
let chunk_digits = 9

let to_string a =
  if a.sign = 0 then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks acc mag =
      if Array.length mag = 0 then acc
      else begin
        let q, r = nat_divmod_limb mag chunk_pow in
        chunks (r :: acc) q
      end
    in
    (match chunks [] a.mag with
     | [] -> assert false
     | first :: rest ->
       if a.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let to_hex a =
  if a.sign = 0 then "0x0"
  else begin
    let buf = Buffer.create 32 in
    if a.sign < 0 then Buffer.add_char buf '-';
    Buffer.add_string buf "0x";
    let nbits = numbits a in
    let top_nibble = ((nbits - 1) / 4) * 4 in
    let started = ref false in
    let pos = ref top_nibble in
    while !pos >= 0 do
      let nib = ref 0 in
      for b = 3 downto 0 do
        nib := (!nib lsl 1) lor (if testbit a (!pos + b) then 1 else 0)
      done;
      if !nib <> 0 || !started || !pos = 0 then begin
        started := true;
        Buffer.add_char buf "0123456789abcdef".[!nib]
      end;
      pos := !pos - 4
    done;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

let parse_decimal s start =
  let len = String.length s in
  if start >= len then invalid_arg "Bigint.of_string: empty magnitude";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let scale = pow (of_int 10) !chunk_len in
      acc := add (mul !acc scale) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  let saw_digit = ref false in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' as c ->
      saw_digit := true;
      chunk := (!chunk * 10) + (Char.code c - Char.code '0');
      incr chunk_len;
      if !chunk_len = chunk_digits then flush ()
    | '_' -> ()
    | c -> invalid_arg (Printf.sprintf "Bigint.of_string: bad character %C" c)
  done;
  flush ();
  if not !saw_digit then invalid_arg "Bigint.of_string: no digits";
  !acc

let parse_hex s start =
  let len = String.length s in
  let acc = ref zero in
  let saw_digit = ref false in
  for i = start to len - 1 do
    match s.[i] with
    | '_' -> ()
    | c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> invalid_arg (Printf.sprintf "Bigint.of_string: bad hex character %C" c)
      in
      saw_digit := true;
      acc := add (shift_left !acc 4) (of_int v)
  done;
  if not !saw_digit then invalid_arg "Bigint.of_string: no digits";
  !acc

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  let v =
    if len - start >= 2 && s.[start] = '0' && (s.[start + 1] = 'x' || s.[start + 1] = 'X')
    then parse_hex s (start + 2)
    else parse_decimal s start
  in
  if negative then neg v else v

let of_string_opt s = try Some (of_string s) with Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Byte serialization (big-endian, magnitude only). *)

(* Both directions run once over the bytes, least significant first,
   through a bit accumulator of at most 38 bits: 31-bit limbs leave it
   as bytes arrive, and bytes leave it as limbs are read. *)

let of_bytes_be s =
  let n = String.length s in
  let mag = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and limb = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code (String.unsafe_get s i) lsl !bits);
    bits := !bits + 8;
    if !bits >= limb_bits then begin
      mag.(!limb) <- !acc land mask;
      incr limb;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits
    end
  done;
  if !bits > 0 then mag.(!limb) <- !acc;
  make 1 mag

(* The magnitude as [width] big-endian bytes; [width] is at least the
   value's byte length, so the bytes left once [pos] passes the front
   (the top limb's high zero bits) are all zero. *)
let write_bytes_be width a =
  let out = Bytes.make width '\000' in
  let acc = ref 0 and bits = ref 0 and pos = ref (width - 1) in
  Array.iter
    (fun l ->
      acc := !acc lor (l lsl !bits);
      bits := !bits + limb_bits;
      while !bits >= 8 && !pos >= 0 do
        Bytes.unsafe_set out !pos (Char.unsafe_chr (!acc land 0xff));
        decr pos;
        acc := !acc lsr 8;
        bits := !bits - 8
      done)
    a.mag;
  if !acc <> 0 then Bytes.set out !pos (Char.unsafe_chr !acc);
  Bytes.unsafe_to_string out

let byte_length a = (numbits a + 7) / 8

let to_bytes_be a =
  if a.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative value"
  else write_bytes_be (byte_length a) a

let to_bytes_be_padded width a =
  if a.sign < 0 then invalid_arg "Bigint.to_bytes_be: negative value"
  else if byte_length a > width then invalid_arg "Bigint.to_bytes_be_padded: value too wide"
  else write_bytes_be width a

(* ------------------------------------------------------------------ *)
(* Randomness. *)

let random_bits rand_bytes n =
  if n < 0 then invalid_arg "Bigint.random_bits: negative bit count"
  else if n = 0 then zero
  else begin
    let nbytes = (n + 7) / 8 in
    let s = rand_bytes nbytes in
    if String.length s <> nbytes then invalid_arg "Bigint.random_bits: bad byte source";
    let excess = (nbytes * 8) - n in
    let v = of_bytes_be s in
    shift_right v excess
  end

let random_below rand_bytes bound =
  if bound.sign <= 0 then invalid_arg "Bigint.random_below: bound must be positive"
  else begin
    let nbits = numbits bound in
    let rec draw () =
      let v = random_bits rand_bytes nbits in
      if compare v bound < 0 then v else draw ()
    in
    draw ()
  end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
  let ( ~- ) = neg
end

(* Integer square root by Newton's method on the bit-length-based initial
   guess; monotone convergence from above. *)
let isqrt n =
  if n.sign < 0 then invalid_arg "Bigint.isqrt: negative input"
  else if is_zero n then zero
  else begin
    let initial = shift_left one ((numbits n + 1) / 2) in
    let rec refine x =
      let next = shift_right (add x (div n x)) 1 in
      if compare next x < 0 then refine next else x
    in
    refine initial
  end

let is_square n =
  if n.sign < 0 then false
  else begin
    let s = isqrt n in
    equal (mul s s) n
  end
