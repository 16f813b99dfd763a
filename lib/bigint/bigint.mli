(** Arbitrary-precision signed integers.

    From-scratch sign–magnitude implementation on 31-bit limbs, with no
    bignum library (no GMP, no zarith): OCaml throughout, except the
    Montgomery multiply and exponentiation behind {!mod_pow} and {!Ctx},
    which run in a small C kernel over 64-bit words.  All operations are
    functional; values are immutable and structurally comparable via
    {!compare}/{!equal}.

    Modular arithmetic has one path: a {!Ctx.ctx} alone chooses whether
    its modulus runs on the Montgomery kernel (odd moduli) or in the
    plain residue ring (even moduli and 1), and every other modular
    operation here ({!mod_pow}, {!Fixed_base}, {!Multi_exp}) is written
    once against it.

    Conventions: [div]/[rem] truncate toward zero (like OCaml's [/] and
    [mod]); [ediv]/[emod] are Euclidean (remainder always non-negative). *)

type t

exception Overflow
(** Raised by {!to_int} when the value does not fit in an OCaml [int]. *)

exception Division_by_zero_big
(** Raised by division and modular operations on a zero divisor/modulus. *)

(** {1 Constants} *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t
val to_int : t -> int
val to_int_opt : t -> int option

val of_string : string -> t
(** Parses an optional sign followed by decimal digits, or a ["0x"]-prefixed
    hexadecimal literal.  Underscores are permitted as digit separators.
    Raises [Invalid_argument] on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string
val to_hex : t -> string
(** Lowercase hexadecimal magnitude with a ["-"] sign prefix if negative and
    a ["0x"] prefix. *)

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparison} *)

val sign : t -> int
(** [-1], [0] or [1]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val succ : t -> t
val pred : t -> t
val mul : t -> t -> t

val karatsuba_threshold : int
(** Operand width in limbs from which {!mul} splits Karatsuba-style: 64,
    the median of three runs of the A4 calibration sweep
    ([bench ablation-karatsuba]), which times one split against
    schoolbook in interleaved pairs and read the crossover at 60, 64 and
    67 limbs. *)

val mul_karatsuba : threshold:int -> t -> t -> t
(** {!mul} with an explicit split threshold in limbs ([mul] is
    [mul_karatsuba ~threshold:karatsuba_threshold]); a threshold wider
    than both operands is pure schoolbook.  For the A4 sweep and the
    Karatsuba-vs-schoolbook test. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], [q] truncated toward zero
    and [sign r = sign a] (or [r = 0]). *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv : t -> t -> t
val emod : t -> t -> t
(** Euclidean division: [emod a b] is in [\[0, |b|)]. *)

val pow : t -> int -> t
(** [pow a n] for [n >= 0]; raises [Invalid_argument] on negative [n]. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

(** {1 Bit operations}

    Bit operations act on the magnitude for non-negative values; shifting
    negative values keeps the sign and shifts the magnitude. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val testbit : t -> int -> bool
val numbits : t -> int
(** Position of the highest set bit plus one; [numbits zero = 0]. *)

(** {1 Number theory} *)

val gcd : t -> t -> t
(** Non-negative gcd; [gcd zero zero = zero]. *)

val extended_gcd : t -> t -> t * t * t
(** [extended_gcd a b = (g, u, v)] with [u*a + v*b = g] and [g = gcd a b]. *)

val mod_inverse : t -> t -> t option
(** [mod_inverse a m] is [Some x] with [a*x = 1 (mod m)], [0 <= x < m], when
    [gcd a m = 1]; [None] otherwise.  Requires [m > 0]. *)

val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m] (Euclidean residue).  Negative exponents
    use the modular inverse of [b] and raise [Invalid_argument] when the
    inverse does not exist.  Requires [m > 0].

    Exponents of more than 16 bits run in a {!Ctx} context; an odd
    modulus's context is memoized in a small transparent cache (see
    {!ctx_cache_stats}), so repeated exponentiations under the same
    modulus — the shape of every protocol in this system — pay the
    Montgomery setup once.  Shorter exponents take {!mod_pow_plain},
    which beats the domain conversions at that size. *)

(** {1 Modular-ring contexts}

    A {!Ctx.ctx} packages the per-modulus state so hot loops pay the
    setup once and chain operations in the context's domain without
    converting in and out at every step.  An odd modulus above 1 gets a
    Montgomery context (word inverse, R mod m and R^2 mod m, for
    R = 2^(64k) and a k-word modulus) on the C kernel; an even modulus
    or 1, which has no Montgomery inverse, gets a plain context whose
    domain is the ordinary residue ring.  Both kinds answer every
    operation below with the same results. *)

module Ctx : sig
  type ctx
  (** Reusable context for one fixed modulus. *)

  type mont
  (** A residue in Montgomery representation (plain representation for
      even-modulus contexts).  Only meaningful with the context that
      produced it. *)

  val create : t -> ctx
  (** Requires a positive modulus; raises [Invalid_argument] otherwise. *)

  val modulus : ctx -> t

  val uses_montgomery : ctx -> bool
  (** The context's kind: true iff the modulus is odd and above 1, so
      operations run in the Montgomery domain.  Only the tests read
      it; no caller needs to branch on it. *)

  val mod_pow : ctx -> t -> t -> t
  (** As {!Bigint.mod_pow} with the cached context; same conventions for
      negative exponents. *)

  val mod_mul : ctx -> t -> t -> t
  (** [a * b mod m] in the ordinary domain. *)

  val to_mont : ctx -> t -> mont
  (** Reduces mod m and converts into the Montgomery domain. *)

  val of_mont : ctx -> mont -> t

  val mont_one : ctx -> mont
  (** The representative of 1. *)

  val mont_equal : mont -> mont -> bool
  (** Value equality of two representatives of the same context. *)

  val mont_mul : ctx -> mont -> mont -> mont

  val mont_pow : ctx -> mont -> t -> mont
  (** In-domain sliding-window exponentiation: a {!Multi_exp.table} for
      one use, then one scan.  The exponent is an ordinary non-negative
      integer (raises [Invalid_argument] when negative). *)
end

val ctx_cache_stats : unit -> int * int
(** (hits, misses) of the transparent context cache inside {!mod_pow}
    since the last {!ctx_cache_reset}.  The cache is domain-local: each
    OCaml 5 domain sees (and resets) only its own slots and counters, so
    concurrent domains never contend on the LRU bookkeeping.  Threads of
    one domain share it; an update a thread switch interrupts can lose an
    entry or a count, never return a wrong entry. *)

val ctx_cache_reset : unit -> unit
(** Empties the calling domain's transparent context cache and zeroes
    its counters. *)

val cached_ctx : t -> Ctx.ctx
(** The context for [m] from the same domain-local transparent cache
    that {!mod_pow} uses — for callers that want {!Ctx} or {!Multi_exp}
    operations against a modulus without managing context lifetimes.
    Requires [m > 0]. *)

(** {1 Fixed-base exponentiation}

    For a base raised to many exponents under one modulus (group
    generators, long-lived public keys), a precomputed table of
    [base^(d * 16^i)] in the context's domain turns each exponentiation
    into at most one multiplication per 4-bit window — no squarings. *)

module Fixed_base : sig
  type fb

  val create : base:t -> modulus:t -> bits:int -> fb
  (** Precomputes the window table covering exponents of up to [bits]
      bits (rounded up to a whole number of 4-bit windows).  Requires
      [bits > 0] and [modulus > 0]. *)

  val cached : base:t -> modulus:t -> bits:int -> fb
  (** Bounded memoized variant of {!create} keyed on (base, modulus);
      a cached table is reused when it covers at least [bits]. *)

  val pow : fb -> t -> t
  (** [pow fb e = base^e mod modulus].  Exponents that are negative or
      wider than the table take {!Ctx.mod_pow} (still correct, not
      table-accelerated). *)
end

(** {1 Simultaneous multi-exponentiation}

    Straus's method with interleaved sliding windows:
    [b_1^e_1 * ... * b_n^e_n mod m] in one kernel call, with one squaring
    chain shared by every base and about [|e_i|/(w_i+1)] multiplications
    per base.  Each base is given as a {!table} of its odd powers
    [b, b^3, ..., b^(2^w - 1)], built once and reused by any number of
    calls: PM builds one per encrypted coefficient and evaluates a
    polynomial at every point of a source with it.  {!Ctx.mont_pow} runs
    the same scan over a table built for one use.  Plain contexts
    multiply residue-ring powers.  The fused products [a * b^e] serve
    Paillier's encryption and ElGamal's encryption and decryption. *)

module Multi_exp : sig
  type table
  (** A base's odd powers in a context's representation; read-only, so
      any number of threads and domains may share one. *)

  val table : Ctx.ctx -> Ctx.mont -> uses:int -> bits:int -> table
  (** [table c b ~uses ~bits] is the table of [b] for [uses]
      exponentiations of exponents of about [bits] bits.  Its window
      width w minimises [2^(w-1)/uses + bits/(w+1)] (the table's
      multiplies shared by the uses, plus one scan's), up to 8. *)

  val pow : Ctx.ctx -> table array -> t array -> Ctx.mont
  (** [pow c tables exps] is the product of each table's base raised to
      the exponent at the same index, in the context's representation.
      Raises [Invalid_argument] on a negative exponent, on arrays of
      different lengths, or on a table whose size no table of the
      context has. *)

  val mul_pow : Ctx.ctx -> t -> t -> t -> t
  (** [mul_pow c a b e = a * b^e mod m] with the domain conversions
      fused (one conversion of [a] instead of a full-width final
      modular multiplication).  Negative [e] takes the general
      inverse-based route of {!Ctx.mod_pow}. *)

  val mul_pow_fb : Fixed_base.fb -> t -> t -> t
  (** [mul_pow_fb fb a e = a * base^e mod m] where [base]/[m] come from
      the fixed-base table: the window multiplications accumulate
      directly onto [a] in the context's domain.  Exponents outside the
      table's coverage take [Fixed_base.pow] then multiply. *)
end

(** {1 Byte serialization} *)

val of_bytes_be : string -> t
(** Non-negative value from big-endian bytes; [""] maps to [zero]. *)

val to_bytes_be : t -> string
(** Minimal big-endian encoding of the magnitude ([zero] gives [""]).
    Raises [Invalid_argument] on negative values. *)

val to_bytes_be_padded : int -> t -> string
(** Big-endian encoding left-padded with zero bytes to exactly the given
    width.  Raises [Invalid_argument] if the value needs more bytes. *)

(** {1 Randomness}

    Random values are drawn through a caller-supplied byte source so the
    library stays agnostic of the RNG (tests use deterministic sources). *)

val random_bits : (int -> string) -> int -> t
(** [random_bits rand_bytes n] is uniform in [\[0, 2^n)]. *)

val random_below : (int -> string) -> t -> t
(** [random_below rand_bytes bound] is uniform in [\[0, bound)] by rejection
    sampling.  Requires [bound > 0]. *)

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( <> ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
  val ( ~- ) : t -> t
end

(** {1 Reference and number-theoretic helpers} *)

val mod_pow_plain : t -> t -> t -> t
(** Reference modular exponentiation (no Montgomery), exported for
    differential testing and the ablation benchmark.  Requires a
    non-negative base already reduced mod m and a non-negative exponent. *)

val isqrt : t -> t
(** Integer square root: the largest s with s*s <= n.  Raises
    [Invalid_argument] on negative input. *)

val is_square : t -> bool
