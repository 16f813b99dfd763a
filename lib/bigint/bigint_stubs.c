/* Montgomery arithmetic over 64-bit words.
 *
 * The modular-exponentiation hot path of every scheme: one
 * product-scanning Montgomery multiply over native-endian 64-bit words
 * with R = 2^(64k) for a k-word modulus, which squares too; one table
 * of odd powers per base; and one sliding-window exponentiation of any
 * number of bases at once over those tables, so an exponentiation is a
 * table per base and then one call.
 *
 * Every operand is an OCaml [bytes] of whole words, and the caller
 * passes in the result and scratch buffers too: nothing here allocates,
 * keeps global state or calls back into the runtime.  The externals are
 * therefore [@@noalloc] (no GC can run during a call, so no buffer
 * moves), and any number of domains may run them at once.
 *
 * The context buffer holds the k modulus words followed by one word,
 * -m^{-1} mod 2^64.  Operands are k words and below the modulus;
 * results are then canonical (below the modulus) as well. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

typedef unsigned __int128 u128;

#define WORDS(v) ((uint64_t *)Bytes_val(v))

/* Exponent limbs are the 31-bit limbs of a Bigint magnitude. */
#define EXP_LIMB_BITS 31

/* Adds the product x * y into the column accumulator (acc, top). */
#define MULADD(x, y)                            \
  do {                                          \
    u128 p_ = (u128)(x) * (y);                  \
    acc += p_;                                  \
    top += acc < p_;                            \
  } while (0)

/* r = a * b * R^-1 mod m, by product scanning: column i of a * b + u * m
   is summed whole in three words (acc, top), for every i from 0 to
   2k - 1, and the accumulator then shifts down one word.  A column adds
   at most 2k products, each below 2^128, to a carried-in value below
   2^128, so top stays below 2k + 1.  In the low k columns, u_i is chosen
   to clear the column's low word; the high k columns are the result.
   [u] is k words of scratch.  r may alias a or b: column i >= k writes
   r_(i-k), and it and every later column read only words i - k + 1 and
   up of a and b. */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t minv, size_t k, uint64_t *u)
{
  u128 acc = 0;
  uint64_t top = 0;
  for (size_t i = 0; i < k; i++) {
    for (size_t j = 0; j < i; j++) {
      MULADD(a[j], b[i - j]);
      MULADD(u[j], m[i - j]);
    }
    MULADD(a[i], b[0]);
    u[i] = (uint64_t)acc * minv;
    MULADD(u[i], m[0]);
    acc = (acc >> 64) | ((u128)top << 64);
    top = 0;
  }
  for (size_t i = k; i < 2 * k; i++) {
    for (size_t j = i - k + 1; j < k; j++) {
      MULADD(a[j], b[i - j]);
      MULADD(u[j], m[i - j]);
    }
    r[i - k] = (uint64_t)acc;
    acc = (acc >> 64) | ((u128)top << 64);
    top = 0;
  }
  /* (acc, r) < 2m: one conditional subtraction, into [u], which is free
     now, makes the result canonical. */
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; j++) {
    u[j] = r[j] - m[j] - borrow;
    borrow = (r[j] < m[j]) | ((r[j] == m[j]) & borrow);
  }
  if ((uint64_t)acc >= borrow) memcpy(r, u, k * sizeof(uint64_t));
}

/* secmed_bigint_mont_mul ctx r a b scratch: r <- a * b * R^-1 mod m. */
CAMLprim value secmed_bigint_mont_mul(value ctx, value r, value a, value b,
                                      value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  mont_mul(WORDS(r), WORDS(a), WORDS(b), WORDS(ctx), WORDS(ctx)[k], k,
           WORDS(scratch));
  return Val_unit;
}

/* The bit length of an exponent given as its trimmed 31-bit limbs. */
static size_t exp_bits(value e)
{
  size_t limbs = Wosize_val(e);
  if (limbs == 0) return 0;
  long top = Long_val(Field(e, limbs - 1));
  size_t nbits = (limbs - 1) * EXP_LIMB_BITS;
  while (top != 0) { nbits++; top >>= 1; }
  return nbits;
}

/* Bit [pos] of the exponent [e], zero past the top limb. */
static unsigned exp_bit(value e, size_t pos)
{
  size_t limb = pos / EXP_LIMB_BITS;
  return limb < Wosize_val(e)
    ? (unsigned)(Long_val(Field(e, limb)) >> (pos % EXP_LIMB_BITS)) & 1u
    : 0u;
}

/* secmed_bigint_mont_odd_powers ctx table base scratch:
   table <- base, base^3, ..., base^(2t - 1) for the t = |table| / k
   entries of the table, a power of two.  [scratch] is 2k words: base^2,
   then the k words of the multiply. */
CAMLprim value secmed_bigint_mont_odd_powers(value ctx, value table,
                                             value base, value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  const uint64_t *m = WORDS(ctx);
  uint64_t minv = m[k];
  size_t entries = caml_string_length(table) / (8 * k);
  uint64_t *t = WORDS(table), *sq = WORDS(scratch), *u = sq + k;
  memcpy(t, WORDS(base), k * sizeof(uint64_t));
  if (entries > 1) mont_mul(sq, t, t, m, minv, k, u);
  for (size_t d = 1; d < entries; d++)
    mont_mul(t + d * k, t + (d - 1) * k, sq, m, minv, k, u);
  return Val_unit;
}

/* secmed_bigint_mont_multi_pow ctx r tables exps scratch:
   r <- prod_i b_i^exps_i (Montgomery domain), by Straus's method with
   interleaved sliding windows: one chain of squarings shared by every
   base, and per base one multiply for each window of its exponent.
   [tables] holds, per base, the odd powers b_i, b_i^3, ...,
   b_i^(2^w_i - 1) from [secmed_bigint_mont_odd_powers]: 2^(w_i - 1)
   entries, so a table's length gives its window width w_i.  [exps] holds
   one trimmed 31-bit-limb array per base, at least one of them non-zero.
   [scratch] is k + 2n words for n bases: the k words of the multiply,
   then per base the bit at which its open window multiplies (plus one;
   0 when none is open), then that window's table index. */
CAMLprim value secmed_bigint_mont_multi_pow(value ctx, value r, value tables,
                                            value exps, value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  const uint64_t *m = WORDS(ctx);
  uint64_t minv = m[k];
  size_t n = Wosize_val(exps);
  uint64_t *acc = WORDS(r), *t = WORDS(scratch);
  uint64_t *due = t + k, *index = due + n;

  size_t nbits = 0;
  for (size_t i = 0; i < n; i++) {
    size_t bits = exp_bits(Field(exps, i));
    if (bits > nbits) nbits = bits;
    due[i] = 0;
  }

  /* The first window opens at some base's top bit, and its multiply
     seeds the accumulator: no representative of 1 is needed, and no
     squaring runs before it. */
  int started = 0;
  for (size_t j = nbits; j-- > 0;) {
    if (started) mont_mul(acc, acc, acc, m, minv, k, t);
    for (size_t i = 0; i < n; i++) {
      value e = Field(exps, i);
      if (due[i] == 0 && exp_bit(e, j)) {
        /* A window opens at a set bit j and spans at most w_i bits down
           to bit 0; trimmed to end at its lowest set bit, its value is
           odd and indexes the table of odd powers. */
        size_t entries = caml_string_length(Field(tables, i)) / (8 * k), w = 1;
        while (((size_t)1 << (w - 1)) < entries) w++;
        size_t low = j + 1 > w ? j + 1 - w : 0;
        while (!exp_bit(e, low)) low++;
        uint64_t digit = 0;
        for (size_t pos = j + 1; pos-- > low;) digit = (digit << 1) | exp_bit(e, pos);
        due[i] = low + 1;
        index[i] = digit >> 1;
      }
      if (due[i] == j + 1) {
        const uint64_t *entry = WORDS(Field(tables, i)) + index[i] * k;
        if (started)
          mont_mul(acc, acc, entry, m, minv, k, t);
        else
          memcpy(acc, entry, k * sizeof(uint64_t));
        started = 1;
        due[i] = 0;
      }
    }
  }
  return Val_unit;
}
