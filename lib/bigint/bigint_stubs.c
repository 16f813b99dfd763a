/* Montgomery arithmetic over 64-bit words.
 *
 * The modular-exponentiation hot path of every scheme: one
 * product-scanning Montgomery multiply over native-endian 64-bit words
 * with R = 2^(64k) for a k-word modulus, which squares too, and one
 * fixed-window exponentiation of any number of bases at once, so one
 * exponentiation is one call.
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
#define WINDOW 4

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

/* The 4-bit digit of [e] at window [w]: bits 4w .. 4w + 3, zero past
   the top limb. */
static unsigned exp_digit(value e, size_t w)
{
  size_t limbs = Wosize_val(e);
  unsigned digit = 0;
  for (int bit = WINDOW - 1; bit >= 0; bit--) {
    size_t pos = w * WINDOW + (size_t)bit, limb = pos / EXP_LIMB_BITS;
    unsigned b = limb < limbs
      ? (unsigned)(Long_val(Field(e, limb)) >> (pos % EXP_LIMB_BITS)) & 1u
      : 0u;
    digit = (digit << 1) | b;
  }
  return digit;
}

/* secmed_bigint_mont_multi_pow ctx r bases exps scratch:
   r <- prod_i bases_i^exps_i (Montgomery domain), by Straus's method
   with a left-to-right 4-bit fixed window: one chain of squarings shared
   by every base, and per window at most one multiply for each base whose
   digit is non-zero.  [bases] holds the bases' k-word blocks back to
   back; [exps] holds one trimmed 31-bit-limb array per base, at least
   one of them non-zero.  [scratch] is 15kn + k words for n bases: each
   base's table base^1 .. base^15, then the k words that every multiply
   reuses. */
CAMLprim value secmed_bigint_mont_multi_pow(value ctx, value r, value bases,
                                            value exps, value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  const uint64_t *m = WORDS(ctx);
  uint64_t minv = m[k];
  size_t n = Wosize_val(exps), entries = (1 << WINDOW) - 1;
  uint64_t *acc = WORDS(r), *tables = WORDS(scratch);
  uint64_t *t = tables + n * entries * k;

  size_t nbits = 0;
  for (size_t i = 0; i < n; i++) {
    size_t bits = exp_bits(Field(exps, i));
    if (bits > nbits) nbits = bits;
    if (bits == 0) continue;
    uint64_t *table = tables + i * entries * k;
    memcpy(table, WORDS(bases) + i * k, k * sizeof(uint64_t));
    mont_mul(table + k, table, table, m, minv, k, t);
    for (size_t d = 2; d < entries; d++)
      mont_mul(table + d * k, table + (d - 1) * k, table, m, minv, k, t);
  }

  /* The top window holds some base's top bit, so a non-zero digit seeds
     the accumulator: no representative of 1 is needed. */
  int started = 0;
  for (size_t w = (nbits + WINDOW - 1) / WINDOW; w-- > 0;) {
    if (started)
      for (int s = 0; s < WINDOW; s++) mont_mul(acc, acc, acc, m, minv, k, t);
    for (size_t i = 0; i < n; i++) {
      unsigned digit = exp_digit(Field(exps, i), w);
      if (digit == 0) continue;
      const uint64_t *entry = tables + (i * entries + digit - 1) * k;
      if (started)
        mont_mul(acc, acc, entry, m, minv, k, t);
      else
        memcpy(acc, entry, k * sizeof(uint64_t));
      started = 1;
    }
  }
  return Val_unit;
}
