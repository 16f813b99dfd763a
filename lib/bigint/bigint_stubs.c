/* Montgomery arithmetic over 64-bit words.
 *
 * The modular-exponentiation hot path of every scheme: a CIOS (coarsely
 * integrated operand scanning) Montgomery multiply over native-endian
 * 64-bit words with R = 2^(64k) for a k-word modulus, a dedicated
 * Montgomery squaring, and one fixed-window exponentiation of any number
 * of bases at once, so one exponentiation is one call.
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

/* r = a * b * R^-1 mod m.  [t] is k + 2 words of scratch; r may alias
   a or b, which are last read before r is written. */
static void mont_mul(uint64_t *r, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t minv, size_t k, uint64_t *t)
{
  memset(t, 0, (k + 2) * sizeof(uint64_t));
  for (size_t i = 0; i < k; i++) {
    /* t += a_i * b */
    uint64_t ai = a[i], carry = 0;
    for (size_t j = 0; j < k; j++) {
      u128 s = (u128)ai * b[j] + t[j] + carry;
      t[j] = (uint64_t)s;
      carry = (uint64_t)(s >> 64);
    }
    u128 s = (u128)t[k] + carry;
    t[k] = (uint64_t)s;
    t[k + 1] = (uint64_t)(s >> 64);
    /* t = (t + u * m) / 2^64, with u chosen to clear the low word */
    uint64_t u = t[0] * minv;
    s = (u128)u * m[0] + t[0];
    carry = (uint64_t)(s >> 64);
    for (size_t j = 1; j < k; j++) {
      s = (u128)u * m[j] + t[j] + carry;
      t[j - 1] = (uint64_t)s;
      carry = (uint64_t)(s >> 64);
    }
    s = (u128)t[k] + carry;
    t[k - 1] = (uint64_t)s;
    t[k] = t[k + 1] + (uint64_t)(s >> 64);
  }
  /* t < 2m: one conditional subtraction makes the result canonical. */
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; j++) {
    uint64_t d = t[j] - m[j] - borrow;
    borrow = (t[j] < m[j]) | ((t[j] == m[j]) & borrow);
    r[j] = d;
  }
  if (t[k] < borrow) memcpy(r, t, k * sizeof(uint64_t));
}

/* r = a * a * R^-1 mod m.  The square is formed whole first: each
   off-diagonal product a_i * a_j (i < j) once, the sum doubled, then the
   diagonal squares added, into 2k words.  k word-by-word reductions
   follow, each clearing the lowest live word, and one conditional
   subtraction.  [t] is 2k words of scratch; r may alias a, which is last
   read before r is written. */
static void mont_sqr(uint64_t *r, const uint64_t *a, const uint64_t *m,
                     uint64_t minv, size_t k, uint64_t *t)
{
  /* t = sum over i < j of a_i * a_j * 2^(64(i+j)).  Row i adds into
     words 2i + 1 .. i + k - 1 and sets word i + k, which no earlier row
     reaches; row 0 sets word k, so only words 0 .. k - 1 start at zero. */
  memset(t, 0, k * sizeof(uint64_t));
  for (size_t i = 0; i < k; i++) {
    uint64_t ai = a[i], carry = 0;
    for (size_t j = i + 1; j < k; j++) {
      u128 s = (u128)ai * a[j] + t[i + j] + carry;
      t[i + j] = (uint64_t)s;
      carry = (uint64_t)(s >> 64);
    }
    t[i + k] = carry;
  }
  /* t = 2t + sum of a_i^2 * 2^(128i): the doubling's shifted-out bit
     enters the next word, and the whole fits in 2k words. */
  uint64_t shifted = 0, carry = 0;
  for (size_t i = 0; i < k; i++) {
    uint64_t lo = t[2 * i], hi = t[2 * i + 1];
    u128 sq = (u128)a[i] * a[i];
    u128 s = (u128)((lo << 1) | shifted) + (uint64_t)sq + carry;
    t[2 * i] = (uint64_t)s;
    s = (u128)((hi << 1) | (lo >> 63)) + (uint64_t)(sq >> 64) + (uint64_t)(s >> 64);
    t[2 * i + 1] = (uint64_t)s;
    carry = (uint64_t)(s >> 64);
    shifted = hi >> 63;
  }
  /* Reduce: add u * m * 2^(64i) with u chosen to clear word i.  [top]
     carries out of word i + k into word i + k + 1, which the next step
     adds into along with its own carry. */
  uint64_t top = 0;
  for (size_t i = 0; i < k; i++) {
    uint64_t u = t[i] * minv;
    carry = 0;
    for (size_t j = 0; j < k; j++) {
      u128 s = (u128)u * m[j] + t[i + j] + carry;
      t[i + j] = (uint64_t)s;
      carry = (uint64_t)(s >> 64);
    }
    u128 s = (u128)t[i + k] + carry + top;
    t[i + k] = (uint64_t)s;
    top = (uint64_t)(s >> 64);
  }
  /* (top, t[k .. 2k-1]) < 2m: one conditional subtraction. */
  const uint64_t *h = t + k;
  uint64_t borrow = 0;
  for (size_t j = 0; j < k; j++) {
    uint64_t d = h[j] - m[j] - borrow;
    borrow = (h[j] < m[j]) | ((h[j] == m[j]) & borrow);
    r[j] = d;
  }
  if (top < borrow) memcpy(r, h, k * sizeof(uint64_t));
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
   one of them non-zero.  [scratch] is 15kn + 2k + 2 words for n bases:
   each base's table base^1 .. base^15, then the scratch that each
   squaring (2k words) and multiply (k + 2) reuses. */
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
    mont_sqr(table + k, table, m, minv, k, t);
    for (size_t d = 2; d < entries; d++)
      mont_mul(table + d * k, table + (d - 1) * k, table, m, minv, k, t);
  }

  /* The top window holds some base's top bit, so a non-zero digit seeds
     the accumulator: no representative of 1 is needed. */
  int started = 0;
  for (size_t w = (nbits + WINDOW - 1) / WINDOW; w-- > 0;) {
    if (started)
      for (int s = 0; s < WINDOW; s++) mont_sqr(acc, acc, m, minv, k, t);
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
