/* Montgomery arithmetic over 64-bit words.
 *
 * The modular-exponentiation hot path of every scheme: a CIOS (coarsely
 * integrated operand scanning) Montgomery multiply over native-endian
 * 64-bit words with R = 2^(64k) for a k-word modulus, and a whole
 * fixed-window exponentiation, so one exponentiation is one call.
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

/* secmed_bigint_mont_mul ctx r a b scratch: r <- a * b * R^-1 mod m. */
CAMLprim value secmed_bigint_mont_mul(value ctx, value r, value a, value b,
                                      value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  mont_mul(WORDS(r), WORDS(a), WORDS(b), WORDS(ctx), WORDS(ctx)[k], k,
           WORDS(scratch));
  return Val_unit;
}

static int exp_bit(value e, size_t pos)
{
  return (Long_val(Field(e, pos / EXP_LIMB_BITS)) >> (pos % EXP_LIMB_BITS)) & 1;
}

/* secmed_bigint_mont_pow ctx r base e scratch: r <- base^e (Montgomery
   domain) by a left-to-right 4-bit fixed window.  [e] is a non-zero
   trimmed 31-bit-limb array; [scratch] is 16k + 2 words: the table
   base^1 .. base^15, then the multiply's scratch. */
CAMLprim value secmed_bigint_mont_pow(value ctx, value r, value base, value e,
                                      value scratch)
{
  size_t k = caml_string_length(ctx) / 8 - 1;
  const uint64_t *m = WORDS(ctx);
  uint64_t minv = m[k];
  uint64_t *acc = WORDS(r), *table = WORDS(scratch);
  uint64_t *t = table + ((1 << WINDOW) - 1) * k;

  memcpy(table, WORDS(base), k * sizeof(uint64_t));
  for (size_t d = 1; d < (1 << WINDOW) - 1; d++)
    mont_mul(table + d * k, table + (d - 1) * k, table, m, minv, k, t);

  size_t limbs = Wosize_val(e);
  long top = Long_val(Field(e, limbs - 1));
  size_t nbits = (limbs - 1) * EXP_LIMB_BITS;
  while (top != 0) { nbits++; top >>= 1; }

  /* The top window holds the top bit, so its digit is non-zero and
     seeds the accumulator: no representative of 1 is needed. */
  int started = 0;
  for (size_t w = (nbits + WINDOW - 1) / WINDOW; w-- > 0;) {
    if (started)
      for (int s = 0; s < WINDOW; s++) mont_mul(acc, acc, acc, m, minv, k, t);
    unsigned digit = 0;
    for (int bit = WINDOW - 1; bit >= 0; bit--) {
      size_t pos = w * WINDOW + (size_t)bit;
      digit = (digit << 1) | (pos < nbits ? (unsigned)exp_bit(e, pos) : 0u);
    }
    if (digit == 0) continue;
    if (started)
      mont_mul(acc, acc, table + (digit - 1) * k, m, minv, k, t);
    else
      memcpy(acc, table + (digit - 1) * k, k * sizeof(uint64_t));
    started = 1;
  }
  return Val_unit;
}
