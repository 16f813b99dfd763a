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
 * passes in the result buffer.  The multiply keeps no state, allocates
 * nothing and is [@@noalloc]: it runs in place on the OCaml buffers.
 * The table builder and the exponentiation take a few words of C
 * scratch per call, and a call large enough to pay for it (see
 * [leaves_lock]) copies its operands into that C memory and runs
 * without the OCaml runtime lock, so another thread of the process
 * computes meanwhile.  Nothing in such a released section reads or
 * writes the OCaml heap: a minor collection run by another thread moves
 * young [bytes], so the result is written back only after the lock is
 * held again.  Any number of threads and domains may run the kernel at
 * once.
 *
 * The context buffer holds the k modulus words followed by one word,
 * -m^{-1} mod 2^64.  Operands are k words and below the modulus;
 * results are then canonical (below the modulus) as well. */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

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

/* A call releases the runtime lock when its work reaches 2^14 word
   products: its multiplies (one per exponent bit, or per table entry)
   times k^2.  Releasing is cheap on one thread (a 64-bit exponent at
   k = 4, about 3.3 us, read 2-4% slower copied and released), but the
   group's 4-word calls sit in items that spend most of their time in
   OCaml (hybrid encryption, hashing into the group), where a second
   thread has little to overlap: releasing every call read 181 and 183
   in-process queries/s against 187 and 187 under this rule, in two
   alternating 10 s ledger pairs on a 2-vCPU guest.  So the 256-bit
   group's calls (256 bits at k = 4: 4096) keep the lock, while every
   Paillier exponentiation modulo p^2 (k = 8, 256 bits: 16384) or n^2
   (k = 16) leaves it. */
#define RELEASE_WORK ((size_t)1 << 14)

static int leaves_lock(size_t multiplies, size_t k)
{
  return multiplies * k * k >= RELEASE_WORK;
}

/* Scratch for one call, or Out_of_memory (the runtime lock is held). */
static void *scratch_words(size_t words)
{
  void *p = malloc(words * sizeof(uint64_t));
  if (p == NULL) caml_raise_out_of_memory();
  return p;
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

/* t <- b, b^3, ..., b^(2 entries - 1), with b in t's first entry on
   entry; [sq] is 2k words: b^2, then the k words of the multiply. */
static void odd_powers(uint64_t *t, size_t entries, const uint64_t *m,
                       uint64_t minv, size_t k, uint64_t *sq)
{
  if (entries > 1) mont_mul(sq, t, t, m, minv, k, sq + k);
  for (size_t d = 1; d < entries; d++)
    mont_mul(t + d * k, t + (d - 1) * k, sq, m, minv, k, sq + k);
}

/* secmed_bigint_mont_odd_powers ctx table base:
   table <- base, base^3, ..., base^(2t - 1) for the t = |table| / k
   entries of the table, a power of two. */
CAMLprim value secmed_bigint_mont_odd_powers(value ctx, value table, value base)
{
  CAMLparam3(ctx, table, base);
  size_t k = caml_string_length(ctx) / 8 - 1;
  size_t entries = caml_string_length(table) / (8 * k);
  if (!leaves_lock(entries, k)) {
    uint64_t *sq = scratch_words(2 * k);
    memcpy(WORDS(table), WORDS(base), k * sizeof(uint64_t));
    odd_powers(WORDS(table), entries, WORDS(ctx), WORDS(ctx)[k], k, sq);
    free(sq);
    CAMLreturn(Val_unit);
  }
  /* The copy: the context, then the table (base first), then scratch. */
  uint64_t *m = scratch_words((k + 1) + entries * k + 2 * k);
  uint64_t *t = m + k + 1, *sq = t + entries * k;
  memcpy(m, WORDS(ctx), (k + 1) * sizeof(uint64_t));
  memcpy(t, WORDS(base), k * sizeof(uint64_t));
  caml_release_runtime_system();
  odd_powers(t, entries, m, m[k], k, sq);
  caml_acquire_runtime_system();
  memcpy(WORDS(table), t, entries * k * sizeof(uint64_t));
  free(m);
  CAMLreturn(Val_unit);
}

/* One base of a multi-exponentiation as the scan reads it: its table of
   odd powers, its exponent's trimmed 31-bit limbs (tagged OCaml
   integers), and the scan's state for its open window. */
struct base {
  const uint64_t *table;
  size_t entries;
  const value *limbs;
  size_t nlimbs;
  size_t due;   /* the bit at which the open window multiplies, plus one;
                   0 when none is open */
  size_t index; /* that window's table index */
};

/* The bit length of an exponent. */
static size_t exp_bits(const struct base *b)
{
  if (b->nlimbs == 0) return 0;
  long top = Long_val(b->limbs[b->nlimbs - 1]);
  size_t nbits = (b->nlimbs - 1) * EXP_LIMB_BITS;
  while (top != 0) { nbits++; top >>= 1; }
  return nbits;
}

/* Bit [pos] of an exponent, zero past the top limb. */
static unsigned exp_bit(const struct base *b, size_t pos)
{
  size_t limb = pos / EXP_LIMB_BITS;
  return limb < b->nlimbs
    ? (unsigned)(Long_val(b->limbs[limb]) >> (pos % EXP_LIMB_BITS)) & 1u
    : 0u;
}

/* acc <- prod_i b_i^e_i (Montgomery domain) over the [nbits]-bit
   exponents of [n] bases, by Straus's method with interleaved sliding
   windows: one chain of squarings shared by every base, and per base one
   multiply for each window of its exponent.  [t] is the k words of the
   multiply. */
static void multi_pow(uint64_t *acc, struct base *b, size_t n, size_t nbits,
                      const uint64_t *m, uint64_t minv, size_t k, uint64_t *t)
{
  for (size_t i = 0; i < n; i++) b[i].due = 0;
  /* The first window opens at some base's top bit, and its multiply
     seeds the accumulator: no representative of 1 is needed, and no
     squaring runs before it. */
  int started = 0;
  for (size_t j = nbits; j-- > 0;) {
    if (started) mont_mul(acc, acc, acc, m, minv, k, t);
    for (size_t i = 0; i < n; i++) {
      struct base *e = &b[i];
      if (e->due == 0 && exp_bit(e, j)) {
        /* A window opens at a set bit j and spans at most w_i bits down
           to bit 0; trimmed to end at its lowest set bit, its value is
           odd and indexes the table of odd powers. */
        size_t w = 1;
        while (((size_t)1 << (w - 1)) < e->entries) w++;
        size_t low = j + 1 > w ? j + 1 - w : 0;
        while (!exp_bit(e, low)) low++;
        uint64_t digit = 0;
        for (size_t pos = j + 1; pos-- > low;) digit = (digit << 1) | exp_bit(e, pos);
        e->due = low + 1;
        e->index = digit >> 1;
      }
      if (e->due == j + 1) {
        const uint64_t *entry = e->table + e->index * k;
        if (started)
          mont_mul(acc, acc, entry, m, minv, k, t);
        else
          memcpy(acc, entry, k * sizeof(uint64_t));
        started = 1;
        e->due = 0;
      }
    }
  }
}

/* secmed_bigint_mont_multi_pow ctx r tables exps:
   r <- prod_i b_i^exps_i (Montgomery domain).  [tables] holds, per base,
   the odd powers b_i, b_i^3, ..., b_i^(2^w_i - 1) from
   [secmed_bigint_mont_odd_powers]: 2^(w_i - 1) entries, so a table's
   length gives its window width w_i.  [exps] holds one trimmed
   31-bit-limb array per base, at least one of them non-zero. */
CAMLprim value secmed_bigint_mont_multi_pow(value ctx, value r, value tables,
                                            value exps)
{
  CAMLparam4(ctx, r, tables, exps);
  size_t k = caml_string_length(ctx) / 8 - 1;
  size_t n = Wosize_val(exps);
  /* The bases, then the k words of the multiply. */
  struct base *b = malloc(n * sizeof(struct base) + k * sizeof(uint64_t));
  if (b == NULL) caml_raise_out_of_memory();
  uint64_t *t = (uint64_t *)(b + n);
  size_t nbits = 0, copied = 0;
  for (size_t i = 0; i < n; i++) {
    value table = Field(tables, i), e = Field(exps, i);
    b[i].table = WORDS(table);
    b[i].entries = caml_string_length(table) / (8 * k);
    b[i].limbs = (const value *)e;
    b[i].nlimbs = Wosize_val(e);
    size_t bits = exp_bits(&b[i]);
    if (bits > nbits) nbits = bits;
    copied += b[i].entries * k + b[i].nlimbs;
  }
  if (!leaves_lock(nbits, k)) {
    multi_pow(WORDS(r), b, n, nbits, WORDS(ctx), WORDS(ctx)[k], k, t);
    free(b);
    CAMLreturn(Val_unit);
  }
  /* The copy: the context, then every table and exponent, then the
     result. */
  uint64_t *m = malloc(((k + 1) + copied + k) * sizeof(uint64_t));
  if (m == NULL) { free(b); caml_raise_out_of_memory(); }
  uint64_t *p = m + k + 1;
  memcpy(m, WORDS(ctx), (k + 1) * sizeof(uint64_t));
  for (size_t i = 0; i < n; i++) {
    memcpy(p, b[i].table, b[i].entries * k * sizeof(uint64_t));
    b[i].table = p;
    p += b[i].entries * k;
    memcpy(p, b[i].limbs, b[i].nlimbs * sizeof(value));
    b[i].limbs = (const value *)p;
    p += b[i].nlimbs;
  }
  caml_release_runtime_system();
  multi_pow(p, b, n, nbits, m, m[k], k, t);
  caml_acquire_runtime_system();
  memcpy(WORDS(r), p, k * sizeof(uint64_t));
  free(m);
  free(b);
  CAMLreturn(Val_unit);
}
