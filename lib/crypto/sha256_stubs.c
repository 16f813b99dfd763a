/* SHA-256 compression (FIPS 180-4, section 6.2.2).
 *
 * One call hashes a whole run of 64-byte blocks into the state, so the
 * message schedule and the 64 rounds run in C and a long message
 * crosses from OCaml once.  The state is an OCaml [bytes] of 32 bytes
 * holding H0..H7 big-endian, which is the digest itself once the last
 * block is in.
 *
 * Nothing here allocates, keeps global state or calls back into the
 * runtime: the external is [@@noalloc] (no GC can run during a call, so
 * no buffer moves), and any number of domains may run it at once. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static void store_be32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

#define S0(x) (ROTR(x, 2) ^ ROTR(x, 13) ^ ROTR(x, 22))
#define S1(x) (ROTR(x, 6) ^ ROTR(x, 11) ^ ROTR(x, 25))
#define s0(x) (ROTR(x, 7) ^ ROTR(x, 18) ^ ((x) >> 3))
#define s1(x) (ROTR(x, 17) ^ ROTR(x, 19) ^ ((x) >> 10))

/* Round t.  Eight rounds are unrolled and the working variables are
   renamed from one round to the next instead of moved, so only [d] and
   [h] are written: d += T1, h = T1 + T2. */
#define ROUND(a, b, c, d, e, f, g, h, t)                                  \
  do {                                                                    \
    uint32_t t1 = h + S1(e) + (g ^ (e & (f ^ g))) + K[t] + w[(t) & 15];   \
    d += t1;                                                              \
    h = t1 + S0(a) + ((a & b) | (c & (a | b)));                           \
  } while (0)

static void compress(uint32_t h[8], const unsigned char *block)
{
  /* The message schedule, kept as a 16-word ring: W[t] overwrites
     W[t - 16]. */
  uint32_t w[16];
  uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int t = 0; t < 16; t++) w[t] = load_be32(block + 4 * t);
  for (int t = 0; t < 64; t += 8) {
    if (t >= 16)
      for (int i = t; i < t + 8; i++)
        w[i & 15] += s1(w[(i - 2) & 15]) + w[(i - 7) & 15] + s0(w[(i - 15) & 15]);
    ROUND(a, b, c, d, e, f, g, hh, t);
    ROUND(hh, a, b, c, d, e, f, g, t + 1);
    ROUND(g, hh, a, b, c, d, e, f, t + 2);
    ROUND(f, g, hh, a, b, c, d, e, t + 3);
    ROUND(e, f, g, hh, a, b, c, d, t + 4);
    ROUND(d, e, f, g, hh, a, b, c, t + 5);
    ROUND(c, d, e, f, g, hh, a, b, t + 6);
    ROUND(b, c, d, e, f, g, hh, a, t + 7);
  }
  h[0] += a; h[1] += b; h[2] += c; h[3] += d;
  h[4] += e; h[5] += f; h[6] += g; h[7] += hh;
}

/* secmed_sha256_compress state s off nblocks: hash the [nblocks]
   64-byte blocks of [s] starting at byte [off] into [state].  The
   caller checks that the blocks lie inside [s]. */
CAMLprim value secmed_sha256_compress(value state, value s, value off,
                                      value nblocks)
{
  unsigned char *st = Bytes_val(state);
  const unsigned char *p = (const unsigned char *)String_val(s) + Long_val(off);
  uint32_t h[8];
  for (int i = 0; i < 8; i++) h[i] = load_be32(st + 4 * i);
  for (long n = Long_val(nblocks); n > 0; n--, p += 64) compress(h, p);
  for (int i = 0; i < 8; i++) store_be32(st + 4 * i, h[i]);
  return Val_unit;
}
