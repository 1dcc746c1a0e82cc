/* CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78)
   over strings and mapped byte Bigarrays, for the gnrtbl on-disk table
   format (docs/FORMAT.md).

   The whole point of the format is that a disk hit is a checksum pass,
   not a parse, so the checksum pass must not become the new parse: on
   x86-64 with SSE4.2 (any CPU since ~2008; the -march=native build
   flag exposes it) each section is checksummed with the hardware
   `crc32` instruction, three independent 1 KB lanes interleaved to
   cover the instruction's 3-cycle latency and recombined with a
   precomputed GF(2) shift operator (the zlib crc32_combine
   construction, derived at init time from the polynomial itself — no
   magic fold constants) — an order of magnitude faster than Marshal
   can deserialize the same bytes.  Elsewhere a hand-rolled
   table-driven implementation ("slicing by 8", eight 256-entry
   tables) takes over; same checksum, same file bytes, no dependencies
   beyond the OCaml runtime headers.

   Both entry points are [@@noalloc]: they return the CRC as a tagged
   immediate (fits easily in OCaml's 63-bit int) and never touch the
   OCaml heap. */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#define CRC32C_POLY_REFLECTED 0x82F63B78u

/* ------------------------------------------------------------------ */
/* Portable fallback: slicing-by-8                                     */

static uint32_t crc_tab[8][256];
static volatile int crc_tab_ready = 0;

/* Idempotent: concurrent first calls write identical values. */
static void crc_tab_init(void)
{
  int i, j, k;
  for (i = 0; i < 256; i++) {
    uint32_t c = (uint32_t)i;
    for (j = 0; j < 8; j++)
      c = (c & 1) ? CRC32C_POLY_REFLECTED ^ (c >> 1) : c >> 1;
    crc_tab[0][i] = c;
  }
  for (k = 1; k < 8; k++)
    for (i = 0; i < 256; i++)
      crc_tab[k][i] =
          crc_tab[0][crc_tab[k - 1][i] & 0xFFu] ^ (crc_tab[k - 1][i] >> 8);
  crc_tab_ready = 1;
}

static uint32_t crc32c_sw(uint32_t crc, const unsigned char *p, size_t len)
{
  if (!crc_tab_ready) crc_tab_init();
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    w ^= (uint64_t)crc;
    crc = crc_tab[7][w & 0xFFu] ^ crc_tab[6][(w >> 8) & 0xFFu]
        ^ crc_tab[5][(w >> 16) & 0xFFu] ^ crc_tab[4][(w >> 24) & 0xFFu]
        ^ crc_tab[3][(w >> 32) & 0xFFu] ^ crc_tab[2][(w >> 40) & 0xFFu]
        ^ crc_tab[1][(w >> 48) & 0xFFu] ^ crc_tab[0][(w >> 56) & 0xFFu];
    p += 8;
    len -= 8;
  }
#endif
  while (len--) crc = crc_tab[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  return crc;
}

/* ------------------------------------------------------------------ */
/* x86-64 SSE4.2 fast path                                             */

#if defined(__SSE4_2__) && defined(__x86_64__)
#define GNRFET_CRC32C_HW 1
#include <nmmintrin.h>

/* Three-way interleave over 3 x 1024-byte lanes per round, recombined
   by applying the linear operator "advance this CRC past N zero
   bytes" to the first two lane CRCs.  The operator is a 32x32 GF(2)
   matrix (one uint32_t column per input bit) derived once from the
   byte-step recurrence by repeated squaring — zlib's crc32_combine
   construction — so there are no hand-copied fold constants to get
   wrong. */
#define CRC32C_LANE 1024

static uint32_t crc_shift_lane[32];  /* advance by CRC32C_LANE zero bytes */
static uint32_t crc_shift_lane2[32]; /* advance by 2*CRC32C_LANE */
static volatile int crc_shift_ready = 0;

static uint32_t gf2_times(const uint32_t *mat, uint32_t vec)
{
  uint32_t sum = 0;
  int i = 0;
  while (vec) {
    if (vec & 1) sum ^= mat[i];
    vec >>= 1;
    i++;
  }
  return sum;
}

static void gf2_square(uint32_t *sq, const uint32_t *mat)
{
  int i;
  for (i = 0; i < 32; i++) sq[i] = gf2_times(mat, mat[i]);
}

/* Idempotent, like crc_tab_init: concurrent first calls write
   identical values. */
static void crc_shift_init(void)
{
  uint32_t byte_op[32], tmp[32];
  int i, k;
  if (!crc_tab_ready) crc_tab_init();
  /* One zero byte: crc' = (crc >> 8) ^ tab[crc & 0xff], column-wise. */
  for (i = 0; i < 32; i++)
    byte_op[i] = (((uint32_t)1 << i) >> 8) ^ crc_tab[0][(((uint32_t)1 << i) & 0xFFu)];
  /* CRC32C_LANE = 2^10 bytes: square the byte operator 10 times. */
  memcpy(tmp, byte_op, sizeof tmp);
  for (k = 0; k < 10; k++) {
    gf2_square(crc_shift_lane, tmp);
    memcpy(tmp, crc_shift_lane, sizeof tmp);
  }
  gf2_square(crc_shift_lane2, crc_shift_lane);
  crc_shift_ready = 1;
}

static uint32_t crc32c_hw(uint32_t crc, const unsigned char *p, size_t len)
{
  uint64_t c = crc;
  if (len >= 3 * CRC32C_LANE && !crc_shift_ready) crc_shift_init();
  while (len >= 3 * CRC32C_LANE) {
    uint64_t c1 = 0, c2 = 0;
    size_t i;
    for (i = 0; i < CRC32C_LANE; i += 8) {
      uint64_t w0, w1, w2;
      memcpy(&w0, p + i, 8);
      memcpy(&w1, p + CRC32C_LANE + i, 8);
      memcpy(&w2, p + 2 * CRC32C_LANE + i, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = gf2_times(crc_shift_lane2, (uint32_t)c)
        ^ gf2_times(crc_shift_lane, (uint32_t)c1) ^ c2;
    p += 3 * CRC32C_LANE;
    len -= 3 * CRC32C_LANE;
  }
  while (len >= 8) {
    uint64_t w;
    memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    uint32_t w;
    memcpy(&w, p, 4);
    c = _mm_crc32_u32((uint32_t)c, w);
    p += 4;
    len -= 4;
  }
  if (len >= 2) {
    uint16_t w;
    memcpy(&w, p, 2);
    c = _mm_crc32_u16((uint32_t)c, w);
    p += 2;
    len -= 2;
  }
  if (len) c = _mm_crc32_u8((uint32_t)c, *p);
  return (uint32_t)c;
}
#endif

static uint32_t crc32c(const unsigned char *p, size_t len)
{
  uint32_t crc = ~0u;
#ifdef GNRFET_CRC32C_HW
  crc = crc32c_hw(crc, p, len);
#else
  crc = crc32c_sw(crc, p, len);
#endif
  return ~crc;
}

/* crc32c over string/bytes [pos, pos+len): gnrfet_crc32_str s pos len */
CAMLprim value gnrfet_crc32_str(value vs, value vpos, value vlen)
{
  const unsigned char *base = (const unsigned char *)String_val(vs);
  return Val_long((long)crc32c(base + Long_val(vpos), (size_t)Long_val(vlen)));
}

/* crc32c over a char Bigarray.Array1 [pos, pos+len) — used on the
   mmapped file so validation never copies the data through the heap. */
CAMLprim value gnrfet_crc32_ba(value vba, value vpos, value vlen)
{
  const unsigned char *base = (const unsigned char *)Caml_ba_data_val(vba);
  return Val_long((long)crc32c(base + Long_val(vpos), (size_t)Long_val(vlen)));
}

/* Exposed for the self-test in test/test_tbl_format.ml: the portable
   table-driven path, so the suite can pin HW == SW on machines where
   both exist. */
CAMLprim value gnrfet_crc32_sw(value vs, value vpos, value vlen)
{
  const unsigned char *base = (const unsigned char *)String_val(vs);
  return Val_long((long)~crc32c_sw(~0u, base + Long_val(vpos),
                                   (size_t)Long_val(vlen)));
}
