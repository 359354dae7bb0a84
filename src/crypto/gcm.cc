#include "crypto/gcm.h"

#include <cstring>

#include "crypto/intrinsics.h"
#include "crypto/random.h"

namespace sesemi::crypto {

namespace {
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline uint64_t HostToBe64(uint64_t v) { return v; }
inline uint32_t HostToBe32(uint32_t v) { return v; }
#else
inline uint64_t HostToBe64(uint64_t v) { return __builtin_bswap64(v); }
inline uint32_t HostToBe32(uint32_t v) { return __builtin_bswap32(v); }
#endif

inline uint64_t Load64BE(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return HostToBe64(v);
}

inline void Store64BE(uint8_t* p, uint64_t v) {
  v = HostToBe64(v);
  std::memcpy(p, &v, 8);
}

// Fold-back constants for the 8-bit Shoup table walk: when the 128-bit
// accumulator is shifted right by a whole byte, the 8 bits shifted out (rem)
// re-enter at the top reduced by the GHASH polynomial. kReduce8[rem] is that
// contribution, already positioned in the high word.
constexpr uint64_t Reduce8(uint32_t rem) {
  uint64_t zh = 0, zl = rem;
  for (int i = 0; i < 8; ++i) {
    const uint64_t carry = zl & 1;
    zl = (zl >> 1) | (zh << 63);
    zh >>= 1;
    if (carry) zh ^= 0xe100000000000000ULL;
  }
  return zh;
}

struct Reduce8Table {
  uint64_t v[256];
};

constexpr Reduce8Table MakeReduce8Table() {
  Reduce8Table t{};
  for (uint32_t r = 0; r < 256; ++r) t.v[r] = Reduce8(r);
  return t;
}

constexpr Reduce8Table kReduce8 = MakeReduce8Table();

#if SESEMI_CRYPTO_X86
// ---------------------------------------------------------------------------
// PCLMULQDQ GHASH. GHASH field elements are bit-reflected relative to their
// wire bytes; loading each 16-byte block byte-reversed (PSHUFB) and fixing
// the reflection with a single left-shift of the 256-bit product (the
// "shift-XOR" method of the Intel carry-less-multiplication whitepaper) lets
// the whole multiply run on CLMUL without per-bit reversal.

__attribute__((target("ssse3"))) inline __m128i LoadReflected(const uint8_t* p) {
  const __m128i kByteReverse =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)),
                          kByteReverse);
}

__attribute__((target("ssse3"))) inline void StoreReflected(uint8_t* p, __m128i v) {
  const __m128i kByteReverse =
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm_shuffle_epi8(v, kByteReverse));
}

// Accumulate the 256-bit carry-less product a·b into (lo, mid, hi). Products
// are linear over XOR, so several multiplies can pile into one accumulator
// and share a single reduction — the 4-block aggregation below.
__attribute__((target("pclmul"))) inline void ClmulAccumulate(
    __m128i a, __m128i b, __m128i* lo, __m128i* mid, __m128i* hi) {
  *lo = _mm_xor_si128(*lo, _mm_clmulepi64_si128(a, b, 0x00));
  *hi = _mm_xor_si128(*hi, _mm_clmulepi64_si128(a, b, 0x11));
  *mid = _mm_xor_si128(*mid, _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                           _mm_clmulepi64_si128(a, b, 0x01)));
}

// Fold mid into the 256-bit (hi:lo), shift left one bit (the reflection
// fixup), then reduce modulo x^128 + x^7 + x^2 + x + 1.
__attribute__((target("pclmul"))) inline __m128i ClmulReduce(__m128i lo, __m128i mid,
                                                             __m128i hi) {
  lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));

  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  hi = _mm_or_si128(hi, _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));
  lo = _mm_or_si128(lo, _mm_slli_si128(lo_carry, 4));

  __m128i t = _mm_xor_si128(_mm_slli_epi32(lo, 31),
                            _mm_xor_si128(_mm_slli_epi32(lo, 30),
                                          _mm_slli_epi32(lo, 25)));
  const __m128i t_hi = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  __m128i r = _mm_xor_si128(_mm_srli_epi32(lo, 1),
                            _mm_xor_si128(_mm_srli_epi32(lo, 2),
                                          _mm_srli_epi32(lo, 7)));
  r = _mm_xor_si128(r, t_hi);
  lo = _mm_xor_si128(lo, r);
  return _mm_xor_si128(hi, lo);
}

// Full single multiply (reflected convention) — used for the H-power setup.
__attribute__((target("pclmul"))) inline __m128i ClmulGfMul(__m128i a, __m128i b) {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
  ClmulAccumulate(a, b, &lo, &mid, &hi);
  return ClmulReduce(lo, mid, hi);
}

__attribute__((target("pclmul,ssse3"))) void ClmulBuildHPowers(
    const uint8_t h[16], uint8_t h_powers[8][16], int count) {
  const __m128i h1 = LoadReflected(h);
  __m128i p = h1;
  _mm_store_si128(reinterpret_cast<__m128i*>(h_powers[0]), p);
  for (int i = 1; i < count; ++i) {
    p = ClmulGfMul(p, h1);
    _mm_store_si128(reinterpret_cast<__m128i*>(h_powers[i]), p);
  }
}

// Y <- GHASH update over `blocks` 16-byte blocks: 4 at a time against
// H^4..H^1 with one shared reduction, then block-at-a-time for the tail.
__attribute__((target("pclmul,ssse3"))) void ClmulGHashBlocks(
    const uint8_t h_powers[8][16], uint8_t y[16], const uint8_t* data,
    size_t blocks) {
  const __m128i h1 = _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[0]));
  __m128i acc = LoadReflected(y);
  if (blocks >= 4) {
    const __m128i h2 = _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[1]));
    const __m128i h3 = _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[2]));
    const __m128i h4 = _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[3]));
    while (blocks >= 4) {
      __m128i lo = _mm_setzero_si128();
      __m128i mid = _mm_setzero_si128();
      __m128i hi = _mm_setzero_si128();
      ClmulAccumulate(_mm_xor_si128(acc, LoadReflected(data)), h4, &lo, &mid, &hi);
      ClmulAccumulate(LoadReflected(data + 16), h3, &lo, &mid, &hi);
      ClmulAccumulate(LoadReflected(data + 32), h2, &lo, &mid, &hi);
      ClmulAccumulate(LoadReflected(data + 48), h1, &lo, &mid, &hi);
      acc = ClmulReduce(lo, mid, hi);
      data += 64;
      blocks -= 4;
    }
  }
  while (blocks > 0) {
    acc = ClmulGfMul(_mm_xor_si128(acc, LoadReflected(data)), h1);
    data += 16;
    blocks--;
  }
  StoreReflected(y, acc);
}

// XOR-fold the four 128-bit lanes of a 512-bit accumulator down to one
// 128-bit value (products are linear over XOR, so lanes can merge before the
// shared reduction).
__attribute__((target("avx512f,avx512vl,avx2"))) inline __m128i Fold512(__m512i v) {
  const __m256i t = _mm256_xor_si256(_mm512_extracti64x4_epi64(v, 0),
                                     _mm512_extracti64x4_epi64(v, 1));
  return _mm_xor_si128(_mm256_extracti128_si256(t, 0),
                       _mm256_extracti128_si256(t, 1));
}

// 512-bit GHASH: 8 blocks per shared reduction. VPCLMULQDQ runs four
// independent 128-bit carry-less multiplies (one per lane), so two 512-bit
// accumulation steps cover blocks b0..b7 against H^8..H^1 — the same
// aggregated-powers scheme as the 4-block kernel, at twice the aggregation
// width and half the reductions per byte. `groups` counts 8-block groups.
__attribute__((target(
    "avx512f,avx512bw,avx512vl,vpclmulqdq,pclmul,ssse3,avx2"))) void
VclmulGHashBlocks8(const uint8_t h_powers[8][16], uint8_t y[16],
                   const uint8_t* data, size_t groups) {
  const __m512i kByteReverse512 = _mm512_broadcast_i32x4(
      _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  // Lane l of the first data vector holds block l (earliest in the stream),
  // which multiplies H^(8-l): lane order [H^8,H^7,H^6,H^5], then
  // [H^4,H^3,H^2,H^1] for the second vector.
  __m512i h_hi = _mm512_castsi128_si512(
      _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[7])));
  h_hi = _mm512_inserti32x4(
      h_hi, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[6])), 1);
  h_hi = _mm512_inserti32x4(
      h_hi, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[5])), 2);
  h_hi = _mm512_inserti32x4(
      h_hi, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[4])), 3);
  __m512i h_lo = _mm512_castsi128_si512(
      _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[3])));
  h_lo = _mm512_inserti32x4(
      h_lo, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[2])), 1);
  h_lo = _mm512_inserti32x4(
      h_lo, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[1])), 2);
  h_lo = _mm512_inserti32x4(
      h_lo, _mm_load_si128(reinterpret_cast<const __m128i*>(h_powers[0])), 3);

  __m128i acc = LoadReflected(y);
  while (groups-- > 0) {
    __m512i d0 = _mm512_shuffle_epi8(
        _mm512_loadu_si512(reinterpret_cast<const void*>(data)), kByteReverse512);
    const __m512i d1 = _mm512_shuffle_epi8(
        _mm512_loadu_si512(reinterpret_cast<const void*>(data + 64)),
        kByteReverse512);
    // The running accumulator joins the earliest block (lane 0 of d0) before
    // the multiply, exactly as in the narrow kernel.
    d0 = _mm512_mask_xor_epi64(d0, 0x03, d0, _mm512_zextsi128_si512(acc));

    __m512i lo = _mm512_clmulepi64_epi128(d0, h_hi, 0x00);
    __m512i hi = _mm512_clmulepi64_epi128(d0, h_hi, 0x11);
    __m512i mid = _mm512_xor_si512(_mm512_clmulepi64_epi128(d0, h_hi, 0x10),
                                   _mm512_clmulepi64_epi128(d0, h_hi, 0x01));
    lo = _mm512_xor_si512(lo, _mm512_clmulepi64_epi128(d1, h_lo, 0x00));
    hi = _mm512_xor_si512(hi, _mm512_clmulepi64_epi128(d1, h_lo, 0x11));
    mid = _mm512_xor_si512(
        mid, _mm512_xor_si512(_mm512_clmulepi64_epi128(d1, h_lo, 0x10),
                              _mm512_clmulepi64_epi128(d1, h_lo, 0x01)));
    acc = ClmulReduce(Fold512(lo), Fold512(mid), Fold512(hi));
    data += 128;
  }
  StoreReflected(y, acc);
}
#endif  // SESEMI_CRYPTO_X86
}  // namespace

struct AesGcm::GhashState {
  uint8_t y[16] = {0};
  uint8_t buf[16];
  size_t buflen = 0;
};

Result<AesGcm> AesGcm::Create(ByteSpan key, Tier tier) {
  SESEMI_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key, tier));
  return AesGcm(std::move(aes));
}

AesGcm::AesGcm(Aes aes) : aes_(std::move(aes)) {
  uint8_t zero[16] = {0};
  uint8_t h[16];
  aes_.EncryptBlock(zero, h);

#if SESEMI_CRYPTO_X86
  if (aes_.hardware()) {
    // H^1..H^4 for the aggregated CLMUL walk (H^1..H^8 on the VAES tier);
    // the 256-entry Shoup table is skipped entirely, which also makes
    // per-message cipher setup cheaper.
    ClmulBuildHPowers(h, h_powers_, aes_.vaes() ? 8 : 4);
    return;
  }
#endif
  // Build the 8-bit multiplication table: table[1000'0000b] = H, then halve
  // (multiply by x, i.e. right shift in the reflected representation) down to
  // 0000'0001b, and fill composites by XOR.
  uint64_t vh = Load64BE(h);
  uint64_t vl = Load64BE(h + 8);
  table_hi_[0x80] = vh;
  table_lo_[0x80] = vl;
  for (int i = 0x40; i > 0; i >>= 1) {
    const uint64_t carry = vl & 1;
    vl = (vl >> 1) | (vh << 63);
    vh >>= 1;
    if (carry) vh ^= 0xe100000000000000ULL;
    table_hi_[i] = vh;
    table_lo_[i] = vl;
  }
  table_hi_[0] = 0;
  table_lo_[0] = 0;
  for (int i = 2; i < 256; i <<= 1) {
    for (int j = 1; j < i; ++j) {
      table_hi_[i + j] = table_hi_[i] ^ table_hi_[j];
      table_lo_[i + j] = table_lo_[i] ^ table_lo_[j];
    }
  }
}

void AesGcm::GHashBlocks(uint8_t y[16], const uint8_t* data, size_t blocks) const {
#if SESEMI_CRYPTO_X86
  if (aes_.hardware()) {
    if (aes_.vaes() && blocks >= 8) {
      const size_t groups = blocks / 8;
      VclmulGHashBlocks8(h_powers_, y, data, groups);
      data += groups * 128;
      blocks -= groups * 8;
    }
    if (blocks > 0) ClmulGHashBlocks(h_powers_, y, data, blocks);
    return;
  }
#endif
  uint64_t yh = Load64BE(y);
  uint64_t yl = Load64BE(y + 8);

  for (size_t blk = 0; blk < blocks; ++blk, data += 16) {
    uint64_t vh = yh ^ Load64BE(data);
    uint64_t vl = yl ^ Load64BE(data + 8);

    // 8-bit Shoup walk, bytes from the low end of (vh, vl).
    uint64_t zh = table_hi_[vl & 0xff];
    uint64_t zl = table_lo_[vl & 0xff];
    for (int i = 1; i < 8; ++i) {
      const uint8_t b = static_cast<uint8_t>(vl >> (8 * i));
      const uint32_t rem = static_cast<uint32_t>(zl & 0xff);
      zl = (zh << 56) | (zl >> 8);
      zh = (zh >> 8) ^ kReduce8.v[rem];
      zh ^= table_hi_[b];
      zl ^= table_lo_[b];
    }
    for (int i = 0; i < 8; ++i) {
      const uint8_t b = static_cast<uint8_t>(vh >> (8 * i));
      const uint32_t rem = static_cast<uint32_t>(zl & 0xff);
      zl = (zh << 56) | (zl >> 8);
      zh = (zh >> 8) ^ kReduce8.v[rem];
      zh ^= table_hi_[b];
      zl ^= table_lo_[b];
    }
    yh = zh;
    yl = zl;
  }
  Store64BE(y, yh);
  Store64BE(y + 8, yl);
}

void AesGcm::GHashUpdate(GhashState* st, ByteSpan data) const {
  if (data.empty()) return;
  size_t i = 0;
  if (st->buflen > 0) {
    const size_t take = std::min<size_t>(16 - st->buflen, data.size());
    std::memcpy(st->buf + st->buflen, data.data(), take);
    st->buflen += take;
    i = take;
    if (st->buflen < 16) return;
    GHashBlocks(st->y, st->buf, 1);
    st->buflen = 0;
  }
  const size_t whole = (data.size() - i) / 16;
  if (whole > 0) {
    GHashBlocks(st->y, data.data() + i, whole);
    i += whole * 16;
  }
  if (i < data.size()) {
    st->buflen = data.size() - i;
    std::memcpy(st->buf, data.data() + i, st->buflen);
  }
}

void AesGcm::GHashFlush(GhashState* st) const {
  if (st->buflen == 0) return;
  std::memset(st->buf + st->buflen, 0, 16 - st->buflen);
  GHashBlocks(st->y, st->buf, 1);
  st->buflen = 0;
}

void AesGcm::CtrCryptAndHash(const uint8_t j0[16], ByteSpan in, uint8_t* out,
                             uint8_t y[16], bool hash_output) const {
  uint8_t counters[256];
  uint8_t keystream[256];
  for (int b = 0; b < 16; ++b) std::memcpy(counters + 16 * b, j0, 12);
  uint32_t ctr;
  std::memcpy(&ctr, j0 + 12, 4);
  ctr = HostToBe32(ctr);  // big-endian counter -> host int

  const uint8_t* src = in.data();
  size_t remaining = in.size();

  // inc32: the counter wraps modulo 2^32 (NIST SP 800-38D §6.2) — uint32_t
  // arithmetic gives exactly that, on every batch width.
  const auto set_counters = [&](int n) {
    for (int b = 0; b < n; ++b) {
      const uint32_t c = HostToBe32(ctr + 1 + static_cast<uint32_t>(b));
      std::memcpy(counters + 16 * b + 12, &c, 4);
    }
    ctr += static_cast<uint32_t>(n);
  };
  const auto xor_into = [&](size_t len) {
    for (size_t i = 0; i < len; i += 8) {
      uint64_t d, k;
      std::memcpy(&d, src + i, 8);
      std::memcpy(&k, keystream + i, 8);
      d ^= k;
      std::memcpy(out + i, &d, 8);
    }
  };

  // Fused bulk path: counter blocks -> batched keystream -> XOR -> GHASH,
  // all while the batch is hot in L1. The VAES tier keeps 16 blocks in
  // flight (four 512-bit AESENC streams) and aggregates GHASH 8 blocks per
  // reduction; the AES-NI pipeline is deep enough to keep 8 blocks in
  // flight, so that backend runs 128-byte batches (and its GHASH aggregates
  // the 8 blocks as two 4-block CLMUL groups); the T-table path stays at the
  // 4-block width that fits its registers.
  if (aes_.vaes()) {
    while (remaining >= 256) {
      set_counters(16);
      aes_.EncryptBlocks16(counters, keystream);
      xor_into(256);
      GHashBlocks(y, hash_output ? out : src, 16);
      src += 256;
      out += 256;
      remaining -= 256;
    }
  }
  if (aes_.hardware()) {
    while (remaining >= 128) {
      set_counters(8);
      aes_.EncryptBlocks8(counters, keystream);
      xor_into(128);
      GHashBlocks(y, hash_output ? out : src, 8);
      src += 128;
      out += 128;
      remaining -= 128;
    }
  }
  while (remaining >= 64) {
    set_counters(4);
    aes_.EncryptBlocks4(counters, keystream);
    xor_into(64);
    GHashBlocks(y, hash_output ? out : src, 4);
    src += 64;
    out += 64;
    remaining -= 64;
  }

  // Tail: block-at-a-time, final partial block zero-padded for GHASH.
  while (remaining > 0) {
    const uint32_t c = HostToBe32(++ctr);
    std::memcpy(counters + 12, &c, 4);
    aes_.EncryptBlock(counters, keystream);
    const size_t take = std::min<size_t>(16, remaining);
    for (size_t b = 0; b < take; ++b) out[b] = src[b] ^ keystream[b];
    uint8_t block[16] = {0};
    std::memcpy(block, hash_output ? out : src, take);
    GHashBlocks(y, block, 1);
    src += take;
    out += take;
    remaining -= take;
  }
}

void AesGcm::ComputeTag(const uint8_t j0[16], uint8_t y[16], size_t aad_len,
                        size_t ct_len, uint8_t tag[16]) const {
  uint8_t block[16];
  Store64BE(block, static_cast<uint64_t>(aad_len) * 8);
  Store64BE(block + 8, static_cast<uint64_t>(ct_len) * 8);
  GHashBlocks(y, block, 1);
  uint8_t ekj0[16];
  aes_.EncryptBlock(j0, ekj0);
  for (int i = 0; i < 16; ++i) tag[i] = y[i] ^ ekj0[i];
}

Status AesGcm::EncryptInto(ByteSpan nonce, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan plaintext, uint8_t* out) const {
  if (nonce.size() != kGcmNonceSize) {
    return Status::InvalidArgument("GCM nonce must be 12 bytes");
  }
  if (static_cast<uint64_t>(plaintext.size()) > kGcmMaxPlaintextSize) {
    return Status::InvalidArgument(
        "GCM plaintext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  uint8_t j0[16];
  std::memcpy(j0, nonce.data(), 12);
  j0[12] = j0[13] = j0[14] = 0;
  j0[15] = 1;

  GhashState st;
  GHashUpdate(&st, aad_a);
  GHashUpdate(&st, aad_b);
  GHashFlush(&st);
  CtrCryptAndHash(j0, plaintext, out, st.y, /*hash_output=*/true);
  ComputeTag(j0, st.y, aad_a.size() + aad_b.size(), plaintext.size(),
             out + plaintext.size());
  return Status::OK();
}

Status AesGcm::DecryptInto(ByteSpan nonce, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan ciphertext_and_tag, uint8_t* out) const {
  if (nonce.size() != kGcmNonceSize) {
    return Status::InvalidArgument("GCM nonce must be 12 bytes");
  }
  if (ciphertext_and_tag.size() < kGcmTagSize) {
    return Status::Unauthenticated("GCM message shorter than tag");
  }
  const size_t ct_len = ciphertext_and_tag.size() - kGcmTagSize;
  if (static_cast<uint64_t>(ct_len) > kGcmMaxPlaintextSize) {
    return Status::InvalidArgument(
        "GCM ciphertext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  ByteSpan ct(ciphertext_and_tag.data(), ct_len);
  ByteSpan tag(ciphertext_and_tag.data() + ct_len, kGcmTagSize);

  uint8_t j0[16];
  std::memcpy(j0, nonce.data(), 12);
  j0[12] = j0[13] = j0[14] = 0;
  j0[15] = 1;

  GhashState st;
  GHashUpdate(&st, aad_a);
  GHashUpdate(&st, aad_b);
  GHashFlush(&st);
  // Single pass: decrypt while absorbing the *ciphertext* into GHASH.
  CtrCryptAndHash(j0, ct, out, st.y, /*hash_output=*/false);
  uint8_t expect[16];
  ComputeTag(j0, st.y, aad_a.size() + aad_b.size(), ct_len, expect);
  if (!ConstantTimeEqual(ByteSpan(expect, 16), tag)) {
    // The plaintext was produced before authentication; never release it.
    if (ct_len > 0) std::memset(out, 0, ct_len);
    return Status::Unauthenticated("GCM tag mismatch");
  }
  return Status::OK();
}

Result<Bytes> AesGcm::Encrypt(ByteSpan nonce, ByteSpan aad, ByteSpan plaintext) const {
  if (static_cast<uint64_t>(plaintext.size()) > kGcmMaxPlaintextSize) {
    return Status::InvalidArgument(
        "GCM plaintext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  Bytes out(plaintext.size() + kGcmTagSize);
  SESEMI_RETURN_IF_ERROR(EncryptInto(nonce, aad, {}, plaintext, out.data()));
  return out;
}

Result<Bytes> AesGcm::Decrypt(ByteSpan nonce, ByteSpan aad,
                              ByteSpan ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kGcmTagSize) {
    return Status::Unauthenticated("GCM message shorter than tag");
  }
  if (static_cast<uint64_t>(ciphertext_and_tag.size() - kGcmTagSize) >
      kGcmMaxPlaintextSize) {
    return Status::InvalidArgument(
        "GCM ciphertext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  Bytes plain(ciphertext_and_tag.size() - kGcmTagSize);
  SESEMI_RETURN_IF_ERROR(DecryptInto(nonce, aad, {}, ciphertext_and_tag, plain.data()));
  return plain;
}

Result<Bytes> GcmSealPartsWith(const AesGcm& gcm, ByteSpan aad_a, ByteSpan aad_b,
                               ByteSpan plaintext) {
  if (static_cast<uint64_t>(plaintext.size()) > kGcmMaxPlaintextSize) {
    // Checked before the output allocation, not just inside EncryptInto.
    return Status::InvalidArgument(
        "GCM plaintext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  // One allocation for nonce || ciphertext || tag, written in place.
  Bytes out(kGcmNonceSize + plaintext.size() + kGcmTagSize);
  FillRandomBytes(out.data(), kGcmNonceSize);
  SESEMI_RETURN_IF_ERROR(gcm.EncryptInto(ByteSpan(out.data(), kGcmNonceSize), aad_a,
                                         aad_b, plaintext, out.data() + kGcmNonceSize));
  return out;
}

Result<Bytes> GcmOpenPartsWith(const AesGcm& gcm, ByteSpan aad_a, ByteSpan aad_b,
                               ByteSpan sealed) {
  if (sealed.size() < kGcmNonceSize + kGcmTagSize) {
    return Status::Unauthenticated("sealed message too short");
  }
  if (static_cast<uint64_t>(sealed.size() - kGcmNonceSize - kGcmTagSize) >
      kGcmMaxPlaintextSize) {
    return Status::InvalidArgument(
        "GCM ciphertext exceeds the SP 800-38D limit of 2^39-256 bits");
  }
  ByteSpan nonce(sealed.data(), kGcmNonceSize);
  ByteSpan ct(sealed.data() + kGcmNonceSize, sealed.size() - kGcmNonceSize);
  Bytes plain(ct.size() - kGcmTagSize);
  SESEMI_RETURN_IF_ERROR(gcm.DecryptInto(nonce, aad_a, aad_b, ct, plain.data()));
  return plain;
}

Result<Bytes> GcmSealParts(ByteSpan key, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan plaintext) {
  SESEMI_ASSIGN_OR_RETURN(AesGcm gcm, AesGcm::Create(key));
  return GcmSealPartsWith(gcm, aad_a, aad_b, plaintext);
}

Result<Bytes> GcmOpenParts(ByteSpan key, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan sealed) {
  SESEMI_ASSIGN_OR_RETURN(AesGcm gcm, AesGcm::Create(key));
  return GcmOpenPartsWith(gcm, aad_a, aad_b, sealed);
}

Result<Bytes> GcmSeal(ByteSpan key, ByteSpan aad, ByteSpan plaintext) {
  return GcmSealParts(key, aad, {}, plaintext);
}

Result<Bytes> GcmOpen(ByteSpan key, ByteSpan aad, ByteSpan sealed) {
  return GcmOpenParts(key, aad, {}, sealed);
}

}  // namespace sesemi::crypto
