#include "crypto/aes.h"

#include <array>
#include <cstring>

#include "common/cpuid.h"
#include "crypto/intrinsics.h"

namespace sesemi::crypto {

namespace {
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[15] = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                               0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a};

constexpr uint8_t XTimeC(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// T-tables: Te0[x] packs the MixColumns contribution of an input byte at row
// 0 as the big-endian word [2·S(x), S(x), S(x), 3·S(x)]; Te1..Te3 are byte
// rotations of Te0 covering rows 1..3 after ShiftRows. One round of
// SubBytes+ShiftRows+MixColumns then collapses to 16 table lookups and 12
// XORs. (These are key-independent public tables; the classic cache-timing
// caveat applies exactly as it does to the S-box path they replace.)
struct TeTables {
  uint32_t te0[256], te1[256], te2[256], te3[256];
};

constexpr TeTables MakeTeTables() {
  TeTables t{};
  for (int i = 0; i < 256; ++i) {
    const uint8_t s = kSbox[i];
    const uint8_t s2 = XTimeC(s);
    const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
    const uint32_t w = (static_cast<uint32_t>(s2) << 24) |
                       (static_cast<uint32_t>(s) << 16) |
                       (static_cast<uint32_t>(s) << 8) | s3;
    t.te0[i] = w;
    t.te1[i] = (w >> 8) | (w << 24);
    t.te2[i] = (w >> 16) | (w << 16);
    t.te3[i] = (w >> 24) | (w << 8);
  }
  return t;
}

constexpr TeTables kTe = MakeTeTables();

inline uint32_t SubWord(uint32_t w) {
  // T-table-driven SubBytes for the key schedule: the low byte of Te2[x] is
  // S(x), so no separate S-box pass is needed on this path either.
  return ((kTe.te2[(w >> 24) & 0xff] & 0xff) << 24) |
         ((kTe.te2[(w >> 16) & 0xff] & 0xff) << 16) |
         ((kTe.te2[(w >> 8) & 0xff] & 0xff) << 8) |
         (kTe.te2[w & 0xff] & 0xff);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline uint32_t HostToBe32(uint32_t v) { return v; }
#else
inline uint32_t HostToBe32(uint32_t v) { return __builtin_bswap32(v); }
#endif

inline uint32_t Load32BE(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return HostToBe32(v);
}

inline void Store32BE(uint8_t* p, uint32_t v) {
  v = HostToBe32(v);
  std::memcpy(p, &v, 4);
}

#if SESEMI_CRYPTO_X86
// AES-NI pipeline: all blocks advance one AESENC per step, so the rounds of
// independent blocks overlap in the AES units exactly like the T-table path
// interleaves its table lookups — but constant-time and ~an order of
// magnitude fewer uops per block. Round keys arrive as the big-endian-word
// serialization of the schedule, which is the byte layout AESENC consumes.
__attribute__((target("aes,sse2"))) void AesniEncryptBlocks(
    const uint8_t* round_key_bytes, int rounds, const uint8_t* in, uint8_t* out,
    size_t nblocks) {
  __m128i keys[15];
  for (int r = 0; r <= rounds; ++r) {
    keys[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_key_bytes + 16 * r));
  }
  while (nblocks >= 8) {
    __m128i s[8];
    for (int b = 0; b < 8; ++b) {
      s[b] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * b)), keys[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int b = 0; b < 8; ++b) s[b] = _mm_aesenc_si128(s[b], keys[r]);
    }
    for (int b = 0; b < 8; ++b) {
      s[b] = _mm_aesenclast_si128(s[b], keys[rounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), s[b]);
    }
    in += 8 * 16;
    out += 8 * 16;
    nblocks -= 8;
  }
  while (nblocks >= 4) {
    __m128i s[4];
    for (int b = 0; b < 4; ++b) {
      s[b] = _mm_xor_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * b)), keys[0]);
    }
    for (int r = 1; r < rounds; ++r) {
      for (int b = 0; b < 4; ++b) s[b] = _mm_aesenc_si128(s[b], keys[r]);
    }
    for (int b = 0; b < 4; ++b) {
      s[b] = _mm_aesenclast_si128(s[b], keys[rounds]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * b), s[b]);
    }
    in += 4 * 16;
    out += 4 * 16;
    nblocks -= 4;
  }
  while (nblocks > 0) {
    __m128i s = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), keys[0]);
    for (int r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, keys[r]);
    s = _mm_aesenclast_si128(s, keys[rounds]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
    in += 16;
    out += 16;
    nblocks--;
  }
}

// VAES pipeline: four 512-bit streams of 4×128-bit lanes each — 16 blocks in
// flight per AESENC step, each round key broadcast across the lanes. Same
// big-endian-serialized schedule as the 128-bit path.
__attribute__((target("avx512f,avx512bw,avx512vl,vaes"))) void VaesEncryptBlocks16(
    const uint8_t* round_key_bytes, int rounds, const uint8_t* in, uint8_t* out) {
  __m512i keys[15];
  for (int r = 0; r <= rounds; ++r) {
    keys[r] = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_key_bytes + 16 * r)));
  }
  __m512i s[4];
  for (int g = 0; g < 4; ++g) {
    s[g] = _mm512_xor_si512(
        _mm512_loadu_si512(reinterpret_cast<const void*>(in + 64 * g)), keys[0]);
  }
  for (int r = 1; r < rounds; ++r) {
    for (int g = 0; g < 4; ++g) s[g] = _mm512_aesenc_epi128(s[g], keys[r]);
  }
  for (int g = 0; g < 4; ++g) {
    s[g] = _mm512_aesenclast_epi128(s[g], keys[rounds]);
    _mm512_storeu_si512(reinterpret_cast<void*>(out + 64 * g), s[g]);
  }
}
#endif  // SESEMI_CRYPTO_X86
}  // namespace

Result<Aes> Aes::Create(ByteSpan key, Tier tier) {
  if (key.size() != kAes128KeySize && key.size() != kAes256KeySize) {
    return Status::InvalidArgument("AES key must be 16 or 32 bytes");
  }
  tier = ResolveTier(Primitive::kAesGcm, tier);
  Aes aes;
  aes.hw_ = tier != Tier::kPortable;
  aes.vaes_ = tier == Tier::kWide;
  aes.ExpandKey(key);
  return aes;
}

void Aes::ExpandKey(ByteSpan key) {
  const int nk = static_cast<int>(key.size() / 4);  // 4 or 8
  rounds_ = nk + 6;                                 // 10 or 14
  const int total_words = 4 * (rounds_ + 1);

  for (int i = 0; i < nk; ++i) {
    round_keys_[i] = Load32BE(key.data() + 4 * i);
  }
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ (static_cast<uint32_t>(kRcon[i / nk - 1]) << 24);
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
  for (int i = 0; i < total_words; ++i) {
    Store32BE(round_key_bytes_ + 4 * i, round_keys_[i]);
  }
}

void Aes::EncryptBlock(const uint8_t in[kAesBlockSize],
                       uint8_t out[kAesBlockSize]) const {
#if SESEMI_CRYPTO_X86
  if (hw_) {
    AesniEncryptBlocks(round_key_bytes_, rounds_, in, out, 1);
    return;
  }
#endif
  const uint32_t* rk = round_keys_;
  uint32_t s0 = Load32BE(in) ^ rk[0];
  uint32_t s1 = Load32BE(in + 4) ^ rk[1];
  uint32_t s2 = Load32BE(in + 8) ^ rk[2];
  uint32_t s3 = Load32BE(in + 12) ^ rk[3];
  rk += 4;

  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const uint32_t t0 = kTe.te0[s0 >> 24] ^ kTe.te1[(s1 >> 16) & 0xff] ^
                        kTe.te2[(s2 >> 8) & 0xff] ^ kTe.te3[s3 & 0xff] ^ rk[0];
    const uint32_t t1 = kTe.te0[s1 >> 24] ^ kTe.te1[(s2 >> 16) & 0xff] ^
                        kTe.te2[(s3 >> 8) & 0xff] ^ kTe.te3[s0 & 0xff] ^ rk[1];
    const uint32_t t2 = kTe.te0[s2 >> 24] ^ kTe.te1[(s3 >> 16) & 0xff] ^
                        kTe.te2[(s0 >> 8) & 0xff] ^ kTe.te3[s1 & 0xff] ^ rk[2];
    const uint32_t t3 = kTe.te0[s3 >> 24] ^ kTe.te1[(s0 >> 16) & 0xff] ^
                        kTe.te2[(s1 >> 8) & 0xff] ^ kTe.te3[s2 & 0xff] ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const uint32_t o0 = (static_cast<uint32_t>(kSbox[s0 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(s1 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(s2 >> 8) & 0xff]) << 8) |
                      kSbox[s3 & 0xff];
  const uint32_t o1 = (static_cast<uint32_t>(kSbox[s1 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(s2 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(s3 >> 8) & 0xff]) << 8) |
                      kSbox[s0 & 0xff];
  const uint32_t o2 = (static_cast<uint32_t>(kSbox[s2 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(s3 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(s0 >> 8) & 0xff]) << 8) |
                      kSbox[s1 & 0xff];
  const uint32_t o3 = (static_cast<uint32_t>(kSbox[s3 >> 24]) << 24) |
                      (static_cast<uint32_t>(kSbox[(s0 >> 16) & 0xff]) << 16) |
                      (static_cast<uint32_t>(kSbox[(s1 >> 8) & 0xff]) << 8) |
                      kSbox[s2 & 0xff];
  Store32BE(out, o0 ^ rk[0]);
  Store32BE(out + 4, o1 ^ rk[1]);
  Store32BE(out + 8, o2 ^ rk[2]);
  Store32BE(out + 12, o3 ^ rk[3]);
}

void Aes::EncryptBlocks4(const uint8_t in[4 * kAesBlockSize],
                         uint8_t out[4 * kAesBlockSize]) const {
#if SESEMI_CRYPTO_X86
  if (hw_) {
    AesniEncryptBlocks(round_key_bytes_, rounds_, in, out, 4);
    return;
  }
#endif
  // Four independent blocks interleaved round-by-round: the per-lookup L1
  // latency of one block's round overlaps the others', which is what makes
  // the CTR keystream batch in GCM run close to table-lookup throughput.
  uint32_t s[4][4];
  const uint32_t* rk = round_keys_;
  for (int b = 0; b < 4; ++b) {
    const uint8_t* p = in + 16 * b;
    s[b][0] = Load32BE(p) ^ rk[0];
    s[b][1] = Load32BE(p + 4) ^ rk[1];
    s[b][2] = Load32BE(p + 8) ^ rk[2];
    s[b][3] = Load32BE(p + 12) ^ rk[3];
  }
  rk += 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    for (int b = 0; b < 4; ++b) {
      const uint32_t t0 = kTe.te0[s[b][0] >> 24] ^ kTe.te1[(s[b][1] >> 16) & 0xff] ^
                          kTe.te2[(s[b][2] >> 8) & 0xff] ^ kTe.te3[s[b][3] & 0xff] ^
                          rk[0];
      const uint32_t t1 = kTe.te0[s[b][1] >> 24] ^ kTe.te1[(s[b][2] >> 16) & 0xff] ^
                          kTe.te2[(s[b][3] >> 8) & 0xff] ^ kTe.te3[s[b][0] & 0xff] ^
                          rk[1];
      const uint32_t t2 = kTe.te0[s[b][2] >> 24] ^ kTe.te1[(s[b][3] >> 16) & 0xff] ^
                          kTe.te2[(s[b][0] >> 8) & 0xff] ^ kTe.te3[s[b][1] & 0xff] ^
                          rk[2];
      const uint32_t t3 = kTe.te0[s[b][3] >> 24] ^ kTe.te1[(s[b][0] >> 16) & 0xff] ^
                          kTe.te2[(s[b][1] >> 8) & 0xff] ^ kTe.te3[s[b][2] & 0xff] ^
                          rk[3];
      s[b][0] = t0;
      s[b][1] = t1;
      s[b][2] = t2;
      s[b][3] = t3;
    }
  }
  for (int b = 0; b < 4; ++b) {
    uint8_t* p = out + 16 * b;
    const uint32_t o0 = (static_cast<uint32_t>(kSbox[s[b][0] >> 24]) << 24) |
                        (static_cast<uint32_t>(kSbox[(s[b][1] >> 16) & 0xff]) << 16) |
                        (static_cast<uint32_t>(kSbox[(s[b][2] >> 8) & 0xff]) << 8) |
                        kSbox[s[b][3] & 0xff];
    const uint32_t o1 = (static_cast<uint32_t>(kSbox[s[b][1] >> 24]) << 24) |
                        (static_cast<uint32_t>(kSbox[(s[b][2] >> 16) & 0xff]) << 16) |
                        (static_cast<uint32_t>(kSbox[(s[b][3] >> 8) & 0xff]) << 8) |
                        kSbox[s[b][0] & 0xff];
    const uint32_t o2 = (static_cast<uint32_t>(kSbox[s[b][2] >> 24]) << 24) |
                        (static_cast<uint32_t>(kSbox[(s[b][3] >> 16) & 0xff]) << 16) |
                        (static_cast<uint32_t>(kSbox[(s[b][0] >> 8) & 0xff]) << 8) |
                        kSbox[s[b][1] & 0xff];
    const uint32_t o3 = (static_cast<uint32_t>(kSbox[s[b][3] >> 24]) << 24) |
                        (static_cast<uint32_t>(kSbox[(s[b][0] >> 16) & 0xff]) << 16) |
                        (static_cast<uint32_t>(kSbox[(s[b][1] >> 8) & 0xff]) << 8) |
                        kSbox[s[b][2] & 0xff];
    Store32BE(p, o0 ^ rk[0]);
    Store32BE(p + 4, o1 ^ rk[1]);
    Store32BE(p + 8, o2 ^ rk[2]);
    Store32BE(p + 12, o3 ^ rk[3]);
  }
}

void Aes::EncryptBlocks8(const uint8_t in[8 * kAesBlockSize],
                         uint8_t out[8 * kAesBlockSize]) const {
#if SESEMI_CRYPTO_X86
  if (hw_) {
    AesniEncryptBlocks(round_key_bytes_, rounds_, in, out, 8);
    return;
  }
#endif
  // Portable fallback: two 4-block groups (8-wide interleave would spill the
  // 32 state words out of registers on the scalar path).
  EncryptBlocks4(in, out);
  EncryptBlocks4(in + 4 * kAesBlockSize, out + 4 * kAesBlockSize);
}

void Aes::EncryptBlocks16(const uint8_t in[16 * kAesBlockSize],
                          uint8_t out[16 * kAesBlockSize]) const {
#if SESEMI_CRYPTO_X86
  if (vaes_) {
    VaesEncryptBlocks16(round_key_bytes_, rounds_, in, out);
    return;
  }
#endif
  EncryptBlocks8(in, out);
  EncryptBlocks8(in + 8 * kAesBlockSize, out + 8 * kAesBlockSize);
}

}  // namespace sesemi::crypto
