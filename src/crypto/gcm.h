#ifndef SESEMI_CRYPTO_GCM_H_
#define SESEMI_CRYPTO_GCM_H_

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/aes.h"

namespace sesemi::crypto {

constexpr size_t kGcmNonceSize = 12;
constexpr size_t kGcmTagSize = 16;

/// NIST SP 800-38D limit on one message's plaintext: 2^39 - 256 bits
/// (2^36 - 32 bytes). Beyond it the 32-bit invocation counter would repeat a
/// counter block under the same key/nonce; sealing or opening anything longer
/// is rejected with InvalidArgument instead of silently wrapping.
constexpr uint64_t kGcmMaxPlaintextSize = (uint64_t{1} << 36) - 32;

/// AES-GCM authenticated encryption (NIST SP 800-38D).
///
/// This is the cipher the paper uses for both model and request encryption
/// (§V: "We use AES-GCM for model and request encryption"). Sealed messages
/// are laid out `nonce(12) || ciphertext || tag(16)` by the convenience
/// helpers below.
///
/// The bulk path is a fused single pass: the CTR keystream is generated in
/// batches and GHASH is accumulated over the same batch before moving on, so
/// each ciphertext byte is touched once while hot in L1. On the hardware
/// tier (AES-NI + PCLMULQDQ, see Primitive::kAesGcm) keystream batches
/// are 8 blocks wide and GHASH is a reflected carry-less multiply with
/// 4-block aggregation over precomputed H^1..H^4; the VAES+AVX-512 tier
/// widens this to 16-block (256-byte) keystream batches over 4×128-bit-lane
/// AESENC with 8-block VPCLMULQDQ GHASH aggregation over H^1..H^8; the
/// portable fallback keeps 4-block batches and a per-key 256-entry (8-bit
/// Shoup) table.
class AesGcm {
 public:
  /// Build a GCM instance over a 16- or 32-byte AES key. `tier` pins an
  /// implementation (tests/benches compare them); kAuto follows the
  /// process-wide selection, see Aes::Create.
  static Result<AesGcm> Create(ByteSpan key, Tier tier = Tier::kAuto);

  /// Encrypt `plaintext` with `nonce` (must be 12 bytes) and additional
  /// authenticated data `aad`. Output is ciphertext || tag.
  Result<Bytes> Encrypt(ByteSpan nonce, ByteSpan aad, ByteSpan plaintext) const;

  /// Authenticated decryption; input is ciphertext || tag. Returns
  /// Unauthenticated on any tag mismatch (tampered data, wrong key, wrong AAD).
  Result<Bytes> Decrypt(ByteSpan nonce, ByteSpan aad, ByteSpan ciphertext_and_tag) const;

  /// Zero-copy seal: writes ciphertext || tag (plaintext.size() + 16 bytes)
  /// into `out`. The AAD is the logical concatenation aad_a || aad_b, hashed
  /// as a stream so callers never materialize a combined buffer.
  Status EncryptInto(ByteSpan nonce, ByteSpan aad_a, ByteSpan aad_b,
                     ByteSpan plaintext, uint8_t* out) const;

  /// Zero-copy open: verifies the tag, then writes the plaintext
  /// (ciphertext_and_tag.size() - 16 bytes) into `out`.
  Status DecryptInto(ByteSpan nonce, ByteSpan aad_a, ByteSpan aad_b,
                     ByteSpan ciphertext_and_tag, uint8_t* out) const;

  /// True when this instance runs AES-NI + PCLMUL (or the wider VAES tier).
  bool hardware() const { return aes_.hardware(); }

  /// True when this instance runs the VAES+VPCLMULQDQ 512-bit tier.
  bool vaes() const { return aes_.vaes(); }

 private:
  explicit AesGcm(Aes aes);

  friend struct GcmTestPeer;  ///< counter-wrap regression drives CtrCryptAndHash

  struct GhashState;
  void GHashBlocks(uint8_t y[16], const uint8_t* data, size_t blocks) const;
  void GHashUpdate(GhashState* st, ByteSpan data) const;
  void GHashFlush(GhashState* st) const;

  /// One fused pass over `in`: CTR-crypt into `out` while absorbing either
  /// the output (encrypt) or the input (decrypt) into the GHASH accumulator
  /// `y`, 64 bytes at a time.
  void CtrCryptAndHash(const uint8_t j0[16], ByteSpan in, uint8_t* out,
                       uint8_t y[16], bool hash_output) const;

  void ComputeTag(const uint8_t j0[16], uint8_t y[16], size_t aad_len,
                  size_t ct_len, uint8_t tag[16]) const;

  Aes aes_;
  // Portable GHASH — 8-bit Shoup table: table_*_[b] = (the byte b, as the top
  // 8 bits of a field element) · H, in two big-endian halves. Built only on
  // the portable backend.
  uint64_t table_hi_[256];
  uint64_t table_lo_[256];
  // Hardware GHASH — H^1..H^8 in the byte-reflected convention the PCLMUL
  // kernel loads directly ([0] = H, [7] = H^8). Built only on the hardware
  // backends (the AES-NI tier uses H^1..H^4, the VAES tier aggregates 8
  // blocks against all eight powers); kept as raw bytes so <immintrin.h>
  // stays out of this header.
  alignas(16) uint8_t h_powers_[8][16];
};

/// Seal with a random nonce: returns nonce || ciphertext || tag.
Result<Bytes> GcmSeal(ByteSpan key, ByteSpan aad, ByteSpan plaintext);

/// Open a nonce || ciphertext || tag message produced by GcmSeal.
Result<Bytes> GcmOpen(ByteSpan key, ByteSpan aad, ByteSpan sealed);

/// Single-allocation seal with a two-part AAD (aad_a || aad_b): the output
/// buffer is sized once and the ciphertext+tag are written in place — no
/// intermediate Bytes copies, no materialized AAD concatenation.
/// GcmSealParts / GcmOpenParts over a caller-held cipher: amortizes the AES
/// key schedule and GHASH table build across many messages under one key
/// (the scheduler's same-session batches reuse one AesGcm for the whole
/// batch). Same wire format as the keyed helpers below.
Result<Bytes> GcmSealPartsWith(const AesGcm& gcm, ByteSpan aad_a, ByteSpan aad_b,
                               ByteSpan plaintext);
Result<Bytes> GcmOpenPartsWith(const AesGcm& gcm, ByteSpan aad_a, ByteSpan aad_b,
                               ByteSpan sealed);

Result<Bytes> GcmSealParts(ByteSpan key, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan plaintext);

/// Counterpart of GcmSealParts for opening.
Result<Bytes> GcmOpenParts(ByteSpan key, ByteSpan aad_a, ByteSpan aad_b,
                           ByteSpan sealed);

}  // namespace sesemi::crypto

#endif  // SESEMI_CRYPTO_GCM_H_
