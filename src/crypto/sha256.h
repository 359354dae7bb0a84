#ifndef SESEMI_CRYPTO_SHA256_H_
#define SESEMI_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/cpuid.h"

namespace sesemi::crypto {

/// Size of a SHA-256 digest in bytes.
constexpr size_t kSha256DigestSize = 32;
/// SHA-256 block size in bytes (relevant for HMAC).
constexpr size_t kSha256BlockSize = 64;

using Sha256Digest = std::array<uint8_t, kSha256DigestSize>;

/// Incremental SHA-256 (FIPS 180-4).
///
/// Used for enclave measurement (MRENCLAVE derivation), identity hashing
/// (Algorithm 1 line 6: id = SHA256(K_id)), and as the compression core of
/// HMAC/HKDF.
///
/// Two compression tiers sit behind Primitive::kSha256 (common/cpuid.h):
/// SHA-NI two-rounds-per-instruction (kHardware) when the CPU has the SHA
/// extensions, and the portable FIPS 180-4 rounds otherwise. Both produce
/// identical digests. The tier is resolved on its own: it does not depend
/// on which AES-GCM tier runs.
class Sha256 {
 public:
  Sha256() : Sha256(Tier::kAuto) { }
  /// Pin a compression tier (tests/benches) through
  /// ResolveTier(Primitive::kSha256, tier): kAuto follows the process-wide
  /// choice, and a tier the CPU (or SHA-256) lacks runs portable.
  explicit Sha256(Tier tier);

  /// Restart for a fresh message (keeps the pinned tier).
  void Reset();
  /// Absorb bytes; may be called any number of times.
  void Update(ByteSpan data);
  /// Finalize and produce the digest. The object must be Reset() before reuse.
  Sha256Digest Finish();

  /// True when this instance compresses with SHA-NI.
  bool hardware() const { return hw_; }

  /// One-shot convenience.
  static Sha256Digest Hash(ByteSpan data);
  /// One-shot digest as a Bytes buffer.
  static Bytes HashToBytes(ByteSpan data);

 private:
  void ProcessBlocks(const uint8_t* data, size_t blocks);

  uint32_t state_[8];
  uint64_t bit_count_;
  uint8_t buffer_[kSha256BlockSize];
  size_t buffer_len_;
  bool hw_ = false;
};

}  // namespace sesemi::crypto

#endif  // SESEMI_CRYPTO_SHA256_H_
