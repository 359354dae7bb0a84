#ifndef SESEMI_CRYPTO_AES_H_
#define SESEMI_CRYPTO_AES_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/cpuid.h"
#include "common/result.h"

namespace sesemi::crypto {

constexpr size_t kAesBlockSize = 16;
constexpr size_t kAes128KeySize = 16;
constexpr size_t kAes256KeySize = 32;

/// AES block cipher (FIPS 197), 128- or 256-bit keys.
///
/// Only the forward (encryption) direction is implemented: the library uses
/// AES exclusively in counter-based modes (GCM), which never need the inverse
/// cipher. This keeps the in-enclave TCB small, matching the paper's goal of a
/// minimal enclave interface.
///
/// Three tiers sit behind one key schedule (Primitive::kAesGcm in
/// common/cpuid.h): 512-bit VAES streams (kWide), constant-time AES-NI rounds
/// (kHardware, 4/8-block pipelined), and the T-table path as the portable
/// fallback. The classic table cache-timing caveat applies to the fallback
/// only.
class Aes {
 public:
  /// Expands the key schedule. Accepts 16- or 32-byte keys. `tier` pins an
  /// implementation through ResolveTier(Primitive::kAesGcm, tier): kAuto
  /// follows the process-wide choice, and a tier the CPU lacks runs portable
  /// (hardware()/vaes() report what runs).
  static Result<Aes> Create(ByteSpan key, Tier tier = Tier::kAuto);

  /// Encrypt exactly one 16-byte block, in == out allowed.
  void EncryptBlock(const uint8_t in[kAesBlockSize], uint8_t out[kAesBlockSize]) const;

  /// Encrypt four independent 16-byte blocks, rounds interleaved for ILP.
  /// `in == out` allowed. This is the CTR keystream batch primitive.
  void EncryptBlocks4(const uint8_t in[4 * kAesBlockSize],
                      uint8_t out[4 * kAesBlockSize]) const;

  /// Encrypt eight independent 16-byte blocks. On the hardware backend this
  /// is a single 8-wide AESENC pipeline (the wide GCM keystream batch); the
  /// portable path runs two 4-block groups.
  void EncryptBlocks8(const uint8_t in[8 * kAesBlockSize],
                      uint8_t out[8 * kAesBlockSize]) const;

  /// Encrypt sixteen independent 16-byte blocks. On the VAES tier this is
  /// four 512-bit AESENC streams (4×128-bit lanes each, 16 blocks in flight);
  /// lower tiers run two EncryptBlocks8 groups.
  void EncryptBlocks16(const uint8_t in[16 * kAesBlockSize],
                       uint8_t out[16 * kAesBlockSize]) const;

  /// Number of AES rounds (10 for AES-128, 14 for AES-256).
  int rounds() const { return rounds_; }

  /// True when this instance runs the AES-NI path (or wider).
  bool hardware() const { return hw_; }

  /// True when this instance runs the 512-bit VAES path.
  bool vaes() const { return vaes_; }

 private:
  Aes() = default;
  void ExpandKey(ByteSpan key);

  uint32_t round_keys_[60];  // max 15 round keys * 4 words
  /// The same schedule serialized big-endian per word — exactly the byte
  /// layout AESENC consumes — so the hardware path needs no aeskeygenassist.
  alignas(16) uint8_t round_key_bytes_[15 * kAesBlockSize];
  int rounds_ = 0;
  bool hw_ = false;
  bool vaes_ = false;
};

}  // namespace sesemi::crypto

#endif  // SESEMI_CRYPTO_AES_H_
