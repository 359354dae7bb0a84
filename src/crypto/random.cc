#include "crypto/random.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>

#include "crypto/sha256.h"

namespace sesemi::crypto {

namespace {
std::mutex g_mutex;
bool g_deterministic = false;
uint64_t g_counter = 0;
Bytes g_seed_material;

Bytes DrbgBlock(uint64_t counter, ByteSpan seed) {
  Bytes input;
  PutUint64BE(&input, counter);
  Append(&input, seed);
  return Sha256::HashToBytes(input);
}

// Fills `out` from the DRBG stream. Caller holds g_mutex.
void FillFromDrbgLocked(uint8_t* out, size_t n) {
  for (size_t filled = 0; filled < n;) {
    Bytes block = DrbgBlock(g_counter++, g_seed_material);
    const size_t take = std::min(block.size(), n - filled);
    std::memcpy(out + filled, block.data(), take);
    filled += take;
  }
}
}  // namespace

void SetDeterministicRandomForTesting(bool enabled, uint64_t seed) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_deterministic = enabled;
  g_counter = 0;
  g_seed_material.clear();
  PutUint64BE(&g_seed_material, seed);
}

void FillRandomBytes(uint8_t* out, size_t n) {
  if (n == 0) return;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (g_deterministic) {
      FillFromDrbgLocked(out, n);
      return;
    }
  }

  static FILE* urandom = std::fopen("/dev/urandom", "rb");
  if (urandom != nullptr && std::fread(out, 1, n, urandom) == n) {
    return;
  }

  // Fallback DRBG: hash a monotonically increasing counter with a clock seed.
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_seed_material.empty()) {
    auto now = std::chrono::high_resolution_clock::now().time_since_epoch().count();
    PutUint64BE(&g_seed_material, static_cast<uint64_t>(now));
  }
  FillFromDrbgLocked(out, n);
}

Bytes RandomBytes(size_t n) {
  Bytes out(n);
  FillRandomBytes(out.data(), n);
  return out;
}

}  // namespace sesemi::crypto
