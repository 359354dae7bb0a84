#include "common/cpuid.h"

#include <cstdlib>
#include <iterator>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SESEMI_CPUID_X86 1
#endif

namespace sesemi {
namespace {

#ifdef SESEMI_CPUID_X86

// XCR0 component bits (Intel SDM vol. 1, "XSAVE-Managed State").
constexpr unsigned long long kXcr0Sse = 0x2;        // XMM
constexpr unsigned long long kXcr0Avx = 0x4;        // YMM
constexpr unsigned long long kXcr0Opmask = 0x20;    // k0-k7
constexpr unsigned long long kXcr0ZmmHi256 = 0x40;  // ZMM0-15 upper halves
constexpr unsigned long long kXcr0Hi16Zmm = 0x80;   // ZMM16-31

unsigned long long ReadXcr0() {
  unsigned int eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<unsigned long long>(edx) << 32) | eax;
}

CpuFeatures Probe() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;

  f.ssse3 = ecx & (1u << 9);
  f.sse41 = ecx & (1u << 19);
  f.aes = ecx & (1u << 25);
  f.pclmul = ecx & (1u << 1);
  const bool osxsave = ecx & (1u << 27);
  const bool cpu_avx = ecx & (1u << 28);
  const bool cpu_fma = ecx & (1u << 12);

  unsigned long long xcr0 = osxsave ? ReadXcr0() : 0;
  f.os_avx = (xcr0 & (kXcr0Sse | kXcr0Avx)) == (kXcr0Sse | kXcr0Avx);
  const unsigned long long avx512_state =
      kXcr0Sse | kXcr0Avx | kXcr0Opmask | kXcr0ZmmHi256 | kXcr0Hi16Zmm;
  f.os_avx512 = (xcr0 & avx512_state) == avx512_state;

  unsigned int max_leaf = __get_cpuid_max(0, nullptr);
  if (max_leaf >= 7) {
    unsigned int b7 = 0, c7 = 0, d7 = 0, a7 = 0;
    __cpuid_count(7, 0, a7, b7, c7, d7);
    f.sha = b7 & (1u << 29);  // SHA-NI needs only SSE state (always on).
    if (f.os_avx) {
      f.avx2 = cpu_avx && (b7 & (1u << 5));
      f.fma = cpu_avx && cpu_fma;
    }
    if (f.os_avx512) {
      f.avx512f = b7 & (1u << 16);
      f.avx512bw = b7 & (1u << 30);
      f.avx512vl = b7 & (1u << 31);
      f.avx512vnni = c7 & (1u << 11);
      // VAES/VPCLMULQDQ encode 256-bit forms usable with AVX alone, but our
      // kernels use the 512-bit forms, so gate them on AVX-512 state too.
      f.vaes = c7 & (1u << 9);
      f.vpclmulqdq = c7 & (1u << 10);
    }
  }
  return f;
}

#else  // !SESEMI_CPUID_X86

CpuFeatures Probe() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& GetCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

namespace {

constexpr int kNumPrimitives = static_cast<int>(std::size(kAllPrimitives));
constexpr int kNumTiers = 4;

using Predicate = bool (CpuFeatures::*)() const;

// One row per Primitive, columns indexed by Tier. A null predicate means the
// primitive has no such tier (kAuto and kPortable need none).
struct PrimitiveRow {
  const char* name;
  const char* tier_names[kNumTiers];
  Predicate needs[kNumTiers];
};

constexpr PrimitiveRow kTable[kNumPrimitives] = {
    {"aes_gcm",
     {"auto", "portable", "aesni", "vaes"},
     {nullptr, nullptr, &CpuFeatures::AesniGcm, &CpuFeatures::VaesGcm}},
    {"sha256",
     {"auto", "portable", "sha-ni", nullptr},
     {nullptr, nullptr, &CpuFeatures::ShaNi, nullptr}},
    {"gemm_f32",
     {"auto", "portable", "avx2", nullptr},
     {nullptr, nullptr, &CpuFeatures::Avx2Fma, nullptr}},
    {"gemm_int8",
     {"auto", "portable", "avx2", "avx512-vnni"},
     {nullptr, nullptr, &CpuFeatures::Avx2Fma, &CpuFeatures::Avx512Vnni}},
};

struct Resolution {
  bool available[kNumPrimitives][kNumTiers];
  Tier auto_tier[kNumPrimitives];
};

Resolution Resolve() {
  const CpuFeatures& cpu = GetCpuFeatures();
  const char* force = std::getenv("SESEMI_FORCE_PORTABLE");
  const bool force_portable = force != nullptr && force[0] != '\0' &&
                              !(force[0] == '0' && force[1] == '\0');
  Resolution r{};
  for (int p = 0; p < kNumPrimitives; ++p) {
    r.available[p][static_cast<int>(Tier::kAuto)] = true;
    r.available[p][static_cast<int>(Tier::kPortable)] = true;
    r.auto_tier[p] = Tier::kPortable;
    for (int t = static_cast<int>(Tier::kHardware); t < kNumTiers; ++t) {
      const Predicate needs = kTable[p].needs[t];
      r.available[p][t] = needs != nullptr && (cpu.*needs)();
      if (r.available[p][t] && !force_portable) {
        r.auto_tier[p] = static_cast<Tier>(t);
      }
    }
  }
  return r;
}

const Resolution& Resolved() {
  static const Resolution resolution = Resolve();
  return resolution;
}

bool ValidTier(Tier tier) {
  return static_cast<unsigned>(tier) < static_cast<unsigned>(kNumTiers);
}

}  // namespace

bool TierAvailable(Primitive primitive, Tier tier) {
  const int p = static_cast<int>(primitive);
  return ValidTier(tier) && Resolved().available[p][static_cast<int>(tier)];
}

Tier ResolveTier(Primitive primitive, Tier pinned) {
  if (pinned == Tier::kAuto) {
    return Resolved().auto_tier[static_cast<int>(primitive)];
  }
  return TierAvailable(primitive, pinned) ? pinned : Tier::kPortable;
}

const char* PrimitiveName(Primitive primitive) {
  return kTable[static_cast<int>(primitive)].name;
}

const char* TierName(Primitive primitive, Tier tier) {
  if (!ValidTier(tier)) return "none";
  const char* name =
      kTable[static_cast<int>(primitive)].tier_names[static_cast<int>(tier)];
  return name != nullptr ? name : "none";
}

}  // namespace sesemi
