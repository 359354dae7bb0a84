// Shared x86 CPU feature probe and the one tier resolver for runtime
// dispatch.
//
// A feature only counts as usable when the CPUID bit is set AND the OS has
// enabled the matching state-save component in XCR0 (XMM/YMM for AVX2, plus
// opmask/ZMM_Hi256/Hi16_ZMM for anything AVX-512) — the AVX-512-era bits
// __builtin_cpu_supports() gets wrong or misses. Probing and resolving once
// at first use keeps every dispatch site consistent and cheap.
#pragma once

namespace sesemi {

struct CpuFeatures {
  // Leaf 1 ECX.
  bool ssse3 = false;
  bool sse41 = false;
  bool aes = false;     // AES-NI
  bool pclmul = false;  // PCLMULQDQ
  // Leaf 7 subleaf 0 (EBX/ECX), each gated on the XCR0 state it needs.
  bool avx2 = false;          // + FMA from leaf 1
  bool fma = false;
  bool sha = false;           // SHA-NI (SSE state only)
  bool avx512f = false;
  bool avx512vl = false;
  bool avx512bw = false;
  bool avx512vnni = false;    // vpdpbusd
  bool vaes = false;          // 256/512-bit AESENC
  bool vpclmulqdq = false;    // 256/512-bit PCLMULQDQ

  // OS state-save support (XGETBV XCR0), recorded for diagnostics.
  bool os_avx = false;     // XMM+YMM (bits 1-2)
  bool os_avx512 = false;  // + opmask/ZMM_Hi256/Hi16_ZMM (bits 5-7)

  // Derived tier predicates, referenced by the resolver's tier table.
  bool Avx2Fma() const { return avx2 && fma; }
  // vpdpbusd on 512-bit vectors with masked tails.
  bool Avx512Vnni() const { return avx512f && avx512bw && avx512vl && avx512vnni; }
  // 4x128-lane AES + carryless multiply for the wide GCM tier.
  bool VaesGcm() const {
    return avx512f && avx512bw && avx512vl && vaes && vpclmulqdq && aes && pclmul;
  }
  bool AesniGcm() const { return aes && pclmul && ssse3; }
  bool ShaNi() const { return sha && sse41; }
};

// Probes once (thread-safe static init) and returns the cached result.
// Non-x86 builds report all-false.
const CpuFeatures& GetCpuFeatures();

// ------------------------------------------------------------ tier resolver
// The one dispatch rule for every SIMD and crypto primitive. Each primitive
// has a portable tier and up to two wider ones, each gated on one
// CpuFeatures predicate:
//   kAesGcm    hardware = AesniGcm (AES-NI + PCLMULQDQ), wide = VaesGcm
//   kSha256    hardware = ShaNi
//   kGemmF32   hardware = Avx2Fma (GEMM, GEMV, packed, depthwise)
//   kGemmInt8  hardware = Avx2Fma (maddubs), wide = Avx512Vnni (vpdpbusd)
// The table is resolved once per process. kAuto gives the widest available
// tier, or kPortable for every primitive when SESEMI_FORCE_PORTABLE is set
// non-empty and not "0" (the fallback leg of CI). An explicit pin is honoured
// when available and runs portable otherwise; all tiers of a primitive
// produce identical results, so a pin never changes outputs.
enum class Primitive { kAesGcm, kSha256, kGemmF32, kGemmInt8 };
inline constexpr Primitive kAllPrimitives[] = {
    Primitive::kAesGcm, Primitive::kSha256, Primitive::kGemmF32,
    Primitive::kGemmInt8};

// The numeric values are part of the bench series names (BM_DenseInt8's
// third argument) and must stay fixed.
enum class Tier { kAuto = 0, kPortable = 1, kHardware = 2, kWide = 3 };

// True when `tier` exists for `primitive` and this CPU can run it (kAuto and
// kPortable always can).
bool TierAvailable(Primitive primitive, Tier tier);

// The tier `pinned` runs on: kAuto follows the rule above, an unavailable
// pin gives kPortable.
Tier ResolveTier(Primitive primitive, Tier pinned = Tier::kAuto);

// "aes_gcm", "sha256", "gemm_f32", "gemm_int8".
const char* PrimitiveName(Primitive primitive);

// The tier's name for this primitive ("portable", "aesni", "vaes", "sha-ni",
// "avx2", "avx512-vnni", "auto"); "none" for a tier the primitive lacks.
const char* TierName(Primitive primitive, Tier tier);

}  // namespace sesemi
