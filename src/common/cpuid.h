// Shared x86 CPU feature probe for runtime dispatch.
//
// crypto/ and inference/ each grew their own __builtin_cpu_supports() calls;
// this centralises them and adds the AVX-512-era bits those builtins get
// wrong or miss: a feature only counts as usable when the CPUID bit is set
// AND the OS has enabled the matching state-save component in XCR0 (XMM/YMM
// for AVX2, plus opmask/ZMM_Hi256/Hi16_ZMM for anything AVX-512). Probing
// once at first use keeps every dispatch site consistent and cheap.
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

  // Derived tier predicates used by the dispatchers.
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

// True when SESEMI_FORCE_PORTABLE is set non-empty and not "0": the crypto
// and int8 GEMM auto dispatchers then pin their portable tiers. The one
// parse of that variable; callers cache their resolved tier.
bool ForcePortable();

}  // namespace sesemi
