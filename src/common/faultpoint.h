#ifndef SESEMI_COMMON_FAULTPOINT_H_
#define SESEMI_COMMON_FAULTPOINT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"

namespace sesemi {

/// \file
/// Named, deterministic fault points — the injection half of the failure
/// model (docs/ARCHITECTURE.md "Failure model & recovery").
///
/// Cross-component boundaries place a SESEMI_FAULT_POINT("domain.op") probe
/// on their entry path. In production the probe is one relaxed atomic load
/// and a never-taken branch; chaos tests arm individual points with a
/// per-point probability, fire budget, latency, and error code, all driven
/// by a seeded common/rng generator (never wall-clock), so a failing soak
/// replays bit-identically under the same seed.

/// Canonical fault-point names (one per hardened boundary). Call sites use
/// these constants so tests cannot drift from the probes they arm.
namespace faults {
inline constexpr std::string_view kEcallEnter = "sgx.ecall.enter";
inline constexpr std::string_view kEnclaveHeapAlloc = "sgx.heap.alloc";
inline constexpr std::string_view kKeyServiceFetch = "semirt.keyservice.fetch";
inline constexpr std::string_view kRatlsHandshake = "ratls.handshake";
inline constexpr std::string_view kStorageGet = "storage.object.get";
inline constexpr std::string_view kServerlessDispatch = "serverless.dispatch";
inline constexpr std::string_view kServerlessLaunch = "serverless.launch";
}  // namespace faults

/// Per-point injection policy.
struct FaultConfig {
  /// Chance that one evaluation triggers (latency and/or error).
  double probability = 1.0;
  /// Stop triggering after this many fires (-1 = unlimited).
  int max_fires = -1;
  /// Let the first N evaluations pass untouched (deterministic "fail the
  /// K-th call" scenarios).
  int skip_first = 0;
  /// Stall a triggering evaluation this long before returning (models a
  /// hung link / slow storage). 0 = fail fast.
  TimeMicros latency_micros = 0;
  /// Error a triggering evaluation returns. kOk makes the point latency-only
  /// (it stalls but never fails).
  StatusCode error_code = StatusCode::kUnavailable;
};

/// Cumulative per-point counters.
struct FaultPointStats {
  uint64_t evaluations = 0;  ///< probe executions while armed
  uint64_t fires = 0;        ///< evaluations that triggered
};

namespace faultpoint_internal {
/// Number of armed points. Lives outside the class so the macro's fast path
/// inlines to a single relaxed load with no function call.
extern std::atomic<uint32_t> g_armed_points;
}  // namespace faultpoint_internal

/// Process-wide fault-point registry. All mutation goes through a mutex —
/// fault evaluation is the slow path by definition; the hot path never gets
/// here (see SESEMI_FAULT_POINT).
///
/// \threadsafety All methods safe to call concurrently. With multiple
/// threads the *interleaving* of draws is scheduling-dependent, but the
/// draw sequence itself is the seeded generator's, so single-threaded
/// replays are bit-identical and multi-threaded fire counts are
/// seed-stable in distribution.
class FaultInjector {
 public:
  static FaultInjector& Instance();

  /// True when at least one point is armed (the macro's gate).
  static bool AnyArmed() {
    return faultpoint_internal::g_armed_points.load(std::memory_order_relaxed) != 0;
  }

  /// Arm `point` with `config` (re-arming replaces the config and resets the
  /// point's counters).
  void Arm(std::string_view point, const FaultConfig& config);
  void Disarm(std::string_view point);
  void DisarmAll();

  /// Re-seed the shared draw sequence (tests call this next to Arm so a run
  /// is reproducible end to end).
  void Reseed(uint64_t seed);

  FaultPointStats stats(std::string_view point) const;
  uint64_t total_fires() const;
  /// Evaluate calls since the last DisarmAll/Reseed — the
  /// zero-overhead-when-disabled probe asserts this stays 0.
  uint64_t total_evaluations() const;

  /// Slow path behind the macro: decide whether `point` fires, apply its
  /// latency, and return its error (OK = pass).
  Status Evaluate(std::string_view point);

 private:
  FaultInjector() = default;

  struct Point {
    FaultConfig config;
    FaultPointStats stats;
  };

  mutable std::mutex mutex_;
  Rng rng_;  ///< guarded by mutex_
  std::unordered_map<std::string, Point> points_;  ///< guarded by mutex_
  std::atomic<uint64_t> total_evaluations_{0};
  std::atomic<uint64_t> total_fires_{0};
};

/// RAII arm/disarm for tests: the point is disarmed (and its counters kept)
/// when the scope exits, so a failing assertion cannot leak an armed fault
/// into later tests.
class ScopedFault {
 public:
  ScopedFault(std::string_view point, const FaultConfig& config)
      : point_(point) {
    FaultInjector::Instance().Arm(point_, config);
  }
  ~ScopedFault() { FaultInjector::Instance().Disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  std::string point_;
};

/// Fault probe: a no-op branch when nothing is armed; returns the injected
/// Status from the enclosing function when the point fires. Usable in any
/// function returning Status or Result<T>.
#define SESEMI_FAULT_POINT(point)                                       \
  do {                                                                  \
    if (::sesemi::FaultInjector::AnyArmed()) {                          \
      ::sesemi::Status _sesemi_fault =                                  \
          ::sesemi::FaultInjector::Instance().Evaluate(point);          \
      if (!_sesemi_fault.ok()) return _sesemi_fault;                    \
    }                                                                   \
  } while (0)

}  // namespace sesemi

#endif  // SESEMI_COMMON_FAULTPOINT_H_
