#ifndef SESEMI_SERVERLESS_POLICY_H_
#define SESEMI_SERVERLESS_POLICY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "semirt/semirt.h"

/// \file
/// The platform's decision rules, in one place. The live platform
/// (ServerlessPlatform, SemirtInstance) and the discrete-event simulator
/// (sim::ClusterSim) both call these functions and keep no copy of their
/// own. Every rule is pure: state and event in, decision out, with no lock,
/// atomic or clock. The four decisions:
///  1. container sizing and node placement — ContainerBytes, ChooseNode;
///  2. warm-token choice — ChooseWarmToken, else ChooseLaunchToJoin;
///  3. invocation kind and per-stage reuse by mode — ReusesKeys,
///     ReusesModel, ReusesRuntime, RelaunchesEnclave, Classify;
///  4. keep-alive expiry — KeepAliveExpired.
namespace sesemi::serverless::policy {

/// Table V: container memory is provisioned in 128 MB steps.
inline constexpr uint64_t kMemoryGranularity = 128ull << 20;

/// The memory a container that asks for `requested` bytes is charged.
inline uint64_t ContainerBytes(uint64_t requested) {
  return (requested + kMemoryGranularity - 1) / kMemoryGranularity * kMemoryGranularity;
}

/// Node for a new container of `bytes`: the function's placement hint (the
/// node that last took one of its containers; -1 for none) while it has
/// room, else the node with the most free memory that fits. `used[i]` is
/// node i's committed memory out of `capacity`. Returns -1 when no node
/// fits.
inline int ChooseNode(int hint, std::span<const uint64_t> used, uint64_t capacity,
                      uint64_t bytes) {
  auto free_on = [&](size_t node) {
    return capacity > used[node] ? capacity - used[node] : 0;
  };
  if (hint >= 0 && static_cast<size_t>(hint) < used.size() &&
      free_on(static_cast<size_t>(hint)) >= bytes) {
    return hint;
  }
  int best = -1;
  uint64_t best_free = 0;
  for (size_t node = 0; node < used.size(); ++node) {
    const uint64_t free = free_on(node);
    if (free >= bytes && free > best_free) {
      best_free = free;
      best = static_cast<int>(node);
    }
  }
  return best;
}

/// Tokens below the LIFO top that a warm acquisition examines for a
/// container with the request's model already loaded.
inline constexpr int kAffinityPeek = 2;

/// Warm-token choice over a function's freelist: the LIFO top (the most
/// recently released, hottest container) unless it lacks the request's
/// model and one of the next kAffinityPeek tokens has it. `has_model(i)`
/// answers for the i-th token from the top (0 = top): whether its container
/// has the request's model loaded, or nullopt past the end of the list. It
/// is called for i = 0, 1, ... in order, and at most 1 + kAffinityPeek
/// times. Returns the index of the token to take, or -1 when the list is
/// empty (cold start).
template <typename HasModel>
int ChooseWarmToken(HasModel&& has_model) {
  const std::optional<bool> top = has_model(0);
  if (!top) return -1;
  if (*top) return 0;
  for (int i = 1; i <= kAffinityPeek; ++i) {
    const std::optional<bool> match = has_model(i);
    if (!match) break;
    if (*match) return i;
  }
  return 0;
}

/// An arrival that finds no warm token joins a launching container of its
/// function instead of starting another: it claims one of the launch's
/// spare tokens and takes it when the launch finishes (OpenWhisk likewise
/// routes activations to a container that is still starting). `unclaimed`
/// holds each launch's spare tokens (num_tcs - 1 at its start) no arrival
/// has claimed yet, oldest launch first. Returns the launch to join (the
/// oldest with a spare token), or -1 to cold-start a new container.
inline int ChooseLaunchToJoin(std::span<const int> unclaimed) {
  for (size_t i = 0; i < unclaimed.size(); ++i) {
    if (unclaimed[i] > 0) return static_cast<int>(i);
  }
  return -1;
}

/// The key-cache entry for one ⟨uid, Moid⟩ pair (Algorithm 2).
inline std::string KeyId(std::string_view model_id, std::string_view user_id) {
  return std::string(model_id) + "|" + std::string(user_id);
}

/// Whether a request can use the cached key pair `cached_key_id` instead of
/// a KeyService round trip. Sequential isolation needs no rule of its own:
/// its per-request scrub empties the cache.
inline bool ReusesKeys(const semirt::SemirtOptions& options,
                       std::string_view cached_key_id, std::string_view key_id) {
  return !options.disable_key_cache && cached_key_id == key_id;
}

/// Whether the mode keeps a loaded model (and its runtimes) across requests.
inline bool KeepsLoadedState(const semirt::SemirtOptions& options) {
  return options.mode == semirt::RuntimeMode::kSesemi ||
         (options.mode == semirt::RuntimeMode::kUntrusted && options.reuse_model);
}

/// Whether the loaded model `loaded_model_id` ("" = none) serves a request
/// for `model_id` without a reload. Only SeSeMI (and the untrusted baseline
/// with reuse_model) keeps models across requests.
inline bool ReusesModel(const semirt::SemirtOptions& options,
                        std::string_view loaded_model_id, std::string_view model_id) {
  return KeepsLoadedState(options) && !loaded_model_id.empty() &&
         loaded_model_id == model_id;
}

/// Whether a TCS slot whose runtime was built for `runtime_model_id`
/// ("" = no runtime) serves `model_id` without RUNTIME_INIT. Sequential
/// isolation never keeps a runtime.
inline bool ReusesRuntime(const semirt::SemirtOptions& options,
                          std::string_view runtime_model_id, std::string_view model_id) {
  return KeepsLoadedState(options) && !options.sequential_mode &&
         !runtime_model_id.empty() && runtime_model_id == model_id;
}

/// The Native baseline relaunches its enclave for every request after the
/// first one it launched with.
inline bool RelaunchesEnclave(const semirt::SemirtOptions& options, bool fresh) {
  return options.mode == semirt::RuntimeMode::kNative && !fresh;
}

/// Figure 4: the first request on a freshly launched enclave is cold; one
/// that had to fetch keys, load a model or init a runtime is warm; the rest
/// are hot.
inline semirt::InvocationKind Classify(bool fresh, bool state_loaded) {
  if (fresh) return semirt::InvocationKind::kCold;
  return state_loaded ? semirt::InvocationKind::kWarm : semirt::InvocationKind::kHot;
}

/// An idle container is reclaimed once it has been unused for `keep_alive`.
inline bool KeepAliveExpired(TimeMicros now, TimeMicros last_used,
                             TimeMicros keep_alive) {
  return now - last_used >= keep_alive;
}

/// One request's warm-pool decision. Both the live platform and the
/// simulator report it, so the differential harness can compare them.
struct Decision {
  std::string function;
  int container = -1;  ///< creation ordinal of the container in its function
  int node = -1;       ///< invoker node that hosts the container
  semirt::InvocationKind kind = semirt::InvocationKind::kHot;
};

}  // namespace sesemi::serverless::policy

#endif  // SESEMI_SERVERLESS_POLICY_H_
