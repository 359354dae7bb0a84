#ifndef SESEMI_SEMIRT_SEMIRT_H_
#define SESEMI_SEMIRT_SEMIRT_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "inference/framework.h"
#include "keyservice/keyservice.h"
#include "semirt/keyservice_link.h"
#include "semirt/request_codec.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

namespace sesemi::semirt {

/// Execution strategy of a serverless instance. kSesemi is this paper's
/// runtime; the others are the evaluation baselines (§VI):
///  - kIsoReuse  — S-FaaS/Clemmys-style: reuse enclave + decryption keys, but
///    reload the model and re-initialize the runtime for every request.
///  - kNative    — existing serverless runtimes: a fresh enclave per request.
///  - kUntrusted — no TEE, plaintext models and requests (Figure 9's
///    "Untrusted"); model reuse across requests gives "Untrusted (reuse)".
enum class RuntimeMode { kSesemi, kIsoReuse, kNative, kUntrusted };

const char* ToString(RuntimeMode mode);

/// Classification of an invocation per Figure 4.
enum class InvocationKind { kCold, kWarm, kHot };

const char* ToString(InvocationKind kind);

/// Deployment-time configuration. Everything here except `heap_size_bytes`
/// defaults is part of the enclave identity (MeasurementFor), matching §V.
struct SemirtOptions {
  inference::FrameworkKind framework = inference::FrameworkKind::kTvm;
  /// Compile models through the int8 quantized tier (see
  /// inference::FrameworkOptions::quantize). Changes the numbers a model
  /// produces, so it is part of the enclave identity: users attesting the
  /// enclave see whether their requests run int8 or fp32.
  bool quantize = false;
  RuntimeMode mode = RuntimeMode::kSesemi;
  uint32_t num_tcs = 1;  ///< TCS slots, in [1, SemirtInstance::kMaxTcs]
  uint64_t heap_size_bytes = 256ull << 20;
  bool sequential_mode = false;    ///< Table II: strict per-request isolation
  bool disable_key_cache = false;  ///< part of sequential isolation build
  std::string fixed_model_id;      ///< restrict the enclave to one model
  bool reuse_model = true;         ///< kUntrusted only: cache the loaded model
  /// §IV-D model-extraction mitigation: round output confidence scores to
  /// this many decimal places before encryption (0 = disabled). Part of the
  /// enclave identity, so users can verify the policy is actually enforced.
  int round_scores_decimals = 0;
};

/// The deployment-time checks on `options` that do not depend on the
/// platform: num_tcs in [1, SemirtInstance::kMaxTcs], and exactly 1 for
/// sequential mode and the Native baseline. SemirtInstance::Create and
/// ServerlessPlatform::DeployFunction both apply them. InvalidArgument on
/// failure.
Status ValidateOptions(const SemirtOptions& options);

/// Per-request stage timings (live-mode measurements; the sim substitutes its
/// calibrated cost model for the same stages).
struct StageTimings {
  InvocationKind kind = InvocationKind::kHot;
  TimeMicros key_fetch = 0;     ///< attestation + KEY_PROVISIONING
  TimeMicros model_load = 0;    ///< storage fetch + copy-in + decrypt + parse
  TimeMicros runtime_init = 0;  ///< RUNTIME_INIT
  TimeMicros execute = 0;       ///< decrypt input + MODEL_EXEC + encrypt result
  TimeMicros total = 0;
};

/// Cooperative execution deadline. The pipeline checks it *between* stages
/// (after key fetch, model load, runtime init) — never mid-inference, so a
/// started MODEL_EXEC always runs to completion — and cuts the request with
/// kDeadlineExceeded once `clock->Now() >= deadline`. DeadlineEdf sheds only
/// at dispatch; this catches requests that start in time but overrun on a
/// cold path.
struct ExecDeadline {
  TimeMicros deadline = 0;
  const Clock* clock = nullptr;

  bool Expired() const { return clock != nullptr && clock->Now() >= deadline; }
  Status Check(const char* stage) const {
    if (!Expired()) return Status::OK();
    return Status::DeadlineExceeded(std::string("deadline cut after ") + stage);
  }
};

/// Cumulative instance statistics.
struct SemirtStats {
  int cold_invocations = 0;
  int warm_invocations = 0;
  int hot_invocations = 0;
  int key_fetches = 0;
  int model_loads = 0;
  int runtime_inits = 0;
  int requests = 0;
};

/// One serverless sandbox running the SeMIRT runtime (Figure 6): an enclave
/// with a shared decrypted-model cache, a single cached ⟨uid,Moid⟩ key pair,
/// and per-TCS thread contexts holding model runtimes.
///
/// \par Thread-safety contract
///  - HandleRequest may be called from any number of threads concurrently;
///    at most `num_tcs` execute inside at once, the rest block on TCS slot
///    acquisition exactly as on real SGX. Slot acquisition is a lock-free
///    CAS on a 64-bit free-slot bitmap; waiting uses a condition variable.
///  - A thread holding a slot has exclusive use of that slot's ThreadContext
///    (its model runtime and activation buffers); the instance mutex guards
///    only the shared state — loaded-model cache, key cache, statistics —
///    and is never held across model execution or KeyService round trips.
///  - Concurrent EnsureKeys / EnsureModel for the same (user, model) may
///    both do the fetch/load; the second write wins and the duplicate work
///    is benign (both produce identical state).
///  - ClearExecutionContext must not race with in-flight HandleRequest calls
///    (it tears down the runtimes those requests execute on); callers
///    serialize externally — the platform only invokes it on idle containers.
///  - stats(), heap_peak(), loaded_model_id() are safe at any time.
class SemirtInstance {
 public:
  /// Most TCS slots one instance has: one bit each in the free-slot mask.
  static constexpr uint32_t kMaxTcs = 64;

  /// Launch the instance: creates the enclave (the expensive part of a cold
  /// start) and connects the KeyService link. `keyservice` may be null only
  /// in kUntrusted mode; otherwise it must outlive the instance, whose
  /// destructor closes its KeyService session. Options that fail
  /// ValidateOptions are InvalidArgument.
  static Result<std::unique_ptr<SemirtInstance>> Create(
      sgx::SgxPlatform* platform, const SemirtOptions& options,
      storage::ObjectStore* storage, keyservice::KeyServiceServer* keyservice);

  ~SemirtInstance();

  /// The enclave identity E_S a deployment of `options` will have. Model
  /// owners and users derive this from the published code + configuration to
  /// write access-control entries (§III).
  static sgx::Measurement MeasurementFor(const SemirtOptions& options);

  /// ECALL EC_MODEL_INF + EC_GET_OUTPUT: serve one request, returning the
  /// result encrypted under the request key (raw output in kUntrusted mode).
  /// `deadline` (optional) is checked cooperatively between pipeline stages;
  /// an expired deadline cuts the request with kDeadlineExceeded.
  Result<Bytes> HandleRequest(const InferenceRequest& request,
                              StageTimings* timings = nullptr,
                              const ExecDeadline* deadline = nullptr);

  /// Serve a same-user, same-model batch (the scheduler's coalescer output)
  /// through ONE TCS slot and ONE enclave entry: keys, model, and runtime are
  /// ensured once, inputs are decrypted individually, inference runs as one
  /// batched MODEL_EXEC (multi-row GEMM), and each result is sealed under the
  /// shared request key. Returns per-request results in request order; a
  /// request that fails validation or decryption gets its own error without
  /// failing the rest. Entries whose user or model differ from the first
  /// request's are rejected with InvalidArgument (the key cache holds one
  /// ⟨uid,Moid⟩ pair — mixing would leak across sessions).
  ///
  /// Only the kSesemi mode takes the batched path; the baseline modes (and
  /// sequential isolation builds) fall back to per-request HandleRequest,
  /// preserving their per-request setup/teardown semantics.
  /// `timings` receives the batch's stage timings (shared by its requests).
  /// HandleRequest is this pipeline with a batch of one.
  std::vector<Result<Bytes>> HandleRequestBatch(
      const std::vector<const InferenceRequest*>& batch,
      StageTimings* timings = nullptr, const ExecDeadline* deadline = nullptr);

  /// ECALL EC_CLEAR_EXEC_CTX: drop all thread-local runtimes, the cached
  /// model, and cached keys, returning the enclave to its post-init state.
  void ClearExecutionContext();

  const SemirtOptions& options() const { return options_; }
  sgx::Enclave* enclave() { return enclave_.get(); }  ///< null in kUntrusted
  SemirtStats stats() const;

  /// Peak trusted-heap usage (Figure 10's measurement).
  uint64_t heap_peak() const;

  /// Currently loaded model id (empty if none) — used by schedulers that
  /// prefer hot containers.
  std::string loaded_model_id() const;

  /// Storage key where model `id`'s ciphertext lives.
  static std::string ModelObjectKey(const std::string& model_id);
  /// Storage key for the plaintext copy used by the untrusted baselines.
  static std::string PlainModelObjectKey(const std::string& model_id);

 private:
  struct ThreadContext {
    std::string model_id;
    std::unique_ptr<inference::ModelRuntime> runtime;
    uint64_t charged_bytes = 0;
  };

  SemirtInstance(sgx::SgxPlatform* platform, SemirtOptions options,
                 storage::ObjectStore* storage,
                 keyservice::KeyServiceServer* keyservice);

  Status Initialize();

  /// The one SeMIRT request pipeline (§IV, Figure 6): serve n >= 1
  /// same-user, same-model requests through one TCS slot and one enclave
  /// entry — key fetch → model load → runtime init → decrypt → exec →
  /// encrypt — writing request i's outcome to results[i]. Each stage is an
  /// obs::Span stage scope, so its StageTimings field and its span come from
  /// the same two clock reads, and spans opened inside a stage (the RA-TLS
  /// handshake) nest under it.
  void RunPipeline(std::span<const InferenceRequest* const> batch,
                   Result<Bytes>* results, StageTimings* timings,
                   const ExecDeadline* deadline);
  /// The enclave stages for the admitted entries `live` of `batch`. A
  /// non-OK return fails every live entry; per-entry failures (decrypt,
  /// encrypt) are written to `results` directly.
  Status RunTrusted(std::span<const InferenceRequest* const> batch,
                    std::span<const size_t> live, int slot, Result<Bytes>* results,
                    StageTimings* timings, const ExecDeadline* deadline);
  /// kUntrusted: plaintext model load, runtime init, exec (one request).
  Status RunUntrusted(const InferenceRequest& request, int slot,
                      Result<Bytes>* result, StageTimings* timings,
                      const ExecDeadline* deadline);
  /// Classify an invocation per Figure 4 (cold on a fresh enclave, warm when
  /// it had to load keys, model, or runtime, else hot) and count `n`
  /// requests of that kind. Requires mutex_.
  InvocationKind ClassifyLocked(bool state_loaded, int n);
  inference::ModelRuntime* SlotRuntime(int slot);

  /// Ensure (K_M, K_R) for (uid, Moid) are available, honoring the one-pair
  /// key cache. Sets *fetched if a KeyService round trip happened.
  Result<std::pair<Bytes, Bytes>> EnsureKeys(const std::string& user_id,
                                             const std::string& model_id,
                                             bool* fetched);

  /// Ensure the target model is the loaded model (OC_LOAD_MODEL + decrypt +
  /// MODEL_LOAD; kUntrusted loads the plaintext copy and ignores
  /// `model_key`). Sets *loaded if a load happened.
  Result<std::shared_ptr<inference::LoadedModel>> EnsureModel(
      const std::string& model_id, ByteSpan model_key, bool* loaded);

  /// Ensure slot's runtime targets `model_id`. Sets *inited on RUNTIME_INIT.
  Status EnsureRuntime(int slot, const std::string& model_id,
                       const std::shared_ptr<inference::LoadedModel>& model,
                       bool* inited);

  int AcquireSlot();
  int TryAcquireSlotFast();
  void ReleaseSlot(int slot);
  void DropRuntimeLocked(ThreadContext* ctx);
  Status ChargeHeap(uint64_t bytes);
  void FreeHeap(uint64_t bytes);

  sgx::SgxPlatform* platform_;
  SemirtOptions options_;
  storage::ObjectStore* storage_;
  keyservice::KeyServiceServer* keyservice_;

  std::unique_ptr<sgx::Enclave> enclave_;
  std::unique_ptr<KeyServiceLink> link_;
  std::unique_ptr<inference::InferenceFramework> framework_;

  mutable std::mutex mutex_;
  std::vector<ThreadContext> contexts_;

  // TCS slot pool: acquisition is a CAS on the free-bit mask (bit i set =
  // slot i free) so the request hot path never takes a lock;
  // slot_mutex_/slot_cv_ only park threads when every slot is busy.
  std::atomic<uint64_t> free_slot_bits_;
  std::atomic<int> slot_waiters_{0};  ///< parked threads; gates the notify
  std::mutex slot_mutex_;
  std::condition_variable slot_cv_;

  // Shared (enclave-heap) state: one model, one key pair (Algorithm 2).
  std::shared_ptr<inference::LoadedModel> loaded_model_;
  std::string loaded_model_id_;
  uint64_t model_charged_bytes_ = 0;
  std::string cached_key_id_;  // Moid|uid
  Bytes cached_model_key_;
  Bytes cached_request_key_;

  bool enclave_fresh_ = true;  // next request is the cold one
  SemirtStats stats_;
  // Heap accounting for kUntrusted (no enclave). Atomic so Charge/Free are
  // safe from paths that already hold mutex_.
  std::atomic<uint64_t> untrusted_heap_peak_{0};
  std::atomic<uint64_t> untrusted_heap_used_{0};
};

}  // namespace sesemi::semirt

#endif  // SESEMI_SEMIRT_SEMIRT_H_
