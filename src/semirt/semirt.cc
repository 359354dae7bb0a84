#include "semirt/semirt.h"

#include <bit>
#include <cmath>
#include <optional>

#include "common/faultpoint.h"
#include "model/format.h"
#include "obs/trace.h"

namespace sesemi::semirt {

namespace {
/// Cooperative deadline cut between stages (never mid-inference).
Status CheckDeadline(const ExecDeadline* deadline, const char* stage) {
  return deadline == nullptr ? Status::OK() : deadline->Check(stage);
}

/// §IV-D model-extraction mitigation: quantize the raw float32 output to
/// `decimals` decimal places, in place. Runs inside the enclave before the
/// result is encrypted, so the precise scores never leave the TEE.
void RoundScores(Bytes* raw_output, int decimals) {
  if (decimals <= 0 || raw_output->size() % sizeof(float) != 0) return;
  const double factor = std::pow(10.0, decimals);
  float* values = reinterpret_cast<float*>(raw_output->data());
  size_t n = raw_output->size() / sizeof(float);
  for (size_t i = 0; i < n; ++i) {
    values[i] = static_cast<float>(
        std::round(static_cast<double>(values[i]) * factor) / factor);
  }
}
}  // namespace

const char* ToString(RuntimeMode mode) {
  switch (mode) {
    case RuntimeMode::kSesemi: return "sesemi";
    case RuntimeMode::kIsoReuse: return "iso-reuse";
    case RuntimeMode::kNative: return "native";
    case RuntimeMode::kUntrusted: return "untrusted";
  }
  return "unknown";
}

const char* ToString(InvocationKind kind) {
  switch (kind) {
    case InvocationKind::kCold: return "cold";
    case InvocationKind::kWarm: return "warm";
    case InvocationKind::kHot: return "hot";
  }
  return "unknown";
}

std::string SemirtInstance::ModelObjectKey(const std::string& model_id) {
  return "models/" + model_id;
}

std::string SemirtInstance::PlainModelObjectKey(const std::string& model_id) {
  return "plainmodels/" + model_id;
}

sgx::Measurement SemirtInstance::MeasurementFor(const SemirtOptions& options) {
  // The enclave image covers the runtime core, the inference framework, the
  // expected KeyService identity (Appendix A), and the execution-restriction
  // configuration (§V) — but never model weights or keys.
  std::vector<std::pair<std::string, Bytes>> units = {
      {"semirt-core", ToBytes("sesemi semirt runtime v1")},
      {"inference-framework",
       ToBytes(std::string("framework:") + inference::ToString(options.framework) +
               (options.quantize ? "+int8" : ""))},
      {"keyservice-identity",
       ToBytes(keyservice::KeyServiceEnclave::ExpectedMeasurement().ToHex())},
  };
  sgx::EnclaveConfig config;
  config.heap_size_bytes = options.heap_size_bytes;
  config.num_tcs = options.num_tcs;
  config.sequential_mode = options.sequential_mode;
  config.disable_key_cache = options.disable_key_cache;
  config.fixed_model_id = options.fixed_model_id;
  config.round_scores_decimals = static_cast<uint32_t>(options.round_scores_decimals);
  sgx::EnclaveImage image("semirt", std::move(units), config);
  return image.mrenclave();
}

Result<std::unique_ptr<SemirtInstance>> SemirtInstance::Create(
    sgx::SgxPlatform* platform, const SemirtOptions& options,
    storage::ObjectStore* storage, keyservice::KeyServiceServer* keyservice) {
  if (options.mode != RuntimeMode::kUntrusted && keyservice == nullptr) {
    return Status::InvalidArgument("trusted modes require a KeyService");
  }
  if (options.num_tcs < 1 || options.num_tcs > kMaxTcs) {
    return Status::InvalidArgument("num_tcs must be in [1, 64]");
  }
  if (options.sequential_mode && options.num_tcs != 1) {
    return Status::InvalidArgument("sequential mode requires num_tcs == 1");
  }
  if (options.mode == RuntimeMode::kNative && options.num_tcs != 1) {
    return Status::InvalidArgument(
        "the Native baseline launches one enclave per request (num_tcs == 1)");
  }
  if (storage == nullptr) {
    return Status::InvalidArgument("storage is required");
  }
  auto instance = std::unique_ptr<SemirtInstance>(
      new SemirtInstance(platform, options, storage, keyservice));
  SESEMI_RETURN_IF_ERROR(instance->Initialize());
  return instance;
}

SemirtInstance::SemirtInstance(sgx::SgxPlatform* platform, SemirtOptions options,
                               storage::ObjectStore* storage,
                               keyservice::KeyServiceServer* keyservice)
    : platform_(platform),
      options_(std::move(options)),
      storage_(storage),
      keyservice_(keyservice),
      framework_(inference::CreateFramework(
          options_.framework,
          inference::FrameworkOptions{.quantize = options_.quantize})),
      contexts_(options_.num_tcs),
      free_slot_bits_(options_.num_tcs == kMaxTcs
                          ? ~0ull
                          : (1ull << options_.num_tcs) - 1) {}

SemirtInstance::~SemirtInstance() { ClearExecutionContext(); }

Status SemirtInstance::Initialize() {
  if (options_.mode == RuntimeMode::kUntrusted) return Status::OK();
  obs::Span span(obs::spans::kEnclaveInit);

  std::vector<std::pair<std::string, Bytes>> units = {
      {"semirt-core", ToBytes("sesemi semirt runtime v1")},
      {"inference-framework",
       ToBytes(std::string("framework:") + inference::ToString(options_.framework) +
               (options_.quantize ? "+int8" : ""))},
      {"keyservice-identity",
       ToBytes(keyservice::KeyServiceEnclave::ExpectedMeasurement().ToHex())},
  };
  sgx::EnclaveConfig config;
  config.heap_size_bytes = options_.heap_size_bytes;
  config.num_tcs = options_.num_tcs;
  config.sequential_mode = options_.sequential_mode;
  config.disable_key_cache = options_.disable_key_cache;
  config.fixed_model_id = options_.fixed_model_id;
  config.round_scores_decimals = static_cast<uint32_t>(options_.round_scores_decimals);
  sgx::EnclaveImage image("semirt", std::move(units), config);
  SESEMI_ASSIGN_OR_RETURN(enclave_, platform_->CreateEnclave(image));
  link_ = std::make_unique<KeyServiceLink>(
      keyservice_, keyservice::KeyServiceEnclave::ExpectedMeasurement());
  return Status::OK();
}

Status SemirtInstance::ChargeHeap(uint64_t bytes) {
  if (enclave_ != nullptr) return enclave_->AllocateTrusted(bytes);
  uint64_t used = untrusted_heap_used_.fetch_add(bytes) + bytes;
  uint64_t peak = untrusted_heap_peak_.load();
  while (used > peak && !untrusted_heap_peak_.compare_exchange_weak(peak, used)) {
  }
  return Status::OK();
}

void SemirtInstance::FreeHeap(uint64_t bytes) {
  if (enclave_ != nullptr) {
    enclave_->FreeTrusted(bytes);
    return;
  }
  uint64_t used = untrusted_heap_used_.load();
  uint64_t clamped = bytes > used ? used : bytes;
  untrusted_heap_used_.fetch_sub(clamped);
}

uint64_t SemirtInstance::heap_peak() const {
  if (enclave_ != nullptr) return enclave_->heap_peak();
  return untrusted_heap_peak_.load();
}

int SemirtInstance::TryAcquireSlotFast() {
  // seq_cst load: pairs with ReleaseSlot's seq_cst fetch_or + waiter-count
  // check so a parked waiter's re-try is guaranteed to observe the freed bit
  // whenever the releaser skipped the notify.
  uint64_t mask = free_slot_bits_.load(std::memory_order_seq_cst);
  while (mask != 0) {
    const int slot = std::countr_zero(mask);
    if (free_slot_bits_.compare_exchange_weak(mask, mask & ~(1ull << slot),
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      return slot;
    }
  }
  return -1;
}

int SemirtInstance::AcquireSlot() {
  int slot = TryAcquireSlotFast();
  if (slot >= 0) return slot;
  // All slots busy: park. The waiter count and the free-bit mask are both
  // seq_cst, so either the releaser's load sees our increment (and
  // notifies under the lock) or our re-try under the lock sees its freed
  // bit — no lost wakeups, and idle releases skip the lock entirely.
  std::unique_lock<std::mutex> lock(slot_mutex_);
  slot_waiters_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    slot = TryAcquireSlotFast();
    if (slot >= 0) {
      slot_waiters_.fetch_sub(1, std::memory_order_seq_cst);
      return slot;
    }
    slot_cv_.wait(lock);
  }
}

void SemirtInstance::ReleaseSlot(int slot) {
  free_slot_bits_.fetch_or(1ull << slot, std::memory_order_seq_cst);
  if (slot_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(slot_mutex_);
    slot_cv_.notify_one();
  }
}

void SemirtInstance::DropRuntimeLocked(ThreadContext* ctx) {
  if (ctx->runtime != nullptr) {
    FreeHeap(ctx->charged_bytes);
    ctx->runtime.reset();
    ctx->charged_bytes = 0;
    ctx->model_id.clear();
  }
}

Result<std::pair<Bytes, Bytes>> SemirtInstance::EnsureKeys(
    const std::string& user_id, const std::string& model_id, bool* fetched) {
  const std::string key_id = model_id + "|" + user_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!options_.disable_key_cache && cached_key_id_ == key_id) {
      return std::make_pair(cached_model_key_, cached_request_key_);
    }
  }
  // Round trip to KeyService outside the instance lock.
  SESEMI_ASSIGN_OR_RETURN(auto keys,
                          link_->FetchKeys(enclave_.get(), user_id, model_id));
  *fetched = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.key_fetches++;
    if (!options_.disable_key_cache) {
      // Cache exactly one ⟨uid,Moid⟩ pair (Algorithm 2 line 8) so requests
      // from multiple users never share an enclave concurrently.
      cached_key_id_ = key_id;
      cached_model_key_ = keys.first;
      cached_request_key_ = keys.second;
    }
  }
  return keys;
}

Result<std::shared_ptr<inference::LoadedModel>> SemirtInstance::EnsureModel(
    const std::string& model_id, ByteSpan model_key, bool* loaded) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (loaded_model_ != nullptr && loaded_model_id_ == model_id &&
        options_.mode == RuntimeMode::kSesemi) {
      return loaded_model_;
    }
  }

  // OC_LOAD_MODEL: the untrusted side fetches the ciphertext from storage.
  if (enclave_ != nullptr) enclave_->RecordOcall();
  SESEMI_ASSIGN_OR_RETURN(Bytes sealed, storage_->Get(ModelObjectKey(model_id)));

  // The ciphertext is copied into enclave memory before decryption
  // (Appendix D: the enclave holds the encrypted copy + the decrypted model
  // at peak).
  SESEMI_RETURN_IF_ERROR(ChargeHeap(sealed.size()));
  auto decrypted = model::DecryptModel(sealed, model_key, model_id);
  if (!decrypted.ok()) {
    FreeHeap(sealed.size());
    return decrypted.status();
  }
  auto wrapped = framework_->WrapModel(std::move(*decrypted));
  if (!wrapped.ok()) {
    FreeHeap(sealed.size());
    return wrapped.status();
  }
  uint64_t model_bytes = (*wrapped)->memory_bytes();
  Status charge = ChargeHeap(model_bytes);
  // OC_FREE_LOADED: release the ciphertext staging copy.
  FreeHeap(sealed.size());
  if (enclave_ != nullptr) enclave_->RecordOcall();
  if (!charge.ok()) return charge;

  std::lock_guard<std::mutex> lock(mutex_);
  // Model switch invalidates every thread's runtime for the old model (done
  // lazily in EnsureRuntime); free the old model's charge now.
  if (loaded_model_ != nullptr) FreeHeap(model_charged_bytes_);
  loaded_model_ = std::move(*wrapped);
  loaded_model_id_ = model_id;
  model_charged_bytes_ = model_bytes;
  stats_.model_loads++;
  *loaded = true;
  return loaded_model_;
}

Status SemirtInstance::EnsureRuntime(
    int slot, const std::string& model_id,
    const std::shared_ptr<inference::LoadedModel>& model, bool* inited) {
  std::unique_lock<std::mutex> lock(mutex_);
  ThreadContext& ctx = contexts_[slot];
  const bool reuse_allowed =
      options_.mode == RuntimeMode::kSesemi ||
      (options_.mode == RuntimeMode::kUntrusted && options_.reuse_model);
  const bool reusable =
      ctx.runtime != nullptr && ctx.model_id == model_id && reuse_allowed;
  if (reusable) return Status::OK();

  DropRuntimeLocked(&ctx);
  lock.unlock();

  auto runtime = framework_->CreateRuntime(model);
  if (!runtime.ok()) return runtime.status();
  uint64_t bytes = (*runtime)->buffer_bytes();
  SESEMI_RETURN_IF_ERROR(ChargeHeap(bytes));

  lock.lock();
  ctx.runtime = std::move(*runtime);
  ctx.model_id = model_id;
  ctx.charged_bytes = bytes;
  stats_.runtime_inits++;
  *inited = true;
  return Status::OK();
}

Result<Bytes> SemirtInstance::HandleRequest(const InferenceRequest& request,
                                            StageTimings* timings,
                                            const ExecDeadline* deadline) {
  const InferenceRequest* batch[] = {&request};
  Result<Bytes> result = Status::Aborted("request dropped before execution");
  RunPipeline(batch, &result, timings, deadline);
  return result;
}

std::vector<Result<Bytes>> SemirtInstance::HandleRequestBatch(
    const std::vector<const InferenceRequest*>& batch, StageTimings* timings,
    const ExecDeadline* deadline) {
  std::vector<Result<Bytes>> results(
      batch.size(), Status::Aborted("request dropped before execution"));
  if (batch.empty()) return results;
  if (options_.mode == RuntimeMode::kSesemi && !options_.sequential_mode) {
    RunPipeline(batch, results.data(), timings, deadline);
    return results;
  }
  // Baseline modes and sequential isolation keep their per-request
  // setup/teardown semantics.
  for (size_t i = 0; i < batch.size(); ++i) {
    results[i] = HandleRequest(*batch[i], timings, deadline);
  }
  return results;
}

void SemirtInstance::RunPipeline(std::span<const InferenceRequest* const> batch,
                                 Result<Bytes>* results, StageTimings* timings,
                                 const ExecDeadline* deadline) {
  StageTimings local;
  StageTimings* t = timings != nullptr ? timings : &local;
  obs::Span span(obs::spans::kRequest, &t->total);
  span.set_arg("batch_size", static_cast<int64_t>(batch.size()));

  // Per-entry admission: a malformed request, or one whose user or model
  // differs from the head's (the key cache holds one ⟨uid,Moid⟩ pair, so
  // mixing would leak across sessions), fails alone.
  const InferenceRequest& head = *batch[0];
  std::vector<size_t> live;
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const InferenceRequest& request = *batch[i];
    if (request.model_id.empty() || request.encrypted_input.empty()) {
      results[i] = Status::InvalidArgument("empty model id or input");
    } else if (request.model_id != head.model_id ||
               request.user_id != head.user_id) {
      results[i] = Status::InvalidArgument(
          "batch mixes models or users at index " + std::to_string(i));
    } else {
      live.push_back(i);
    }
  }
  if (live.empty()) return;

  const Status status = [&]() -> Status {
    if (!options_.fixed_model_id.empty() &&
        head.model_id != options_.fixed_model_id) {
      return Status::PermissionDenied("enclave is fixed to model " +
                                      options_.fixed_model_id);
    }
    if (deadline != nullptr && deadline->Expired()) {
      return Status::DeadlineExceeded("deadline passed before execution");
    }
    // One slot, one enclave entry for the whole batch — the other TCS slots
    // stay free for concurrent (unbatched or other-session) traffic.
    const int slot = AcquireSlot();
    Status served =
        options_.mode == RuntimeMode::kUntrusted
            ? RunUntrusted(*batch[live.front()], slot, &results[live.front()],
                           t, deadline)
            : RunTrusted(batch, live, slot, results, t, deadline);
    ReleaseSlot(slot);
    return served;
  }();
  if (!status.ok()) {
    for (size_t i : live) results[i] = status;
  }
}

Status SemirtInstance::RunTrusted(std::span<const InferenceRequest* const> batch,
                                  std::span<const size_t> live, int slot,
                                  Result<Bytes>* results, StageTimings* t,
                                  const ExecDeadline* deadline) {
  const InferenceRequest& head = *batch[live.front()];
  if (head.user_id.empty()) {
    return Status::InvalidArgument("missing user id");
  }
  if (options_.mode == RuntimeMode::kNative && !enclave_fresh_) {
    // Native baseline: tear down and relaunch the enclave for every request
    // (the sandbox is reused, the enclave is not — §VI "Baselines"). The
    // single TCS slot serializes requests, so this is race-free.
    ClearExecutionContext();
    enclave_.reset();
    SESEMI_RETURN_IF_ERROR(Initialize());
    std::lock_guard<std::mutex> lock(mutex_);
    enclave_fresh_ = true;
  }
  // EC_MODEL_INF: a thread enters the enclave through a TCS.
  SESEMI_FAULT_POINT(faults::kEcallEnter);
  obs::Span ecall(obs::spans::kEcall);
  sgx::TcsGuard tcs = enclave_->EnterEcall();
  bool key_fetched = false, model_loaded = false, runtime_inited = false;

  std::pair<Bytes, Bytes> keys;  // (K_M, K_R)
  {
    obs::Span stage(obs::spans::kKeyFetch, &t->key_fetch);
    SESEMI_ASSIGN_OR_RETURN(keys,
                            EnsureKeys(head.user_id, head.model_id, &key_fetched));
  }
  SESEMI_RETURN_IF_ERROR(CheckDeadline(deadline, "key fetch"));
  std::shared_ptr<inference::LoadedModel> model;
  {
    obs::Span stage(obs::spans::kModelLoad, &t->model_load);
    SESEMI_ASSIGN_OR_RETURN(model,
                            EnsureModel(head.model_id, keys.first, &model_loaded));
  }
  SESEMI_RETURN_IF_ERROR(CheckDeadline(deadline, "model load"));
  {
    obs::Span stage(obs::spans::kRuntimeInit, &t->runtime_init);
    SESEMI_RETURN_IF_ERROR(
        EnsureRuntime(slot, head.model_id, model, &runtime_inited));
  }
  SESEMI_RETURN_IF_ERROR(CheckDeadline(deadline, "runtime init"));

  // StageTimings::execute = decrypt + inference + encrypt. One K_R cipher
  // context serves every entry: the AES key schedule and GHASH tables are
  // built once, not once per decrypt/encrypt.
  TimeMicros decrypt_us = 0, inference_us = 0, encrypt_us = 0;
  std::optional<RequestCipher> cipher;
  std::vector<Bytes> plain;
  std::vector<size_t> decrypted;
  {
    obs::Span stage(obs::spans::kDecrypt, &decrypt_us);
    SESEMI_ASSIGN_OR_RETURN(cipher, RequestCipher::Create(keys.second));
    for (size_t i : live) {
      auto input = cipher->DecryptRequest(head.model_id, batch[i]->encrypted_input);
      if (!input.ok()) {
        results[i] = input.status();  // a bad ciphertext drops only its entry
        continue;
      }
      plain.push_back(std::move(*input));
      decrypted.push_back(i);
    }
  }
  int served = 0;
  if (!decrypted.empty()) {
    Result<std::vector<Bytes>> outputs = Status::Aborted("not executed");
    {
      obs::Span stage(obs::spans::kInference, &inference_us);
      // A batch of one runs ModelRuntime::Execute (ExecuteBatch delegates);
      // larger batches take the multi-row GEMM path.
      outputs = SlotRuntime(slot)->ExecuteBatch(
          std::vector<ByteSpan>(plain.begin(), plain.end()));
      if (outputs.ok()) {
        for (Bytes& output : *outputs) {
          RoundScores(&output, options_.round_scores_decimals);
        }
      }
    }
    if (!outputs.ok()) {
      for (size_t i : decrypted) results[i] = outputs.status();
    } else {
      obs::Span stage(obs::spans::kEncrypt, &encrypt_us);
      for (size_t k = 0; k < decrypted.size(); ++k) {
        Result<Bytes>& result = results[decrypted[k]];
        result = cipher->EncryptResult(head.model_id, (*outputs)[k]);
        served += result.ok() ? 1 : 0;
      }
    }
  }
  t->execute = decrypt_us + inference_us + encrypt_us;
  if (served == 0) return Status::OK();  // every entry failed on its own

  std::lock_guard<std::mutex> lock(mutex_);
  t->kind = ClassifyLocked(key_fetched || model_loaded || runtime_inited, served);
  if (options_.sequential_mode) {
    // Strong isolation (§V, Table II): return the enclave to a state holding
    // only the loaded model — drop runtimes and cached keys.
    DropRuntimeLocked(&contexts_[slot]);
    cached_key_id_.clear();
    cached_model_key_.clear();
    cached_request_key_.clear();
  }
  return Status::OK();
}

Status SemirtInstance::RunUntrusted(const InferenceRequest& request, int slot,
                                    Result<Bytes>* result, StageTimings* t,
                                    const ExecDeadline* deadline) {
  bool model_loaded = false, runtime_inited = false;
  std::shared_ptr<inference::LoadedModel> model;
  {
    // Plaintext model path (no keys, no attestation).
    obs::Span stage(obs::spans::kModelLoad, &t->model_load);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (loaded_model_ != nullptr && loaded_model_id_ == request.model_id &&
          options_.reuse_model) {
        model = loaded_model_;
      }
    }
    if (model == nullptr) {
      SESEMI_ASSIGN_OR_RETURN(Bytes plain,
                              storage_->Get(PlainModelObjectKey(request.model_id)));
      SESEMI_ASSIGN_OR_RETURN(model, framework_->LoadModel(plain));
      uint64_t bytes = model->memory_bytes();
      SESEMI_RETURN_IF_ERROR(ChargeHeap(bytes));
      std::lock_guard<std::mutex> lock(mutex_);
      if (loaded_model_ != nullptr) FreeHeap(model_charged_bytes_);
      loaded_model_ = model;
      loaded_model_id_ = request.model_id;
      model_charged_bytes_ = bytes;
      stats_.model_loads++;
      model_loaded = true;
    }
  }
  SESEMI_RETURN_IF_ERROR(CheckDeadline(deadline, "model load"));
  {
    obs::Span stage(obs::spans::kRuntimeInit, &t->runtime_init);
    SESEMI_RETURN_IF_ERROR(
        EnsureRuntime(slot, request.model_id, model, &runtime_inited));
  }
  SESEMI_RETURN_IF_ERROR(CheckDeadline(deadline, "runtime init"));
  {
    obs::Span stage(obs::spans::kInference, &t->execute);
    // The input is plaintext in this mode.
    SESEMI_ASSIGN_OR_RETURN(*result,
                            SlotRuntime(slot)->Execute(request.encrypted_input));
  }

  std::lock_guard<std::mutex> lock(mutex_);
  t->kind = ClassifyLocked(model_loaded || runtime_inited, 1);
  return Status::OK();
}

InvocationKind SemirtInstance::ClassifyLocked(bool state_loaded, int n) {
  InvocationKind kind = InvocationKind::kHot;
  if (enclave_fresh_) {
    kind = InvocationKind::kCold;
    stats_.cold_invocations += n;
    enclave_fresh_ = false;
  } else if (state_loaded) {
    kind = InvocationKind::kWarm;
    stats_.warm_invocations += n;
  } else {
    stats_.hot_invocations += n;
  }
  stats_.requests += n;
  return kind;
}

inference::ModelRuntime* SemirtInstance::SlotRuntime(int slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  return contexts_[slot].runtime.get();
}

void SemirtInstance::ClearExecutionContext() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ThreadContext& ctx : contexts_) DropRuntimeLocked(&ctx);
  if (loaded_model_ != nullptr) {
    FreeHeap(model_charged_bytes_);
    loaded_model_.reset();
    loaded_model_id_.clear();
    model_charged_bytes_ = 0;
  }
  cached_key_id_.clear();
  cached_model_key_.clear();
  cached_request_key_.clear();
}

std::string SemirtInstance::loaded_model_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_model_id_;
}

SemirtStats SemirtInstance::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sesemi::semirt
