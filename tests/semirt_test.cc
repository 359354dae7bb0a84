#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "client/clients.h"
#include "inference/compiled_model.h"
#include "keyservice/keyservice.h"
#include "model/format.h"
#include "model/zoo.h"
#include "semirt/semirt.h"
#include "sgx/platform.h"
#include "storage/object_store.h"

namespace sesemi::semirt {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

/// End-to-end rig: KeyService + storage + one owner with two deployed models
/// + one authorized user.
class SemirtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = keyservice::StartKeyService(&platform_);
    ASSERT_TRUE(server.ok());
    keyservice_ = std::move(*server);
    auto ks_client = KeyServiceClient::Connect(
        keyservice_.get(), &authority_,
        keyservice::KeyServiceEnclave::ExpectedMeasurement());
    ASSERT_TRUE(ks_client.ok());
    client_ = std::move(*ks_client);

    owner_ = std::make_unique<ModelOwner>("hospital");
    user_ = std::make_unique<ModelUser>("patient");
    ASSERT_TRUE(owner_->Register(client_.get()).ok());
    ASSERT_TRUE(user_->Register(client_.get()).ok());

    DeployModel("m0", model::Architecture::kMbNet);
    DeployModel("m1", model::Architecture::kDsNet);
  }

  void DeployModel(const std::string& id, model::Architecture arch) {
    model::ZooSpec spec;
    spec.model_id = id;
    spec.arch = arch;
    spec.scale = 0.002;
    spec.input_hw = 16;
    auto graph = model::BuildModel(spec);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    graphs_[id] = *graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *graph,
                                    /*with_plaintext_copy=*/true).ok());
  }

  /// Authorize `user_` for `model_id` on enclaves deployed with `options`.
  void Authorize(const std::string& model_id, const SemirtOptions& options) {
    sgx::Measurement es = SemirtInstance::MeasurementFor(options);
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), model_id, es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), model_id, es).ok());
  }

  Result<std::unique_ptr<SemirtInstance>> MakeInstance(const SemirtOptions& options) {
    return SemirtInstance::Create(&platform_, options, &storage_, keyservice_.get());
  }

  /// Round-trip one request and return the decrypted scores.
  Result<std::vector<float>> RunRequest(SemirtInstance* instance,
                                        const std::string& model_id,
                                        StageTimings* timings = nullptr,
                                        uint64_t input_seed = 1,
                                        const sgx::Measurement* es = nullptr) {
    Bytes input = model::GenerateRandomInput(graphs_[model_id], input_seed);
    SESEMI_ASSIGN_OR_RETURN(InferenceRequest request,
                            user_->BuildRequest(model_id, input, es));
    SESEMI_ASSIGN_OR_RETURN(Bytes sealed, instance->HandleRequest(request, timings));
    SESEMI_ASSIGN_OR_RETURN(Bytes output, user_->DecryptResult(model_id, sealed, es));
    return model::ParseOutput(output);
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  std::map<std::string, model::ModelGraph> graphs_;
};

TEST_F(SemirtTest, EndToEndEncryptedInference) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();

  auto scores = RunRequest(instance->get(), "m0");
  ASSERT_TRUE(scores.ok()) << scores.status().ToString();
  ASSERT_EQ(scores->size(), 10u);
  float sum = 0;
  for (float s : *scores) sum += s;
  EXPECT_NEAR(sum, 1.0f, 1e-4);
}

TEST_F(SemirtTest, ColdWarmHotProgression) {
  SemirtOptions options;
  Authorize("m0", options);
  Authorize("m1", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());

  StageTimings t;
  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kCold);

  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kHot);  // same model, same user

  ASSERT_TRUE(RunRequest(instance->get(), "m1", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kWarm);  // model switch

  ASSERT_TRUE(RunRequest(instance->get(), "m1", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kHot);

  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.cold_invocations, 1);
  EXPECT_EQ(stats.warm_invocations, 1);
  EXPECT_EQ(stats.hot_invocations, 2);
  EXPECT_EQ(stats.requests, 4);
}

TEST_F(SemirtTest, HotPathSkipsKeyFetchAndModelLoad) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  SemirtStats before = instance->get()->stats();
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  SemirtStats after = instance->get()->stats();
  EXPECT_EQ(after.key_fetches, before.key_fetches);
  EXPECT_EQ(after.model_loads, before.model_loads);
  EXPECT_EQ(after.runtime_inits, before.runtime_inits);
}

TEST_F(SemirtTest, SingleMutualAttestationAcrossRequests) {
  // §IV-B: the secure channel to KeyService persists after the first remote
  // attestation. Switching models reuses it.
  SemirtOptions options;
  Authorize("m0", options);
  Authorize("m1", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m1").ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.key_fetches, 3);  // key cache holds one pair
  // but attestation happened exactly once (session reuse):
  // verified indirectly: enclave ecall count only grows by requests.
  EXPECT_EQ(stats.requests, 3);
}

TEST_F(SemirtTest, UnauthorizedUserCannotExecute) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());

  ModelUser mallory("mallory");
  ASSERT_TRUE(mallory.Register(client_.get()).ok());
  // Mallory provisions her own request key but has no owner grant.
  sgx::Measurement es = SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(mallory.ProvisionRequestKey(client_.get(), "m0", es).ok());

  Bytes input = model::GenerateRandomInput(graphs_["m0"], 1);
  auto request = mallory.BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsPermissionDenied());
}

TEST_F(SemirtTest, WrongEnclaveConfigurationDeniedKeys) {
  // User authorized the 1-TCS build; a 4-TCS deployment has a different
  // MRENCLAVE and must be refused by KeyService.
  SemirtOptions authorized;
  Authorize("m0", authorized);

  SemirtOptions rogue;
  rogue.num_tcs = 4;
  auto instance = MakeInstance(rogue);
  ASSERT_TRUE(instance.ok());
  Bytes input = model::GenerateRandomInput(graphs_["m0"], 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_FALSE(r.ok());
}

TEST_F(SemirtTest, TamperedRequestRejected) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  Bytes input = model::GenerateRandomInput(graphs_["m0"], 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  request->encrypted_input[request->encrypted_input.size() / 2] ^= 1;
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnauthenticated());
}

TEST_F(SemirtTest, RequestCannotBeRetargetedAtAnotherModel) {
  SemirtOptions options;
  Authorize("m0", options);
  Authorize("m1", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  Bytes input = model::GenerateRandomInput(graphs_["m0"], 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  request->model_id = "m1";  // network attacker rewrites routing metadata
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_FALSE(r.ok());  // AAD binding breaks decryption
}

TEST_F(SemirtTest, FixedModelEnclaveRefusesOtherModels) {
  SemirtOptions options;
  options.fixed_model_id = "m0";
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());

  Bytes input = model::GenerateRandomInput(graphs_["m1"], 1);
  // Authorize m1 for this identity too — the enclave must still refuse.
  Authorize("m1", options);
  auto request = user_->BuildRequest("m1", input);
  ASSERT_TRUE(request.ok());
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_TRUE(r.status().IsPermissionDenied());
}

TEST_F(SemirtTest, SequentialModeClearsStateEachRequest) {
  SemirtOptions options;
  options.sequential_mode = true;
  options.disable_key_cache = true;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());

  StageTimings t;
  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  // Table II: no hot path — every request refetches keys and reinits the
  // runtime (the model itself may stay loaded).
  EXPECT_EQ(t.kind, InvocationKind::kWarm);
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.key_fetches, 2);
  EXPECT_EQ(stats.runtime_inits, 2);
  EXPECT_EQ(stats.hot_invocations, 0);
}

TEST_F(SemirtTest, SequentialModeScrubsAfterAFailedRequest) {
  // The per-request scrub also runs when every entry of a request fails, so
  // a tampered request leaves neither its keys nor its runtime behind.
  SemirtOptions options;
  options.sequential_mode = true;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  const uint64_t scrubbed_heap = (*instance)->enclave()->heap_used();

  auto request = user_->BuildRequest("m0", model::GenerateRandomInput(graphs_["m0"], 2));
  ASSERT_TRUE(request.ok());
  request->encrypted_input[request->encrypted_input.size() / 2] ^= 1;
  EXPECT_FALSE((*instance)->HandleRequest(*request).ok());
  EXPECT_EQ((*instance)->enclave()->heap_used(), scrubbed_heap);

  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.key_fetches, 3);  // no request reused another's keys
  EXPECT_EQ(stats.runtime_inits, 3);
}

TEST_F(SemirtTest, IsoReuseReloadsModelEveryRequest) {
  SemirtOptions options;
  options.mode = RuntimeMode::kIsoReuse;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.model_loads, 3);    // reload per request
  EXPECT_EQ(stats.runtime_inits, 3);  // reinit per request
  EXPECT_EQ(stats.key_fetches, 1);    // keys ARE reused
  EXPECT_EQ(stats.hot_invocations, 0);
}

TEST_F(SemirtTest, NativeModeRelaunchesEnclave) {
  SemirtOptions options;
  options.mode = RuntimeMode::kNative;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  StageTimings t;
  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kCold);
  ASSERT_TRUE(RunRequest(instance->get(), "m0", &t).ok());
  EXPECT_EQ(t.kind, InvocationKind::kCold);  // every request is cold
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.cold_invocations, 2);
  EXPECT_EQ(stats.key_fetches, 2);  // fresh enclave implies fresh attestation
}

TEST_F(SemirtTest, NativeRelaunchKeepsOneKeyServiceSession) {
  // Each Native request relaunches the enclave and attests again; the link
  // it replaces must close its session, so the instance holds exactly one
  // session at any time and none once it is destroyed. (The fixture's
  // KeyServiceClient holds its own session: the baseline.)
  SemirtOptions options;
  options.mode = RuntimeMode::kNative;
  Authorize("m0", options);
  const size_t baseline = keyservice_->active_sessions();
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
    EXPECT_EQ(keyservice_->active_sessions(), baseline + 1) << "request " << i;
  }
  EXPECT_EQ(instance->get()->stats().key_fetches, 5);
  instance->reset();
  EXPECT_EQ(keyservice_->active_sessions(), baseline);
}

TEST_F(SemirtTest, RejectsTcsCountOutsideSlotMask) {
  // The free-slot mask has one bit per TCS: 0 slots would park every
  // request forever, and more than 64 do not fit.
  for (uint32_t tcs : {0u, SemirtInstance::kMaxTcs + 1}) {
    SemirtOptions options;
    options.num_tcs = tcs;
    auto instance = MakeInstance(options);
    ASSERT_FALSE(instance.ok()) << tcs;
    EXPECT_TRUE(instance.status().IsInvalidArgument())
        << instance.status().ToString();
  }
  SemirtOptions widest;
  widest.num_tcs = SemirtInstance::kMaxTcs;
  Authorize("m0", widest);
  auto instance = MakeInstance(widest);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  EXPECT_TRUE(RunRequest(instance->get(), "m0").ok());
}

TEST_F(SemirtTest, UntrustedModeRunsPlaintext) {
  SemirtOptions options;
  options.mode = RuntimeMode::kUntrusted;
  auto instance =
      SemirtInstance::Create(&platform_, options, &storage_, nullptr);
  ASSERT_TRUE(instance.ok());

  InferenceRequest request;
  request.user_id = "anyone";
  request.model_id = "m0";
  request.encrypted_input = model::GenerateRandomInput(graphs_["m0"], 1);  // plaintext
  StageTimings t;
  auto out = (*instance)->HandleRequest(request, &t);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(t.kind, InvocationKind::kCold);
  auto out2 = (*instance)->HandleRequest(request, &t);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(t.kind, InvocationKind::kHot);  // untrusted-reuse
  EXPECT_EQ(*out, *out2);
}

TEST_F(SemirtTest, TrustedAndUntrustedAgree) {
  SemirtOptions trusted;
  Authorize("m0", trusted);
  auto t_instance = MakeInstance(trusted);
  ASSERT_TRUE(t_instance.ok());
  auto scores = RunRequest(t_instance->get(), "m0", nullptr, 99);
  ASSERT_TRUE(scores.ok());

  SemirtOptions untrusted;
  untrusted.mode = RuntimeMode::kUntrusted;
  auto u_instance = SemirtInstance::Create(&platform_, untrusted, &storage_, nullptr);
  ASSERT_TRUE(u_instance.ok());
  InferenceRequest request;
  request.user_id = "x";
  request.model_id = "m0";
  request.encrypted_input = model::GenerateRandomInput(graphs_["m0"], 99);
  auto out = (*u_instance)->HandleRequest(request);
  ASSERT_TRUE(out.ok());
  auto u_scores = model::ParseOutput(*out);
  ASSERT_TRUE(u_scores.ok());
  ASSERT_EQ(scores->size(), u_scores->size());
  for (size_t i = 0; i < scores->size(); ++i) {
    EXPECT_FLOAT_EQ((*scores)[i], (*u_scores)[i]);
  }
}

TEST_F(SemirtTest, ConcurrentRequestsShareModelMemory) {
  SemirtOptions options;
  options.num_tcs = 4;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  // Warm up (loads model once).
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      for (int j = 0; j < 3; ++j) {
        auto r = RunRequest(instance->get(), "m0", nullptr, i * 10 + j);
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  SemirtStats stats = instance->get()->stats();
  EXPECT_EQ(stats.model_loads, 1);       // one shared copy
  EXPECT_LE(stats.runtime_inits, 4);     // at most one per TCS
  EXPECT_EQ(stats.requests, 13);
}

TEST_F(SemirtTest, PeakMemoryScalesSubLinearlyWithConcurrency) {
  // Figure 10: one enclave serving N concurrent requests uses far less than
  // N single-request enclaves, because the model is shared.
  auto peak_for = [&](uint32_t tcs) -> uint64_t {
    SemirtOptions options;
    options.num_tcs = tcs;
    Authorize("m0", options);
    sgx::Measurement es = SemirtInstance::MeasurementFor(options);
    auto instance = MakeInstance(options);
    EXPECT_TRUE(instance.ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < tcs; ++i) {
      threads.emplace_back([&, i] {
        if (!RunRequest(instance->get(), "m0", nullptr, i, &es).ok()) {
          failures.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    return (*instance)->heap_peak();
  };
  uint64_t peak1 = peak_for(1);
  uint64_t peak4 = peak_for(4);
  EXPECT_LT(peak4, 4 * peak1);
  // Per-thread runtimes cost something *when the threads overlap*; on a
  // loaded single-core host the four requests can fully serialize onto one
  // TCS slot, in which case equal peaks are the correct outcome.
  EXPECT_GE(peak4, peak1);
}

TEST_F(SemirtTest, PackedWeightsChargedAgainstEnclaveHeap) {
  // MODEL_LOAD charges the compiled artifact — weights plus the pre-packed
  // GEMM panels — against the enclave heap budget, so a heap sized for the
  // flat weights alone must reject the load and a heap with headroom for the
  // packed panels must serve. This is the reservation the platform's node
  // memory accounting inherits via memory_bytes().
  auto compiled = inference::CompiledModel::Compile(graphs_["m0"]);
  ASSERT_TRUE(compiled.ok());
  const uint64_t packed_bytes = compiled->packed_weight_bytes();
  ASSERT_GT(packed_bytes, 0u);
  const uint64_t weight_bytes = graphs_["m0"].WeightBytes();
  // Ciphertext staging + decrypted weights fit, packed panels do not.
  const uint64_t tight_heap = 2 * weight_bytes + packed_bytes / 2 + 4096;

  SemirtOptions tight;
  tight.framework = inference::FrameworkKind::kTvm;
  tight.heap_size_bytes = tight_heap;
  Authorize("m0", tight);
  sgx::Measurement tight_es = SemirtInstance::MeasurementFor(tight);
  auto instance = MakeInstance(tight);
  ASSERT_TRUE(instance.ok());
  EXPECT_FALSE(RunRequest(instance->get(), "m0", nullptr, 1, &tight_es).ok())
      << "heap without room for the packed panels must reject MODEL_LOAD";

  SemirtOptions roomy = tight;
  roomy.heap_size_bytes = 4 * weight_bytes + 2 * packed_bytes + (8ull << 20);
  Authorize("m0", roomy);
  sgx::Measurement es = SemirtInstance::MeasurementFor(roomy);
  auto ok_instance = MakeInstance(roomy);
  ASSERT_TRUE(ok_instance.ok());
  ASSERT_TRUE(RunRequest(ok_instance->get(), "m0", nullptr, 1, &es).ok());
  // The heap peak reflects the packed buffers, not just the flat weights.
  EXPECT_GE((*ok_instance)->heap_peak(), weight_bytes + packed_bytes);
}

TEST_F(SemirtTest, ClearExecutionContextFreesHeap) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(RunRequest(instance->get(), "m0").ok());
  EXPECT_GT((*instance)->enclave()->heap_used(), 0u);
  (*instance)->ClearExecutionContext();
  EXPECT_EQ((*instance)->enclave()->heap_used(), 0u);
}

TEST_F(SemirtTest, MissingModelObjectSurfacesNotFound) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  ASSERT_TRUE(storage_.Delete("models/m0").ok());
  Bytes input = model::GenerateRandomInput(graphs_["m0"], 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  auto r = (*instance)->HandleRequest(*request);
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(SemirtTest, RejectsMalformedRequests) {
  SemirtOptions options;
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  InferenceRequest empty;
  EXPECT_FALSE((*instance)->HandleRequest(empty).ok());
  InferenceRequest no_user;
  no_user.model_id = "m0";
  no_user.encrypted_input = Bytes(64, 0);
  EXPECT_FALSE((*instance)->HandleRequest(no_user).ok());
}

TEST_F(SemirtTest, RequestSerializationRoundTrip) {
  InferenceRequest request;
  request.user_id = "u";
  request.model_id = "m";
  request.encrypted_input = Bytes{1, 2, 3};
  auto parsed = InferenceRequest::Parse(request.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->user_id, "u");
  EXPECT_EQ(parsed->model_id, "m");
  EXPECT_EQ(parsed->encrypted_input, (Bytes{1, 2, 3}));
  EXPECT_FALSE(InferenceRequest::Parse(Bytes(5, 9)).ok());
}

// HandleRequestBatch: one slot, one enclave entry, one batched MODEL_EXEC.

/// Encrypted requests for seeds [first, first + n) under `user`.
std::vector<InferenceRequest> BuildRequests(const ModelUser& user,
                                            const model::ModelGraph& graph,
                                            uint64_t first, int n) {
  std::vector<InferenceRequest> requests;
  for (int i = 0; i < n; ++i) {
    auto request =
        user.BuildRequest(graph.model_id, model::GenerateRandomInput(graph, first + i));
    EXPECT_TRUE(request.ok());
    requests.push_back(*request);
  }
  return requests;
}

std::vector<const InferenceRequest*> Pointers(
    const std::vector<InferenceRequest>& requests) {
  std::vector<const InferenceRequest*> out;
  for (const InferenceRequest& request : requests) out.push_back(&request);
  return out;
}

TEST_F(SemirtTest, BatchOutputsMatchPerRequestHandling) {
  SemirtOptions options;
  Authorize("m0", options);
  auto batched = MakeInstance(options);
  auto single = MakeInstance(options);
  ASSERT_TRUE(batched.ok() && single.ok());
  const std::vector<InferenceRequest> requests =
      BuildRequests(*user_, graphs_["m0"], 7, 4);

  std::vector<Result<Bytes>> results =
      (*batched)->HandleRequestBatch(Pointers(requests));
  ASSERT_EQ(results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i << ": " << results[i].status().ToString();
    auto want_sealed = (*single)->HandleRequest(requests[i]);
    ASSERT_TRUE(want_sealed.ok());
    auto got = user_->DecryptResult("m0", *results[i]);
    auto want = user_->DecryptResult("m0", *want_sealed);
    ASSERT_TRUE(got.ok() && want.ok());
    auto got_scores = model::ParseOutput(*got);
    auto want_scores = model::ParseOutput(*want);
    ASSERT_TRUE(got_scores.ok() && want_scores.ok());
    ASSERT_EQ(got_scores->size(), want_scores->size());
    const auto top1 = [](const std::vector<float>& v) {
      return std::max_element(v.begin(), v.end()) - v.begin();
    };
    EXPECT_EQ(top1(*got_scores), top1(*want_scores)) << "request " << i;
    for (size_t j = 0; j < got_scores->size(); ++j) {
      EXPECT_NEAR((*got_scores)[j], (*want_scores)[j], 1e-4) << i << "," << j;
    }
  }
}

TEST_F(SemirtTest, BatchTamperedAndForeignEntriesFailAlone) {
  SemirtOptions options;
  Authorize("m0", options);
  ModelUser other("visitor");
  ASSERT_TRUE(other.Register(client_.get()).ok());
  sgx::Measurement es = SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, other.id()).ok());
  ASSERT_TRUE(other.ProvisionRequestKey(client_.get(), "m0", es).ok());
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());

  std::vector<InferenceRequest> requests = BuildRequests(*user_, graphs_["m0"], 1, 4);
  requests[1].encrypted_input[requests[1].encrypted_input.size() / 2] ^= 1;
  requests[2] = BuildRequests(other, graphs_["m0"], 3, 1).front();

  std::vector<Result<Bytes>> results =
      (*instance)->HandleRequestBatch(Pointers(requests));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_TRUE(results[1].status().IsUnauthenticated())
      << results[1].status().ToString();
  EXPECT_TRUE(results[2].status().IsInvalidArgument())
      << "a foreign user's entry must not run under the head's keys";
  EXPECT_TRUE(results[3].ok()) << results[3].status().ToString();
  auto plain = user_->DecryptResult("m0", *results[3]);
  EXPECT_TRUE(plain.ok());
}

TEST_F(SemirtTest, BatchCountsEveryRequestUnderOneKind) {
  SemirtOptions options;
  Authorize("m0", options);
  auto instance = MakeInstance(options);
  ASSERT_TRUE(instance.ok());
  const std::vector<InferenceRequest> requests =
      BuildRequests(*user_, graphs_["m0"], 1, 3);

  StageTimings t;
  for (const auto& r : (*instance)->HandleRequestBatch(Pointers(requests), &t)) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(t.kind, InvocationKind::kCold);
  SemirtStats stats = (*instance)->stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.cold_invocations, 3);
  EXPECT_EQ(stats.key_fetches, 1);
  EXPECT_EQ(stats.model_loads, 1);

  for (const auto& r : (*instance)->HandleRequestBatch(Pointers(requests), &t)) {
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(t.kind, InvocationKind::kHot);
  stats = (*instance)->stats();
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.hot_invocations, 3);
  EXPECT_EQ(stats.key_fetches, 1);
}

}  // namespace
}  // namespace sesemi::semirt
