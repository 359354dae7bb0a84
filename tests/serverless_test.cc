#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "client/clients.h"
#include "common/faultpoint.h"
#include "model/zoo.h"
#include "serverless/platform.h"

namespace sesemi::serverless {
namespace {

using client::KeyServiceClient;
using client::ModelOwner;
using client::ModelUser;

class ServerlessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = keyservice::StartKeyService(&ks_platform_);
    ASSERT_TRUE(server.ok());
    keyservice_ = std::move(*server);
    auto ks_client = KeyServiceClient::Connect(
        keyservice_.get(), &authority_,
        keyservice::KeyServiceEnclave::ExpectedMeasurement());
    ASSERT_TRUE(ks_client.ok());
    client_ = std::move(*ks_client);

    owner_ = std::make_unique<ModelOwner>("owner");
    user_ = std::make_unique<ModelUser>("user");
    ASSERT_TRUE(owner_->Register(client_.get()).ok());
    ASSERT_TRUE(user_->Register(client_.get()).ok());

    model::ZooSpec spec;
    spec.model_id = "m0";
    spec.scale = 0.002;
    spec.input_hw = 16;
    auto graph = model::BuildModel(spec);
    ASSERT_TRUE(graph.ok());
    graph_ = *graph;
    ASSERT_TRUE(owner_->DeployModel(client_.get(), &storage_, *graph).ok());

    PlatformConfig config;
    config.num_nodes = 2;
    config.keep_alive = SecondsToMicros(180);
    platform_ = std::make_unique<ServerlessPlatform>(config, &authority_, &storage_,
                                                     keyservice_.get(), &clock_);
  }

  void DeployAndAuthorize(const std::string& fn_name,
                          semirt::SemirtOptions options = {}) {
    FunctionSpec spec;
    spec.name = fn_name;
    spec.options = options;
    ASSERT_TRUE(platform_->DeployFunction(spec).ok());
    sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
    ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
    ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  }

  Result<std::vector<float>> InvokeOnce(const std::string& fn, bool* cold = nullptr,
                                        const sgx::Measurement* es = nullptr) {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    SESEMI_ASSIGN_OR_RETURN(semirt::InferenceRequest request,
                            user_->BuildRequest("m0", input, es));
    SESEMI_ASSIGN_OR_RETURN(Bytes sealed,
                            platform_->Invoke(fn, request, nullptr, cold));
    SESEMI_ASSIGN_OR_RETURN(Bytes output, user_->DecryptResult("m0", sealed, es));
    return model::ParseOutput(output);
  }

  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<KeyServiceClient> client_;
  std::unique_ptr<ModelOwner> owner_;
  std::unique_ptr<ModelUser> user_;
  storage::InMemoryObjectStore storage_;
  model::ModelGraph graph_;
  ManualClock clock_;
  std::unique_ptr<ServerlessPlatform> platform_;
};

TEST_F(ServerlessTest, ColdThenWarmInvocation) {
  DeployAndAuthorize("predict");
  bool cold = false;
  auto r1 = InvokeOnce("predict", &cold);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(cold);
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);

  auto r2 = InvokeOnce("predict", &cold);
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(cold);  // warm container reused
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
  EXPECT_EQ(platform_->stats().cold_starts, 1);
  EXPECT_EQ(platform_->stats().invocations, 2);
}

TEST_F(ServerlessTest, UnknownFunctionRejected) {
  semirt::InferenceRequest request;
  request.user_id = "u";
  request.model_id = "m0";
  request.encrypted_input = Bytes(16, 0);
  EXPECT_TRUE(platform_->Invoke("ghost", request).status().IsNotFound());
}

TEST_F(ServerlessTest, DuplicateDeployRejected) {
  DeployAndAuthorize("predict");
  FunctionSpec dup;
  dup.name = "predict";
  EXPECT_EQ(platform_->DeployFunction(dup).code(), StatusCode::kAlreadyExists);
}

TEST_F(ServerlessTest, DeployRejectsTcsCountsNoLaunchCanServe) {
  // A spec that every cold start would fail must be refused at deploy: a
  // failing launch arms the platform-wide relaunch gate, which would then
  // fail cold starts of every other function too.
  for (uint32_t tcs : {0u, semirt::SemirtInstance::kMaxTcs + 1}) {
    FunctionSpec bad;
    bad.name = "bad" + std::to_string(tcs);
    bad.options.num_tcs = tcs;
    EXPECT_EQ(platform_->DeployFunction(bad).code(), StatusCode::kInvalidArgument)
        << "num_tcs " << tcs;
  }
  DeployAndAuthorize("predict");
  bool cold = false;
  auto result = InvokeOnce("predict", &cold);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(cold);
}

TEST_F(ServerlessTest, ConcurrentFirstRequestsShareOneLaunch) {
  // An arrival that finds no warm token while a container of its function
  // is launching waits for one of that launch's spare TCS tokens instead of
  // cold-starting a container of its own (policy::ChooseLaunchToJoin), so
  // num_tcs concurrent first requests need exactly one container.
  semirt::SemirtOptions options;
  options.num_tcs = 4;
  DeployAndAuthorize("burst", options);
  const sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  std::vector<semirt::InferenceRequest> requests;
  for (uint32_t i = 0; i < options.num_tcs; ++i) {
    auto request = user_->BuildRequest("m0", model::GenerateRandomInput(graph_, i), &es);
    ASSERT_TRUE(request.ok());
    requests.push_back(*request);
  }
  // The first launch stalls, so the other callers arrive while it runs.
  FaultConfig stall;
  stall.max_fires = 1;
  stall.latency_micros = 200'000;
  stall.error_code = StatusCode::kOk;
  ScopedFault slow_launch(faults::kServerlessLaunch, stall);
  std::latch start(static_cast<std::ptrdiff_t>(requests.size()));
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  for (const semirt::InferenceRequest& request : requests) {
    callers.emplace_back([&, &request = request] {
      start.arrive_and_wait();
      ok += platform_->Invoke("burst", request).ok() ? 1 : 0;
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(ok.load(), static_cast<int>(requests.size()));
  EXPECT_EQ(platform_->ContainerCount("burst"), 1);
  EXPECT_EQ(platform_->stats().cold_starts, 1);
}

TEST_F(ServerlessTest, KeepAliveReapsIdleContainers) {
  DeployAndAuthorize("predict");
  ASSERT_TRUE(InvokeOnce("predict").ok());
  EXPECT_EQ(platform_->ContainerCount(), 1);

  clock_.Advance(SecondsToMicros(179));
  EXPECT_EQ(platform_->ReapIdleContainers(), 0);  // still within keep-alive
  clock_.Advance(SecondsToMicros(2));
  EXPECT_EQ(platform_->ReapIdleContainers(), 1);
  EXPECT_EQ(platform_->ContainerCount(), 0);

  // Next invocation cold-starts again.
  bool cold = false;
  ASSERT_TRUE(InvokeOnce("predict", &cold).ok());
  EXPECT_TRUE(cold);
}

TEST_F(ServerlessTest, ReapedContainersCloseTheirKeyServiceSessions) {
  // Each cold start attests one SeMIRT enclave to KeyService; retiring the
  // container must close that session, or KeyService keeps one per retired
  // instance. The baseline is the owner/user client's own channel.
  DeployAndAuthorize("predict");
  const size_t baseline = keyservice_->active_sessions();
  constexpr int kColdStarts = 5;
  for (int i = 0; i < kColdStarts; ++i) {
    bool cold = false;
    ASSERT_TRUE(InvokeOnce("predict", &cold).ok());
    EXPECT_TRUE(cold);
    EXPECT_EQ(keyservice_->active_sessions(), baseline + 1);
    clock_.Advance(SecondsToMicros(181));
    EXPECT_EQ(platform_->ReapIdleContainers(), 1);
    EXPECT_EQ(keyservice_->active_sessions(), baseline);
  }
  EXPECT_EQ(platform_->stats().cold_starts, kColdStarts);
}

TEST_F(ServerlessTest, IdleSweepDoesNotColdStartWarmFunction) {
  // A sweep with nothing past keep_alive must leave the warm freelist in
  // place: a concurrent acquisition that finds it empty cold-starts a second
  // container.
  DeployAndAuthorize("predict");
  ASSERT_TRUE(InvokeOnce("predict").ok());  // prewarm: one container
  ASSERT_EQ(platform_->stats().cold_starts, 1);

  std::atomic<bool> stop{false};
  std::thread reaper([&] {
    while (!stop.load(std::memory_order_relaxed)) platform_->ReapIdleContainers();
  });
  for (int i = 0; i < 200; ++i) {
    bool cold = false;
    ASSERT_TRUE(InvokeOnce("predict", &cold).ok());
    EXPECT_FALSE(cold) << "invocation " << i;
  }
  stop.store(true, std::memory_order_relaxed);
  reaper.join();
  EXPECT_EQ(platform_->stats().cold_starts, 1);
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
}

TEST_F(ServerlessTest, MemoryExhaustionSurfaces) {
  semirt::SemirtOptions options;
  DeployAndAuthorize("predict", options);
  // Each container books 256 MB; two nodes of 4 GB fit 32. Fill the cluster
  // with concurrent holds by issuing invokes from threads? Instead shrink:
  PlatformConfig tiny;
  tiny.num_nodes = 1;
  tiny.invoker_memory_bytes = 300ull << 20;  // fits one 256 MB container
  ServerlessPlatform small(tiny, &authority_, &storage_, keyservice_.get(), &clock_);
  FunctionSpec spec;
  spec.name = "predict";
  ASSERT_TRUE(small.DeployFunction(spec).ok());

  // First request occupies the only container slot; a concurrent second
  // request cannot get memory for another container.
  Bytes input = model::GenerateRandomInput(graph_, 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());

  std::atomic<bool> second_failed{false};
  std::thread t1([&] { (void)small.Invoke("predict", *request); });
  std::thread t2([&] {
    // Races with t1: either reuses the container (in_flight check) or fails
    // with ResourceExhausted — both acceptable; what must not happen is a
    // second container.
    auto r = small.Invoke("predict", *request);
    second_failed = !r.ok();
  });
  t1.join();
  t2.join();
  EXPECT_LE(small.ContainerCount(), 1);
}

TEST_F(ServerlessTest, FunctionsIsolatedAcrossNodes) {
  DeployAndAuthorize("predict");
  semirt::SemirtOptions other;
  other.framework = inference::FrameworkKind::kTflm;
  FunctionSpec spec;
  spec.name = "predict-tflm";
  spec.options = other;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement tflm_es = semirt::SemirtInstance::MeasurementFor(other);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", tflm_es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", tflm_es).ok());
  sgx::Measurement tvm_es =
      semirt::SemirtInstance::MeasurementFor(semirt::SemirtOptions{});

  // Two deployments provisioned: requests must name the target enclave.
  EXPECT_FALSE(InvokeOnce("predict").ok());  // ambiguous without identity
  ASSERT_TRUE(InvokeOnce("predict", nullptr, &tvm_es).ok());
  ASSERT_TRUE(InvokeOnce("predict-tflm", nullptr, &tflm_es).ok());
  EXPECT_EQ(platform_->ContainerCount("predict"), 1);
  EXPECT_EQ(platform_->ContainerCount("predict-tflm"), 1);
}

TEST_F(ServerlessTest, ConcurrentInvokeAsyncMatchesSerialExecution) {
  // Two functions with distinct enclave identities and TCS budgets; requests
  // for both interleave through InvokeAsync and every response must decrypt
  // to exactly what a serial Invoke of the same input produces.
  semirt::SemirtOptions options_a;
  options_a.num_tcs = 4;
  DeployAndAuthorize("fn-a", options_a);

  semirt::SemirtOptions options_b;
  options_b.num_tcs = 2;
  options_b.framework = inference::FrameworkKind::kTflm;
  FunctionSpec spec_b;
  spec_b.name = "fn-b";
  spec_b.options = options_b;
  ASSERT_TRUE(platform_->DeployFunction(spec_b).ok());
  sgx::Measurement es_b = semirt::SemirtInstance::MeasurementFor(options_b);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es_b, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es_b).ok());
  sgx::Measurement es_a = semirt::SemirtInstance::MeasurementFor(options_a);

  struct Case {
    std::string fn;
    const sgx::Measurement* es;
    uint64_t seed;
  };
  std::vector<Case> cases;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({"fn-a", &es_a, seed});
    cases.push_back({"fn-b", &es_b, seed});
  }

  // Serial baselines, one per (function, seed).
  std::map<std::pair<std::string, uint64_t>, std::vector<float>> expected;
  for (const Case& c : cases) {
    Bytes input = model::GenerateRandomInput(graph_, c.seed);
    auto request = user_->BuildRequest("m0", input, c.es);
    ASSERT_TRUE(request.ok());
    auto sealed = platform_->Invoke(c.fn, *request);
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    auto output = user_->DecryptResult("m0", *sealed, c.es);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    expected[{c.fn, c.seed}] = *parsed;
  }

  // Stress: several caller threads each fire a burst of InvokeAsync calls
  // across the mixed cases, then verify plaintext parity per request.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<const Case*, std::future<InvocationResult>>> inflight;
      for (int i = 0; i < kPerThread; ++i) {
        const Case& c = cases[(t * kPerThread + i) % cases.size()];
        Bytes input = model::GenerateRandomInput(graph_, c.seed);
        auto request = user_->BuildRequest("m0", input, c.es);
        if (!request.ok()) {
          failures.fetch_add(1);
          continue;
        }
        inflight.emplace_back(&c,
                              platform_->InvokeAsync(c.fn, std::move(*request)));
      }
      for (auto& [c, future] : inflight) {
        InvocationResult result = future.get();
        if (!result.response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto output = user_->DecryptResult("m0", *result.response, c->es);
        if (!output.ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto parsed = model::ParseOutput(*output);
        if (!parsed.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<float> scores = *parsed;
        const std::vector<float>& want = expected.at({c->fn, c->seed});
        if (scores.size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < scores.size(); ++j) {
          if (std::abs(scores[j] - want[j]) > 1e-6f) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  // Serial baselines + concurrent burst all counted.
  EXPECT_EQ(platform_->stats().invocations,
            static_cast<int>(cases.size()) + kThreads * kPerThread);
  // Warm reuse: at most one container per function beyond what concurrency
  // forced (each fn-a container carries 4 TCS, fn-b carries 2).
  EXPECT_GE(platform_->ContainerCount("fn-a"), 1);
  EXPECT_GE(platform_->ContainerCount("fn-b"), 1);
}

TEST_F(ServerlessTest, FifoPolicyPreservesSubmissionOrderUnderContention) {
  // Regression for the pre-scheduler backpressure: callers blocked on the
  // in-flight window woke in arbitrary mutex order. With the scheduler, a
  // submission's admission order (sched_seq) must equal its dispatch order
  // (dispatch_seq) under the default FIFO policy, no matter how many threads
  // race to submit.
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();  // build a contended backlog first

  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::future<InvocationResult>> futures(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Bytes input = model::GenerateRandomInput(graph_, 1);
        auto request = user_->BuildRequest("m0", input);
        ASSERT_TRUE(request.ok());
        futures[t * kPerThread + i] =
            platform_->InvokeAsync("predict", std::move(*request));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(platform_->scheduler_stats().queue_depth,
            static_cast<size_t>(kThreads * kPerThread));

  platform_->ResumeDispatch();
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (sched_seq, dispatch_seq)
  for (auto& f : futures) {
    InvocationResult result = f.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    order.emplace_back(result.sched_seq, result.dispatch_seq);
  }
  std::sort(order.begin(), order.end());
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GT(order[i].second, order[i - 1].second)
        << "dispatch order diverged from FIFO admission order at " << i;
  }
}

TEST_F(ServerlessTest, BatchedSameModelInvocationsMatchSerial) {
  semirt::SemirtOptions options;
  options.num_tcs = 2;
  FunctionSpec spec;
  spec.name = "batched";
  spec.options = options;
  spec.sched.max_batch = 4;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());

  // Serial baselines per seed.
  std::map<uint64_t, std::vector<float>> expected;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Bytes input = model::GenerateRandomInput(graph_, seed);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    auto sealed = platform_->Invoke("batched", *request);
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    auto output = user_->DecryptResult("m0", *sealed);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    expected[seed] = *parsed;
  }

  // Queue 12 same-model requests while dispatch is paused so the coalescer
  // has a backlog to batch, then release.
  platform_->PauseDispatch();
  std::vector<std::pair<uint64_t, std::future<InvocationResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    const uint64_t seed = static_cast<uint64_t>(i % 3) + 1;
    Bytes input = model::GenerateRandomInput(graph_, seed);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    futures.emplace_back(seed,
                         platform_->InvokeAsync("batched", std::move(*request)));
  }
  platform_->ResumeDispatch();

  int max_batch_seen = 0;
  for (auto& [seed, future] : futures) {
    InvocationResult result = future.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    max_batch_seen = std::max(max_batch_seen, result.batch_size);
    auto output = user_->DecryptResult("m0", *result.response);
    ASSERT_TRUE(output.ok());
    auto parsed = model::ParseOutput(*output);
    ASSERT_TRUE(parsed.ok());
    const std::vector<float>& want = expected.at(seed);
    ASSERT_EQ(parsed->size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_NEAR((*parsed)[j], want[j], 1e-5f) << "seed " << seed;
    }
  }
  EXPECT_GT(max_batch_seen, 1) << "coalescer never built a batch";
  const sched::SchedStats stats = platform_->scheduler_stats();
  EXPECT_GT(stats.avg_batch_size, 1.0);
  EXPECT_LE(stats.max_batch_size, 4u);  // respects the configured cap
  EXPECT_EQ(platform_->stats().invocations, 3 + 12);
}

TEST_F(ServerlessTest, RateLimitedFunctionRejectsTyped) {
  semirt::SemirtOptions options;
  FunctionSpec spec;
  spec.name = "limited";
  spec.options = options;
  spec.sched.rate_per_s = 2.0;
  spec.sched.burst = 2.0;
  ASSERT_TRUE(platform_->DeployFunction(spec).ok());
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());

  auto submit = [&] {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return platform_->InvokeAsync("limited", std::move(*request));
  };

  auto r1 = submit().get();
  auto r2 = submit().get();
  auto r3 = submit().get();  // token bucket empty (ManualClock: no refill)
  EXPECT_TRUE(r1.response.ok()) << r1.response.status().ToString();
  EXPECT_TRUE(r2.response.ok());
  EXPECT_TRUE(r3.response.status().IsResourceExhausted())
      << r3.response.status().ToString();
  EXPECT_EQ(platform_->scheduler_stats().rejected_rate, 1u);

  clock_.Advance(SecondsToMicros(1));  // refill 2 tokens
  auto r4 = submit().get();
  EXPECT_TRUE(r4.response.ok());
}

TEST_F(ServerlessTest, WeightedFairPolicyServesBacklogByWeight) {
  PlatformConfig config;
  config.num_nodes = 2;
  config.scheduler.policy = sched::PolicyKind::kWeightedFair;
  config.max_inflight = 1;  // single dispatcher: dispatch order == pop order
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);

  semirt::SemirtOptions options;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  for (const auto& [name, weight] :
       std::vector<std::pair<std::string, double>>{{"heavy", 2.0}, {"light", 1.0}}) {
    FunctionSpec spec;
    spec.name = name;
    spec.options = options;
    spec.sched.weight = weight;
    ASSERT_TRUE(platform.DeployFunction(spec).ok());
  }

  platform.PauseDispatch();
  std::vector<std::pair<std::string, std::future<InvocationResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    for (const std::string fn : {"heavy", "light"}) {
      Bytes input = model::GenerateRandomInput(graph_, 1);
      auto request = user_->BuildRequest("m0", input);
      ASSERT_TRUE(request.ok());
      futures.emplace_back(fn, platform.InvokeAsync(fn, std::move(*request)));
    }
  }
  platform.ResumeDispatch();

  // Among the first 12 dispatches (both functions still backlogged), service
  // must follow the 2:1 weights.
  std::vector<std::pair<uint64_t, std::string>> dispatches;
  for (auto& [fn, future] : futures) {
    InvocationResult result = future.get();
    ASSERT_TRUE(result.response.ok()) << result.response.status().ToString();
    dispatches.emplace_back(result.dispatch_seq, fn);
  }
  std::sort(dispatches.begin(), dispatches.end());
  int heavy_count = 0, light_count = 0;
  for (int i = 0; i < 12; ++i) {
    (dispatches[i].second == "heavy" ? heavy_count : light_count)++;
  }
  EXPECT_EQ(heavy_count, 8) << "2:1 weights over 12 dispatches";
  EXPECT_EQ(light_count, 4);
}

TEST_F(ServerlessTest, DeadlineEdfShedsExpiredWorkInsteadOfExecuting) {
  // DeadlineEdf used to be ordering-only: a request whose deadline had long
  // passed was still dispatched into the enclave. It must be shed at dispatch
  // time — a typed DeadlineExceeded on the future, counted in
  // SchedStats.drops, and *never executed*.
  PlatformConfig config;
  config.num_nodes = 2;
  config.scheduler.policy = sched::PolicyKind::kDeadlineEdf;
  ServerlessPlatform platform(config, &authority_, &storage_, keyservice_.get(),
                              &clock_);

  semirt::SemirtOptions options;
  sgx::Measurement es = semirt::SemirtInstance::MeasurementFor(options);
  ASSERT_TRUE(owner_->GrantAccess(client_.get(), "m0", es, user_->id()).ok());
  ASSERT_TRUE(user_->ProvisionRequestKey(client_.get(), "m0", es).ok());
  FunctionSpec spec;
  spec.name = "deadline";
  spec.options = options;
  ASSERT_TRUE(platform.DeployFunction(spec).ok());

  // Build the backlog with dispatch paused, then let the deadline expire
  // before releasing the dispatchers.
  platform.PauseDispatch();
  auto make_request = [&] {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    EXPECT_TRUE(request.ok());
    return std::move(*request);
  };
  InvokeOptions expiring;
  expiring.deadline = clock_.Now() + 1000;
  auto doomed = platform.InvokeAsync("deadline", make_request(), expiring);
  auto live = platform.InvokeAsync("deadline", make_request());  // no deadline

  clock_.Advance(SecondsToMicros(5));  // the 1 ms deadline is long gone
  platform.ResumeDispatch();

  InvocationResult shed = doomed.get();
  EXPECT_EQ(shed.response.status().code(), StatusCode::kDeadlineExceeded)
      << shed.response.status().ToString();

  InvocationResult ran = live.get();
  EXPECT_TRUE(ran.response.ok()) << ran.response.status().ToString();

  // The expired request never reached an enclave: exactly one invocation ran.
  EXPECT_EQ(platform.stats().invocations, 1);
  EXPECT_EQ(platform.scheduler_stats().drops, 1u);
}

TEST_F(ServerlessTest, RouterIntegrationFnPackerOverPlatform) {
  // FnPacker routes two models onto pooled endpoints deployed as platform
  // functions — the live-mode analogue of the Table III/IV setup.
  DeployAndAuthorize("pool-ep0");
  semirt::SemirtOptions options;  // same identity as pool-ep0's options
  FunctionSpec ep1;
  ep1.name = "pool-ep1";
  ep1.options = options;
  ASSERT_TRUE(platform_->DeployFunction(ep1).ok());

  fnpacker::FnPoolSpec pool;
  pool.models = {"m0"};
  pool.num_endpoints = 2;
  fnpacker::FnPackerRouter router(pool);
  auto endpoint = router.Route("m0", clock_.Now());
  ASSERT_TRUE(endpoint.ok());
  std::string fn = "pool-ep" + std::to_string(*endpoint);
  auto result = InvokeOnce(fn);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  router.OnComplete("m0", *endpoint, clock_.Now());
  EXPECT_EQ(router.stats().routed, 1);
}

TEST_F(ServerlessTest, ShutdownResolvesBacklogWithTypedUnavailable) {
  // Destroying the platform with a parked backlog used to execute the queued
  // work during teardown; it must instead resolve every future with a typed
  // Unavailable("shutting down") — and resolve ALL of them (a lost promise
  // would hang the .get() below forever).
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();

  constexpr int kBacklog = 32;
  std::vector<std::future<InvocationResult>> futures;
  for (int i = 0; i < kBacklog; ++i) {
    Bytes input = model::GenerateRandomInput(graph_, 1);
    auto request = user_->BuildRequest("m0", input);
    ASSERT_TRUE(request.ok());
    futures.push_back(platform_->InvokeAsync("predict", std::move(*request)));
  }

  platform_.reset();  // dispatch still paused: nothing was executed

  for (auto& f : futures) {
    InvocationResult out = f.get();
    EXPECT_EQ(out.response.status().code(), StatusCode::kUnavailable)
        << out.response.status().ToString();
    EXPECT_NE(out.response.status().message().find("shutting down"),
              std::string::npos);
  }
}

TEST_F(ServerlessTest, ExecutionDeadlineCutsExpiredRequestBeforeEnclaveEntry) {
  // Under FIFO the scheduler does not shed on deadlines — enforcement happens
  // at execution time: the dispatch-side ExecDeadline cuts the request before
  // it ever acquires a container, with a typed DeadlineExceeded.
  DeployAndAuthorize("predict");
  platform_->PauseDispatch();

  Bytes input = model::GenerateRandomInput(graph_, 1);
  auto request = user_->BuildRequest("m0", input);
  ASSERT_TRUE(request.ok());
  InvokeOptions options;
  options.deadline = clock_.Now() + 1000;
  auto doomed = platform_->InvokeAsync("predict", std::move(*request), options);

  clock_.Advance(SecondsToMicros(5));  // deadline long gone before resume
  platform_->ResumeDispatch();

  InvocationResult out = doomed.get();
  EXPECT_EQ(out.response.status().code(), StatusCode::kDeadlineExceeded)
      << out.response.status().ToString();
  EXPECT_EQ(platform_->stats().invocations, 0);  // never reached an enclave
  EXPECT_EQ(platform_->stats().deadline_cuts, 1u);
  EXPECT_EQ(platform_->recovery_stats().deadline_cuts, 1u);
}

}  // namespace
}  // namespace sesemi::serverless
