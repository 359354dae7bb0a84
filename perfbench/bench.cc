// End-to-end serving benchmark. Drives the live stack through its
// public API — client roles, FnPacker routing, the cluster dataplane, the
// serverless platform and its scheduler, SeMIRT inside simulated SGX
// enclaves, KeyService over RA-TLS, the object store — with closed-loop
// clients, checks every decrypted output against a reference computed at
// set-up, and prints one JSON result line (metric definitions in README.md).
//
//   perfbench --workload hot|cold|mixed --seed N --seconds S --trace 0|1
//             [--part K] [--setup-only]
//
// After set-up, a `solo` phase (1 client) and then a `load` phase
// (kLoadClients clients) run kSegments segments each; each client sends its
// next request only after the previous one is verified.

#include <sys/resource.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/clients.h"
#include "cluster/cluster.h"
#include "fnpacker/router.h"
#include "inference/framework.h"
#include "keyservice/keyservice.h"
#include "model/zoo.h"
#include "obs/trace.h"
#include "semirt/semirt.h"
#include "serverless/platform.h"
#include "sgx/platform.h"
#include "stats.h"
#include "storage/object_store.h"

namespace perfbench {
namespace {

using namespace sesemi;  // NOLINT(build/namespaces): one-file benchmark

constexpr int kLoadClients = 4;
constexpr int kInputsPerModel = 16;
constexpr int kSegments = 4;         ///< segments per phase
constexpr double kSoloShare = 0.35;  ///< of the measured time
/// Batched executions may round differently from the single-sample
/// reference; their outputs must agree on the top-1 class and within this
/// absolute difference per score (the outputs are softmax probabilities).
constexpr double kBatchTolerance = 1e-4;
/// A semirt.key_fetch span shorter than this (after removing its RA-TLS
/// handshake) hit the enclave's key cache; longer ones went to KeyService.
constexpr int64_t kFetchThresholdUs = 3;

// Span names the benchmark records around the public calls it makes.
constexpr const char* kBenchRequest = "bench.request";
constexpr const char* kBenchRoute = "bench.route";
constexpr const char* kBenchInvoke = "bench.invoke";
constexpr const char* kBenchDecrypt = "bench.decrypt";

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimeMicros NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + sys) and minor page faults so far.
struct Usage {
  double cpu_s = 0;
  long minor_faults = 0;
};

Usage ProcessUsage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime), usage.ru_minflt};
}

CpuTimes ReadProcStat() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return ParseProcStat(line);
}

/// Object store that counts the bytes SeMIRT fetches (model ciphertexts are
/// the only objects read on the serving path).
class CountingStore final : public storage::ObjectStore {
 public:
  Status Put(const std::string& key, Bytes data) override {
    return inner_.Put(key, std::move(data));
  }
  Result<Bytes> Get(const std::string& key) const override {
    Result<Bytes> out = inner_.Get(key);
    if (out.ok()) {
      gets_.fetch_add(1, std::memory_order_relaxed);
      bytes_.fetch_add(out->size(), std::memory_order_relaxed);
    }
    return out;
  }
  Status Delete(const std::string& key) override { return inner_.Delete(key); }
  bool Exists(const std::string& key) const override { return inner_.Exists(key); }
  Result<uint64_t> Size(const std::string& key) const override {
    return inner_.Size(key);
  }
  std::vector<std::string> List(const std::string& prefix) const override {
    return inner_.List(prefix);
  }
  uint64_t gets() const { return gets_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  storage::InMemoryObjectStore inner_;
  mutable std::atomic<uint64_t> gets_{0};
  mutable std::atomic<uint64_t> bytes_{0};
};

/// Floating-point operations of one single-sample inference, from the layer
/// shapes (2 per multiply-accumulate in Conv2d, DepthwiseConv2d and Dense).
double CountFlops(const model::ModelGraph& graph) {
  double flops = 0;
  for (const model::Layer& layer : graph.layers) {
    if (layer.inputs.empty()) continue;
    const model::TensorShape& in =
        graph.layers[static_cast<size_t>(layer.inputs[0])].output_shape;
    const model::TensorShape& out = layer.output_shape;
    const double k2 = static_cast<double>(layer.kernel) * layer.kernel;
    switch (layer.kind) {
      case model::LayerKind::kConv2d:
        flops += 2.0 * static_cast<double>(out.elements()) * k2 * in.c;
        break;
      case model::LayerKind::kDepthwiseConv2d:
        flops += 2.0 * static_cast<double>(out.elements()) * k2;
        break;
      case model::LayerKind::kDense:
        flops += 2.0 * static_cast<double>(in.elements()) * layer.units;
        break;
      default:
        break;
    }
  }
  return flops;
}

enum class Kind { kHot, kCold, kMixed };

struct ModelSpec {
  model::Architecture arch;
  uint64_t zoo_seed;
};

/// What each workload deploys and how it is served (why each exists is in
/// BENCHMARK.json and README.md).
struct WorkloadConfig {
  Kind kind = Kind::kHot;
  std::vector<ModelSpec> models;  ///< in Zipf rank order
  double scale = 0.01;
  int input_hw = 16;
  semirt::SemirtOptions options;
  int max_batch = 1;
};

Result<WorkloadConfig> ConfigFor(const std::string& name) {
  WorkloadConfig config;
  if (name == "hot") {
    config.kind = Kind::kHot;
    config.models = {{model::Architecture::kRsNet, 0x5e5e}};
    config.scale = 0.03;
    config.options.num_tcs = kLoadClients;
  } else if (name == "cold") {
    config.kind = Kind::kCold;
    config.models = {{model::Architecture::kMbNet, 0x5e5e}};
  } else if (name == "mixed") {
    config.kind = Kind::kMixed;
    // Two of each architecture, interleaved so every architecture has a
    // popular and an unpopular instance.
    config.models = {{model::Architecture::kMbNet, 0x5e5e},
                     {model::Architecture::kRsNet, 0x5e5e},
                     {model::Architecture::kDsNet, 0x5e5e},
                     {model::Architecture::kMbNet, 0x5e5f},
                     {model::Architecture::kRsNet, 0x5e5f},
                     {model::Architecture::kDsNet, 0x5e5f}};
    config.options.num_tcs = kLoadClients;
    // 32x32 inputs: at 16x16 the hot and warm latency modes leave a gap
    // that the solo p50 straddles, so it jumped between 0.9 and 2 ms from
    // run to run. Here hot ResNet/DenseNet and warm MobileNet requests
    // overlap around 2 ms.
    config.input_hw = 32;
    config.options.quantize = true;
    config.max_batch = 8;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (expected hot, cold or mixed)");
  }
  return config;
}

struct ModelEntry {
  std::string id;
  double flops = 0;
  std::vector<Bytes> inputs;
  std::vector<Bytes> refs;  ///< plaintext-model output per input, same tier
};

/// One request as a client saw it. Kept small: every request of a run is
/// stored until the end, and that storage counts in peak_rss_mb.
struct Sample {
  float latency_us = 0;
  uint32_t wire_bytes = 0;  ///< sealed request + sealed response
  semirt::InvocationKind path = semirt::InvocationKind::kHot;
  uint8_t model = 0;
  uint8_t batch = 1;
  bool ok = false;     ///< response decrypted and matched the reference
  bool exact = false;  ///< matched bit for bit
  bool cold = false;   ///< the platform provisioned a container for it
};

/// The deployed system under test plus the tenant that calls it.
class Rig {
 public:
  explicit Rig(WorkloadConfig config) : config_(std::move(config)), zipf_(1, 1.0) {}

  // The platform and cluster keep pointers to members.
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Status Setup(uint64_t seed) {
    SESEMI_ASSIGN_OR_RETURN(keyservice_, keyservice::StartKeyService(&ks_platform_));
    SESEMI_ASSIGN_OR_RETURN(
        ks_client_, client::KeyServiceClient::Connect(
                        keyservice_.get(), &authority_,
                        keyservice::KeyServiceEnclave::ExpectedMeasurement()));
    SESEMI_RETURN_IF_ERROR(owner_.Register(ks_client_.get()));
    SESEMI_RETURN_IF_ERROR(user_.Register(ks_client_.get()));
    es_ = semirt::SemirtInstance::MeasurementFor(config_.options);

    inference::FrameworkOptions framework_options;
    framework_options.quantize = config_.options.quantize;
    auto framework =
        inference::CreateFramework(config_.options.framework, framework_options);
    zipf_ = ZipfPicker(static_cast<int>(config_.models.size()), 1.0);
    for (size_t m = 0; m < config_.models.size(); ++m) {
      ModelEntry entry;
      entry.id = "m" + std::to_string(m);
      model::ZooSpec spec;
      spec.model_id = entry.id;
      spec.arch = config_.models[m].arch;
      spec.seed = config_.models[m].zoo_seed;
      spec.scale = config_.scale;
      spec.input_hw = config_.input_hw;
      SESEMI_ASSIGN_OR_RETURN(model::ModelGraph graph, model::BuildModel(spec));
      entry.flops = CountFlops(graph);
      SESEMI_RETURN_IF_ERROR(owner_.DeployModel(ks_client_.get(), &storage_, graph));
      SESEMI_RETURN_IF_ERROR(
          owner_.GrantAccess(ks_client_.get(), entry.id, es_, user_.id()));
      SESEMI_RETURN_IF_ERROR(
          user_.ProvisionRequestKey(ks_client_.get(), entry.id, es_));

      // Reference outputs: the plaintext model through the same framework
      // and tier the enclave uses, one sample at a time.
      SplitMix64 input_seeds(StreamSeed(seed, 0xfeed, m));
      for (int i = 0; i < kInputsPerModel; ++i) {
        entry.inputs.push_back(model::GenerateRandomInput(graph, input_seeds.Next()));
      }
      SESEMI_ASSIGN_OR_RETURN(auto loaded, framework->WrapModel(std::move(graph)));
      SESEMI_ASSIGN_OR_RETURN(auto runtime, framework->CreateRuntime(loaded));
      for (int i = 0; i < kInputsPerModel; ++i) {
        SESEMI_ASSIGN_OR_RETURN(Bytes ref, runtime->Execute(entry.inputs[static_cast<size_t>(i)]));
        entry.refs.push_back(std::move(ref));
      }
      models_.push_back(std::move(entry));
    }

    serverless::FunctionSpec fn;
    fn.options = config_.options;
    fn.sched.max_batch = config_.max_batch;
    switch (config_.kind) {
      case Kind::kHot: {
        platform_ = std::make_unique<serverless::ServerlessPlatform>(
            serverless::PlatformConfig{}, &authority_, &storage_, keyservice_.get());
        fn.name = "hot";
        SESEMI_RETURN_IF_ERROR(platform_->DeployFunction(fn));
        functions_ = {fn.name};
        break;
      }
      case Kind::kCold: {
        serverless::PlatformConfig platform_config;
        platform_config.keep_alive = 0;
        platform_ = std::make_unique<serverless::ServerlessPlatform>(
            platform_config, &authority_, &storage_, keyservice_.get());
        for (int c = 0; c < kLoadClients; ++c) {
          fn.name = "cold" + std::to_string(c);
          SESEMI_RETURN_IF_ERROR(platform_->DeployFunction(fn));
          functions_.push_back(fn.name);
        }
        break;
      }
      case Kind::kMixed: {
        cluster::ClusterConfig cluster_config;
        cluster_config.initial_nodes = 2;
        dataplane_ = std::make_unique<cluster::ClusterDataplane>(
            cluster_config, &authority_, &storage_, keyservice_.get());
        fnpacker::FnPoolSpec pool;
        for (const ModelEntry& entry : models_) pool.models.push_back(entry.id);
        pool.num_endpoints = 2;
        router_ = std::make_unique<fnpacker::FnPackerRouter>(pool);
        for (int e = 0; e < pool.num_endpoints; ++e) {
          fn.name = "ep" + std::to_string(e);
          SESEMI_RETURN_IF_ERROR(dataplane_->DeployFunction(fn));
          functions_.push_back(fn.name);
        }
        break;
      }
    }
    return Prewarm();
  }

  /// One closed-loop request: seal, route, invoke, wait, decrypt, verify.
  /// Spans wrap each public call when tracing is on. A failed request's
  /// reason goes to *error.
  Sample Call(int client, int model_index, int input_index, std::string* error) {
    obs::Span root(kBenchRequest);
    const ModelEntry& entry = models_[static_cast<size_t>(model_index)];
    Sample sample;
    sample.model = static_cast<uint8_t>(model_index);
    const double t0 = NowSeconds();

    std::string function;
    int endpoint = -1;
    if (router_ != nullptr) {
      Result<int> routed = [&] {
        obs::Span span(kBenchRoute);
        return router_->Route(entry.id, NowMicros());
      }();
      if (!routed.ok()) {
        *error = "route: " + routed.status().ToString();
        return sample;
      }
      endpoint = *routed;
      function = functions_[static_cast<size_t>(endpoint)];
    } else {
      function = functions_[static_cast<size_t>(client) % functions_.size()];
    }

    const Bytes& input = entry.inputs[static_cast<size_t>(input_index)];
    serverless::InvocationResult result;
    Result<semirt::InferenceRequest> request = user_.BuildRequest(entry.id, input, &es_);
    if (request.ok()) {
      sample.wire_bytes = static_cast<uint32_t>(request->encrypted_input.size());
      obs::Span span(kBenchInvoke);
      result = dataplane_ != nullptr
                   ? dataplane_->InvokeAsync(function, std::move(*request)).get()
                   : platform_->InvokeAsync(function, std::move(*request)).get();
    } else {
      result.response = request.status();
    }
    sample.cold = result.cold_start;
    sample.path = result.timings.kind;
    sample.batch = static_cast<uint8_t>(std::clamp(result.batch_size, 1, 255));

    Result<Bytes> output = Status::Aborted("no response");
    if (result.response.ok()) {
      sample.wire_bytes += static_cast<uint32_t>(result.response->size());
      obs::Span span(kBenchDecrypt);
      output = user_.DecryptResult(entry.id, *result.response, &es_);
    } else {
      output = result.response.status();
    }
    if (!output.ok()) {
      *error = output.status().ToString();
    } else {
      Verify(*output, entry.refs[static_cast<size_t>(input_index)], &sample, error);
    }
    sample.latency_us = static_cast<float>((NowSeconds() - t0) * 1e6);

    if (router_ != nullptr) {
      if (sample.ok) {
        router_->OnComplete(entry.id, endpoint, NowMicros());
      } else {
        router_->OnFailure(entry.id, endpoint, NowMicros());
      }
    }
    if (config_.kind == Kind::kCold) platform_->ReapIdleContainers();
    return sample;
  }

  int PickModel(SplitMix64* rng) const { return zipf_.Pick(rng->Uniform()); }

  int ContainerCount() const {
    if (platform_ != nullptr) return platform_->ContainerCount();
    int total = 0;
    for (int i = 0; i < dataplane_->total_nodes(); ++i) {
      total += dataplane_->node(i)->ContainerCount();
    }
    return total;
  }

  /// Containers the prewarm must leave: one per function on every node of
  /// a warm workload, none on `cold`.
  int ExpectedContainers() const {
    switch (config_.kind) {
      case Kind::kHot:
        return 1;
      case Kind::kCold:
        return 0;
      case Kind::kMixed:
        return dataplane_->total_nodes() * static_cast<int>(functions_.size());
    }
    return 0;
  }

  /// Scheduler queue-wait percentiles of the busiest priority class, averaged
  /// over nodes weighted by sample count.
  std::pair<double, double> SchedWait() {
    std::vector<serverless::ServerlessPlatform*> platforms;
    if (platform_ != nullptr) platforms.push_back(platform_.get());
    for (int i = 0; dataplane_ != nullptr && i < dataplane_->total_nodes(); ++i) {
      platforms.push_back(dataplane_->node(i));
    }
    double p50 = 0, p99 = 0, weight = 0;
    for (serverless::ServerlessPlatform* p : platforms) {
      sched::SchedStats stats = p->scheduler_stats();
      const sched::SchedStats::ClassWait* busiest = &stats.wait[0];
      for (const auto& w : stats.wait) {
        if (w.count > busiest->count) busiest = &w;
      }
      const double n = static_cast<double>(busiest->count);
      p50 += n * static_cast<double>(busiest->p50);
      p99 += n * static_cast<double>(busiest->p99);
      weight += n;
    }
    return weight > 0 ? std::make_pair(p50 / weight, p99 / weight)
                      : std::make_pair(0.0, 0.0);
  }

  const std::vector<ModelEntry>& models() const { return models_; }
  const CountingStore& storage() const { return storage_; }
  fnpacker::FnPackerRouter* router() { return router_.get(); }
  cluster::ClusterDataplane* dataplane() { return dataplane_.get(); }
  bool prewarm_ok() const { return prewarm_ok_; }
  const std::string& prewarm_note() const { return prewarm_note_; }

 private:
  static void Verify(const Bytes& output, const Bytes& ref, Sample* sample,
                     std::string* error) {
    if (output == ref) {
      sample->ok = sample->exact = true;
      return;
    }
    // Only a batched execution may differ from the single-sample reference.
    if (sample->batch <= 1 || output.size() != ref.size() || output.size() % 4 != 0) {
      *error = "output mismatch";
      return;
    }
    const size_t n = output.size() / sizeof(float);
    std::vector<float> got(n), want(n);
    std::memcpy(got.data(), output.data(), output.size());
    std::memcpy(want.data(), ref.data(), ref.size());
    size_t got_top = 0, want_top = 0;
    double max_diff = 0;
    for (size_t i = 0; i < n; ++i) {
      if (got[i] > got[got_top]) got_top = i;
      if (want[i] > want[want_top]) want_top = i;
      max_diff = std::max(max_diff, std::fabs(static_cast<double>(got[i]) - want[i]));
    }
    if (got_top == want_top && max_diff <= kBatchTolerance) {
      sample->ok = true;
    } else {
      *error = "batched output outside tolerance";
    }
  }

  /// Serve one request on `platform`'s `function` directly (bypassing the
  /// router), for the prewarm.
  std::future<serverless::InvocationResult> Direct(
      serverless::ServerlessPlatform* platform, const std::string& function,
      int input_index) {
    const ModelEntry& entry = models_.front();
    auto request = user_.BuildRequest(
        entry.id, entry.inputs[static_cast<size_t>(input_index)], &es_);
    if (!request.ok()) {
      std::promise<serverless::InvocationResult> failed;
      serverless::InvocationResult out;
      out.response = request.status();
      failed.set_value(std::move(out));
      return failed.get_future();
    }
    return platform->InvokeAsync(function, std::move(*request));
  }

  /// Deterministic prewarm: one sequential request per intended container
  /// (its cold start), then num_tcs concurrent requests so every TCS slot
  /// has a runtime. `cold` containers are reaped again right away.
  Status Prewarm() {
    std::vector<serverless::ServerlessPlatform*> nodes;
    if (platform_ != nullptr) nodes.push_back(platform_.get());
    for (int i = 0; dataplane_ != nullptr && i < dataplane_->total_nodes(); ++i) {
      nodes.push_back(dataplane_->node(i));
    }
    for (serverless::ServerlessPlatform* node : nodes) {
      for (const std::string& function : functions_) {
        serverless::InvocationResult first = Direct(node, function, 0).get();
        if (!first.response.ok()) return first.response.status();
        if (config_.kind == Kind::kCold) {
          node->ReapIdleContainers();
          continue;
        }
        std::vector<std::future<serverless::InvocationResult>> wave;
        for (uint32_t t = 0; t < config_.options.num_tcs; ++t) {
          wave.push_back(Direct(node, function, static_cast<int>(t + 1)));
        }
        for (auto& f : wave) {
          serverless::InvocationResult r = f.get();
          if (!r.response.ok()) return r.response.status();
        }
      }
    }
    const int containers = ContainerCount();
    prewarm_ok_ = containers == ExpectedContainers();
    prewarm_note_ = std::to_string(containers) + " containers after prewarm (expected " +
                    std::to_string(ExpectedContainers()) + ")";
    return Status::OK();
  }

  WorkloadConfig config_;
  sgx::AttestationAuthority authority_;
  sgx::SgxPlatform ks_platform_{sgx::SgxGeneration::kSgx2, &authority_};
  CountingStore storage_;
  std::unique_ptr<keyservice::KeyServiceServer> keyservice_;
  std::unique_ptr<client::KeyServiceClient> ks_client_;
  client::ModelOwner owner_{"perfbench-owner"};
  client::ModelUser user_{"perfbench-user"};
  sgx::Measurement es_;
  std::vector<ModelEntry> models_;
  ZipfPicker zipf_;
  std::vector<std::string> functions_;
  // Declared last so they are destroyed first: they point into the above.
  std::unique_ptr<serverless::ServerlessPlatform> platform_;
  std::unique_ptr<cluster::ClusterDataplane> dataplane_;
  std::unique_ptr<fnpacker::FnPackerRouter> router_;
  bool prewarm_ok_ = false;
  std::string prewarm_note_;
};

/// What one segment of a phase measured.
struct Segment {
  std::string phase;  ///< "solo", "load" or "load_untraced"
  bool traced = false;
  std::vector<Sample> samples;
  std::vector<float> gaps_us;  ///< client turnaround between requests
  std::map<std::string, size_t> errors;  ///< failed requests by reason
  double wall_s = 0;
  double cpu_s = 0;
  long minor_faults = 0;
  uint64_t model_bytes = 0;  ///< model ciphertext fetched from the object store
  CpuTimes stat_before, stat_after;

  size_t ok() const {
    size_t n = 0;
    for (const Sample& s : samples) n += s.ok ? 1 : 0;
    return n;
  }
  double rps() const { return wall_s > 0 ? static_cast<double>(ok()) / wall_s : 0; }
};

/// One segment of a phase: its label, length, and whether it is traced.
struct SegmentPlan {
  const char* phase;
  double seconds;
  bool traced;
};

/// Run `plans` back to back with the same `clients` threads, so a traced
/// run allocates one span ring per client rather than one per segment. All
/// clients start a segment together; each sends its next request as soon as
/// the previous one is verified and stops when the segment's time is up. The
/// last client to reach the barrier closes the segment and opens the next.
std::vector<Segment> RunPhase(Rig* rig, int clients, const std::vector<SegmentPlan>& plans,
                              uint64_t seed, uint64_t first_segment_id, bool tracing_run) {
  const size_t n = plans.size();
  std::vector<Segment> segments(n);
  std::vector<std::vector<std::vector<Sample>>> samples(
      n, std::vector<std::vector<Sample>>(static_cast<size_t>(clients)));
  std::vector<std::vector<std::vector<float>>> gaps(
      n, std::vector<std::vector<float>>(static_cast<size_t>(clients)));
  std::vector<std::vector<std::map<std::string, size_t>>> errors(
      n, std::vector<std::map<std::string, size_t>>(static_cast<size_t>(clients)));
  // Written only while every client waits at the barrier.
  size_t current = 0;
  double start = 0, deadline = 0;
  Usage usage0;
  uint64_t store_bytes0 = 0;
  auto open = [&] {
    const SegmentPlan& plan = plans[current];
    if (tracing_run) plan.traced ? obs::Tracer::Enable() : obs::Tracer::Disable();
    segments[current].phase = plan.phase;
    segments[current].traced = plan.traced;
    segments[current].stat_before = ReadProcStat();
    usage0 = ProcessUsage();
    store_bytes0 = rig->storage().bytes();
    start = NowSeconds();
    deadline = start + plan.seconds;
  };
  auto close = [&] {
    Segment& segment = segments[current];
    segment.wall_s = NowSeconds() - start;
    const Usage usage1 = ProcessUsage();
    segment.cpu_s = usage1.cpu_s - usage0.cpu_s;
    segment.minor_faults = usage1.minor_faults - usage0.minor_faults;
    segment.model_bytes = rig->storage().bytes() - store_bytes0;
    segment.stat_after = ReadProcStat();
    if (++current < n) open();
  };
  open();
  std::barrier sync(clients, [&]() noexcept { close(); });
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t client = static_cast<size_t>(c);
      for (size_t i = 0; i < n; ++i) {
        SplitMix64 rng(StreamSeed(seed, first_segment_id + i, client));
        double previous_end = 0;
        for (;;) {
          const double now = NowSeconds();
          if (now >= deadline) break;
          if (previous_end > 0) {
            gaps[i][client].push_back(static_cast<float>((now - previous_end) * 1e6));
          }
          const int model_index = rig->PickModel(&rng);
          const int input_index = static_cast<int>(rng.Next() % kInputsPerModel);
          std::string error;
          samples[i][client].push_back(rig->Call(c, model_index, input_index, &error));
          if (!samples[i][client].back().ok) ++errors[i][client][error];
          previous_end = NowSeconds();
        }
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < static_cast<size_t>(clients); ++c) {
      segments[i].samples.insert(segments[i].samples.end(), samples[i][c].begin(),
                                 samples[i][c].end());
      segments[i].gaps_us.insert(segments[i].gaps_us.end(), gaps[i][c].begin(),
                                 gaps[i][c].end());
      for (const auto& [reason, count] : errors[i][c]) segments[i].errors[reason] += count;
    }
  }
  return segments;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The segments whose phase is `phase`.
std::vector<const Segment*> Select(const std::vector<Segment>& segments,
                                   const std::string& phase) {
  std::vector<const Segment*> out;
  for (const Segment& s : segments) {
    if (s.phase == phase) out.push_back(&s);
  }
  return out;
}

std::vector<double> Latencies(const std::vector<const Segment*>& segments) {
  std::vector<double> out;
  for (const Segment* s : segments) {
    for (const Sample& sample : s->samples) {
      if (sample.ok) out.push_back(sample.latency_us);
    }
  }
  return out;
}

/// Per-phase path checks and noise diagnostics. Returns whether every
/// request of the phase was verified. An unexpected cold start is reported
/// but does not make the run incorrect: the platform's periodic idle-reap
/// sweep briefly empties the warm freelist, and a request that acquires
/// during it cold-starts a second container (see ServerlessPlatform::
/// ReapShard). That is a defect in the platform, not in the output.
bool ReportPhase(const std::string& phase, const std::vector<const Segment*>& segments,
                 Kind kind) {
  size_t sent = 0, ok = 0, exact = 0, cold = 0;
  std::map<std::string, size_t> errors;
  std::vector<double> gaps;
  CpuTimes stat_before{0, 0, true}, stat_after{0, 0, true};  // sums over segments
  long faults = 0;
  for (const Segment* s : segments) {
    for (const Sample& sample : s->samples) {
      ++sent;
      ok += sample.ok ? 1 : 0;
      exact += sample.exact ? 1 : 0;
      cold += sample.cold ? 1 : 0;
    }
    for (const auto& [reason, count] : s->errors) errors[reason] += count;
    gaps.insert(gaps.end(), s->gaps_us.begin(), s->gaps_us.end());
    faults += s->minor_faults;
    if (s->stat_before.ok && s->stat_after.ok) {
      stat_before.total += s->stat_before.total;
      stat_before.steal += s->stat_before.steal;
      stat_after.total += s->stat_after.total;
      stat_after.steal += s->stat_after.steal;
    }
  }
  const size_t expected_cold = kind == Kind::kCold ? sent : 0;
  std::vector<double> lat = Latencies(segments);
  std::printf(
      "phase %-14s sent %zu ok %zu failed %zu exact %zu cold_starts %zu "
      "(expected %zu)%s\n",
      phase.c_str(), sent, ok, sent - ok, exact, cold, expected_cold,
      cold == expected_cold ? "" : "  PATH CHECK: unexpected cold-start count");
  for (const auto& [error, n] : errors) {
    std::printf("  error x%zu: %s\n", n, error.c_str());
  }
  std::printf(
      "  latency_ms p50 %.4f p90 %.4f p99 %.4f (%zu beyond) p99.9 %.4f (%zu "
      "beyond) n %zu\n",
      Percentile(lat, 50) / 1e3, Percentile(lat, 90) / 1e3, Percentile(lat, 99) / 1e3,
      TailCount(lat.size(), 99), Percentile(lat, 99.9) / 1e3,
      TailCount(lat.size(), 99.9), lat.size());
  std::printf(
      "  noise: host steal %.4f, client turnaround_us p50 %.2f p99 %.2f max %.1f "
      "(n %zu), minor faults/req %.1f\n",
      StealFraction(stat_before, stat_after),
      Percentile(gaps, 50), Percentile(gaps, 99), Percentile(gaps, 100), gaps.size(),
      sent > 0 ? static_cast<double>(faults) / static_cast<double>(sent) : 0.0);
  std::printf("  segment req/s (warm-path share):");
  for (const Segment* s : segments) {
    size_t warm = 0;
    for (const Sample& sample : s->samples) {
      warm += sample.path == semirt::InvocationKind::kWarm ? 1 : 0;
    }
    std::printf(" %.1f (%.3f)", s->rps(),
                s->samples.empty() ? 0.0
                                   : static_cast<double>(warm) /
                                         static_cast<double>(s->samples.size()));
  }
  std::printf("\n");
  return sent > 0 && ok == sent;
}

// ------------------------------------------------------------- tracing

/// Per-layer numbers from the traced segments' spans.
struct TraceView {
  std::vector<obs::SpanRecord> spans;
  std::vector<int64_t> self;
  std::unordered_map<std::string, std::vector<size_t>> by_name;

  explicit TraceView(std::vector<obs::SpanRecord> records) : spans(std::move(records)) {
    std::vector<SpanNode> nodes;
    nodes.reserve(spans.size());
    for (const obs::SpanRecord& r : spans) {
      nodes.push_back({r.span_id, r.parent_id, r.start, r.end});
    }
    self = SelfTimes(nodes);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != nullptr) by_name[spans[i].name].push_back(i);
    }
  }

  const std::vector<size_t>& Of(const char* name) const {
    static const std::vector<size_t> kNone;
    auto it = by_name.find(name);
    return it == by_name.end() ? kNone : it->second;
  }
  double SelfTotal(const char* name) const {
    double total = 0;
    for (size_t i : Of(name)) total += static_cast<double>(self[i]);
    return total;
  }
  double DurationTotal(const char* name) const {
    double total = 0;
    for (size_t i : Of(name)) total += static_cast<double>(spans[i].end - spans[i].start);
    return total;
  }

  /// Span table: count, mean / p50 / p99 self time per name.
  void Print() const {
    std::map<std::string, std::vector<double>> table;
    for (const auto& [name, idx] : by_name) {
      for (size_t i : idx) table[name].push_back(static_cast<double>(self[i]));
    }
    std::printf("  %-24s %9s %12s %10s %10s %10s\n", "span", "count", "self_total_ms",
                "self_mean", "self_p50", "self_p99");
    for (const auto& [name, values] : table) {
      double sum = 0;
      for (double v : values) sum += v;
      std::printf("  %-24s %9zu %12.3f %10.2f %10.1f %10.1f\n", name.c_str(),
                  values.size(), sum / 1e3, sum / static_cast<double>(values.size()),
                  Percentile(values, 50), Percentile(values, 99));
    }
  }
};

/// Time each semirt.key_fetch span spent outside the RA-TLS handshake of
/// the same trace (the handshake runs inside the fetch but is recorded as
/// its sibling).
std::vector<int64_t> FetchSelfTimes(const TraceView& view) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> handshakes;
  for (size_t i : view.Of(obs::spans::kHandshake)) {
    handshakes[view.spans[i].trace_id].emplace_back(view.spans[i].start, view.spans[i].end);
  }
  std::vector<int64_t> out;
  for (size_t i : view.Of(obs::spans::kKeyFetch)) {
    const obs::SpanRecord& r = view.spans[i];
    int64_t covered = 0;
    auto it = handshakes.find(r.trace_id);
    if (it != handshakes.end()) {
      auto intervals = it->second;
      covered = CoveredLength(&intervals, r.start, r.end);
    }
    out.push_back(std::max<int64_t>(0, r.end - r.start) - covered);
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint64_t part = 0;  ///< which of run.py's processes this is; varies the streams
  bool trace = false;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--part") {
      args->part = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      args->trace = v[0] == '1';
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  const double process_start = NowSeconds();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hot|cold|mixed --seed N "
                 "--seconds S --trace 0|1 [--part K] [--setup-only]\n");
    return 2;
  }
  Result<WorkloadConfig> config = ConfigFor(args.workload);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 2;
  }

  // Tracing covers set-up too in the traced run: cold starts, enclave
  // launches and handshakes happen only there on the warm workloads. Rings
  // never wrap (a full ring drops), so the measured phase's rings are sized
  // from its length: on hot, the busiest thread records about 11k spans per
  // second of the process's measured time.
  constexpr size_t kSetupRingCapacity = size_t{1} << 12;
  const size_t ring_capacity = std::clamp<size_t>(
      static_cast<size_t>(25000 * args.seconds), size_t{1} << 14, size_t{1} << 19);
  if (args.trace) {
    obs::Tracer::Reset(kSetupRingCapacity);
    obs::Tracer::Enable();
  }

  Rig rig(*config);
  Status setup = rig.Setup(args.seed);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  const double setup_s = NowSeconds() - process_start;
  std::printf("workload %s seed %" PRIu64 " seconds %.1f trace %d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("setup_s %.4f; %s\n", setup_s, rig.prewarm_note().c_str());
  if (args.setup_only) {
    std::printf("{\"setup_s\": %s, \"prewarm_ok\": %s}\n", FormatNumber(setup_s).c_str(),
                rig.prewarm_ok() ? "true" : "false");
    return rig.prewarm_ok() ? 0 : 1;
  }

  obs::TraceSnapshot setup_trace;
  if (args.trace) {
    setup_trace = obs::Tracer::Snap();
    obs::Tracer::Reset(ring_capacity);
  }
  fnpacker::RouterStats router_before;
  if (rig.router() != nullptr) router_before = rig.router()->stats();
  cluster::ClusterStats cluster_before;
  if (rig.dataplane() != nullptr) cluster_before = rig.dataplane()->stats();

  // Measured phase: the solo segments first, while the router still holds
  // the state the prewarm left, then the load segments. The traced run
  // splits each load segment's time between a traced and an untraced
  // segment (order alternating) to measure the tracing overhead.
  const double solo_s = args.seconds * kSoloShare / kSegments;
  const double load_s = args.seconds * (1 - kSoloShare) / kSegments;
  std::vector<SegmentPlan> solo_plan, load_plan;
  for (int i = 0; i < kSegments; ++i) {
    solo_plan.push_back({"solo", solo_s, args.trace});
    if (!args.trace) {
      load_plan.push_back({"load", load_s, false});
    } else if (i % 2 == 0) {
      load_plan.push_back({"load", load_s / 2, true});
      load_plan.push_back({"load_untraced", load_s / 2, false});
    } else {
      load_plan.push_back({"load_untraced", load_s / 2, false});
      load_plan.push_back({"load", load_s / 2, true});
    }
  }
  const uint64_t first_segment = 1 + 64 * args.part;
  std::vector<Segment> segments =
      RunPhase(&rig, 1, solo_plan, args.seed, first_segment, args.trace);
  for (Segment& s : RunPhase(&rig, kLoadClients, load_plan, args.seed,
                             first_segment + solo_plan.size(), args.trace)) {
    segments.push_back(std::move(s));
  }
  obs::Tracer::Disable();

  bool correct = rig.prewarm_ok();
  if (!rig.prewarm_ok()) std::printf("PREWARM CHECK FAILED: %s\n", rig.prewarm_note().c_str());
  size_t attempted = 0, failed = 0;
  for (const Segment& s : segments) {
    attempted += s.samples.size();
    failed += s.samples.size() - s.ok();
  }
  const Kind kind = config->kind;
  correct = ReportPhase("solo", Select(segments, "solo"), kind) && correct;
  correct = ReportPhase("load", Select(segments, "load"), kind) && correct;
  if (args.trace) {
    correct = ReportPhase("load_untraced", Select(segments, "load_untraced"), kind) && correct;
  }
  correct = correct && failed == 0;

  const auto solo = Select(segments, "solo");
  const auto load = Select(segments, "load");
  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> solo_lat = Latencies(solo);
    std::vector<double> load_lat = Latencies(load);
    std::vector<double> rps, cpu_per_req;
    for (const Segment* s : load) {
      rps.push_back(s->rps());
      if (s->ok() > 0) cpu_per_req.push_back(s->cpu_s * 1e3 / static_cast<double>(s->ok()));
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    metrics = {
        {"setup_s", setup_s, "s"},
        {"solo.p50_ms", Percentile(solo_lat, 50) / 1e3, "ms"},
        {"solo.p90_ms", Percentile(solo_lat, 90) / 1e3, "ms"},
        {"load.rps", Median(rps), "req/s"},
        {"load.p90_ms", Percentile(load_lat, 90) / 1e3, "ms"},
        {"cpu_ms_per_req", Median(cpu_per_req), "ms"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    obs::TraceSnapshot measured = obs::Tracer::Snap();
    const uint64_t dropped = setup_trace.dropped + measured.dropped;
    TraceView view(std::move(measured.spans));
    // Mean duration per occurrence over set-up and measured spans, for the
    // operations the warm workloads perform only during set-up.
    auto per_operation = [&](const char* name) {
      double total = 0, count = 0;
      for (const auto* spans : {&setup_trace.spans, &view.spans}) {
        for (const obs::SpanRecord& r : *spans) {
          if (r.name != nullptr && std::strcmp(r.name, name) == 0) {
            total += static_cast<double>(r.end - r.start);
            count += 1;
          }
        }
      }
      return count > 0 ? total / count : 0.0;
    };
    std::unordered_map<uint32_t, size_t> per_thread;
    size_t busiest = 0;
    for (const obs::SpanRecord& r : view.spans) {
      busiest = std::max(busiest, ++per_thread[r.thread_index]);
    }
    std::printf(
        "trace: %zu set-up spans, %zu measured spans, busiest thread %zu of ring "
        "capacity %zu, %" PRIu64 " dropped\n",
        setup_trace.spans.size(), view.spans.size(), busiest, ring_capacity, dropped);
    view.Print();

    // Requests the traced segments completed, and what they carried.
    std::vector<const Segment*> traced;
    for (const Segment& s : segments) {
      if (s.traced) traced.push_back(&s);
    }
    double n = 0, flops = 0, wire = 0, model_bytes = 0, batched = 0, dispatches = 0;
    double cold_n = 0, warm_n = 0, hot_n = 0;
    for (const Segment* s : traced) {
      model_bytes += static_cast<double>(s->model_bytes);
      for (const Sample& sample : s->samples) {
        n += 1;
        flops += rig.models()[static_cast<size_t>(sample.model)].flops;
        wire += static_cast<double>(sample.wire_bytes);
        batched += sample.batch > 1 ? 1 : 0;
        dispatches += 1.0 / sample.batch;
        cold_n += sample.path == semirt::InvocationKind::kCold ? 1 : 0;
        warm_n += sample.path == semirt::InvocationKind::kWarm ? 1 : 0;
        hot_n += sample.path == semirt::InvocationKind::kHot ? 1 : 0;
      }
    }
    const double per = n > 0 ? 1.0 / n : 0.0;
    const double all_gets = static_cast<double>(rig.storage().gets());

    std::vector<int64_t> fetch_self = FetchSelfTimes(view);
    double fetch_self_total = 0, fetches = 0;
    for (int64_t v : fetch_self) {
      fetch_self_total += static_cast<double>(v);
      fetches += v >= kFetchThresholdUs ? 1 : 0;
    }
    // SeMIRT time: single requests have a semirt.request span; a batched
    // ecall has none and counts on its own.
    double semirt_total = view.DurationTotal(obs::spans::kRequest);
    std::unordered_map<uint64_t, const char*> name_of;
    for (const obs::SpanRecord& r : view.spans) name_of[r.span_id] = r.name;
    for (size_t i : view.Of(obs::spans::kEcall)) {
      auto parent = name_of.find(view.spans[i].parent_id);
      if (parent == name_of.end() ||
          std::strcmp(parent->second, obs::spans::kRequest) != 0) {
        semirt_total += static_cast<double>(view.spans[i].end - view.spans[i].start);
      }
    }
    const double inference_us = view.SelfTotal(obs::spans::kInference);

    double route_share = 0, switch_frac = 0, overflow_frac = 0;
    if (rig.router() != nullptr) {
      fnpacker::RouterStats after = rig.router()->stats();
      const double routed = after.routed - router_before.routed;
      if (routed > 0) {
        switch_frac = (after.model_switches - router_before.model_switches) / routed;
        overflow_frac = (after.overflow - router_before.overflow) / routed;
      }
      route_share = view.SelfTotal(kBenchRoute) * per;
    }
    double steal_frac = 0, home_frac = 0;
    if (rig.dataplane() != nullptr) {
      cluster::ClusterStats after = rig.dataplane()->stats();
      const double inv = static_cast<double>(after.invocations - cluster_before.invocations);
      if (inv > 0) {
        steal_frac = static_cast<double>(after.steals - cluster_before.steals) / inv;
        home_frac = static_cast<double>(after.home_hits - cluster_before.home_hits) / inv;
      }
    }
    std::vector<double> traced_rps, untraced_rps;
    for (const Segment* s : Select(segments, "load")) traced_rps.push_back(s->rps());
    for (const Segment* s : Select(segments, "load_untraced")) {
      untraced_rps.push_back(s->rps());
    }
    const double overhead =
        Median(untraced_rps) > 0 ? 1.0 - Median(traced_rps) / Median(untraced_rps) : 0.0;
    size_t cold_starts = 0;
    for (const Segment& s : segments) {
      for (const Sample& sample : s.samples) cold_starts += sample.cold ? 1 : 0;
    }
    const auto [wait_p50, wait_p99] = rig.SchedWait();

    metrics = {
        {"inference.us", inference_us * per, "us"},
        {"inference.mflop_per_req", flops * per / 1e6, "MFLOP"},
        {"inference.gflops", inference_us > 0 ? flops / (inference_us * 1e3) : 0, "GFLOP/s"},
        {"ratls.handshake_us", per_operation(obs::spans::kHandshake), "us"},
        {"crypto.decrypt_us", view.SelfTotal(obs::spans::kDecrypt) * per, "us"},
        {"crypto.encrypt_us", view.SelfTotal(obs::spans::kEncrypt) * per, "us"},
        {"crypto.gcm_bytes_per_req", (2 * wire + model_bytes) * per, "bytes"},
        {"keyservice.fetch_self_us", fetch_self_total * per, "us"},
        {"keyservice.fetches_per_req", fetches * per, "count"},
        {"model.load_us", view.SelfTotal(obs::spans::kModelLoad) * per, "us"},
        {"model.wire_bytes",
         all_gets > 0 ? static_cast<double>(rig.storage().bytes()) / all_gets : 0, "bytes"},
        {"sgx.enclave_init_us", per_operation(obs::spans::kEnclaveInit), "us"},
        {"semirt.request_us", semirt_total * per, "us"},
        {"semirt.ecall_self_us", view.SelfTotal(obs::spans::kEcall) * per, "us"},
        {"semirt.runtime_init_us", view.SelfTotal(obs::spans::kRuntimeInit) * per, "us"},
        {"semirt.cold_frac", cold_n * per, "fraction"},
        {"semirt.warm_frac", warm_n * per, "fraction"},
        {"semirt.hot_frac", hot_n * per, "fraction"},
        {"platform.submit_us", view.SelfTotal(obs::spans::kPlatformSubmit) * per, "us"},
        {"platform.dispatch_self_us", view.SelfTotal(obs::spans::kDispatch) * per, "us"},
        {"platform.warm_acquire_us", view.SelfTotal(obs::spans::kWarmAcquire) * per, "us"},
        {"platform.cold_start_us", per_operation(obs::spans::kColdStart), "us"},
        {"platform.cold_starts", static_cast<double>(cold_starts), "count"},
        {"platform.containers", static_cast<double>(rig.ContainerCount()), "count"},
        {"sched.wait_p50_us", wait_p50, "us"},
        {"sched.wait_p99_us", wait_p99, "us"},
        {"sched.avg_batch", dispatches > 0 ? n / dispatches : 0, "count"},
        {"sched.batched_frac", batched * per, "fraction"},
        {"fnpacker.route_us", route_share, "us"},
        {"fnpacker.switch_frac", switch_frac, "fraction"},
        {"fnpacker.overflow_frac", overflow_frac, "fraction"},
        {"cluster.route_us", view.SelfTotal(obs::spans::kClusterRoute) * per, "us"},
        {"cluster.steal_frac", steal_frac, "fraction"},
        {"cluster.home_frac", home_frac, "fraction"},
        {"client.open_us", view.SelfTotal(kBenchDecrypt) * per, "us"},
        {"obs.trace_overhead_frac", overhead, "fraction"},
        {"obs.dropped", static_cast<double>(dropped), "count"},
    };
    std::printf("traced requests %.0f, model bytes fetched while traced %.0f\n", n, model_bytes);
    if (dropped != 0) {
      std::printf("TRACE CHECK FAILED: %" PRIu64 " spans dropped\n", dropped);
      correct = false;
    }
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
