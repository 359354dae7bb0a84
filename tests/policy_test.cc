// Table-driven tests of the policy core (serverless/policy.h): the rules the
// live platform and the simulator share.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "serverless/policy.h"

namespace sesemi::serverless::policy {
namespace {

using semirt::InvocationKind;
using semirt::RuntimeMode;

constexpr uint64_t kMb = 1ull << 20;

TEST(PolicyTest, ContainerBytesRoundsUpToTheGranularity) {
  const struct {
    uint64_t requested, charged;
  } cases[] = {
      {1, 128 * kMb},         {128 * kMb, 128 * kMb}, {128 * kMb + 1, 256 * kMb},
      {448 * kMb, 512 * kMb}, {1024 * kMb, 1024 * kMb},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ContainerBytes(c.requested), c.charged) << c.requested;
  }
}

TEST(PolicyTest, ChooseNodePrefersTheHintThenTheMostFreeNode) {
  const uint64_t capacity = 1024 * kMb;
  const struct {
    const char* name;
    int hint;
    std::vector<uint64_t> used;
    uint64_t bytes;
    int node;
  } cases[] = {
      {"hint has room", 1, {0, 768 * kMb, 0}, 256 * kMb, 1},
      {"hint full: most free", 1, {512 * kMb, 896 * kMb, 256 * kMb}, 256 * kMb, 2},
      {"no hint: most free", -1, {512 * kMb, 0, 256 * kMb}, 256 * kMb, 1},
      {"tie: lowest index", -1, {256 * kMb, 0, 0}, 256 * kMb, 1},
      {"exact fit", -1, {768 * kMb}, 256 * kMb, 0},
      {"no room", 0, {896 * kMb, 1024 * kMb}, 256 * kMb, -1},
      {"hint out of range", 5, {0, 0}, 256 * kMb, 0},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ChooseNode(c.hint, c.used, capacity, c.bytes), c.node) << c.name;
  }
}

TEST(PolicyTest, WarmChoiceIsLifoTopWithABoundedAffinityPeek) {
  // has_model, top first, for each token on the freelist.
  const struct {
    std::vector<bool> has_model;
    int choice;
    int examined;
  } cases[] = {
      {{}, -1, 1},                         // empty: cold start
      {{true, true}, 0, 1},                // top has the model
      {{false}, 0, 2},                     // nothing better below the top
      {{false, true}, 1, 2},               // first peek
      {{false, false, true}, 2, 3},        // last peek
      {{false, false, false, true}, 0, 3}, // beyond the peek: take the top
  };
  static_assert(kAffinityPeek == 2);
  for (const auto& c : cases) {
    int examined = 0;
    const int choice = ChooseWarmToken([&](int i) -> std::optional<bool> {
      EXPECT_EQ(i, examined);
      ++examined;
      if (static_cast<size_t>(i) >= c.has_model.size()) return std::nullopt;
      return c.has_model[static_cast<size_t>(i)];
    });
    EXPECT_EQ(choice, c.choice) << "tokens " << c.has_model.size();
    EXPECT_EQ(examined, c.examined) << "tokens " << c.has_model.size();
  }
}

TEST(PolicyTest, AnArrivalJoinsTheOldestLaunchWithASpareToken) {
  const struct {
    std::vector<int> unclaimed;
    int join;
  } cases[] = {
      {{}, -1},        // nothing launching: cold start
      {{0}, -1},       // every spare token claimed (or num_tcs 1)
      {{3}, 0},        // a launch with spare tokens
      {{0, 0, 2}, 2},  // the oldest launch with a spare token
      {{1, 3}, 0},     // the oldest, not the one with the most
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ChooseLaunchToJoin(c.unclaimed), c.join) << c.unclaimed.size();
  }
}

semirt::SemirtOptions Options(RuntimeMode mode, bool sequential = false,
                              bool disable_key_cache = false, bool reuse_model = true) {
  semirt::SemirtOptions options;
  options.mode = mode;
  options.sequential_mode = sequential;
  options.disable_key_cache = disable_key_cache;
  options.reuse_model = reuse_model;
  return options;
}

TEST(PolicyTest, StageReuseByMode) {
  const std::string key = KeyId("m0", "u0");
  EXPECT_EQ(key, "m0|u0");
  const struct {
    const char* name;
    semirt::SemirtOptions options;
    bool keys, model, runtime;
  } cases[] = {
      {"sesemi", Options(RuntimeMode::kSesemi), true, true, true},
      {"sequential", Options(RuntimeMode::kSesemi, true, true), false, true, false},
      // Keys follow the key cache alone: in sequential mode the per-request
      // scrub empties the cache, so there is nothing left to reuse.
      {"sequential, key cache on", Options(RuntimeMode::kSesemi, true), true, true,
       false},
      {"no key cache", Options(RuntimeMode::kSesemi, false, true), false, true, true},
      {"iso-reuse", Options(RuntimeMode::kIsoReuse), true, false, false},
      {"native", Options(RuntimeMode::kNative), true, false, false},
      {"untrusted reuse", Options(RuntimeMode::kUntrusted), true, true, true},
      {"untrusted no reuse", Options(RuntimeMode::kUntrusted, false, false, false),
       true, false, false},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(ReusesKeys(c.options, key, key), c.keys) << c.name;
    EXPECT_EQ(ReusesModel(c.options, "m0", "m0"), c.model) << c.name;
    EXPECT_EQ(ReusesRuntime(c.options, "m0", "m0"), c.runtime) << c.name;
    // Nothing is reused for another model or user, or from an empty cache.
    EXPECT_FALSE(ReusesKeys(c.options, KeyId("m0", "u1"), key)) << c.name;
    EXPECT_FALSE(ReusesKeys(c.options, "", key)) << c.name;
    EXPECT_FALSE(ReusesModel(c.options, "m1", "m0")) << c.name;
    EXPECT_FALSE(ReusesModel(c.options, "", "m0")) << c.name;
    EXPECT_FALSE(ReusesRuntime(c.options, "m1", "m0")) << c.name;
    EXPECT_FALSE(ReusesRuntime(c.options, "", "m0")) << c.name;
  }
}

TEST(PolicyTest, InvocationKindByMode) {
  EXPECT_EQ(Classify(/*fresh=*/true, /*state_loaded=*/true), InvocationKind::kCold);
  EXPECT_EQ(Classify(true, false), InvocationKind::kCold);
  EXPECT_EQ(Classify(false, true), InvocationKind::kWarm);
  EXPECT_EQ(Classify(false, false), InvocationKind::kHot);

  // Only Native relaunches, and only an enclave that has served a request;
  // the relaunched enclave is fresh again, so every Native request is cold.
  for (RuntimeMode mode : {RuntimeMode::kSesemi, RuntimeMode::kIsoReuse,
                           RuntimeMode::kNative, RuntimeMode::kUntrusted}) {
    const semirt::SemirtOptions options = Options(mode);
    EXPECT_FALSE(RelaunchesEnclave(options, /*fresh=*/true)) << ToString(mode);
    EXPECT_EQ(RelaunchesEnclave(options, /*fresh=*/false),
              mode == RuntimeMode::kNative)
        << ToString(mode);
  }
}

TEST(PolicyTest, KeepAliveExpiresExactlyAtTheWindow) {
  const TimeMicros keep_alive = SecondsToMicros(180);
  const TimeMicros last_used = SecondsToMicros(7);
  EXPECT_FALSE(KeepAliveExpired(last_used, last_used, keep_alive));
  EXPECT_FALSE(KeepAliveExpired(last_used + keep_alive - 1, last_used, keep_alive));
  EXPECT_TRUE(KeepAliveExpired(last_used + keep_alive, last_used, keep_alive));
  EXPECT_TRUE(KeepAliveExpired(last_used + keep_alive + 1, last_used, keep_alive));
  // keep_alive 0 (the perfbench cold workload): idle means expired.
  EXPECT_TRUE(KeepAliveExpired(last_used, last_used, 0));
}

}  // namespace
}  // namespace sesemi::serverless::policy
