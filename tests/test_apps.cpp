// Correctness tests for the Table-2 benchmark kernels: every app must
// produce a verifiably correct result from both its serial reference and
// its parallel implementation, under multiple scheduling modes.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>

#include "apps/app.hpp"
#include "runtime/scheduler.hpp"

namespace dws::apps {
namespace {

Config test_config(SchedMode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = 4;
  cfg.num_programs = 1;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 2.0;
  return cfg;
}

void serial_reference_is_correct(const std::string& name) {
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  app->run_serial();
  EXPECT_EQ(app->verify(), "") << name << " (serial)";
}

void parallel_matches_reference(const std::string& name, SchedMode mode) {
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  rt::Scheduler sched(test_config(mode));
  app->run(sched);
  EXPECT_EQ(app->verify(), "") << name << " under " << to_string(mode);
}

void repeated_runs_stay_correct(const std::string& name, SchedMode mode) {
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  rt::Scheduler sched(test_config(mode));
  for (int round = 0; round < 3; ++round) {
    app->run(sched);
    ASSERT_EQ(app->verify(), "") << name << " round " << round;
  }
}

class AppCorrectness : public ::testing::Test {
 public:
  explicit AppCorrectness(std::function<void()> body)
      : body_(std::move(body)) {}
  void TestBody() override { body_(); }

 private:
  std::function<void()> body_;
};

// Every app under every mode runs in parallel; the serial reference (which
// does not depend on the mode) and the repeat check (DWS only, for time)
// exist just once per app. A parameterized suite would instantiate all
// three tests for every mode, so the grid is registered by hand under the
// names and parameter strings INSTANTIATE_TEST_SUITE_P would give it.
[[maybe_unused]] const bool kAppGridRegistered = [] {
  for (const char* name : kAppNames) {
    for (SchedMode mode : {SchedMode::kAbp, SchedMode::kEp, SchedMode::kDws}) {
      const std::string param = ::testing::PrintToString(
          std::tuple<std::string, SchedMode>(name, mode));
      const std::string suffix =
          std::string("/") + name + "_" + to_string(mode);
      auto add = [&](const char* test, std::function<void()> body) {
        ::testing::RegisterTest(
            "AllAppsTimesModes/AppCorrectness", (test + suffix).c_str(),
            nullptr, param.c_str(), __FILE__, __LINE__,
            [body]() -> ::testing::Test* { return new AppCorrectness(body); });
      };
      add("ParallelMatchesReference",
          [name, mode] { parallel_matches_reference(name, mode); });
      if (mode != SchedMode::kDws) continue;
      add("SerialReferenceIsCorrect",
          [name] { serial_reference_is_correct(name); });
      add("RepeatedRunsStayCorrect",
          [name, mode] { repeated_runs_stay_correct(name, mode); });
    }
  }
  return true;
}();

TEST(AppRegistry, KnowsAllEightAndRejectsUnknown) {
  for (const char* name : kAppNames) {
    EXPECT_NE(make_app(name, Scale::kTiny), nullptr) << name;
  }
  EXPECT_EQ(make_app("NotAnApp", Scale::kTiny), nullptr);
  const auto all = make_all_apps(Scale::kTiny);
  ASSERT_EQ(all.size(), kNumApps);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_STREQ(all[i]->name(), kAppNames[i]);
  }
}

TEST(AppRegistry, ScalesProduceDifferentProblemSizes) {
  // Indirect check: larger scales take longer serially. Compare via a
  // structural proxy (tiny must verify fast; we just ensure construction
  // succeeds at every scale).
  for (Scale scale : {Scale::kTiny, Scale::kSmall}) {
    for (const char* name : kAppNames) {
      EXPECT_NE(make_app(name, scale), nullptr)
          << name << " scale " << static_cast<int>(scale);
    }
  }
}

TEST(AppDeterminism, SameSeedSameResult) {
  auto a = make_app("Mergesort", Scale::kTiny, 7);
  auto b = make_app("Mergesort", Scale::kTiny, 7);
  a->run_serial();
  b->run_serial();
  EXPECT_EQ(a->verify(), "");
  EXPECT_EQ(b->verify(), "");
}

}  // namespace
}  // namespace dws::apps
