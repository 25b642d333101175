// Self-test for the vendored test framework (tests/gtest/gtest.h). The
// framework is the foundation every other suite stands on, so its own
// semantics are pinned here: comparison helpers, the 4-ULP double
// comparison, generator materialization order, first-class skip state,
// and the fork-based death-test machinery (exercised from both sides).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

namespace {

using ::testing::internal::AlmostEqualDoubles;
using ::testing::internal::CmpHelperEQ;
using ::testing::internal::CmpHelperLE;
using ::testing::internal::CmpHelperNear;
using ::testing::internal::RunDeathTest;

TEST(FrameworkSelfTest, CmpHelpersReturnEmptyOnSuccess) {
  EXPECT_TRUE(CmpHelperEQ("a", "b", 3, 3).empty());
  EXPECT_TRUE(CmpHelperLE("a", "b", 2, 3).empty());
  EXPECT_TRUE(CmpHelperNear("a", "b", "tol", 1.0, 1.05, 0.1).empty());
}

TEST(FrameworkSelfTest, CmpHelpersDescribeFailures) {
  const std::string msg = CmpHelperEQ("lhs_expr", "rhs_expr", 3, 4);
  EXPECT_NE(msg.find("lhs_expr"), std::string::npos);
  EXPECT_NE(msg.find("rhs_expr"), std::string::npos);
  EXPECT_NE(msg.find("3"), std::string::npos);
  EXPECT_NE(msg.find("4"), std::string::npos);
  EXPECT_FALSE(CmpHelperNear("a", "b", "tol", 1.0, 2.0, 0.5).empty());
}

TEST(FrameworkSelfTest, DoubleEqIsUlpBasedNotExact) {
  const double one_third = 1.0 / 3.0;
  // Accumulating 1/3 three times lands within a few ULPs of 1, not at 1.
  EXPECT_TRUE(AlmostEqualDoubles(one_third * 3.0,
                                 one_third + one_third + one_third));
  EXPECT_TRUE(AlmostEqualDoubles(0.0, -0.0));
  EXPECT_FALSE(AlmostEqualDoubles(1.0, 1.0 + 1e-9));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(AlmostEqualDoubles(nan, nan));
  EXPECT_FALSE(AlmostEqualDoubles(1.0, -1.0));
}

TEST(FrameworkSelfTest, ThrowHelpersClassifyOutcomes) {
  using ::testing::internal::NoThrowTestFailure;
  using ::testing::internal::ThrowTestFailure;
  const auto throws_runtime = [] { throw std::runtime_error("x"); };
  const auto throws_int = [] { throw 42; };
  const auto benign = [] {};
  EXPECT_TRUE(
      ThrowTestFailure<std::runtime_error>(throws_runtime, "s", "t").empty());
  EXPECT_NE(ThrowTestFailure<std::runtime_error>(benign, "s", "t")
                .find("throws nothing"),
            std::string::npos);
  EXPECT_NE(ThrowTestFailure<std::runtime_error>(throws_int, "s", "t")
                .find("different exception type"),
            std::string::npos);
  EXPECT_TRUE(NoThrowTestFailure(benign, "s").empty());
  EXPECT_FALSE(NoThrowTestFailure(throws_runtime, "s").empty());
  // The macro spellings over the same helpers.
  EXPECT_THROW(throw std::runtime_error("x"), std::runtime_error);
  EXPECT_NO_THROW((void)0);
}

TEST(FrameworkSelfTest, ValuesMaterializesInOrder) {
  const auto gen = ::testing::Values(5, 1, 3);
  const std::vector<int> expected = {5, 1, 3};
  EXPECT_EQ(gen.Materialize(), expected);
}

TEST(FrameworkSelfTest, CombineIsCartesianLastAxisFastest) {
  const auto gen = ::testing::Combine(::testing::Values(std::string("a"),
                                                        std::string("b")),
                                      ::testing::Values(1, 2, 3));
  const auto tuples = gen.Materialize();
  ASSERT_EQ(tuples.size(), 6u);
  // GoogleTest order: the last generator varies fastest.
  EXPECT_EQ(std::get<0>(tuples[0]), "a");
  EXPECT_EQ(std::get<1>(tuples[0]), 1);
  EXPECT_EQ(std::get<1>(tuples[1]), 2);
  EXPECT_EQ(std::get<0>(tuples[3]), "b");
  EXPECT_EQ(std::get<1>(tuples[5]), 3);
}

TEST(FrameworkSelfTest, DeathTestDetectsAbort) {
  std::string why;
  EXPECT_TRUE(RunDeathTest(
      [] {
        std::fprintf(stderr, "fatal: invariant violated\n");
        std::abort();
      },
      "invariant", &why))
      << why;
}

TEST(FrameworkSelfTest, DeathTestRejectsSurvivingStatement) {
  std::string why;
  EXPECT_FALSE(RunDeathTest([] { /* lives */ }, ".*", &why));
  EXPECT_NE(why.find("without dying"), std::string::npos);
}

TEST(FrameworkSelfTest, DeathTestRejectsWrongMessage) {
  std::string why;
  EXPECT_FALSE(RunDeathTest(
      [] {
        std::fprintf(stderr, "some other complaint\n");
        std::abort();
      },
      "the expected pattern", &why));
  EXPECT_NE(why.find("did not match"), std::string::npos);
}

// Death-test patterns are plain substrings: "a+b" matches the literal
// text "a+b" and not "aab", which the regular expression would.
TEST(FrameworkSelfTest, DeathTestPatternIsALiteralSubstring) {
  std::string why;
  EXPECT_TRUE(RunDeathTest(
      [] {
        std::fprintf(stderr, "sum a+b overflowed\n");
        std::abort();
      },
      "a+b", &why))
      << why;
  EXPECT_FALSE(RunDeathTest(
      [] {
        std::fprintf(stderr, "aab\n");
        std::abort();
      },
      "a+b", &why));
  EXPECT_NE(why.find("did not match"), std::string::npos);
}

// A failing assertion inside a forked child makes the child's runner exit
// non-zero — which is exactly what a death test can observe. This closes
// the loop: the framework's failure path is itself verified to be fatal
// at the process level, so CTest can trust exit codes.
TEST(FrameworkSelfTest, FailedExpectationIsRecordedAndReported) {
  EXPECT_DEATH(
      {
        EXPECT_EQ(1, 2) << "deliberate mismatch";
        std::exit(::testing::internal::CurrentTest::Get().result ==
                          ::testing::internal::TestResult::kFailed
                      ? 7
                      : 0);
      },
      "deliberate mismatch");
}

TEST(FrameworkSelfTest, SkipShortCircuitsTheBody) {
  GTEST_SKIP() << "skip is a first-class result, not a failure";
  ADD_FAILURE() << "unreachable: GTEST_SKIP must return";
}

class FixtureSelfTest : public ::testing::Test {
 protected:
  void SetUp() override { setup_ran_ = true; }
  bool setup_ran_ = false;
};

TEST_F(FixtureSelfTest, SetUpRunsBeforeBody) { EXPECT_TRUE(setup_ran_); }

class ParamSelfTest : public ::testing::TestWithParam<int> {};

TEST_P(ParamSelfTest, ReceivesEachValue) {
  EXPECT_GE(GetParam(), 10);
  EXPECT_LE(GetParam(), 30);
}

INSTANTIATE_TEST_SUITE_P(Range, ParamSelfTest,
                         ::testing::Values(10, 20, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "v" + std::to_string(info.param);
                         });

TEST(FrameworkSelfTest, ParamSuiteInstantiationIsTracked) {
  const auto& suites = ::testing::internal::ParamSuiteInstantiated();
  const auto it = suites.find("ParamSelfTest");
  ASSERT_NE(it, suites.end());
  EXPECT_TRUE(it->second) << "INSTANTIATE_TEST_SUITE_P did not mark suite";
}

// Regression: INSTANTIATE_TEST_SUITE_P naming a suite with no TEST_P used
// to register zero tests silently; it must now enqueue a failing test.
TEST(FrameworkSelfTest, InstantiatingUnknownSuiteRegistersAFailure) {
  auto& registry = ::testing::internal::Registry();
  const std::size_t before = registry.size();
  ::testing::internal::ParamRegistry<int>::Instance().Instantiate(
      "Typo", "NoSuchSuite", {1, 2}, nullptr);
  ASSERT_EQ(registry.size(), before + 1);
  EXPECT_EQ(registry.back().suite, "Typo/NoSuchSuite");
  EXPECT_EQ(registry.back().name, "NoMatchingTestP");
  // Drop the synthetic failure so this (passing) binary stays green.
  registry.pop_back();
}

TEST(FrameworkSelfTest, FilterSpecMatchesLikeGoogleTest) {
  using ::testing::internal::MatchesFilterSpec;
  EXPECT_TRUE(MatchesFilterSpec("Suite.Name", "*"));
  EXPECT_TRUE(MatchesFilterSpec("Suite.Name", "Suite.*"));
  EXPECT_TRUE(MatchesFilterSpec("Suite.Name", "Suite.Name"));
  EXPECT_FALSE(MatchesFilterSpec("Suite.Name", "Other.*"));
  EXPECT_TRUE(MatchesFilterSpec("Suite.Name", "Other.*:Suite.*"));
  EXPECT_FALSE(MatchesFilterSpec("Suite.Name", "*-Suite.Name"));
  EXPECT_TRUE(MatchesFilterSpec("Suite.Other", "*-Suite.Name"));
  EXPECT_TRUE(MatchesFilterSpec("Suite.Name", "-Other.*"));
}

// Regression: TearDown must run even when the body throws, so fixtures
// can rely on cleanup. The probe runs in a forked child that aborts (with
// a marker on stderr) only if TearDown executed.
class ThrowingBodyFixture : public ::testing::Test {
 public:
  void TestBody() override { throw std::runtime_error("boom"); }

 protected:
  void TearDown() override {
    std::fprintf(stderr, "teardown-did-run\n");
  }
};

TEST(FrameworkSelfTest, TearDownRunsWhenBodyThrows) {
  EXPECT_DEATH(
      {
        ::testing::internal::RunOneTest<ThrowingBodyFixture>();
        std::abort();  // death expected; stderr must carry the marker
      },
      "teardown-did-run");
}

TEST(FrameworkSelfTest, TempDirIsUsable) {
  const std::string dir = ::testing::TempDir();
  ASSERT_FALSE(dir.empty());
  const std::string path = dir + "/geer_framework_selftest.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("ok", f);
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
