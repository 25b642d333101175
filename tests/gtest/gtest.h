// Vendored single-header test framework, API-compatible with the subset
// of GoogleTest this repository uses. Exists so `cmake && ctest` works
// offline — no FetchContent, no system gtest dependency.
//
// Supported surface:
//   TEST / TEST_F / TEST_P, ::testing::Test, ::testing::TestWithParam<T>
//   INSTANTIATE_TEST_SUITE_P with ::testing::Values / ::testing::Combine
//   and an optional name-generator taking ::testing::TestParamInfo<T>
//   EXPECT_/ASSERT_ {EQ, NE, LT, LE, GT, GE, TRUE, FALSE, NEAR, DOUBLE_EQ}
//   EXPECT_DEATH (fork-based; the pattern is a plain substring of the
//   child's output, not a regular expression)
//   GTEST_SKIP, ::testing::TempDir, streamed failure messages
//
// Each test binary is a single translation unit, so the header defines
// main() directly; do not include it from more than one TU per binary.

#ifndef GEER_TESTS_GTEST_GTEST_H_
#define GEER_TESTS_GTEST_GTEST_H_

#include <fnmatch.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace testing {

// ---------------------------------------------------------------------------
// Messages and failure reporting
// ---------------------------------------------------------------------------

/// Stream-collecting message payload appended to a failing assertion via
/// `EXPECT_x(...) << "context"`.
class Message {
 public:
  Message() = default;
  Message(const Message& other) { ss_ << other.str(); }

  template <typename T>
  Message& operator<<(const T& value) {
    ss_ << value;
    return *this;
  }

  Message& operator<<(bool b) {
    ss_ << (b ? "true" : "false");
    return *this;
  }

  std::string str() const { return ss_.str(); }

 private:
  std::ostringstream ss_;
};

namespace internal {

enum class TestResult { kPassed, kFailed, kSkipped };

/// Mutable state of the test currently being run.
struct CurrentTest {
  TestResult result = TestResult::kPassed;
  static CurrentTest& Get() {
    static CurrentTest current;
    return current;
  }
};

inline void RecordFailure(const char* file, int line, const std::string& what,
                          const std::string& user_message) {
  CurrentTest::Get().result = TestResult::kFailed;
  std::fprintf(stderr, "%s:%d: Failure\n%s%s%s\n", file, line, what.c_str(),
               user_message.empty() ? "" : "\n", user_message.c_str());
}

inline void RecordSkip(const std::string& user_message) {
  if (CurrentTest::Get().result == TestResult::kPassed) {
    CurrentTest::Get().result = TestResult::kSkipped;
  }
  if (!user_message.empty()) {
    std::fprintf(stderr, "Skipped: %s\n", user_message.c_str());
  }
}

enum class AssertKind { kFailure, kSkip };

/// Terminal object of every assertion macro: `AssertHelper(...) = Message()`
/// lets the macro accept `<< extra` payloads while still being usable after
/// `return` (operator= returns void).
class AssertHelper {
 public:
  AssertHelper(const char* file, int line, std::string what,
               AssertKind kind = AssertKind::kFailure)
      : file_(file), line_(line), what_(std::move(what)), kind_(kind) {}

  void operator=(const Message& message) const {
    if (kind_ == AssertKind::kSkip) {
      RecordSkip(message.str());
    } else {
      RecordFailure(file_, line_, what_, message.str());
    }
  }

 private:
  const char* file_;
  int line_;
  std::string what_;
  AssertKind kind_;
};

// ---------------------------------------------------------------------------
// Value printing (streamable types print; everything else gets a stub)
// ---------------------------------------------------------------------------

template <typename T, typename = void>
struct IsStreamable : std::false_type {};
template <typename T>
struct IsStreamable<T, std::void_t<decltype(std::declval<std::ostream&>()
                                            << std::declval<const T&>())>>
    : std::true_type {};

template <typename T>
std::string PrintValue(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return value ? "true" : "false";
  } else if constexpr (std::is_same_v<T, std::nullptr_t>) {
    return "(null)";
  } else if constexpr (IsStreamable<T>::value) {
    std::ostringstream ss;
    ss << value;
    return ss.str();
  } else {
    return "(" + std::to_string(sizeof(T)) + "-byte object)";
  }
}

// ---------------------------------------------------------------------------
// Comparison helpers. Each returns "" on success or a failure description.
// ---------------------------------------------------------------------------

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-compare"

template <typename T1, typename T2>
std::string FormatCmpFailure(const char* e1, const char* e2, const T1& v1,
                             const T2& v2, const char* op) {
  return std::string("Expected: (") + e1 + ") " + op + " (" + e2 +
         "), actual: " + PrintValue(v1) + " vs " + PrintValue(v2);
}

template <typename T1, typename T2>
std::string CmpHelperEQ(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 == v2) return {};
  return std::string("Expected equality of these values:\n  ") + e1 +
         "\n    Which is: " + PrintValue(v1) + "\n  " + e2 +
         "\n    Which is: " + PrintValue(v2);
}

template <typename T1, typename T2>
std::string CmpHelperNE(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 != v2) return {};
  return FormatCmpFailure(e1, e2, v1, v2, "!=");
}

template <typename T1, typename T2>
std::string CmpHelperLT(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 < v2) return {};
  return FormatCmpFailure(e1, e2, v1, v2, "<");
}

template <typename T1, typename T2>
std::string CmpHelperLE(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 <= v2) return {};
  return FormatCmpFailure(e1, e2, v1, v2, "<=");
}

template <typename T1, typename T2>
std::string CmpHelperGT(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 > v2) return {};
  return FormatCmpFailure(e1, e2, v1, v2, ">");
}

template <typename T1, typename T2>
std::string CmpHelperGE(const char* e1, const char* e2, const T1& v1,
                        const T2& v2) {
  if (v1 >= v2) return {};
  return FormatCmpFailure(e1, e2, v1, v2, ">=");
}

#pragma GCC diagnostic pop

inline std::string CmpHelperNear(const char* e1, const char* e2,
                                 const char* eabs, double v1, double v2,
                                 double abs_error) {
  const double diff = v1 >= v2 ? v1 - v2 : v2 - v1;
  if (diff <= abs_error) return {};
  std::ostringstream ss;
  ss << "The difference between " << e1 << " and " << e2 << " is " << diff
     << ", which exceeds " << eabs << ", where\n"
     << e1 << " evaluates to " << v1 << ",\n"
     << e2 << " evaluates to " << v2 << ", and\n"
     << eabs << " evaluates to " << abs_error << ".";
  return ss.str();
}

/// 4-ULP double comparison, matching GoogleTest's EXPECT_DOUBLE_EQ.
inline bool AlmostEqualDoubles(double a, double b) {
  if (a == b) return true;  // handles +0 == -0 and exact matches
  if (a != a || b != b) return false;  // NaNs compare unequal
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  // Map the sign-magnitude representation onto an unsigned biased scale so
  // the ULP distance is a plain subtraction.
  const std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::uint64_t ba = (ua & kSign) ? ~ua + 1 : kSign | ua;
  const std::uint64_t bb = (ub & kSign) ? ~ub + 1 : kSign | ub;
  const std::uint64_t dist = ba >= bb ? ba - bb : bb - ba;
  return dist <= 4;
}

inline std::string CmpHelperDoubleEQ(const char* e1, const char* e2, double v1,
                                     double v2) {
  if (AlmostEqualDoubles(v1, v2)) return {};
  std::ostringstream ss;
  ss.precision(17);
  ss << "Expected equality of these values:\n  " << e1
     << "\n    Which is: " << v1 << "\n  " << e2 << "\n    Which is: " << v2;
  return ss.str();
}

inline std::string BoolFailure(const char* expr, bool expected) {
  return std::string("Value of: ") + expr + "\n  Actual: " +
         (expected ? "false" : "true") + "\nExpected: " +
         (expected ? "true" : "false");
}

// ---------------------------------------------------------------------------
// Test registry
// ---------------------------------------------------------------------------

class TestFactoryBase;

struct TestInfo {
  std::string suite;
  std::string name;
  std::function<void()> run;  // constructs the fixture and runs the body
};

inline std::vector<TestInfo>& Registry() {
  static std::vector<TestInfo> tests;
  return tests;
}

template <typename TestClass>
void RunOneTest() {
  TestClass test;
  // Catch here (not only in the runner) so TearDown always executes even
  // when SetUp or the body throws — fixtures may hold scratch files or
  // global state that later tests in the binary would otherwise inherit.
  try {
    test.DoSetUp();
    if (CurrentTest::Get().result == TestResult::kPassed) {
      test.TestBody();
    }
  } catch (const std::exception& e) {
    RecordFailure("<unknown>", 0,
                  std::string("uncaught exception: ") + e.what(), "");
  } catch (...) {
    RecordFailure("<unknown>", 0, "uncaught non-std exception", "");
  }
  try {
    test.DoTearDown();
  } catch (const std::exception& e) {
    RecordFailure("<unknown>", 0,
                  std::string("TearDown threw: ") + e.what(), "");
  } catch (...) {
    RecordFailure("<unknown>", 0, "TearDown threw a non-std exception", "");
  }
}

template <typename TestClass>
bool RegisterTest(const char* suite, const char* name) {
  Registry().push_back({suite, name, [] { RunOneTest<TestClass>(); }});
  return true;
}

// ---------------------------------------------------------------------------
// Death tests
// ---------------------------------------------------------------------------

/// Runs `body` in a forked child with stderr (and stdout) captured.
/// Returns true iff the child terminated abnormally — by signal or with a
/// non-zero exit status — and the captured output contains `pattern`.
/// The pattern is matched literally, as a substring: unlike GoogleTest,
/// regex metacharacters have no special meaning. On mismatch a
/// description is written to `*why`.
inline bool RunDeathTest(const std::function<void()>& body,
                         const char* pattern, std::string* why) {
  int fds[2];
  if (pipe(fds) != 0) {
    *why = "pipe() failed";
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    *why = "fork() failed";
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // Child: route diagnostics into the pipe, run the statement, and exit 0
    // as the "survived" sentinel.
    close(fds[0]);
    dup2(fds[1], 1);
    dup2(fds[1], 2);
    close(fds[1]);
    body();
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  std::string output;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) output.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);

  const bool died =
      WIFSIGNALED(status) || (WIFEXITED(status) && WEXITSTATUS(status) != 0);
  if (!died) {
    *why = "statement completed without dying";
    return false;
  }
  if (output.find(pattern) == std::string::npos) {
    *why = "death output did not match \"" + std::string(pattern) +
           "\" (a substring); output was:\n" + output;
    return false;
  }
  return true;
}

/// "" when `body` died with output matching `pattern`; a description of
/// what went wrong otherwise (the EXPECT_DEATH failure message).
inline std::string DeathTestFailure(const std::function<void()>& body,
                                    const char* pattern,
                                    const char* statement_text) {
  std::string why;
  if (RunDeathTest(body, pattern, &why)) return {};
  return std::string("Death test failed (") + statement_text + "): " + why;
}

/// "" when `body` throws ExpectedException; the EXPECT_THROW failure
/// message otherwise.
template <typename ExpectedException, typename Fn>
std::string ThrowTestFailure(Fn&& body, const char* statement_text,
                             const char* type_text) {
  try {
    body();
  } catch (const ExpectedException&) {
    return {};
  } catch (...) {
    return std::string("Expected: ") + statement_text + " throws " +
           type_text + "\n  Actual: it throws a different exception type";
  }
  return std::string("Expected: ") + statement_text + " throws " +
         type_text + "\n  Actual: it throws nothing";
}

/// "" when `body` does not throw; the EXPECT_NO_THROW failure message
/// otherwise.
template <typename Fn>
std::string NoThrowTestFailure(Fn&& body, const char* statement_text) {
  try {
    body();
  } catch (...) {
    return std::string("Expected: ") + statement_text +
           " throws nothing\n  Actual: it throws";
  }
  return {};
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

class Test {
 public:
  virtual ~Test() = default;
  virtual void TestBody() = 0;

  // Indirection so RunOneTest can invoke the protected hooks.
  void DoSetUp() { SetUp(); }
  void DoTearDown() { TearDown(); }

 protected:
  virtual void SetUp() {}
  virtual void TearDown() {}
};

/// Directory for scratch files; mirrors GoogleTest's Linux behavior.
inline std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  return (env != nullptr && *env != '\0') ? std::string(env) : "/tmp";
}

// ---------------------------------------------------------------------------
// Parameterized tests
// ---------------------------------------------------------------------------

template <typename T>
struct TestParamInfo {
  TestParamInfo(const T& p, std::size_t i) : param(p), index(i) {}
  T param;
  std::size_t index;
};

template <typename T>
class WithParamInterface {
 public:
  using ParamType = T;
  static const T& GetParam() { return *current_param_; }
  static void SetCurrentParam(const T* p) { current_param_ = p; }

 private:
  static inline const T* current_param_ = nullptr;
};

template <typename T>
class TestWithParam : public Test, public WithParamInterface<T> {};

// Generators -----------------------------------------------------------------

template <typename T>
struct ValueGenerator {
  using value_type = T;
  std::vector<T> values;
  std::vector<T> Materialize() const { return values; }
};

template <typename... Ts>
auto Values(Ts&&... vs) {
  using T = std::common_type_t<std::decay_t<Ts>...>;
  return ValueGenerator<T>{{static_cast<T>(std::forward<Ts>(vs))...}};
}

template <typename... Gens>
struct CombineGenerator {
  using value_type = std::tuple<typename Gens::value_type...>;
  std::tuple<Gens...> generators;

  std::vector<value_type> Materialize() const {
    const auto lists = std::apply(
        [](const Gens&... g) { return std::make_tuple(g.Materialize()...); },
        generators);
    std::vector<value_type> out;
    std::size_t total = 1;
    std::apply([&](const auto&... l) { ((total *= l.size()), ...); }, lists);
    for (std::size_t i = 0; i < total; ++i) {
      out.push_back(BuildTuple(lists, i, std::index_sequence_for<Gens...>{}));
    }
    return out;
  }

 private:
  // Mixed-radix decode of flat index `i`, last generator varying fastest
  // (GoogleTest's ordering).
  template <typename Lists, std::size_t... Is>
  static value_type BuildTuple(const Lists& lists, std::size_t i,
                               std::index_sequence<Is...>) {
    constexpr std::size_t n = sizeof...(Is);
    std::size_t radix[n] = {std::get<Is>(lists).size()...};
    std::size_t idx[n];
    for (std::size_t k = n; k-- > 0;) {
      idx[k] = i % radix[k];
      i /= radix[k];
    }
    return value_type{std::get<Is>(lists)[idx[Is]]...};
  }
};

template <typename... Gens>
CombineGenerator<Gens...> Combine(Gens... gens) {
  return CombineGenerator<Gens...>{std::make_tuple(std::move(gens)...)};
}

namespace internal {

/// Tracks every TEST_P suite name and whether an INSTANTIATE_TEST_SUITE_P
/// reached it, so the runner can fail loudly instead of silently running
/// zero tests (mirrors GoogleTest's uninstantiated-suite error).
inline std::map<std::string, bool>& ParamSuiteInstantiated() {
  static std::map<std::string, bool> suites;
  return suites;
}

/// Per-ParamType registry tying TEST_P definitions to their
/// INSTANTIATE_TEST_SUITE_P expansions (same translation unit, so
/// definition always precedes instantiation in static-init order).
template <typename T>
class ParamRegistry {
 public:
  struct ParamTest {
    std::string name;
    std::function<void(const T&)> run;
  };

  static ParamRegistry& Instance() {
    static ParamRegistry registry;
    return registry;
  }

  bool AddTest(const char* suite, const char* name,
               std::function<void(const T&)> run) {
    suites_[suite].push_back({name, std::move(run)});
    ParamSuiteInstantiated().emplace(suite, false);
    return true;
  }

  bool Instantiate(const char* prefix, const char* suite,
                   std::vector<T> values,
                   std::function<std::string(const TestParamInfo<T>&)> namer) {
    // The registry owns the values so the pointers handed to fixtures stay
    // valid for the lifetime of the test binary (and LeakSanitizer stays
    // quiet).
    storage_.push_back(
        std::make_unique<std::vector<T>>(std::move(values)));
    std::vector<T>* stored = storage_.back().get();
    ParamSuiteInstantiated()[suite] = true;
    const auto& tests = suites_[suite];
    if (tests.empty()) {
      // Typo'd suite name, or INSTANTIATE placed above every TEST_P:
      // fail loudly instead of silently registering zero tests.
      const std::string full_suite = std::string(prefix) + "/" + suite;
      Registry().push_back(
          {full_suite, "NoMatchingTestP", [full_suite] {
             RecordFailure("<INSTANTIATE_TEST_SUITE_P>", 0,
                           "no TEST_P found for suite " + full_suite, "");
           }});
    }
    for (std::size_t i = 0; i < stored->size(); ++i) {
      std::string label =
          namer ? namer(TestParamInfo<T>((*stored)[i], i)) : std::to_string(i);
      for (const auto& test : tests) {
        const T* param = &(*stored)[i];
        auto run = test.run;
        Registry().push_back({std::string(prefix) + "/" + suite,
                              test.name + "/" + label,
                              [run, param] { run(*param); }});
      }
    }
    return true;
  }

 private:
  std::map<std::string, std::vector<ParamTest>> suites_;
  std::vector<std::unique_ptr<std::vector<T>>> storage_;
};

template <typename TestClass>
void RunOneParamTest(const typename TestClass::ParamType& param) {
  TestClass::SetCurrentParam(&param);
  RunOneTest<TestClass>();
  TestClass::SetCurrentParam(nullptr);
}

// InstantiateHelper overloads let INSTANTIATE_TEST_SUITE_P accept an
// optional name generator as its trailing argument.
template <typename Suite, typename Gen>
bool InstantiateHelper(const char* prefix, const char* suite, Gen gen) {
  using T = typename Suite::ParamType;
  auto raw = gen.Materialize();
  std::vector<T> values(raw.begin(), raw.end());
  return ParamRegistry<T>::Instance().Instantiate(prefix, suite,
                                                  std::move(values), nullptr);
}

template <typename Suite, typename Gen, typename Namer>
bool InstantiateHelper(const char* prefix, const char* suite, Gen gen,
                       Namer namer) {
  using T = typename Suite::ParamType;
  auto raw = gen.Materialize();
  std::vector<T> values(raw.begin(), raw.end());
  std::function<std::string(const TestParamInfo<T>&)> fn = namer;
  return ParamRegistry<T>::Instance().Instantiate(prefix, suite,
                                                  std::move(values), fn);
}

}  // namespace internal
}  // namespace testing

// ---------------------------------------------------------------------------
// Test definition macros
// ---------------------------------------------------------------------------

#define GTEST_CLASS_NAME_(suite, name) suite##_##name##_Test

#define GTEST_TEST_IMPL_(suite, name, parent)                               \
  class GTEST_CLASS_NAME_(suite, name) : public parent {                    \
   public:                                                                  \
    void TestBody() override;                                               \
    static const bool gtest_registered_;                                    \
  };                                                                        \
  const bool GTEST_CLASS_NAME_(suite, name)::gtest_registered_ =            \
      ::testing::internal::RegisterTest<GTEST_CLASS_NAME_(suite, name)>(    \
          #suite, #name);                                                   \
  void GTEST_CLASS_NAME_(suite, name)::TestBody()

#define TEST(suite, name) GTEST_TEST_IMPL_(suite, name, ::testing::Test)
#define TEST_F(fixture, name) GTEST_TEST_IMPL_(fixture, name, fixture)

#define TEST_P(suite, name)                                                 \
  class GTEST_CLASS_NAME_(suite, name) : public suite {                     \
   public:                                                                  \
    void TestBody() override;                                               \
    static const bool gtest_registered_;                                    \
  };                                                                        \
  const bool GTEST_CLASS_NAME_(suite, name)::gtest_registered_ =            \
      ::testing::internal::ParamRegistry<suite::ParamType>::Instance()      \
          .AddTest(#suite, #name,                                           \
                   &::testing::internal::RunOneParamTest<                   \
                       GTEST_CLASS_NAME_(suite, name)>);                    \
  void GTEST_CLASS_NAME_(suite, name)::TestBody()

#define INSTANTIATE_TEST_SUITE_P(prefix, suite, ...)                        \
  static const bool gtest_inst_##prefix##_##suite =                         \
      ::testing::internal::InstantiateHelper<suite>(#prefix, #suite,        \
                                                    __VA_ARGS__)

// ---------------------------------------------------------------------------
// Assertion macros
// ---------------------------------------------------------------------------

// `fatal_kw` is empty for EXPECT_ and `return` for ASSERT_. A `for` loop
// (one iteration on failure, zero on success) instead of if/else keeps
// `if (cond) EXPECT_x(...);` free of -Wdangling-else and binds any
// user-written `else` to the user's `if`.
#define GTEST_ASSERTION_(failure_expr, fatal_kw)                            \
  for (::std::string gtest_msg_ = (failure_expr); !gtest_msg_.empty();      \
       gtest_msg_.clear())                                                  \
    fatal_kw ::testing::internal::AssertHelper(__FILE__, __LINE__,          \
                                               gtest_msg_) =                \
        ::testing::Message()

#define GTEST_CMP_(helper, v1, v2, fatal_kw) \
  GTEST_ASSERTION_(                          \
      ::testing::internal::helper(#v1, #v2, (v1), (v2)), fatal_kw)

#define EXPECT_EQ(v1, v2) GTEST_CMP_(CmpHelperEQ, v1, v2, )
#define EXPECT_NE(v1, v2) GTEST_CMP_(CmpHelperNE, v1, v2, )
#define EXPECT_LT(v1, v2) GTEST_CMP_(CmpHelperLT, v1, v2, )
#define EXPECT_LE(v1, v2) GTEST_CMP_(CmpHelperLE, v1, v2, )
#define EXPECT_GT(v1, v2) GTEST_CMP_(CmpHelperGT, v1, v2, )
#define EXPECT_GE(v1, v2) GTEST_CMP_(CmpHelperGE, v1, v2, )
#define ASSERT_EQ(v1, v2) GTEST_CMP_(CmpHelperEQ, v1, v2, return)
#define ASSERT_NE(v1, v2) GTEST_CMP_(CmpHelperNE, v1, v2, return)
#define ASSERT_LT(v1, v2) GTEST_CMP_(CmpHelperLT, v1, v2, return)
#define ASSERT_LE(v1, v2) GTEST_CMP_(CmpHelperLE, v1, v2, return)
#define ASSERT_GT(v1, v2) GTEST_CMP_(CmpHelperGT, v1, v2, return)
#define ASSERT_GE(v1, v2) GTEST_CMP_(CmpHelperGE, v1, v2, return)

#define GTEST_BOOL_(cond, expected, fatal_kw)                               \
  GTEST_ASSERTION_(static_cast<bool>(cond) == (expected)                    \
                       ? ::std::string()                                    \
                       : ::testing::internal::BoolFailure(#cond, expected), \
                   fatal_kw)

#define EXPECT_TRUE(cond) GTEST_BOOL_(cond, true, )
#define EXPECT_FALSE(cond) GTEST_BOOL_(cond, false, )
#define ASSERT_TRUE(cond) GTEST_BOOL_(cond, true, return)
#define ASSERT_FALSE(cond) GTEST_BOOL_(cond, false, return)

#define EXPECT_NEAR(v1, v2, abs_error)                                      \
  GTEST_ASSERTION_(::testing::internal::CmpHelperNear(                      \
                       #v1, #v2, #abs_error, (v1), (v2), (abs_error)), )
#define ASSERT_NEAR(v1, v2, abs_error)                                      \
  GTEST_ASSERTION_(::testing::internal::CmpHelperNear(                      \
                       #v1, #v2, #abs_error, (v1), (v2), (abs_error)),      \
                   return)

#define EXPECT_DOUBLE_EQ(v1, v2) GTEST_CMP_(CmpHelperDoubleEQ, v1, v2, )
#define ASSERT_DOUBLE_EQ(v1, v2) GTEST_CMP_(CmpHelperDoubleEQ, v1, v2, return)

#define EXPECT_DEATH(statement, pattern)                                    \
  GTEST_ASSERTION_(                                                         \
      ::testing::internal::DeathTestFailure([&]() { statement; }, (pattern),\
                                            #statement), )

#define GTEST_THROW_(statement, ex_type, fatal_kw)                          \
  GTEST_ASSERTION_(::testing::internal::ThrowTestFailure<ex_type>(          \
                       [&]() { statement; }, #statement, #ex_type),         \
                   fatal_kw)

#define EXPECT_THROW(statement, ex_type) GTEST_THROW_(statement, ex_type, )
#define ASSERT_THROW(statement, ex_type) \
  GTEST_THROW_(statement, ex_type, return)

#define EXPECT_NO_THROW(statement)                                          \
  GTEST_ASSERTION_(::testing::internal::NoThrowTestFailure(                 \
                       [&]() { statement; }, #statement), )
#define ASSERT_NO_THROW(statement)                                          \
  GTEST_ASSERTION_(::testing::internal::NoThrowTestFailure(                 \
                       [&]() { statement; }, #statement),                   \
                   return)

#define GTEST_SKIP()                                                        \
  return ::testing::internal::AssertHelper(                                 \
             __FILE__, __LINE__, "",                                        \
             ::testing::internal::AssertKind::kSkip) = ::testing::Message()

#define ADD_FAILURE()                                                       \
  ::testing::internal::AssertHelper(__FILE__, __LINE__,                     \
                                    "Failure") = ::testing::Message()

#define FAIL()                                                              \
  return ::testing::internal::AssertHelper(__FILE__, __LINE__, "Failure") = \
      ::testing::Message()

#define SUCCEED() static_cast<void>(0)

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace testing {
namespace internal {

inline std::string& FilterSpec() {
  static std::string spec = "*";
  return spec;
}

inline bool& ListTestsOnly() {
  static bool list_only = false;
  return list_only;
}

/// GoogleTest-style filter: colon-separated glob patterns, with an
/// optional '-'-prefixed negative section ("Foo.*:Bar.*-Foo.Slow*").
inline bool MatchesFilterSpec(const std::string& name,
                              const std::string& spec) {
  const std::size_t dash = spec.find('-');
  const std::string positive = dash == std::string::npos
                                   ? spec
                                   : spec.substr(0, dash);
  const std::string negative =
      dash == std::string::npos ? "" : spec.substr(dash + 1);
  const auto any_match = [&name](const std::string& patterns) {
    std::size_t start = 0;
    while (start <= patterns.size()) {
      const std::size_t end = patterns.find(':', start);
      const std::string pattern =
          patterns.substr(start, end == std::string::npos ? end : end - start);
      if (!pattern.empty() &&
          fnmatch(pattern.c_str(), name.c_str(), 0) == 0) {
        return true;
      }
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return false;
  };
  const bool in_positive = positive.empty() || any_match(positive);
  return in_positive && (negative.empty() || !any_match(negative));
}

inline int RunAllTests() {
  // A TEST_P suite that no INSTANTIATE_TEST_SUITE_P reached would
  // otherwise silently run zero tests; surface it as a failure.
  for (const auto& [suite, instantiated] : ParamSuiteInstantiated()) {
    if (instantiated) continue;
    Registry().push_back({suite, "UninstantiatedTestP", [suite = suite] {
                            RecordFailure(
                                "<TEST_P>", 0,
                                "suite " + suite +
                                    " has TEST_P definitions but no "
                                    "INSTANTIATE_TEST_SUITE_P",
                                "");
                          }});
  }
  if (ListTestsOnly()) {
    for (const auto& test : Registry()) {
      std::printf("%s.%s\n", test.suite.c_str(), test.name.c_str());
    }
    return 0;
  }
  std::size_t selected = 0;
  for (const auto& test : Registry()) {
    if (MatchesFilterSpec(test.suite + "." + test.name, FilterSpec())) {
      ++selected;
    }
  }
  std::printf("[==========] Running %zu tests.\n", selected);
  std::vector<std::string> failed;
  std::size_t passed = 0;
  std::size_t skipped = 0;
  std::size_t ran = 0;
  // Index-based with a per-test copy: Registry() may grow if a test pokes
  // the registration machinery (the framework self-test does).
  for (std::size_t i = 0; i < Registry().size(); ++i) {
    const TestInfo test = Registry()[i];
    const std::string full = test.suite + "." + test.name;
    if (!MatchesFilterSpec(full, FilterSpec())) continue;
    ++ran;
    std::printf("[ RUN      ] %s\n", full.c_str());
    std::fflush(stdout);
    CurrentTest::Get().result = TestResult::kPassed;
    const auto start = std::chrono::steady_clock::now();
    try {
      test.run();
    } catch (const std::exception& e) {
      RecordFailure("<unknown>", 0,
                    std::string("uncaught exception: ") + e.what(), "");
    } catch (...) {
      RecordFailure("<unknown>", 0, "uncaught non-std exception", "");
    }
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    switch (CurrentTest::Get().result) {
      case TestResult::kPassed:
        ++passed;
        std::printf("[       OK ] %s (%lld ms)\n", full.c_str(),
                    static_cast<long long>(ms));
        break;
      case TestResult::kSkipped:
        ++skipped;
        std::printf("[  SKIPPED ] %s (%lld ms)\n", full.c_str(),
                    static_cast<long long>(ms));
        break;
      case TestResult::kFailed:
        failed.push_back(full);
        std::printf("[  FAILED  ] %s (%lld ms)\n", full.c_str(),
                    static_cast<long long>(ms));
        break;
    }
    std::fflush(stdout);
  }
  std::printf("[==========] %zu tests ran.\n", ran);
  std::printf("[  PASSED  ] %zu tests.\n", passed);
  if (skipped > 0) std::printf("[  SKIPPED ] %zu tests.\n", skipped);
  if (!failed.empty()) {
    std::printf("[  FAILED  ] %zu tests, listed below:\n", failed.size());
    for (const auto& name : failed) {
      std::printf("[  FAILED  ] %s\n", name.c_str());
    }
  }
  if (ran == 0) {
    // A filter that selects nothing is almost always a typo; real
    // GoogleTest treats this as an error too.
    std::fprintf(stderr, "error: --gtest_filter=%s matched no tests\n",
                 FilterSpec().c_str());
    return 1;
  }
  return failed.empty() ? 0 : 1;
}

}  // namespace internal

/// Parses the --gtest_* flags this framework supports (filter,
/// list_tests); unrecognized --gtest_* flags are an error rather than a
/// silent no-op, so typos don't masquerade as full passing runs.
inline void InitGoogleTest(int* argc = nullptr, char** argv = nullptr) {
  if (argc == nullptr || argv == nullptr) return;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--gtest_filter=", 0) == 0) {
      internal::FilterSpec() = arg.substr(std::strlen("--gtest_filter="));
    } else if (arg == "--gtest_list_tests") {
      internal::ListTestsOnly() = true;
    } else if (arg.rfind("--gtest_color", 0) == 0 ||
               arg.rfind("--gtest_brief", 0) == 0 ||
               arg.rfind("--gtest_output", 0) == 0) {
      // Cosmetic/reporting flags IDE test runners commonly pass:
      // accepted and ignored.
    } else if (arg.rfind("--gtest_", 0) == 0) {
      std::fprintf(stderr, "error: unsupported flag %s (vendored framework "
                           "supports --gtest_filter and --gtest_list_tests)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
}

}  // namespace testing

#define RUN_ALL_TESTS() ::testing::internal::RunAllTests()

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

#endif  // GEER_TESTS_GTEST_GTEST_H_
