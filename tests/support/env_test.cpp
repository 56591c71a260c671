#include "support/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "support/error.h"

namespace stc::env {
namespace {

// Sets one environment variable for the test's scope, restoring the previous
// value (or unsetting) on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      had_old_ = true;
      old_ = old;
    }
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

// Asserts the Result is an invalid-argument error naming knob and value.
template <typename T>
void expect_knob_error(const Result<T>& r, const char* knob,
                       const char* value) {
  ASSERT_FALSE(r.is_ok()) << knob << "='" << value << "' accepted";
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(knob), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find(value), std::string::npos)
      << r.status().message();
}

TEST(EnvTest, ThreadsDefaultsToZeroMeaningHardware) {
  ScopedEnv guard("STC_THREADS", nullptr);
  EXPECT_EQ(threads().value(), 0u);
}

TEST(EnvTest, ThreadsParsesAndBounds) {
  {
    ScopedEnv guard("STC_THREADS", "16");
    EXPECT_EQ(threads().value(), 16u);
  }
  for (const char* bad : {"all", "0", "4097", "-2", "3x", ""}) {
    ScopedEnv guard("STC_THREADS", bad);
    expect_knob_error(threads(), "STC_THREADS", bad);
  }
}

TEST(EnvTest, ScaleFactorStrictlyPositiveFinite) {
  {
    ScopedEnv guard("STC_SF", nullptr);
    EXPECT_DOUBLE_EQ(scale_factor().value(), 0.002);
  }
  {
    ScopedEnv guard("STC_SF", "0.01");
    EXPECT_DOUBLE_EQ(scale_factor().value(), 0.01);
  }
  // The historic failure mode: garbage parsed as 0 and silently ran a
  // degenerate experiment. Now a structured error.
  for (const char* bad : {"garbage", "0", "-1", "inf", "nan", ""}) {
    ScopedEnv guard("STC_SF", bad);
    expect_knob_error(scale_factor(), "STC_SF", bad);
  }
}

TEST(EnvTest, LineBytesPowerOfTwoInRange) {
  {
    ScopedEnv guard("STC_LINE", "64");
    EXPECT_EQ(line_bytes().value(), 64u);
  }
  for (const char* bad : {"48", "4", "2048", "0", "words"}) {
    ScopedEnv guard("STC_LINE", bad);
    expect_knob_error(line_bytes(), "STC_LINE", bad);
  }
}

TEST(EnvTest, BenchDirMustExist) {
  {
    ScopedEnv guard("STC_BENCH_DIR", nullptr);
    EXPECT_EQ(bench_dir().value(), ".");
  }
  {
    ScopedEnv guard("STC_BENCH_DIR", ::testing::TempDir().c_str());
    EXPECT_TRUE(bench_dir().is_ok());
  }
  {
    ScopedEnv guard("STC_BENCH_DIR", "/nonexistent/bench/dir");
    expect_knob_error(bench_dir(), "STC_BENCH_DIR", "/nonexistent/bench/dir");
  }
}

TEST(EnvTest, VerifyIsStrictlyBoolean) {
  {
    ScopedEnv guard("STC_VERIFY", nullptr);
    EXPECT_FALSE(verify().value());
  }
  {
    ScopedEnv guard("STC_VERIFY", "1");
    EXPECT_TRUE(verify().value());
  }
  {
    ScopedEnv guard("STC_VERIFY", "0");
    EXPECT_FALSE(verify().value());
  }
  // "yes" used to be treated as truthy; now it is a refusal to guess.
  for (const char* bad : {"yes", "true", "2"}) {
    ScopedEnv guard("STC_VERIFY", bad);
    expect_knob_error(verify(), "STC_VERIFY", bad);
  }
}

TEST(EnvTest, BpredNamesTheAcceptedSet) {
  {
    ScopedEnv guard("STC_BPRED", "gshare");
    EXPECT_EQ(bpred().value(), "gshare");
  }
  ScopedEnv guard("STC_BPRED", "tage");
  const auto r = bpred();
  expect_knob_error(r, "STC_BPRED", "tage");
  EXPECT_NE(r.status().message().find("perfect|always|bimodal|gshare|local"),
            std::string::npos);
}

TEST(EnvTest, ReplayNamesTheAcceptedSet) {
  {
    ScopedEnv guard("STC_REPLAY", nullptr);
    EXPECT_EQ(replay().value(), "auto");  // unset → engine picks
  }
  for (const char* good : {"interp", "compiled", "auto"}) {
    ScopedEnv guard("STC_REPLAY", good);
    EXPECT_EQ(replay().value(), good);
  }
  for (const char* bad : {"jit", "Interp", "compiled ", "", "batched"}) {
    ScopedEnv guard("STC_REPLAY", bad);
    const auto r = replay();
    expect_knob_error(r, "STC_REPLAY", bad);
    EXPECT_NE(r.status().message().find("interp|compiled|auto"),
              std::string::npos);
  }
}

TEST(EnvTest, BackendNamesTheAcceptedSet) {
  {
    ScopedEnv guard("STC_BACKEND", nullptr);
    EXPECT_EQ(backend().value(), "off");  // unset → the paper's simulators
  }
  for (const char* good : {"off", "inorder", "ooo"}) {
    ScopedEnv guard("STC_BACKEND", good);
    EXPECT_EQ(backend().value(), good);
  }
  for (const char* bad : {"tomasulo", "Ooo", "ooo ", ""}) {
    ScopedEnv guard("STC_BACKEND", bad);
    const auto r = backend();
    expect_knob_error(r, "STC_BACKEND", bad);
    EXPECT_NE(r.status().message().find("off|inorder|ooo"),
              std::string::npos);
  }
}

TEST(EnvTest, IqDepthBounded) {
  {
    ScopedEnv guard("STC_IQ_DEPTH", nullptr);
    EXPECT_EQ(iq_depth().value(), 16u);
  }
  {
    ScopedEnv guard("STC_IQ_DEPTH", "1");
    EXPECT_EQ(iq_depth().value(), 1u);
  }
  for (const char* bad : {"0", "1025", "deep"}) {
    ScopedEnv guard("STC_IQ_DEPTH", bad);
    expect_knob_error(iq_depth(), "STC_IQ_DEPTH", bad);
  }
}

TEST(EnvTest, RobDepthBounded) {
  {
    ScopedEnv guard("STC_ROB_DEPTH", nullptr);
    EXPECT_EQ(rob_depth().value(), 64u);
  }
  {
    ScopedEnv guard("STC_ROB_DEPTH", "4096");
    EXPECT_EQ(rob_depth().value(), 4096u);
  }
  for (const char* bad : {"0", "4097", "big"}) {
    ScopedEnv guard("STC_ROB_DEPTH", bad);
    expect_knob_error(rob_depth(), "STC_ROB_DEPTH", bad);
  }
}

TEST(EnvTest, ValidateAllChecksBackendKnobs) {
  {
    ScopedEnv guard("STC_BACKEND", "scoreboard");
    const Status s = validate_all();
    ASSERT_FALSE(s.is_ok());
    EXPECT_NE(s.message().find("STC_BACKEND"), std::string::npos);
  }
  ScopedEnv guard("STC_ROB_DEPTH", "0");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_ROB_DEPTH"), std::string::npos);
}

TEST(EnvTest, ValidateAllChecksReplay) {
  ScopedEnv guard("STC_REPLAY", "jit");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_REPLAY"), std::string::npos);
}

TEST(EnvTest, FtqDepthBounded) {
  {
    ScopedEnv guard("STC_FTQ_DEPTH", "0");
    EXPECT_EQ(ftq_depth().value(), 0u);
  }
  ScopedEnv guard("STC_FTQ_DEPTH", "1025");
  expect_knob_error(ftq_depth(), "STC_FTQ_DEPTH", "1025");
}

TEST(EnvTest, TenantsBounded) {
  {
    ScopedEnv guard("STC_TENANTS", nullptr);
    EXPECT_EQ(tenants().value(), 4u);
  }
  {
    ScopedEnv guard("STC_TENANTS", "64");
    EXPECT_EQ(tenants().value(), 64u);
  }
  for (const char* bad : {"0", "65", "many"}) {
    ScopedEnv guard("STC_TENANTS", bad);
    expect_knob_error(tenants(), "STC_TENANTS", bad);
  }
}

TEST(EnvTest, QuantumZeroMeansUnbounded) {
  {
    ScopedEnv guard("STC_QUANTUM", nullptr);
    EXPECT_EQ(quantum().value(), 1000u);
  }
  {
    ScopedEnv guard("STC_QUANTUM", "0");
    EXPECT_EQ(quantum().value(), 0u);
  }
  for (const char* bad : {"1000000001", "-1", "fast"}) {
    ScopedEnv guard("STC_QUANTUM", bad);
    expect_knob_error(quantum(), "STC_QUANTUM", bad);
  }
}

TEST(EnvTest, ArrivalNamesTheAcceptedSet) {
  {
    ScopedEnv guard("STC_ARRIVAL", nullptr);
    EXPECT_EQ(arrival().value(), "poisson");
  }
  for (const char* good : {"rr", "poisson", "bursty", "diurnal"}) {
    ScopedEnv guard("STC_ARRIVAL", good);
    EXPECT_EQ(arrival().value(), good);
  }
  ScopedEnv guard("STC_ARRIVAL", "uniform");
  const auto r = arrival();
  expect_knob_error(r, "STC_ARRIVAL", "uniform");
  EXPECT_NE(r.status().message().find("rr|poisson|bursty|diurnal"),
            std::string::npos);
}

TEST(EnvTest, TenantMixIsACommaListOfKnownMixes) {
  {
    ScopedEnv guard("STC_TENANT_MIX", nullptr);
    EXPECT_EQ(tenant_mix().value(), "dss,oltp");
  }
  {
    ScopedEnv guard("STC_TENANT_MIX", "oltp");
    EXPECT_EQ(tenant_mix().value(), "oltp");
  }
  {
    ScopedEnv guard("STC_TENANT_MIX", "dss,dss_train,oltp");
    EXPECT_EQ(tenant_mix().value(), "dss,dss_train,oltp");
  }
  for (const char* bad : {"", "dss,", ",oltp", "tpcc", "dss;oltp"}) {
    ScopedEnv guard("STC_TENANT_MIX", bad);
    ASSERT_FALSE(tenant_mix().is_ok()) << "accepted '" << bad << "'";
    EXPECT_NE(tenant_mix().status().message().find("STC_TENANT_MIX"),
              std::string::npos);
  }
}

TEST(EnvTest, ValidateAllChecksComposerKnobs) {
  ScopedEnv guard("STC_ARRIVAL", "uniform");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_ARRIVAL"), std::string::npos);
}

TEST(EnvTest, JobTimeoutNonNegativeSeconds) {
  {
    ScopedEnv guard("STC_JOB_TIMEOUT", "2.5");
    EXPECT_DOUBLE_EQ(job_timeout().value(), 2.5);
  }
  for (const char* bad : {"-1", "soon"}) {
    ScopedEnv guard("STC_JOB_TIMEOUT", bad);
    expect_knob_error(job_timeout(), "STC_JOB_TIMEOUT", bad);
  }
}

TEST(EnvTest, JobRetriesBounded) {
  {
    ScopedEnv guard("STC_JOB_RETRIES", "0");
    EXPECT_EQ(job_retries().value(), 0u);
  }
  ScopedEnv guard("STC_JOB_RETRIES", "17");
  expect_knob_error(job_retries(), "STC_JOB_RETRIES", "17");
}

TEST(EnvTest, ValidateAllReportsFirstBadKnob) {
  ScopedEnv guard("STC_THREADS", "many");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_THREADS"), std::string::npos);
}

TEST(EnvTest, ValidateAllChecksFaultSpecSyntax) {
  ScopedEnv guard("STC_FAULT", "bad.spec:");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_FAULT"), std::string::npos);
}

TEST(EnvTest, ResumeIsStrictlyBoolean) {
  {
    ScopedEnv guard("STC_RESUME", nullptr);
    EXPECT_FALSE(resume().value());  // default: fresh run
  }
  {
    ScopedEnv guard("STC_RESUME", "1");
    EXPECT_TRUE(resume().value());
  }
  {
    ScopedEnv guard("STC_RESUME", "0");
    EXPECT_FALSE(resume().value());
  }
  for (const char* bad : {"yes", "true", "2"}) {
    ScopedEnv guard("STC_RESUME", bad);
    expect_knob_error(resume(), "STC_RESUME", bad);
  }
}

TEST(EnvTest, ZeroTimingsIsStrictlyBoolean) {
  {
    ScopedEnv guard("STC_ZERO_TIMINGS", nullptr);
    EXPECT_FALSE(zero_timings().value());
  }
  {
    ScopedEnv guard("STC_ZERO_TIMINGS", "1");
    EXPECT_TRUE(zero_timings().value());
  }
  for (const char* bad : {"yes", "2"}) {
    ScopedEnv guard("STC_ZERO_TIMINGS", bad);
    expect_knob_error(zero_timings(), "STC_ZERO_TIMINGS", bad);
  }
}

TEST(EnvTest, ValidateAllChecksResilienceKnobs) {
  {
    ScopedEnv guard("STC_RESUME", "maybe");
    const Status s = validate_all();
    ASSERT_FALSE(s.is_ok());
    EXPECT_NE(s.message().find("STC_RESUME"), std::string::npos);
  }
  // STC_CRASH shares the fault-spec grammar; malformed specs are rejected up
  // front rather than exploding mid-run.
  ScopedEnv guard("STC_CRASH", "point:");
  const Status s = validate_all();
  ASSERT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("STC_CRASH"), std::string::npos);
}

TEST(EnvTest, ValidateAllCleanEnvironmentIsOk) {
  ScopedEnv t("STC_THREADS", nullptr);
  ScopedEnv sf("STC_SF", nullptr);
  ScopedEnv fault("STC_FAULT", nullptr);
  EXPECT_TRUE(validate_all().is_ok());
}

}  // namespace
}  // namespace stc::env
