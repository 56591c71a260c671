// Fault-tolerant execution: per-job capture, retries, deadlines, and the
// failure report. Complements experiment_test.cpp (the clean-run contract).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#include "support/error.h"
#include "support/experiment.h"
#include "support/faultpoint.h"
#include "support/json_read.h"

namespace stc {
namespace {

ExperimentResult good_cell(double ipc) {
  ExperimentResult r;
  r.metric("ipc", ipc);
  r.counters().add("instructions", 1000);
  return r;
}

class ExperimentFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(ExperimentFaultTest, ThrowingJobIsRecordedNotFatal) {
  ExperimentRunner runner("ft");
  runner.add("good", [] { return good_cell(1.5); });
  const std::size_t bad = runner.add("bad", []() -> ExperimentResult {
    throw StatusError(corrupt_data_error("crc mismatch"));
  });
  runner.set_max_retries(0);
  runner.run(1);

  EXPECT_EQ(runner.job_status(0), JobStatus::kOk);
  EXPECT_EQ(runner.job_status(bad), JobStatus::kFailed);
  ASSERT_EQ(runner.failures().size(), 1u);
  const JobFailure& f = runner.failures()[0];
  EXPECT_EQ(f.index, bad);
  EXPECT_EQ(f.name, "bad");
  EXPECT_EQ(f.attempts, 1u);
  EXPECT_EQ(f.error.code(), ErrorCode::kCorruptData);
  // The error carries the job name as context.
  EXPECT_NE(f.error.message().find("job 'bad'"), std::string::npos);
  EXPECT_FALSE(runner.all_ok());
  EXPECT_EQ(runner.exit_code(), 3);
}

TEST_F(ExperimentFaultTest, PlainExceptionsBecomeInternalErrors) {
  ExperimentRunner runner("ft");
  runner.add("thrower", []() -> ExperimentResult {
    throw std::runtime_error("std failure");
  });
  runner.set_max_retries(0);
  runner.run(1);
  ASSERT_EQ(runner.failures().size(), 1u);
  EXPECT_EQ(runner.failures()[0].error.code(), ErrorCode::kInternal);
  EXPECT_NE(runner.failures()[0].error.message().find("std failure"),
            std::string::npos);
}

TEST_F(ExperimentFaultTest, FailedAttemptsRetryUpToLimit) {
  int calls = 0;
  ExperimentRunner runner("ft");
  runner.add("flaky", [&]() -> ExperimentResult {
    ++calls;
    throw StatusError(io_error("transient"));
  });
  runner.set_max_retries(2);
  runner.run(1);
  EXPECT_EQ(calls, 3);  // 1 + 2 retries
  ASSERT_EQ(runner.failures().size(), 1u);
  EXPECT_EQ(runner.failures()[0].attempts, 3u);
}

TEST_F(ExperimentFaultTest, TransientFaultSucceedsOnRetry) {
  // A one-shot armed fault fires on the first attempt and is consumed; the
  // retry runs clean — the STC_FAULT=job.exec:1 + STC_JOB_RETRIES=1 story.
  fault::arm("job.exec");
  ExperimentRunner runner("ft");
  const std::size_t job = runner.add("cell", [] { return good_cell(2.0); });
  runner.set_max_retries(1);
  runner.run(1);
  EXPECT_EQ(runner.job_status(job), JobStatus::kOk);
  EXPECT_TRUE(runner.all_ok());
  EXPECT_EQ(runner.exit_code(), 0);
  EXPECT_DOUBLE_EQ(runner.result(job).metric("ipc"), 2.0);
}

TEST_F(ExperimentFaultTest, InjectedFaultWithoutRetryFailsTheJob) {
  fault::arm("job.exec");
  ExperimentRunner runner("ft");
  const std::size_t job = runner.add("cell", [] { return good_cell(2.0); });
  runner.set_max_retries(0);
  runner.run(1);
  EXPECT_EQ(runner.job_status(job), JobStatus::kFailed);
  ASSERT_EQ(runner.failures().size(), 1u);
  EXPECT_EQ(runner.failures()[0].error.code(), ErrorCode::kFaultInjected);
}

TEST_F(ExperimentFaultTest, OverrunIsTimedOutAndNotRetried) {
  int calls = 0;
  ExperimentRunner runner("ft");
  const std::size_t job = runner.add("slow", [&] {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return good_cell(1.0);
  });
  runner.set_max_retries(3);
  runner.set_job_timeout(0.01);
  runner.run(1);
  EXPECT_EQ(calls, 1);  // deterministic overruns are not transient
  EXPECT_EQ(runner.job_status(job), JobStatus::kTimedOut);
  ASSERT_EQ(runner.failures().size(), 1u);
  const JobFailure& f = runner.failures()[0];
  EXPECT_EQ(f.error.code(), ErrorCode::kTimeout);
  // The message is deterministic (no measured wall-clock in it), so failure
  // reports stay byte-identical across runs.
  EXPECT_EQ(f.error.message(), "job 'slow': ran past the 0.01s deadline");
}

TEST_F(ExperimentFaultTest, MetricOrSurvivesFailedCells) {
  ExperimentRunner runner("ft");
  const std::size_t good = runner.add("good", [] { return good_cell(1.5); });
  const std::size_t bad = runner.add("bad", []() -> ExperimentResult {
    throw StatusError(io_error("boom"));
  });
  runner.set_max_retries(0);
  runner.run(1);
  EXPECT_DOUBLE_EQ(runner.metric_or(good, "ipc"), 1.5);
  EXPECT_TRUE(std::isnan(runner.metric_or(bad, "ipc")));
  EXPECT_DOUBLE_EQ(runner.metric_or(bad, "ipc", -1.0), -1.0);
  EXPECT_DOUBLE_EQ(runner.metric_or(good, "absent", 7.0), 7.0);
}

TEST_F(ExperimentFaultTest, MissingMetricIsStructuredNotFatal) {
  ExperimentResult r = good_cell(1.0);
  const Result<double> missing = r.try_metric("mpki");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), ErrorCode::kNotFound);
  EXPECT_NE(missing.status().message().find("mpki"), std::string::npos);
  EXPECT_NE(missing.status().message().find("ipc"), std::string::npos);
  EXPECT_THROW(r.metric("mpki"), StatusError);
}

TEST_F(ExperimentFaultTest, FailureSectionIsDeterministic) {
  const auto build = [] {
    ExperimentRunner runner("det");
    runner.add("a", [] { return good_cell(1.0); });
    runner.add("b", []() -> ExperimentResult {
      throw StatusError(corrupt_data_error("fixed message"));
    });
    runner.set_max_retries(1);
    runner.run(1);
    return runner.results_json();
  };
  EXPECT_EQ(build(), build());
}

TEST_F(ExperimentFaultTest, SuccessfulCellsStayByteIdenticalToCleanRun) {
  const auto cells = [](bool with_failure) {
    ExperimentRunner runner("ident");
    runner.add("a", {{"layout", "orig"}}, [] { return good_cell(1.25); });
    if (with_failure) {
      runner.add("b", []() -> ExperimentResult {
        throw StatusError(io_error("boom"));
      });
    }
    runner.add("c", {{"layout", "ops"}}, [] { return good_cell(2.5); });
    runner.set_max_retries(0);
    runner.run(1);
    return runner.results_json();
  };
  const std::string clean = cells(false);
  const std::string degraded = cells(true);
  // Every successful cell of the degraded run serializes to the exact bytes
  // of its clean-run counterpart (the failing cell is extra, between them).
  std::string err;
  const JsonValue c = parse_json(clean, &err);
  ASSERT_EQ(err, "");
  const JsonValue d = parse_json(degraded, &err);
  ASSERT_EQ(err, "");
  ASSERT_EQ(c.items.size(), 2u);
  ASSERT_EQ(d.items.size(), 3u);
  // Byte-level: each clean cell's rendered text appears verbatim in the
  // degraded document (same nesting depth, same writer).
  const std::size_t a_at = clean.find("\"name\": \"a\"");
  const std::size_t c_at = clean.find("\"name\": \"c\"");
  ASSERT_NE(a_at, std::string::npos);
  ASSERT_NE(c_at, std::string::npos);
  const std::string cell_a = clean.substr(a_at, clean.find("},", a_at) - a_at);
  const std::string cell_c = clean.substr(c_at, clean.rfind('}') - c_at);
  EXPECT_NE(degraded.find(cell_a), std::string::npos);
  EXPECT_NE(degraded.find(cell_c), std::string::npos);
  // And the failed cell carries status/error instead of metrics.
  const JsonValue& failed = d.items[1];
  EXPECT_EQ(failed.find("status")->text, "failed");
  EXPECT_NE(failed.find("error"), nullptr);
}

TEST_F(ExperimentFaultTest, ReportJsonCarriesFailuresSection) {
  ExperimentRunner runner("ft");
  runner.add("ok", [] { return good_cell(1.0); });
  runner.add("dead", []() -> ExperimentResult {
    throw StatusError(corrupt_data_error("rotten"));
  });
  runner.set_max_retries(1);
  runner.run(1);
  std::string err;
  const JsonValue report =
      parse_json(runner.report_json(), &err);
  ASSERT_EQ(err, "");
  const JsonValue* failures = report.find("failures");
  ASSERT_TRUE(failures != nullptr && failures->is_array());
  ASSERT_EQ(failures->items.size(), 1u);
  const JsonValue& f = failures->items[0];
  EXPECT_EQ(f.members[0].first, "job");
  EXPECT_EQ(f.find("job")->text, "dead");
  EXPECT_EQ(f.find("index")->number, 1.0);
  EXPECT_EQ(f.find("status")->text, "failed");
  EXPECT_EQ(f.find("attempts")->number, 2.0);
  EXPECT_NE(f.find("error")->text.find("corrupt-data"), std::string::npos);
}

TEST_F(ExperimentFaultTest, ParallelAndSerialDegradedRunsAgree) {
  const auto build = [](std::size_t threads) {
    ExperimentRunner runner("par");
    for (int i = 0; i < 8; ++i) {
      const std::string name = "cell" + std::to_string(i);
      if (i == 3 || i == 6) {
        runner.add(name, []() -> ExperimentResult {
          throw StatusError(io_error("fixed"));
        });
      } else {
        runner.add(name, [i] { return good_cell(1.0 + i); });
      }
    }
    runner.set_max_retries(0);
    runner.run(threads);
    return runner.results_json();
  };
  EXPECT_EQ(build(1), build(4));
}

}  // namespace
}  // namespace stc
