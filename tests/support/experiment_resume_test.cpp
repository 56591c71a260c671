// Checkpoint/resume for the experiment runner: every finished cell is
// journaled as it completes; STC_RESUME=1 replays the journal, skips the
// recorded cells (including failures — their retry budget is spent), and
// produces a report byte-identical to an uninterrupted run.
#include "support/experiment.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "support/error.h"
#include "support/faultpoint.h"
#include "support/io.h"
#include "support/journal.h"

namespace stc {
namespace {

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

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

class ExperimentResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::reset();
    dir_ = ::testing::TempDir() + "/stc_resume_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(
        ::system(("rm -rf '" + dir_ + "' && mkdir '" + dir_ + "'").c_str()),
        0);
  }
  void TearDown() override {
    fault::reset();
    [[maybe_unused]] int rc = ::system(("rm -rf '" + dir_ + "'").c_str());
  }

  // A 6-cell grid; `ran` records which cells actually executed in this
  // process (a resumed cell must not re-execute). Cell `sigterm_index`
  // raises SIGTERM, as an operator's kill would land mid-run.
  ExperimentRunner make_grid(std::vector<int>* ran = nullptr,
                             int failing_index = -1, int sigterm_index = -1) {
    ExperimentRunner runner("resumegrid");
    runner.set_shardable(true);  // journaling rides the shardable contract
    runner.meta("k", std::uint64_t{6});
    for (std::size_t i = 0; i < 6; ++i) {
      runner.add("cell " + std::to_string(i), {{"index", std::to_string(i)}},
                 [i, ran, failing_index, sigterm_index] {
                   if (ran != nullptr) ran->push_back(static_cast<int>(i));
                   if (static_cast<int>(i) == sigterm_index) ::raise(SIGTERM);
                   if (static_cast<int>(i) == failing_index) {
                     throw StatusError(
                         internal_error("deliberate failure in cell"));
                   }
                   ExperimentResult r;
                   r.metric("value", double(i) * 1.25);
                   r.metric("third", double(i) / 3.0);
                   r.counters().add("instructions", 100 * i + 1);
                   return r;
                 });
    }
    return runner;
  }

  std::string journal_file() const {
    return dir_ + "/BENCH_resumegrid.journal";
  }

  // Truncates the journal so only the first `keep` records survive —
  // exactly what a crash between cell `keep` and `keep+1` leaves behind.
  void truncate_journal_to(std::size_t keep) {
    Result<JournalScan> scan = read_journal(journal_file());
    ASSERT_TRUE(scan.is_ok());
    ASSERT_GE(scan.value().payloads.size(), keep);
    const std::size_t bytes =
        keep == 0 ? 0 : scan.value().record_ends[keep - 1];
    ASSERT_EQ(::truncate(journal_file().c_str(),
                         static_cast<off_t>(bytes)),
              0);
  }

  std::string dir_;
};

TEST_F(ExperimentResumeTest, JournalRecordsEveryCompletedCell) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv resume("STC_RESUME", nullptr);
  ExperimentRunner runner = make_grid();
  runner.run(1);
  Result<JournalScan> scan = read_journal(journal_file());
  ASSERT_TRUE(scan.is_ok());
  EXPECT_EQ(scan.value().payloads.size(), 6u);
  EXPECT_FALSE(scan.value().torn);
}

TEST_F(ExperimentResumeTest, ResumeSkipsJournaledCellsAndMatchesByteExact) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv zero("STC_ZERO_TIMINGS", "1");  // byte-compare the full report
  std::string reference;
  {
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner runner = make_grid();
    runner.run(1);
    reference = runner.report_json();
  }
  // Keep only the first 4 records: the "crash" hit between cells 3 and 4.
  truncate_journal_to(4);

  ScopedEnv resume("STC_RESUME", "1");
  std::vector<int> ran;
  ExperimentRunner resumed = make_grid(&ran);
  resumed.run(1);
  EXPECT_EQ(ran, (std::vector<int>{4, 5}));  // only the unjournaled tail
  EXPECT_TRUE(resumed.all_ok());
  EXPECT_EQ(resumed.report_json(), reference);
}

TEST_F(ExperimentResumeTest, JournaledFailuresAreFinalNotReRun) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv zero("STC_ZERO_TIMINGS", "1");
  std::string reference;
  {
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner runner = make_grid(nullptr, /*failing_index=*/2);
    runner.set_max_retries(1);
    runner.run(1);
    ASSERT_FALSE(runner.all_ok());
    reference = runner.report_json();
  }
  // Resume with a grid that would now succeed: the journaled failure spent
  // its retry budget in the original run and must be replayed, not retried —
  // otherwise the resumed report could not match the uninterrupted one.
  ScopedEnv resume("STC_RESUME", "1");
  std::vector<int> ran;
  ExperimentRunner resumed = make_grid(&ran);
  resumed.set_max_retries(1);
  resumed.run(1);
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(resumed.job_status(2), JobStatus::kFailed);
  ASSERT_EQ(resumed.failures().size(), 1u);
  EXPECT_EQ(resumed.failures()[0].attempts, 2u);
  EXPECT_EQ(resumed.report_json(), reference);
}

TEST_F(ExperimentResumeTest, StaleJournalIsDiscardedWithoutResume) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  {
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner runner = make_grid();
    runner.run(1);
  }
  ASSERT_TRUE(file_exists(journal_file()));
  ScopedEnv resume("STC_RESUME", nullptr);
  std::vector<int> ran;
  ExperimentRunner again = make_grid(&ran);
  again.run(1);
  EXPECT_EQ(ran.size(), 6u);  // every cell re-ran: no silent resume
}

TEST_F(ExperimentResumeTest, TornJournalTailIsTruncatedAndReRun) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv zero("STC_ZERO_TIMINGS", "1");
  std::string reference;
  {
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner runner = make_grid();
    runner.run(1);
    reference = runner.report_json();
  }
  truncate_journal_to(3);
  {
    // A half-written record after the 3 good ones: mid-crash state.
    std::ofstream out(journal_file(),
                      std::ios::binary | std::ios::app);
    out << "STCJ1 400 0123abcd\n{\"index\": 3, \"na";
  }
  ScopedEnv resume("STC_RESUME", "1");
  std::vector<int> ran;
  ExperimentRunner resumed = make_grid(&ran);
  resumed.run(1);
  EXPECT_EQ(ran, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(resumed.report_json(), reference);
}

TEST_F(ExperimentResumeTest, MismatchedJournalRecordsAreDropped) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  {
    // A journal from a *different* grid: same bench name, other job names.
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner other("resumegrid");
    other.set_shardable(true);
    other.add("not the same cell", [] { return ExperimentResult(); });
    other.run(1);
  }
  ScopedEnv resume("STC_RESUME", "1");
  std::vector<int> ran;
  ExperimentRunner resumed = make_grid(&ran);
  resumed.run(1);
  EXPECT_EQ(ran.size(), 6u);  // nothing absorbed from the foreign journal
  EXPECT_TRUE(resumed.all_ok());
}

TEST_F(ExperimentResumeTest, WriteReportRetiresTheJournal) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv resume("STC_RESUME", nullptr);
  ExperimentRunner runner = make_grid();
  runner.run(1);
  ASSERT_TRUE(file_exists(journal_file()));
  ASSERT_TRUE(runner.write_report().is_ok());
  EXPECT_FALSE(file_exists(journal_file()));
  EXPECT_TRUE(file_exists(dir_ + "/BENCH_resumegrid.json"));
}

TEST_F(ExperimentResumeTest, PlainRunnersDoNotJournal) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv resume("STC_RESUME", nullptr);
  ExperimentRunner runner("resumegrid");  // not shardable
  runner.add("only", [] { return ExperimentResult(); });
  runner.run(1);
  EXPECT_FALSE(file_exists(journal_file()));
}

TEST_F(ExperimentResumeTest, SetShardableOptsIntoJournaling) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv resume("STC_RESUME", nullptr);
  {
    ExperimentRunner runner("resumegrid");
    runner.set_shardable(true);
    runner.set_shardable(false);  // the last word wins
    runner.add("only", [] { return ExperimentResult(); });
    runner.run(1);
    EXPECT_FALSE(file_exists(journal_file()));
  }
  ExperimentRunner runner("resumegrid");
  runner.set_shardable(true);
  runner.add("only", [] { return ExperimentResult(); });
  runner.run(1);
  EXPECT_TRUE(file_exists(journal_file()));
}

// Journal records are input from outside the program: a CRC-valid record
// whose index or attempt count is not a whole number in range must be
// rejected (with every later record) before any integer conversion, never
// rounded onto a real cell.
TEST_F(ExperimentResumeTest, NonIntegralOrOutOfRangeRecordNumbersAreDropped) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv zero("STC_ZERO_TIMINGS", "1");
  std::vector<std::string> payloads;
  std::string reference;
  {
    ScopedEnv resume("STC_RESUME", nullptr);
    ExperimentRunner runner = make_grid();
    runner.run(1);
    reference = runner.report_json();
    Result<JournalScan> scan = read_journal(journal_file());
    ASSERT_TRUE(scan.is_ok());
    payloads = scan.value().payloads;
    ASSERT_EQ(payloads.size(), 6u);
  }
  // Each case rewrites one field of cell 2's genuine record.
  const struct {
    const char* field;
    const char* bad;
  } cases[] = {
      {"\"index\": 2", "\"index\": 2.5"},
      {"\"index\": 2", "\"index\": -1"},
      {"\"index\": 2", "\"index\": 1e300"},
      {"\"attempts\": 1", "\"attempts\": 0"},
      {"\"attempts\": 1", "\"attempts\": 1.5"},
      {"\"attempts\": 1", "\"attempts\": 1e300"},
      {"\"attempts\": 1", "\"tries\": 1"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.bad);
    std::string bad_record = payloads[2];
    const std::size_t at = bad_record.find(c.field);
    ASSERT_NE(at, std::string::npos) << bad_record;
    bad_record.replace(at, std::string(c.field).size(), c.bad);
    std::remove(journal_file().c_str());
    {
      JournalWriter writer;
      ASSERT_TRUE(writer.open(journal_file(), 0).is_ok());
      for (const std::string& record :
           {payloads[0], bad_record, payloads[3], payloads[4]}) {
        ASSERT_TRUE(writer.append(record).is_ok());
      }
    }
    ScopedEnv resume("STC_RESUME", "1");
    std::vector<int> ran;
    ExperimentRunner resumed = make_grid(&ran);
    resumed.run(1);
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4, 5}));
    EXPECT_EQ(resumed.report_json(), reference);
  }
}

// SIGTERM mid-run: the handler unlinks registered in-flight temp files and
// the process dies by the signal; the fsync'd journal then resumes to the
// report an uninterrupted run produces.
TEST_F(ExperimentResumeTest, SigtermCleansTempFilesAndTheRunResumes) {
  ScopedEnv bench_dir("STC_BENCH_DIR", dir_.c_str());
  ScopedEnv zero("STC_ZERO_TIMINGS", "1");
  ScopedEnv threads("STC_THREADS", nullptr);
  const std::string temp = dir_ + "/BENCH_resumegrid.json.tmp";
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::FILE* f = std::fopen(temp.c_str(), "wb");
    if (f == nullptr) ::_exit(10);
    std::fclose(f);
    if (register_signal_cleanup_path(temp) < 0) ::_exit(11);
    ::unsetenv("STC_RESUME");
    ExperimentRunner runner = make_grid(nullptr, -1, /*sigterm_index=*/3);
    runner.run(1);
    ::_exit(12);  // the SIGTERM should have ended the process
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus))
      << "child exited with code " << WEXITSTATUS(wstatus);
  EXPECT_EQ(WTERMSIG(wstatus), SIGTERM);
  EXPECT_FALSE(file_exists(temp));

  std::string resumed_report;
  {
    ScopedEnv resume("STC_RESUME", "1");
    std::vector<int> ran;
    ExperimentRunner resumed = make_grid(&ran);
    resumed.run(1);
    EXPECT_EQ(ran, (std::vector<int>{3, 4, 5}));  // cells 0-2 were journaled
    EXPECT_TRUE(resumed.all_ok());
    resumed_report = resumed.report_json();
  }
  ScopedEnv resume("STC_RESUME", nullptr);
  ExperimentRunner clean = make_grid();
  clean.run(1);
  EXPECT_EQ(resumed_report, clean.report_json());
}

}  // namespace
}  // namespace stc
