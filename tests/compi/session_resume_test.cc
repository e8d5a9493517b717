// Kill + resume on the append-only write path: a mini-SUSY campaign that
// logs a session is stopped between checkpoints and resumed; the finished
// session must read as if it had never stopped.  iterations.csv is the one
// durable record of iterations and rank_logs.txt the one rank-log file, so
// these tests pin that a resume keeps exactly the rows and records before
// the snapshot's offsets and drops whatever a killed process left after
// them.  The last test pins that the snapshot itself no longer grows with
// the number of iterations run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compi/driver.h"
#include "compi/session.h"
#include "targets/targets.h"

namespace compi {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_session_resume_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// iterations.csv with the timing columns (exec_seconds, solve_seconds)
/// blanked: wall and CPU clock readings differ between processes.
std::vector<std::string> csv_without_timings(const fs::path& dir) {
  std::ifstream in(dir / "iterations.csv");
  std::vector<std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string field, rebuilt;
    for (int i = 0; std::getline(fields, field, ','); ++i) {
      rebuilt += (i == 6 || i == 7) ? std::string("_") : field;
      rebuilt += ',';
    }
    rows.push_back(rebuilt);
  }
  return rows;
}

/// Branch ids marked covered in a session's ledger.csv.
std::set<long> covered_set(const fs::path& dir) {
  std::ifstream in(dir / "ledger.csv");
  std::set<long> covered;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::stringstream ss(line);
    std::string field;
    long branch = -1;
    for (int idx = 0; idx <= 4 && std::getline(ss, field, ','); ++idx) {
      if (idx == 0) branch = std::stol(field);
      if (idx == 4 && field == "1") covered.insert(branch);
    }
  }
  return covered;
}

constexpr int kIterations = 300;
constexpr int kKillAfter = 137;  // not a multiple of the interval (25)

/// Two ranks at most: with three or more, which rank a seeded fault stops
/// first depends on thread timing, so the focus's path — and the search
/// after it — differs between two uninterrupted runs of the same seed.  Two
/// ranks still reach all four of mini-SUSY's bugs, and every serial run of
/// a seed is the same run.
CampaignOptions susy_opts(const fs::path& dir, int workers) {
  CampaignOptions opts;
  opts.seed = 1;
  opts.iterations = kIterations;
  opts.initial_nprocs = 2;
  opts.max_procs = 2;
  opts.workers = workers;
  opts.log_dir = dir.string();
  return opts;
}

CampaignResult run_susy(const CampaignOptions& opts) {
  return Campaign(targets::make_mini_susy_target(), opts).run();
}

/// Runs to kKillAfter iterations and stops without a summary, as a killed
/// process would; returns how many rows the stopped process appended.  The
/// halt hook snapshots at the stop; a real SIGKILL between periodic
/// checkpoints leaves only an earlier one, so `between_checkpoints` drops
/// the halt snapshot and the session resumes from checkpoint.txt.bak.
std::size_t run_until_killed(const fs::path& dir, int workers,
                             bool between_checkpoints) {
  CampaignOptions opts = susy_opts(dir, workers);
  opts.halt_after_iterations = kKillAfter;
  const CampaignResult partial = run_susy(opts);
  EXPECT_GE(partial.iterations.size(), static_cast<std::size_t>(kKillAfter));
  EXPECT_FALSE(fs::exists(dir / "summary.txt"));
  if (between_checkpoints) {
    fs::rename(dir / "checkpoint.txt.bak", dir / "checkpoint.txt");
  }
  return partial.iterations.size();
}

CampaignResult resume(const fs::path& dir, int workers) {
  CampaignOptions opts = susy_opts(dir, workers);
  opts.resume = true;
  return run_susy(opts);
}

/// The serial session must equal the uninterrupted one in every artifact
/// but the timings.
void expect_same_session(const fs::path& got, const fs::path& want) {
  EXPECT_EQ(csv_without_timings(got), csv_without_timings(want));
  EXPECT_EQ(covered_set(got), covered_set(want));
  EXPECT_EQ(slurp(got / "bugs.txt"), slurp(want / "bugs.txt"));
  const std::vector<RankLogRecord> got_logs = read_rank_logs(got);
  const std::vector<RankLogRecord> want_logs = read_rank_logs(want);
  EXPECT_EQ(got_logs.size(), want_logs.size());
  EXPECT_TRUE(got_logs == want_logs);
}

TEST(SessionResume, SerialKillAt137MatchesTheUninterruptedSession) {
  TempDir full, killed;
  const CampaignResult want = run_susy(susy_opts(full.path, 1));
  ASSERT_EQ(want.iterations.size(), static_cast<std::size_t>(kIterations));

  run_until_killed(killed.path, 1, /*between_checkpoints=*/false);
  const CampaignResult got = resume(killed.path, 1);
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(got.covered_branches, want.covered_branches);
  expect_same_session(killed.path, full.path);
}

TEST(SessionResume, SerialKillBetweenCheckpointsDropsTheRowsPastTheOffset) {
  TempDir full, killed;
  (void)run_susy(susy_opts(full.path, 1));
  const std::size_t appended =
      run_until_killed(killed.path, 1, /*between_checkpoints=*/true);
  {
    // The snapshot left in place is the periodic one at 125: rows and rank
    // logs of iterations 125..136 lie past its offsets.
    const auto point = read_resume_point(killed.path);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->checkpoint.next_iteration, 125);
    EXPECT_EQ(point->iterations.size(), 125u);
    EXPECT_LT(point->iterations.size(), appended);
  }
  const CampaignResult got = resume(killed.path, 1);
  EXPECT_TRUE(got.resumed);
  expect_same_session(killed.path, full.path);
}

TEST(SessionResume, TornCsvRowAndRankLogAfterTheOffsetAreDropped) {
  TempDir full, killed;
  (void)run_susy(susy_opts(full.path, 1));
  run_until_killed(killed.path, 1, /*between_checkpoints=*/false);
  {
    // The kill landed mid-append in both files.
    std::ofstream csv(killed.path / "iterations.csv",
                      std::ios::binary | std::ios::app);
    csv << "137,2,0,seg";
    std::ofstream logs(killed.path / "rank_logs.txt",
                       std::ios::binary | std::ios::app);
    logs << "rank_log 137 0 900\nrank 0 nprocs 2 mode he";
  }
  const CampaignResult got = resume(killed.path, 1);
  EXPECT_TRUE(got.resumed);
  expect_same_session(killed.path, full.path);
  EXPECT_EQ(slurp(killed.path / "iterations.csv").find(",seg\n"),
            std::string::npos);
}

/// Two workers finish iterations in whatever order the OS schedules them,
/// so their search is not a function of the seed (the same holds without a
/// kill).  What a resume must keep is the session's shape: every ordinal
/// exactly once, by ordinal, the killed process's prefix unchanged, and
/// one rank log per rank of every row.
TEST(SessionResume, TwoWorkerKillBetweenCheckpointsKeepsTheSessionWhole) {
  TempDir full, killed;
  const CampaignResult want = run_susy(susy_opts(full.path, 2));
  const std::size_t appended =
      run_until_killed(killed.path, 2, /*between_checkpoints=*/true);
  const std::optional<ResumePoint> point = read_resume_point(killed.path);
  ASSERT_TRUE(point.has_value());
  const int prefix = point->checkpoint.next_iteration;
  ASSERT_GT(prefix, 0);
  ASSERT_EQ(point->iterations.size(), static_cast<std::size_t>(prefix));
  EXPECT_LE(point->iterations.size(), appended);

  const CampaignResult got = resume(killed.path, 2);
  EXPECT_TRUE(got.resumed);
  EXPECT_EQ(covered_set(killed.path), covered_set(full.path));
  EXPECT_EQ(got.covered_branches, want.covered_branches);
  const auto bug_kinds = [](const fs::path& dir) {
    std::multiset<std::string> kinds;
    for (const LoggedBug& b : read_bugs(dir / "bugs.txt")) {
      kinds.insert(std::string(rt::to_string(b.outcome)) + ' ' + b.message);
    }
    return kinds;
  };
  EXPECT_EQ(bug_kinds(killed.path), bug_kinds(full.path));
  EXPECT_EQ(bug_kinds(killed.path).size(), 4u);

  const std::vector<std::string> rows = csv_without_timings(killed.path);
  ASSERT_EQ(rows.size(), static_cast<std::size_t>(kIterations) + 1);
  for (int i = 0; i < kIterations; ++i) {
    const std::string& row = rows[static_cast<std::size_t>(i) + 1];
    EXPECT_EQ(row.substr(0, row.find(',')), std::to_string(i));
  }
  for (int i = 0; i < prefix; ++i) {
    // The resumed session starts from exactly the prefix the snapshot
    // vouched for.
    const IterationRecord& a = point->iterations[static_cast<std::size_t>(i)];
    const IterationRecord& b = got.iterations[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.covered_branches, b.covered_branches);
    EXPECT_EQ(a.exec_seconds, b.exec_seconds);
  }
  std::vector<int> logs_per_iteration(kIterations, 0);
  for (const RankLogRecord& r : read_rank_logs(killed.path)) {
    ASSERT_GE(r.iteration, 0);
    ASSERT_LT(r.iteration, kIterations);
    ++logs_per_iteration[static_cast<std::size_t>(r.iteration)];
  }
  for (const IterationRecord& r : got.iterations) {
    EXPECT_EQ(logs_per_iteration[static_cast<std::size_t>(r.iteration)],
              r.nprocs)
        << "iteration " << r.iteration;
  }
}

TEST(SessionResume, CheckpointSizeStaysFlatInCampaignLength) {
  // The snapshot holds campaign state, not history: four times the
  // iterations must not make it grow with the row count.
  TempDir short_run, long_run;
  CampaignOptions a = susy_opts(short_run.path, 1);
  a.iterations = 500;
  CampaignOptions b = susy_opts(long_run.path, 1);
  b.iterations = 2000;
  (void)run_susy(a);
  (void)run_susy(b);
  const auto short_size = fs::file_size(short_run.path / "checkpoint.txt");
  const auto long_size = fs::file_size(long_run.path / "checkpoint.txt");
  EXPECT_LT(static_cast<double>(long_size),
            1.5 * static_cast<double>(short_size))
      << short_size << " bytes after 500 iterations, " << long_size
      << " after 2000";
}

}  // namespace
}  // namespace compi
