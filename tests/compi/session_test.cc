#include "compi/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "compi/fixed_run.h"
#include "targets/targets.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_session_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const RankLogRecord* find_log(const std::vector<RankLogRecord>& logs,
                              int iteration, int rank) {
  for (const RankLogRecord& r : logs) {
    if (r.iteration == iteration && r.rank == rank) return &r;
  }
  return nullptr;
}

CampaignOptions session_opts(const fs::path& dir, int iterations = 30) {
  CampaignOptions opts;
  opts.seed = 9;
  opts.iterations = iterations;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 10;
  opts.log_dir = dir.string();
  return opts;
}

TEST(Session, WritesIterationLogsAndSummary) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path));
  const CampaignResult result = campaign.run();

  EXPECT_TRUE(fs::exists(tmp.path / "iterations.csv"));
  EXPECT_TRUE(fs::exists(tmp.path / "summary.txt"));
  EXPECT_TRUE(fs::exists(tmp.path / "bugs.txt"));
  const std::vector<RankLogRecord> logs = read_rank_logs(tmp.path);
  EXPECT_TRUE(find_log(logs, 0, 0) != nullptr);
  EXPECT_TRUE(find_log(logs, 0, 3) != nullptr);

  // iterations.csv: header + one row per iteration.
  const std::string csv = slurp(tmp.path / "iterations.csv");
  const auto rows = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(rows, static_cast<std::ptrdiff_t>(result.iterations.size()) + 1);

  const std::string summary = slurp(tmp.path / "summary.txt");
  EXPECT_NE(summary.find("covered_branches " +
                         std::to_string(result.covered_branches)),
            std::string::npos);
}

TEST(Session, FocusLogHeavyOthersLight) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path, 5));
  (void)campaign.run();
  const std::vector<RankLogRecord> logs = read_rank_logs(tmp.path);
  ASSERT_TRUE(find_log(logs, 0, 0) != nullptr);
  ASSERT_TRUE(find_log(logs, 0, 1) != nullptr);
  const std::string& focus = find_log(logs, 0, 0)->log;
  const std::string& other = find_log(logs, 0, 1)->log;
  EXPECT_NE(focus.find("mode heavy"), std::string::npos);
  EXPECT_NE(other.find("mode light"), std::string::npos);
  EXPECT_GT(focus.size(), other.size());
}

TEST(Session, BugsFileNamesInputs) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 200);
  Campaign campaign(fig2_target(/*with_bug=*/true), opts);
  const CampaignResult result = campaign.run();
  ASSERT_FALSE(result.bugs.empty());
  EXPECT_EQ(result.bugs.front().named_inputs.at("y"), 77);
  const std::string bugs = slurp(tmp.path / "bugs.txt");
  EXPECT_NE(bugs.find("y=77"), std::string::npos)
      << "error-inducing inputs must be replayable by name";
}

TEST(Session, BugsFileRoundTripsAndReplays) {
  // End-to-end replay: hunt bugs in mini-SUSY with a session, read the
  // bugs back from disk, replay each one with run_fixed, and get the same
  // failure kind — the "log error-inducing inputs for further analysis"
  // workflow of paper SV.
  TempDir tmp;
  const TargetInfo target = targets::make_mini_susy_target();
  CampaignOptions opts;
  opts.seed = 42;
  opts.iterations = 250;
  opts.dfs_phase_iterations = 50;
  opts.log_dir = tmp.path.string();
  const CampaignResult live = Campaign(target, opts).run();
  ASSERT_GE(live.bugs.size(), 3u);

  const std::vector<LoggedBug> logged = read_bugs(tmp.path / "bugs.txt");
  ASSERT_EQ(logged.size(), live.bugs.size());
  for (const LoggedBug& bug : logged) {
    std::map<std::string, std::int64_t> inputs;
    for (const auto& [k, v] : bug.inputs) {
      if (k.find('#') == std::string::npos) inputs[k] = v;  // regular only
    }
    const auto replay = run_fixed(target, inputs, {.nprocs = bug.nprocs,
                                                   .focus = bug.focus});
    EXPECT_EQ(replay.job_outcome(), bug.outcome) << bug.message;
  }
}

TEST(Session, SummaryRoundTrips) {
  TempDir tmp;
  Campaign campaign(fig2_target(), session_opts(tmp.path, 20));
  const CampaignResult result = campaign.run();
  const auto summary = read_summary(tmp.path / "summary.txt");
  EXPECT_EQ(summary.at("iterations"),
            std::to_string(result.iterations.size()));
  EXPECT_EQ(summary.at("covered_branches"),
            std::to_string(result.covered_branches));
  EXPECT_EQ(summary.at("bugs"), std::to_string(result.bugs.size()));
}

TEST(Session, BugsFileRoundTripsMultiLineMessagesAndFlaky) {
  // Hand-built result: a flaky bug with an embedded newline in its message
  // and a bug with no inputs at all must both survive the disk round-trip.
  TempDir tmp;
  CampaignResult result;
  BugRecord noisy;
  noisy.first_iteration = 3;
  noisy.occurrences = 2;
  noisy.outcome = rt::Outcome::kSegfault;
  noisy.message = "line one\nline two\twith tab";
  noisy.inputs[solver::Var{0}] = 7;
  noisy.named_inputs["x"] = 7;
  noisy.nprocs = 4;
  noisy.focus = 1;
  noisy.flaky = true;
  result.bugs.push_back(noisy);

  BugRecord bare;  // e.g. a hang before any input was read
  bare.first_iteration = 9;
  bare.occurrences = 1;
  bare.outcome = rt::Outcome::kTimeout;
  bare.message = "deadline exceeded";
  bare.nprocs = 2;
  result.bugs.push_back(bare);

  SessionWriter(tmp.path).write_summary(result);
  const std::vector<LoggedBug> logged = read_bugs(tmp.path / "bugs.txt");
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[0].outcome, rt::Outcome::kSegfault);
  EXPECT_EQ(logged[0].message, noisy.message);
  EXPECT_TRUE(logged[0].flaky);
  EXPECT_EQ(logged[0].first_iteration, 3);
  EXPECT_EQ(logged[0].occurrences, 2);
  EXPECT_EQ(logged[0].nprocs, 4);
  EXPECT_EQ(logged[0].focus, 1);
  EXPECT_EQ(logged[1].outcome, rt::Outcome::kTimeout);
  EXPECT_FALSE(logged[1].flaky);
  EXPECT_TRUE(logged[1].inputs.empty());
}

TEST(Session, SummaryReportsRobustnessCounters) {
  TempDir tmp;
  CampaignResult result;
  result.transient_retries = 5;
  result.focus_replans = 2;
  result.resumed = true;
  SessionWriter(tmp.path).write_summary(result);
  const auto summary = read_summary(tmp.path / "summary.txt");
  EXPECT_EQ(summary.at("transient_retries"), "5");
  EXPECT_EQ(summary.at("focus_replans"), "2");
  EXPECT_EQ(summary.at("resumed"), "1");
}

TEST(Session, KeepRankLogsLimit) {
  TempDir tmp;
  SessionWriter writer(tmp.path, /*keep_rank_logs=*/2);
  minimpi::RunResult run;
  run.ranks.resize(1);
  run.ranks[0].log.covered = rt::CoverageBitmap(4);
  writer.write_iteration(0, run);
  writer.write_iteration(1, run);
  writer.write_iteration(2, run);
  const std::vector<RankLogRecord> logs = read_rank_logs(tmp.path);
  EXPECT_TRUE(find_log(logs, 1, 0) != nullptr);
  EXPECT_TRUE(find_log(logs, 2, 0) == nullptr);
  EXPECT_EQ(logs.size(), 2u);
}

TEST(Session, KeepRankLogsZeroCreatesNoIterationDirs) {
  TempDir tmp;
  SessionWriter writer(tmp.path, /*keep_rank_logs=*/0);
  minimpi::RunResult run;
  run.ranks.resize(2);
  writer.write_iteration(0, run);
  writer.write_iteration(1, run);
  EXPECT_TRUE(read_rank_logs(tmp.path).empty());
  EXPECT_FALSE(fs::exists(tmp.path / "rank_logs.txt"));
  EXPECT_FALSE(fs::exists(tmp.path / "iter_0"));
}

TEST(Session, EmptyRunWritesNoIterationDir) {
  TempDir tmp;
  SessionWriter writer(tmp.path);  // keep everything
  minimpi::RunResult run;          // ...but there are no ranks to keep
  writer.write_iteration(0, run);
  EXPECT_TRUE(read_rank_logs(tmp.path).empty());
  EXPECT_FALSE(fs::exists(tmp.path / "iter_0"));
}

TEST(Session, CampaignWritesParsableCheckpoint) {
  TempDir tmp;
  CampaignOptions opts = session_opts(tmp.path, 20);
  opts.checkpoint_interval = 5;
  const CampaignResult result = Campaign(fig2_target(), opts).run();

  const auto checkpoint = read_checkpoint(tmp.path);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->seed, opts.seed);
  // The end-of-campaign snapshot points one past the final iteration.
  EXPECT_EQ(checkpoint->next_iteration, static_cast<int>(opts.iterations));
  // The snapshot holds no rows: it records where the session files end.
  EXPECT_EQ(checkpoint->session.csv_rows, result.iterations.size());
  EXPECT_EQ(checkpoint->session.csv_offset,
            fs::file_size(tmp.path / "iterations.csv"));
  EXPECT_EQ(checkpoint->session.rank_log_records,
            read_rank_logs(tmp.path).size());
  EXPECT_EQ(checkpoint->covered.size(), result.covered_branches);
}

TEST(Session, RankLogsAppendOneRecordPerRankAndStopAtTornTail) {
  TempDir tmp;
  SessionWriter writer(tmp.path);
  minimpi::RunResult run;
  run.ranks.resize(2);
  run.ranks[0].log.heavy = true;
  run.ranks[0].log.nprocs = 2;
  run.ranks[0].log.op_count = 42;
  run.ranks[1].log.rank = 1;
  run.ranks[1].log.nprocs = 2;
  writer.write_iteration(0, run);
  writer.write_iteration(1, run);
  EXPECT_EQ(writer.mark().rank_log_records, 4u);
  EXPECT_EQ(writer.mark().rank_log_offset,
            fs::file_size(tmp.path / "rank_logs.txt"));
  {
    // A writer killed mid-record leaves a header and part of its body.
    std::ofstream out(tmp.path / "rank_logs.txt",
                      std::ios::binary | std::ios::app);
    out << "rank_log 2 0 500\nrank 0 nprocs";
  }
  const std::vector<RankLogRecord> logs = read_rank_logs(tmp.path);
  ASSERT_EQ(logs.size(), 4u);
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_EQ(logs[i].iteration, static_cast<int>(i / 2));
    EXPECT_EQ(logs[i].rank, static_cast<int>(i % 2));
    EXPECT_EQ(logs[i].log, run.ranks[i % 2].log.serialize());
  }
}

/// Rows in the order parallel workers might complete them, with timings
/// that only a shortest-round-trip format reproduces exactly.
std::vector<IterationRecord> completion_order_rows() {
  std::vector<IterationRecord> rows;
  for (int i : {1, 0, 3, 2, 4}) {
    IterationRecord r;
    r.iteration = i;
    r.nprocs = 3;
    r.focus = i % 3;
    r.outcome = i == 3 ? rt::Outcome::kDeadlock : rt::Outcome::kOk;
    r.constraint_set_size = 10 + static_cast<std::size_t>(i);
    r.covered_branches = 20 + static_cast<std::size_t>(i);
    r.exec_seconds = 0.1 * i + 1e-7 / 3.0;
    r.solve_seconds = i / 3.0;
    r.restart = i == 0;
    r.solver_nodes = 1000 + i;
    r.retries = i % 2;
    r.worker = i % 2;
    r.interleaving = i == 3 ? 7 : -1;
    rows.push_back(r);
  }
  return rows;
}

void expect_same_row(const IterationRecord& got, const IterationRecord& want) {
  EXPECT_EQ(got.iteration, want.iteration);
  EXPECT_EQ(got.nprocs, want.nprocs);
  EXPECT_EQ(got.focus, want.focus);
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.constraint_set_size, want.constraint_set_size);
  EXPECT_EQ(got.covered_branches, want.covered_branches);
  EXPECT_EQ(got.exec_seconds, want.exec_seconds);  // bit-exact
  EXPECT_EQ(got.solve_seconds, want.solve_seconds);
  EXPECT_EQ(got.restart, want.restart);
  EXPECT_EQ(got.solver_nodes, want.solver_nodes);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.interleaving, want.interleaving);
}

TEST(Session, ResumePointRestoresCsvRowsExactlyByOrdinal) {
  TempDir tmp;
  const std::vector<IterationRecord> rows = completion_order_rows();
  {
    SessionWriter writer(tmp.path);
    writer.begin_iterations({});
    for (const IterationRecord& r : rows) writer.append_iteration(r);
    ckpt::CampaignCheckpoint c;
    c.seed = 5;
    c.next_iteration = 4;  // iteration 4 completed out of order: re-run
    c.session = writer.mark();
    writer.write_checkpoint(c);
  }
  const std::optional<ResumePoint> point = read_resume_point(tmp.path);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->checkpoint.session.csv_rows, rows.size());
  ASSERT_EQ(point->iterations.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto want = std::find_if(
        rows.begin(), rows.end(),
        [i](const IterationRecord& r) { return r.iteration == i; });
    expect_same_row(point->iterations[static_cast<std::size_t>(i)], *want);
  }
}

ino_t inode(const fs::path& file) {
  struct stat st {};
  return ::stat(file.c_str(), &st) == 0 ? st.st_ino : 0;
}

TEST(Session, WriteSummaryKeepsAnInOrderCsvAndSortsAnOutOfOrderOne) {
  CampaignResult result;
  result.iterations = completion_order_rows();
  std::sort(result.iterations.begin(), result.iterations.end(),
            [](const IterationRecord& a, const IterationRecord& b) {
              return a.iteration < b.iteration;
            });
  {
    // Serial appends arrive in order: the appended file is the final one.
    TempDir tmp;
    SessionWriter writer(tmp.path);
    writer.begin_iterations({});
    for (const IterationRecord& r : result.iterations) {
      writer.append_iteration(r);
    }
    const ino_t before = inode(tmp.path / "iterations.csv");
    const std::string appended = slurp(tmp.path / "iterations.csv");
    writer.write_summary(result);
    EXPECT_EQ(inode(tmp.path / "iterations.csv"), before);
    EXPECT_EQ(slurp(tmp.path / "iterations.csv"), appended);
  }
  {
    // Worker completion order: rewritten once, by ordinal, and the mark
    // follows the rewritten file.
    TempDir tmp;
    SessionWriter writer(tmp.path);
    writer.begin_iterations({});
    for (const IterationRecord& r : completion_order_rows()) {
      writer.append_iteration(r);
    }
    writer.write_summary(result);
    std::ifstream csv(tmp.path / "iterations.csv");
    std::string line;
    std::getline(csv, line);  // header
    int expect = 0;
    while (std::getline(csv, line)) {
      EXPECT_EQ(line.substr(0, line.find(',')), std::to_string(expect++));
    }
    EXPECT_EQ(expect, 5);
    EXPECT_EQ(writer.mark().csv_offset,
              fs::file_size(tmp.path / "iterations.csv"));
    EXPECT_EQ(writer.mark().csv_rows, 5u);
  }
}

}  // namespace
}  // namespace compi
