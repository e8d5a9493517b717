// File-based testing sessions.
//
// The paper's tool communicates with the target through files: every
// process writes its log after each execution, COMPI reads them to drive
// the next test, and error-inducing inputs are logged for later analysis
// (§II-A, §V).  SessionWriter reproduces that on-disk layout:
//
//   <dir>/rank_logs.txt           every rank's execution log, appended one
//                                 record per rank per iteration:
//                                 a `rank_log <iteration> <rank> <bytes>`
//                                 line, then <bytes> of TestLog::serialize()
//   <dir>/iterations.csv          one row per iteration (coverage curves,
//                                 constraint-set sizes, timings) — the one
//                                 durable record of iterations
//   <dir>/bugs.txt                each bug with its error-inducing inputs
//   <dir>/summary.txt             end-of-campaign totals
//   <dir>/checkpoint.txt          periodic resume snapshot (crash recovery)
//
// rank_logs.txt and iterations.csv are append-only and flushed once per
// iteration.  A checkpoint records how far each reached (ckpt::SessionMark);
// a resume keeps what lies before those offsets and drops the rest, so a
// torn trailing row or record never survives.
#pragma once

#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/ledger.h"
#include "minimpi/launcher.h"

namespace compi {

/// A bug read back from a session's bugs.txt — replayable via run_fixed.
struct LoggedBug {
  rt::Outcome outcome = rt::Outcome::kOk;
  std::string message;
  int first_iteration = 0;
  int occurrences = 0;
  int nprocs = 0;
  int focus = 0;
  bool flaky = false;
  std::map<std::string, std::int64_t> inputs;
  /// Wildcard decision vector of the failing run (match-scheduled
  /// campaigns only; empty otherwise).
  minimpi::MatchPlan decisions;
};

/// Parses a session's bugs.txt (written by SessionWriter::write_summary).
[[nodiscard]] std::vector<LoggedBug> read_bugs(
    const std::filesystem::path& bugs_file);

/// Parses a session's summary.txt into key -> value.
[[nodiscard]] std::map<std::string, std::string> read_summary(
    const std::filesystem::path& summary_file);

/// One record of rank_logs.txt: a rank's serialized TestLog.
struct RankLogRecord {
  int iteration = 0;
  int rank = 0;
  std::string log;

  bool operator==(const RankLogRecord&) const = default;
};

/// Parses <dir>/rank_logs.txt in file order.  Stops at the first torn or
/// malformed record (a writer killed mid-append), keeping those before it.
[[nodiscard]] std::vector<RankLogRecord> read_rank_logs(
    const std::filesystem::path& dir);

/// What a resumed campaign continues from: a checkpoint that agrees with
/// the session files, and the iterations.csv rows and rank_logs.txt
/// records before its `next_iteration`, sorted by iteration (parallel
/// workers append in completion order).
struct ResumePoint {
  ckpt::CampaignCheckpoint checkpoint;
  std::vector<IterationRecord> iterations;
  std::vector<RankLogRecord> rank_logs;
};

/// Loads <dir>/checkpoint.txt, else <dir>/checkpoint.txt.bak.  A snapshot
/// counts as unreadable when it does not parse, or when its SessionMark
/// disagrees with the files: an offset past the end of iterations.csv or
/// rank_logs.txt, an offset in the middle of a row or record, a malformed
/// row before the offset, a row/record count other than the recorded one,
/// or a CSV prefix whose hash differs.  nullopt when neither snapshot is
/// readable.
[[nodiscard]] std::optional<ResumePoint> read_resume_point(
    const std::filesystem::path& dir);

/// read_resume_point's checkpoint alone.
[[nodiscard]] std::optional<ckpt::CampaignCheckpoint> read_checkpoint(
    const std::filesystem::path& dir);

class SessionWriter {
 public:
  /// Creates (or reuses) the session directory.  `keep_rank_logs` limits
  /// rank-log retention: 0 keeps none, -1 keeps all; otherwise only the
  /// first N iterations' logs are kept (they get large).
  explicit SessionWriter(std::filesystem::path dir, int keep_rank_logs = -1);

  /// Appends every rank's log for one iteration to rank_logs.txt and
  /// flushes it.  Opens (truncates) the file on first use when
  /// begin_iterations was not called.
  void write_iteration(int iteration, const minimpi::RunResult& run);

  /// Opens iterations.csv and rank_logs.txt for incremental appends.  A
  /// fresh campaign (nothing restored) truncates both; a resumed one
  /// rewrites each from its `restored` prefix through tmp + rename, so a
  /// crash mid-rewrite leaves the previous file whole.
  void begin_iterations(const std::vector<IterationRecord>& restored,
                        const std::vector<RankLogRecord>& restored_logs = {});

  /// Appends one row to iterations.csv and flushes it to disk.
  void append_iteration(const IterationRecord& rec);

  /// How far iterations.csv and rank_logs.txt reach right now; a
  /// checkpoint stores it so a resume knows which rows it covers.
  [[nodiscard]] const ckpt::SessionMark& mark() const { return mark_; }

  /// Writes bugs.txt and summary.txt, and finishes iterations.csv.  A CSV
  /// opened by begin_iterations already holds every row: it is rewritten
  /// (tmp + rename, by ordinal from `result`) only when rows were appended
  /// out of order.  Callers that never used begin_iterations — e.g. the
  /// random baseline tester — get the whole file written here.
  void write_summary(const CampaignResult& result);

  /// Atomically replaces <dir>/checkpoint.txt (write-to-temp + rename, so a
  /// kill mid-write never leaves a truncated snapshot).
  void write_checkpoint(const ckpt::CampaignCheckpoint& checkpoint);

  /// Rewrites <dir>/ledger.csv from the attribution ledger (called at every
  /// checkpoint and at campaign end, like the obs exports).
  void write_ledger(const CoverageLedger& ledger, const rt::BranchTable& table);

  /// Rewrites <dir>/coverage_timeline.csv: one row per iteration that
  /// increased cumulative coverage (iteration, covered_branches,
  /// new_branches) — the file bench tables and --explain build
  /// iterations-to-coverage columns from.  Only rows with iteration <
  /// `below` count; they are taken in ordinal order whatever their order
  /// in `iterations`.
  void write_coverage_timeline(const std::vector<IterationRecord>& iterations,
                               int below = std::numeric_limits<int>::max());

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
  int keep_rank_logs_;
  /// Open while incremental appends are active (begin_iterations called).
  std::ofstream csv_;
  std::ofstream rank_logs_;
  ckpt::SessionMark mark_;
  /// Whether every appended row's ordinal exceeded the previous one's.
  bool csv_in_order_ = true;
  int last_csv_iteration_ = -1;
};

}  // namespace compi
