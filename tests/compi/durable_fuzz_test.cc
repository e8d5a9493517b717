// Fuzzing the durable-format parsers: random truncation and bit-flips of
// checkpoint.txt, journal.jsonl, iterations.csv, ledger.csv, bugs.txt and
// summary.txt must NEVER crash the readers — every corruption degrades to
// a clean fallback (nullopt / skipped lines / empty vector), and a resumed
// campaign over a corrupted session starts fresh and still completes.
//
// The corpus is real: one serial and one 2-worker fig2 session are run
// once and their artifacts mutated deterministically (mt19937, fixed
// seed), so failures reproduce exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

#include "compi/checkpoint.h"
#include "compi/driver.h"
#include "compi/explain.h"
#include "compi/session.h"
#include "obs/journal.h"
#include "sandbox/wire.h"
#include "tests/compi/fig2_target.h"

namespace compi {
namespace {

namespace fs = std::filesystem;
using compi::testing::fig2_target;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("compi_fuzz_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::remove_all(path);
    fs::create_directories(path);
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

void spit(const fs::path& file, const std::string& bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Pristine artifacts from one real session of each shape, produced once.
struct Corpus {
  std::string serial_checkpoint;
  std::string parallel_checkpoint;
  /// A current-version snapshot with the coordinator section populated
  /// (leases and shard cursors with hostile shard names), as
  /// `compi coordinate` writes.
  std::string coordinator_checkpoint;
  std::string journal;
  std::string iterations_csv;
  std::string ledger_csv;
  std::string bugs_txt;
  std::string summary_txt;
  /// A serial session killed after 33 iterations (checkpoints every 5):
  /// its head snapshot (next_iteration 33), the .bak before it (30), and
  /// the append-only files both point into.
  std::string halted_checkpoint;
  std::string halted_checkpoint_bak;
  std::string halted_csv;
  std::string halted_rank_logs;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    Corpus out;
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.journal = true;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.serial_checkpoint = slurp(dir.path / "checkpoint.txt");
      out.journal = slurp(dir.path / "journal.jsonl");
      out.iterations_csv = slurp(dir.path / "iterations.csv");
      out.ledger_csv = slurp(dir.path / "ledger.csv");
      out.bugs_txt = slurp(dir.path / "bugs.txt");
      out.summary_txt = slurp(dir.path / "summary.txt");
    }
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.workers = 2;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.parallel_checkpoint = slurp(dir.path / "checkpoint.txt");
    }
    {
      TempDir dir;
      CampaignOptions opts;
      opts.seed = 11;
      opts.iterations = 40;
      opts.initial_nprocs = 4;
      opts.max_procs = 8;
      opts.dfs_phase_iterations = 20;
      opts.checkpoint_interval = 5;
      opts.halt_after_iterations = 33;
      opts.log_dir = dir.path.string();
      (void)Campaign(fig2_target(), opts).run();
      out.halted_checkpoint = slurp(dir.path / "checkpoint.txt");
      out.halted_checkpoint_bak = slurp(dir.path / "checkpoint.txt.bak");
      out.halted_csv = slurp(dir.path / "iterations.csv");
      out.halted_rank_logs = slurp(dir.path / "rank_logs.txt");
    }
    {
      // Coordinator snapshots are the serial shape plus the coord section;
      // graft one onto the real serial snapshot so every other field stays
      // a genuine campaign state.
      std::istringstream is(out.serial_checkpoint);
      std::optional<ckpt::CampaignCheckpoint> cp =
          ckpt::CampaignCheckpoint::read(is);
      if (cp.has_value()) {
        cp->is_coordinator = true;
        cp->coord_budget = 480;
        cp->coord_completed = 123;
        cp->coord_next_lease_id = 9;
        cp->coord_leases.push_back({7, "rack 7@2a", 16});
        cp->coord_leases.push_back({8, "line\nbreak@ff", 4});
        cp->coord_shards.push_back({"rack 7@2a", 64, 3});
        cp->coord_shards.push_back({"line\nbreak@ff", 59, 0});
        std::ostringstream os;
        cp->write(os);
        out.coordinator_checkpoint = os.str();
      }
    }
    return out;
  }();
  return c;
}

/// One random mutation: truncate at a random offset, flip 1-8 random
/// bits, or splice a short burst of random bytes.
std::string mutate(const std::string& pristine, std::mt19937& rng) {
  std::string bytes = pristine;
  if (bytes.empty()) return bytes;
  switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
    case 0: {  // truncation (torn write)
      bytes.resize(std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(rng));
      break;
    }
    case 1: {  // bit flips (media corruption)
      const int flips = std::uniform_int_distribution<int>(1, 8)(rng);
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = std::uniform_int_distribution<std::size_t>(
            0, bytes.size() - 1)(rng);
        bytes[pos] = static_cast<char>(
            bytes[pos] ^ (1 << std::uniform_int_distribution<int>(0, 7)(rng)));
      }
      break;
    }
    default: {  // garbage splice (interleaved writer residue)
      const std::size_t pos = std::uniform_int_distribution<std::size_t>(
          0, bytes.size() - 1)(rng);
      std::string burst;
      const int len = std::uniform_int_distribution<int>(1, 64)(rng);
      for (int i = 0; i < len; ++i) {
        burst.push_back(static_cast<char>(
            std::uniform_int_distribution<int>(0, 255)(rng)));
      }
      bytes.insert(pos, burst);
      break;
    }
  }
  return bytes;
}

constexpr int kMutationsPerArtifact = 120;

TEST(DurableFuzz, CheckpointReadNeverCrashes) {
  std::mt19937 rng(0xC0FFEE);
  for (const std::string* pristine :
       {&corpus().serial_checkpoint, &corpus().parallel_checkpoint,
        &corpus().coordinator_checkpoint}) {
    ASSERT_FALSE(pristine->empty());
    // Sanity: the unmutated snapshot parses.
    {
      std::istringstream is(*pristine);
      EXPECT_TRUE(ckpt::CampaignCheckpoint::read(is).has_value());
    }
    for (int i = 0; i < kMutationsPerArtifact; ++i) {
      std::istringstream is(mutate(*pristine, rng));
      // Either a clean reject or a fully parsed struct — never a crash.
      (void)ckpt::CampaignCheckpoint::read(is);
    }
  }
}

TEST(DurableFuzz, OldVersionCheckpointIsRejectedCleanly) {
  // v8 (iteration rows inside the snapshot, no session line), v7
  // (pre-fork-server, no sandbox2 line) and any other non-current version
  // must be refused by design: the campaign falls back to a fresh start.
  for (const char* version :
       {"0", "1", "2", "3", "4", "5", "6", "7", "8", "99", "-5"}) {
    std::string bytes = corpus().serial_checkpoint;
    const std::string current =
        "compi-checkpoint " + std::to_string(ckpt::CampaignCheckpoint::kVersion);
    ASSERT_EQ(bytes.rfind(current, 0), 0u);
    bytes.replace(0, current.size(),
                  std::string("compi-checkpoint ") + version);
    std::istringstream is(bytes);
    EXPECT_FALSE(ckpt::CampaignCheckpoint::read(is).has_value()) << version;
  }
}

TEST(DurableFuzz, JournalReadersTolerateAnyCorruption) {
  std::mt19937 rng(0x10BBED);
  TempDir dir;
  const fs::path file = dir.path / "journal.jsonl";
  ASSERT_FALSE(corpus().journal.empty());
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    spit(file, mutate(corpus().journal, rng));
    std::size_t malformed = 0;
    (void)obs::read_journal(file, &malformed);
    obs::Journal j;
    // Resume-open must truncate/skip, never crash; boundary varies.
    (void)j.open_resume(file, std::uniform_int_distribution<int>(0, 50)(rng));
    j.close();
  }
}

TEST(DurableFuzz, SessionCsvReadersTolerateAnyCorruption) {
  std::mt19937 rng(0x5E55104);
  TempDir dir;
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    spit(dir.path / "ledger.csv", mutate(corpus().ledger_csv, rng));
    spit(dir.path / "iterations.csv", mutate(corpus().iterations_csv, rng));
    spit(dir.path / "journal.jsonl", mutate(corpus().journal, rng));
    spit(dir.path / "bugs.txt", mutate(corpus().bugs_txt, rng));
    spit(dir.path / "summary.txt", mutate(corpus().summary_txt, rng));
    (void)read_ledger_csv(dir.path / "ledger.csv");
    (void)read_bugs(dir.path / "bugs.txt");
    (void)read_summary(dir.path / "summary.txt");
    // --explain replays the whole directory; it must render or decline.
    std::ostringstream report;
    (void)explain_session(dir.path, report);
  }
}

TEST(DurableFuzz, ForkServerWireFramesTolerateAnyCorruption) {
  // The fork-server control/status dialect rides the same length-prefixed
  // framing as the result pipe.  Truncated, bit-flipped, or spliced frame
  // streams must never crash the supervisor-side parsers — the engine's
  // contract is a clean reject (and a cold-fork fallback), not a fault.
  std::mt19937 rng(0xF0AC5E);

  sandbox::SpawnRequest req;
  req.nprocs = 4;
  req.focus = 2;
  req.inputs[0] = 77;
  req.inputs[1] = 33;
  req.match_schedule = true;
  req.match_plan = {{0, 0, 2}, {1, 1, 0}};
  req.chaos.crash_rank = 1;

  rt::VarRegistry registry;
  registry.intern("x", rt::VarKind::kRegular, solver::int32_domain(), 500);
  registry.intern("y", rt::VarKind::kRegular, solver::int32_domain(), 500);

  std::string ctl_stream;  // what the supervisor sends the server
  sandbox::append_frame(ctl_stream, sandbox::FrameType::kRegistry,
                        sandbox::encode_registry_suffix(registry, 0));
  sandbox::append_frame(ctl_stream, sandbox::FrameType::kSpawn,
                        sandbox::encode_spawn_request(req));

  std::string st_stream;  // what the server answers with
  sandbox::append_frame(st_stream, sandbox::FrameType::kHello,
                        "compi-fork-server 1 12345");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus,
                        "spawned 12346");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus, "reaped 0");
  sandbox::append_frame(st_stream, sandbox::FrameType::kStatus,
                        "reject malformed spawn request");

  for (const std::string* pristine : {&ctl_stream, &st_stream}) {
    for (int i = 0; i < kMutationsPerArtifact; ++i) {
      const std::string bytes = mutate(*pristine, rng);
      sandbox::FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      while (std::optional<sandbox::Frame> f = reader.next()) {
        // Decode each surviving frame exactly the way the two endpoints
        // do; success or clean rejection are both acceptable.
        switch (f->type) {
          case sandbox::FrameType::kSpawn: {
            sandbox::SpawnRequest out;
            (void)sandbox::decode_spawn_request(f->payload, out);
            break;
          }
          case sandbox::FrameType::kRegistry: {
            rt::VarRegistry scratch;
            (void)sandbox::apply_registry(f->payload, scratch);
            break;
          }
          case sandbox::FrameType::kResult: {
            minimpi::RunResult out;
            (void)sandbox::decode_run_result(f->payload, out);
            break;
          }
          default:
            break;  // kHello/kStatus/kError/kSignal: free-text payloads
        }
      }
    }
  }
}

TEST(DurableFuzz, ResumeOverCorruptedCheckpointStillCompletes) {
  // End to end: a resume pointed at a corrupted snapshot (and no usable
  // .bak) must fall back to a fresh campaign and run to its budget.
  std::mt19937 rng(0x2E5013);
  for (int i = 0; i < 4; ++i) {
    TempDir dir;
    spit(dir.path / "checkpoint.txt", mutate(corpus().serial_checkpoint, rng));
    CampaignOptions opts;
    opts.seed = 11;
    opts.iterations = 30;
    opts.initial_nprocs = 4;
    opts.max_procs = 8;
    opts.dfs_phase_iterations = 20;
    opts.resume = true;
    opts.log_dir = dir.path.string();
    const CampaignResult result = Campaign(fig2_target(), opts).run();
    EXPECT_EQ(result.iterations.size(), 30u)
        << (result.resumed ? "resumed a corrupt snapshot?" : "fresh");
  }
}

// ---------------------------------------------------------------------------
// v9: the snapshot's SessionMark must agree with the session files.
// ---------------------------------------------------------------------------

/// `checkpoint` with its `session` line replaced by the given numbers.
std::string with_mark(const std::string& checkpoint,
                      const std::string& numbers) {
  const std::size_t at = checkpoint.find("\nsession ");
  if (at == std::string::npos) return checkpoint;
  const std::size_t end = checkpoint.find('\n', at + 1);
  return checkpoint.substr(0, at) + "\nsession " + numbers +
         checkpoint.substr(end);
}

ckpt::SessionMark mark_of(const std::string& checkpoint) {
  std::istringstream is(checkpoint);
  const auto c = ckpt::CampaignCheckpoint::read(is);
  return c ? c->session : ckpt::SessionMark{};
}

std::string numbers(const ckpt::SessionMark& m) {
  return std::to_string(m.csv_offset) + ' ' + std::to_string(m.csv_rows) +
         ' ' + std::to_string(m.csv_hash) + ' ' +
         std::to_string(m.rank_log_offset) + ' ' +
         std::to_string(m.rank_log_records);
}

/// Writes the halted serial session (.bak, CSV, rank logs) into `dir`,
/// with `head` as its checkpoint.txt.
void plant_session(const fs::path& dir, const std::string& head) {
  spit(dir / "checkpoint.txt", head);
  spit(dir / "checkpoint.txt.bak", corpus().halted_checkpoint_bak);
  spit(dir / "iterations.csv", corpus().halted_csv);
  spit(dir / "rank_logs.txt", corpus().halted_rank_logs);
}

TEST(DurableFuzz, SessionMarkThatDisagreesWithTheFilesFallsBackToBak) {
  const ckpt::SessionMark head = mark_of(corpus().halted_checkpoint);
  const ckpt::SessionMark bak = mark_of(corpus().halted_checkpoint_bak);
  ASSERT_GT(head.csv_rows, bak.csv_rows);
  ASSERT_GT(head.rank_log_records, 0u);
  ASSERT_EQ(head.csv_offset, corpus().halted_csv.size());
  ASSERT_EQ(head.rank_log_offset, corpus().halted_rank_logs.size());

  TempDir dir;
  plant_session(dir.path, corpus().halted_checkpoint);
  {
    const auto point = read_resume_point(dir.path);
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(point->iterations.size(), head.csv_rows);
    EXPECT_EQ(point->rank_logs.size(), head.rank_log_records);
  }

  // The CSV row boundary just before the head's offset: cutting there
  // puts the offset mid-row with respect to the shorter prefix.
  const std::size_t last_row =
      corpus().halted_csv.rfind('\n', head.csv_offset - 2) + 1;
  std::vector<std::pair<const char*, ckpt::SessionMark>> bad;
  auto m = head;
  m.csv_offset = head.csv_offset + 1;  // past the end of iterations.csv
  bad.emplace_back("csv offset past end", m);
  m = head;
  m.csv_offset = head.csv_offset - 3;  // mid-row
  bad.emplace_back("csv offset mid-row", m);
  m = head;
  m.csv_rows = head.csv_rows + 1;
  bad.emplace_back("csv row count too high", m);
  m = head;
  m.csv_offset = last_row;  // a boundary, but one row fewer than recorded
  bad.emplace_back("csv row count too low", m);
  m = head;
  m.csv_offset = 0;  // "no CSV" while rows are recorded
  bad.emplace_back("csv absent with rows", m);
  m = head;
  m.csv_hash = head.csv_hash ^ 1;  // a row changed in place
  bad.emplace_back("csv hash", m);
  m = head;
  m.rank_log_offset = head.rank_log_offset + 1;
  bad.emplace_back("rank log offset past end", m);
  m = head;
  m.rank_log_offset = head.rank_log_offset - 1;
  bad.emplace_back("rank log offset mid-record", m);
  m = head;
  m.rank_log_records = head.rank_log_records - 1;
  bad.emplace_back("rank log record count", m);

  for (const auto& [what, mark] : bad) {
    plant_session(dir.path, with_mark(corpus().halted_checkpoint,
                                      numbers(mark)));
    const auto point = read_resume_point(dir.path);
    ASSERT_TRUE(point.has_value()) << what;
    EXPECT_EQ(point->checkpoint.session.csv_rows, bak.csv_rows) << what;
    EXPECT_EQ(point->iterations.size(), bak.csv_rows) << what;
    EXPECT_EQ(point->rank_logs.size(), bak.rank_log_records) << what;
  }

  // With the .bak disagreeing too, nothing is resumable: a resume starts
  // fresh and runs its whole budget.
  m = bak;
  m.csv_offset = corpus().halted_csv.size() + 100;
  plant_session(dir.path, with_mark(corpus().halted_checkpoint,
                                    numbers(bad.front().second)));
  spit(dir.path / "checkpoint.txt.bak",
       with_mark(corpus().halted_checkpoint_bak, numbers(m)));
  EXPECT_FALSE(read_resume_point(dir.path).has_value());
  CampaignOptions opts;
  opts.seed = 11;
  opts.iterations = 40;
  opts.initial_nprocs = 4;
  opts.max_procs = 8;
  opts.dfs_phase_iterations = 20;
  opts.resume = true;
  opts.log_dir = dir.path.string();
  const CampaignResult result = Campaign(fig2_target(), opts).run();
  EXPECT_FALSE(result.resumed);
  EXPECT_EQ(result.iterations.size(), 40u);
}

TEST(DurableFuzz, SessionMarkFieldsTolerateAnyCorruption) {
  // Seeded mutations of the four mark numbers (and of the session files
  // they point into): every read either resumes exactly the recorded rows
  // of one snapshot or declines — never a crash, never a partial prefix.
  std::mt19937 rng(0x5E5510);
  const ckpt::SessionMark head = mark_of(corpus().halted_checkpoint);
  const ckpt::SessionMark bak = mark_of(corpus().halted_checkpoint_bak);
  const auto mutate_number = [&](std::uint64_t v) -> std::string {
    switch (std::uniform_int_distribution<int>(0, 5)(rng)) {
      case 0: return "0";
      case 1: return std::to_string(v + 1);
      case 2: return std::to_string(v == 0 ? 0 : v - 1);
      case 3: return std::to_string(v ^ (1ULL << std::uniform_int_distribution<
                                              int>(0, 63)(rng)));
      case 4: return "-1";
      default: return "18446744073709551615";
    }
  };
  TempDir dir;
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const std::uint64_t fields[5] = {head.csv_offset, head.csv_rows,
                                     head.csv_hash, head.rank_log_offset,
                                     head.rank_log_records};
    const int which = std::uniform_int_distribution<int>(0, 4)(rng);
    std::string text;
    for (int f = 0; f < 5; ++f) {
      text += (f ? " " : "");
      text += f == which ? mutate_number(fields[f]) : std::to_string(fields[f]);
    }
    plant_session(dir.path, with_mark(corpus().halted_checkpoint, text));
    switch (i % 3) {  // also tear the files the marks point into
      case 1:
        spit(dir.path / "iterations.csv",
             mutate(corpus().halted_csv, rng));
        break;
      case 2:
        spit(dir.path / "rank_logs.txt", mutate(corpus().halted_rank_logs, rng));
        break;
      default:
        break;
    }
    const auto point = read_resume_point(dir.path);
    if (!point) continue;
    const ckpt::SessionMark& got = point->checkpoint.session;
    EXPECT_TRUE(got.csv_rows == head.csv_rows || got.csv_rows == bak.csv_rows)
        << text;
    EXPECT_EQ(point->iterations.size(), got.csv_rows) << text;
    // Rank-log framing is checked, not hashed: a flipped digit in a record
    // header can still move that one record out of the kept range.
    EXPECT_LE(point->rank_logs.size(), got.rank_log_records) << text;
    for (std::size_t r = 0; r < point->iterations.size(); ++r) {
      EXPECT_EQ(point->iterations[r].iteration, static_cast<int>(r)) << text;
    }
  }
}

TEST(DurableFuzz, RankLogReaderToleratesAnyCorruption) {
  std::mt19937 rng(0x4A9C10);
  TempDir dir;
  const std::vector<RankLogRecord> pristine = [&] {
    spit(dir.path / "rank_logs.txt", corpus().halted_rank_logs);
    return read_rank_logs(dir.path);
  }();
  ASSERT_FALSE(pristine.empty());
  for (int i = 0; i < kMutationsPerArtifact; ++i) {
    const std::string bytes = mutate(corpus().halted_rank_logs, rng);
    spit(dir.path / "rank_logs.txt", bytes);
    const std::vector<RankLogRecord> got = read_rank_logs(dir.path);
    if (bytes.size() < corpus().halted_rank_logs.size() &&
        corpus().halted_rank_logs.compare(0, bytes.size(), bytes) == 0) {
      // A torn tail keeps exactly the complete records before it.
      ASSERT_LE(got.size(), pristine.size());
      for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r], pristine[r]);
      }
    }
  }
}

}  // namespace
}  // namespace compi
