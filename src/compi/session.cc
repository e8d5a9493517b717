#include "compi/session.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <fstream>
#include <sstream>
#include <string_view>

#include "obs/artifacts.h"

namespace compi {

namespace fs = std::filesystem;

namespace {

std::int64_t to_int(const std::string& s) {
  std::int64_t v = 0;
  (void)std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// Extracts `key=value` tokens from a whitespace-separated tail.
void parse_kv(const std::string& text,
              const std::function<void(const std::string&,
                                       const std::string&)>& sink) {
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) continue;
    sink(token.substr(0, eq), token.substr(eq + 1));
  }
}

}  // namespace

std::vector<LoggedBug> read_bugs(const fs::path& bugs_file) {
  std::vector<LoggedBug> out;
  std::ifstream in(bugs_file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '[') {
      // "[kind] message" (message \-escaped so multi-line faults fit)
      LoggedBug bug;
      const auto close = line.find(']');
      if (close == std::string::npos) continue;
      const auto outcome =
          rt::outcome_from_string(line.substr(1, close - 1));
      if (!outcome) continue;
      bug.outcome = *outcome;
      bug.message =
          ckpt::unescape(line.substr(std::min(close + 2, line.size())));
      out.push_back(std::move(bug));
    } else if (!out.empty() && line.find("first_iteration=") !=
                                   std::string::npos) {
      parse_kv(line, [&](const std::string& k, const std::string& v) {
        if (k == "first_iteration") out.back().first_iteration =
            static_cast<int>(to_int(v));
        else if (k == "occurrences") out.back().occurrences =
            static_cast<int>(to_int(v));
        else if (k == "nprocs") out.back().nprocs =
            static_cast<int>(to_int(v));
        else if (k == "focus") out.back().focus = static_cast<int>(to_int(v));
        else if (k == "flaky") out.back().flaky = to_int(v) != 0;
      });
    } else if (!out.empty() && line.find("inputs:") != std::string::npos) {
      parse_kv(line.substr(line.find("inputs:") + 7),
               [&](const std::string& k, const std::string& v) {
                 out.back().inputs[k] = to_int(v);
               });
    } else if (!out.empty() &&
               line.find("decisions:") != std::string::npos) {
      // "decisions: rank/seq->src ..." — the replayable decision vector.
      std::istringstream in(line.substr(line.find("decisions:") + 10));
      std::string token;
      while (in >> token) {
        const auto slash = token.find('/');
        const auto arrow = token.find("->");
        if (slash == std::string::npos || arrow == std::string::npos ||
            arrow < slash) {
          continue;
        }
        minimpi::MatchDecision d;
        d.rank = static_cast<int>(to_int(token.substr(0, slash)));
        d.seq = static_cast<int>(
            to_int(token.substr(slash + 1, arrow - slash - 1)));
        d.src = static_cast<int>(to_int(token.substr(arrow + 2)));
        out.back().decisions.push_back(d);
      }
    }
  }
  return out;
}

std::map<std::string, std::string> read_summary(const fs::path& summary_file) {
  std::map<std::string, std::string> out;
  std::ifstream in(summary_file);
  std::string key, value;
  while (in >> key >> value) out[key] = value;
  return out;
}

namespace {

constexpr const char* kRankLogFile = "rank_logs.txt";
constexpr std::string_view kRankLogTag = "rank_log ";

// `worker` and `interleaving` ride at the END of the row so positional
// readers of the older layouts (explain, external tooling) keep working.
constexpr std::string_view kCsvHeader =
    "iteration,nprocs,focus,outcome,constraint_set_size,"
    "covered_branches,exec_seconds,solve_seconds,restart,"
    "solver_nodes,retries,worker,interleaving\n";
constexpr std::size_t kCsvColumns = 13;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// FNV-1a, continued from `h`: the CSV checksum a snapshot records, so a
/// row corrupted in place is caught even when it still parses.
std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// One iterations.csv row.  Timings use the checkpoint dialect's
/// shortest-round-trip doubles, so a row read back is bit-exact.
std::string csv_row(const IterationRecord& r) {
  std::string row;
  row.reserve(96);
  const auto field = [&row](const auto& v) {
    row += std::to_string(v);
    row += ',';
  };
  field(r.iteration);
  field(r.nprocs);
  field(r.focus);
  row += rt::to_string(r.outcome);
  row += ',';
  field(r.constraint_set_size);
  field(r.covered_branches);
  row += ckpt::format_double(r.exec_seconds);
  row += ',';
  row += ckpt::format_double(r.solve_seconds);
  row += ',';
  field(r.restart ? 1 : 0);
  field(r.solver_nodes);
  field(r.retries);
  field(r.worker);
  row += std::to_string(r.interleaving);
  row += '\n';
  return row;
}

/// iterations.csv holding `rows`; sets the CSV half of `mark` to match.
std::string csv_file(const std::vector<IterationRecord>& rows,
                     ckpt::SessionMark& mark) {
  std::string csv(kCsvHeader);
  for (const IterationRecord& r : rows) csv += csv_row(r);
  mark.csv_offset = csv.size();
  mark.csv_rows = rows.size();
  mark.csv_hash = fnv1a(kFnvBasis, csv);
  return csv;
}

template <typename T>
bool parse_number(std::string_view s, T& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return !s.empty() && ec == std::errc{} && ptr == s.data() + s.size();
}

/// Inverse of csv_row (without the trailing newline); nullopt on any
/// malformed field or a column count other than the header's.
std::optional<IterationRecord> parse_csv_row(std::string_view line) {
  std::string_view f[kCsvColumns];
  std::size_t n = 0;
  for (;;) {
    const std::size_t comma = line.find(',');
    if (n == kCsvColumns) return std::nullopt;
    f[n++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (n != kCsvColumns) return std::nullopt;
  IterationRecord r;
  int restart = 0;
  const auto outcome = rt::outcome_from_string(std::string(f[3]));
  if (!outcome || !parse_number(f[0], r.iteration) ||
      !parse_number(f[1], r.nprocs) || !parse_number(f[2], r.focus) ||
      !parse_number(f[4], r.constraint_set_size) ||
      !parse_number(f[5], r.covered_branches) ||
      !parse_number(f[6], r.exec_seconds) ||
      !parse_number(f[7], r.solve_seconds) || !parse_number(f[8], restart) ||
      !parse_number(f[9], r.solver_nodes) || !parse_number(f[10], r.retries) ||
      !parse_number(f[11], r.worker) || !parse_number(f[12], r.interleaving)) {
    return std::nullopt;
  }
  r.outcome = *outcome;
  r.restart = restart != 0;
  return r;
}

std::string rank_log_header(int iteration, int rank, std::size_t bytes) {
  std::string h(kRankLogTag);
  h += std::to_string(iteration);
  h += ' ';
  h += std::to_string(rank);
  h += ' ';
  h += std::to_string(bytes);
  h += '\n';
  return h;
}

/// Parses rank-log records from the front of `bytes` into `out`; returns
/// the offset just past the last complete record (a torn or malformed
/// record ends the parse).
std::size_t parse_rank_logs(std::string_view bytes,
                            std::vector<RankLogRecord>& out) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) break;
    std::string_view header = bytes.substr(pos, nl - pos);
    if (header.substr(0, kRankLogTag.size()) != kRankLogTag) break;
    header.remove_prefix(kRankLogTag.size());
    const std::size_t s1 = header.find(' ');
    const std::size_t s2 =
        s1 == std::string_view::npos ? s1 : header.find(' ', s1 + 1);
    RankLogRecord rec;
    std::size_t size = 0;
    if (s2 == std::string_view::npos ||
        !parse_number(header.substr(0, s1), rec.iteration) ||
        !parse_number(header.substr(s1 + 1, s2 - s1 - 1), rec.rank) ||
        !parse_number(header.substr(s2 + 1), size) ||
        size > bytes.size() - nl - 1) {
      break;
    }
    rec.log.assign(bytes.substr(nl + 1, size));
    out.push_back(std::move(rec));
    pos = nl + 1 + size;
  }
  return pos;
}

/// The first `limit` bytes of `file`; nullopt when it is shorter.
std::optional<std::string> read_prefix(const fs::path& file,
                                       std::uint64_t limit) {
  std::ifstream in(file, std::ios::binary);
  if (!in) return std::nullopt;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(file, ec);
  if (ec || size < limit) return std::nullopt;
  std::string bytes(limit, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(limit));
  if (static_cast<std::uint64_t>(in.gcount()) != limit) return std::nullopt;
  return bytes;
}

/// iterations.csv rows before `mark.csv_offset`, checked against the mark.
bool read_csv_prefix(const fs::path& dir, const ckpt::SessionMark& mark,
                     std::vector<IterationRecord>& out) {
  if (mark.csv_offset == 0) return mark.csv_rows == 0;
  const auto bytes = read_prefix(dir / "iterations.csv", mark.csv_offset);
  if (!bytes || bytes->size() < kCsvHeader.size() ||
      bytes->compare(0, kCsvHeader.size(), kCsvHeader) != 0 ||
      bytes->back() != '\n' || fnv1a(kFnvBasis, *bytes) != mark.csv_hash) {
    return false;
  }
  std::string_view rows(*bytes);
  rows.remove_prefix(kCsvHeader.size());
  while (!rows.empty()) {
    const std::size_t nl = rows.find('\n');
    const auto rec = parse_csv_row(rows.substr(0, nl));
    if (!rec) return false;
    out.push_back(*rec);
    rows.remove_prefix(nl + 1);
  }
  return out.size() == mark.csv_rows;
}

/// rank_logs.txt records before `mark.rank_log_offset`, checked against
/// the mark.
bool read_rank_log_prefix(const fs::path& dir, const ckpt::SessionMark& mark,
                          std::vector<RankLogRecord>& out) {
  if (mark.rank_log_offset == 0) return mark.rank_log_records == 0;
  const auto bytes = read_prefix(dir / kRankLogFile, mark.rank_log_offset);
  return bytes && parse_rank_logs(*bytes, out) == bytes->size() &&
         out.size() == mark.rank_log_records;
}

/// Keeps the entries below `next_iteration`, by iteration (stable, so
/// rank logs keep their rank order).
template <typename T>
void keep_before(std::vector<T>& v, int next_iteration) {
  std::erase_if(v, [&](const T& x) { return x.iteration >= next_iteration; });
  std::stable_sort(v.begin(), v.end(), [](const T& a, const T& b) {
    return a.iteration < b.iteration;
  });
}

std::optional<ResumePoint> read_snapshot(const fs::path& dir,
                                         const fs::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::optional<ckpt::CampaignCheckpoint> c =
      ckpt::CampaignCheckpoint::read(in);
  if (!c) return std::nullopt;
  ResumePoint p;
  if (!read_csv_prefix(dir, c->session, p.iterations) ||
      !read_rank_log_prefix(dir, c->session, p.rank_logs)) {
    return std::nullopt;
  }
  keep_before(p.iterations, c->next_iteration);
  keep_before(p.rank_logs, c->next_iteration);
  p.checkpoint = std::move(*c);
  return p;
}

/// Opens `file` for appending after `content`.  With `keep_previous` the
/// content goes through a tmp file renamed over `file`, so the previous
/// file stays whole until the new one is complete.
void open_append(const fs::path& file, const std::string& content,
                 bool keep_previous, std::ofstream& out) {
  const auto mode = std::ios::binary | std::ios::out;
  if (out.is_open()) out.close();
  if (!keep_previous) {
    out.open(file, mode | std::ios::trunc);
    out << content;
    out.flush();
    return;
  }
  const fs::path tmp = file.string() + ".tmp";
  bool written = false;
  {
    std::ofstream t(tmp, mode | std::ios::trunc);
    t << content;
    t.flush();
    written = t.good();
  }
  std::error_code ec;
  if (written) fs::rename(tmp, file, ec);
  if (!written || ec) {
    obs::note_artifact_write_error("session", file.string());
    fs::remove(tmp, ec);
  }
  out.open(file, mode | std::ios::app);
}

}  // namespace

std::vector<RankLogRecord> read_rank_logs(const fs::path& dir) {
  std::vector<RankLogRecord> out;
  std::ifstream in(dir / kRankLogFile, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  (void)parse_rank_logs(bytes.str(), out);
  return out;
}

std::optional<ResumePoint> read_resume_point(const fs::path& dir) {
  if (auto p = read_snapshot(dir, dir / "checkpoint.txt")) return p;
  // Torn or truncated snapshot (the writer died mid-file, or the disk
  // filled), or one the session files no longer back: fall back to the
  // previous complete snapshot kept as .bak, so the session resumes from
  // the last good checkpoint instead of starting over.
  return read_snapshot(dir, dir / "checkpoint.txt.bak");
}

std::optional<ckpt::CampaignCheckpoint> read_checkpoint(const fs::path& dir) {
  std::optional<ResumePoint> p = read_resume_point(dir);
  if (!p) return std::nullopt;
  return std::move(p->checkpoint);
}

SessionWriter::SessionWriter(fs::path dir, int keep_rank_logs)
    : dir_(std::move(dir)), keep_rank_logs_(keep_rank_logs) {
  fs::create_directories(dir_);
}

void SessionWriter::write_iteration(int iteration,
                                    const minimpi::RunResult& run) {
  // Nothing to retain (keep_rank_logs = 0, past the retention window, or a
  // run with no rank logs).
  if (keep_rank_logs_ >= 0 && iteration >= keep_rank_logs_) return;
  if (run.ranks.empty()) return;
  if (!rank_logs_.is_open()) {
    open_append(dir_ / kRankLogFile, "", /*keep_previous=*/false, rank_logs_);
  }
  for (std::size_t rank = 0; rank < run.ranks.size(); ++rank) {
    const std::string log = run.ranks[rank].log.serialize();
    const std::string header =
        rank_log_header(iteration, static_cast<int>(rank), log.size());
    rank_logs_ << header << log;
    mark_.rank_log_offset += header.size() + log.size();
    ++mark_.rank_log_records;
  }
  rank_logs_.flush();
}

void SessionWriter::begin_iterations(
    const std::vector<IterationRecord>& restored,
    const std::vector<RankLogRecord>& restored_logs) {
  mark_ = {};
  csv_in_order_ = true;
  last_csv_iteration_ = restored.empty() ? -1 : restored.back().iteration;
  open_append(dir_ / "iterations.csv", csv_file(restored, mark_),
              !restored.empty(), csv_);

  if (keep_rank_logs_ == 0) return;
  std::string logs;
  for (const RankLogRecord& r : restored_logs) {
    logs += rank_log_header(r.iteration, r.rank, r.log.size());
    logs += r.log;
  }
  mark_.rank_log_offset = logs.size();
  mark_.rank_log_records = restored_logs.size();
  open_append(dir_ / kRankLogFile, logs, !restored_logs.empty(), rank_logs_);
}

void SessionWriter::append_iteration(const IterationRecord& rec) {
  if (!csv_.is_open()) return;
  const std::string row = csv_row(rec);
  csv_ << row;
  csv_.flush();
  mark_.csv_offset += row.size();
  ++mark_.csv_rows;
  mark_.csv_hash = fnv1a(mark_.csv_hash, row);
  if (rec.iteration < last_csv_iteration_) csv_in_order_ = false;
  last_csv_iteration_ = std::max(last_csv_iteration_, rec.iteration);
}

void SessionWriter::write_summary(const CampaignResult& result) {
  // Rows appended as iterations completed are already on disk; parallel
  // workers append in completion order, so those sessions are rewritten
  // once, by ordinal, as `result` holds them.
  const bool began = csv_.is_open();
  if (began) csv_.close();
  if (!began || !csv_in_order_) {
    std::ofstream out;
    open_append(dir_ / "iterations.csv", csv_file(result.iterations, mark_),
                began, out);
    csv_in_order_ = true;
  }
  {
    std::ofstream bugs(dir_ / "bugs.txt");
    for (const BugRecord& bug : result.bugs) {
      bugs << '[' << rt::to_string(bug.outcome) << "] "
           << ckpt::escape(bug.message)
           << "\n  first_iteration=" << bug.first_iteration
           << " occurrences=" << bug.occurrences << " nprocs=" << bug.nprocs
           << " focus=" << bug.focus << " flaky=" << (bug.flaky ? 1 : 0)
           << "\n  inputs:";
      for (const auto& [name, value] : bug.named_inputs) {
        bugs << ' ' << name << '=' << value;
      }
      bugs << "\n";
      if (!bug.decisions.empty()) {
        bugs << "  decisions:";
        for (const minimpi::MatchDecision& d : bug.decisions) {
          bugs << ' ' << d.rank << '/' << d.seq << "->" << d.src;
        }
        bugs << "\n";
      }
    }
  }
  {
    std::ofstream summary(dir_ / "summary.txt");
    summary << "iterations " << result.iterations.size() << '\n'
            << "covered_branches " << result.covered_branches << '\n'
            << "reachable_branches " << result.reachable_branches << '\n'
            << "coverage_rate " << result.coverage_rate << '\n'
            << "max_constraint_set " << result.max_constraint_set << '\n'
            << "depth_bound_used " << result.depth_bound_used << '\n'
            << "restarts " << result.restarts << '\n'
            << "transient_retries " << result.transient_retries << '\n'
            << "focus_replans " << result.focus_replans << '\n'
            << "sandbox_runs " << result.sandbox_runs << '\n'
            << "sandbox_signal_kills " << result.sandbox_signal_kills << '\n'
            << "sandbox_hang_kills " << result.sandbox_hang_kills << '\n'
            << "sandbox_harvest_bytes " << result.sandbox_harvest_bytes
            << '\n'
            << "resumed " << (result.resumed ? 1 : 0) << '\n'
            << "bugs " << result.bugs.size() << '\n'
            << "interleavings_enqueued " << result.interleavings_enqueued
            << '\n'
            << "interleavings_run " << result.interleavings_run << '\n'
            << "interleavings_pruned " << result.interleavings_pruned << '\n'
            << "interleavings_capped " << result.interleavings_capped << '\n'
            << "deadlocks_found " << result.deadlocks_found << '\n'
            << "orphan_messages_found " << result.orphan_messages_found
            << '\n'
            << "total_seconds " << result.total_seconds << '\n';
  }
}

void SessionWriter::write_ledger(const CoverageLedger& ledger,
                                 const rt::BranchTable& table) {
  std::ofstream out(dir_ / "ledger.csv");
  ledger.write_csv(out, table);
}

void SessionWriter::write_coverage_timeline(
    const std::vector<IterationRecord>& iterations, int below) {
  std::vector<const IterationRecord*> rows;
  rows.reserve(iterations.size());
  for (const IterationRecord& r : iterations) {
    if (r.iteration < below) rows.push_back(&r);
  }
  const auto by_ordinal = [](const IterationRecord* a,
                             const IterationRecord* b) {
    return a->iteration < b->iteration;
  };
  if (!std::is_sorted(rows.begin(), rows.end(), by_ordinal)) {
    std::sort(rows.begin(), rows.end(), by_ordinal);
  }
  std::ofstream out(dir_ / "coverage_timeline.csv");
  out << "iteration,covered_branches,new_branches\n";
  std::size_t prev = 0;
  for (const IterationRecord* r : rows) {
    if (r->covered_branches <= prev) continue;
    out << r->iteration << ',' << r->covered_branches << ','
        << (r->covered_branches - prev) << '\n';
    prev = r->covered_branches;
  }
}

void SessionWriter::write_checkpoint(
    const ckpt::CampaignCheckpoint& checkpoint) {
  const fs::path final_path = dir_ / "checkpoint.txt";
  const fs::path tmp = dir_ / "checkpoint.txt.tmp";
  bool written = false;
  {
    std::ofstream out(tmp);
    if (out.is_open()) {
      checkpoint.write(out);
      out.flush();
      written = out.good();
    }
  }
  // A failed or short tmp write (unwritable dir, disk full) must never
  // replace a complete snapshot with a torn one: report, drop the tmp,
  // keep the previous checkpoint (and its .bak) untouched.
  if (!written) {
    obs::note_artifact_write_error("checkpoint", final_path.string());
    std::error_code rm;
    fs::remove(tmp, rm);
    return;
  }
  // Demote the previous complete snapshot to .bak before the new one lands:
  // even if THIS write turns out torn (kill between the flush above and a
  // durable rename), read_checkpoint still finds a complete snapshot.
  std::error_code ec;
  fs::rename(final_path, dir_ / "checkpoint.txt.bak", ec);  // first write: ok
  fs::rename(tmp, final_path, ec);
  if (ec) obs::note_artifact_write_error("checkpoint", final_path.string());
}

}  // namespace compi
