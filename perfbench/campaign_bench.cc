// One benchmark campaign: builds a workload's target and options, runs
// compi::Campaign once, and prints one JSON line of raw measurements.
//
//   perfbench_campaign --workload=NAME [--session=DIR] [--spans=PATH]
//
// run.py starts this program once per repetition and turns the raw lines
// into metrics.  The traced build (PERFBENCH_TRACED) additionally records a
// root span around Campaign::run() and writes every span to --spans.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "compi/driver.h"
#include "runtime/faults.h"
#include "targets/targets.h"

#ifdef PERFBENCH_TRACED
#include "span_wrap.h"
#endif

namespace {

/// Every workload caps the world at this many ranks (one thread per rank);
/// run.py refuses to run on a host with fewer cores.
constexpr int kRankCap = 4;

/// Every workload's campaign seed.  It is part of the workload, like the
/// iteration budget: README.md says why it is not a flag.
constexpr std::uint64_t kCampaignSeed = 1;

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process image in KiB (VmHWM).  Unlike
/// getrusage's ru_maxrss, it does not count the memory of the process that
/// started this one, which Linux carries over across exec.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(256, '\n');
  }
  return 0;
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

struct Workload {
  compi::TargetInfo target;
  compi::CampaignOptions options;
};

/// The three workloads.  README.md says why each looks the way it does.
bool make_workload(std::string_view name, const std::string& session,
                   Workload& w) {
  compi::CampaignOptions& o = w.options;
  o.seed = kCampaignSeed;
  o.initial_nprocs = kRankCap;
  o.max_procs = kRankCap;
  if (name == "hpl-serial") {
    w.target = compi::targets::make_mini_hpl_target();
    o.iterations = 3000;
  } else if (name == "imb-isolate") {
    w.target = compi::targets::make_mini_imb_target();
    o.iterations = 3000;
    o.isolate = true;
  } else if (name == "susy-logged") {
    if (session.empty()) return false;
    w.target = compi::targets::make_mini_susy_target();
    o.iterations = 4000;
    o.log_dir = session;
    o.journal = true;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = mono_ns();
  std::string workload;
  std::string session;
  std::string spans;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return a.substr(0, flag.size()) == flag ? argv[i] + flag.size()
                                              : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v = value("--session=")) {
      session = v;
    } else if (const char* v = value("--spans=")) {
      spans = v;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return 2;
    }
  }

  Workload w;
  if (!make_workload(workload, session, w)) {
    std::cerr << "unknown workload (or missing --session): " << workload
              << "\n";
    return 2;
  }
  compi::Campaign campaign(w.target, w.options);

  const std::int64_t run_ns = mono_ns();
  compi::CampaignResult r;
  {
#ifdef PERFBENCH_TRACED
    const perfbench::Span root("campaign.run");
#endif
    r = campaign.run();
  }
  const std::int64_t end_ns = mono_ns();

  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);

  // First iteration whose cumulative coverage equals the final coverage.
  int iters_to_cov = 0;
  for (const compi::IterationRecord& rec : r.iterations) {
    if (rec.covered_branches == r.covered_branches) {
      iters_to_cov = rec.iteration;
      break;
    }
  }

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\":\"" << json_escape(workload)
     << "\",\"seed\":" << kCampaignSeed
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"rank_cap\":" << kRankCap << ",\"main_ns\":" << main_ns
     << ",\"run_ns\":" << run_ns << ",\"end_ns\":" << end_ns
     << ",\"iterations\":" << r.iterations.size()
     << ",\"cov_branches\":" << r.covered_branches
     << ",\"reachable_branches\":" << r.reachable_branches
     << ",\"iters_to_cov\":" << iters_to_cov << ",\"restarts\":" << r.restarts
     << ",\"sandbox_runs\":" << r.sandbox_runs
     << ",\"warm_spawns\":" << r.warm_spawns
     << ",\"cold_forks\":" << r.cold_forks
     << ",\"fork_server_restarts\":" << r.fork_server_restarts
     << ",\"hang_kills\":" << r.sandbox_hang_kills
     << ",\"self_user_s\":" << tv_seconds(self.ru_utime)
     << ",\"self_sys_s\":" << tv_seconds(self.ru_stime)
     << ",\"children_user_s\":" << tv_seconds(children.ru_utime)
     << ",\"children_sys_s\":" << tv_seconds(children.ru_stime)
     << ",\"peak_rss_kb\":" << peak_rss_kb()
     << ",\"ctx_switches\":" << self.ru_nvcsw + self.ru_nivcsw
     << ",\"bugs\":[";
  for (std::size_t i = 0; i < r.bugs.size(); ++i) {
    const compi::BugRecord& b = r.bugs[i];
    os << (i ? "," : "") << "{\"outcome\":\""
       << compi::rt::to_string(b.outcome) << "\",\"message\":\""
       << json_escape(b.message) << "\",\"flaky\":" << (b.flaky ? 1 : 0)
       << ",\"first_iteration\":" << b.first_iteration << "}";
  }
  os << "]}";
  std::cout << os.str() << std::endl;

#ifdef PERFBENCH_TRACED
  if (!spans.empty() && !perfbench::write_spans(spans)) {
    std::cerr << "cannot write spans to " << spans << "\n";
    return 1;
  }
#endif
  return 0;
}
