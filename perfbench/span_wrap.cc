// Link-time wrappers around the layer entry points, and the span recorder
// they feed.  Each SYM_ macro below holds one mangled entry point;
// CMakeLists.txt reads the macros and passes -Wl,--wrap=<symbol> for each,
// so the linker sends every cross-object call of <symbol> to
// __wrap_<symbol> and this file reaches the original as __real_<symbol>.
// Member functions are wrapped as free functions that take the object
// pointer first, which is how the Itanium C++ ABI passes `this`.
//
// Span attributes (Span::set) by name:
//   minimpi.launch      a = ranks, b = process user CPU us, c = sys CPU us
//   sandbox.*           a = wall seconds the run reports, in us
//                       (ForkServer::run: b = 1 when the run forked warm)
//   solver.solve        a = search nodes, b = sat, c = budget exhausted
#include "span_wrap.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "compi/checkpoint.h"
#include "compi/coverage.h"
#include "compi/driver.h"
#include "compi/framework.h"
#include "compi/ledger.h"
#include "compi/session.h"
#include "minimpi/launcher.h"
#include "obs/journal.h"
#include "sandbox/fork_server.h"
#include "sandbox/supervisor.h"
#include "solver/solver.h"

#define SYM_LAUNCH \
  "_ZN5compi7minimpi6launchERKNS0_10LaunchSpecERKNS_2rt11BranchTableE"
#define SYM_FORK_SERVER_RUN \
  "_ZN5compi7sandbox10ForkServer3runERKNS_7minimpi10LaunchSpecEPNS0_12SandboxStatsEPb"
#define SYM_RUN_SANDBOXED \
  "_ZN5compi7sandbox13run_sandboxedERKNS_7minimpi10LaunchSpecERKNS_2rt11BranchTableERKNS0_14SandboxOptionsEPNS0_12SandboxStatsE"
#define SYM_RUN_BATCH_RESET \
  "_ZN5compi7sandbox15run_batch_resetERKNS_7minimpi10LaunchSpecERKNS_2rt11BranchTableE"
#define SYM_SOLVE_INCREMENTAL \
  "_ZNK5compi6solver6Solver17solve_incrementalESt4spanIKNS0_9PredicateELm18446744073709551615EERKSt13unordered_mapIiNS0_8IntervalESt4hashIiESt8equal_toIiESaISt4pairIKiS7_EEERKS6_IilS9_SB_SaISC_ISD_lEEEPNS0_10SolveCacheE"
#define SYM_COVERAGE_MERGE \
  "_ZN5compi15CoverageTracker5mergeERKNS_2rt14CoverageBitmapE"
#define SYM_LEDGER_RECORD_RUN \
  "_ZN5compi14CoverageLedger10record_runERKNS0_10RunContextERKNS_7minimpi9RunResultE"
#define SYM_PLAN_NEXT_TEST \
  "_ZNK5compi9Framework14plan_next_testERKNS_6solver11SolveResultERKNS_2rt7TestLogERKNS_8TestPlanE"
#define SYM_WRITE_ITERATION \
  "_ZN5compi13SessionWriter15write_iterationEiRKNS_7minimpi9RunResultE"
#define SYM_APPEND_ITERATION \
  "_ZN5compi13SessionWriter16append_iterationERKNS_15IterationRecordE"
#define SYM_WRITE_CHECKPOINT \
  "_ZN5compi13SessionWriter16write_checkpointERKNS_4ckpt18CampaignCheckpointE"
#define SYM_JOURNAL_FLUSH \
  "_ZN5compi3obs7Journal5flushEv"

namespace perfbench {
namespace {

struct Record {
  const char* name;
  std::int64_t parent;
  std::int64_t start_ns;
  std::int64_t end_ns;
  double attrs[3];
};

std::mutex g_mu;
std::vector<Record> g_spans;  // guarded by g_mu
thread_local std::int64_t t_open = -1;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double tv_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

}  // namespace

Span::Span(const char* name) {
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(g_mu);
  index_ = g_spans.size();
  g_spans.push_back(Record{name, t_open, start, -1, {0.0, 0.0, 0.0}});
  t_open = static_cast<std::int64_t>(index_);
}

Span::~Span() {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(g_mu);
  Record& r = g_spans[index_];
  r.end_ns = end;
  for (int i = 0; i < 3; ++i) r.attrs[i] = attrs_[i];
  t_open = r.parent;
}

void Span::set(double a, double b, double c) {
  attrs_[0] = a;
  attrs_[1] = b;
  attrs_[2] = c;
}

bool write_spans(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Record& r : g_spans) {
    ok = ok && r.end_ns >= 0;
    std::fprintf(f, "%s %lld %lld %lld %.17g %.17g %.17g\n", r.name,
                 static_cast<long long>(r.parent),
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns), r.attrs[0], r.attrs[1],
                 r.attrs[2]);
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench

// ---- the wrappers ---------------------------------------------------------

namespace perfbench::wrap {

using compi::minimpi::LaunchSpec;
using compi::minimpi::RunResult;
using compi::rt::BranchTable;
using compi::sandbox::SandboxStats;

RunResult real_launch(const LaunchSpec&, const BranchTable&)
    __asm__("__real_" SYM_LAUNCH);
RunResult wrap_launch(const LaunchSpec&, const BranchTable&)
    __asm__("__wrap_" SYM_LAUNCH);
RunResult wrap_launch(const LaunchSpec& spec, const BranchTable& table) {
  Span span("minimpi.launch");
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  RunResult r = real_launch(spec, table);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  span.set(spec.nprocs, tv_us(after.ru_utime) - tv_us(before.ru_utime),
           tv_us(after.ru_stime) - tv_us(before.ru_stime));
  return r;
}

RunResult real_fork_server_run(compi::sandbox::ForkServer*, const LaunchSpec&,
                               SandboxStats*, bool*)
    __asm__("__real_" SYM_FORK_SERVER_RUN);
RunResult wrap_fork_server_run(compi::sandbox::ForkServer*, const LaunchSpec&,
                               SandboxStats*, bool*)
    __asm__("__wrap_" SYM_FORK_SERVER_RUN);
RunResult wrap_fork_server_run(compi::sandbox::ForkServer* self,
                               const LaunchSpec& spec, SandboxStats* stats,
                               bool* warm) {
  Span span("sandbox.fork_server");
  bool warm_here = false;
  RunResult r =
      real_fork_server_run(self, spec, stats, warm ? warm : &warm_here);
  span.set(r.wall_seconds * 1e6, (warm ? *warm : warm_here) ? 1.0 : 0.0);
  return r;
}

RunResult real_run_sandboxed(const LaunchSpec&, const BranchTable&,
                             const compi::sandbox::SandboxOptions&,
                             SandboxStats*)
    __asm__("__real_" SYM_RUN_SANDBOXED);
RunResult wrap_run_sandboxed(const LaunchSpec&, const BranchTable&,
                             const compi::sandbox::SandboxOptions&,
                             SandboxStats*)
    __asm__("__wrap_" SYM_RUN_SANDBOXED);
RunResult wrap_run_sandboxed(const LaunchSpec& spec, const BranchTable& table,
                             const compi::sandbox::SandboxOptions& options,
                             SandboxStats* stats) {
  Span span("sandbox.run_sandboxed");
  RunResult r = real_run_sandboxed(spec, table, options, stats);
  span.set(r.wall_seconds * 1e6);
  return r;
}

RunResult real_run_batch_reset(const LaunchSpec&, const BranchTable&)
    __asm__("__real_" SYM_RUN_BATCH_RESET);
RunResult wrap_run_batch_reset(const LaunchSpec&, const BranchTable&)
    __asm__("__wrap_" SYM_RUN_BATCH_RESET);
RunResult wrap_run_batch_reset(const LaunchSpec& spec,
                               const BranchTable& table) {
  Span span("sandbox.batch_reset");
  RunResult r = real_run_batch_reset(spec, table);
  span.set(r.wall_seconds * 1e6);
  return r;
}

using compi::solver::Assignment;
using compi::solver::DomainMap;
using compi::solver::Predicate;
using compi::solver::SolveResult;

SolveResult real_solve_incremental(const compi::solver::Solver*,
                                   std::span<const Predicate>,
                                   const DomainMap&, const Assignment&,
                                   compi::solver::SolveCache*)
    __asm__("__real_" SYM_SOLVE_INCREMENTAL);
SolveResult wrap_solve_incremental(const compi::solver::Solver*,
                                   std::span<const Predicate>,
                                   const DomainMap&, const Assignment&,
                                   compi::solver::SolveCache*)
    __asm__("__wrap_" SYM_SOLVE_INCREMENTAL);
SolveResult wrap_solve_incremental(const compi::solver::Solver* self,
                                   std::span<const Predicate> preds,
                                   const DomainMap& domains,
                                   const Assignment& previous,
                                   compi::solver::SolveCache* cache) {
  Span span("solver.solve");
  SolveResult r =
      real_solve_incremental(self, preds, domains, previous, cache);
  span.set(static_cast<double>(r.nodes_searched), r.sat ? 1.0 : 0.0,
           r.budget_exhausted ? 1.0 : 0.0);
  return r;
}

void real_coverage_merge(compi::CoverageTracker*,
                         const compi::rt::CoverageBitmap&)
    __asm__("__real_" SYM_COVERAGE_MERGE);
void wrap_coverage_merge(compi::CoverageTracker*,
                         const compi::rt::CoverageBitmap&)
    __asm__("__wrap_" SYM_COVERAGE_MERGE);
void wrap_coverage_merge(compi::CoverageTracker* self,
                         const compi::rt::CoverageBitmap& covered) {
  const Span span("compi.coverage.merge");
  real_coverage_merge(self, covered);
}

void real_ledger_record_run(compi::CoverageLedger*,
                            const compi::CoverageLedger::RunContext&,
                            const RunResult&)
    __asm__("__real_" SYM_LEDGER_RECORD_RUN);
void wrap_ledger_record_run(compi::CoverageLedger*,
                            const compi::CoverageLedger::RunContext&,
                            const RunResult&)
    __asm__("__wrap_" SYM_LEDGER_RECORD_RUN);
void wrap_ledger_record_run(compi::CoverageLedger* self,
                            const compi::CoverageLedger::RunContext& ctx,
                            const RunResult& run) {
  const Span span("compi.ledger.record_run");
  real_ledger_record_run(self, ctx, run);
}

compi::TestPlan real_plan_next_test(const compi::Framework*,
                                    const SolveResult&,
                                    const compi::rt::TestLog&,
                                    const compi::TestPlan&)
    __asm__("__real_" SYM_PLAN_NEXT_TEST);
compi::TestPlan wrap_plan_next_test(const compi::Framework*,
                                    const SolveResult&,
                                    const compi::rt::TestLog&,
                                    const compi::TestPlan&)
    __asm__("__wrap_" SYM_PLAN_NEXT_TEST);
compi::TestPlan wrap_plan_next_test(const compi::Framework* self,
                                    const SolveResult& solved,
                                    const compi::rt::TestLog& latest_log,
                                    const compi::TestPlan& previous) {
  const Span span("compi.framework.plan");
  return real_plan_next_test(self, solved, latest_log, previous);
}

void real_write_iteration(compi::SessionWriter*, int, const RunResult&)
    __asm__("__real_" SYM_WRITE_ITERATION);
void wrap_write_iteration(compi::SessionWriter*, int, const RunResult&)
    __asm__("__wrap_" SYM_WRITE_ITERATION);
void wrap_write_iteration(compi::SessionWriter* self, int iteration,
                          const RunResult& run) {
  const Span span("compi.session.write_iteration");
  real_write_iteration(self, iteration, run);
}

void real_append_iteration(compi::SessionWriter*,
                           const compi::IterationRecord&)
    __asm__("__real_" SYM_APPEND_ITERATION);
void wrap_append_iteration(compi::SessionWriter*,
                           const compi::IterationRecord&)
    __asm__("__wrap_" SYM_APPEND_ITERATION);
void wrap_append_iteration(compi::SessionWriter* self,
                           const compi::IterationRecord& rec) {
  const Span span("compi.session.append_iteration");
  real_append_iteration(self, rec);
}

void real_write_checkpoint(compi::SessionWriter*,
                           const compi::ckpt::CampaignCheckpoint&)
    __asm__("__real_" SYM_WRITE_CHECKPOINT);
void wrap_write_checkpoint(compi::SessionWriter*,
                           const compi::ckpt::CampaignCheckpoint&)
    __asm__("__wrap_" SYM_WRITE_CHECKPOINT);
void wrap_write_checkpoint(compi::SessionWriter* self,
                           const compi::ckpt::CampaignCheckpoint& checkpoint) {
  const Span span("compi.session.checkpoint");
  real_write_checkpoint(self, checkpoint);
}

void real_journal_flush(compi::obs::Journal*)
    __asm__("__real_" SYM_JOURNAL_FLUSH);
void wrap_journal_flush(compi::obs::Journal*)
    __asm__("__wrap_" SYM_JOURNAL_FLUSH);
void wrap_journal_flush(compi::obs::Journal* self) {
  const Span span("obs.journal.flush");
  real_journal_flush(self);
}

}  // namespace perfbench::wrap
