#include "compi/driver.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "compi/checkpoint.h"
#include "compi/driver_internal.h"
#include "compi/explain.h"
#include "compi/interleaving.h"
#include "compi/ledger.h"
#include "compi/session.h"
#include "compi/work_source.h"
#include "minimpi/launcher.h"
#include "obs/diagnosis.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/phase_clock.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "sandbox/fork_server.h"
#include "sandbox/supervisor.h"
#include "serve/control_plane.h"
#include "solver/cache.h"
#include "solver/solver.h"

namespace compi {

using detail::bug_signature;
using detail::mix_seed;

Campaign::Campaign(const TargetInfo& target, CampaignOptions options)
    : target_(target), options_(std::move(options)) {}

CampaignResult Campaign::run() {
  return options_.workers > 1 ? run_parallel() : run_serial();
}

CampaignResult Campaign::run_serial() {
  using Clock = std::chrono::steady_clock;

  // ---- observability setup ----
  // The driver owns track 0 of the trace; MiniMPI rank threads claim
  // tracks 1..nprocs inside launch().
  obs::set_thread_track(0);
  if (options_.trace) {
    obs::tracer().configure(options_.trace_buffer_kb);
    obs::tracer().set_enabled(true);
  }
  auto& reg = obs::registry();
  obs::Counter& m_iterations =
      reg.counter("compi_iterations_total", "Campaign iterations executed");
  obs::Counter& m_restarts =
      reg.counter("compi_restarts_total", "Restarts with fresh random inputs");
  obs::Counter& m_retries = reg.counter(
      "compi_transient_retries_total",
      "Transient-failure retries (timeouts, solver budget exhaustion)");
  obs::Counter& m_bugs =
      reg.counter("compi_bugs_total", "Distinct bugs discovered");
  obs::Gauge& m_covered =
      reg.gauge("compi_covered_branches", "Cumulative covered branches");
  obs::Histogram& m_exec_us = reg.histogram(
      "compi_exec_us", "Per-iteration target execution time (us)");
  obs::Histogram& m_solve_us = reg.histogram(
      "compi_solve_us", "Per-iteration constraint solving time (us)");
  obs::Histogram& m_solver_nodes = reg.histogram(
      "compi_solver_nodes", "Per-iteration solver search nodes expanded");
  obs::Counter& m_sandbox_signal_kills = reg.counter(
      "compi_sandbox_signal_kills_total",
      "Sandboxed children killed by a real signal (SIGSEGV, SIGABRT, ...)");
  obs::Counter& m_sandbox_hang_kills = reg.counter(
      "compi_sandbox_hang_kills_total",
      "Sandboxed children SIGKILLed by the hang watchdog");
  obs::Counter& m_sandbox_harvest_bytes = reg.counter(
      "compi_sandbox_harvest_bytes_total",
      "Bytes salvaged from sandboxed children (pipe stream + coverage map)");
  obs::Counter& m_warm_spawns = reg.counter(
      "compi_warm_spawns_total",
      "Iterations forked from the fork server's warm snapshot");
  obs::Counter& m_cold_forks = reg.counter(
      "compi_cold_forks_total",
      "Iterations that fell back to a cold per-iteration fork");
  obs::Counter& m_batch_runs = reg.counter(
      "compi_batch_runs_total",
      "Iterations executed in-process by the --batch-reset fast path");
  obs::Counter& m_server_restarts = reg.counter(
      "compi_fork_server_restarts_total",
      "Fork-server deaths absorbed by a restart");
  obs::Histogram& m_spawn_us = reg.histogram(
      "compi_spawn_us", "Warm-spawn latency, spawn frame to reap (us)");
  obs::Counter& m_cache_hits = reg.counter(
      "compi_solver_cache_hits_total",
      "Solver memoization cache hits (query answered without searching)");
  obs::Counter& m_cache_misses = reg.counter(
      "compi_solver_cache_misses_total",
      "Solver memoization cache misses (full backtracking search ran)");
  obs::Counter& m_cache_evictions = reg.counter(
      "compi_solver_cache_evictions_total",
      "Solver memoization cache LRU evictions");
  obs::Counter& m_interleavings = reg.counter(
      "compi_interleavings_total",
      "Reordered wildcard matchings replayed (--explore-matchings)");
  obs::Gauge& m_frontier_depth = reg.gauge(
      "compi_frontier_depth",
      "Unexplored negation candidates currently queued by the search");
  obs::Gauge& m_interleavings_pending = reg.gauge(
      "compi_interleavings_pending",
      "Reordered wildcard matchings queued and awaiting replay");
  obs::Gauge& m_worker_progress = reg.gauge(
      "compi_worker_last_progress_seconds{worker=\"0\"}",
      "Campaign-relative time of each worker's last completed iteration");

  // Solver memoization (--solver-cache=N entries; 0 = off, the default).
  // Optional so the off state carries zero overhead — solve_incremental
  // takes a plain nullptr.
  std::optional<solver::SolveCache> solve_cache;
  if (options_.solver_cache_entries > 0) {
    solve_cache.emplace(
        static_cast<std::size_t>(options_.solver_cache_entries));
  }
  solver::SolveCache* cache = solve_cache ? &*solve_cache : nullptr;
  // The registry's counters are cumulative across campaigns in one process
  // (bench loops); sync by delta so each export reflects this cache's
  // totals without double counting.
  const auto sync_cache_metrics = [&] {
    if (cache == nullptr) return;
    m_cache_hits.inc(static_cast<std::int64_t>(cache->hits()) -
                     m_cache_hits.value());
    m_cache_misses.inc(static_cast<std::int64_t>(cache->misses()) -
                       m_cache_misses.value());
    m_cache_evictions.inc(static_cast<std::int64_t>(cache->evictions()) -
                          m_cache_evictions.value());
  };

  // Dumps metrics.prom / trace.json next to the session (or into the
  // working directory when no log dir is configured).  Called at every
  // checkpoint and at campaign end, so a killed campaign still leaves
  // observability artifacts behind.
  const auto export_obs = [&] {
    namespace fs = std::filesystem;
    const fs::path base =
        options_.log_dir.empty() ? fs::path(".") : fs::path(options_.log_dir);
    sync_cache_metrics();
    if (options_.metrics) {
      std::ofstream out(base / "metrics.prom");
      reg.write_prometheus(out);
    }
    if (options_.trace) {
      std::ofstream out(base / "trace.json");
      obs::tracer().write_chrome_json(out);
    }
  };

  obs::ObsSpan campaign_span(obs::Cat::kDriver, "campaign");
  const auto campaign_start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - campaign_start)
        .count();
  };

  CampaignResult result;
  rt::VarRegistry registry;
  CoverageTracker coverage(*target_.table);
  CoverageLedger ledger(*target_.table);
  obs::Journal journal;
  Framework framework(registry, options_.max_procs, options_.framework,
                      options_.conflict_resolution);
  std::optional<SessionWriter> session;
  if (!options_.log_dir.empty()) session.emplace(options_.log_dir);
  solver::Solver the_solver({options_.solver_node_budget});

  // ---- live status board (--status-file heartbeat + GET /status) ----
  // The board is the single writer both the file heartbeat and the control
  // plane render from; when serving without an explicit --status-file the
  // heartbeat lands in the session directory so `compi top <file>` and the
  // CI smoke test can discover the ephemeral port.
  const bool serving = options_.serve_port >= 0;
  std::string status_path = options_.status_file;
  if (serving && status_path.empty() && session) {
    status_path = (session->dir() / "status.json").string();
  }
  std::shared_ptr<obs::StatusBoard> board;
  if (serving || !status_path.empty()) {
    board = std::make_shared<obs::StatusBoard>(1, options_.iterations);
    board->set_campaign(options_.initial_nprocs, options_.initial_focus);
  }
  // Leaf mutex ordering the /explain endpoint (server thread) against the
  // loop's ledger and iteration-record mutations.  Never taken when not
  // serving, so the serve-off loop is untouched.
  std::mutex live_mu;
  const auto live_lock = [&] {
    return serving ? std::unique_lock<std::mutex>(live_mu)
                   : std::unique_lock<std::mutex>();
  };

  TestPlan plan;
  plan.nprocs = options_.initial_nprocs;
  plan.focus = options_.initial_focus;

  // Two-phase search (paper §II-B): pure DFS for the first
  // dfs_phase_iterations, then BoundedDFS with a bound derived from the
  // longest observed constraint set.  Other strategies run single-phase.
  const bool two_phase = options_.search == SearchKind::kBoundedDfs;
  StrategyConfig scfg;
  scfg.kind = two_phase ? SearchKind::kDfs : options_.search;
  scfg.seed = options_.seed;
  scfg.table = target_.table;
  scfg.coverage = &coverage;
  std::unique_ptr<SearchStrategy> strategy = make_strategy(scfg);

  std::optional<std::size_t> pending_depth;  // depth of the accepted flip
  bool next_is_restart = true;               // the first run is a "restart"
  bool bounded_phase = false;                // two-phase switch happened
  int failures = 0;
  int consecutive_replans = 0;
  int start_iter = 0;
  std::vector<std::string> known_hangs;  // signatures proven to really hang
  InterleavingFrontier interleavings;    // --explore-matchings frontier

  // ---- resume a checkpointed session (crash recovery) ----
  std::vector<RankLogRecord> restored_logs;
  if (options_.resume && !options_.log_dir.empty()) {
    std::optional<ResumePoint> point = read_resume_point(options_.log_dir);
    ckpt::CampaignCheckpoint* c = point ? &point->checkpoint : nullptr;
    // A snapshot taken by a parallel campaign carries per-worker cursors the
    // serial loop has no way to honour: start fresh instead of resuming one
    // of N in-flight search lines arbitrarily.
    if (c && c->seed == options_.seed && c->workers == 1) {
      if (two_phase && c->bounded_phase) {
        scfg.kind = SearchKind::kBoundedDfs;
        scfg.bound = c->depth_bound_used;
      }
      strategy = make_strategy(scfg);
      std::istringstream blob(c->strategy_state);
      if (c->strategy_name == strategy->name() &&
          strategy->load_state(blob)) {
        for (const rt::VarMeta& m : c->registry) {
          registry.intern(m.key, m.kind, m.domain, m.cap, m.comm_index);
        }
        rt::CoverageBitmap bitmap(target_.table->num_branches());
        for (sym::BranchId b : c->covered) bitmap.mark(b);
        coverage.merge(bitmap);
        result.iterations = std::move(point->iterations);
        restored_logs = std::move(point->rank_logs);
        result.bugs = std::move(c->bugs);
        result.restarts = c->restarts;
        result.max_constraint_set = c->max_constraint_set;
        result.depth_bound_used = c->depth_bound_used;
        result.transient_retries = c->transient_retries;
        result.focus_replans = c->focus_replans;
        result.sandbox_runs = c->sandbox_runs;
        result.sandbox_signal_kills = c->sandbox_signal_kills;
        result.sandbox_hang_kills = c->sandbox_hang_kills;
        result.sandbox_harvest_bytes = c->sandbox_harvest_bytes;
        result.warm_spawns = c->warm_spawns;
        result.cold_forks = c->cold_forks;
        result.fork_server_restarts = c->fork_server_restarts;
        result.batch_runs = c->batch_runs;
        result.resumed = true;
        plan.inputs = std::move(c->plan_inputs);
        plan.nprocs = c->plan_nprocs;
        plan.focus = c->plan_focus;
        pending_depth = c->pending_depth;
        next_is_restart = c->next_is_restart;
        bounded_phase = c->bounded_phase;
        failures = c->failures;
        consecutive_replans = c->consecutive_replans;
        known_hangs = std::move(c->known_hang_signatures);
        interleavings.queue.assign(c->pending_interleavings.begin(),
                                   c->pending_interleavings.end());
        interleavings.seen.insert(c->interleaving_seen.begin(),
                                  c->interleaving_seen.end());
        interleavings.next_id = c->next_interleaving_id;
        interleavings.enqueued = c->interleavings_enqueued;
        interleavings.run_count = c->interleavings_run;
        interleavings.pruned = c->interleavings_pruned;
        interleavings.capped = c->interleavings_capped;
        start_iter = c->next_iteration;
        if (!c->ledger_state.empty()) {
          std::istringstream ledger_blob(c->ledger_state);
          // A failed read keeps the fresh ledger: attribution restarts but
          // the campaign itself is unaffected.
          (void)ledger.read(ledger_blob);
        }
      } else {
        // Unreadable strategy state: fall back to a fresh campaign.
        scfg.kind = two_phase ? SearchKind::kDfs : options_.search;
        scfg.bound = static_cast<std::size_t>(-1);
        strategy = make_strategy(scfg);
      }
    }
  }

  // Open iterations.csv and rank_logs.txt for incremental appends (plus any
  // restored prefix) so a crash mid-campaign loses at most the in-flight
  // iteration.
  if (session) session->begin_iterations(result.iterations, restored_logs);
  restored_logs = {};

  // Open the event journal alongside it.  On resume the journal keeps only
  // events below the checkpoint boundary, so its iteration events stay
  // aligned with the restored iterations.csv prefix.
  if (options_.journal && session) {
    const std::filesystem::path journal_path = session->dir() / "journal.jsonl";
    if (result.resumed) {
      (void)journal.open_resume(journal_path, start_iter);
    } else {
      (void)journal.open(journal_path);
    }
  }

  // Whatever way the campaign ends — budget, bug-budget exhaustion, a
  // thrown fatal error — the journal tail and the metrics/trace exports
  // must land on disk.  The simulated-kill path is the one exception (a
  // real SIGKILL flushes nothing); it relies on its final checkpoint's
  // export instead, which this guard repeats harmlessly.
  struct ExportGuard {
    std::function<void()> fn;
    ~ExportGuard() { fn(); }
  } export_guard{[&] {
    journal.close();
    export_obs();
  }};

  // The control plane is declared AFTER the export guard on purpose:
  // reverse destruction stops the server thread (and with it every live
  // endpoint) before the journal closes and the final export runs — on
  // every exit path, including thrown fatal errors.
  serve::ControlPlane control_plane;
  if (serving && board != nullptr) {
    serve::ControlPlaneConfig cp;
    cp.port = options_.serve_port;
    cp.registry = &reg;
    cp.journal = &journal;
    cp.status = [board] { return board->snapshot(); };
    cp.explain = [&, board] {
      std::lock_guard<std::mutex> lock(live_mu);
      std::vector<std::string> lines;
      (void)journal.tap_since(0, lines);
      return explain_live(ledger, *target_.table, result.iterations, lines);
    };
    // /healthz: live while a worker completed an iteration recently.  The
    // threshold scales with the hang timeout — one test may legitimately
    // sit for hang_timeout_ms (times retries) before the sandbox reaps it,
    // so only a multiple of that is a genuine stall.
    const double stall_threshold = std::max(
        30.0, 3.0 * static_cast<double>(options_.hang_timeout_ms) / 1000.0);
    cp.healthy = [board, stall_threshold, &elapsed] {
      const obs::StatusSnapshot s = board->snapshot();
      double last = 0.0;
      bool active = false;
      for (const obs::WorkerStatus& w : s.worker_status) {
        if (w.phase == obs::WorkerPhase::kDone) continue;
        active = true;
        last = std::max(last, w.last_progress_seconds);
      }
      const double stall = elapsed() - last;
      std::ostringstream detail;
      if (!active || stall <= stall_threshold) {
        detail << "progressing: iteration " << s.iteration << ", "
               << s.covered_branches << " branches";
        return std::make_pair(true, detail.str());
      }
      detail << "stalled: no progress for " << static_cast<int>(stall)
             << "s (threshold " << static_cast<int>(stall_threshold) << "s)";
      if (!s.diagnosis_detail.empty()) {
        detail << "; " << s.diagnosis_detail;
      }
      return std::make_pair(false, detail.str());
    };
    if (control_plane.start(std::move(cp))) {
      board->set_serve_port(control_plane.port());
      // Publish the bound port immediately (iteration -1): with
      // --serve=0 this is how clients discover the ephemeral port.
      if (!status_path.empty()) {
        (void)obs::write_status_file(
            status_path, obs::render_status_json(board->snapshot()));
      }
    }
  }

  const auto backoff = [&](int attempt) {
    if (options_.retry_backoff_ms <= 0) return;
    const int ms = std::min(options_.retry_backoff_ms << attempt, 1000);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };

  // Every test execution funnels through here: in-process by default, or a
  // fork()ed sandbox child under --isolate, so a target that really
  // segfaults or wedges is contained, mapped onto the Outcome taxonomy,
  // and the campaign keeps going with whatever coverage was harvested.
  sandbox::SandboxOptions sandbox_options;
  sandbox_options.hang_timeout =
      std::chrono::milliseconds(options_.hang_timeout_ms);
  sandbox_options.child_mem_mb = options_.child_mem_mb;
  // Warm-snapshot engine (--fork-server, on by default under --isolate):
  // one long-lived server child forks every iteration from a warm
  // snapshot; a dead server falls back to cold run_sandboxed per
  // iteration without losing the in-flight test.
  std::optional<sandbox::ForkServer> fork_server;
  if (options_.isolate && options_.fork_server) {
    sandbox::ForkServerOptions fso;
    fso.sandbox = sandbox_options;
    fso.max_restarts = options_.fork_server_restarts;
    fork_server.emplace(*target_.table, fso);
  }
  // Batched fast path (--batch-reset): a streak of clean sandboxed runs
  // earns in-process execution; any fault demotes back to the sandbox.
  sandbox::BatchGate batch_gate(options_.batch_warmup);
  int journal_iter = start_iter;  // iteration the next journal event names
  // Branch ids the last execute() recovered from the sandbox harvest map
  // (empty for in-process runs and delivered results): the ledger flags
  // first hits that survived a child death with these.
  std::vector<sym::BranchId> last_harvested;
  const auto execute = [&](const minimpi::LaunchSpec& s) {
    last_harvested.clear();
    if (!options_.isolate) return minimpi::launch(s, *target_.table);
    if (options_.batch_reset && batch_gate.ready()) {
      minimpi::RunResult r = sandbox::run_batch_reset(s, *target_.table);
      ++result.batch_runs;
      m_batch_runs.inc();
      if (r.job_outcome() == rt::Outcome::kOk) {
        batch_gate.record_clean();
      } else {
        batch_gate.record_fault();
      }
      return r;
    }
    sandbox::SandboxStats st;
    minimpi::RunResult r;
    if (fork_server) {
      bool warm = false;
      const std::uint64_t restarts_before = fork_server->stats().restarts;
      r = fork_server->run(s, &st, &warm);
      const std::uint64_t deaths =
          fork_server->stats().restarts - restarts_before;
      if (deaths > 0) {
        result.fork_server_restarts += deaths;
        m_server_restarts.inc(static_cast<std::int64_t>(deaths));
        obs::instant(obs::Cat::kSandbox, "server_restart");
        obs::JournalEvent(journal, "fork_server_restart", journal_iter)
            .num("restarts",
                 static_cast<std::int64_t>(fork_server->stats().restarts))
            .boolean("degraded", fork_server->degraded());
      }
      if (warm) {
        ++result.warm_spawns;
        m_warm_spawns.inc();
        m_spawn_us.observe(static_cast<std::int64_t>(
            fork_server->stats().last_spawn_seconds * 1e6));
      } else if (st.forked) {
        ++result.cold_forks;
        m_cold_forks.inc();
      }
    } else {
      r = sandbox::run_sandboxed(s, *target_.table, sandbox_options, &st);
    }
    if (options_.batch_reset && st.forked) {
      const bool clean = !st.signal_kill && !st.hang_kill &&
                         r.job_outcome() == rt::Outcome::kOk;
      if (clean) {
        batch_gate.record_clean();
      } else {
        batch_gate.record_fault();
      }
    }
    if (!st.forked) return r;
    ++result.sandbox_runs;
    result.sandbox_harvest_bytes += st.harvest_bytes;
    m_sandbox_harvest_bytes.inc(
        static_cast<std::int64_t>(st.harvest_bytes));
    last_harvested = std::move(st.harvested);
    if (st.signal_kill) {
      ++result.sandbox_signal_kills;
      m_sandbox_signal_kills.inc();
      obs::instant(obs::Cat::kSandbox, "signal_kill", "signal",
                   st.term_signal);
      obs::JournalEvent(journal, "sandbox_kill", journal_iter)
          .str("kind", "signal")
          .num("signal", st.term_signal)
          .num("harvested_branches",
               static_cast<std::int64_t>(last_harvested.size()));
    }
    if (st.hang_kill) {
      ++result.sandbox_hang_kills;
      m_sandbox_hang_kills.inc();
      obs::instant(obs::Cat::kSandbox, "hang_kill");
      obs::JournalEvent(journal, "sandbox_kill", journal_iter)
          .str("kind", "hang")
          .num("harvested_branches",
               static_cast<std::int64_t>(last_harvested.size()));
    }
    return r;
  };

  const auto save_checkpoint = [&](int next_iteration) {
    if (!session) return;
    obs::ObsSpan span(obs::Cat::kCheckpoint, "save_checkpoint", "iteration",
                      next_iteration);
    // The checkpoint reads the ledger wholesale; keep /explain out while the
    // snapshot is taken.
    const auto live = live_lock();
    ckpt::CampaignCheckpoint c;
    c.seed = options_.seed;
    c.next_iteration = next_iteration;
    c.plan_inputs = plan.inputs;
    c.plan_nprocs = plan.nprocs;
    c.plan_focus = plan.focus;
    c.next_is_restart = next_is_restart;
    c.pending_depth = pending_depth;
    c.failures = failures;
    c.consecutive_replans = consecutive_replans;
    c.bounded_phase = bounded_phase;
    c.restarts = result.restarts;
    c.max_constraint_set = result.max_constraint_set;
    c.depth_bound_used = result.depth_bound_used;
    c.transient_retries = result.transient_retries;
    c.focus_replans = result.focus_replans;
    c.sandbox_runs = result.sandbox_runs;
    c.sandbox_signal_kills = result.sandbox_signal_kills;
    c.sandbox_hang_kills = result.sandbox_hang_kills;
    c.sandbox_harvest_bytes = result.sandbox_harvest_bytes;
    c.warm_spawns = result.warm_spawns;
    c.cold_forks = result.cold_forks;
    c.fork_server_restarts = result.fork_server_restarts;
    c.batch_runs = result.batch_runs;
    c.session = session->mark();
    c.bugs = result.bugs;
    c.covered = coverage.bitmap().covered_ids();
    c.registry = registry.all();
    c.known_hang_signatures = known_hangs;
    c.pending_interleavings.assign(interleavings.queue.begin(),
                                   interleavings.queue.end());
    c.interleaving_seen.assign(interleavings.seen.begin(),
                               interleavings.seen.end());
    // Hash-set iteration order is arbitrary: sort so identical campaigns
    // write byte-identical snapshots.
    std::sort(c.interleaving_seen.begin(), c.interleaving_seen.end());
    c.next_interleaving_id = interleavings.next_id;
    c.interleavings_enqueued = interleavings.enqueued;
    c.interleavings_run = interleavings.run_count;
    c.interleavings_pruned = interleavings.pruned;
    c.interleavings_capped = interleavings.capped;
    c.strategy_name = strategy->name();
    std::ostringstream blob;
    strategy->save_state(blob);
    c.strategy_state = blob.str();
    std::ostringstream ledger_blob;
    ledger.write(ledger_blob);
    c.ledger_state = ledger_blob.str();
    session->write_checkpoint(c);
    session->write_ledger(ledger, *target_.table);
    session->write_coverage_timeline(result.iterations);
    journal.flush();
    export_obs();
  };

  int executed = 0;   // iterations run by THIS process (halt hook)
  bool halted = false;

  // Running totals for the telemetry piggyback (work_source.h) and the
  // stall-diagnosis engine: cumulative solver outcome mix and phase time.
  std::int64_t tele_sat = 0, tele_unsat = 0, tele_budget = 0;
  std::int64_t tele_exec_us = 0, tele_solve_us = 0;
  // Live frontier depth: the last planned constraint set's size, or 0 the
  // moment the strategy ran dry (that is the frontier-starved signal).
  std::int64_t tele_frontier = -1;

  // Stall diagnosis (obs/diagnosis.h): fed once per iteration, journals
  // verdict transitions, and leaves its final verdict on the result.  Pure
  // computation over local state — obs-off and serve-off sessions see the
  // identical artifact bytes they always did.
  obs::DiagnosisEngine diagnosis_engine(&journal);
  const auto diagnosis_input = [&] {
    obs::DiagnosisInput in;
    in.elapsed_seconds = elapsed();
    in.frontier_depth = tele_frontier;
    in.interleavings_pending =
        static_cast<std::int64_t>(interleavings.queue.size());
    in.solver_sat = tele_sat;
    in.solver_unsat = tele_unsat;
    in.solver_budget = tele_budget;
    in.plateau_window_seconds = options_.stall_window_seconds;
    return in;
  };

  // Bug-budget exhaustion (--max-bugs) ends the campaign gracefully: the
  // loop breaks, and summary/ledger/obs exports below all still run.
  const auto bug_budget_hit = [&] {
    return options_.max_bugs > 0 &&
           result.bugs.size() >= static_cast<std::size_t>(options_.max_bugs);
  };

  // Distributed intake: one report per completed iteration.  The delta
  // carries FULL local state and a CUMULATIVE iteration count (see
  // work_source.h) so a replay after a reconnect or a reclaimed lease
  // merges to the same global state.  The ledger blob is rendered lazily —
  // the work source only pays for it when it actually transmits — and the
  // closure runs on THIS thread inside report(), so the live lock ordering
  // holds.
  const auto report_work = [&](bool final_report) {
    if (options_.work_source == nullptr) return;
    WorkDelta d;
    d.final_report = final_report;
    d.covered = coverage.bitmap().covered_ids();
    d.interleaving_seen.assign(interleavings.seen.begin(),
                               interleavings.seen.end());
    {
      const auto live = live_lock();
      d.iterations_completed =
          static_cast<std::int64_t>(result.iterations.size());
      d.bugs = result.bugs;
      if (tele_frontier >= 0) {
        d.frontier_depth = tele_frontier;
      } else if (!result.iterations.empty()) {
        d.frontier_depth = static_cast<std::int64_t>(
            result.iterations.back().constraint_set_size);
      }
    }
    d.elapsed_us = static_cast<std::int64_t>(elapsed() * 1e6);
    d.interleavings_pending =
        static_cast<std::int64_t>(interleavings.queue.size());
    d.solver_sat = tele_sat;
    d.solver_unsat = tele_unsat;
    d.solver_budget = tele_budget;
    d.exec_us = tele_exec_us;
    d.solve_us = tele_solve_us;
    d.ledger_blob = [&] {
      const auto live = live_lock();
      std::ostringstream blob;
      ledger.write(blob);
      return blob.str();
    };
    options_.work_source->report(d);
  };

  // Periodic snapshot / simulated-kill bookkeeping at the bottom of every
  // iteration; returns true when the campaign must stop abruptly.
  const auto end_of_iteration = [&](int iter) {
    report_work(/*final_report=*/false);
    if (options_.checkpoint_interval > 0 &&
        (iter + 1) % options_.checkpoint_interval == 0) {
      save_checkpoint(iter + 1);
    }
    ++executed;
    if (options_.halt_after_iterations > 0 &&
        executed >= options_.halt_after_iterations &&
        iter + 1 < options_.iterations) {
      save_checkpoint(iter + 1);
      return true;
    }
    return false;
  };

  // One "iteration" journal event per iterations.csv row (both the normal
  // and the focus-replan append sites funnel through here) plus the
  // --status-file heartbeat, rewritten via tmp + rename so a monitoring
  // reader never sees a torn file.
  const auto note_iteration = [&](const IterationRecord& rec,
                                  const std::map<std::string, std::int64_t>&
                                      named_inputs,
                                  std::size_t new_branches) {
    obs::JournalEvent(journal, "iteration", rec.iteration)
        .num("nprocs", rec.nprocs)
        .num("focus", rec.focus)
        .str("outcome", rt::to_string(rec.outcome))
        .boolean("restart", rec.restart)
        .num("constraint_set_size",
             static_cast<std::int64_t>(rec.constraint_set_size))
        .num("covered_branches",
             static_cast<std::int64_t>(rec.covered_branches))
        .num("new_branches", static_cast<std::int64_t>(new_branches))
        .real("exec_seconds", rec.exec_seconds)
        .real("solve_seconds", rec.solve_seconds)
        .num("solver_nodes", rec.solver_nodes)
        .num("retries", rec.retries)
        .num("worker", rec.worker)
        .num("interleaving", rec.interleaving)
        .inputs(named_inputs);
    const obs::Diagnosis diag = diagnosis_engine.update(
        diagnosis_input(), static_cast<std::int64_t>(rec.covered_branches),
        rec.iteration);
    journal.flush();
    if (board == nullptr) return;
    board->set_diagnosis(obs::to_string(diag.kind), diag.detail,
                         diag.stalled_seconds);
    board->record_iteration(rec.iteration, rec.covered_branches,
                            result.bugs.size(), elapsed(), rec.nprocs,
                            rec.focus, rt::to_string(rec.outcome),
                            /*worker=*/0);
    board->set_depths(rec.constraint_set_size, interleavings.queue.size());
    if (cache != nullptr) {
      board->set_solver_cache(static_cast<std::int64_t>(cache->hits()),
                              static_cast<std::int64_t>(cache->misses()));
    }
    m_frontier_depth.set(static_cast<std::int64_t>(rec.constraint_set_size));
    m_interleavings_pending.set(
        static_cast<std::int64_t>(interleavings.queue.size()));
    m_worker_progress.set(static_cast<std::int64_t>(elapsed()));
    if (!status_path.empty()) {
      (void)obs::write_status_file(
          status_path, obs::render_status_json(board->snapshot()));
    }
  };

  for (int iter = start_iter; iter < options_.iterations; ++iter) {
    if (options_.time_budget_seconds > 0 &&
        elapsed() >= options_.time_budget_seconds) {
      break;
    }
    // ---- distributed intake: lease one iteration, absorb the fleet ----
    // acquire() blocks for a lease (or passes immediately standalone /
    // degraded); false means the coordinator declared the global budget
    // done.  Remote coverage merges BEFORE planning so the strategy's
    // dedup and stale-candidate pruning skip branches other shards
    // already covered — that is the frontier partition.
    if (options_.work_source != nullptr) {
      if (!options_.work_source->acquire()) {
        obs::JournalEvent(journal, "work_source_stop", iter);
        break;
      }
      const std::vector<sym::BranchId> fleet_covered =
          options_.work_source->take_remote_coverage();
      if (!fleet_covered.empty()) {
        rt::CoverageBitmap fleet(target_.table->num_branches());
        for (const sym::BranchId b : fleet_covered) fleet.mark(b);
        coverage.merge(fleet);
      }
      for (const std::uint64_t h :
           options_.work_source->take_remote_interleavings()) {
        interleavings.seen.insert(h);
      }
    }
    obs::ObsSpan iter_span(obs::Cat::kDriver, "iteration", "iter", iter);
    journal_iter = iter;
    if (board != nullptr) {
      board->worker_phase(0, iter, obs::WorkerPhase::kExecute);
    }
    const std::size_t covered_before = coverage.covered_branches();
    int iter_retries = 0;  // transient retries absorbed by THIS iteration

    // ---- pop a pending reordered matching, if any ----
    // Interleavings are frontier items: each consumes one iteration,
    // replaying its parent run's inputs under the prescribed match plan.
    // The planned input-driven test simply runs on the next iteration.
    std::optional<PendingInterleaving> pending;
    if (options_.explore_matchings && !interleavings.queue.empty()) {
      pending = std::move(interleavings.queue.front());
      interleavings.queue.pop_front();
      ++interleavings.run_count;
      m_interleavings.inc();
      obs::JournalEvent(journal, "interleaving", iter)
          .num("id", pending->id)
          .num("plan_size", static_cast<std::int64_t>(pending->plan.size()))
          .num("nprocs", pending->nprocs)
          .num("focus", pending->focus);
    }
    const solver::Assignment* run_inputs =
        pending ? &pending->inputs : &plan.inputs;
    const int run_nprocs = pending ? pending->nprocs : plan.nprocs;
    const int run_focus = pending ? pending->focus : plan.focus;

    // ---- launch the planned test (§III-D) ----
    minimpi::LaunchSpec spec;
    spec.program = target_.program;
    spec.nprocs = run_nprocs;
    spec.focus = run_focus;
    spec.one_way = options_.one_way;
    spec.registry = &registry;
    spec.inputs = run_inputs;
    spec.rng_seed = mix_seed(options_.seed, static_cast<std::uint64_t>(iter));
    spec.step_budget = options_.step_budget;
    spec.reduction = options_.reduction;
    spec.mark_mpi_vars = options_.framework;
    spec.timeout = options_.test_timeout;
    if (options_.explore_matchings) {
      spec.match_schedule = true;
      if (pending) spec.match_plan = pending->plan;
    }

    // A per-test timeout is transient until proven otherwise: retry with a
    // relaxed clock/step budget (and a re-mixed chaos seed, so injected
    // noise is re-rolled) before letting it count as a hang.
    minimpi::RunResult run;
    for (int attempt = 0;; ++attempt) {
      if (options_.chaos.enabled()) {
        spec.chaos = options_.chaos;
        spec.chaos.seed =
            mix_seed(options_.chaos.seed,
                     static_cast<std::uint64_t>(iter) * 64 +
                         static_cast<std::uint64_t>(attempt));
        obs::JournalEvent(journal, "chaos_armed", iter)
            .num("attempt", attempt)
            .num("seed", static_cast<std::int64_t>(spec.chaos.seed));
      }
      spec.timeout = options_.test_timeout * (1 << attempt);
      spec.step_budget = options_.step_budget << attempt;
      run = execute(spec);
      if (run.job_outcome() != rt::Outcome::kTimeout) break;
      const std::string sig = bug_signature(run.job_message());
      if (std::find(known_hangs.begin(), known_hangs.end(), sig) !=
          known_hangs.end()) {
        break;  // already proven to hang: don't burn retries again
      }
      if (attempt >= options_.retry_max) {
        known_hangs.push_back(sig);
        break;
      }
      obs::instant(obs::Cat::kChaosRetry, "timeout_retry", "attempt", attempt);
      obs::JournalEvent(journal, "retry", iter)
          .str("kind", "timeout")
          .num("attempt", attempt);
      m_retries.inc();
      backoff(attempt);
      ++result.transient_retries;
      ++iter_retries;
    }
    m_iterations.inc();
    if (session) session->write_iteration(iter, run);

    // ---- record coverage (all recorders — or focus only for No_Fwk) ----
    if (options_.framework) {
      coverage.merge(run.merged_coverage());
    } else {
      coverage.merge(run.focus_log().covered);
    }

    const rt::TestLog& focus_log = run.focus_log();
    result.max_constraint_set =
        std::max(result.max_constraint_set, focus_log.path.size());

    // ---- attribute this run's coverage (ledger + journal) ----
    // The named assignment of the run: the focus's actually-used values, or
    // the planned assignment when the focus died before flushing its log
    // (same fallback the bug records use).
    std::map<std::string, std::int64_t> named_inputs;
    for (const auto& [var, value] :
         !focus_log.inputs_used.empty() ? focus_log.inputs_used
                                        : *run_inputs) {
      named_inputs[registry.meta(var).key] = value;
    }
    {
      CoverageLedger::RunContext lctx;
      lctx.iteration = iter;
      lctx.nprocs = run_nprocs;
      lctx.focus = run_focus;
      lctx.inputs = &named_inputs;
      lctx.harvested = &last_harvested;
      lctx.interleaving = pending ? pending->id : -1;
      const auto live = live_lock();
      ledger.record_run(lctx, run);
    }

    IterationRecord rec;
    rec.iteration = iter;
    rec.nprocs = run_nprocs;
    rec.focus = run_focus;
    rec.interleaving = pending ? pending->id : -1;
    rec.outcome = run.job_outcome();
    rec.constraint_set_size = focus_log.path.size();
    rec.covered_branches = coverage.covered_branches();
    rec.exec_seconds = run.wall_seconds;
    rec.restart = next_is_restart;
    rec.retries = iter_retries;
    m_exec_us.observe(static_cast<std::int64_t>(rec.exec_seconds * 1e6));
    tele_exec_us += static_cast<std::int64_t>(rec.exec_seconds * 1e6);
    m_covered.set(static_cast<std::int64_t>(rec.covered_branches));

    // ---- wildcard matchings: journal the decisions, fork alternatives ----
    if (spec.match_schedule) {
      for (const minimpi::MatchRecord& mr : run.match_trace) {
        obs::JournalEvent(journal, "match_choice", iter)
            .num("rank", mr.rank)
            .num("seq", mr.seq)
            .num("src", mr.chosen_src)
            .num("feasible", static_cast<std::int64_t>(mr.feasible.size()))
            .num("interleaving", rec.interleaving);
      }
      if (rec.outcome == rt::Outcome::kDeadlock) {
        obs::JournalEvent(journal, "deadlock", iter)
            .str("cycle", run.job_message())
            .num("interleaving", rec.interleaving);
      }
      // Fork from the actually-used inputs when the focus recorded them:
      // an interleaving replays at a different iteration (different RNG
      // stream), so the planned assignment alone would re-roll any value
      // the parent drew randomly.
      enqueue_alternatives(interleavings, run.match_trace,
                           !focus_log.inputs_used.empty()
                               ? focus_log.inputs_used
                               : *run_inputs,
                           run_nprocs, run_focus,
                           options_.max_interleavings);
    }

    // ---- log error-inducing inputs (§V) ----
    if (rt::is_fault(rec.outcome)) {
      const std::string msg = run.job_message();
      const std::string sig = bug_signature(msg);
      auto known = std::find_if(
          result.bugs.begin(), result.bugs.end(),
          [&](const BugRecord& b) { return bug_signature(b.message) == sig; });
      if (known == result.bugs.end()) {
        BugRecord bug;
        bug.first_iteration = iter;
        bug.occurrences = 1;
        bug.outcome = rec.outcome;
        bug.message = msg;
        bug.inputs = focus_log.inputs_used;
        // A sandboxed child killed by a real signal dies before flushing
        // its log, so the focus's inputs_used is empty: fall back to the
        // planned assignment — those ARE the error-inducing inputs.
        if (bug.inputs.empty()) bug.inputs = *run_inputs;
        for (const auto& [var, value] : bug.inputs) {
          bug.named_inputs[registry.meta(var).key] = value;
        }
        bug.nprocs = run_nprocs;
        bug.focus = run_focus;
        if (spec.match_schedule) {
          // The full decision vector — not just the forced prefix — so the
          // replay pins EVERY wildcard choice of the failing run.
          bug.decisions.reserve(run.match_trace.size());
          for (const minimpi::MatchRecord& mr : run.match_trace) {
            bug.decisions.push_back({mr.rank, mr.seq, mr.chosen_src});
          }
        }
        if (options_.confirm_bugs) {
          // Replay once with the same inputs and NO injected noise; a bug
          // that fails to reproduce is environment-induced, hence flaky.
          minimpi::LaunchSpec confirm = spec;
          confirm.chaos = minimpi::FaultPlan{};
          confirm.inputs = &bug.inputs;
          confirm.match_plan = bug.decisions;
          confirm.timeout = options_.test_timeout;
          confirm.step_budget = options_.step_budget;
          // Same funnel as the discovery run: replaying a real SIGSEGV
          // in-process would kill the tester itself.
          const minimpi::RunResult rerun = execute(confirm);
          bug.flaky = rerun.job_outcome() != bug.outcome;
        }
        m_bugs.inc();
        result.bugs.push_back(std::move(bug));
      } else {
        ++known->occurrences;
      }
    }

    // ---- interleaving replays don't drive the search ----
    // The reordered matching's job was its outcome verdict and any new
    // coverage, both recorded above (plus the alternatives it forked).
    // The strategy neither observes its path nor solves from it; the
    // already-planned input-driven test runs on the next iteration.
    if (pending) {
      {
        const auto live = live_lock();
        result.iterations.push_back(rec);
      }
      if (session) session->append_iteration(rec);
      note_iteration(rec, named_inputs, rec.covered_branches - covered_before);
      if (bug_budget_hit()) {
        obs::JournalEvent(journal, "bug_budget_exhausted", iter)
            .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
        break;
      }
      if (end_of_iteration(iter)) {
        halted = true;
        break;
      }
      continue;
    }

    // ---- graceful degradation: the focus died before recording ----
    // A fault (often injected) killed the focus before any symbolic branch
    // was logged, so this run can't drive the search.  Re-plan the same
    // test with the focus moved to another rank instead of wasting the
    // iteration; bounded so a fault on EVERY rank still terminates.
    const bool focus_dead =
        run.focus >= 0 &&
        static_cast<std::size_t>(run.focus) < run.ranks.size() &&
        run.ranks[run.focus].outcome != rt::Outcome::kOk;
    if (focus_dead && focus_log.path.empty() && plan.nprocs > 1 &&
        consecutive_replans < plan.nprocs - 1) {
      {
        const auto live = live_lock();
        result.iterations.push_back(rec);
      }
      if (session) session->append_iteration(rec);
      note_iteration(rec, named_inputs, rec.covered_branches - covered_before);
      plan.focus = (plan.focus + 1) % plan.nprocs;
      ++result.focus_replans;
      ++consecutive_replans;
      if (bug_budget_hit()) break;
      if (end_of_iteration(iter)) {
        halted = true;
        break;
      }
      continue;
    }
    consecutive_replans = 0;

    // ---- two-phase switch: estimate the BoundedDFS depth bound ----
    if (two_phase && iter + 1 == options_.dfs_phase_iterations) {
      const std::size_t bound =
          options_.depth_bound > 0
              ? static_cast<std::size_t>(options_.depth_bound)
              : static_cast<std::size_t>(
                    static_cast<double>(result.max_constraint_set) *
                        options_.bound_slack +
                    10);
      result.depth_bound_used = bound;
      scfg.kind = SearchKind::kBoundedDfs;
      scfg.bound = bound;
      strategy = make_strategy(scfg);
      bounded_phase = true;
      pending_depth.reset();  // root the new strategy at this path
    }

    strategy->observe(focus_log.path,
                      next_is_restart ? std::nullopt : pending_depth);
    next_is_restart = false;
    pending_depth.reset();

    // ---- pick and solve the next constraint set (§II-A) ----
    // Thread CPU time, not wall clock: the solve phase runs entirely on
    // this thread, and CPU time neither counts retry-backoff sleeps nor
    // double-counts when parallel workers overlap (see DESIGN.md).
    const double solve_cpu_start = obs::thread_cpu_seconds();
    if (board != nullptr) {
      board->worker_phase(0, iter, obs::WorkerPhase::kSolve);
    }
    obs::ObsSpan plan_span(obs::Cat::kStrategy, "plan_next_test");
    bool planned = false;
    while (auto cand = strategy->next()) {
      // Insert the MPI-semantics constraints before the negated constraint
      // (which must stay last for incremental solving).
      std::vector<solver::Predicate> preds = std::move(cand->constraints);
      const solver::Predicate negated = std::move(preds.back());
      preds.pop_back();
      for (auto& p : framework.mpi_constraints(focus_log)) {
        preds.push_back(std::move(p));
      }
      preds.push_back(negated);

      const std::int64_t nodes_before = rec.solver_nodes;
      solver::SolveResult solved = the_solver.solve_incremental(
          preds, framework.domains(), focus_log.inputs_used, cache);
      rec.solver_nodes += solved.nodes_searched;
      // Node-budget exhaustion is "unknown", not UNSAT: back off and retry
      // the same query with a doubled budget before treating it as failed.
      for (int attempt = 0;
           !solved.sat && solved.budget_exhausted &&
           attempt < options_.retry_max;
           ++attempt) {
        obs::instant(obs::Cat::kChaosRetry, "solver_retry", "attempt",
                     attempt);
        obs::JournalEvent(journal, "retry", iter)
            .str("kind", "solver")
            .num("attempt", attempt)
            .num("target", cand->target);
        m_retries.inc();
        backoff(attempt);
        ++result.transient_retries;
        ++iter_retries;
        solver::Solver relaxed(
            {options_.solver_node_budget << (attempt + 1)});
        solved = relaxed.solve_incremental(preds, framework.domains(),
                                           focus_log.inputs_used, cache);
        rec.solver_nodes += solved.nodes_searched;
      }
      obs::JournalEvent(journal, "solve", iter)
          .num("depth", static_cast<std::int64_t>(cand->depth))
          .num("target", cand->target)
          .boolean("sat", solved.sat)
          .boolean("budget_exhausted", solved.budget_exhausted)
          .num("nodes", rec.solver_nodes - nodes_before)
          .num("slice_size", static_cast<std::int64_t>(solved.slice_size));
      if (solved.sat) {
        ++tele_sat;
      } else if (solved.budget_exhausted) {
        ++tele_budget;
      } else {
        ++tele_unsat;
      }
      if (solved.sat) {
        plan = framework.plan_next_test(solved, focus_log, plan);
        strategy->accepted(*cand);
        pending_depth = cand->depth;
        failures = 0;
        planned = true;
        break;
      }
      // The negation failed: remember the nearest miss for the branch it
      // was steering toward (UNSAT keeps the rendered constraint around
      // for --explain's never-taken report).
      if (cand->target >= 0) {
        const auto live = live_lock();
        ledger.record_solve_failure(cand->target, iter, negated.to_string(),
                                    solved.budget_exhausted);
      }
      if (++failures >= options_.restart_after_failures) break;
    }
    rec.solve_seconds = obs::thread_cpu_seconds() - solve_cpu_start;
    rec.retries = iter_retries;
    m_solve_us.observe(static_cast<std::int64_t>(rec.solve_seconds * 1e6));
    tele_solve_us += static_cast<std::int64_t>(rec.solve_seconds * 1e6);
    m_solver_nodes.observe(rec.solver_nodes);
    tele_frontier =
        planned ? static_cast<std::int64_t>(rec.constraint_set_size) : 0;
    {
      const auto live = live_lock();
      result.iterations.push_back(rec);
    }
    if (session) session->append_iteration(rec);
    note_iteration(rec, named_inputs, rec.covered_branches - covered_before);

    if (!planned) {
      // Strategy exhausted or solver stuck: restart with random inputs.
      ++result.restarts;
      m_restarts.inc();
      plan.inputs.clear();
      plan.nprocs = options_.initial_nprocs;
      plan.focus = options_.initial_focus;
      failures = 0;
      next_is_restart = true;
    }

    if (bug_budget_hit()) {
      obs::JournalEvent(journal, "bug_budget_exhausted", iter)
          .num("bugs", static_cast<std::int64_t>(result.bugs.size()));
      break;
    }
    if (end_of_iteration(iter)) {
      halted = true;
      break;
    }
  }

  // Flush the final delta whatever way the loop ended (bug budget, time
  // budget, stop grant): the work source retains it for reconciliation
  // even when the coordinator is unreachable right now.
  report_work(/*final_report=*/true);

  // Final stall verdict for the report and --explain: one more sample at
  // the terminal state (the loop may have exited between samples).
  {
    const obs::Diagnosis diag = diagnosis_engine.update(
        diagnosis_input(),
        static_cast<std::int64_t>(coverage.covered_branches()),
        result.iterations.empty() ? 0
                                  : result.iterations.back().iteration);
    result.stall_kind = obs::to_string(diag.kind);
    result.stall_detail = diag.detail;
    result.stalled_seconds = diag.stalled_seconds;
  }

  if (board != nullptr) {
    board->worker_phase(0, result.iterations.empty()
                               ? -1
                               : result.iterations.back().iteration,
                        obs::WorkerPhase::kDone);
  }
  result.covered_branches = coverage.covered_branches();
  result.reachable_branches = coverage.reachable_branches();
  result.total_branches = coverage.total_branches();
  result.coverage_rate = coverage.rate();
  result.function_coverage = coverage.per_function();
  if (cache != nullptr) {
    result.solver_cache_hits = static_cast<std::size_t>(cache->hits());
    result.solver_cache_misses = static_cast<std::size_t>(cache->misses());
  }
  result.total_seconds = elapsed();
  result.total_exec_seconds = 0.0;
  result.total_solve_seconds = 0.0;
  for (const IterationRecord& r : result.iterations) {
    result.total_exec_seconds += r.exec_seconds;
    result.total_solve_seconds += r.solve_seconds;
    if (r.outcome == rt::Outcome::kDeadlock) ++result.deadlocks_found;
    if (r.outcome == rt::Outcome::kOrphanMessage) {
      ++result.orphan_messages_found;
    }
  }
  result.interleavings_enqueued = interleavings.enqueued;
  result.interleavings_run = interleavings.run_count;
  result.interleavings_pruned = interleavings.pruned;
  result.interleavings_capped = interleavings.capped;
  // A simulated kill stops before the summary files exist, exactly like a
  // real SIGKILL would; only the checkpoint survives (end_of_iteration
  // already exported the observability artifacts with it).
  if (halted) return result;
  if (session) {
    session->write_summary(result);
    session->write_ledger(ledger, *target_.table);
    session->write_coverage_timeline(result.iterations);
    if (options_.checkpoint_interval > 0) {
      save_checkpoint(options_.iterations);
    }
  }
  campaign_span.finish();  // close before the dump so the span is in it
  journal.close();
  export_obs();
  return result;
}

}  // namespace compi
