#!/usr/bin/env python3
"""COMPI campaign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a COMPI source tree.  Builds perfbench/ (which builds
../src) into .bench_build, then runs campaigns of the chosen workload, one
process each, until S seconds have passed.  --trace 0 runs the untraced
build and reports the end-to-end metrics; --trace 1 alternates traced and
untraced campaigns and reports the per-layer metrics.  Every campaign's
outputs are checked against the workload's recorded values.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The metric names and units are those of BENCHMARK.json at the tree's root.
README.md describes the workloads and metrics.
"""

import argparse
import collections
import ctypes
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402

REPO = os.path.dirname(HERE)
RANK_CAP = 4  # campaign_bench.cc kRankCap: every workload's world size
CAMPAIGN_TIMEOUT_S = 100
# The metrics are medians over the quiet campaigns only: those during which
# the host stole at most STEAL_LIMIT of the CPU time (from /proc/stat).  On
# the 4-core VM the benchmark was tuned on, every 0.5% of steal made a
# campaign 3-5% slower, and campaigns with 5-18% steal ran 1.3-2.6 times as
# long as quiet ones.  Disturbed campaigns are still checked.  A run goes on
# past --seconds until it has MIN_QUIET quiet campaigns (under --trace 1,
# half of them, rounded up, of each kind), for at most EXTEND_S; a host
# that steals through all of that gets no result (exit code 2) rather than a
# disturbed one.
STEAL_LIMIT = 0.02
MIN_QUIET = 5
EXTEND_S = 40.0

# Reported in every run's table, and as per-layer metrics of --trace 1 runs:
# they are 0 on some workload, so they cannot be bounded end-to-end metrics.
CAMPAIGN_COUNTS = ("bugs_found", "iters_to_cov", "artifact_kb_per_iter",
                   "fail_share")

# Each workload's recorded outputs, the layer entry points its traced pass
# must hit, and how long unmeasured campaigns run first (at least one).  On
# an idle host the first hpl campaign ran up to 40% faster than the ones that
# followed.  SUSY's session files take longer to settle: the first measured
# campaigns after a 2-s warm-up took 2.5-3.0 s, later ones 1.9-2.2 s.
COMMON_ENTRIES = ("solver.solve", "compi.coverage.merge",
                  "compi.ledger.record_run", "compi.framework.plan",
                  "obs.journal.flush")
WORKLOADS = {
    "hpl-serial": {
        "cov_branches": 148,
        "iters_to_cov": 1339,
        "bugs": [],
        "entries": ("minimpi.launch",) + COMMON_ENTRIES,
        "warmup_s": 2.0,
    },
    "imb-isolate": {
        "cov_branches": 65,
        "iters_to_cov": 24,
        "bugs": [],
        "entries": ("sandbox.fork_server",) + COMMON_ENTRIES,
        "warmup_s": 2.0,
    },
    "susy-logged": {
        "cov_branches": 90,
        "iters_to_cov": None,  # the search diverges: not checked, reported 0
        # SUSY's four seeded bugs: three wrong-sizeof mallocs and one
        # division by zero with an even number of processes.
        "bugs": ["fpe:", "segfault:dest", "segfault:psim", "segfault:src"],
        "entries": ("minimpi.launch", "compi.session.write_iteration",
                    "compi.session.append_iteration",
                    "compi.session.checkpoint") + COMMON_ENTRIES,
        "warmup_s": 10.0,
    },
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def metric_units():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    try:
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return tuple([(m["name"], m["unit"]) for m in spec[key]]
                 for key in ("end_to_end", "per_layer"))


def cpu_times():
    """Aggregate /proc/stat jiffies: (steal, total)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(REPO, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".py", ".txt")):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, REPO).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(RANK_CAP, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "perfbench_campaign", "perfbench_campaign_traced"],
                      stdout=log, stderr=log).returncode != 0:
        fail("build failed")


def files(path):
    return [os.path.join(d, f) for d, _, names in os.walk(path) for f in names]


def empty_session(path):
    """Truncates every file of a previous campaign's session to 0 bytes but
    keeps the files.  The next campaign then rewrites existing files, which
    on ext4 is far steadier than creating new ones: creating a file next to
    thousands deleted in the last minutes cost up to 30 times more kernel
    time, and how much depended on the history of the disk."""
    for f in files(path):
        os.truncate(f, 0)


def bug_key(bug):
    m = re.search(r"block '(\w+)'", bug["message"])
    return bug["outcome"] + ":" + (m.group(1) if m else "")


def sync_fs(path):
    """Commits the file system holding `path`, so one campaign's journal and
    writeback work does not land in the next campaign's timing."""
    fd = os.open(path, os.O_RDONLY)
    try:
        ctypes.CDLL(None, use_errno=True).syncfs(fd)
    finally:
        os.close(fd)


def run_campaign(exe, workload, run_dir, index, traced):
    """Runs one campaign process; returns its raw record plus the derived
    numbers, or raises RuntimeError."""
    session = os.path.join(run_dir, "session")
    empty_session(session)
    span_file = os.path.join(run_dir, "spans-%d.txt" % index)
    cmd = [exe, "--workload=" + workload, "--session=" + session]
    if traced:
        cmd.append("--spans=" + span_file)
    sync_fs(run_dir)
    steal0, total0 = cpu_times()
    start_ns = time.monotonic_ns()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("campaign timed out")
    if p.returncode != 0:
        raise RuntimeError("campaign exited %d: %s" %
                           (p.returncode, p.stderr.strip()[-500:]))
    steal1, total1 = cpu_times()
    rec = json.loads(p.stdout.strip().splitlines()[-1])
    rec["steal_share"] = (steal1 - steal0) / max(1, total1 - total0)
    rec["setup_s"] = (rec["run_ns"] - start_ns) / 1e9
    rec["wall_s"] = (rec["end_ns"] - rec["run_ns"]) / 1e9
    rec["artifact_bytes"] = sum(os.path.getsize(f) for f in files(session))
    if traced:
        with open(span_file) as f:
            rec["spans"] = spans.parse(f)
        os.remove(span_file)
    return rec


def check(rec, expect, traced):
    """Output checks of one campaign; returns a list of failures."""
    errors = []
    if rec["cov_branches"] != expect["cov_branches"]:
        errors.append("cov_branches %d, recorded %d" %
                      (rec["cov_branches"], expect["cov_branches"]))
    if (expect["iters_to_cov"] is not None
            and rec["iters_to_cov"] != expect["iters_to_cov"]):
        errors.append("iters_to_cov %d, recorded %d" %
                      (rec["iters_to_cov"], expect["iters_to_cov"]))
    bugs = sorted(bug_key(b) for b in rec["bugs"])
    if bugs != expect["bugs"]:
        errors.append("bugs %s, recorded %s" % (bugs, expect["bugs"]))
    if any(b["flaky"] for b in rec["bugs"]):
        errors.append("a bug did not reproduce on confirmation")
    if rec["infra_failures"]:
        errors.append("%d cold forks, server restarts or hang kills" %
                      rec["infra_failures"])
    if traced:
        counts = collections.Counter(s.name for s in rec["spans"])
        missing = [e for e in expect["entries"] if counts[e] == 0]
        if missing:
            errors.append("traced pass saw no call of %s: a wrapped entry "
                          "point is no longer called across object files"
                          % ", ".join(missing))
    return errors


def quiet(recs):
    """The campaigns the metrics are taken from (see STEAL_LIMIT)."""
    return [r for r in recs if r["steal_share"] <= STEAL_LIMIT]


def median(values):
    return statistics.median(values) if values else 0.0


def campaign_counts(recs, expect, failed_checks):
    iters = sum(r["iterations"] for r in recs)
    infra = sum(r["infra_failures"] for r in recs)
    reported = expect["iters_to_cov"] is not None
    return {
        "bugs_found": median([len(r["bugs"]) for r in recs]),
        "iters_to_cov": median(
            [r["iters_to_cov"] for r in recs]) if reported else 0.0,
        "artifact_kb_per_iter": median(
            [r["artifact_bytes"] / 1024 / r["iterations"] for r in recs]),
        "fail_share": (failed_checks + infra) / iters if iters else 0.0,
    }


def end_to_end(recs):
    return {
        "iters_per_s": median([r["iterations"] / r["wall_s"] for r in recs]),
        "cpu_ms_per_iter": median(
            [1e3 * (r["self_user_s"] + r["self_sys_s"] + r["children_user_s"]
                    + r["children_sys_s"]) / r["iterations"] for r in recs]),
        "setup_s": median([r["setup_s"] for r in recs]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024 for r in recs]),
        "cov_branches": median([r["cov_branches"] for r in recs]),
    }


def per_layer(plain, traced, steal_share):
    layers = [spans.layer_metrics(r["spans"], r["iterations"]) for r in traced]
    m = {k: median([l[k] for l in layers]) for k in layers[0]}
    m["sandbox.warm_ratio"] = median(
        [r["warm_spawns"] / r["sandbox_runs"] if r["sandbox_runs"] else 0.0
         for r in traced])
    m["sandbox.cold_forks"] = median([r["cold_forks"] for r in traced])

    def per_iter(f):
        return median([f(r) / r["iterations"] for r in plain])

    m["process.user_ms_per_iter"] = per_iter(lambda r: 1e3 * r["self_user_s"])
    m["process.sys_ms_per_iter"] = per_iter(lambda r: 1e3 * r["self_sys_s"])
    m["process.children_ms_per_iter"] = per_iter(
        lambda r: 1e3 * (r["children_user_s"] + r["children_sys_s"]))
    m["process.ctx_switches_per_iter"] = per_iter(lambda r: r["ctx_switches"])
    m["host.steal_share"] = steal_share
    m["trace.overhead_share"] = (median([r["wall_s"] for r in traced]) /
                                 median([r["wall_s"] for r in plain]) - 1.0)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("no COMPI sources at %s; run from a COMPI source tree"
             % os.path.join(REPO, "src"))
    cores = len(os.sched_getaffinity(0))
    if RANK_CAP > cores:
        fail("refusing to run: the rank cap (%d) exceeds this host's %d cores"
             % (RANK_CAP, cores))

    end_to_end_units, per_layer_units = metric_units()
    units = dict(end_to_end_units + per_layer_units)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build(build_dir)
    plain_exe = os.path.join(build_dir, "perfbench_campaign")
    traced_exe = os.path.join(build_dir, "perfbench_campaign_traced")
    run_dir = os.path.abspath(os.path.join(
        ".bench_run", "%s-%d" % (args.workload, os.getpid())))
    os.makedirs(run_dir)

    expect = WORKLOADS[args.workload]
    # --trace 1 alternates traced and untraced campaigns; the seed picks
    # which kind goes first.
    kinds = [False] if not args.trace else (
        [True, False] if args.seed % 2 else [False, True])
    plain, traced, errors = [], [], []
    attempted = failed = 0
    steal0, total0 = cpu_times()
    warmup_end = time.monotonic() + expect["warmup_s"]
    deadline = None
    disturbed = False

    def lacking():
        """Pass kinds that still need quiet campaigns (see MIN_QUIET)."""
        need = -(-MIN_QUIET // len(kinds))
        return [k for k in kinds if len(quiet(traced if k else plain)) < need]

    try:
        # Warm up with untraced campaigns, then measure until --seconds have
        # passed and there are enough quiet campaigns, for at most another
        # EXTEND_S.  Stop at the first failed campaign.
        while not failed:
            now = time.monotonic()
            kind = kinds[(len(plain) + len(traced)) % len(kinds)]
            if deadline is None and attempted and now >= warmup_end:
                deadline = now + args.seconds
                steal0, total0 = cpu_times()
            elif deadline is not None and now >= deadline:
                if not lacking():
                    break
                if now >= deadline + EXTEND_S:
                    disturbed = True
                    break
                if kind not in lacking():
                    kind = lacking()[0]
            measured = deadline is not None
            kind = measured and kind
            attempted += 1
            try:
                rec = run_campaign(traced_exe if kind else plain_exe,
                                   args.workload, run_dir, attempted, kind)
            except (RuntimeError, ValueError) as e:
                errs = [str(e)]
            else:
                rec["infra_failures"] = (rec["cold_forks"] +
                                         rec["hang_kills"] +
                                         rec["fork_server_restarts"])
                errs = check(rec, expect, kind)
                if measured:
                    (traced if kind else plain).append(rec)
            failed += bool(errs)
            errors += ["campaign %d: %s" % (attempted, e) for e in errs]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass
    steal1, total1 = cpu_times()
    steal_share = (steal1 - steal0) / max(1, total1 - total0)

    if failed and (not quiet(plain) or (args.trace and not quiet(traced))):
        for e in errors:
            print("FAILED " + e)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if disturbed:
        fail("no result: the host stole more than %g%% of the CPU time "
             "during all but %d of %d measured campaigns (host.steal_share "
             "%.3f); %d quiet ones are needed"
             % (100 * STEAL_LIMIT, len(quiet(plain + traced)),
                len(plain + traced), steal_share, MIN_QUIET))

    e2e = end_to_end(quiet(plain))
    e2e.update(campaign_counts(plain, expect, failed))
    diag = {
        "workload": args.workload, "seed": args.seed,
        "campaigns": {"untraced": len(plain), "traced": len(traced),
                      "quiet_untraced": len(quiet(plain)),
                      "quiet_traced": len(quiet(traced))},
        "iterations_per_campaign": plain[0]["iterations"],
        "host_cores": cores, "build_type": plain[0]["build_type"],
        "commit": commit(), "source_digest": source_digest(),
        "rank_cap": plain[0]["rank_cap"], "campaign_seed": plain[0]["seed"],
        "host.steal_share": steal_share,
    }
    for key in ("wall_s", "steal_share"):
        diag[key] = [round(r[key], 4) for r in plain]
    print("diagnostics " + json.dumps(diag))
    # Every metric computed must be named in BENCHMARK.json, and the other
    # way round.
    table = [("end-to-end", e2e, [n for n, _ in end_to_end_units]
              + list(CAMPAIGN_COUNTS))]
    if args.trace:
        metrics = per_layer(quiet(plain), quiet(traced), steal_share)
        metrics.update(campaign_counts(plain + traced, expect, failed))
        table.append(("per-layer", metrics, [n for n, _ in per_layer_units]))
    for group, values, names in table:
        if sorted(values) != sorted(names) or len(set(names)) != len(names):
            fail("the %s metrics computed and those BENCHMARK.json names "
                 "differ: %s" % (group, sorted(set(values) ^ set(names))))
        print("%-40s %14s  %s" % (group + " metric", "value", "unit"))
        for name in names:
            print("%-40s %14.6g  %s" % (name, values[name], units[name]))
    for e in errors:
        print("FAILED " + e)

    reported = per_layer_units if args.trace else end_to_end_units
    out = {n: {"value": table[-1][1][n], "unit": u} for n, u in reported}
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
