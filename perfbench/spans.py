"""Span arithmetic for the traced pass: parsing, self time, percentiles and
the per-layer metrics of one traced campaign.

A span file holds one line per span, `name parent start_ns end_ns a b c`,
where `parent` is the line index of the enclosing span (-1 for none) and
a, b, c are the per-name attributes that span_wrap.cc documents.
"""

from typing import NamedTuple

ROOT = "campaign.run"
SANDBOX = ("sandbox.fork_server", "sandbox.run_sandboxed",
           "sandbox.batch_reset")
SESSION = ("compi.session.write_iteration", "compi.session.append_iteration",
           "compi.session.checkpoint")


class Span(NamedTuple):
    name: str
    parent: int
    start_ns: int
    end_ns: int
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0

    @property
    def dur_ns(self):
        return self.end_ns - self.start_ns


def parse(lines):
    spans = []
    for line in lines:
        f = line.split()
        if not f:
            continue
        spans.append(Span(f[0], int(f[1]), int(f[2]), int(f[3]),
                          float(f[4]), float(f[5]), float(f[6])))
    return spans


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of one span run on the span's thread, one after another, so
    the part they cover is the sum of their durations."""
    own = [s.dur_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.dur_ns
    return own


def percentile(values, q):
    """The q-th percentile (0..100), interpolating linearly between the two
    nearest order statistics; 0.0 for no values."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _outermost(spans, group):
    """Spans named in `group` that have no ancestor named in `group`."""
    out = []
    for s in spans:
        if s.name not in group:
            continue
        p = s.parent
        while p >= 0 and spans[p].name not in group:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans, iterations):
    """Per-layer metrics of one traced campaign whose spans are `spans`
    (exactly one campaign.run root) and which ran `iterations` iterations."""
    roots = [i for i, s in enumerate(spans) if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError("expected one %s span, found %d" % (ROOT, len(roots)))
    wall = spans[roots[0]].dur_ns
    own = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def share(group):
        return sum(s.dur_ns for s in _outermost(spans, group)) / wall

    def us(ss):
        return [s.dur_ns / 1e3 for s in ss]

    m = {}
    launch = named("minimpi.launch")
    cpu = [s.b + s.c for s in launch]
    m["minimpi.launch_share"] = share(("minimpi.launch",))
    m["minimpi.launch_us_p50"] = percentile(us(launch), 50)
    m["minimpi.launch_us_p99"] = percentile(us(launch), 99)
    m["minimpi.launch_cpu_us_p50"] = percentile(cpu, 50)
    m["minimpi.launch_sys_share"] = (
        sum(s.c for s in launch) / sum(cpu) if sum(cpu) > 0 else 0.0)
    m["minimpi.ranks_per_launch"] = (
        sum(s.a for s in launch) / len(launch) if launch else 0.0)

    sandbox = _outermost(spans, SANDBOX)
    overhead = [s.dur_ns / 1e3 - s.a for s in sandbox]
    m["sandbox.run_share"] = share(SANDBOX)
    m["sandbox.run_us_p50"] = percentile(us(sandbox), 50)
    m["sandbox.run_us_p99"] = percentile(us(sandbox), 99)
    m["sandbox.spawn_overhead_us_p50"] = percentile(overhead, 50)
    m["sandbox.spawn_overhead_us_p99"] = percentile(overhead, 99)
    m["sandbox.first_run_us"] = sandbox[0].dur_ns / 1e3 if sandbox else 0.0

    solve = named("solver.solve")
    m["solver.share"] = share(("solver.solve",))
    m["solver.calls_per_iter"] = len(solve) / iterations
    m["solver.us_p50"] = percentile(us(solve), 50)
    m["solver.us_p99"] = percentile(us(solve), 99)
    m["solver.nodes_per_call"] = (
        sum(s.a for s in solve) / len(solve) if solve else 0.0)
    m["solver.sat_ratio"] = (
        sum(s.b for s in solve) / len(solve) if solve else 0.0)
    m["solver.budget_exhausted"] = sum(s.c for s in solve)

    write = us(named("compi.session.write_iteration"))
    checkpoint = us(named("compi.session.checkpoint"))
    m["compi.session.write_iteration_us_p50"] = percentile(write, 50)
    m["compi.session.write_iteration_us_p99"] = percentile(write, 99)
    m["compi.session.append_iteration_us_p50"] = percentile(
        us(named("compi.session.append_iteration")), 50)
    m["compi.session.checkpoint_us_p50"] = percentile(checkpoint, 50)
    m["compi.session.checkpoint_us_last"] = checkpoint[-1] if checkpoint else 0.0
    m["compi.session.share"] = share(SESSION)
    m["compi.coverage.merge_share"] = share(("compi.coverage.merge",))
    m["compi.ledger.record_share"] = share(("compi.ledger.record_run",))
    m["compi.framework.plan_share"] = share(("compi.framework.plan",))
    m["compi.driver.residual_share"] = own[roots[0]] / wall
    m["obs.journal.flush_share"] = share(("obs.journal.flush",))
    return m
