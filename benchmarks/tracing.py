"""In-memory span tracing around the public calls of each ``sbpd`` module.

Spans are recorded from the benchmark's side only: ``instrument`` swaps
module attributes and class methods for timing wrappers and restores them on
exit, so the product code runs unchanged. Every span has a name, a start, an
end and a parent. Per-step spans are too many to keep one by one, so the
tracer aggregates them per (name, parent, root) as they close and keeps raw
records only for the shallow spans (phases and their direct calls).

Self time is a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from collections import Counter

# Raw spans deeper than this are only aggregated.
KEEP_DEPTH = 2


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    ``spans`` is a list of :class:`Span`; the result maps span id to self
    time in the spans' clock unit. Children are clipped to their parent's
    interval, and overlapping children are counted once.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Span stack with per-(name, parent, root) aggregation.

    ``stats[(name, parent, root)]`` holds ``[count, total_ns, self_ns]``;
    ``counts[(name, root)]`` holds count-only events (calls too cheap and
    too many to time without distorting their callers).
    """

    def __init__(self, clock=time.perf_counter_ns, keep_depth=KEEP_DEPTH):
        self.clock = clock
        self.keep_depth = keep_depth
        self.stack = []
        self.stats = {}
        self.counts = Counter()
        self.spans = []
        self.n_spans = 0
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        frame = [name, self.clock(), 0, self._next_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        stack = self.stack
        stack.pop()
        name, start, child_ns, sid = frame
        dur = end - start
        if stack:
            parent = stack[-1]
            parent[2] += dur
            key = (name, parent[0], stack[0][0])
        else:
            parent = None
            key = (name, None, name)
        st = self.stats.get(key)
        if st is None:
            self.stats[key] = [1, dur, dur - child_ns]
        else:
            st[0] += 1
            st[1] += dur
            st[2] += dur - child_ns
        self.n_spans += 1
        if len(stack) < self.keep_depth:
            self.spans.append(Span(sid, name, start, end,
                                   None if parent is None else parent[3]))

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, name, n=1):
        root = self.stack[0][0] if self.stack else None
        self.counts[(name, root)] += n

    def wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return traced

    def wrap_counted(self, name, fn):
        count = self.count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)
        return counted

    # ----------------------------------------------------------- queries

    def rows(self, root=None):
        """``(name, parent, count, total_ns, self_ns)`` under one root."""
        return [(n, p, c, t, s) for (n, p, r), (c, t, s) in self.stats.items()
                if root is None or r == root]

    def total(self, name, root, parent=None):
        """(count, inclusive ns) of spans named ``name`` under ``root``."""
        c = t = 0
        for n, p, cnt, tot, _ in self.rows(root):
            if n == name and (parent is None or p == parent):
                c += cnt
                t += tot
        return c, t

    def self_ns(self, root, prefix=""):
        """Summed self time of the spans under ``root`` whose name has ``prefix``."""
        return sum(s for n, _, _, _, s in self.rows(root) if n.startswith(prefix))

    def counted(self, name, root):
        return self.counts[(name, root)]

    def to_doc(self):
        return {
            "n_spans": self.n_spans,
            "aggregate": [
                {"name": n, "parent": p, "root": r, "count": c,
                 "total_ns": t, "self_ns": s}
                for (n, p, r), (c, t, s) in sorted(
                    self.stats.items(), key=lambda kv: -kv[1][1])],
            "counts": [{"name": n, "root": r, "count": c}
                       for (n, r), c in sorted(self.counts.items(),
                                               key=lambda kv: str(kv[0]))],
            "spans": [dataclasses.asdict(s) for s in self.spans],
        }


def wrapper_overhead_ns(counted=False, calls=20_000):
    """Cost of one span (or one count-only wrapper) around a no-op, in ns.

    Median of five rounds of ``calls`` calls, traced minus bare.
    """
    def noop():
        return None

    samples = []
    for _ in range(5):
        tr = Tracer()
        wrapped = (tr.wrap_counted if counted else tr.wrap)("noop", noop)
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        bare = time.perf_counter_ns() - t0
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter_ns() - t0
        samples.append(max(0, traced - bare) / calls)
    samples.sort()
    return samples[len(samples) // 2]


@contextlib.contextmanager
def patched(patches):
    """Set ``(owner, attr, value)`` triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in patches:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def instrument(tracer):
    """Context manager that routes the public calls of ``sbpd`` through spans.

    Functions imported by name into another module are patched where that
    module looks them up (``as_vector`` in ``linalg``, ``bregman`` and
    ``problems``; ``sbpd_step`` in ``solver`` and ``experiment``; ...).
    The callables a problem hands the solver through ``saddle_problem()``
    are wrapped on the returned ``SaddleProblem``, which also covers the
    lambdas defined inside the problem classes.
    """
    from sbpd import bregman, experiment, linalg, oracle, problems, solver

    w = tracer.wrap
    patches = []

    def fn(owner, attr, name):
        patches.append((owner, attr, w(name, owner.__dict__[attr])))

    # linalg
    fn(linalg.LinearMap, "apply", "linalg.apply")
    fn(linalg.LinearMap, "adjoint_apply", "linalg.adjoint")
    fn(problems, "operator_norm", "linalg.operator_norm")
    for mod in (linalg, bregman, problems):
        patches.append((mod, "as_vector",
                        tracer.wrap_counted("linalg.as_vector", mod.as_vector)))
    # oracle
    for meth in ("sample_batch", "estimate", "grad_estimate"):
        fn(oracle.GradientOracle, meth, f"oracle.{meth}")
    # solver
    for mod in (solver, experiment):
        fn(mod, "sbpd_step", "solver.sbpd_step")
    fn(problems, "run", "solver.run")
    fn(experiment, "lagrangian_gap", "solver.lagrangian_gap")
    for mod in (solver, experiment):
        fn(mod, "estimate_inequality_terms", "solver.cert")
    for mod in (experiment, problems):
        fn(mod, "asymptotic_residual", "solver.asymptotic_residual")
    fn(experiment, "ergodic_rate_constant", "solver.ergodic_rate_constant")
    # problems
    fn(experiment, "build_simplex_tv", "problems.build")
    fn(experiment, "build_ot_inverse", "problems.build")
    fn(experiment, "compute_reference", "problems.compute_reference")
    fn(problems, "load_reference", "problems.load_reference")
    fn(problems, "save_reference", "problems.save_reference")
    fn(problems.OTInverseProblem, "h_star_value", "problems.h_star_value")
    fn(problems, "ot_semidual_value_grad", "problems.semidual")
    for cls, l_star in ((problems.SimplexTVProblem, "bregman.linf_prox"),
                        (problems.OTInverseProblem, "problems.dual_prox")):
        patches.append((cls, "saddle_problem",
                        _traced_saddle(tracer, cls.__dict__["saddle_problem"],
                                       l_star)))
    # experiment
    fn(experiment, "_measured_run", "experiment.measured_run")
    fn(experiment, "_mean_records", "experiment.mean_records")
    patches.append((experiment, "write_trace",
                    _traced_write_trace(tracer, experiment.write_trace)))
    return patched(patches)


def _traced_saddle(tracer, saddle_problem, l_star_name):
    w = tracer.wrap

    @functools.wraps(saddle_problem)
    def traced(self, *args, **kwargs):
        sp = saddle_problem(self, *args, **kwargs)
        return dataclasses.replace(
            sp,
            f_grad=w("problems.f_grad", sp.f_grad),
            h_star_grad=w("problems.h_star_grad", sp.h_star_grad),
            g_prox=w("bregman.kl_prox", sp.g_prox),
            l_star_prox=w(l_star_name, sp.l_star_prox),
            lagrangian_eval=w("problems.lagrangian", sp.lagrangian_eval),
            f_partial_grad=(None if sp.f_partial_grad is None
                            else w("problems.f_partial_grad", sp.f_partial_grad)),
        )
    return traced


def _traced_write_trace(tracer, write_trace):
    timed = tracer.wrap("experiment.write_trace", write_trace)

    @functools.wraps(write_trace)
    def traced(path, records):
        records = list(records)
        if not str(path).endswith("mean_trace.csv"):
            tracer.count("experiment.log_rows", len(records))
        return timed(path, records)
    return traced
