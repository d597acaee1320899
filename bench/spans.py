"""Outside-in tracing of slln_lab: spans around calls into each module.

The package is not edited.  :class:`Tracer` replaces the module (or class)
attributes the package calls through with timing wrappers and restores them
afterwards.  Each span records its name, start, end, parent span and the
path index it ran under; spans stay in memory until :meth:`Tracer.dump`.
Very hot scalar calls (``MomentSchedule.value`` inside the insert-position
search) only bump counters.  Calls made inside pool worker processes pass
straight through: spans are recorded in the process that installed the
tracer only.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from slln_lab import calculus, cli, diagnostics, generators, hypotheses, mixture, quadrature, rng, schedules


class Tracer:
    """Span and counter store; single-threaded, one per traced iteration."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, path_index]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._path_index: int | None = None

    # -- recording ------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._path_index])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None, hot=None):
        """Timing wrapper around ``fn``.

        ``before(args, kwargs)`` returns the ``(args, kwargs)`` to call with;
        ``after(args, result)`` sees the result.  A call for which
        ``hot(args)`` returns true is only counted (by ``hot``), not spanned.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hot is not None and hot(args):
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def path(self, path_index: int):
        previous = self._path_index
        self._path_index = path_index
        try:
            yield
        finally:
            self._path_index = previous

    # -- what is wrapped ------------------------------------------------------

    def _targets(self):
        c = self.counters

        def count_uniforms(args, kwargs):
            c["rng.uniforms.count"] += int(args[1] if len(args) > 1 else kwargs["count"])
            return args, kwargs

        def count_x_values(args, kwargs):
            c["generators.x_sample.values"] += int(args[1] if len(args) > 1 else kwargs["count"])
            return args, kwargs

        def count_points(args, kwargs):
            points = int(np.size(args[1]))
            c["schedules.value.calls"] += 1
            c["schedules.value.points"] += points
            if self._path_index is not None:
                c["schedules.value.points_in_path"] += points
            return args, kwargs

        def count_inserts(args, summary):
            c["mixture.inserts_used"] += int(summary.insert_count)

        def count_f_evals(args, kwargs):
            f = args[0]

            def counted(x):
                c["quadrature.f_evals"] += 1
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs

        def scalar_value(args):
            if not np.isscalar(args[1]):
                return False
            c["schedules.value.calls"] += 1
            c["schedules.value.points"] += 1
            return True

        run_path_inner = self.wrap("mixture.run_path", mixture.run_path, after=count_inserts)

        @functools.wraps(mixture.run_path)
        def run_path(config, *args, **kwargs):
            with self.path(config.path_index):
                return run_path_inner(config, *args, **kwargs)

        positions = self.wrap("schedules.insert_positions", schedules.y_insertion_positions)
        suffix_sup = self.wrap("diagnostics.suffix_sup", diagnostics.suffix_sup)
        run_ensemble = self.wrap("diagnostics.run_ensemble", diagnostics.run_ensemble)
        bound_suite = self.wrap("calculus.bound_suite", calculus.bound_suite)
        verify = self.wrap("hypotheses.verify", hypotheses.verify_hypotheses)
        return [
            (rng.UniformStream, "uniforms",
             self.wrap("rng.uniforms", rng.UniformStream.uniforms, before=count_uniforms)),
            (schedules.SparsityPattern, "alpha",
             self.wrap("schedules.alpha", schedules.SparsityPattern.alpha)),
            (schedules.MomentSchedule, "value",
             self.wrap("schedules.value", schedules.MomentSchedule.value, before=count_points, hot=scalar_value)),
            (schedules, "y_insertion_positions", positions),
            (calculus, "y_insertion_positions", positions),
            (generators.XFamily, "sample_block",
             self.wrap("generators.x_sample", generators.XFamily.sample_block, before=count_x_values)),
            (generators.TailEnvelope, "sample_v",
             self.wrap("generators.y_sample", generators.TailEnvelope.sample_v)),
            (mixture, "run_path", run_path),
            (mixture, "suffix_sup", suffix_sup),
            (diagnostics, "suffix_sup", suffix_sup),
            (diagnostics, "aggregate_paths", self.wrap("diagnostics.aggregate", diagnostics.aggregate_paths)),
            (diagnostics, "run_ensemble", run_ensemble),
            (cli, "run_ensemble", run_ensemble),
            (calculus, "bound_suite", bound_suite),
            (cli, "bound_suite", bound_suite),
            (calculus, "series_bound_A", self.wrap("calculus.series_A", calculus.series_bound_A)),
            (calculus, "series_bound_B", self.wrap("calculus.series_B", calculus.series_bound_B)),
            (calculus, "weighted_y_series_ensemble",
             self.wrap("calculus.weighted_series", calculus.weighted_y_series_ensemble)),
            (quadrature, "adaptive_simpson",
             self.wrap("quadrature.simpson", quadrature.adaptive_simpson, before=count_f_evals)),
            (hypotheses, "verify_hypotheses", verify),
            (cli, "verify_hypotheses", verify),
            (cli, "run", self.wrap("cli.run", cli.run)),
            (cli, "write_calculus_csv", self.wrap("cli.write_calculus_csv", cli.write_calculus_csv)),
            (cli, "write_deviations_csv", self.wrap("cli.write_deviations_csv", cli.write_deviations_csv)),
        ]

    # -- reading --------------------------------------------------------------

    def overhead_s(self, costs: dict) -> float:
        """Seconds the wrappers added to the traced calls: each kind of
        wrapped call, counted, times its cost from :func:`wrapper_costs`."""
        hot = self.counters["schedules.value.calls"] - self.calls("schedules.value")
        return (len(self.spans) * costs["span"] + hot * costs["hot"]
                + self.counters["quadrature.f_evals"] * costs["f_eval"])

    def durations(self) -> list[int]:
        return [end - start for _, start, end, _, _ in self.spans]

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Children of one span run one after another in this single thread, so
        their summed durations equal the part of the parent they cover.
        """
        covered = defaultdict(int)
        durations = self.durations()
        for (_, _, _, parent, _), dur in zip(self.spans, durations):
            if parent is not None:
                covered[parent] += dur
        return [dur - covered[i] for i, dur in enumerate(durations)]

    def _outermost(self, name: str, parent: str | None = None):
        """Spans called ``name`` not nested in another such span, optionally
        only those directly under a span called ``parent``."""
        for span in self.spans:
            par = self.spans[span[3]][0] if span[3] is not None else None
            if span[0] == name and par != name and (parent is None or par == parent):
                yield span

    def total_s(self, name: str, parent: str | None = None) -> float:
        return sum(end - start for _, start, end, _, _ in self._outermost(name, parent)) * 1e-9

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_s(self, name: str) -> float:
        return sum(s for s, span in zip(self.self_times(), self.spans) if span[0] == name) * 1e-9

    def span_ms(self, name: str) -> list[float]:
        return [(end - start) * 1e-6 for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "path_index": pi, "self_ns": st}
            for (n, s, e, p, pi), st in zip(self.spans, selfs)
        ]
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}) + "\n")


def wrapper_costs(calls: int = 20000, repeats: int = 7) -> dict:
    """Seconds one wrapper adds to a call, by kind: a spanned call, a
    counted-only hot scalar call and a counted quadrature integrand call.

    Each is the median over ``repeats`` of the time of ``calls`` wrapped
    calls of a no-op, less that of as many plain calls, per call.
    """
    probe = Tracer()
    c = probe.counters

    def noop(*args):
        return None

    def hot(args):
        if not np.isscalar(args[0]):
            return False
        c["calls"] += 1
        c["points"] += 1
        return True

    def f_eval(x):
        c["f_evals"] += 1
        return noop(x)

    kinds = {
        "span": probe.wrap("probe", noop, before=lambda args, kwargs: (args, kwargs)),
        "hot": probe.wrap("probe", noop, hot=hot),
        "f_eval": f_eval,
    }

    def elapsed(fn) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(1.0)
        return time.perf_counter_ns() - t0

    costs = {}
    for kind, fn in kinds.items():
        samples = []
        for _ in range(repeats):
            probe.spans.clear()
            samples.append((elapsed(fn) - elapsed(noop)) / calls * 1e-9)
        costs[kind] = max(statistics.median(samples), 0.0)
    return costs
