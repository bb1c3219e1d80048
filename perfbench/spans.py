"""Spans around the calls into each latentcorr layer, recorded from outside.

`Tracer.install` replaces public functions at module-attribute level, in
the namespace each caller looks them up in (for example
`latentcorr.estimator.invert_bridge`, which the estimator imported by
name).  The program's own files are not touched.  Spans are kept in
memory as (name, start, end, parent) and summarised by `layer_metrics`
once the operation has ended.

A refactor that routes a call around a wrapped name leaves its time
outside every span, where it shows up in `trace.unattributed_s`.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import Counter

import numpy as np

PER_LAYER = {  # metric -> unit, in report order
    "cli.read_csv_s": "s",
    "cli.csv_bytes": "bytes",
    "kendall.busy_s": "s",
    "kendall.calls": "count",
    "kendall.pair_rows": "count",
    "kendall.ns_per_pair_row": "ns",
    "kendall.comparisons": "count",
    "bridge.busy_s": "s",
    "bridge.calls.sin": "count",
    "bridge.calls.ord_cont": "count",
    "bridge.calls.ord_ord": "count",
    "bridge.newton_iters": "count",
    "bridge.clamped": "count",
    "bridge.cutoffs_s": "s",
    "estimator.estimate_self_s": "s",
    "estimator.project_psd_s": "s",
    "glasso.fit_s": "s",
    "glasso.refit_s": "s",
    "glasso.sweeps": "count",
    "glasso.fits": "count",
    "glasso.refits": "count",
    "glasso.refit_ratio": "ratio",
    "simulate.replicates": "count",
    "simulate.self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def _complete_rows(x, y) -> int:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return int(np.count_nonzero(~(np.isnan(x) | np.isnan(y))))


def _bridge_kind(kind) -> str:
    lj, lk = kind.levels_j, kind.levels_k
    if lj is None and lk is None:
        return "sin"
    if lj is None or lk is None:
        return "ord_cont"
    return "ord_ord"


class Tracer:
    """In-memory span recorder for one operation in one thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.errors: dict[str, str] = {}  # span name -> first exception it raised
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a wrapper recording a span named name.

        count(tracer, args, kwargs, result) runs after a successful call,
        outside the span, to record counts taken from the arguments or
        the result.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors.setdefault(name, f"{type(exc).__name__}: {exc}")
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [t0, t1]
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)

    def install(self) -> None:
        from latentcorr import cli, estimator, glasso, kendall, simulate

        def csv_bytes(t, args, kwargs, result):
            t.counts["cli.csv_bytes"] += os.path.getsize(args[0])

        def kendall_rows(t, args, kwargs, result):
            n = _complete_rows(args[0], args[1])
            t.counts["kendall.pair_rows"] += n
            t.counts["kendall.comparisons"] += n * math.ceil(math.log2(n))

        def bridge_counts(t, args, kwargs, result):
            kind = kwargs.get("kind", args[1] if len(args) > 1 else None)
            tag = _bridge_kind(kind)
            t.counts["bridge.calls." + tag] += 1
            t.counts["bridge.newton_iters"] += result.iterations
            t.counts["bridge.clamped"] += int(result.clamped)
            # every simulated replicate makes one continuous-baseline inversion
            if tag == "sin" and t._stack and t.spans[t._stack[-1]][0] == "simulate.scenario":
                t.counts["simulate.replicates"] += 1

        def sweeps(t, args, kwargs, result):
            t.counts["glasso.sweeps"] += result.sweeps

        self.wrap(cli, "read_csv", "cli.read_csv", csv_bytes)
        self.wrap(cli, "infer_column_specs", "estimator.infer_specs")
        self.wrap(cli, "estimate_latent_correlation", "estimator.estimate")
        self.wrap(cli, "project_psd", "estimator.project_psd")
        self.wrap(kendall, "tau_a", "kendall", kendall_rows)
        self.wrap(kendall, "tau_b", "kendall", kendall_rows)
        for mod in (estimator, simulate):
            self.wrap(mod, "invert_bridge", "bridge.invert", bridge_counts)
            self.wrap(mod, "estimate_cutoffs", "bridge.cutoffs")
        self.wrap(glasso, "select_hbic", "glasso.select_hbic")
        self.wrap(glasso, "glasso_fit", "glasso.fit", sweeps)
        self.wrap(glasso, "refit_support", "glasso.refit")
        self.wrap(simulate, "scenario1", "simulate.scenario")

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of the finished operation that took wall_s."""
        busy: Counter = Counter()
        child_time: Counter = Counter()  # time covered by direct children, per span
        calls: Counter = Counter()
        top = 0.0
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            busy[name] += t1 - t0
            calls[name] += 1
            if parent < 0:
                top += t1 - t0
            else:
                child_time[parent] += t1 - t0

        def self_time(name: str) -> float:
            return sum(
                (t1 - t0) - child_time[i]
                for i, (n, t0, t1, _) in enumerate(self.spans)
                if n == name
            )

        c = self.counts
        fits = calls["glasso.fit"]
        return {
            "cli.read_csv_s": busy["cli.read_csv"],
            "cli.csv_bytes": c["cli.csv_bytes"],
            "kendall.busy_s": busy["kendall"],
            "kendall.calls": calls["kendall"],
            "kendall.pair_rows": c["kendall.pair_rows"],
            "kendall.ns_per_pair_row": (
                1e9 * busy["kendall"] / c["kendall.pair_rows"] if c["kendall.pair_rows"] else 0.0
            ),
            "kendall.comparisons": c["kendall.comparisons"],
            "bridge.busy_s": busy["bridge.invert"] + busy["bridge.cutoffs"],
            "bridge.calls.sin": c["bridge.calls.sin"],
            "bridge.calls.ord_cont": c["bridge.calls.ord_cont"],
            "bridge.calls.ord_ord": c["bridge.calls.ord_ord"],
            "bridge.newton_iters": c["bridge.newton_iters"],
            "bridge.clamped": c["bridge.clamped"],
            "bridge.cutoffs_s": busy["bridge.cutoffs"],
            "estimator.estimate_self_s": (
                self_time("estimator.estimate") + busy["estimator.infer_specs"]
            ),
            "estimator.project_psd_s": busy["estimator.project_psd"],
            "glasso.fit_s": busy["glasso.fit"],
            "glasso.refit_s": busy["glasso.refit"],
            "glasso.sweeps": c["glasso.sweeps"],
            "glasso.fits": fits,
            "glasso.refits": calls["glasso.refit"],
            "glasso.refit_ratio": calls["glasso.refit"] / fits if fits else 0.0,
            "simulate.replicates": c["simulate.replicates"],
            "simulate.self_s": self_time("simulate.scenario"),
            "trace.unattributed_s": wall_s - top,
        }
