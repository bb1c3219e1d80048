"""End-to-end and per-layer benchmark of the latentcorr CLI.

    python3 perfbench/run.py --workload {tall_mixed,wide_graph,paper_sim,all}
                             --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the program is imported from
the checkout's `src/`.  Load model: closed loop, one client.  Each
operation is one `latentcorr.cli.main` call in a fresh child process of
this process; the next starts when the previous has exited.  Operations
cycle through a pool of inputs generated from the seed until `--seconds`
have passed and every input has run.  Import-only children between the
operations add samples of the set-up time.

With `--trace 0` the operations run untraced and the end-to-end metrics
are reported.  With `--trace 1` every input runs once untraced and once
traced in turn; the per-layer metrics come from the traced operations
and `trace.overhead_s` is the traced minus the untraced median wall time.

Every operation's outputs are checked (see workloads.py).  A nonzero exit
or a failed check counts the operation as failed, with its exit code and
error message.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Scratch files go to `.perfbench_work/` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import HARNESS_ERROR  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import GENERATORS, WHY, Case, CheckError, check_outputs, make_cases  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 150.0  # no new operation starts if it would end after this
RUN_DEADLINE_S = 170.0  # an operation still running then is killed; runs must end in 180 s
SETUP_PROBES = 1  # import-only children before each operation

END_TO_END = {  # metric -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pair_rows_per_s": "1/s",
    "pair_estimates_per_s": "1/s",
    "latent_rmse": "corr",
}
# Single-threaded BLAS: one client on a small machine, so the measured time
# is the program's and not thread scheduling.  Recorded with every result.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclass
class Op:
    case: int
    traced: bool
    exit_code: int
    wall_s: float = math.nan
    setup_s: float = math.nan
    rss_mb: float = math.nan
    error: str = ""
    accuracy: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    layer_errors: dict = field(default_factory=dict)
    environment: dict | None = None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.error


def _wait(pid: int, deadline: float):
    """os.wait4 with a deadline; returns (status, rusage) or None on timeout."""
    while True:
        got, status, usage = os.wait4(pid, os.WNOHANG)
        if got == pid:
            return status, usage
        if time.monotonic() > deadline:
            return None
        time.sleep(0.05)  # the child times itself; this only delays the next spawn


def run_op(workload: str, case: Case | None, index: int, seq: int, traced: bool,
           want_env: bool, work: Path, deadline: float) -> Op:
    """Run one operation in a fresh child; case None only imports the program."""
    out = work / f"op{seq}"
    out.mkdir()
    job = {
        "src": str(ROOT / "src"),
        "argv": None if case is None else case.argv + ["--out-dir", str(out)],
        "trace": traced,
        "environment": want_env,
        "result": str(out / "result.json"),
    }
    (out / "job.json").write_text(json.dumps(job))
    env = {**os.environ, **CHILD_ENV}
    with open(out / "child.log", "wb") as log:
        spawned = time.monotonic()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-I", str(CHILD), str(out / "job.json"), repr(spawned)],
            env,
            file_actions=[(os.POSIX_SPAWN_DUP2, log.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, log.fileno(), 2)],
        )
        waited = None
        try:
            waited = _wait(pid, deadline)
        finally:
            if waited is None:  # timed out, or this process is being interrupted
                os.kill(pid, 9)
                os.waitpid(pid, 0)
    if waited is None:
        return Op(index, traced, -9, error=f"killed at the run's {RUN_DEADLINE_S:.0f} s deadline")
    status, usage = waited
    code = os.waitstatus_to_exitcode(status)
    if code == HARNESS_ERROR:
        raise HarnessError((out / "child.log").read_text().strip())
    try:
        res = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        tail = (out / "child.log").read_text(errors="replace").strip().splitlines()[-3:]
        return Op(index, traced, code, error="no result: " + " | ".join(tail))
    op = Op(index, traced, code, res.get("wall_s", math.nan), res.get("setup_s", math.nan),
            usage.ru_maxrss / 1024.0, res.get("error", ""), layers=res.get("layers", {}),
            layer_errors=res.get("layer_errors", {}), environment=res.get("environment"))
    if code != 0 and (out / "errors.json").is_file():
        err = json.loads((out / "errors.json").read_text())
        op.error = f"stage {err.get('stage')}: {err.get('message')}"
    elif code == 0 and case is not None:
        try:
            op.accuracy = check_outputs(workload, case, out)
        except (CheckError, OSError, ValueError) as exc:
            op.error = f"output check: {exc}"
    elif not op.error:
        op.error = f"exit code {code}"
    if op.ok:  # keep failed operations' files, and the spans of traced ones
        if traced:
            (out / "result.json").rename(work / f"spans{seq}.json")
        shutil.rmtree(out)
    return op


@dataclass
class Run:
    """Everything one workload run measured."""

    workload: str
    seed: int
    trace: bool
    cases: list[Case]
    ops: list[Op] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)  # every child's set-up time

    @property
    def plain(self) -> list[Op]:
        return [op for op in self.ops if not op.traced]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: dict | None = None) -> Run:
    """Cycle through the input pool until `seconds` have passed.

    Every input runs at least once (twice when traced: once each way).
    Before each operation, SETUP_PROBES children only import the program,
    so that `setup_s` has enough samples.
    """
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, trace, make_cases(workload, seed, work, size))
    ops, setups = run.ops, run.setups
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    while True:
        i = len(ops) // (2 if trace else 1) % len(run.cases)
        modes = [False] if not trace else ([False, True] if i % 2 == 0 else [True, False])
        for traced in modes:
            for _ in range(SETUP_PROBES):
                probe = run_op(workload, None, -1, len(ops) + len(setups), False, False, work,
                               deadline)
                setups.append(probe.setup_s)
            ops.append(run_op(workload, run.cases[i], i, len(ops) + len(setups), traced,
                              not ops, work, deadline))
            setups.append(ops[-1].setup_s)
        elapsed = time.monotonic() - start
        done_pool = len(ops) >= len(run.cases) * len(modes)
        next_end = elapsed * (len(ops) + len(modes)) / len(ops)
        if (done_pool and elapsed >= seconds) or next_end > RUN_LIMIT_S:
            return run


def _median_or_none(values):
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return None
    m = statistics.median(values)
    return None if math.isinf(m) else m


def end_to_end(run: Run) -> dict[str, float | None]:
    """End-to-end figures over the untraced operations.

    A failed operation counts as infinitely slow and as zero throughput.
    Accuracy is the mean over the input pool, so it depends on the seed only.
    """
    plain, cases = run.plain, run.cases
    by_case = {}
    for op in plain:
        if op.ok:
            by_case.setdefault(op.case, op.accuracy)
    out = {
        "wall_s": _median_or_none([op.wall_s if op.ok else math.inf for op in plain]),
        "setup_s": _median_or_none(run.setups),
        "peak_rss_mb": _median_or_none([op.rss_mb for op in plain if op.ok]),
        "pair_rows_per_s": _median_or_none(
            [cases[op.case].pair_rows / op.wall_s if op.ok else 0.0 for op in plain]),
        "pair_estimates_per_s": _median_or_none(
            [cases[op.case].pairs / op.wall_s if op.ok else 0.0 for op in plain]),
        "failed_frac": sum(not op.ok for op in plain) / len(plain),
        "latent_rmse": None,
    }
    if len(by_case) == len(cases):
        for key in sorted({k for a in by_case.values() for k in a}):
            out[key] = statistics.fmean(a[key] for a in by_case.values())
    return out


def per_layer(run: Run) -> dict[str, float | None]:
    """Per-layer figures: medians over the traced operations."""
    traced = [op for op in run.ops if op.traced]
    out = {
        name: _median_or_none([op.layers[name] for op in traced if name in op.layers])
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    wall_traced = _median_or_none([op.wall_s for op in traced if op.ok])
    wall_plain = _median_or_none([op.wall_s for op in run.plain if op.ok])
    out["trace.overhead_s"] = (
        None if wall_traced is None or wall_plain is None else wall_traced - wall_plain
    )
    return out


UNITS = {**END_TO_END, "failed_frac": "1", "sup_err": "corr", "edge_f1": "1",
         "curve_mse": "corr^2", **PER_LAYER}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(run: Run) -> dict:
    """Print the run's figures by name and unit; return the result object.

    The result holds the end-to-end metrics of BENCHMARK.json when
    untraced, and the per-layer metrics when traced.
    """
    env = {**next((op.environment for op in run.ops if op.environment), {}),
           "seed": run.seed, **CHILD_ENV}
    walls = sorted(op.wall_s for op in run.plain if op.ok)
    print(f"== {run.workload} (seed {run.seed}, trace {int(run.trace)}): {WHY[run.workload]}")
    print(f"   closed loop, 1 client; {len(run.ops)} operations over {len(run.cases)} inputs; "
          f"{len(run.setups)} set-ups")
    print("   environment: " + json.dumps(env))
    for op in run.ops:
        if not op.ok:
            raised = "".join(f" [raised in {k}: {v}]"
                             for k, v in list(op.layer_errors.items())[:1])  # innermost
            print(f"   FAILED input {op.case}, traced {int(op.traced)}, after {op.wall_s:.3f} s: "
                  f"exit {op.exit_code}: {op.error}{raised}")
    e2e = end_to_end(run)
    print(f"   end-to-end over {len(run.plain)} untraced operations (times: median; "
          f"wall min..max {_fmt(walls[0] if walls else None)}..{_fmt(walls[-1] if walls else None)} s; "
          "accuracy: mean over inputs):")
    for name, value in e2e.items():
        print(f"     {name:<28} {_fmt(value):>12} {UNITS[name]}")
    layers = per_layer(run) if run.trace else {}
    if run.trace:
        print(f"   per-layer, median of {sum(op.traced for op in run.ops)} traced operations:")
        for name, value in layers.items():
            print(f"     {name:<28} {_fmt(value):>12} {UNITS[name]}")
    shown = layers if run.trace else {k: e2e[k] for k in END_TO_END}
    failed = sum(not op.ok for op in run.ops)
    return {
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in shown.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latentcorr" / "cli.py").is_file():
        print(f"perfbench: no latentcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(report(run)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
