"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/smoke.py

Each workload runs end to end at toy size, traced and untraced; the output
checker rejects corrupted correlation matrices; and the benchmark refuses
to run where there are no program sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORK = run.ROOT / ".perfbench_work" / "smoke"


@pytest.mark.parametrize("workload", list(workloads.GENERATORS))
def test_toy_workload_runs_end_to_end(workload):
    result = run.run_workload(workload, 7, 0, True, workloads.TOY[workload])
    ops = result.ops
    assert len(ops) == 2 * workloads.POOL
    assert [op.error for op in ops if not op.ok] == []
    assert len(result.setups) == (run.SETUP_PROBES + 1) * len(ops)
    e2e = run.end_to_end(result)
    assert all(e2e[name] > 0 for name in run.END_TO_END), e2e
    printed = run.report(result)
    assert (printed["correct"], printed["failed"]) == (True, 0)
    assert list(printed["metrics"]) == list(spans.PER_LAYER)
    layers = run.per_layer(result)
    assert layers["kendall.calls"] > 0 and layers["bridge.busy_s"] > 0
    assert layers["trace.unattributed_s"] < 0.5 * e2e["wall_s"]


def _write_matrix(path: Path, names, matrix) -> None:
    lines = ["\t".join(["name", *names])]
    lines += ["\t".join([n, *(f"{v:.12g}" for v in row)]) for n, row in zip(names, matrix)]
    path.write_text("\n".join(lines) + "\n")


def _corrupt(r: np.ndarray, kind: str) -> np.ndarray:
    r = r.copy()
    if kind == "asymmetric":
        r[0, 1] += 0.01
    elif kind == "diagonal":
        r[2, 2] = 0.99
    elif kind == "out_of_range":
        r[0, 1] = r[1, 0] = 1.5
    elif kind == "off_oracle":  # symmetric, in range, tiny: only the oracle sees it
        r[0, 1] = r[1, 0] = r[0, 1] + 1e-9
    elif kind == "non_finite":
        r[0, 1] = r[1, 0] = np.nan
    return r


def test_checker_rejects_corrupted_correlation():
    shutil.rmtree(WORK, ignore_errors=True)
    case = workloads.make_cases("wide_graph", 7, WORK, workloads.TOY["wide_graph"])[0]
    sys.path.insert(0, str(run.ROOT / "src"))
    from latentcorr import cli

    out = WORK / "out"
    assert cli.main(case.argv + ["--out-dir", str(out)]) == 0
    workloads.check_outputs("wide_graph", case, out)
    names, r = workloads.read_matrix(out / "correlation.tsv")
    for kind in ("asymmetric", "diagonal", "out_of_range", "off_oracle", "non_finite"):
        _write_matrix(out / "correlation.tsv", names, _corrupt(r, kind))
        with pytest.raises(workloads.CheckError):
            workloads.check_outputs("wide_graph", case, out)
    _write_matrix(out / "correlation.tsv", names[:-1], r[:-1, :-1])
    with pytest.raises(workloads.CheckError):
        workloads.check_outputs("wide_graph", case, out)


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide_graph", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
