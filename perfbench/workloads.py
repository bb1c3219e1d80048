"""Seeded inputs, CLI arguments and output checks for the benchmark workloads.

Each workload is one `latentcorr` CLI invocation on inputs generated here
from the workload seed with numpy's PCG64, never with the program's own
samplers.  A run cycles through a fixed pool of `POOL` inputs, so its
accuracy figures depend only on the seed.

Workloads:
  tall_mixed  estimate, 100,000 rows x 4 mixed columns (Kendall + CSV ingest)
  wide_graph  graph, 100 rows x 60 continuous AR(1) columns, 1% blank cells
  paper_sim   simulate 1 --n 100 --reps 8 --r-step 0.1 (scenario-1 experiment)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

POOL = 4  # distinct inputs per run; operations cycle through them

TALL_RHO = (0.3, 0.5)
WIDE_RHO, WIDE_BLANK = 0.5, 0.01
SIM_N, SIM_R_STEP = 100, 0.1
SIM_CURVES, SIM_BINS = 16, 10  # p = 2..16 plus the continuous baseline; r = 0.0..0.9

# Workload sizes.  sup_err_bound is the output check on the largest
# off-diagonal |R_hat - Sigma|: the estimator's sampling error is about
# 0.01 at n = 1e5, and its maximum over 1,770 pairs at n = 100 is about
# 0.4, so the bounds leave room for that.
FULL = {
    "tall_mixed": {"n": 100_000, "sup_err_bound": 0.05},
    "wide_graph": {"n": 100, "d": 60, "sup_err_bound": 0.6},
    "paper_sim": {"reps": 8},
}
TOY = {  # for the smoke test
    "tall_mixed": {"n": 2_000, "sup_err_bound": 0.3},
    "wide_graph": {"n": 40, "d": 8, "sup_err_bound": 0.9},
    "paper_sim": {"reps": 1},
}

REF_TOL = 1e-12  # agreement of an all-continuous matrix with `sine_oracle`


class CheckError(Exception):
    """An operation's outputs failed validation."""


@dataclass
class Case:
    """One generated input: CLI arguments plus what is needed to check it."""

    argv: list[str]
    sigma: np.ndarray | None = None  # true latent correlation
    pair_rows: int = 0  # sum over column pairs of complete rows
    pairs: int = 0  # pair estimates one operation produces
    sup_err_bound: float = math.inf
    reference: np.ndarray | None = None  # oracle latent correlation, when cheap


def sine_oracle(data: np.ndarray) -> np.ndarray:
    """sin(pi/2 * tau_a) for every column pair by O(n^2) sign enumeration.

    Rows missing in either column of a pair are dropped for that pair.
    Independent of latentcorr's Kendall code; exact for continuous data.
    """
    n, d = data.shape
    diff = data[:, None, :] - data[None, :, :]  # (n, n, d), NaN where a row is missing
    signs = np.nan_to_num(np.sign(diff)).reshape(n * n, d)
    twice_cd = signs.T @ signs  # 2 (C - D) per pair, exact in float64
    ok = (~np.isnan(data)).astype(float)
    m = ok.T @ ok  # complete rows per pair
    tau = twice_cd / (m * (m - 1))
    ref = np.sin(np.pi / 2 * tau)
    np.fill_diagonal(ref, 1.0)
    return ref


def _write_csv(path: Path, data: np.ndarray, ordinal: set[int]) -> None:
    d = data.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j}" for j in range(d)) + "\n")
        for row in data:
            cells = []
            for j, v in enumerate(row):
                if math.isnan(v):
                    cells.append("")
                elif j in ordinal:
                    cells.append(str(int(v)))
                else:
                    cells.append(f"{v:.9g}")
            fh.write(",".join(cells) + "\n")


def _pair_rows(data: np.ndarray) -> int:
    ok = (~np.isnan(data)).astype(np.int64)
    both = ok.T @ ok  # complete rows of every pair
    return int(np.triu(both, 1).sum())


def _tall_mixed(rng: np.random.Generator, work: Path, n: int, sup_err_bound: float) -> Case:
    d = 4
    while True:
        sigma = np.eye(d)
        iu = np.triu_indices(d, 1)
        sigma[iu] = rng.uniform(*TALL_RHO, size=len(iu[0]))
        sigma = np.triu(sigma) + np.triu(sigma, 1).T
        if np.linalg.eigvalsh(sigma)[0] > 0.05:
            break
    z = rng.standard_normal((n, d)) @ np.linalg.cholesky(sigma).T
    inv = NormalDist().inv_cdf
    z[:, 2] = np.digitize(z[:, 2], [inv(1 / 2)])
    z[:, 3] = np.digitize(z[:, 3], [inv(1 / 3), inv(2 / 3)])
    path = work / "data.csv"
    _write_csv(path, z, ordinal={2, 3})
    return Case(["estimate", "--data", str(path)], sigma, _pair_rows(z), d * (d - 1) // 2,
                sup_err_bound)


def _wide_graph(rng: np.random.Generator, work: Path, n: int, d: int,
                sup_err_bound: float) -> Case:
    idx = np.arange(d)
    sigma = WIDE_RHO ** np.abs(np.subtract.outer(idx, idx))
    z = rng.standard_normal((n, d)) @ np.linalg.cholesky(sigma).T
    z[rng.random(z.shape) < WIDE_BLANK] = np.nan
    path = work / "data.csv"
    _write_csv(path, z, ordinal=set())
    z = np.genfromtxt(path, delimiter=",", skip_header=1)  # the values the program reads
    return Case(["graph", "--data", str(path)], sigma, _pair_rows(z), d * (d - 1) // 2,
                sup_err_bound, sine_oracle(z))


def _paper_sim(rng: np.random.Generator, work: Path, reps: int) -> Case:
    seed = int(rng.integers(0, 2**31 - 1))
    argv = ["simulate", "1", "--n", str(SIM_N), "--reps", str(reps),
            "--r-step", str(SIM_R_STEP), "--seed", str(seed)]
    estimates = SIM_BINS * reps * SIM_CURVES  # one pair of SIM_N rows each
    return Case(argv, pair_rows=estimates * SIM_N, pairs=estimates)


GENERATORS = {"tall_mixed": _tall_mixed, "wide_graph": _wide_graph, "paper_sim": _paper_sim}
WHY = {
    "tall_mixed": "n = 1e5 rows, 6 pairs: Kendall counting and CSV ingest dominate",
    "wide_graph": "d = 60, n = 100 with blanks: glasso path, HBIC refits and many small Kendall calls",
    "paper_sim": "scenario-1 experiment: ordinal-continuous bridge inversions at n = 100",
}


def make_cases(workload: str, seed: int, work: Path, size: dict | None = None) -> list[Case]:
    """Generate the run's input pool; the same seed gives the same inputs."""
    gen = GENERATORS[workload]
    size = FULL[workload] if size is None else size
    cases = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(POOL)):
        sub = work / f"in{i}"
        sub.mkdir(parents=True, exist_ok=True)
        cases.append(gen(np.random.Generator(np.random.PCG64(child)), sub, **size))
    return cases


# ----------------------------------------------------------------- checks


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    """Parse a `name<TAB>...` matrix file as written by the CLI."""
    lines = path.read_text().splitlines()
    if not lines:
        raise CheckError(f"{path.name}: empty")
    names = lines[0].split("\t")[1:]
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        if len(cells) != len(names) + 1:
            raise CheckError(f"{path.name}: ragged row {cells[0]!r}")
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise CheckError(f"{path.name}: {exc}") from None
    mat = np.array(rows, dtype=float)
    if mat.shape != (len(names), len(names)):
        raise CheckError(f"{path.name}: shape {mat.shape} for {len(names)} names")
    return names, mat


def check_correlation(path: Path, case: Case) -> np.ndarray:
    """Validate a correlation matrix against the case's truth and oracle."""
    _, r = read_matrix(path)
    sigma = case.sigma
    if r.shape != sigma.shape:
        raise CheckError(f"correlation shape {r.shape}, expected {sigma.shape}")
    if not np.all(np.isfinite(r)):
        raise CheckError("correlation has non-finite entries")
    if not np.array_equal(r, r.T):
        raise CheckError("correlation is not symmetric")
    if not np.all(np.diag(r) == 1.0):
        raise CheckError("correlation diagonal is not 1")
    if np.abs(r).max() > 1.0:
        raise CheckError("correlation entry outside [-1, 1]")
    sup_err = _sup_err(r, sigma)
    if sup_err > case.sup_err_bound:
        raise CheckError(f"sup_err {sup_err:.4g} above bound {case.sup_err_bound}")
    if case.reference is not None:
        gap = float(np.abs(r - case.reference).max())
        if gap > REF_TOL:
            raise CheckError(f"correlation differs from the O(n^2) oracle by {gap:.3g}")
    return r


def _sup_err(r: np.ndarray, sigma: np.ndarray) -> float:
    off = ~np.eye(r.shape[0], dtype=bool)
    return float(np.abs(r - sigma)[off].max())


def _edge_f1(path: Path, sigma: np.ndarray) -> float:
    lines = path.read_text().splitlines()[1:]
    found = {tuple(sorted(map(int, line.split("\t")[:2]))) for line in lines}
    d = sigma.shape[0]
    truth = {(j, j + 1) for j in range(d - 1)}  # AR(1) precision is tridiagonal
    tp = len(found & truth)
    return 2 * tp / (len(found) + len(truth))


def _check_hbic_trace(path: Path) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != 10:
        raise CheckError(f"hbic_trace.tsv has {len(rows)} rows, expected 10")
    selected = sum(row[-1] == "1" for row in rows)
    if selected != 1:
        raise CheckError(f"hbic_trace.tsv selects {selected} lambdas, expected 1")


def _check_curves(path: Path) -> float:
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    mse: dict[int, list[float]] = {}
    for row in rows:
        mse.setdefault(int(row[0]), []).append(float(row[3]))
    if len(mse) != SIM_CURVES or any(len(v) != SIM_BINS for v in mse.values()):
        raise CheckError(
            f"curves: {len(mse)} curves x {sorted({len(v) for v in mse.values()})} bins, "
            f"expected {SIM_CURVES} x {SIM_BINS}"
        )
    vals = np.array([v for curve in mse.values() for v in curve])
    finite = vals[np.isfinite(vals)]
    if finite.size == 0 or np.any(finite < 0):
        raise CheckError("curves: no finite, nonnegative MSE entries")
    if np.nanmean(mse[0]) > np.nanmean(mse[2]):
        raise CheckError("continuous baseline MSE above the p = 2 curve")
    return float(finite.mean())


def check_outputs(workload: str, case: Case, out: Path) -> dict[str, float]:
    """Validate one operation's outputs; return its accuracy metrics.

    Raises CheckError when any check fails.
    """
    if workload == "paper_sim":
        curve_mse = _check_curves(out / "scenario1_curves.tsv")
        return {"curve_mse": curve_mse, "latent_rmse": math.sqrt(curve_mse)}
    r = check_correlation(out / "correlation.tsv", case)
    off = ~np.eye(r.shape[0], dtype=bool)
    acc = {
        "sup_err": _sup_err(r, case.sigma),
        "latent_rmse": float(np.sqrt(np.mean((r - case.sigma)[off] ** 2))),
    }
    if workload == "wide_graph":
        _check_hbic_trace(out / "hbic_trace.tsv")
        acc["edge_f1"] = _edge_f1(out / "edges.tsv", case.sigma)
    return acc
