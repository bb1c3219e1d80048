"""Command-line surface: estimation, graph recovery, and simulations.

Subcommands:
  estimate  - latent correlation matrix of a CSV file
  graph     - estimate, project to PSD, graphical lasso + HBIC, graph export
  simulate  - run the error-curve or concentration experiments

All runs write a run_report.json listing the artifacts produced.  On
failure a machine-readable error summary (errors.json) is written and
the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import glasso, simulate
from .estimator import (
    ColumnSpec,
    estimate_latent_correlation,
    infer_column_specs,
    project_psd,
)

__all__ = ["main"]

_OPTION_KEYS = ("tau", "hbic_cn", "lambda_path")


class CliError(Exception):
    """User-facing failure with a machine-readable payload."""

    def __init__(self, stage: str, message: str, **details):
        super().__init__(message)
        self.stage = stage
        self.details = details


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Comma-separated, first row header, empty cell = missing value.

    Raises CliError naming the 1-based line of the first malformed row
    or cell; a cell reading NaN (e.g. 'nan') is malformed.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CliError("input", f"{path}: {exc.strerror}", path=path) from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CliError("parse", f"{path}: empty file", path=path, line=1) from None
        header = [h.strip() for h in header]
        if not header or any(not h for h in header):
            raise CliError("parse", f"{path}: line 1: blank column name in header", path=path, line=1)
        for h in header:
            if any(c in h for c in "\t\n\r"):  # would split a TSV artifact's fields or rows
                raise CliError(
                    "parse", f"{path}: line 1: column name {h!r} holds a tab or line break",
                    path=path, line=1, column=h,
                )
        dupes = sorted({h for h in header if header.count(h) > 1})
        if dupes:
            raise CliError("parse", f"{path}: line 1: duplicate column names {dupes}", path=path, line=1)
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CliError(
                    "parse",
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}",
                    path=path, line=line_no,
                )
            values = []
            for col, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    values.append(np.nan)
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    value = np.nan
                if math.isnan(value):  # unparsable, or a NaN spelled out
                    raise CliError(
                        "parse",
                        f"{path}: line {line_no}: column {col!r}: not a number: {cell!r} "
                        "(missing values are empty cells)",
                        path=path, line=line_no, column=col,
                    )
                values.append(value)
            rows.append(values)
    if not rows:
        raise CliError("parse", f"{path}: no data rows", path=path, line=2)
    return header, np.asarray(rows, dtype=float)


def read_manifest(path: str) -> tuple[dict[str, int | None], dict[str, str]]:
    """Flat 'name = kind' text: kind is 'continuous' or 'ordinal:p'.

    Reserved option keys (tau, hbic_cn, lambda_path) may also
    appear; command-line flags take precedence over them.  A name or key
    may be set once.  Returns (column kinds, options).
    """
    kinds: dict[str, int | None] = {}
    options: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError("input", f"{path}: {exc.strerror}", path=path) from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                "parse", f"{path}: line {line_no}: expected 'name = kind'",
                path=path, line=line_no,
            )
        name, value = (part.strip() for part in line.split("=", 1))
        if first_line.setdefault(name, line_no) != line_no:
            raise CliError(
                "parse", f"{path}: line {line_no}: {name!r} already set on line {first_line[name]}",
                path=path, line=line_no,
            )
        if name in _OPTION_KEYS:
            options[name] = value
            continue
        if value == "continuous":
            kinds[name] = None
        elif value.startswith("ordinal"):
            _, _, levels = value.partition(":")
            try:
                p = int(levels)
            except ValueError:
                raise CliError(
                    "parse",
                    f"{path}: line {line_no}: ordinal kind needs a level count, e.g. ordinal:3",
                    path=path, line=line_no,
                ) from None
            if p < 2:
                raise CliError(
                    "parse", f"{path}: line {line_no}: ordinal level count must be >= 2",
                    path=path, line=line_no,
                )
            kinds[name] = p
        else:
            raise CliError(
                "parse",
                f"{path}: line {line_no}: unknown kind {value!r} "
                "(use 'continuous' or 'ordinal:p')",
                path=path, line=line_no,
            )
    return kinds, options


def _build_specs(header, data, kinds) -> list[ColumnSpec]:
    unknown = set(kinds) - set(header)
    if unknown:
        raise CliError(
            "manifest",
            f"manifest names not in the CSV header: {sorted(unknown)}",
            names=sorted(unknown),
        )
    inferred = infer_column_specs(data, header)
    return [
        ColumnSpec(name, kinds[name]) if name in kinds else inferred[j]
        for j, name in enumerate(header)
    ]


def _write_matrix(path: Path, names, matrix) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(["name", *names]) + "\n")
        for name, row in zip(names, matrix):
            fh.write("\t".join([name, *(f"{v:.12g}" for v in row)]) + "\n")


def _write_estimate(out: Path, names, est, report) -> None:
    """correlation.tsv and method_report.tsv, listed in the report with the
    count of clamped entries."""
    _write_matrix(out / "correlation.tsv", names, est.values)
    with open(out / "method_report.tsv", "w") as fh:
        fh.write("j\tk\tname_j\tname_k\tmethod\tclamped\n")
        d = len(names)
        for j in range(d):
            for k in range(j + 1, d):
                fh.write(
                    f"{j}\t{k}\t{names[j]}\t{names[k]}\t"
                    f"{est.method[j, k]}\t{int(est.clamped[j, k])}\n"
                )
    report["artifacts"] += ["correlation.tsv", "method_report.tsv"]
    report["clamped_entries"] = int(np.triu(est.clamped, 1).sum())


def _read_inputs(args):
    """CSV, manifest and tau variant, checked: (names, data, specs, tau, options)."""
    header, data = read_csv(args.data)
    kinds, options = ({}, {})
    if args.manifest:
        kinds, options = read_manifest(args.manifest)
    tau = args.tau or options.get("tau", "a")
    if tau not in ("a", "b"):
        raise CliError("options", f"tau variant must be 'a' or 'b', got {tau!r}")
    return header, data, _build_specs(header, data, kinds), tau, options


def _estimate(data, specs, tau):
    try:
        return estimate_latent_correlation(data, specs, variant=tau)
    except Exception as exc:
        raise CliError("estimate", str(exc)) from exc


def cmd_estimate(args, report):
    names, data, specs, tau, _ = _read_inputs(args)
    _write_estimate(Path(args.out_dir), names, _estimate(data, specs, tau), report)
    return 0


def _parse_lambda_path(raw):
    try:
        path = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise CliError("options", f"bad lambda path {raw!r}: expected comma-separated numbers") from None
    if not all(0 < v < np.inf for v in path):
        raise CliError("options", f"lambda path values must be finite and positive, got {raw!r}")
    return path


def _parse_hbic_cn(raw):
    try:
        cn = float(raw)
    except ValueError:
        raise CliError("options", f"bad hbic_cn {raw!r}: expected a number") from None
    if not 0 <= cn < np.inf:
        raise CliError("options", f"hbic_cn must be finite and nonnegative, got {raw!r}")
    return cn


def cmd_graph(args, report):
    names, data, specs, tau, options = _read_inputs(args)
    raw_path = args.lambda_path if args.lambda_path is not None else options.get("lambda_path")
    lam_path = None if raw_path is None else _parse_lambda_path(raw_path)
    raw_cn = args.hbic_cn if args.hbic_cn is not None else options.get("hbic_cn", "3.0")
    config = glasso.GlassoConfig(lambda_path=lam_path, hbic_cn=_parse_hbic_cn(raw_cn))
    est = _estimate(data, specs, tau)
    out = Path(args.out_dir)
    try:
        r_psd = project_psd(est.values)
        best, fits = glasso.select_hbic(r_psd, data.shape[0], config)
    except Exception as exc:
        raise CliError("glasso", str(exc)) from exc

    _write_estimate(out, names, est, report)
    omega = best.omega
    _write_matrix(out / "precision.tsv", names, omega)
    partial = [(j, k, -omega[j, k] / np.sqrt(omega[j, j] * omega[k, k])) for j, k in best.edges]
    with open(out / "edges.tsv", "w") as fh:
        fh.write("j\tk\tname_j\tname_k\tomega\tpartial_correlation\n")
        for j, k, pc in partial:
            fh.write(f"{j}\t{k}\t{names[j]}\t{names[k]}\t{omega[j, k]:.12g}\t{pc:.12g}\n")
    with open(out / "hbic_trace.tsv", "w") as fh:
        # `selected` stays the last column.
        fh.write("lambda\thbic\tn_edges\tobjective\tsweeps\tconverged\tselected\n")
        for fit in fits:
            fh.write(
                f"{fit.lam:.12g}\t{fit.hbic:.12g}\t{fit.n_edges}\t"
                f"{fit.objective:.12g}\t{fit.sweeps}\t{int(fit.converged)}\t"
                f"{int(fit.lam == best.lam)}\n"
            )
    _write_dot(out / "graph.dot", names, partial)
    report["artifacts"] += ["precision.tsv", "edges.tsv", "hbic_trace.tsv", "graph.dot"]
    report["selected_lambda"] = best.lam
    report["n_edges"] = best.n_edges
    report["unconverged_lambdas"] = [fit.lam for fit in fits if not fit.converged]
    report["warnings"] = []
    # HBIC depends on the penalty only through the edge set, so an endpoint
    # is suspect only while the graph could still change beyond it.
    d = len(names)
    end = None
    if len(fits) > 1 and best.lam == fits[0].lam and best.n_edges < d * (d - 1) // 2:
        end = "smallest"
    elif len(fits) > 1 and best.lam == fits[-1].lam and best.n_edges > 0:
        end = "largest"
    if end:
        report["warnings"].append(
            f"HBIC selected the {end} penalty of the lambda path ({best.lam:.12g}); "
            "its minimum may lie outside the path"
        )
    return 0


def _write_dot(path: Path, names, partial) -> None:
    """The graph with each edge (j, k, partial correlation) labelled."""
    quoted = ['"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"' for name in names]
    lines = ["graph latent_conditional_independence {"]
    for name in quoted:
        lines.append(f"  {name};")
    for j, k, pc in partial:
        lines.append(f'  {quoted[j]} -- {quoted[k]} [label="{pc:.2f}"];')
    lines.append("}")
    path.write_text("\n".join(lines) + "\n")


def _simulated(experiment, **options):
    """Run a simulate experiment; its errors name r or n and the replicate."""
    try:
        return experiment(**options)
    except Exception as exc:
        raise CliError("simulate", str(exc)) from exc


def cmd_simulate(args, report):
    out = Path(args.out_dir)
    if args.scenario in ("1", "2"):
        runner = simulate.scenario1 if args.scenario == "1" else simulate.scenario2
        p_values = _parse_p_values(args.p_values) if args.p_values else range(2, 17)
        r_grid = None
        if args.r_step is not None:
            if not 0 < args.r_step < np.inf:
                raise CliError("options", f"--r-step must be finite and positive, got {args.r_step}")
            r_grid = np.round(
                np.arange(0.0, simulate.R_GRID_CAP + 1e-9, args.r_step), 10
            )
        try:
            simulate.check_discretization_options(p_values, r_grid, args.n, args.reps)
        except ValueError as exc:
            raise CliError("options", str(exc)) from None
        options = dict(p_values=p_values, r_grid=r_grid, n=args.n, reps=args.reps, seed=args.seed)
        curves = _simulated(runner, **options)
        name = f"scenario{args.scenario}_curves.tsv"
        (out / name).write_text(simulate.error_curves_to_text(curves))
        report["artifacts"].append(name)
        report["curves"] = len(curves)
    else:  # concentration
        n_grid, err, slope = _simulated(simulate.concentration_check, seed=args.seed)
        with open(out / "concentration.tsv", "w") as fh:
            fh.write("n\tsup_error\n")
            for n, e in zip(n_grid, err):
                fh.write(f"{n}\t{e:.12g}\n")
        report["artifacts"].append("concentration.tsv")
        report["log_log_slope"] = slope
    return 0


def _parse_p_values(raw):
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        raise CliError("options", f"bad p values {raw!r}: expected comma-separated integers") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latentcorr",
        description="Latent Gaussian copula correlation and graph estimation "
        "for mixed ordinal/continuous data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", required=True, help="input CSV (header row; empty cell = missing)")
        p.add_argument("--manifest", help="column kinds: lines of 'name = continuous' or 'name = ordinal:p'")
        p.add_argument("--tau", choices=("a", "b"), help="Kendall variant (default a)")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")

    p_est = sub.add_parser("estimate", help="latent correlation matrix of a CSV file")
    common(p_est)

    p_graph = sub.add_parser("graph", help="full pipeline: correlation, PSD projection, "
                             "graphical lasso, HBIC selection, DOT export")
    common(p_graph)
    p_graph.add_argument("--lambda-path", help="comma-separated penalty values (default: 10 from m/10 to m)")
    p_graph.add_argument("--hbic-cn", help="HBIC penalty constant (default 3.0)")

    p_sim = sub.add_parser("simulate", help="run the error-curve or concentration experiments")
    p_sim.add_argument("scenario", choices=("1", "2", "concentration"))
    p_sim.add_argument("--n", type=int, default=100, help="sample size per replicate")
    p_sim.add_argument("--reps", type=int, default=80, help="replicates per grid point")
    p_sim.add_argument("--p-values", help="comma-separated level counts (default 2..16)")
    p_sim.add_argument("--r-step", type=float, help="latent correlation grid step (default 0.01)")
    p_sim.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p_sim.add_argument("--out-dir", default=".", help="directory for output artifacts")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out_dir)
    report = {
        "command": args.command,
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "artifacts": [],
    }
    handlers = {"estimate": cmd_estimate, "graph": cmd_graph, "simulate": cmd_simulate}
    try:
        out.mkdir(parents=True, exist_ok=True)
        code = handlers[args.command](args, report)
        report["status"] = "ok"
        (out / "run_report.json").write_text(json.dumps(report, indent=2) + "\n")
        return code
    except CliError as exc:
        summary = {
            "status": "error",
            "stage": exc.stage,
            "message": str(exc),
            **exc.details,
        }
        try:
            (out / "errors.json").write_text(json.dumps(summary, indent=2) + "\n")
        except OSError:
            pass
        print(json.dumps(summary), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
