"""Command-line interface: artifacts, exit codes, and error reporting."""

import json
import subprocess
import sys

import numpy as np
import pytest

from latentcorr import simulate
from latentcorr.cli import main

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row) + "\n")


@pytest.fixture
def ternary_continuous_csv(tmp_path):
    """Known ground truth: latent correlation 0.5, ternary x continuous."""
    spec = simulate.CopulaSpec(
        np.array([[1.0, 0.5], [0.5, 1.0]]), (simulate.equal_mass_cutoffs(3), None)
    )
    x = simulate.sample_copula(spec, 10_000, 42)
    path = tmp_path / "data.csv"
    write_csv(path, ["score", "level"], [(int(a), f"{b:.6f}") for a, b in x])
    return path


@pytest.fixture
def chain_csv(tmp_path):
    """d=5 chain-structured precision matrix, mixed column types."""
    d = 5
    omega = np.eye(d)
    for j in range(d - 1):
        omega[j, j + 1] = omega[j + 1, j] = 0.45
    sigma = np.linalg.inv(omega)
    scale = np.sqrt(np.diag(sigma))
    r = sigma / np.outer(scale, scale)
    cuts = simulate.equal_mass_cutoffs(3)
    spec = simulate.CopulaSpec(r, tuple(cuts if j % 2 else None for j in range(d)))
    x = simulate.sample_copula(spec, 2000, 1001)
    path = tmp_path / "chain.csv"
    write_csv(path, [f"v{j}" for j in range(d)], [tuple(f"{v:.6f}" for v in row) for row in x])
    return path


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_recovers_known_correlation(ternary_continuous_csv, tmp_path):
    out = tmp_path / "out"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("score = ordinal:3\nlevel = continuous\n")
    code = main([
        "estimate", "--data", str(ternary_continuous_csv),
        "--manifest", str(manifest), "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "correlation.tsv").read_text().strip().split("\n")
    assert lines[0].split("\t") == ["name", "score", "level"]
    r12 = float(lines[1].split("\t")[2])
    assert r12 == pytest.approx(0.5, abs=0.05)
    report = json.loads((out / "run_report.json").read_text())
    assert report["status"] == "ok"
    assert "correlation.tsv" in report["artifacts"]
    methods = (out / "method_report.tsv").read_text()
    assert "ordinal3_continuous" in methods


def test_estimate_comonotone_clamps(tmp_path):
    x = np.linspace(0, 1, 50)
    path = tmp_path / "mono.csv"
    write_csv(path, ["a", "b"], [(f"{v:.6f}", f"{np.exp(v):.6f}") for v in x])
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 0
    r12 = float((out / "correlation.tsv").read_text().strip().split("\n")[1].split("\t")[2])
    assert r12 == pytest.approx(1.0 - 1e-6, abs=1e-12)
    assert "\t1\n" in (out / "method_report.tsv").read_text()  # clamped flag set


def test_estimate_empty_file_fails(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(path), "--out-dir", str(out)])
    assert code != 0
    err = json.loads((out / "errors.json").read_text())
    assert err["status"] == "error"
    assert err["stage"] == "parse"
    assert err["line"] == 1


def test_estimate_reports_bad_cell_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n3,oops\n")
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) != 0
    err = json.loads((out / "errors.json").read_text())
    assert err["line"] == 3
    assert "oops" in err["message"]


def test_estimate_reports_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) != 0
    assert json.loads((out / "errors.json").read_text())["line"] == 3


def test_estimate_unsupported_pair_aborts_without_flag(tmp_path):
    rng = np.random.default_rng(0)
    rows = list(zip(rng.integers(0, 5, 200), rng.integers(0, 5, 200)))
    path = tmp_path / "wide.csv"
    write_csv(path, ["u", "v"], rows)
    manifest = tmp_path / "m.txt"
    manifest.write_text("u = ordinal:5\nv = ordinal:5\n")
    out = tmp_path / "out"
    code = main([
        "estimate", "--data", str(path), "--manifest", str(manifest),
        "--out-dir", str(out),
    ])
    assert code != 0
    assert json.loads((out / "errors.json").read_text())["stage"] == "estimate"


def test_estimate_error_names_pair_without_complete_rows(tmp_path):
    # b and c are both observed only in the last row
    path = tmp_path / "sparse.csv"
    write_csv(path, ["a", "b", "c"], [
        (1.5, 2.5, None), (2.5, None, 3.5), (3.5, 1.5, None), (4.5, None, 0.5), (5.5, 0.7, 2.2),
    ])
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 2
    err = json.loads((out / "errors.json").read_text())
    assert err["stage"] == "estimate"
    assert err["message"] == (
        "pair (1, 2) ['b', 'c']: need at least 2 complete observations, got 1"
    )


def test_estimate_allow_partial_marks_missing(tmp_path):
    rng = np.random.default_rng(0)
    rows = list(zip(rng.integers(0, 5, 200), rng.integers(0, 5, 200)))
    path = tmp_path / "wide.csv"
    write_csv(path, ["u", "v"], rows)
    manifest = tmp_path / "m.txt"
    manifest.write_text("u = ordinal:5\nv = ordinal:5\n")
    out = tmp_path / "out"
    code = main([
        "estimate", "--data", str(path), "--manifest", str(manifest),
        "--out-dir", str(out), "--allow-partial",
    ])
    assert code == 0
    assert "unsupported" in (out / "method_report.tsv").read_text()
    report = json.loads((out / "run_report.json").read_text())
    assert report["unsupported_pairs"] == [
        {"j": 0, "k": 1, "name_j": "u", "name_k": "v"}
    ]


def test_manifest_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    out = tmp_path / "out"
    for text, frag in [
        ("a continuous\n", "expected"),
        ("a = ordinal\n", "level count"),
        ("a = mystery\n", "unknown kind"),
        ("zz = continuous\n", "not in the CSV header"),
    ]:
        manifest = tmp_path / "m.txt"
        manifest.write_text(text)
        code = main([
            "estimate", "--data", str(path), "--manifest", str(manifest),
            "--out-dir", str(out),
        ])
        assert code != 0
        assert frag in json.loads((out / "errors.json").read_text())["message"]


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------


def test_graph_pipeline_artifacts(chain_csv, tmp_path):
    out = tmp_path / "out"
    assert main(["graph", "--data", str(chain_csv), "--out-dir", str(out)]) == 0
    for name in (
        "correlation.tsv", "method_report.tsv", "precision.tsv",
        "edges.tsv", "hbic_trace.tsv", "graph.dot", "run_report.json",
    ):
        assert (out / name).exists(), name
    trace = (out / "hbic_trace.tsv").read_text().strip().split("\n")
    assert len(trace) == 11  # header + 10 path points
    assert trace[0].split("\t") == ["lambda", "hbic", "n_edges", "objective", "selected"]
    assert sum(int(line.split("\t")[4]) for line in trace[1:]) >= 1
    edges = (out / "edges.tsv").read_text().strip().split("\n")
    got = {tuple(line.split("\t")[:2]) for line in edges[1:]}
    assert got == {("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")}
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("graph")
    assert '"v0" -- "v1" [label="' in dot
    # partial-correlation labels are 2-decimal
    import re

    labels = re.findall(r'label="(-?\d+\.\d{2})"', dot)
    assert len(labels) == len(edges) - 1


def test_graph_identity_data_has_no_edges(tmp_path):
    x = simulate.sample_copula(simulate.CopulaSpec(np.eye(4)), 800, 77)
    path = tmp_path / "iid.csv"
    write_csv(path, list("abcd"), [tuple(f"{v:.6f}" for v in row) for row in x])
    out = tmp_path / "out"
    assert main(["graph", "--data", str(path), "--out-dir", str(out)]) == 0
    edges = (out / "edges.tsv").read_text().strip().split("\n")
    assert len(edges) == 1  # header only


def test_graph_lambda_path_override(chain_csv, tmp_path):
    out = tmp_path / "out"
    code = main([
        "graph", "--data", str(chain_csv), "--out-dir", str(out),
        "--lambda-path", "0.1,0.2,0.3",
    ])
    assert code == 0
    trace = (out / "hbic_trace.tsv").read_text().strip().split("\n")
    assert len(trace) == 4
    assert main([
        "graph", "--data", str(chain_csv), "--out-dir", str(out),
        "--lambda-path", "0.1,zzz",
    ]) != 0


def test_graph_refuses_partial_matrix(tmp_path):
    rng = np.random.default_rng(1)
    rows = list(zip(rng.integers(0, 5, 300), rng.integers(0, 5, 300), rng.standard_normal(300)))
    path = tmp_path / "wide.csv"
    write_csv(path, ["u", "v", "w"], [(a, b, f"{c:.5f}") for a, b, c in rows])
    manifest = tmp_path / "m.txt"
    manifest.write_text("u = ordinal:5\nv = ordinal:5\nw = continuous\n")
    out = tmp_path / "out"
    code = main([
        "graph", "--data", str(path), "--manifest", str(manifest),
        "--out-dir", str(out), "--allow-partial",
    ])
    assert code != 0
    err = json.loads((out / "errors.json").read_text())
    assert err["unsupported_pairs"]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_emits_all_curves(tmp_path):
    out = tmp_path / "out"
    code = main([
        "simulate", "1", "--reps", "1", "--r-step", "0.25",
        "--seed", "3", "--out-dir", str(out),
    ])
    assert code == 0
    text = (out / "scenario1_curves.tsv").read_text()
    levels = {line.split("\t")[0] for line in text.strip().split("\n")[1:]}
    assert levels == {str(p) for p in range(2, 17)} | {"0"}  # 15 curves + baseline
    report = json.loads((out / "run_report.json").read_text())
    assert report["curves"] == 16


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "2", "--reps", "2", "--r-step", "0.3",
            "--p-values", "2,16", "--seed", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "scenario2_curves.tsv").read_bytes() == (out2 / "scenario2_curves.tsv").read_bytes()


def test_simulate_concentration(tmp_path, monkeypatch):
    # shrink the experiment through the module default arguments
    import latentcorr.cli as cli_mod

    original = simulate.concentration_check

    def small_concentration(seed=0):
        return original(d=3, p=3, n_grid=(200, 400), seed=seed, n_seeds=2)

    monkeypatch.setattr(cli_mod.simulate, "concentration_check", small_concentration)
    out = tmp_path / "out"
    assert main(["simulate", "concentration", "--seed", "2", "--out-dir", str(out)]) == 0
    lines = (out / "concentration.tsv").read_text().strip().split("\n")
    assert lines[0] == "n\tsup_error"
    assert len(lines) == 3
    report = json.loads((out / "run_report.json").read_text())
    assert "log_log_slope" in report


def test_invalid_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "9"])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "latentcorr.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "estimate" in proc.stdout
