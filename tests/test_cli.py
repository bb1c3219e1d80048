"""Command-line interface: artifacts, exit codes, and error reporting."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latentcorr import bridge, cli, simulate
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


@pytest.mark.parametrize("cell", ["nan", "NaN", " -nan"])
def test_estimate_rejects_a_nan_cell(tmp_path, cell):
    path = tmp_path / "nan.csv"
    path.write_text(f"a,b\n1,0.5\n{cell},1.5\n2,0.25\n0,2.5\n3,1.25\n")
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 2
    err = json.loads((out / "errors.json").read_text())
    assert (err["stage"], err["line"], err["column"]) == ("parse", 3, "a")
    assert "missing values are empty cells" in err["message"]


def test_estimate_reads_an_infinite_column_as_continuous(tmp_path):
    path = tmp_path / "inf.csv"
    write_csv(path, ["a", "b"], [(1, 0.5), ("inf", 1.5), (2, 0.25), (0, 2.5), (3, 1.25), (1, 0.75)])
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 0
    assert (out / "method_report.tsv").read_text().split("\n")[1].split("\t")[4] == "sin"


def test_estimate_rejects_duplicate_column_names(tmp_path):
    path = tmp_path / "dupes.csv"
    rows = [(0.5 * i, (7 * i) % 11 + 0.25, i % 3) for i in range(12)]
    write_csv(path, ["a", " a", "b"], rows)
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 2
    err = json.loads((out / "errors.json").read_text())
    assert (err["stage"], err["line"]) == ("parse", 1)
    assert "duplicate column names ['a']" in err["message"]


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r\nb"])
def test_estimate_rejects_a_tab_or_line_break_in_a_column_name(tmp_path, name):
    path = tmp_path / "names.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["x", name, "y"], *[[i, (7 * i) % 11, i % 3] for i in range(12)]])
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) == 2
    err = json.loads((out / "errors.json").read_text())
    assert (err["stage"], err["line"], err["column"]) == ("parse", 1, name)
    assert f"column name {name!r} holds a tab or line break" in err["message"]
    assert not (out / "correlation.tsv").exists()


def test_estimate_reports_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1,2\n3\n")
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(path), "--out-dir", str(out)]) != 0
    assert json.loads((out / "errors.json").read_text())["line"] == 3


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


@pytest.fixture
def likert_csv(tmp_path):
    """Two 5-point items coded 1..5, latent correlation 0.6."""
    cuts = simulate.equal_mass_cutoffs(5)
    spec = simulate.CopulaSpec(np.array([[1.0, 0.6], [0.6, 1.0]]), (cuts, cuts))
    x = simulate.sample_copula(spec, 2000, 8)
    path = tmp_path / "likert.csv"
    write_csv(path, ["q1", "q2"], [(int(a) + 1, int(b) + 1) for a, b in x])
    return path


@pytest.mark.parametrize(
    "tau, method", [("a", "ordinal5_ordinal5"), ("b", "ordinal5_ordinal5:tau_a_fallback")]
)
def test_estimate_likert_items_without_manifest(likert_csv, tmp_path, tau, method):
    out = tmp_path / "out"
    assert main(["estimate", "--data", str(likert_csv), "--tau", tau, "--out-dir", str(out)]) == 0
    row = (out / "method_report.tsv").read_text().strip().split("\n")[1].split("\t")
    assert row[4] == method
    r12 = float((out / "correlation.tsv").read_text().strip().split("\n")[1].split("\t")[2])
    assert r12 == pytest.approx(0.6, abs=0.06)


def test_manifest_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    out = tmp_path / "out"
    for text, frag in [
        ("a continuous\n", "expected"),
        ("a = ordinal\n", "level count"),
        ("a = mystery\n", "unknown kind"),
        ("zz = continuous\n", "not in the CSV header"),
        ("seed = 1\n", "unknown kind '1'"),  # not an option key
    ]:
        manifest = tmp_path / "m.txt"
        manifest.write_text(text)
        code = main([
            "estimate", "--data", str(path), "--manifest", str(manifest),
            "--out-dir", str(out),
        ])
        assert code != 0
        assert frag in json.loads((out / "errors.json").read_text())["message"]


@pytest.mark.parametrize(
    "text, line, first",
    [("a = ordinal:3\n# note\nb = continuous\na = continuous\n", 4, 1),
     ("tau = b\na = ordinal:2\ntau = a\n", 3, 1)],
)
def test_manifest_rejects_a_repeated_name(tmp_path, text, line, first):
    path = tmp_path / "d.csv"
    write_csv(path, ["a", "b"], [(j % 3, 0.5 * j) for j in range(12)])
    manifest = tmp_path / "m.txt"
    manifest.write_text(text)
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(path), "--manifest", str(manifest), "--out-dir", str(out)])
    assert code == 2
    err = json.loads((out / "errors.json").read_text())
    assert (err["stage"], err["line"]) == ("parse", line)
    assert f"already set on line {first}" in err["message"]


def test_estimate_has_no_seed(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit):
        main(["estimate", "--data", str(path), "--seed", "1", "--out-dir", str(out)])


def test_estimate_rejects_more_levels_than_declared(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["u", "v"], [(j % 7, 0.5 * j) for j in range(40)])
    manifest = tmp_path / "m.txt"
    manifest.write_text("u = ordinal:2\n")
    out = tmp_path / "out"
    code = main(["estimate", "--data", str(path), "--manifest", str(manifest),
                 "--out-dir", str(out)])
    assert code == 2
    err = json.loads((out / "errors.json").read_text())
    assert err["stage"] == "estimate"
    assert err["message"] == "ordinal column 'u' declares 2 levels but has 7 observed levels"


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
    assert trace[0].split("\t") == [
        "lambda", "hbic", "n_edges", "objective", "sweeps", "converged", "selected",
    ]
    assert sum(int(line.split("\t")[6]) for line in trace[1:]) >= 1
    assert all(line.split("\t")[5] == "1" for line in trace[1:])
    report = json.loads((out / "run_report.json").read_text())
    assert report["unconverged_lambdas"] == []
    edges = (out / "edges.tsv").read_text().strip().split("\n")
    got = {tuple(line.split("\t")[:2]) for line in edges[1:]}
    assert got == {("0", "1"), ("1", "2"), ("2", "3"), ("3", "4")}
    dot = (out / "graph.dot").read_text()
    assert dot.startswith("graph")
    assert '"v0" -- "v1" [label="' in dot
    # partial-correlation labels are 2-decimal
    labels = re.findall(r'label="(-?\d+\.\d{2})"', dot)
    assert len(labels) == len(edges) - 1


def test_graph_dot_escapes_quotes_and_backslashes_in_names(chain_csv, tmp_path):
    names = ['q"1', "c\\", "v2", 'a\\"b', "v4"]
    rows = list(csv.reader(chain_csv.read_text().splitlines()))
    path = tmp_path / "names.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([names, *rows[1:]])
    out = tmp_path / "out"
    assert main(["graph", "--data", str(path), "--out-dir", str(out)]) == 0
    dot = (out / "graph.dot").read_text().splitlines()
    quoted = r'"((?:[^"\\]|\\.)*)"'  # a DOT string, in which \" and \\ stand for " and \
    nodes = [re.fullmatch(rf"  {quoted};", line) for line in dot[1:6]]
    edges = [re.fullmatch(rf'  {quoted} -- {quoted} \[label="-?\d\.\d\d"\];', line) for line in dot[6:-1]]
    assert all(nodes) and all(edges) and dot[-1] == "}"

    def unescape(text):
        return re.sub(r"\\(.)", r"\1", text)

    assert [unescape(m[1]) for m in nodes] == names
    assert {(unescape(m[1]), unescape(m[2])) for m in edges} == set(zip(names, names[1:]))


def test_graph_identity_data_has_no_edges(tmp_path):
    x = simulate.sample_copula(simulate.CopulaSpec(np.eye(4)), 800, 77)
    path = tmp_path / "iid.csv"
    write_csv(path, list("abcd"), [tuple(f"{v:.6f}" for v in row) for row in x])
    out = tmp_path / "out"
    assert main(["graph", "--data", str(path), "--out-dir", str(out)]) == 0
    edges = (out / "edges.tsv").read_text().strip().split("\n")
    assert len(edges) == 1  # header only
    # the largest penalty wins with the empty graph, which no larger one changes
    report = json.loads((out / "run_report.json").read_text())
    last = (out / "hbic_trace.tsv").read_text().strip().split("\n")[-1].split("\t")
    assert last[-1] == "1"
    assert report["warnings"] == []


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


@pytest.mark.parametrize(
    "path, end",
    [("0.1,0.2,0.3", None), ("0.3,0.4,0.5", "smallest"), ("0.01,0.02", "largest")],
)
def test_graph_warns_when_hbic_selects_a_path_endpoint(chain_csv, tmp_path, path, end):
    out = tmp_path / "out"
    assert main(["graph", "--data", str(chain_csv), "--out-dir", str(out),
                 "--lambda-path", path]) == 0
    warnings = json.loads((out / "run_report.json").read_text())["warnings"]
    if end is None:
        assert warnings == []
    else:
        assert len(warnings) == 1 and f"the {end} penalty" in warnings[0]


def test_graph_bad_manifest_hbic_cn_is_an_options_error(chain_csv, tmp_path):
    manifest = tmp_path / "m.txt"
    manifest.write_text("hbic_cn = abc\n")
    out = tmp_path / "out"
    code = main(["graph", "--data", str(chain_csv), "--manifest", str(manifest),
                 "--out-dir", str(out)])
    assert code == 2
    err = json.loads((out / "errors.json").read_text())
    assert err["stage"] == "options"
    assert err["message"] == "bad hbic_cn 'abc': expected a number"


@pytest.mark.parametrize(
    "flag, manifest_line, option",
    [
        (["--hbic-cn", "nan"], None, "hbic_cn"),
        (["--hbic-cn", "-1"], None, "hbic_cn"),
        (None, "hbic_cn = nan", "hbic_cn"),
        (None, "hbic_cn = -1", "hbic_cn"),
        (["--lambda-path", "nan,0.1"], None, "lambda path"),
        (["--lambda-path", "inf"], None, "lambda path"),
        (None, "lambda_path = 0.1,inf", "lambda path"),
    ],
)
def test_graph_rejects_bad_penalty_options(chain_csv, tmp_path, flag, manifest_line, option):
    argv = ["graph", "--data", str(chain_csv), "--out-dir", str(tmp_path / "out")]
    if flag:
        argv += flag
    if manifest_line:
        manifest = tmp_path / "m.txt"
        manifest.write_text(manifest_line + "\n")
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 2
    err = json.loads((tmp_path / "out" / "errors.json").read_text())
    assert err["stage"] == "options"
    assert err["message"].startswith(option)
    assert not (tmp_path / "out" / "hbic_trace.tsv").exists()


def test_graph_glasso_failure_leaves_only_the_error_summary(chain_csv, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("no fit")

    monkeypatch.setattr(cli.glasso, "select_hbic", fail)
    out = tmp_path / "out"
    assert main(["graph", "--data", str(chain_csv), "--out-dir", str(out)]) == 2
    assert [p.name for p in out.iterdir()] == ["errors.json"]
    err = json.loads((out / "errors.json").read_text())
    assert (err["stage"], err["message"]) == ("glasso", "no fit")


@pytest.mark.parametrize(
    "flag, manifest_line",
    [(["--hbic-cn", "nan"], None), (None, "lambda_path = 0.1,inf")],
)
def test_graph_checks_penalty_options_before_estimating(
    chain_csv, tmp_path, monkeypatch, flag, manifest_line
):
    calls = []
    monkeypatch.setattr(cli, "estimate_latent_correlation", lambda *args, **kwargs: calls.append(args))
    argv = ["graph", "--data", str(chain_csv), "--out-dir", str(tmp_path / "out")]
    if flag:
        argv += flag
    if manifest_line:
        manifest = tmp_path / "m.txt"
        manifest.write_text(manifest_line + "\n")
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 2
    assert json.loads((tmp_path / "out" / "errors.json").read_text())["stage"] == "options"
    assert calls == []


def test_graph_on_five_level_columns(tmp_path):
    rng = np.random.default_rng(1)
    rows = list(zip(rng.integers(0, 5, 300), rng.integers(0, 5, 300), rng.standard_normal(300)))
    path = tmp_path / "wide.csv"
    write_csv(path, ["u", "v", "w"], [(a, b, f"{c:.5f}") for a, b, c in rows])
    manifest = tmp_path / "m.txt"
    manifest.write_text("u = ordinal:5\nv = ordinal:5\nw = continuous\n")
    out = tmp_path / "out"
    code = main(["graph", "--data", str(path), "--manifest", str(manifest), "--out-dir", str(out)])
    assert code == 0
    lines = (out / "correlation.tsv").read_text().strip().split("\n")[1:]
    values = np.array([[float(v) for v in line.split("\t")[1:]] for line in lines])
    assert values.shape == (3, 3) and np.isfinite(values).all()
    assert "ordinal5_ordinal5" in (out / "method_report.tsv").read_text()


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


@pytest.mark.parametrize(
    "flag, message",
    [
        (["--r-step", "0"], "--r-step must be finite and positive"),
        (["--r-step", "-0.1"], "--r-step must be finite and positive"),
        (["--reps", "0"], "need reps >= 1"),
        (["--n", "1"], "need n >= 2"),
        (["--p-values", "1"], "level counts must lie in 2..16"),
    ],
    ids=["r-step-0", "r-step-negative", "reps-0", "n-1", "p-values-1"],
)
def test_simulate_rejects_bad_options(tmp_path, flag, message):
    out = tmp_path / "out"
    assert main(["simulate", "1", "--reps", "1", "--r-step", "0.5", *flag, "--out-dir", str(out)]) == 2
    err = json.loads((out / "errors.json").read_text())
    assert err["stage"] == "options"
    assert err["message"].startswith(message)
    assert not (out / "scenario1_curves.tsv").exists()


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


@pytest.mark.parametrize("scenario", ["1", "concentration"])
def test_simulate_failure_is_reported_with_r_or_n_and_the_replicate(scenario, tmp_path, monkeypatch):
    monkeypatch.setattr(bridge, "NEWTON_MAX_ITER", 0)  # every in-range Newton task fails
    original = simulate.concentration_check

    def small_concentration(seed=0):
        return original(d=4, p=3, n_grid=(200, 400), seed=seed, n_seeds=2)

    monkeypatch.setattr(cli.simulate, "concentration_check", small_concentration)
    out = tmp_path / "out"
    argv = ["simulate", scenario, "--out-dir", str(out)]
    if scenario == "1":
        argv += ["--n", "50", "--reps", "1", "--r-step", "0.5"]
    assert main(argv) == 2
    err = json.loads((out / "errors.json").read_text())
    assert err["stage"] == "simulate"
    where = r"r = 0, replicate 0: pair \(0, 16\) \['p2', 'z'\]" if scenario == "1" else (
        r"n = 200, replicate 0: pair \(0, 1\) \['x0', 'x1'\]"
    )
    assert re.match(where + ": no convergence after 0 iterations", err["message"]), err["message"]
    assert not (out / "run_report.json").exists()


def test_invalid_scenario_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "9"])


def test_console_entry_point_runs():
    # the child imports the package from where this process found it
    package_root = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "latentcorr.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0
    assert "estimate" in proc.stdout


def test_readme_documents_every_cli_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command-line interface\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    options = {
        option
        for parser in subparsers.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }
    tokens = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", section))
    assert sorted(options - tokens) == []  # options the README does not mention
    assert sorted({t for t in tokens if t.startswith("--")} - options) == []  # flags the CLI lacks
