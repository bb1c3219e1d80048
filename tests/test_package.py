"""The package's public names."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import latentcorr

ROOT = Path(__file__).resolve().parents[1]


def test_every_name_in_an_all_list_exists():
    names = ["latentcorr"] + [f"latentcorr.{m.name}" for m in pkgutil.iter_modules(latentcorr.__path__)]
    modules = [importlib.import_module(name) for name in names]
    assert len(modules) > 8
    assert [f"{m.__name__}.{n}" for m in modules for n in getattr(m, "__all__", ()) if not hasattr(m, n)] == []


def test_the_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/spans.py wraps package names such as
    simulate.invert_bridge, and perfbench/child.py reads
    _kernels.BACKEND; a name the package stops binding would break only
    the benchmark.  Runs in a subprocess, as the tracer replaces them."""
    code = "import child, spans; spans.Tracer().install(); child._environment()"
    path = os.pathsep.join(str(ROOT / part) for part in ("perfbench", "src"))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
