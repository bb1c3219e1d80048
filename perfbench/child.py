"""One benchmark operation: import latentcorr, run `cli.main`, report.

Usage (started by run.py, one process per operation):

    python3 -I perfbench/child.py JOB.json SPAWNED

JOB.json holds the source directory, the CLI arguments, whether to
trace, whether to record the environment and where to write the result.
SPAWNED is the parent's monotonic clock reading just before the spawn.  The
result JSON holds the exit code, `setup_s` (spawn to `import latentcorr,
latentcorr.cli` done), `wall_s` (around `cli.main`) and, when traced, the
per-layer figures and the raw spans.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

HARNESS_ERROR = 3  # the benchmark itself is broken; the run must stop


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes

    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def _environment() -> dict:
    import os
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS, if it has one

    from latentcorr import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": _kernels.BACKEND,
    }


def main(job_path: str, spawned: float) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    result: dict = {"exit_code": None}
    try:
        import latentcorr
        import latentcorr.cli as cli
    except Exception:
        result.update(exit_code=1, error=traceback.format_exc(limit=2))
        Path(job["result"]).write_text(json.dumps(result))
        return 1
    result["setup_s"] = time.monotonic() - spawned
    if src not in Path(latentcorr.__file__).resolve().parents:
        print(f"latentcorr imported from {latentcorr.__file__}, not {src}", file=sys.stderr)
        return HARNESS_ERROR
    if job["argv"] is None:  # set-up probe
        Path(job["result"]).write_text(json.dumps({"exit_code": 0, "setup_s": result["setup_s"]}))
        return 0

    tracer = None
    if job["trace"]:
        from spans import Tracer  # perfbench/spans.py

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(job["argv"])
    except Exception:
        code = 1
        result["error"] = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    result.update(exit_code=code, wall_s=wall)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(wall)
        result["layer_errors"] = tracer.errors
        result["spans"] = tracer.spans
    if job["environment"]:
        result["environment"] = _environment()
    Path(job["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
