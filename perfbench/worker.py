"""One benchmark process: set a workload up, then run and time its ops.

run.py starts it as ``worker.py WORKLOAD SEED SECONDS MODE``, where MODE is
``setup`` (set up and exit), ``run`` (the untraced timed loop) or ``trace``
(the traced run).  It writes JSON lines to stdout: ``{"ready": ...}`` when
set-up ends, then the result and the environment.  ``ready`` carries the
set-up seconds the benchmark spent on itself (input generation, checking),
which run.py subtracts from the wall time it measured since it started this
process.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def environment() -> dict:
    import numpy as np

    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "dropped_env": sorted(k for k in os.environ
                                  if k.startswith(workloads.PROGRAM_KNOB_PREFIX))}


def main() -> int:
    workload, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    if workload != "sweep":
        import groupsobolev  # noqa: F401  (the program's import is part of set-up)

    t0 = time.perf_counter()
    import workloads

    scratch_root = BENCH_DIR / "_scratch"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        wl = workloads.WORKLOADS[workload](seed, scratch)
        first = wl.next_round()
        warm = wl.warmup(first)
        excluded = time.perf_counter() - t0
        wl.prepare()
        out = wl.run(warm)  # the untimed warm-up op
        t0 = time.perf_counter()
        errors = wl.check(warm, out)
        if hasattr(wl, "release"):
            wl.release(warm)
        workloads.report_errors("warm-up", errors)
        emit({"ready": excluded + time.perf_counter() - t0, "correct": not errors})
        if mode == "run":
            emit(workloads.timed_run(wl, first, seconds))
        elif mode == "trace":
            import traced

            emit(traced.traced_run(wl, first, seed, seconds, scratch))
        if mode != "setup":
            emit({"env": environment()})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
