"""The groupsobolev benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {solve,check,sweep} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment (numpy, BLAS, Python, nproc, commit).  See README.md.

Each workload runs in fresh worker processes so that set-up is measured from
interpreter start.  ``setup_s`` is the median over SETUP_SAMPLES of them:
all but one only set up; the last one then runs the timed loop.  The
program runs under the machine's default thread settings.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# Set-up samples per run, fewer where a set-up costs more: about 0.3 s for
# solve, 1 s for check and 2 s for sweep.
SETUP_SAMPLES = {"solve": 7, "check": 5, "sweep": 3}
RUN_LIMIT_S = 175.0  # a whole run must end within 180 s


class BenchError(RuntimeError):
    pass


def start_worker(workload: str, seed: int, seconds: float, mode: str, deadline: float):
    """Run one worker, killed at ``deadline`` (time.monotonic); returns its
    set-up seconds, its ready record and the JSON documents it printed
    after that."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), workload, str(seed), str(seconds), mode],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        setup_wall = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not ready_line.startswith("{"):
        raise BenchError(f"{mode} worker for {workload} exited {rc}")
    ready = json.loads(ready_line)
    docs = [json.loads(ln) for ln in rest.splitlines() if ln.startswith("{")]
    return setup_wall - ready["ready"], ready, docs


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         timeout=30)
    return out.stdout.strip() if out.returncode == 0 else None


def environment(worker_env: dict) -> dict:
    return {
        **worker_env,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve", "check", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groupsobolev" / "__init__.py").is_file():
        print(f"error: no groupsobolev sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S

    worker_args = (args.workload, args.seed, args.seconds)
    if args.trace:
        _, ready, docs = start_worker(*worker_args, "trace", deadline)
        result, env = docs
        print(json.dumps({"probed": result.pop("probed")}))
        declared = spec["per_layer"]
    else:
        samples, correct = [], True
        for _ in range(SETUP_SAMPLES[args.workload] - 1):
            setup, ready, _ = start_worker(*worker_args, "setup", deadline)
            samples.append(setup)
            correct = correct and ready["correct"]
        setup, ready, docs = start_worker(*worker_args, "run", deadline)
        samples.append(setup)
        result, env = docs
        result["correct"] = result["correct"] and correct
        result["metrics"]["setup_s"] = statistics.median(samples)
        print(json.dumps({"setup_samples_s": samples}))
        declared = spec["end_to_end"]
    result["correct"] = result["correct"] and ready["correct"]
    result["metrics"] = {m["name"]: {"value": float(result["metrics"][m["name"]]),
                                     "unit": m["unit"]} for m in declared}
    print(json.dumps({"env": environment(env["env"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
