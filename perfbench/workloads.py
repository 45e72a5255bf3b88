"""The benchmark's workloads: inputs made from the seed, the op, and its check.

Each workload hands out whole rounds of ops (``next_round``), runs one op
untraced (``run``) or traced (``run_traced``), and lists what is wrong with an
op's output (``check``, empty when it holds).  The program only ever sees the
generated inputs, never the seed.
"""
from __future__ import annotations

import importlib
import itertools
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import reference as ref

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
CLI_ENTRY = "import sys; from groupsobolev.cli import main; sys.exit(main())"
TOL = 1e-10  # the solver's default tolerance, used by every op
SUBPROCESS_TIMEOUT = 150
# Environment variables with this prefix change what the program does (the
# CLI's GROUPSOBOLEV_WORKERS sets its pool size): they are left out of the
# program's environment, so that a sweep runs the default 4-worker pool.
PROGRAM_KNOB_PREFIX = "GROUPSOBOLEV_"


def program_env() -> dict:
    """The caller's environment, without the program's own knobs, with the
    checkout's sources importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(PROGRAM_KNOB_PREFIX)}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cpu_self() -> float:
    return time.process_time()


def _cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _rss_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_children() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Solve:
    """One op is what ``solve-nonlinear`` does after parsing: solve, then verify."""

    MENU = (("Z4096", "sym-euclid"), ("Z4096", "pruefer:2"), ("Z64xZ64", "sym-euclid"),
            ("Z16xZ16xZ16", "sym-euclid"), ("x".join(["Z2"] * 12), "hamming"),
            ("Z257", "sym-euclid"))
    CS = (0.5, 1.0)
    POWERS = ((2, 1.0), (2, 2.0), (3, 1.0))
    FORCING_L2 = (0.05, 0.3)
    cpu_clock = staticmethod(_cpu_self)
    peak_rss_mb = staticmethod(_rss_self)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.cells = list(itertools.product(range(len(self.MENU)), self.CS, self.POWERS))
        self.factors = [ref.parse_factors(d) for d, _ in self.MENU]
        self.gamma = [ref.gamma(f, w) for f, (_, w) in zip(self.factors, self.MENU)]
        self.indep_residual_max = 0.0

    def prepare(self) -> None:
        """Program-side set-up: the groups and weights of the menu."""
        self.gs = importlib.import_module("groupsobolev")
        self.nonlinear = importlib.import_module("groupsobolev.nonlinear")
        sobolev = importlib.import_module("groupsobolev.sobolev")
        groups = [self.gs.parse_group(d) for d, _ in self.MENU]
        self.prepared = [(g, sobolev.make_weight(g, w)) for g, (_, w) in zip(groups, self.MENU)]

    def problem(self, menu: int, c: float, p: int, lam: float, l2_norm: float, rng=None) -> dict:
        h = ref.make_forcing(rng or self.rng, self.factors[menu], self.gamma[menu], c, l2_norm)
        return {"menu": menu, "factors": self.factors[menu], "weight": self.MENU[menu][1],
                "c": c, "p": p, "lam": lam, "h": h}

    def warmup(self, first: list[dict]) -> dict:
        """A fixed problem, so that set-up time does not depend on the seed."""
        return self.problem(0, 1.0, 2, 1.0, 0.1, rng=np.random.default_rng(0))

    def next_round(self) -> list[dict]:
        """Every (group, c, power) cell once, in a seeded order, each with a
        fresh forcing; the forcing norms are spread evenly over FORCING_L2."""
        norms = self.rng.permutation(np.linspace(*self.FORCING_L2, len(self.cells)))
        order = self.rng.permutation(len(self.cells))
        return [self.problem(m, c, p, lam, norm)
                for norm, (m, c, (p, lam)) in zip(norms, (self.cells[i] for i in order))]

    def run(self, prob: dict):
        g, w = self.prepared[prob["menu"]]
        nl = self.nonlinear.forced_power_nonlinearity(prob["p"], prob["lam"],
                                                      self.gs.Signal(g, prob["h"]))
        phi, rep = self.nonlinear.solve_nonlinear(nl, w, prob["c"],
                                                  self.nonlinear.SolverConfig(theta=1.0, tol=TOL))
        ver = self.nonlinear.verify_solution(phi, nl, w, prob["c"], s=1.0,
                                             residual_tol=ref.RESIDUAL_FACTOR * TOL)
        return phi.values, rep.as_dict(), ver

    def run_traced(self, prob: dict, tracer):
        with tracer.op():
            return self.run(prob)

    def check(self, prob: dict, out) -> list[str]:
        errors, resid = ref.check_solve(prob, *out, tol=TOL)
        self.indep_residual_max = max(self.indep_residual_max, resid)
        return errors


class Check:
    """One op is ``run_checks(seed)`` over all suites, one seed per op."""

    SEEDS = 100  # op seeds come from range(1, SEEDS), all of which pass
    WARMUP_SEED = 0
    ROUND = 4
    cpu_clock = staticmethod(_cpu_self)
    peak_rss_mb = staticmethod(_rss_self)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.queue: list[int] = []
        self.texts: dict[int, str] = {}
        self.suite_ms: dict[str, list[float]] = {}
        self.first = None

    def prepare(self) -> None:
        self.checks = importlib.import_module("groupsobolev.checks")
        self.suites = self.checks.suite_names()

    def next_round(self) -> list[int]:
        """ROUND seeds, none repeated until all of range(1, SEEDS) are used."""
        rnd = []
        while len(rnd) < self.ROUND:
            if not self.queue:
                self.queue = [int(x) for x in self.rng.permutation(range(1, self.SEEDS))]
            rnd.append(self.queue.pop())
        if self.first is None:
            self.first = rnd[0]
        return rnd

    def warmup(self, first: list[int]) -> int:
        """A fixed seed outside the ops' range: set-up time does not depend
        on the seed, and no timed op repeats the warm-up's input."""
        return self.WARMUP_SEED

    def rerun(self) -> int:
        """The run's first seed again, run untimed after the loop: its JSON
        must be byte-identical to the first run's."""
        return self.first

    def run(self, seed: int) -> dict:
        return self.checks.run_checks(seed)

    def run_traced(self, seed: int, tracer) -> dict:
        """The same suites, one ``run_checks(seed, only=[suite])`` call each."""
        suites = []
        with tracer.op():
            for name in self.suites:
                t0 = time.perf_counter()
                doc = self.checks.run_checks(seed, only=[name])
                self.suite_ms.setdefault(name, []).append(1e3 * (time.perf_counter() - t0))
                suites += doc["suites"]
        return {**doc, "suites": suites, "all_passed": all(s["passed"] for s in suites)}

    def check(self, seed: int, doc: dict) -> list[str]:
        errors = ref.check_check_doc(doc, self.suites)
        text = ref.check_json_text(doc)
        if self.texts.setdefault(seed, text) != text:
            errors.append(f"seed {seed}: JSON differs from the first run of that seed")
        return errors


class Sweep:
    """One op is one ``groupsobolev sweep`` process, as a user runs it."""

    GROUP = "Z128xZ128"
    WEIGHT = "sym-euclid"
    NONLINEARITY = "forced-power:2,1"
    GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    FORCING_L2 = 0.1
    ROUND = 2
    cpu_clock = staticmethod(_cpu_children)
    peak_rss_mb = staticmethod(_rss_children)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.factors = ref.parse_factors(self.GROUP)
        self.gamma = ref.gamma(self.factors, self.WEIGHT)
        self.count = 0

    def prepare(self) -> None:
        pass

    def _input(self, rng) -> dict:
        """A fresh forcing file, band-limited for the largest c."""
        h = ref.make_forcing(rng, self.factors, self.gamma, max(self.GRID), self.FORCING_L2)
        self.count += 1
        forcing = self.scratch / f"forcing_{self.count}.csv"
        lines = ["index,re,im"] + [f"{i},{x:.17g},0" for i, x in enumerate(h)]
        forcing.write_text("\n".join(lines) + "\n", encoding="ascii")
        return {"forcing": forcing, "output": self.scratch / f"sweep_{self.count}.csv"}

    def next_round(self) -> list[dict]:
        """ROUND ops, each with a forcing of its own."""
        return [self._input(self.rng) for _ in range(self.ROUND)]

    def warmup(self, first: list[dict]) -> dict:
        """A fixed forcing, so that set-up time does not depend on the seed."""
        return self._input(np.random.default_rng(0))

    def argv(self, inp: dict) -> list[str]:
        return ["sweep", "--group", self.GROUP, "--weight", self.WEIGHT, "--c", "1",
                "--nonlinearity", self.NONLINEARITY, "--forcing", str(inp["forcing"]),
                "--param", "c", "--grid", ",".join(f"{v:g}" for v in self.GRID),
                "--output", str(inp["output"])]

    def _spawn(self, argv: list[str]):
        proc = subprocess.run([sys.executable] + argv, env=program_env(), capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT)
        return proc.returncode, proc.stderr

    def run(self, inp: dict):
        rc, err = self._spawn(["-c", CLI_ENTRY] + self.argv(inp))
        return rc, err, inp["output"]

    def run_traced(self, inp: dict, trace_path: Path):
        rc, err = self._spawn([str(BENCH_DIR / "traced_cli.py"), str(trace_path)] + self.argv(inp))
        return rc, err, inp["output"]

    def check(self, inp: dict, out) -> list[str]:
        rc, err, path = out
        if rc != 0:
            return [f"sweep exited {rc}: {err.strip()[-300:]}"]
        errors = ref.check_sweep_csv(path.read_text(encoding="ascii"), "c", list(self.GRID), TOL)
        path.unlink()
        return errors

    def release(self, inp: dict) -> None:
        inp["forcing"].unlink(missing_ok=True)


WORKLOADS = {"solve": Solve, "check": Check, "sweep": Sweep}


def report_errors(label: str, errors) -> None:
    for err in errors:
        print(f"{label}: {err}", file=sys.stderr)


class Loop:
    """Counts and checks the ops of one run, and times each."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = self.failed = 0
        self.correct = True

    def run(self, inp, run=None, *args):
        """Run one op (``run`` defaults to the untraced one); returns its
        output, wall and CPU seconds, or None if it raised."""
        run = run or self.wl.run
        self.attempted += 1
        c0, t0 = self.wl.cpu_clock(), time.perf_counter()
        try:
            out = run(inp, *args)
        except Exception:  # a failed op is counted, and the run goes on
            self.failed += 1
            traceback.print_exc()
            return None
        return out, time.perf_counter() - t0, self.wl.cpu_clock() - c0

    def check(self, inp, out) -> None:
        errors = self.wl.check(inp, out)
        report_errors(type(self.wl).__name__.lower(), errors)
        self.correct = self.correct and not errors

    def op(self, inp, run=None, *args) -> tuple[float, float] | None:
        """Run one op and check it outside the timed region; returns its
        wall and CPU seconds, or None if it raised."""
        done = self.run(inp, run, *args)
        if done is None:
            return None
        self.check(inp, done[0])
        return done[1:]

    def absorb(self, other: "Loop") -> None:
        """Count another loop's ops (a probe's) as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct = self.correct and other.correct

    def rounds(self, first, seconds: float):
        """Yield whole rounds of inputs until ``seconds`` have passed, then
        run the workload's untimed re-run, if it has one."""
        deadline = time.perf_counter() + seconds
        rnd = first
        while True:
            yield rnd
            for inp in rnd if hasattr(self.wl, "release") else ():
                self.wl.release(inp)
            if time.perf_counter() >= deadline:
                break
            rnd = self.wl.next_round()
        if hasattr(self.wl, "rerun"):
            self.op(self.wl.rerun())

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def timed_run(wl, first, seconds: float) -> dict:
    """The end-to-end metrics.  Every op has an input of its own and is timed
    once.  A round's ops run back to back and are checked after the round.
    Throughput and CPU time per op are the run's ops over the summed wall
    and CPU time of its rounds; ``op_p50_ms`` is the median op."""
    loop = Loop(wl)
    op_s = []
    wall = cpu = 0.0
    for rnd in loop.rounds(first, seconds):
        c0, t0 = wl.cpu_clock(), time.perf_counter()
        done = [(inp, loop.run(inp)) for inp in rnd]
        wall += time.perf_counter() - t0
        cpu += wl.cpu_clock() - c0
        for inp, (out, dt, _) in ((inp, d) for inp, d in done if d is not None):
            loop.check(inp, out)
            op_s.append(dt)
    metrics = {"ops_per_s": len(op_s) / wall, "op_p50_ms": 1e3 * statistics.median(op_s),
               "cpu_ms_per_op": 1e3 * cpu / len(op_s), "peak_rss_mb": wl.peak_rss_mb()}
    return loop.result(metrics)
