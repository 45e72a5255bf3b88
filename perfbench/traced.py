"""The traced run: per-layer figures for one workload.

Each op runs twice, untraced and then traced, so the tracing overhead is
measured on the same inputs.  Every per-op layer figure comes from this
workload's own traced ops; a layer its op never reaches reads 0.  After the
loop come the figures that need other inputs, each labelled on the
``probed`` line of the output: a timed fresh import of the CLI, the
transform's deviation from numpy.fft, and on the workloads that lack them,
the per-suite times (one ``check`` op) and the independent fixed-point
residual (one solve per ``solve`` group).
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref
import spans as sp
import workloads as wls

STARTUP_SAMPLES = 3


def _traced_op(loop, wl, inp, tracer, scratch):
    """One traced op; a sweep's spans come back from its CLI process."""
    if isinstance(wl, wls.Sweep):
        path = scratch / "trace.json"
        timing = loop.op(inp, wl.run_traced, path)
        if timing is not None:
            sp.extend(tracer.spans, json.loads(path.read_text(encoding="ascii")))
        return timing
    return loop.op(inp, wl.run_traced, tracer)


def probe(kind, seed: int, scratch):
    """Checked ops of another workload: one check op, traced suite by suite,
    or one untraced solve per menu group (c = 1, p = 2, lam = 1, forcing
    norm 0.1).  Returns their loop and the workload."""
    wl = kind(seed, scratch)
    wl.prepare()
    loop = wls.Loop(wl)
    if kind is wls.Solve:
        for m in range(len(wl.MENU)):
            loop.op(wl.problem(m, 1.0, 2, 1.0, 0.1))
    else:
        loop.op(wl.next_round()[0], wl.run_traced, sp.Tracer())
    return loop, wl


def startup_ms() -> float:
    """Median wall time of a fresh interpreter importing groupsobolev.cli."""
    samples = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import groupsobolev.cli"], env=wls.program_env(),
                       check=True, timeout=wls.SUBPROCESS_TIMEOUT)
        samples.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(samples)


def oracle_dev_max(seed: int) -> float:
    """Largest relative deviation of dft_values from numpy.fft on the solve groups."""
    gs = importlib.import_module("groupsobolev")
    spectral = importlib.import_module("groupsobolev.spectral")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for descriptor, _ in wls.Solve.MENU:
        factors = ref.parse_factors(descriptor)
        re, im = rng.standard_normal((2, math.prod(factors)))
        x = re + 1j * im
        want = ref.fft_forward(factors, x)
        got = spectral.dft_values(gs.parse_group(descriptor), x)
        worst = max(worst, float(np.abs(got - want).max() / np.abs(want).max()))
    return worst


def traced_run(wl, first, seed: int, seconds: float, scratch) -> dict:
    loop, tracer = wls.Loop(wl), sp.Tracer()
    untraced, traced = [], []
    for inp in (inp for rnd in loop.rounds(first, seconds) for inp in rnd):
        timing = loop.op(inp)
        if timing is not None:
            untraced.append(timing[0])
        timing = _traced_op(loop, wl, inp, tracer, scratch)
        if timing is not None:
            traced.append(timing[0])
    metrics = sp.layer_metrics(tracer.spans, max(len(traced), 1))

    ran, probed = {type(wl): wl}, ["cli.startup_ms", "spectral.oracle_dev_max"]
    for kind, figures in ((wls.Check, "checks.*.ms"), (wls.Solve, "nonlinear.indep_residual_max")):
        if kind not in ran:
            probe_loop, ran[kind] = probe(kind, seed, scratch)
            loop.absorb(probe_loop)
            probed.append(figures)
    for suite, times in ran[wls.Check].suite_ms.items():
        metrics[f"checks.{suite}.ms"] = statistics.fmean(times)
    metrics["cli.startup_ms"] = startup_ms()
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced)
                                             / statistics.median(untraced) - 1.0)
    metrics["nonlinear.indep_residual_max"] = ran[wls.Solve].indep_residual_max
    metrics["spectral.oracle_dev_max"] = oracle_dev_max(seed)
    return {**loop.result(metrics), "probed": probed}
