"""Tests of the benchmark's own checkers and its numpy.fft reference.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from groupsobolev.checks import run_checks  # noqa: E402
from groupsobolev.cli import main  # noqa: E402
from groupsobolev.group import parse_group  # noqa: E402
from groupsobolev.sobolev import make_weight  # noqa: E402
from groupsobolev.spectral import Signal, dft_naive  # noqa: E402

SMALL_GROUPS = ("Z7", "Z12", "Z2xZ3xZ5", "Z8xZ8", "Z2xZ2xZ2xZ2xZ2xZ2")


@pytest.mark.parametrize("descriptor", SMALL_GROUPS)
def test_reference_transform_matches_naive_oracle(descriptor):
    group = parse_group(descriptor)
    re, im = np.random.default_rng(7).standard_normal((2, group.order))
    x = re + 1j * im
    want = dft_naive(Signal(group, x)).values
    got = ref.fft_forward(group.factors, x)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(ref.fft_inverse(group.factors, got) - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("descriptor,weight", [("Z12", "sym-euclid"), ("Z8xZ8", "sym-euclid"),
                                               ("Z2xZ2xZ2xZ2", "hamming"), ("Z27", "pruefer:3"),
                                               ("Z4096", "pruefer:2")])
def test_reference_weights_match_program(descriptor, weight):
    group = parse_group(descriptor)
    assert np.array_equal(ref.gamma(group.factors, weight), make_weight(group, weight).values)


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    wl = workloads.Solve(3, tmp_path_factory.mktemp("solve"))
    wl.prepare()
    prob = wl.problem(2, 1.0, 2, 1.0, 0.2)
    return wl, prob, wl.run(prob)


def test_solve_check_accepts_the_solution(solved):
    wl, prob, out = solved
    assert wl.check(prob, out) == []
    assert wl.indep_residual_max <= ref.RESIDUAL_FACTOR * workloads.TOL


def test_solve_check_rejects_scaled_solution(solved):
    wl, prob, (phi, report, verification) = solved
    errors = wl.check(prob, (phi * (1 + 1e-6), report, verification))
    assert any("fixed-point residual" in e for e in errors)


def test_solve_check_rejects_misordered_norms(solved):
    wl, prob, (phi, report, verification) = solved
    norms = dict(report["norms"], l2=report["norms"]["sup"] * 1.001)
    assert wl.check(prob, (phi, {**report, "norms": norms}, verification))


@pytest.mark.parametrize("key", ["sobolev_norm", "continuity_constant", "sup_norm"])
def test_solve_check_rejects_perturbed_verification_figure(solved, key):
    wl, prob, (phi, report, verification) = solved
    perturbed = {**verification, key: verification[key] * (1 + 1e-9)}
    errors = wl.check(prob, (phi, report, perturbed))
    assert any(f"verification {key}" in e for e in errors)


def test_sweep_check_rejects_swapped_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    grid = [0.5, 1.0, 2.0]
    assert main(["sweep", "--group", "Z64", "--c", "1", "--nonlinearity", "forced-power:2,1",
                 "--forcing-scale", "0.05", "--param", "c", "--grid", "0.5,1,2",
                 "--output", str(out)]) == 0
    lines = out.read_text(encoding="ascii").strip().split("\n")
    assert ref.check_sweep_csv("\n".join(lines), "c", grid, workloads.TOL) == []
    lines[1], lines[2] = lines[2], lines[1]
    assert ref.check_sweep_csv("\n".join(lines), "c", grid, workloads.TOL)


@pytest.fixture
def check_workload(tmp_path):
    wl = workloads.Check(0, tmp_path)
    wl.prepare()
    return wl


def test_check_check_rejects_injected_bug(check_workload):
    doc = run_checks(5, inject_bug=True)
    assert check_workload.check(5, doc)


def test_check_rounds_do_not_repeat_a_seed(check_workload):
    seeds = [s for _ in range(25) for s in check_workload.next_round()]
    assert len(set(seeds[:99])) == 99
    assert check_workload.WARMUP_SEED not in seeds
    assert check_workload.rerun() == seeds[0]


def test_program_env_drops_the_program_knobs(monkeypatch):
    monkeypatch.setenv("GROUPSOBOLEV_WORKERS", "1")
    assert "GROUPSOBOLEV_WORKERS" not in workloads.program_env()


def test_check_check_rejects_changed_rerun(check_workload):
    doc = run_checks(4)
    assert check_workload.check(4, doc) == []
    changed = json.loads(json.dumps(doc))
    changed["suites"][0]["trials"] += 1
    assert any("differs" in e for e in check_workload.check(4, changed))


def test_self_time_subtracts_union_of_children():
    # parent 0..10; children 1..4 and 3..6 overlap (threads), 8..9 apart
    tree = [["p", None, 0.0, 10.0, None], ["a", 0, 1.0, 4.0, None],
            ["b", 0, 3.0, 6.0, None], ["c", 0, 8.0, 9.0, None]]
    assert spans.self_times(tree) == [4.0, 3.0, 3.0, 1.0]
