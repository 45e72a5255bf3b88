import groupsobolev.checks as checks
from groupsobolev.checks import run_checks, suite_names

# Each suite's RNG stream is the child of the seed at its position in this
# list, so the order is part of the byte-identical ``check`` JSON.
SUITES = [
    "transform-oracle",
    "transform-roundtrip",
    "plancherel",
    "convolution-theorem",
    "translation-modulation",
    "weight-subadditivity",
    "l2-vs-sobolev",
    "sup-embedding",
    "lebesgue-embedding",
    "algebra-bound",
    "scale-monotonicity",
    "translation-bound",
    "shift-angle-bound",
    "linear-isometry",
    "linear-roundtrip",
    "domain-embedding",
    "multiplier-monotonicity",
    "affine-exactness",
    "quadratic-smalldata",
    "growth-conditions",
    "damping-neutrality",
]


def test_suites_are_registered_in_definition_order():
    assert suite_names() == SUITES


def test_a_filter_leaves_each_suite_its_stream():
    alone = run_checks(seed=3, only=["plancherel"])["suites"]
    both = run_checks(seed=3, only=["transform-roundtrip", "plancherel"])["suites"]
    assert [s["name"] for s in both] == ["transform-roundtrip", "plancherel"]
    assert both[1] == alone[0]


def test_the_runner_builds_each_record_from_the_tracker(monkeypatch):
    def margins_only(rng, t, inject_bug):
        t.add(0.5, {"k": 1}, count=3)
        t.add(0.25, {"k": 2})

    def failed_check(rng, t, inject_bug):
        t.add(1.0, {"k": 1})
        t.require(True)
        t.require(False)
        t.require(True)

    def no_margin(rng, t, inject_bug):
        pass

    before = run_checks(seed=5, only=["plancherel"])["suites"]
    for name, suite in (("margins-only", margins_only), ("failed-check", failed_check),
                        ("no-margin", no_margin)):
        monkeypatch.setitem(checks._SUITES, name, (f"{name} detail", suite))
    doc = run_checks(seed=5, only=["plancherel", "margins-only", "failed-check", "no-margin"])
    plancherel, margins, failed, empty = doc["suites"]
    assert [plancherel] == before  # a suite added after the others leaves their streams
    assert margins == {"name": "margins-only", "passed": True, "trials": 4, "worst_slack": 0.25,
                       "witness": {"k": 2}, "detail": "margins-only detail"}
    assert failed["passed"] is False and failed["worst_slack"] == 1.0
    assert empty["passed"] is True and empty["worst_slack"] == 0.0 and empty["trials"] == 0
    assert doc["all_passed"] is False
