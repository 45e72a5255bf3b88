"""Spans around the calls into groupsobolev's public functions.

The tracer wraps every public function of the layer modules and rebinds each
name that refers to it in any ``groupsobolev`` module, so calls between
modules (``from .spectral import dft_values``) are traced too.  Spans live in
memory; :func:`layer_metrics` turns them into the per-layer figures.

A span is ``[name, parent, start, end, extra]``.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.
"""
from __future__ import annotations

import contextlib
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("group", "spectral", "sobolev", "stringop", "nonlinear", "checks", "cli")

# O(1) element helpers: called in tight loops by the suites, cheaper than a
# span, and part of no per-layer figure.
UNTRACED = {"group.haar_weight", "group.index_of", "group.element_at", "group.compose",
            "group.inverse", "group.evaluate_character", "group.index_strides"}


def _extra(name, args, result):
    """The figure a span carries: points transformed, or solver iterations."""
    if name in ("spectral.dft_values", "spectral.idft_values"):
        return int(getattr(args[1], "size", 0))
    if name == "nonlinear.solve_nonlinear":
        return result[1].iterations
    return None


class Tracer:
    """Collects spans; ``install`` starts tracing, ``uninstall`` stops it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        # A span opened by a pool thread belongs to whatever the main
        # thread is inside, e.g. the CLI's main waiting on the pool.
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, parent, time.perf_counter(), None, None])
        stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.spans[idx][4] = extra
        self._stack().pop()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, _extra(name, args, result) if result is not None else None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, everywhere it is bound."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"groupsobolev.{layer}")
            for attr, obj in vars(mod).items() if mod else ():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or name in UNTRACED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "groupsobolev" and not modname.startswith("groupsobolev."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    @contextlib.contextmanager
    def op(self):
        """Trace the body as one op, under a root span ``bench.op``."""
        self.install()
        idx = self.open("bench.op")
        try:
            yield
        finally:
            self.close(idx)
            self.uninstall()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[2], span[3]))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# Per-layer figures built from self time, in ms per op.
SELF_MS = {
    "spectral.fwd_ms": ("spectral.dft_values",),
    "spectral.inv_ms": ("spectral.idft_values",),
    "spectral.naive_ms": ("spectral.dft_naive",),
    "spectral.io_ms": tuple(f"spectral.{rw}_{kind}_{fmt}" for rw in ("read", "write")
                            for kind in ("signal", "spectrum") for fmt in ("csv", "json")),
    "group.ms": ("group.parse_group", "group.character_table", "group.compose_indices",
                 "group.inverse_indices", "group.residue_grid"),
    "sobolev.weight_ms": ("sobolev.make_weight", "sobolev.weight_from_table",
                          "sobolev.check_subadditivity"),
    "sobolev.norm_ms": ("sobolev.sobolev_norm", "sobolev.sobolev_norm_batch",
                        "sobolev.lp_norm", "sobolev.lp_norm_batch", "sobolev.verify_scale"),
    "sobolev.constant_ms": ("sobolev.embedding_constant_sup", "sobolev.embedding_constant_lalpha",
                            "sobolev.algebra_constant", "sobolev.translation_modulus",
                            "sobolev.compactness_profile"),
    "stringop.multiplier_ms": ("stringop.build_multiplier",),
    "stringop.solve_linear_ms": ("stringop.solve_linear",),
    "stringop.apply_ms": ("stringop.apply_operator", "stringop.multiply_spectrum"),
    "stringop.domain_norm_ms": ("stringop.domain_norm", "stringop.domain_norm_batch"),
    "nonlinear.self_ms": ("nonlinear.*",),
    "cli.self_ms": ("cli.main",),
}
# Whole-phase figures, in ms per op, children included.
INCLUSIVE_MS = {
    "nonlinear.size_ball_ms": "nonlinear.size_ball",
    "nonlinear.verify_ms": "nonlinear.verify_solution",
}
CALLS = {
    "spectral.fwd_calls": "spectral.dft_values",
    "spectral.inv_calls": "spectral.idft_values",
    "stringop.multiplier_calls": "stringop.build_multiplier",
}
TRANSFORMS = ("spectral.dft_values", "spectral.idft_values")


def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith(".*") and name.startswith(p[:-1])) for p in patterns)


def layer_metrics(spans: list[list], n_ops: int) -> dict:
    """Per-op layer figures from the spans of ``n_ops`` traced ops."""
    selfs = self_times(spans)
    out = {}
    for metric, patterns in SELF_MS.items():
        total = sum(t for span, t in zip(spans, selfs) if _matches(span[0], patterns))
        out[metric] = 1e3 * total / n_ops
    for metric, name in INCLUSIVE_MS.items():
        out[metric] = 1e3 * sum(s[3] - s[2] for s in spans if s[0] == name) / n_ops
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s[0] == name) / n_ops
    transforms = [s for s in spans if s[0] in TRANSFORMS]
    seconds = sum(s[3] - s[2] for s in transforms)
    points = sum(s[4] or 0 for s in transforms)
    out["spectral.mpts_per_s"] = points / seconds / 1e6 if seconds > 0 else 0.0

    solves = [i for i, s in enumerate(spans) if s[0] == "nonlinear.solve_nonlinear"]
    iterations = sum(spans[i][4] or 0 for i in solves)
    solve_ids = set(solves)

    def in_solve(idx: int) -> bool:
        idx = spans[idx][1]
        while idx is not None:
            if idx in solve_ids:
                return True
            idx = spans[idx][1]
        return False

    solve_transforms = sum(1 for i, s in enumerate(spans) if s[0] in TRANSFORMS and in_solve(i))
    solve_ms = 1e3 * sum(spans[i][3] - spans[i][2] for i in solves)
    out["nonlinear.iterations"] = iterations / len(solves) if solves else 0.0
    out["nonlinear.transforms_per_iteration"] = solve_transforms / iterations if iterations else 0.0
    out["nonlinear.ms_per_iteration"] = solve_ms / iterations if iterations else 0.0

    mains = [s for s in spans if s[0] == "cli.main"]
    main_s = sum(s[3] - s[2] for s in mains)
    out["cli.sweep_overlap"] = (solve_ms / 1e3) / main_s if main_s > 0 else 0.0
    return out


def extend(spans: list[list], more: list[list]) -> None:
    """Append spans recorded elsewhere (another process), re-indexing parents."""
    offset = len(spans)
    spans.extend([name, None if parent is None else parent + offset, start, end, extra]
                 for name, parent, start, end, extra in more)
