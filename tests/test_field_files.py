"""Fuzzed field files: what the writers make reads back bit for bit, and a
damaged ``--forcing``, ``--initial`` or ``--weight-table`` file ends
``solve-nonlinear`` in exit 2 and one stderr line that names the file."""
import contextlib
import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupsobolev.cli import main
from groupsobolev.group import parse_group
from groupsobolev.spectral import (
    Signal,
    read_signal_csv,
    read_signal_json,
    write_signal_csv,
    write_signal_json,
)

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
          1e308, -1e308, 1.7976931348623157e308, -0.0]
_WRITE = {"csv": write_signal_csv, "json": write_signal_json}
_READ = {"csv": read_signal_csv, "json": read_signal_json}


def _signal(parts, real: bool) -> Signal:
    """A field on Z<n> from the floats ``parts``: n real values, or n complex
    values from their pairs."""
    values = np.array(parts if real else parts[: len(parts) // 2 * 2], dtype=np.float64)
    if not real:
        values = values.view(np.complex128)
    return Signal(parse_group(f"Z{values.size}"), values)


@settings(max_examples=80, deadline=None)
@given(parts=st.lists(_FLOATS, min_size=2, max_size=16), real=st.booleans(),
       fmt=st.sampled_from(("csv", "json")))
@example(parts=_EDGES, real=True, fmt="json")
@example(parts=_EDGES, real=False, fmt="json")
@example(parts=_EDGES, real=True, fmt="csv")
@example(parts=_EDGES, real=False, fmt="csv")
def test_a_written_field_reads_back_bit_for_bit(parts, real, fmt):
    f = _signal(parts, real)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"f.{fmt}")
        _WRITE[fmt](path, f)
        back = _READ[fmt](path, f.group)
    assert back.group == f.group
    assert np.array_equal(back.values.view(np.uint64), f.values.view(np.uint64))


_CELLS = {"non-numeric": "x", "nan": "nan", "1e999": "1e999", "negative": "-1"}


def _damage_csv(text: str, mutation: str, k: int) -> str:
    """``text``, an "index,<columns>" table, with row ``k`` damaged; a cell
    mutation replaces the row's first value."""
    header, *rows = text.splitlines()
    if mutation == "drop-row":
        del rows[k]
    elif mutation == "repeat-row":
        rows.insert(k, rows[k])
    elif mutation == "swap-rows":
        rows[k - 1], rows[k] = rows[k], rows[k - 1]
    elif mutation == "extra-column":
        rows[k] += ",0"
    elif mutation == "missing-column":
        rows[k] = rows[k].rsplit(",", 1)[0]
    elif mutation in _CELLS:
        index, _, *rest = rows[k].split(",")
        rows[k] = ",".join([index, _CELLS[mutation], *rest])
    elif mutation == "bad-header":
        header = header.rsplit(",", 1)[0]
    return "\n".join([header, *rows]) + "\n"


def _damage_json(text: str, mutation: str, k: int) -> str:
    group = re.search(r'"group": "([^"]*)"', text).group(1)
    pairs = re.findall(r"\[([^\[\]]*)\]", text)
    key = "group"
    if mutation == "drop-row":
        del pairs[k]
    elif mutation == "repeat-row":
        pairs.insert(k, pairs[k])
    elif mutation == "extra-column":
        pairs[k] += ", 0"
    elif mutation == "missing-column":
        pairs[k] = pairs[k].split(",")[0]
    elif mutation in _CELLS:
        cell = {"non-numeric": '"x"', "nan": "NaN", "1e999": "1e999"}[mutation]
        pairs[k] = f"{cell}, {pairs[k].split(', ')[1]}"
    elif mutation == "bad-header":
        key = "grp"
    out = '{"%s": "%s", "values": [%s]}\n' % (key, group, ", ".join(f"[{p}]" for p in pairs))
    if mutation == "truncated":
        out = text[: k % (len(text) - 1)]  # at least the closing brace goes
    return out


_MUTATIONS = {
    "csv": ("drop-row", "repeat-row", "swap-rows", "extra-column", "missing-column",
            "non-numeric", "nan", "1e999", "bad-header", "other-group"),
    "json": ("drop-row", "repeat-row", "extra-column", "missing-column", "non-numeric", "nan",
             "1e999", "bad-header", "truncated", "other-group"),
}
_FIELD_CASES = [(fmt, m) for fmt, names in _MUTATIONS.items() for m in names]
# an "index,gamma" table takes the CSV damage, and a negative gamma
_TABLE_MUTATIONS = (*_MUTATIONS["csv"], "negative")
_FUZZ = settings(max_examples=8, deadline=None)
_DAMAGE = given(values=st.lists(_FLOATS, min_size=2, max_size=8), k=st.integers(0, 10**6))


def _assert_refused(flag: str, fmt: str, mutation: str, values, k: int) -> None:
    """``solve-nonlinear`` given the file ``flag`` names, written from
    ``values`` and damaged by ``mutation`` at row k, exits 2 with one stderr
    line that names the file."""
    f = _signal(values, real=True)
    n = f.group.order
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{flag.strip('-')}.{fmt}")
        if flag == "--weight-table":
            with open(path, "w", encoding="ascii") as fh:
                fh.write("index,gamma\n" + "".join(f"{i},{abs(float(v))!r}\n"
                                                   for i, v in enumerate(f.values.real)))
        else:
            _WRITE[fmt](path, f)
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        damage = _damage_csv if fmt == "csv" else _damage_json
        row = k % (n - 1) + 1 if mutation == "swap-rows" else k % n
        with open(path, "w", encoding="ascii") as fh:
            fh.write(damage(text, mutation, k if mutation == "truncated" else row))
        group = f"Z{n + 1}" if mutation == "other-group" else f.group.descriptor
        forcing = [] if flag == "--forcing" else ["--forcing-scale", "0.1"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve-nonlinear", "--group", group, "--c", "1", "--nonlinearity",
                         "forced-power:2,1", *forcing, flag, path])
    assert code == 2, (mutation, out.getvalue())
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert path in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""


@pytest.mark.parametrize("fmt, mutation", _FIELD_CASES)
@_FUZZ
@_DAMAGE
def test_a_damaged_forcing_file_exits_2_in_one_line(fmt, mutation, values, k):
    _assert_refused("--forcing", fmt, mutation, values, k)


@pytest.mark.parametrize("fmt, mutation", _FIELD_CASES)
@_FUZZ
@_DAMAGE
def test_a_damaged_initial_file_exits_2_in_one_line(fmt, mutation, values, k):
    _assert_refused("--initial", fmt, mutation, values, k)


@pytest.mark.parametrize("mutation", _TABLE_MUTATIONS)
@_FUZZ
@_DAMAGE
def test_a_damaged_weight_table_exits_2_in_one_line(mutation, values, k):
    _assert_refused("--weight-table", "csv", mutation, values, k)
