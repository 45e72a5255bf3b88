"""Sobolev analysis and a nonlocal string-equation solver on finite abelian groups.

The package provides, for a finite abelian group G = Z_{n1} x ... x Z_{nd}:

* exact Fourier analysis (``numpy.fft`` over the grid of cyclic factors,
  checked against a quadratic-time oracle) under the normalized Haar
  measure on G and the counting measure on the dual;
* weighted Sobolev norms driven by subadditive dual weights, together with
  the closed-form sup/Lebesgue embedding and algebra constants;
* the spectral string operator u -> Laplacian(exp(-c Laplacian) u) - u as a
  dual multiplier, with an overflow-safe log-space domain norm, the exact
  linear solver, and its isometry guarantee;
* a damped Picard iteration for the nonlinear equation with growth-checked
  nonlinearities, automatic smallness-ball sizing, and verified reports.

Each public name is declared once, in its module's ``__all__``; the package
exports those lists, plus ``run_checks`` and ``suite_names``, which load
the suites on first use.
"""

__version__ = "0.1.0"

import os
import sys

# One BLAS thread.  OpenBLAS starts a worker thread when numpy loads, which
# spins for about 0.1 s of CPU at start and after every threaded product:
# about 30 % of a sweep process's CPU, for no gain in wall time.  The
# setting acts only before numpy loads; a user's own OPENBLAS_NUM_THREADS
# stands.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .group import *  # noqa: E402,F403
from .spectral import *  # noqa: E402,F403
from .sobolev import *  # noqa: E402,F403
from .stringop import *  # noqa: E402,F403
from .nonlinear import *  # noqa: E402,F403


def __getattr__(name: str):
    # the suites load on first use: most commands never run them
    if name in ("run_checks", "suite_names"):
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["__version__", *group.__all__, *spectral.__all__, *sobolev.__all__,
           *stringop.__all__, *nonlinear.__all__, "run_checks", "suite_names"]
