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

from .group import (  # noqa: E402
    FiniteAbelianGroup,
    compose,
    compose_indices,
    element_at,
    enumerate_elements,
    evaluate_character,
    haar_weight,
    index_of,
    inverse,
    parse_group,
)
from .spectral import (  # noqa: E402
    Signal,
    Spectrum,
    convolve_dual,
    dft_fast,
    dft_naive,
    idft,
    pointwise_mul,
    read_signal_csv,
    read_signal_json,
    read_spectrum_csv,
    read_spectrum_json,
    translate,
    write_signal_csv,
    write_signal_json,
    write_spectrum_csv,
    write_spectrum_json,
)
from .sobolev import (  # noqa: E402
    ShiftProfileRow,
    Weight,
    algebra_constant,
    check_subadditivity,
    compactness_profile,
    embedding_constant_lalpha,
    embedding_constant_sup,
    lp_norm,
    make_weight,
    sobolev_norm,
    translation_modulus,
    verify_scale,
    weight_from_table,
)
from .stringop import (  # noqa: E402
    MultiplierProfile,
    NotInDomainError,
    apply_operator,
    build_multiplier,
    domain_norm,
    solve_linear,
)
from .nonlinear import (  # noqa: E402
    Nonlinearity,
    SolverConfig,
    SolveReport,
    affine_nonlinearity,
    check_growth_conditions,
    eval_source,
    forced_power_nonlinearity,
    lowfreq_forcing,
    parse_nonlinearity,
    picard_step,
    power_nonlinearity,
    size_ball,
    solve_nonlinear,
    verify_solution,
)


def __getattr__(name: str):
    # the suites load on first use: most commands never run them
    if name in ("run_checks", "suite_names"):
        from . import checks

        return getattr(checks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # group
    "FiniteAbelianGroup",
    "parse_group",
    "compose",
    "inverse",
    "evaluate_character",
    "enumerate_elements",
    "haar_weight",
    "index_of",
    "element_at",
    "compose_indices",
    # spectral
    "Signal",
    "Spectrum",
    "dft_fast",
    "dft_naive",
    "idft",
    "pointwise_mul",
    "translate",
    "convolve_dual",
    "write_signal_csv",
    "read_signal_csv",
    "write_signal_json",
    "read_signal_json",
    "write_spectrum_csv",
    "read_spectrum_csv",
    "write_spectrum_json",
    "read_spectrum_json",
    # sobolev
    "Weight",
    "make_weight",
    "weight_from_table",
    "check_subadditivity",
    "sobolev_norm",
    "lp_norm",
    "embedding_constant_sup",
    "embedding_constant_lalpha",
    "algebra_constant",
    "translation_modulus",
    "ShiftProfileRow",
    "compactness_profile",
    "verify_scale",
    # string operator
    "MultiplierProfile",
    "NotInDomainError",
    "build_multiplier",
    "domain_norm",
    "apply_operator",
    "solve_linear",
    # nonlinear
    "Nonlinearity",
    "affine_nonlinearity",
    "power_nonlinearity",
    "forced_power_nonlinearity",
    "parse_nonlinearity",
    "lowfreq_forcing",
    "eval_source",
    "picard_step",
    "SolverConfig",
    "SolveReport",
    "size_ball",
    "solve_nonlinear",
    "verify_solution",
    "check_growth_conditions",
    # checks
    "run_checks",
    "suite_names",
]
