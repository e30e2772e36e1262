"""Classical computation of X-program (IQP circuit) output distributions.

The probability distribution of an X-program is governed by the binary
linear code spanned by its matrix columns and by the binary matroid on
its rows. This package computes amplitudes and correlation coefficients
through weight-enumerator and Tutte-polynomial evaluations, solves the
quarter-turn (Clifford) case exactly, assembles full and marginal
distributions, samples masked outputs, and ships a brute-force oracle
for independent verification.
"""

from . import clifford, codes, errors, gf2, marginals, oracle, tutte, xprogram
from .clifford import (
    AffineSupport,
    GaussianInteger,
    clifford_probability,
    clifford_sample,
    clifford_support,
    wenum_at_fourth_root,
)
from .codes import (
    Angle,
    CodeProfile,
    affinify,
    alpha,
    alpha_exact_fourth_root,
    is_even_code,
    project,
    weight_enumerator,
)
from .errors import (
    BudgetError,
    InputError,
    NumericalInconsistency,
    SimulationError,
)
from .gf2 import BinaryMatrix, BitVector, EchelonForm, echelon_reduce, kernel, rank
from .marginals import (
    MarginalSampler,
    Projector,
    diagonal_projector,
    make_projector,
    marginal_distribution,
    marginal_graphic,
    marginal_pi8,
    marginal_sparse,
    sample_marginal,
)
from .tutte import TuttePolynomial, greene_alpha, star_tutte, tutte_eval, tutte_subset_sum
from .xprogram import (
    Distribution,
    ReducedProgram,
    XProgram,
    amplitude,
    beta,
    betas,
    full_distribution,
    probability,
    reduce_rows,
    walsh_hadamard,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSupport",
    "Angle",
    "BinaryMatrix",
    "BitVector",
    "BudgetError",
    "CodeProfile",
    "Distribution",
    "EchelonForm",
    "GaussianInteger",
    "InputError",
    "MarginalSampler",
    "NumericalInconsistency",
    "Projector",
    "ReducedProgram",
    "SimulationError",
    "TuttePolynomial",
    "XProgram",
    "affinify",
    "alpha",
    "alpha_exact_fourth_root",
    "amplitude",
    "beta",
    "betas",
    "clifford",
    "clifford_probability",
    "clifford_sample",
    "clifford_support",
    "codes",
    "diagonal_projector",
    "echelon_reduce",
    "errors",
    "full_distribution",
    "gf2",
    "greene_alpha",
    "is_even_code",
    "kernel",
    "make_projector",
    "marginal_distribution",
    "marginal_graphic",
    "marginal_pi8",
    "marginal_sparse",
    "marginals",
    "oracle",
    "probability",
    "project",
    "rank",
    "reduce_rows",
    "sample_marginal",
    "star_tutte",
    "tutte",
    "tutte_eval",
    "tutte_subset_sum",
    "walsh_hadamard",
    "weight_enumerator",
    "wenum_at_fourth_root",
    "xprogram",
    "__version__",
]
