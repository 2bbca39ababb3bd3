"""Exact harmonic analysis on the compact quantum group SU_q(2).

The package provides exact arithmetic in the deformation parameter,
the polynomial Hopf *-algebra with its Haar state and Peter-Weyl
coefficient matrices, the quantum Fourier transform with Plancherel
and the inequality verification harness, Fourier-multiplier symbol
calculus, Dirac-type spectral diagnostics, and the three- and
four-dimensional first-order differential calculi.
"""

from .qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, sqrt_scalar,
    evaluate, bq_asymptotic_ratio, ZERO, ONE, Q,
)
from .algebra import (
    NormalMonomial, AlgebraElement, A, B, C, D, UNIT,
    multiply, coproduct, counit, antipode, star, haar, l2_inner,
)
from .peterweyl import PWTable, quantum_dimension
from .fourier import (
    FourierArray, fourier_transform, inverse_fourier,
    hs_norm_sq, dual_lp_norm, plancherel_sum, paley_constant,
    SU2Grid, lp_norm_classical, inequality_ratio,
)
from .multiplier import (
    apply_symbol, extract_symbol, adjoint_symbol,
    lp_lq_bound, quantize, schwartz_seminorms,
)
from .spectral import (
    DiracSpec, summability_classify, abs_dirac_power, commutator_apply,
)
from .calculus import (
    THREE_D, FOUR_D, OneForm, Spinor, calculus, partial_symbols,
    commutation_symbols, admissibility_check, geometric_dirac, q_laplacian,
    laplacian_eigenvalue,
)

__version__ = "0.1.0"
