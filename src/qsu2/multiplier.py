"""Left Fourier multipliers: symbol action, extraction, bounds.

A coinvariant operator acts across the Peter-Weyl blocks through one
matrix per spin, its symbol, applied to the T-basis coefficient blocks
of f (PWTable.pw_expand); the Fourier transform route is the test
oracle.  Because the quantum trace weights rows and columns differently
at q != 1, the same operator has three natural per-spin matrices,
conjugate to each other by powers of Q^l = diag(q^(-2i)):

    algebraic    sigma_alg:  A t^l_mj = sum_s t^l_ms sigma_alg(l)_sj
    transform    sigma_hat:  (Af)hat(l) = sigma_hat(l) fhat(l)
    symmetrized  sigma:      sigma = Q^(1/2) sigma_alg Q^(-1/2)
                                   = Q^(-1/2) sigma_hat Q^(1/2)

This module works with the symmetrized normalization: it is the unique
dressing in which the adjoint relation sigma_(A*) = sigma_A^* is exact
and in which the plain largest singular value of sigma(l) equals the
true L^2 -> L^2 operator norm.  All three coincide on diagonal symbols
(every Dirac-type family), and the conversions are exact q-power scalings.

quantize is the opposite ordering (fhat combined on the other side); it
agrees with apply_symbol for scalar families, reduces to the inversion
formula for the identity symbol, and differs by the commutator of the
orderings on non-scalar blocks.

A symbol table is authoritative about its support: a spin of f outside
the table is an error, never an implicit identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .qarith import ONE, _acc, q_power, evaluate, normalize_scalar
from .algebra import AlgebraElement, _promote_elem, coproduct
from .fourier import (
    FourierArray, matrix_multiply, matrix_adjoint, hs_norm_sq_float, _dn_at,
    _level_set_sup,
)

__all__ = [
    "MultiplierError",
    "apply_symbol", "apply_algebraic_symbol", "extract_symbol",
    "extract_algebraic_symbol", "symmetrize_algebraic", "algebraic_from_symmetrized",
    "adjoint_symbol", "operator_norm", "l2_operator_norm", "check_bound",
    "lp_lq_bound", "quantize", "schwartz_seminorms", "coinvariance_defect",
]

class MultiplierError(ValueError):
    pass


def _dress(mat, row_exp, col_exp):
    """Entrywise q-power dressing: entry(s, j) *= q^(row_exp*s + col_exp*j).

    Exponents are per unit weight; doubled indices make them half-integer
    powers of q, which stay exact on the q^(1/2) lattice.
    """
    return {(ts, tj): q_power(row_exp * ts + col_exp * tj) * v
            for (ts, tj), v in mat.items()}


def symmetrize_algebraic(sigma_alg):
    """sigma = Q^(1/2) sigma_alg Q^(-1/2): entry (s,j) *= q^(j - s)."""
    return FourierArray({tl: _dress(mat, -1, 1)
                         for tl, mat in sigma_alg.coeffs.items()})


def algebraic_from_symmetrized(sigma):
    """sigma_alg = Q^(-1/2) sigma Q^(1/2): entry (s,j) *= q^(s - j)."""
    return FourierArray({tl: _dress(mat, 1, -1)
                         for tl, mat in sigma.coeffs.items()})


def _t_block(sigma_alg, pw, tl):
    """The T-basis block tau of sigma_alg at spin tl (see _apply_blocks).

    tau_js = gamma(j,s) sigma_alg(l)_sj, its entries normalized, so a
    gauge radical that cancels leaves a QScalar.  A spin outside the
    symbol's support raises MultiplierError.
    """
    if tl not in sigma_alg.coeffs:
        raise MultiplierError(
            f"symbol has no spin-{Fraction(tl, 2)} block; identity is "
            "not assumed outside the declared support")
    return {key: normalize_scalar(v) for key, v
            in pw.gauge(tl, matrix_adjoint(sigma_alg.coeffs[tl])).items()}


def _apply_blocks(tau, expansion, pw, symbol_left):
    """Multiply each T-basis coefficient block C of f by the symbol.

    expansion is pw.pw_expand(f) and tau(tl) the symbol's T-basis block
    at spin tl.  With f = sum C_mj T_mj and t = gamma T,
    A T_mj = sum_s T_ms gamma(j,s) sigma_alg(l)_sj, as
    gamma(m,s)/gamma(m,j) = gamma(j,s).  So symbol_left gives C tau, with
    tau_js = gamma(j,s) sigma_alg(l)_sj (_t_block), and the opposite
    ordering gives (Q^-1 tau Q) C.  No transform is taken, and everything
    stays exact.
    """
    out = {}
    for tl, mat in expansion.items():
        block = tau(tl)
        out[tl] = (matrix_multiply(mat, block) if symbol_left
                   else matrix_multiply(_dress(block, 2, -2), mat))
    return pw.reconstruct(FourierArray(out).coeffs)


def apply_algebraic_symbol(sigma_alg, f, pw):
    """The operator with A t^l_mj = sum_s t^l_ms sigma_alg(l)_sj."""
    return _apply_blocks(partial(_t_block, sigma_alg, pw), pw.pw_expand(f),
                         pw, symbol_left=True)


def apply_symbol(symbol, f, pw):
    """Apply a symmetrized-normalization multiplier symbol to f."""
    return apply_algebraic_symbol(algebraic_from_symmetrized(symbol), f, pw)


def quantize(symbol, f, pw):
    """The opposite ordering, fhat(l) times the symbol on the right.

    See the module docstring; _apply_blocks gives its block form."""
    sigma_alg = algebraic_from_symmetrized(symbol)
    return _apply_blocks(partial(_t_block, sigma_alg, pw), pw.pw_expand(f),
                         pw, symbol_left=False)


def extract_algebraic_symbol(op, twice_l_max, pw):
    """Recover sigma_alg(l) from  A t^l_mj = sum_s t^l_ms sigma_alg(l)_sj.

    op is any map AlgebraElement -> AlgebraElement.  Every row m gives a
    candidate symbol column; coinvariance says the candidates coincide
    and that A preserves each coefficient block.  Violations raise
    MultiplierError with the offending indices.
    """
    out = {}
    for tl in range(0, twice_l_max + 1):
        weights = list(range(-tl, tl + 1, 2))
        sigma_t = None      # T-gauge symbol {(ts, tj): QScalar}
        for tm in weights:
            candidate = {}
            for tj in weights:
                image = op(pw.entry(tl, tm, tj))
                expansion = pw.pw_expand(image)
                for tl2 in expansion:
                    if tl2 != tl:
                        raise MultiplierError(
                            f"operator leaks spin {Fraction(tl,2)} -> "
                            f"{Fraction(tl2,2)}: not coinvariant")
                for (tm2, ts), c in expansion.get(tl, {}).items():
                    if tm2 != tm:
                        raise MultiplierError(
                            f"operator moves row {Fraction(tm, 2)} -> "
                            f"{Fraction(tm2, 2)} at spin "
                            f"{Fraction(tl,2)}: not coinvariant")
                    candidate[(ts, tj)] = c
            if sigma_t is None:
                sigma_t = candidate
            elif sigma_t != candidate:
                raise MultiplierError(
                    f"row-dependent symbol at spin {Fraction(tl,2)} "
                    f"(row {Fraction(tm, 2)}): not coinvariant")
        out[tl] = pw.gauge(tl, sigma_t)
    return FourierArray(out)


def extract_symbol(op, twice_l_max, pw):
    """Symbol of a coinvariant operator, symmetrized normalization."""
    return symmetrize_algebraic(extract_algebraic_symbol(op, twice_l_max, pw))


def adjoint_symbol(symbol):
    """sigma_(A*)(l) = sigma_A(l)*: exact in this normalization."""
    return FourierArray({tl: matrix_adjoint(mat)
                         for tl, mat in symbol.coeffs.items()})


def coinvariance_defect(op, element, pw):
    """Delta(A f) - (id (x) A) Delta(f), as a dict of tensor pairs.

    Empty means the operator commutes with the left coaction on this
    element; symbol-defined operators satisfy this identically.
    """
    f = _promote_elem(element)
    defect = dict(coproduct(op(f)).pairs)
    for (ml, mr), coeff in coproduct(f).pairs.items():
        for mono, c in op(AlgebraElement({mr: ONE})).terms.items():
            _acc(defect, (ml, mono), -(coeff * c))
    return defect


# ---------------------------------------------------------------------------
# norms and bounds
# ---------------------------------------------------------------------------

def _dense(mat, tl, point):
    import numpy as np
    weights = list(range(-tl, tl + 1, 2))
    idx = {tw: i for i, tw in enumerate(weights)}
    dense = np.zeros((tl + 1, tl + 1))
    for (tm, tn), v in mat.items():
        dense[idx[tm], idx[tn]] = float(evaluate(v, point))
    return dense


def operator_norm(mat, tl, point):
    """Largest singular value of the spin-l block at a numeric point.

    Diagonal blocks take the exact-evaluation path (max |entry|); dense
    blocks go through numpy's SVD.
    """
    import numpy as np
    if all(tm == tn for (tm, tn) in mat):
        return max((abs(float(evaluate(v, point))) for v in mat.values()),
                   default=0.0)
    s = np.linalg.svd(_dense(mat, tl, point), compute_uv=False)
    return float(s[0]) if len(s) else 0.0


def l2_operator_norm(symbol, point):
    """sup over spins of ||sigma(l)||_op: the exact L2 -> L2 norm."""
    return max((operator_norm(mat, tl, point)
                for tl, mat in symbol.coeffs.items()), default=0.0)


def check_bound(p, q_exp):
    """Raise ValueError unless lp_lq_bound takes p and q_exp."""
    if not 1 < p <= 2 <= q_exp < math.inf:
        raise ValueError("need 1 < p <= 2 <= q < infinity")


def lp_lq_bound(symbol, p, q_exp, twice_l_max, point):
    """sup_s s (sum_(||sigma(l)||_op >= s) d_l n_l)^(1/p - 1/q) over s > 0.

    The sup is taken over the attained positive operator norms of the
    spins l <= twice_l_max / 2 (the level set is closed at each of them);
    at p = q the exponent is 0 and the bound is the largest norm, so the
    identity symbol scores 1.  No positive norm gives 0.
    """
    check_bound(p, q_exp)
    norms = {tl: operator_norm(symbol.coeffs[tl], tl, point)
             for tl in range(twice_l_max + 1) if tl in symbol.coeffs}
    return _level_set_sup(norms, point, 1 / p - 1 / q_exp)


def schwartz_seminorms(symbol, alpha, gamma, lambda_weights, point):
    """The dual-side smoothness seminorms over the finite support.

    p_alpha = (sum d_l n_l |lambda_l|^(2 alpha) ||sigma(l)||_HS^2)^(1/2)
    q_gamma = sup |lambda_l|^gamma ||sigma(l)||_op
    """
    if alpha < 0 or gamma < 0:
        raise ValueError("seminorm orders must be nonnegative")
    p_total = 0.0
    q_total = 0.0
    for tl, mat in symbol.coeffs.items():
        lam = abs(float(evaluate(lambda_weights[tl], point)))
        hs2 = hs_norm_sq_float(mat, point)
        p_total += _dn_at(tl, point) * lam ** (2 * alpha) * hs2
        q_total = max(q_total, lam ** gamma * operator_norm(mat, tl, point))
    return {"p_alpha": math.sqrt(p_total), "q_gamma": q_total}
