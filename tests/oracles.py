"""Second routes of library computations, kept as test oracles.

The library keeps one route per computation.  The routes here are the
ones it replaced, or identities that only the tests state; each test
compares the library's route with its oracle exactly.
"""

from qsu2.algebra import _haar_bc, _promote_elem, star
from qsu2.peterweyl import quantum_dimension, q_weight
from qsu2.qarith import QScalar, ZERO, ONE


def haar_per_term(x):
    """h(x) as the sum of c_k h((bc)^k), each term reduced on its own."""
    total = ZERO
    for mono, coeff in _promote_elem(x).terms.items():
        if mono.head_pow == 0 and mono.b_pow == mono.c_pow:
            total = total + coeff * _haar_bc(mono.b_pow)
    return total


def direct_ratio_sq(twice_k, twice_s, indices, spec, pw):
    """spectral.boundedness_ratio_sq from the full product P P*.

    P = T^k_ij T^s_pr is multiplied out, h(P P*) is summed per term, and
    the five weights |lam_k - lam_s|^2, N^k_i/N^k_j, N^s_p/N^s_r, d_s and
    1/q_r are multiplied in one at a time.
    """
    ti, tj, tp, tr = indices
    diff_sq = (spec.abs_eigenvalue(twice_k)
               - spec.abs_eigenvalue(twice_s)).square()
    if diff_sq.is_zero():
        return ZERO
    norms_k, norms_s = pw.norm_sq(twice_k), pw.norm_sq(twice_s)
    prod = pw.entry(twice_k, ti, tj) * pw.entry(twice_s, tp, tr)
    return (diff_sq * haar_per_term(prod * star(prod))
            * (norms_k[ti] / norms_k[tj]) * (norms_s[tp] / norms_s[tr])
            * quantum_dimension(twice_s) / q_weight(tr))


def subs_q_inverse(x):
    """The image of a QScalar under the field automorphism q -> 1/q."""
    return QScalar({-e: c for e, c in x.num.items()},
                   {-e: c for e, c in x.den.items()})


def trace_identity_holds(twice_l):
    """Tr Q^l == Tr (Q^l)^(-1) == d_l, exactly."""
    weights = [q_weight(tw) for tw in range(-twice_l, twice_l + 1, 2)]
    d = quantum_dimension(twice_l)
    return (sum(weights, ZERO) == d
            and sum((ONE / w for w in weights), ZERO) == d)
