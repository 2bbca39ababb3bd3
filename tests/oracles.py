"""Second routes of library computations, kept as test oracles.

The library keeps one route per computation.  The routes here are the
ones it replaced, or identities that only the tests state; each test
compares the library's route with its oracle, exactly or, for a float
route, within a stated tolerance.
"""

from functools import lru_cache

from qsu2.algebra import (
    AlgebraElement, NormalMonomial, TensorElement, _ID, _coproduct_mono,
    _promote_elem, grade, haar, row_grade, star,
)
from qsu2.calculus import OneForm
from qsu2.fourier import FourierArray, _dn_at
from qsu2.multiplier import apply_algebraic_symbol
from qsu2.peterweyl import quantum_dimension, q_weight
from qsu2.qarith import (
    QScalar, ZERO, ONE, _acc, is_zero, normalize_scalar, q_power,
)


@lru_cache(maxsize=None)
def delta_bc_power(k):
    """Delta((bc)^k) as a product of k coproducts of bc."""
    if k == 0:
        return TensorElement({(_ID, _ID): ONE})
    bc = NormalMonomial("a", 0, 1, 1)
    return delta_bc_power(k - 1) * _coproduct_mono(bc)


@lru_cache(maxsize=None)
def haar_bc_by_invariance(k):
    """h((bc)^k), from invariance (h (x) id) Delta = h(.) 1, solved by degree.

    (h (x) id) Delta((bc)^k) = sum_s h_s E_s, with E_s collecting the
    second legs whose first leg is (bc)^s; the invariance identity
    sum_(s<k) h_s E_s + h_k E_k = h_k 1 determines h_k, and every
    monomial of it must give the same h_k.
    """
    if k == 0:
        return ONE
    collected = {}
    for (ml, mr), coeff in delta_bc_power(k).pairs.items():
        if ml.head_pow == 0 and ml.b_pow == ml.c_pow:
            _acc(collected.setdefault(ml.b_pow, {}), mr, coeff)
    known = AlgebraElement({})
    for s, bucket in collected.items():
        if s < k:
            known = known + AlgebraElement(bucket).scale(
                haar_bc_by_invariance(s))
    ek = AlgebraElement(collected.get(k, {}))
    lhs = AlgebraElement({_ID: ONE}) - ek      # (1 - E_k) h_k = known
    probe = next(iter(lhs.terms))
    hk = known.coefficient(probe) / lhs.coefficient(probe)
    if not (lhs.scale(hk) - known).is_zero():
        raise ArithmeticError(f"Haar invariance system inconsistent at k={k}")
    return hk


def haar_per_term(x):
    """h(x) as the sum of c_k h((bc)^k), each h((bc)^k) solved from the
    invariance system (haar_bc_by_invariance), not the closed form."""
    total = ZERO
    for mono, coeff in _promote_elem(x).terms.items():
        if mono.head_pow == 0 and mono.b_pow == mono.c_pow:
            total = total + coeff * haar_bc_by_invariance(mono.b_pow)
    return total


def pw_expand_by_projection(pw, f):
    """PWTable.pw_expand by orthogonal projection.

    Per bigraded component (tm, tn) of f, from the top spin down, the
    coefficient of T^l_mn is h(f T*) / h(T T*) (the second orthogonality
    relation), and c T^l_mn is subtracted before the next spin.
    """
    f = _promote_elem(f)
    components = {}
    for mono, coeff in f.terms.items():
        key = (-row_grade(mono), -grade(mono))
        components.setdefault(key, {})[mono] = coeff
    out = {}
    for (tm, tn), terms in components.items():
        piece = AlgebraElement(terms)
        for tl in range(f.degree(), max(abs(tm), abs(tn)) - 1, -1):
            if (tl - tm) % 2:
                continue
            t = pw.entry(tl, tm, tn)
            num = haar(piece * star(t))
            if not num.is_zero():
                c = num / haar(t * star(t))
                out.setdefault(tl, {})[(tm, tn)] = c
                piece = piece - t.scale(c)
        if not piece.is_zero():
            raise ArithmeticError("projection left a residual")
    return out


def norm_sq_by_haar(pw, twice_l):
    """PWTable.norm_sq pinned through the first column by Haar states.

    The unitary entries satisfy h(t_mn t_mn*) = q_n / d_l, so with n = -l,
    N_m = N_(-l) (q_(-l)/d_l) / h(T_(m,-l) T_(m,-l)*), and N_(-l) = 1.
    The factor q_(-l)/d_l cancels from N_m / N_(-l), which leaves the
    ratio of two grams h(T_(-l,-l) T_(-l,-l)*) / h(T_(m,-l) T_(m,-l)*).
    """
    def gram(tm):
        t = pw.entry(twice_l, tm, -twice_l)
        return haar(t * star(t))
    top = gram(-twice_l)
    return {tm: top / gram(tm) for tm in range(-twice_l, twice_l + 1, 2)}


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


def bilinear_ratio_sq(diff_sq, left, right, haar_bc):
    """spectral._ratio_sq as the double sum over both factors' bc
    coefficients, for A and B given by their spectral._entry_data.

    h(A B (A B)*) = sum_u sum_v a_u b_v s^v h((bc)^(u+v)), with s the
    shift of A, times diff_sq, the row weight of A and the column weight
    of B: the form before its inner sum became A's vector.
    """
    if is_zero(diff_sq):
        return diff_sq
    row_weight, _, shift, aa = left
    _, column_weight, _, bb = right
    form = sum(a * b * shift ** v * haar_bc[u + v]
               for u, a in aa.items() for v, b in bb.items())
    return diff_sq * row_weight * form * column_weight


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


def commutation_action(calc, label, f):
    """e_label . f = sum_j C(f) e_j by the commutation symbols.

    The symbol route of Calculus.right_multiply: each operator C_label^j
    acts per spin through calc.commutation_symbols, applied through the
    Fourier layer.
    """
    f = _promote_elem(f)
    spins = range(0, max(f.degree(), 0) + 1)
    out = {}
    for pair in calc.commutation_symbols(0):
        if pair[0] == label:
            arr = FourierArray({tl: calc.commutation_symbols(tl).get(pair, {})
                                for tl in spins})
            out[pair[1]] = apply_algebraic_symbol(arr, f, calc.pw)
    return OneForm(out)


def paley_constant_bruteforce(phi, point):
    """fourier.paley_constant as a double loop over every threshold."""
    best = 0.0
    for t in phi.values():
        total = 0.0
        for tl, v in phi.items():
            if v >= t:
                total += _dn_at(tl, point)
        best = max(best, t * total)
    return best


def pair_loop_product(p1, p2):
    """p1*p2 summed over every pair of terms, one-term factors included:
    the Laurent-polynomial product before those became exponent shifts.
    Integral coefficients come back as ints."""
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return {e: c.numerator if c.denominator == 1 else c
            for e, c in out.items()}


def hs_norm_sq_per_entry(mat, tl, orientation=+1):
    """hs_norm_sq as one q^(2m) product and one QScalar + per entry, with
    each entry squared by the general product v * v."""
    total = ZERO
    for (tm, _), v in mat.items():
        total = total + q_power(2 * tm * orientation) * normalize_scalar(v * v)
    return total
