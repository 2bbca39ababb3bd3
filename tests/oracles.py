"""Second routes of library computations, kept as test oracles.

The library keeps one route per computation.  The routes here are the
ones it replaced, or identities that only the tests state; each test
compares the library's route with its oracle, exactly or, for a float
route, within a stated tolerance.
"""

import math
from fractions import Fraction
from functools import lru_cache, partial

from qsu2.algebra import (
    AlgebraElement, NormalMonomial, TensorElement, _ID, _coproduct_mono,
    _haar_bc, _promote_elem, grade, haar, row_grade, star,
)
from qsu2.calculus import (
    FOUR_D, THREE_D, OneForm, _LAMBDA, _SYMBOLS, _compose, commutation_symbols,
    dirac_eigenvalues, partial_symbols,
)
from qsu2.fourier import (
    FourierArray, _THETA_BLOCK, _dn_at, fourier_transform, inverse_fourier,
    matrix_adjoint, matrix_multiply,
)
from qsu2.multiplier import (
    MultiplierError, _dense, _dress, apply_algebraic_symbol,
)
from qsu2.spectral import (
    _diff_sq, _entry_data, abs_dirac_power,
)
from qsu2.peterweyl import _index_pairs, quantum_dimension, q_weight
from qsu2.qarith import (
    QPoint, QScalar, ZERO, ONE, _UNIT, _acc, _div, _lp_gcd, _lp_quo,
    _lp_shift, _lp_trim, evaluate, is_zero, normalize_scalar, q_int, q_power,
    shifted_sum, sqrt_q_int_product,
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


def pw_expand_by_components(pw, f):
    """PWTable.pw_expand by one triangular solve per bigraded component.

    Per component (tm, tn) of f, from the degree of f down, the
    coefficient of T^l_mn is read off its top monomial, the one of
    degree 2l, and c T^l_mn is subtracted before the next spin; the
    library solves each monomial alone and sums the cached expansions.
    """
    f = _promote_elem(f)
    out = {}
    if f.is_zero():
        return out
    deg = f.degree()
    components = {}
    for mono, coeff in f.terms.items():
        key = (-row_grade(mono), -grade(mono))
        components.setdefault(key, {})[mono] = coeff
    for (tm, tn), terms in components.items():
        piece = AlgebraElement(terms)
        for tl in range(deg - (deg - tm) % 2, max(abs(tm), abs(tn)) - 1,
                        -2):
            entry = pw.entry(tl, tm, tn)
            top = max(entry.terms, key=NormalMonomial.degree)
            c = piece.coefficient(top)
            if not c.is_zero():
                c = c / entry.terms[top]
                out.setdefault(tl, {})[(tm, tn)] = c
                piece = piece - entry.scale(c)
        if not piece.is_zero():
            raise ArithmeticError("Peter-Weyl expansion left a residual")
    return out


def value_blocks_by_complex_product(grid, f, point):
    """SU2Grid.evaluate by the complex product: each theta block of the
    real profiles, cast to complex, times the complex characters, in the
    blocks of SU2Grid._value_blocks; the library multiplies the profiles
    with the characters read as interleaved (re, im) floats."""
    import numpy as np
    theta, chars = grid._factors(f, point)
    values = np.empty(grid.shape, dtype=complex)
    rows = values.reshape(len(values), -1)
    n = len(theta)
    for s in range(0, max(n - 1, 1), _THETA_BLOCK):
        e = n if s + _THETA_BLOCK >= n - 1 else s + _THETA_BLOCK
        rows[s:e] = np.matmul(theta[s:e], chars)
    return values


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


def orthogonality_violations_all_pairs(pw, twice_l_cap):
    """PWTable.orthogonality_violations over every pair of entries.

    The route the graded suite replaced: h(T*.T') and h(T.T'*) for all
    spins l, l' <= cap and all index pairs (i, j), (k, n), the pairs of
    different bidegree included, whose products h kills by grading.
    """
    bad = []
    spins = range(twice_l_cap + 1)
    for tl1 in spins:
        d = quantum_dimension(tl1)
        for tl2 in spins:
            for (ti, tj) in _index_pairs(tl1):
                ratio = pw.gauge_ratio_sq(tl1, ti, tj)
                for (tk, tn) in _index_pairs(tl2):
                    same = (tl1, ti, tj) == (tl2, tk, tn)
                    first = ratio * haar(pw.star_entry(tl1, ti, tj)
                                         * pw.entry(tl2, tk, tn))
                    second = ratio * haar(pw.entry(tl1, ti, tj)
                                          * pw.star_entry(tl2, tk, tn))
                    if first != (ONE / q_weight(ti) / d if same else ZERO):
                        bad.append(("first", tl1, ti, tj, tl2, tk, tn))
                    if second != (q_weight(tj) / d if same else ZERO):
                        bad.append(("second", tl1, ti, tj, tl2, tk, tn))
    return bad


def unitary_entry(pw, twice_l, tm, tn):
    """t^l_mn = sqrt(N_m/N_n) T^l_mn, with a QRadical coefficient: the
    unitary entry that the library never builds, since its gauge factor
    (PWTable.gauge_radical) acts on coefficient blocks."""
    ratio = pw.gauge_radical(twice_l, tm, tn)
    t = pw.entry(twice_l, tm, tn)
    return AlgebraElement({m: ratio * c for m, c in t.terms.items()})


def direct_ratio_sq(twice_k, twice_s, indices, spec, pw):
    """The exact square of a spectral.boundedness_scan ratio, from the
    full product P P*.

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
    """The square of a spectral.boundedness_scan ratio as the double sum
    over both factors' bc coefficients, for A and B given by their
    spectral._entry_data, in whatever ring these scalars come in.

    h(A B (A B)*) = sum_u sum_v a_u b_v s^v h((bc)^(u+v)), with s the
    shift of A, times diff_sq, the row weight of A and the column weight
    of B: the form before its inner sum became A's vector
    (spectral._int_entry).
    """
    if is_zero(diff_sq):
        return diff_sq
    row_weight, _, shift, aa = left
    _, column_weight, _, bb = right
    form = sum(a * b * shift ** v * haar_bc[u + v]
               for u, a in aa.items() for v, b in bb.items())
    return diff_sq * row_weight * form * column_weight


def scan_in_q(twice_cap, spec, pw, point):
    """spectral.boundedness_scan summed in Fractions.

    The same evaluated data, but each row is bilinear_ratio_sq over them,
    read as a float by Fraction.__float__, with no vector per entry and
    no int denominators.
    """
    value = partial(evaluate, point=QPoint(Fraction(point.q0)))
    entries = {}
    for tl in range(twice_cap + 1):
        for tm, tn in _index_pairs(tl):
            *weights, bc = _entry_data(pw, tl, tm, tn)
            entries[tl, tm, tn] = (*map(value, weights),
                                   {k: value(c) for k, c in bc.items()})
    haar_bc = [value(_haar_bc(k)) for k in range(2 * twice_cap + 1)]
    half = {t: Fraction(t, 2) for t in range(-twice_cap, twice_cap + 1)}
    rows = []
    for tk in range(0, twice_cap + 1):
        for ts in range(0, twice_cap + 1):
            diff_sq = value(_diff_sq(spec, tk, ts))
            for ti, tj in _index_pairs(tk):
                for tp, tr in _index_pairs(ts):
                    sq = bilinear_ratio_sq(diff_sq, entries[tk, ti, tj],
                                           entries[ts, tp, tr], haar_bc)
                    rows.append({
                        "k": half[tk], "s": half[ts],
                        "i": half[ti], "j": half[tj],
                        "p": half[tp], "r": half[tr],
                        "lambda_family": spec.family, "q": point.q0,
                        "ratio": math.sqrt(max(float(sq), 0.0)),
                    })
    return rows


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


def symbol_array(family, kind, key, twice_l_max):
    """One block family of a _SYMBOLS table as a FourierArray over the
    spins 0..twice_l_max, an empty block at a spin where it has none."""
    return FourierArray({tl: _compose(family, kind, tl).get(key, {})
                         for tl in range(twice_l_max + 1)})


def partial_action(calc, label, f):
    """partial_label f by apply_algebraic_symbol on the partial symbols.

    The per-label route that Calculus.exterior_d replaced: f is expanded
    once per label, and every T-basis block is built again on every call.
    """
    f = _promote_elem(f)
    arr = symbol_array("partial", calc.kind, label, max(f.degree(), 0))
    return apply_algebraic_symbol(arr, f, calc.pw)


def commutation_action(calc, label, f):
    """e_label . f = sum_j C(f) e_j by the commutation symbols.

    The symbol route of Calculus.right_multiply: each operator C_label^j
    acts per spin through commutation_symbols, applied to the
    Peter-Weyl coefficient blocks.
    """
    f = _promote_elem(f)
    twice_l_max, out = max(f.degree(), 0), {}
    for pair in commutation_symbols(calc.kind, 0):
        if pair[0] == label:
            arr = symbol_array("commutation", calc.kind, pair, twice_l_max)
            out[pair[1]] = apply_algebraic_symbol(arr, f, calc.pw)
    return OneForm(out)


def growth_norm_by_blocks(kind, family, name, twice_l, orientation):
    """||sigma(t^l)||_HS^2 of one growth family by the block route that
    calculus.growth_table replaced: one shifted_sum of the squares of the
    family's _compose block (every entry built, ladder roots included, and
    squared), with row weight q^(2 orientation m)."""
    block = _compose(family, kind, twice_l)[name]
    return shifted_sum([(2 * tm * orientation, v.square())
                        for (tm, _), v in block.items()])


def compose_by_ladder_builders(family, kind, tl):
    """calculus._compose by the per-ladder block builders that _ladder
    replaced: X+ built by sigma_x_plus, X- as its transpose, the X+X-
    diagonal inline and the 3D e0 diagonal x0 = (q^(-2H) - 1)/(q^2 - 1)
    (the term -q^-1 [H]_q q^-H of _SYMBOLS) as the geometric series of
    sigma_x0; identity entries and unit coefficients are not multiplied.
    """

    def sigma_x_plus(tl):
        """Raising ladder block: sqrt([l-n][l+n+1]) at (n+1, n)."""
        return {(tn + 2, tn): sqrt_q_int_product(tl - tn, tl + tn + 2)
                for tn in range(-tl, tl - 1, 2)}

    def sigma_x0(tl):
        """x0 at weight H = 2n: -(q^-2 + q^-4 + ... + q^(-4n)) for n > 0
        and 1 + q^2 + ... + q^(-4n-2) for n < 0, in descending exponent
        order; the entry at n = 0 is zero and is left out."""
        return {(tn, tn): QScalar({-4 * i: -1 for i in range(1, tn + 1)}
                                  if tn > 0 else
                                  {4 * i: 1 for i in range(-tn - 1, -1, -1)},
                                  _canonical=True)
                for tn in range(-tl, tl + 1, 2) if tn}

    table = dict(_SYMBOLS[(family, kind)])
    if (family, kind) == ("partial", THREE_D):
        table["e0"] = ((ONE, "x0", 0),)
    used = {ladder for terms in table.values() for _, ladder, _ in terms}
    weights = range(-tl, tl + 1, 2)
    ladders = {None: {(tn, tn): ONE for tn in weights}}
    if used & {"X+", "X-"}:
        ladders["X+"] = sigma_x_plus(tl)
        ladders["X-"] = matrix_adjoint(ladders["X+"])
    if "X+X-" in used:
        ladders["X+X-"] = {(tn, tn): q_int(tl + tn) * q_int(tl - tn + 2)
                           for tn in weights[1:]}
    if "x0" in used:
        ladders["x0"] = sigma_x0(tl)
    out = {}
    for label, terms in table.items():
        block = {}
        for coeff, ladder, w in terms:
            for key, v in ladders[ladder].items():
                s = coeff
                if w:
                    s = q_power(w * key[1]) if coeff is ONE \
                        else coeff * q_power(w * key[1])
                if ladder is not None:
                    s = v if s is ONE else v * s
                _acc(block, key, s)
        out[label] = block
    return out


def apply_by_transform(sigma_alg, f, pw, symbol_left):
    """multiplier._apply_blocks through the Fourier transform.

    Transform f, multiply each block by Q sigma_alg Q^-1 (on the left of
    fhat(l) if symbol_left, else on its right), invert.
    """
    fhat = fourier_transform(f, pw)
    out = {}
    for tl, mat in fhat.coeffs.items():
        if tl not in sigma_alg.coeffs:
            raise MultiplierError(
                f"symbol has no spin-{Fraction(tl, 2)} block; identity is "
                "not assumed outside the declared support")
        dressed = _dress(sigma_alg.coeffs[tl], -2, 2)   # Q sigma Q^-1
        out[tl] = (matrix_multiply(dressed, mat) if symbol_left
                   else matrix_multiply(mat, dressed))
    return inverse_fourier(FourierArray(out), pw)


def abs_dirac_by_transform(f, spec, pw, alpha=1):
    """spectral.apply_abs_dirac through the transform and its inverse."""
    return inverse_fourier(
        abs_dirac_power(fourier_transform(f, pw), alpha, spec), pw)


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


def canonicalize_by_gcd(num, den):
    """QScalar._canonicalize with the gcd taken for every pair with a
    nonconstant denominator, one-term sides included: the route before
    those whose gcd is 1 by shape skipped it."""
    num, den = _lp_trim(num), _lp_trim(den)
    if not num:
        return {}, _UNIT
    if set(den) == {0}:
        return {e: _div(v, den[0]) for e, v in num.items()}, _UNIT
    shift = -min(min(num), min(den), 0)
    n, d = _lp_shift(num, shift), _lp_shift(den, shift)
    g = _lp_gcd(n, d)
    if g != _UNIT:
        n, d = _lp_quo(n, g), _lp_quo(d, g)
    n, d = _lp_shift(n, -min(d)), _lp_shift(d, -min(d))
    lead = d[max(d)]
    return ({e: _div(c, lead) for e, c in n.items()},
            {e: _div(c, lead) for e, c in d.items()})


def hs_norm_sq_per_entry(mat, tl, orientation=+1):
    """hs_norm_sq as one q^(2m) product and one QScalar + per entry, with
    each entry squared by the general product v * v; orientation -1
    reverses the row weight to q^(-2m) and 0 drops it, as the growth
    tables read their norms."""
    total = ZERO
    for (tm, _), v in mat.items():
        total = total + q_power(2 * tm * orientation) * normalize_scalar(v * v)
    return total


def dirac_eigenvalue_error(twice_l, point):
    """The float route that calculus.geometric_dirac_eigenvalue_report
    replaced: numpy's eigenvalues of the dense spin-l block of D, divided
    by lambda, against dirac_eigenvalues at the point; the largest
    absolute difference of the two sorted lists.

    The block is S (x) I on the 2l+1 coefficient rows, with S the symbol
    block [[sigma_ea, sigma_eb], [sigma_ec, sigma_ed]] of the 4D partials.
    """
    import numpy as np
    syms = partial_symbols(FOUR_D, twice_l)
    small = np.block([[_dense(syms[name], twice_l, point) for name in row]
                      for row in (("ea", "eb"), ("ec", "ed"))])
    eigs = np.linalg.eigvals(np.kron(small, np.eye(twice_l + 1)))
    scaled = sorted((eigs / float(evaluate(_LAMBDA, point))).real.tolist())
    expected = sorted(float(evaluate(value, point))
                      for value, mult in dirac_eigenvalues(twice_l)
                      for _ in range(mult))
    return max(abs(a - b) for a, b in zip(scaled, expected))
