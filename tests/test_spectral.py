import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, ZERO, ONE, Q, evaluate,
    sqrt_scalar,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, haar, star, l2_inner, random_element,
    _haar_bc,
)
from qsu2.peterweyl import PWTable, quantum_dimension, q_weight, _index_pairs
from qsu2.fourier import (
    FourierArray, fourier_transform, inverse_fourier, hs_norm_sq,
    hs_norm_sq_float, dual_lp_norm,
)
from qsu2.multiplier import apply_symbol, operator_norm
from qsu2.spectral import (
    DiracSpec, SummabilityReport, summability_classify, abs_dirac_power, apply_abs_dirac,
    commutator_apply, boundedness_scan, _diff_sq, _entry_data, _int_entry,
    _int_ratio_sq,
)

from oracles import (
    abs_dirac_by_transform, bilinear_ratio_sq, direct_ratio_sq, scan_in_q,
    unitary_entry,
)


@pytest.fixture(scope="module")
def pw():
    return PWTable(8)


CLASSICAL = DiracSpec("classical")
QDEFORMED = DiracSpec("q-deformed")
HALF = QPoint(Fraction(1, 2))
ONE_PT = QPoint(1)


# -- spec basics ---------------------------------------------------------------

def test_eigenvalues():
    assert CLASSICAL.abs_eigenvalue(2) == QScalar.promote(3)
    assert QDEFORMED.abs_eigenvalue(2) == q_int(6)
    tab = DiracSpec("table", table={0: ONE, 2: Q})
    assert tab.abs_eigenvalue(2) == Q
    with pytest.raises(KeyError):
        tab.abs_eigenvalue(4)
    with pytest.raises(ValueError):
        DiracSpec("table")
    with pytest.raises(ValueError):
        DiracSpec("weird")


def test_table_specs_compare_their_tables():
    # two tables with different eigenvalues are different operators;
    # equal specs still hash equal, the table being left out of the hash
    one = DiracSpec("table", table={0: ONE})
    q = DiracSpec("table", table={0: Q})
    assert one.abs_eigenvalue(0) != q.abs_eigenvalue(0)
    assert one != q
    assert one == DiracSpec("table", table={0: ONE})
    assert hash(one) == hash(DiracSpec("table", table={0: ONE}))


def test_spec_is_a_read_only_value():
    assert repr(CLASSICAL) == "DiracSpec(family='classical', table=None)"
    assert repr(DiracSpec("table", table={0: 1})) == \
        "DiracSpec(family='table', table={0: 1})"
    assert DiracSpec() == CLASSICAL != QDEFORMED
    assert CLASSICAL != "classical"
    for change in (lambda: setattr(CLASSICAL, "family", "q-deformed"),
                   lambda: setattr(CLASSICAL, "extra", 1),
                   lambda: delattr(CLASSICAL, "table")):
        with pytest.raises(AttributeError):
            change()
    assert (CLASSICAL.family, CLASSICAL.table) == ("classical", None)
    # the hash leaves the table out, so unhashable tables are allowed
    assert hash(DiracSpec("table", table={0: ONE})) == \
        hash(DiracSpec("table", table={0: Q})) == hash(("table",))
    assert len({CLASSICAL, DiracSpec("classical"), QDEFORMED}) == 2
    tab = DiracSpec("table", table={0: ONE, 2: Q})
    assert copy.deepcopy(tab) == pickle.loads(pickle.dumps(tab)) == tab


def test_summability_report_fields():
    assert SummabilityReport._fields == (
        "spectral_dimension", "plain_multiplicity_dimension", "evidence",
        "reasoning")
    rep = summability_classify(QDEFORMED, HALF)
    dim, alt, evidence, why = rep
    assert (dim, alt) == (1.0, 0.0)
    assert evidence is rep.evidence and why is rep.reasoning


# -- summability ------------------------------------------------------------------

def test_classical_at_q1_dimension_3():
    rep = summability_classify(CLASSICAL, ONE_PT)
    assert rep.spectral_dimension == 3.0


def test_qdeformed_at_half_dimension_1():
    rep = summability_classify(QDEFORMED, HALF)
    assert rep.spectral_dimension == 1.0


def test_classical_at_half_not_summable():
    rep = summability_classify(CLASSICAL, HALF)
    assert rep.spectral_dimension is None
    # the plain-multiplicity convention keeps the classical value 3
    assert rep.plain_multiplicity_dimension == 3.0


def test_qdeformed_at_q1_collapses_to_classical():
    rep = summability_classify(QDEFORMED, ONE_PT)
    assert rep.spectral_dimension == 3.0


def test_table_family_rejected():
    with pytest.raises(ValueError):
        summability_classify(DiracSpec("table", table={0: ONE}), HALF)


def test_evidence_rows_emitted():
    rep = summability_classify(QDEFORMED, HALF)
    assert rep.evidence and all(len(row) == 3 for row in rep.evidence)


# -- |D|^alpha ---------------------------------------------------------------------

def test_power_zero_is_identity(pw):
    F = fourier_transform(A * B, pw)
    assert abs_dirac_power(F, 0, CLASSICAL) == F


def test_power_scales_by_three_at_spin_one(pw):
    t = pw.entry(2, 0, 0)
    scaled = apply_abs_dirac(t, CLASSICAL, pw)
    assert scaled == t.scale(3)


def test_power_semigroup_exact_for_half_integers(pw):
    F = fourier_transform(A + B.scale(2), pw)
    for spec in (CLASSICAL, QDEFORMED):
        one_then_one = abs_dirac_power(abs_dirac_power(F, 1, spec), 1, spec)
        assert one_then_one == abs_dirac_power(F, 2, spec)
        half_then_half = abs_dirac_power(
            abs_dirac_power(F, Fraction(1, 2), spec), Fraction(1, 2), spec)
        assert half_then_half == abs_dirac_power(F, 1, spec)
        mixed = abs_dirac_power(
            abs_dirac_power(F, Fraction(3, 2), spec), Fraction(1, 2), spec)
        assert mixed == abs_dirac_power(F, 2, spec)


def test_float_power_needs_point(pw):
    F = fourier_transform(A, pw)
    with pytest.raises(ValueError):
        abs_dirac_power(F, 0.37, CLASSICAL)
    out = abs_dirac_power(F, 0.37, CLASSICAL, HALF)
    assert isinstance(next(iter(out.coeffs[1].values())), float)


def test_float_entries_reach_only_the_float_norms(pw):
    # a numeric power gives float entries: the exact operations refuse
    # them, the float norms read them (|lambda| = 2 at spin 1/2)
    F = fourier_transform(A + B.scale(2), pw)
    out = abs_dirac_power(F, 0.37, CLASSICAL, HALF)
    with pytest.raises(TypeError):
        inverse_fourier(out, pw)
    with pytest.raises(TypeError):
        apply_symbol(out, A, pw)
    with pytest.raises(TypeError):
        hs_norm_sq(out.matrix(1), 1)
    scale = 2 ** 0.37
    assert dual_lp_norm(out, 2, HALF) == pytest.approx(
        scale * dual_lp_norm(F, 2, HALF), rel=1e-12)
    assert hs_norm_sq_float(out.matrix(1), HALF) == pytest.approx(
        scale ** 2 * hs_norm_sq_float(F.matrix(1), HALF), rel=1e-12)
    assert operator_norm(out.matrix(1), 1, HALF) == pytest.approx(
        scale * operator_norm(F.matrix(1), 1, HALF), rel=1e-12)


def test_abs_dirac_on_blocks_matches_the_transform_route(pw):
    # |D|^alpha and the commutator on the coefficient blocks equal the
    # transform route, coefficient types included
    def typed(x):
        return {mono: (type(c), c) for mono, c in x.terms.items()}

    rng = random.Random(29)
    for spec in (CLASSICAL, QDEFORMED):
        for _ in range(3):
            a, f = random_element(rng, 1, 2), random_element(rng, 2, 4)
            for alpha in (1, 2, Fraction(1, 2)):
                assert typed(apply_abs_dirac(f, spec, pw, alpha)) == typed(
                    abs_dirac_by_transform(f, spec, pw, alpha))
            assert typed(commutator_apply(a, f, spec, pw)) == typed(
                abs_dirac_by_transform(a * f, spec, pw)
                - a * abs_dirac_by_transform(f, spec, pw))
    for route in (apply_abs_dirac, abs_dirac_by_transform):
        with pytest.raises(ValueError, match="numeric"):
            route(A, CLASSICAL, pw, 0.37)


def test_smooth_seminorm_composition(pw):
    # || |D|^alpha phi ||_L2 through Plancherel == dual 2-norm of the
    # alpha-scaled transform
    from qsu2.fourier import dual_lp_norm
    rng = random.Random(31)
    f = random_element(rng, 2, 3)
    F = fourier_transform(f, pw)
    lhs = dual_lp_norm(abs_dirac_power(F, 2, CLASSICAL), 2, HALF)
    g = apply_abs_dirac(apply_abs_dirac(f, CLASSICAL, pw), CLASSICAL, pw)
    want = math.sqrt(float(evaluate(haar(g * star(g)), HALF)))
    assert lhs == pytest.approx(want, rel=1e-12)


# -- commutators -------------------------------------------------------------------

def test_commutator_with_scalar_vanishes(pw):
    rng = random.Random(32)
    for _ in range(5):
        b = random_element(rng, 3, 3)
        assert commutator_apply(UNIT, b, CLASSICAL, pw).is_zero()
        assert commutator_apply(UNIT, b, QDEFORMED, pw).is_zero()


def test_commutator_linearity_in_b(pw):
    rng = random.Random(33)
    a = random_element(rng, 2, 2)
    b1 = random_element(rng, 2, 2)
    b2 = random_element(rng, 2, 2)
    lhs = commutator_apply(a, b1 + b2.scale(Q), CLASSICAL, pw)
    rhs = (commutator_apply(a, b1, CLASSICAL, pw)
           + commutator_apply(a, b2, CLASSICAL, pw).scale(Q))
    assert lhs == rhs


def _expansion_norm_sq(a_mono, b_mono, tk, ts, spec, pw):
    """sum_m sum_(u,t) (|lam_m| - |lam_s|)^2 |C|^2 q_t/d_m for the product
    of two unitary entries; the exact transform-side route to the
    commutator's squared L2 norm."""
    total = ZERO
    csq = pw.clebsch_squared(tk, ts)
    (ti, tj), (tp, tr) = a_mono, b_mono
    lam_s = spec.abs_eigenvalue(ts)
    for (i2, j2, p2, r2, tm, tu, tt), c2 in csq.items():
        if (i2, j2, p2, r2) != (ti, tj, tp, tr):
            continue
        diff = spec.abs_eigenvalue(tm) - lam_s
        total = total + diff * diff * c2 * q_weight(tt) / quantum_dimension(tm)
    return total


@pytest.mark.parametrize("spec", [CLASSICAL, QDEFORMED])
def test_commutator_norm_matches_expansion(pw, spec):
    # || d(t^k_ij) t^s_pq ||^2 computed directly equals the product-
    # decomposition expansion, exactly, for k, s <= 1
    for tk in (1, 2):
        for ts in (1, 2):
            pairs_k = [(-tk, -tk), (-tk, tk) if tk else (0, 0)]
            pairs_s = [(ts, -ts) if ts else (0, 0), (ts, ts)]
            for (ti, tj) in pairs_k:
                for (tp, tr) in pairs_s:
                    aa = unitary_entry(pw, tk, ti, tj)
                    bb = unitary_entry(pw, ts, tp, tr)
                    direct = commutator_apply(aa, bb, spec, pw)
                    val = haar(direct * star(direct))
                    if isinstance(val, QRadical):
                        val = val.as_scalar()
                    want = _expansion_norm_sq(
                        (ti, tj), (tp, tr), tk, ts, spec, pw)
                    assert val == want


def test_factorwise_norm_identity(pw):
    # ||(|D|a) b - a (|D| b)||^2 == (lam_k - lam_s)^2 ||ab||^2 exactly
    spec = QDEFORMED
    tk, ts = 2, 1
    aa = unitary_entry(pw, tk, 0, 2)
    bb = unitary_entry(pw, ts, -1, 1)
    lam_k, lam_s = spec.abs_eigenvalue(tk), spec.abs_eigenvalue(ts)
    lhs_elem = (apply_abs_dirac(aa, spec, pw) * bb
                - aa * apply_abs_dirac(bb, spec, pw))
    lhs = haar(lhs_elem * star(lhs_elem))
    prod = aa * bb
    rhs = (lam_k - lam_s) ** 2 * haar(prod * star(prod))
    if isinstance(lhs, QRadical):
        lhs = lhs.as_scalar()
    if isinstance(rhs, QRadical):
        rhs = rhs.as_scalar()
    assert lhs == rhs


# -- boundedness-condition ratios --------------------------------------------

def test_ratio_vanishes_on_equal_spins(pw):
    for spec in (CLASSICAL, QDEFORMED):
        rows = [row for row in boundedness_scan(3, spec, pw, HALF)
                if row["k"] == row["s"]]
        assert len(rows) == 1 + 16 + 81 + 256
        assert all(row["ratio"] == 0.0 for row in rows)


def test_ratio_spin_zero_case(pw):
    # products with spin 0 are trivial: t^k_ij * 1 = t^k_ij, so the ratio
    # closes through the orthogonality data alone:
    #   ratio^2 = |lam_k - lam_0|^2 * (q_j / d_k) / (q_0 / d_0)
    for spec in (CLASSICAL, QDEFORMED):
        rows = [row for row in boundedness_scan(3, spec, pw, HALF)
                if row["s"] == 0]
        assert len(rows) == 1 + 4 + 9 + 16
        for row in rows:
            tk, tj = int(2 * row["k"]), int(2 * row["j"])
            diff = spec.abs_eigenvalue(tk) - spec.abs_eigenvalue(0)
            want = diff * diff * q_weight(tj) / quantum_dimension(tk)
            assert row["ratio"] == math.sqrt(float(evaluate(want, HALF))), row


def test_ratio_finite_and_scan_rows(pw):
    rows = boundedness_scan(3, QDEFORMED, pw, HALF)
    assert rows
    assert all(math.isfinite(r["ratio"]) for r in rows)
    # spot check one value against the full product
    row = rows[5]
    sq = direct_ratio_sq(
        int(2 * row["k"]), int(2 * row["s"]),
        (int(2 * row["i"]), int(2 * row["j"]),
         int(2 * row["p"]), int(2 * row["r"])), QDEFORMED, pw)
    assert math.sqrt(float(evaluate(sq, HALF))) == row["ratio"]


@pytest.mark.parametrize("spec", [CLASSICAL, QDEFORMED],
                         ids=["classical", "q-deformed"])
def test_boundedness_ratio_matches_clebsch_expansion(pw, spec):
    # the full product P P* equals the Clebsch-expansion route
    #   diff^2 sum_m sum_(u,t) |C^{ksm}|^2 q_t/d_m / (q_r/d_s)
    # exactly, for every k, s <= 1 and every index tuple
    for tk in range(0, 3):
        for ts in range(0, 3):
            lam_diff = spec.abs_eigenvalue(tk) - spec.abs_eigenvalue(ts)
            want = {}
            for (ti, tj, tp, tr, tm, tu, tt), c2 in \
                    pw.clebsch_squared(tk, ts).items():
                key = (ti, tj, tp, tr)
                want[key] = want.get(key, ZERO) \
                    + c2 * q_weight(tt) / quantum_dimension(tm)
            assert len(want) == ((tk + 1) * (ts + 1)) ** 2
            for (ti, tj, tp, tr), total in want.items():
                got = direct_ratio_sq(tk, ts, (ti, tj, tp, tr), spec, pw)
                expected = (lam_diff * lam_diff * total
                            * quantum_dimension(ts) / q_weight(tr))
                assert got == expected, (tk, ts, ti, tj, tp, tr)
                assert (got.num, got.den) == (expected.num, expected.den)


@pytest.mark.parametrize("spec", [CLASSICAL, QDEFORMED],
                         ids=["classical", "q-deformed"])
def test_factored_ratio_matches_the_direct_route(pw, spec):
    # the bilinear form over the two factors' exact _entry_data against
    # the full product P P*, for every k, s <= 1 and every index tuple
    haar_bc = [_haar_bc(k) for k in range(5)]
    for tk in range(0, 3):
        for ts in range(0, 3):
            diff_sq = _diff_sq(spec, tk, ts)
            for ti, tj in _index_pairs(tk):
                for tp, tr in _index_pairs(ts):
                    indices = (ti, tj, tp, tr)
                    got = bilinear_ratio_sq(
                        diff_sq, _entry_data(pw, tk, ti, tj),
                        _entry_data(pw, ts, tp, tr), haar_bc)
                    want = direct_ratio_sq(tk, ts, indices, spec, pw)
                    assert (got.num, got.den) == (want.num, want.den), \
                        (tk, ts, indices)


def test_scan_matches_the_direct_route_on_every_row(pw):
    # all 900 q-deformed rows at cap 3/2 against the exact square of each
    rows = boundedness_scan(3, QDEFORMED, pw, HALF)
    assert len(rows) == 900
    for row in rows:
        tk, ts, *indices = (int(2 * row[x]) for x in "ksijpr")
        want = direct_ratio_sq(tk, ts, tuple(indices), QDEFORMED, pw)
        assert row["ratio"] == math.sqrt(max(float(evaluate(want, HALF)),
                                             0.0))


@pytest.mark.parametrize("q0", [Fraction(3, 10), Fraction(2)],
                         ids=["q0=0.3", "q0=2"])
def test_scan_matches_the_direct_route_away_from_one_half(pw, q0):
    # the scan sums in Q at q0; the exact square of each row, evaluated
    # at q0, gives the same float
    point = QPoint(q0)
    for spec in (CLASSICAL, QDEFORMED):
        for row in boundedness_scan(2, spec, pw, point):
            tk, ts, *indices = (int(2 * row[x]) for x in "ksijpr")
            want = direct_ratio_sq(tk, ts, tuple(indices), spec, pw)
            assert row["ratio"] == math.sqrt(max(float(evaluate(want, point)),
                                                 0.0)), row


_coeff = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _ratio_inputs(draw):
    """diff_sq (zero at times), two factors as _entry_data gives them, a
    haar_bc list long enough for their bc degrees and a vector length."""
    diff_sq = draw(st.one_of(st.just(Fraction(0)), _coeff))
    left, right = (
        (draw(_coeff), draw(_coeff), draw(_coeff),
         draw(st.dictionaries(st.integers(0, 4), _coeff, min_size=1,
                              max_size=4)))
        for _ in range(2))
    top = max(right[3]) + draw(st.integers(0, 2))
    haar_bc = draw(st.lists(_coeff, min_size=max(left[3]) + top + 1,
                            max_size=max(left[3]) + top + 1))
    return diff_sq, left, right, haar_bc, top


@settings(max_examples=200, deadline=None)
@given(_ratio_inputs())
def test_vector_route_matches_the_bilinear_oracle_in_q(data):
    # the scan's integer kernel: an unreduced n/d equal to the double sum
    # in Q, and the same float from its one int division
    diff_sq, left, right, haar_bc, top = data
    n, d = _int_ratio_sq((diff_sq.numerator, diff_sq.denominator),
                         _int_entry(left, haar_bc, top)[0],
                         _int_entry(right, haar_bc, top)[1])
    want = bilinear_ratio_sq(diff_sq, left, right, haar_bc)
    assert d > 0 and Fraction(n, d) == want
    assert n / d == float(want)


@pytest.mark.parametrize("point", [
    QPoint(Fraction(1, 2)), QPoint(Fraction(7, 10)), QPoint(Fraction(2)),
    QPoint(Fraction(3)), QPoint(0.7)], ids=["1/2", "7/10", "2", "3", "0.7"])
def test_scan_rows_equal_the_fraction_oracle(pw, point):
    # the integer row loop against the same rows summed in Fractions, as
    # Python values: labels, types and the float's repr
    for spec in (CLASSICAL, QDEFORMED):
        for cap in range(1, 5):
            got = boundedness_scan(cap, spec, pw, point)
            want = scan_in_q(cap, spec, pw, point)
            assert [[(k, type(v)) for k, v in row.items()] for row in got] \
                == [[(k, type(v)) for k, v in row.items()] for row in want]
            assert [repr(row["ratio"]) for row in got] \
                == [repr(row["ratio"]) for row in want]
            assert got == want


@pytest.mark.parametrize("q0", [Fraction(1, 10 ** 300), Fraction(10 ** 300)],
                         ids=["q0=1e-300", "q0=1e300"])
def test_scan_past_the_float_range_raises_overflow(pw, q0):
    # a ratio past the float range fails in the int division, with the
    # message of Fraction.__float__, which the CLI reports as a usage error
    for spec in (CLASSICAL, QDEFORMED):
        with pytest.raises(OverflowError, match="^integer division result "
                           "too large for a float$"):
            boundedness_scan(2, spec, pw, QPoint(q0))


def test_scan_reads_a_float_diff_sq_as_the_ratio_it_equals(pw):
    # eigenvalues q^(1/2), q and q^2: (lam_k - lam_s)^2 has odd powers of
    # q^(1/2), so at q0 = 7/10 it evaluates to a float
    spec = DiracSpec("table", {0: q_power(1), 1: q_power(2), 2: q_power(4)})
    point = QPoint(Fraction(7, 10))
    assert type(evaluate(_diff_sq(spec, 0, 1), point)) is float
    rows = boundedness_scan(2, spec, pw, point)
    assert len(rows) == 196
    for row in rows:
        tk, ts, *indices = (int(2 * row[x]) for x in "ksijpr")
        exact = direct_ratio_sq(tk, ts, tuple(indices), spec, pw)
        want = math.sqrt(max(float(evaluate(exact, point)), 0.0))
        assert row["ratio"] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_scan_reads_a_float_q0_exactly(pw):
    # a float q0 is read as the Fraction it equals, so the ratios at
    # QPoint(0.5) are those at QPoint(1/2), not a float evaluation
    for spec in (CLASSICAL, QDEFORMED):
        exact = boundedness_scan(3, spec, pw, HALF)
        floating = boundedness_scan(3, spec, pw, QPoint(0.5))
        assert [r["ratio"] for r in floating] == [r["ratio"] for r in exact]


def test_scan_scalars_evaluate_to_rationals(pw):
    # the scan's premise: every scalar it evaluates has only even powers
    # of q^(1/2), so at a rational q0 each is a Fraction and the rows can
    # be summed in Q
    scalars = [_haar_bc(k) for k in range(9)]
    scalars += [_diff_sq(spec, tk, ts) for spec in (CLASSICAL, QDEFORMED)
                for tk in range(5) for ts in range(5)]
    for tl in range(5):
        for tm, tn in _index_pairs(tl):
            row, column, shift, bc = _entry_data(pw, tl, tm, tn)
            scalars += [row, column, shift, *bc.values()]
    assert len(scalars) == 379
    for q0 in (Fraction(3, 10), Fraction(7, 10), Fraction(2)):
        point = QPoint(q0)
        assert all(type(evaluate(x, point)) is Fraction for x in scalars)


def test_scan_builds_no_clebsch(monkeypatch):
    calls = {"clebsch_coefficients": 0, "pw_expand": 0}
    for name in calls:
        original = getattr(PWTable, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(PWTable, name, counted)
    rows = boundedness_scan(2, QDEFORMED, PWTable(4), HALF)
    assert len(rows) == (1 + 4 + 9) ** 2
    assert calls == {"clebsch_coefficients": 0, "pw_expand": 0}


def test_classical_scan_bounded_at_desk_scale(pw):
    # the classical family's ratios stay below a fixed constant over the
    # scanned range at q in {1/2, 4/5}; reported, not asserted as a theorem
    for q0 in (Fraction(1, 2), Fraction(4, 5)):
        rows = boundedness_scan(3, CLASSICAL, pw, QPoint(q0))
        sup = max(r["ratio"] for r in rows)
        assert sup < 25.0
