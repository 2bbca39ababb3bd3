import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, ZERO, ONE, Q,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, NormalMonomial, TensorElement,
    coproduct, counit, haar, star, l2_inner, random_element, grade, row_grade,
)
from qsu2.peterweyl import PWTable, quantum_dimension, q_weight
from qsu2.fourier import fourier_transform
from qsu2.spectral import DiracSpec, boundedness_scan, _entry_data

from oracles import (
    norm_sq_by_haar, orthogonality_violations_all_pairs,
    pw_expand_by_projection, trace_identity_holds, unitary_entry,
)


@pytest.fixture(scope="module")
def pw():
    return PWTable(8)


def test_fundamental_is_generator_matrix(pw):
    e = pw.entries(1)
    assert e[(-1, -1)] == A
    assert e[(-1, 1)] == B
    assert e[(1, -1)] == C
    assert e[(1, 1)] == D


def test_corepresentation_law(pw):
    for tl in (1, 2, 3):
        ents = pw.entries(tl)
        for (tm, tn), t in ents.items():
            rhs = TensorElement({})
            for tk in range(-tl, tl + 1, 2):
                left, right = ents[(tm, tk)], ents[(tk, tn)]
                for ml, cl in left.terms.items():
                    for mr, cr in right.terms.items():
                        rhs = rhs + TensorElement({(ml, mr): cl * cr})
            assert coproduct(t) == rhs


def test_counit_is_identity_matrix(pw):
    for tl in (1, 2, 3):
        for (tm, tn), t in pw.entries(tl).items():
            assert counit(t) == (ONE if tm == tn else ZERO)


def test_trace_identities():
    for tl in range(0, 7):
        assert trace_identity_holds(tl)


def test_bc_square_is_a_polynomial_in_bc(pw):
    # every monomial of T^l_mn has the head power h of bc_square, and T T*
    # lies in the span of the (bc)^k
    for tl in range(0, 5):
        for (tm, tn), t in pw.entries(tl).items():
            h, tt = pw.bc_square(tl, tm, tn)
            assert {m.head_pow if m.head == "a" else -m.head_pow
                    for m in t.terms} == {h}
            assert tt == t * star(t)
            assert all(m.head_pow == 0 and m.b_pow == m.c_pow
                       for m in tt.terms)


def test_column_weight_is_the_inverse_gram(pw):
    # (N_m/N_n) h(T_mn T_mn*) = q_n/d_l is the second orthogonality
    # relation, so the column weight (N_m/N_n) d_l/q_n of the boundedness
    # scan, built from the closed-form normalizers, is 1/h(T_mn T_mn*)
    for tl in range(0, 9):
        for tm, tn in pw.entries(tl):
            tt = pw.bc_square(tl, tm, tn)[1]
            assert _entry_data(pw, tl, tm, tn)[1] == ONE / haar(tt)


def test_norm_sq_is_a_ratio_of_grams(pw):
    # the closed form N_m = 1/(2l choose l+m)_(q^2) is the Haar route's
    # N_m = h(T_(-l,-l) T_(-l,-l)*) / h(T_(m,-l) T_(m,-l)*), and so are the
    # gauge ratios N_m/N_n read from it
    for tl in range(0, 9):
        norms = norm_sq_by_haar(pw, tl)
        assert pw.norm_sq(tl) == norms
        for tm, tn in pw.entries(tl):
            assert pw.gauge_ratio_sq(tl, tm, tn) == norms[tm] / norms[tn]


def test_second_relation_on_the_diagonal_is_a_theorem(pw):
    # h(T T*) from the Haar state of bc_square's product, N_m/N_n from the
    # closed form: (N_m/N_n) h(T_mn T_mn*) = q_n/d_l is not built in anywhere
    for tl in range(0, 9):
        d = quantum_dimension(tl)
        for tm, tn in pw.entries(tl):
            assert (haar(pw.bc_square(tl, tm, tn)[1])
                    * pw.gauge_ratio_sq(tl, tm, tn) == q_weight(tn) / d)


def test_pwtable_holds_only_its_documented_caches():
    # a scan, the orthogonality suite and a Fourier transform on one
    # table leave only the caches that PWTable.__init__ names
    pw = PWTable(3)
    boundedness_scan(2, DiracSpec("q-deformed"), pw, QPoint(Fraction(1, 2)))
    assert pw.orthogonality_violations(2) == []
    fourier_transform(A * B + C, pw)
    assert sorted(k for k, v in vars(pw).items() if isinstance(v, dict)) \
        == sorted(["_entries", "_norms", "_gram", "_star_entries",
                   "_clebsch", "_clebsch_sq", "_gauge_cache", "_calculi"])


def test_quantum_dimension_values():
    assert quantum_dimension(0) == ONE
    assert quantum_dimension(1) == q_int(4)          # [2]_q
    assert quantum_dimension(2) == q_int(6)          # [3]_q


def test_orthogonality_suite_exact(pw):
    assert pw.orthogonality_violations(3) == []


def test_orthogonality_suite_takes_two_haar_states_per_graded_pair(
        pw, monkeypatch):
    # one per relation and (l, l', i, j) with l - l' an integer and
    # |i|, |j| <= min(l, l'): 280 pairs for l, l' <= 3, against 19,600
    # pairs of entries in the sweep over every pair
    from qsu2 import peterweyl
    calls = []
    monkeypatch.setattr(peterweyl, "haar",
                        lambda x, h=peterweyl.haar: calls.append(x) or h(x))
    assert pw.orthogonality_violations(6) == []
    assert len(calls) == 2 * 280


def test_entries_are_homogeneous_of_bidegree_minus_m_minus_n(pw):
    # the grading premise of the orthogonality suite and of pw_expand
    for tl in range(0, 9):
        for (tm, tn), t in pw.entries(tl).items():
            assert {(row_grade(m), grade(m)) for m in t.terms} == {(-tm, -tn)}


def _scale_entry(pw):
    mat = pw.entries(3)
    mat[(1, -1)] = mat[(1, -1)].scale(2)


def _double_normalizer(pw):
    norms = pw.norm_sq(3)
    norms[1] = norms[1] * 2


def _mix_spins(pw):
    # T^(3/2)_(1/2,-1/2) + T^(1/2)_(1/2,-1/2): one bidegree, two spins, so
    # only the pairs with l != l' see it
    mat = pw.entries(3)
    mat[(1, -1)] = mat[(1, -1)] + pw.entry(1, 1, -1)


@pytest.mark.parametrize(
    "corrupt", [None, _scale_entry, _double_normalizer, _mix_spins],
    ids=["real", "scaled-entry", "doubled-normalizer", "mixed-spins"])
def test_orthogonality_suite_matches_the_all_pairs_sweep(corrupt):
    # the graded suite skips only pairs that h kills by grading, so on a
    # table whose entries keep their bidegree it reports what the sweep
    # over every pair reports, in the same order
    pw = PWTable(3)
    if corrupt:
        corrupt(pw)
    bad = pw.orthogonality_violations(3)
    assert bad == orthogonality_violations_all_pairs(pw, 3)
    assert bool(bad) == bool(corrupt)


def test_orthogonality_suite_reports_an_entry_off_its_bidegree():
    # a monomial of the wrong bidegree breaks the diagonal relations of
    # its entry, which the graded suite still takes
    pw = PWTable(3)
    mat = pw.entries(3)
    mat[(1, -1)] = mat[(1, -1)] + A
    bad = pw.orthogonality_violations(3)
    assert bad and set(bad) <= set(orthogonality_violations_all_pairs(pw, 3))


def test_orthogonality_numeric_7_over_10(pw):
    # the same identities evaluated at the rational point q = 7/10
    point = QPoint(Fraction(7, 10))
    for tl in (1, 2):
        d = quantum_dimension(tl).evaluate(point)
        for (tm, tn), t in pw.entries(tl).items():
            val = haar(t * star(t)).evaluate(point)
            ratio = pw.gauge_ratio_sq(tl, tm, tn).evaluate(point)
            assert ratio * val == q_weight(tn).evaluate(point) / d


def test_haar_example_entry(pw):
    # h(t^(1/2)_11 (t^(1/2)_11)*) == q/[2]_q
    assert haar(A * star(A)) == Q / q_int(4)


def test_pw_expand_roundtrip(pw):
    rng = random.Random(20)
    for _ in range(25):
        f = random_element(rng, max_degree=3, n_terms=4)
        assert pw.reconstruct(pw.pw_expand(f)) == f


def test_each_entry_has_one_top_monomial(pw):
    # T^l_mn is the one entry of its bigraded component with a monomial of
    # degree 2l, the triangularity pw_expand reads its coefficients from
    for tl in range(0, 7):
        for (tm, tn), t in pw.entries(tl).items():
            assert t.degree() == tl
            assert len([m for m in t.terms if m.degree() == tl]) == 1
            assert pw.pw_expand(t) == {tl: {(tm, tn): ONE}}


@st.composite
def elements_up_to_degree_6(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        head = draw(st.sampled_from("ad"))
        hp = draw(st.integers(1 if head == "d" else 0, 6))
        j = draw(st.integers(0, 6 - hp))
        k = draw(st.integers(0, 6 - hp - j))
        coeff = draw(st.sampled_from([-3, -1, 1, 2])) * q_power(
            draw(st.integers(-3, 3)))
        terms[NormalMonomial(head, hp, j, k)] = coeff
    return AlgebraElement(terms)


@settings(max_examples=60, deadline=None)
@given(elements_up_to_degree_6())
def test_pw_expand_matches_the_projection_oracle(pw, f):
    # top monomials against h(f T*)/h(T T*), coefficient by coefficient
    got = pw.pw_expand(f)
    assert got == pw_expand_by_projection(pw, f)
    assert all(isinstance(c, QScalar)
               for mat in got.values() for c in mat.values())


def test_unitary_entries_normalized(pw):
    # h(t_mn t_mn*) == q_n/d_l for the radical-normalized entries
    for tl in (1, 2):
        d = quantum_dimension(tl)
        for (tm, tn) in [(-tl, -tl), (0, tl) if tl % 2 == 0 else (-tl, tl)]:
            u = unitary_entry(pw, tl, tm, tn)
            val = haar(u * star(u))
            if isinstance(val, QRadical):
                val = val.as_scalar()
            assert val == q_weight(tn) / d


def test_clebsch_trivial_spin_zero(pw):
    cc = pw.clebsch_coefficients(0, 0)
    assert set(cc) == {(0, 0, 0, 0, 0, 0, 0)}
    val = cc[(0, 0, 0, 0, 0, 0, 0)]
    assert val == ONE or val == QRadical.promote(ONE)


def test_clebsch_reconstruction_exact(pw):
    # product-decomposition reconstruction residual exactly zero, k, s <= 1
    for tk, ts in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        cc = pw.clebsch_coefficients(tk, ts)
        for (ti, tj) in [(-tk, -tk), (tk, -tk) if tk else (0, 0)]:
            for (tp, tr) in [(-ts, ts) if ts else (0, 0)]:
                prod = pw.entry(tk, ti, tj) * pw.entry(ts, tp, tr)
                # transport the product to the unitary basis and compare
                lhs_scale = (pw.gauge_ratio_sq(tk, ti, tj)
                             * pw.gauge_ratio_sq(ts, tp, tr))
                rec = AlgebraElement({})
                for (i2, j2, p2, r2, tm, tu, tt), cval in cc.items():
                    if (i2, j2, p2, r2) != (ti, tj, tp, tr):
                        continue
                    u = unitary_entry(pw, tm, tu, tt)
                    for mono, coeff in u.terms.items():
                        rec = rec + AlgebraElement({mono: cval * coeff})
                # rec == sqrt(lhs_scale) * prod: compare squared-free via
                # multiplying prod by the radical gauge factor
                from qsu2.qarith import sqrt_scalar
                gauge = sqrt_scalar(lhs_scale)
                want = AlgebraElement(
                    {m: gauge * c for m, c in prod.terms.items()})
                assert rec == want


def test_clebsch_reconstruction_full_sweep_spin_half(pw):
    # every product of two fundamental entries reconstructs exactly from
    # the normalized coefficients (radical arithmetic collapses cleanly)
    from qsu2.qarith import sqrt_scalar
    cc = pw.clebsch_coefficients(1, 1)
    for ti in (-1, 1):
        for tj in (-1, 1):
            for tp in (-1, 1):
                for tr in (-1, 1):
                    prod = pw.entry(1, ti, tj) * pw.entry(1, tp, tr)
                    gauge = sqrt_scalar(pw.gauge_ratio_sq(1, ti, tj)
                                        * pw.gauge_ratio_sq(1, tp, tr))
                    want = AlgebraElement(
                        {m: gauge * c for m, c in prod.terms.items()})
                    rec = AlgebraElement({})
                    for (i2, j2, p2, r2, tm, tu, tt), cval in cc.items():
                        if (i2, j2, p2, r2) != (ti, tj, tp, tr):
                            continue
                        u = unitary_entry(pw, tm, tu, tt)
                        for mono, coeff in u.terms.items():
                            rec = rec + AlgebraElement({mono: cval * coeff})
                    assert rec == want, (ti, tj, tp, tr)


def test_clebsch_weight_conservation(pw):
    cc = pw.clebsch_coefficients(1, 1)
    for (ti, tj, tp, tr, tm, tu, tt) in cc:
        assert tu == ti + tp and tt == tj + tr


def test_clebsch_spin_support(pw):
    # products of two spin-1/2 entries live in spins {0, 1} only
    cc = pw.clebsch_coefficients(1, 1)
    assert set(k[4] for k in cc) <= {0, 2}


def test_clebsch_m0_matches_haar(pw):
    # the m=0 coefficient of a*d is h(ad): both sides through haar
    cc = pw.clebsch_coefficients(1, 1)
    key = (-1, -1, 1, 1, 0, 0, 0)
    val = cc.get(key)
    assert val is not None
    want = haar(A * D)  # = (t^0, a d) since t^0 = 1 and ||1|| = 1
    got = val.as_scalar() if isinstance(val, QRadical) else val
    assert got == want


def test_spin_cap_enforced():
    small = PWTable(2)
    with pytest.raises(ValueError):
        small.entries(4)
    with pytest.raises(ValueError):
        small.clebsch_coefficients(2, 2)
