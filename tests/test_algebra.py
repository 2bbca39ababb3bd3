import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import (
    QScalar, QPoint, q_int, q_power, sqrt_scalar, ZERO, ONE, Q, _acc,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, NormalMonomial, TensorElement,
    multiply, coproduct, counit, antipode, star, grade, row_grade,
    haar, l2_inner, peel, random_element, _haar_bc,
)
from qsu2.peterweyl import PWTable

from oracles import haar_bc_by_invariance, haar_per_term, unitary_entry


@st.composite
def monomials(draw, max_degree=4):
    head = draw(st.sampled_from("ad"))
    hp = draw(st.integers(0, max_degree))
    if head == "d" and hp == 0:
        head = "a"
    rest = max_degree - hp
    j = draw(st.integers(0, rest))
    k = draw(st.integers(0, rest - j))
    return NormalMonomial(head, hp, j, k)


def tensor_of(x):
    return coproduct(x)


def mult_tensor(t, left_op=None, right_op=None):
    """m((L (x) R) t) as an AlgebraElement."""
    out = {}
    for (ml, mr), coeff in t.pairs.items():
        le = AlgebraElement({ml: ONE})
        re = AlgebraElement({mr: ONE})
        if left_op:
            le = left_op(le)
        if right_op:
            re = right_op(re)
        for mono, c in (le * re).terms.items():
            _acc(out, mono, c * coeff)
    return AlgebraElement(out)


# -- defining relations ------------------------------------------------------

def test_relations():
    assert B * A == (A * B).scale(Q)
    assert C * A == (A * C).scale(Q)
    assert D * B == (B * D).scale(Q)
    assert D * C == (C * D).scale(Q)
    assert B * C == C * B
    assert A * D - (B * C).scale(1 / Q) == UNIT
    assert D * A - (B * C).scale(Q) == UNIT


def test_multiply_examples():
    # ba = q ab; unit law; ad in normal form through the determinant relation
    assert multiply(B, A) == (A * B).scale(Q)
    x = random_element(random.Random(1), 3, 4)
    assert multiply(UNIT, x) == x
    assert multiply(A, D) == UNIT + (B * C).scale(1 / Q)
    # a scalar factor on either side scales; a float is no scalar
    assert 2 * A == A * 2 == A + A
    assert A * Fraction(1, 2) == A.scale(QScalar.promote(Fraction(1, 2)))
    for bad in (0.5, None):
        with pytest.raises(TypeError):
            bad * A
        with pytest.raises(TypeError):
            A * bad


@pytest.mark.parametrize(
    "scalar", [q_power(2), sqrt_scalar(q_int(4)), ZERO, 2, True, False,
               Fraction(1, 2)],
    ids=["QScalar", "QRadical", "ZERO", "int", "True", "False", "Fraction"])
def test_exact_scalar_on_the_left_of_an_element(scalar):
    # the scalar's operators hand an AlgebraElement over to its reflected ones
    x = A + B * C
    assert scalar * x == x * scalar == x.scale(scalar)
    assert x * scalar == x * AlgebraElement.scalar(scalar)
    assert scalar + x == x + scalar
    assert scalar - x == -(x - scalar)


def test_element_coefficients_are_promoted_or_refused():
    a, b = NormalMonomial("a", 1, 0, 0), NormalMonomial("a", 0, 1, 0)
    r = sqrt_scalar(q_int(6))
    got = AlgebraElement({a: 2, b: Fraction(0)}).terms
    assert got == {a: QScalar.promote(2)} and type(got[a]) is QScalar
    got = AlgebraElement({a: True, b: r}).terms
    assert got == {a: ONE, b: r} and type(got[b]) is type(r)
    assert AlgebraElement({a: ZERO, b: False}).terms == {}
    with pytest.raises(AttributeError):
        AlgebraElement({a: 1.5})


def test_grades():
    a = NormalMonomial("a", 1, 0, 0)
    b = NormalMonomial("a", 0, 1, 0)
    c = NormalMonomial("a", 0, 0, 1)
    d = NormalMonomial("d", 1, 0, 0)
    assert [grade(m) for m in (a, b, c, d)] == [1, -1, 1, -1]
    assert [row_grade(m) for m in (a, b, c, d)] == [1, 1, -1, -1]


# -- rewriting confluence ----------------------------------------------------

def test_confluence_500_random_triples():
    rng = random.Random(42)
    for _ in range(500):
        x = random_element(rng, max_degree=4, n_terms=2)
        y = random_element(rng, max_degree=4, n_terms=2)
        z = random_element(rng, max_degree=4, n_terms=2)
        assert (x * y) * z == x * (y * z)


# -- coalgebra ----------------------------------------------------------------

def test_coproduct_generators():
    da = coproduct(A)
    expect = TensorElement({
        (NormalMonomial("a", 1, 0, 0), NormalMonomial("a", 1, 0, 0)): ONE,
        (NormalMonomial("a", 0, 1, 0), NormalMonomial("a", 0, 0, 1)): ONE,
    })
    assert da == expect
    assert coproduct(UNIT) == TensorElement(
        {(NormalMonomial("a", 0, 0, 0),) * 2: ONE})


def test_coproduct_homomorphism():
    rng = random.Random(5)
    for _ in range(20):
        x = random_element(rng, 2, 2)
        y = random_element(rng, 2, 2)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def _apply_leg(t, which):
    """Apply Delta to one leg of a TensorElement: dict of triples."""
    out = {}
    for (ml, mr), coeff in t.pairs.items():
        inner = coproduct(AlgebraElement({ml if which == 0 else mr: ONE}))
        for (m1, m2), c2 in inner.pairs.items():
            key = (m1, m2, mr) if which == 0 else (ml, m1, m2)
            _acc(out, key, coeff * c2)
    return out


def test_coassociativity():
    rng = random.Random(6)
    elems = [A, B, C, D] + [random_element(rng, 3, 3) for _ in range(10)]
    for x in elems:
        t = coproduct(x)
        assert _apply_leg(t, 0) == _apply_leg(t, 1)


def test_counit_axiom():
    rng = random.Random(7)
    for x in [A, B, C, D] + [random_element(rng, 3, 3) for _ in range(10)]:
        t = coproduct(x)
        left = AlgebraElement({})
        for (ml, mr), coeff in t.pairs.items():
            left = left + AlgebraElement(
                {mr: coeff * counit(AlgebraElement({ml: ONE}))})
        assert left == x


def test_antipode_axiom():
    rng = random.Random(8)
    for x in [A, B, C, D] + [random_element(rng, 3, 3) for _ in range(10)]:
        t = coproduct(x)
        lhs = mult_tensor(t, left_op=antipode)
        assert lhs == AlgebraElement.scalar(counit(x))
        rhs = mult_tensor(t, right_op=antipode)
        assert rhs == AlgebraElement.scalar(counit(x))


def test_antipode_on_matrix_is_star_transpose():
    # S(pi_ij) = (pi_ji)* on the generator matrix
    assert antipode(A) == star(A)
    assert antipode(B) == star(C)
    assert antipode(C) == star(B)
    assert antipode(D) == star(D)


def test_antipode_examples():
    assert antipode(UNIT) == UNIT


# -- star structure -----------------------------------------------------------

def test_star_values():
    assert star(A) == D
    assert star(D) == A
    assert star(B) == C.scale(-1 / Q)
    assert star(C) == B.scale(-Q)


def test_star_involution_and_antihomomorphism():
    rng = random.Random(9)
    for _ in range(20):
        x = random_element(rng, 3, 3)
        y = random_element(rng, 3, 3)
        assert star(star(x)) == x
        assert star(x * y) == star(y) * star(x)


def test_unitarity_of_generator_matrix():
    assert A * star(A) + B * star(B) == UNIT
    assert C * star(C) + D * star(D) == UNIT
    assert A * star(C) + B * star(D) == AlgebraElement({})
    assert star(A) * A + star(C) * C == UNIT
    assert star(B) * B + star(D) * D == UNIT


# -- Haar state ---------------------------------------------------------------

def test_haar_basics():
    assert haar(UNIT) == ONE
    assert haar(A) == ZERO
    assert haar(B * C) == -1 / q_int(4)
    assert haar(B * C).evaluate(QPoint(1)) == Fraction(-1, 2)


def test_haar_kills_nonzero_grade():
    rng = random.Random(10)
    for _ in range(50):
        x = random_element(rng, 4, 1)
        mono = next(iter(x.terms))
        if grade(mono) != 0 or row_grade(mono) != 0:
            assert haar(AlgebraElement({mono: ONE})) == ZERO


def _haar_on_each_leg(x):
    """((h (x) id) Delta(x), (id (x) h) Delta(x))."""
    left = AlgebraElement({})
    right = AlgebraElement({})
    for (ml, mr), coeff in coproduct(x).pairs.items():
        left = left + AlgebraElement(
            {mr: coeff * haar(AlgebraElement({ml: ONE}))})
        right = right + AlgebraElement(
            {ml: coeff * haar(AlgebraElement({mr: ONE}))})
    return left, right


def test_haar_invariance():
    # (h (x) id) Delta(x) == h(x) 1 == (id (x) h) Delta(x)
    rng = random.Random(11)
    for _ in range(15):
        x = random_element(rng, 4, 3)
        expect = AlgebraElement.scalar(haar(x))
        assert _haar_on_each_leg(x) == (expect, expect)


def test_haar_closed_form_is_invariant_on_bc_powers():
    # h((bc)^k) = (-1)^k/[k+1]_q makes both legs of Delta((bc)^k) invariant
    bc_k = UNIT
    for k in range(9):
        h_k = (-1) ** k / q_int(2 * (k + 1))
        expect = AlgebraElement.scalar(h_k)
        assert haar(bc_k) == h_k
        assert _haar_on_each_leg(bc_k) == (expect, expect), k
        bc_k = bc_k * B * C


def test_haar_closed_form_matches_the_invariance_solve():
    # equal num and den, hence equal hashes: one canonical form
    for k in range(11):
        closed, solved = _haar_bc(k), haar_bc_by_invariance(k)
        assert closed == solved and hash(closed) == hash(solved), k


def test_haar_classical_moments():
    # h((bc)^k) -> (-1)^k/(k+1) at q=1, the classical integral of |b|^(2k)
    one = QPoint(1)
    f = UNIT
    for k in range(1, 5):
        f = f * B * C
        assert haar(f).evaluate(one) == Fraction((-1) ** k, k + 1)


def test_haar_positivity_at_numeric_points():
    rng = random.Random(12)
    for q0 in (Fraction(1, 2), Fraction(7, 10), 1, Fraction(3, 2)):
        point = QPoint(q0)
        for _ in range(10):
            x = random_element(rng, 3, 3)
            v = l2_inner(x, x).evaluate(point)
            assert v >= 0


def test_l2_inner_examples():
    assert l2_inner(UNIT, UNIT) == ONE
    # (t^(1/2)_12, t^(1/2)_12) = q^-1/[2]_q  (the b entry)
    assert l2_inner(B, B) == (1 / Q) / q_int(4)
    # distinct spins orthogonal: (a, T^1 entries) = 0
    assert l2_inner(A, A * A) == ZERO


def test_haar_is_star_symmetric():
    rng = random.Random(13)
    for _ in range(10):
        x = random_element(rng, 3, 3)
        assert haar(star(x)) == haar(x)  # real values, star-invariant


@st.composite
def elements(draw, max_degree=4):
    terms = draw(st.dictionaries(monomials(max_degree),
                                 st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                 max_size=4))
    return AlgebraElement(terms)


@settings(max_examples=100, deadline=None)
@given(elements(), elements(),
       st.sampled_from([ONE, -Q, q_int(4), QScalar.promote(Fraction(2, 3))]))
def test_coproduct_is_linear(x, y, c):
    assert coproduct(x + y.scale(c)) == (
        coproduct(x) + coproduct(y).scale(c))


@settings(max_examples=150, deadline=None)
@given(elements(), elements())
def test_haar_matches_the_per_term_sum(x, y):
    # the closed form against h((bc)^k) solved from invariance, term by
    # term; x y* reaches (bc)^k up to k = 4
    assert haar(x) == haar_per_term(x)
    assert haar(x * star(y)) == haar_per_term(x * star(y))


def test_haar_of_unitary_products_matches_the_per_term_sum():
    # QRadical coefficients: the unitary entries of spins <= 1
    pw = PWTable(2)
    units = [unitary_entry(pw, tl, tm, tn)
             for tl in range(3) for tm, tn in pw.entries(tl)]
    for u in units:
        for v in units[::3]:
            x = u * v
            assert haar(x * star(x)) == haar_per_term(x * star(x))
            assert haar(u * star(v)) == haar_per_term(u * star(v))


def test_haar_is_the_scalar_zero_off_the_zero_weights():
    pw = PWTable(2)
    for x in (A * B, C, unitary_entry(pw, 2, -2, 0)):
        h = haar(x)
        assert isinstance(h, QScalar) and h.is_zero()


# -- property tests -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(monomials(), monomials())
def test_grade_additive_under_products(m1, m2):
    x = AlgebraElement({m1: ONE}) * AlgebraElement({m2: ONE})
    for mono in x.terms:
        assert grade(mono) == grade(m1) + grade(m2)
        assert row_grade(mono) == row_grade(m1) + row_grade(m2)


@settings(max_examples=200, deadline=None)
@given(monomials())
def test_star_negates_both_grades(m):
    x = star(AlgebraElement({m: ONE}))
    assert x.terms
    for mono in x.terms:
        assert grade(mono) == -grade(m)
        assert row_grade(mono) == -row_grade(m)


@settings(max_examples=150, deadline=None)
@given(monomials(3), monomials(3))
def test_star_antimultiplicative_property(m1, m2):
    x = AlgebraElement({m1: ONE})
    y = AlgebraElement({m2: ONE})
    assert star(x * y) == star(y) * star(x)
    assert star(star(x)) == x


@settings(max_examples=150, deadline=None)
@given(monomials(3), monomials(3))
def test_antipode_antimultiplicative_property(m1, m2):
    x = AlgebraElement({m1: ONE})
    y = AlgebraElement({m2: ONE})
    assert antipode(x * y) == antipode(y) * antipode(x)


def test_peel_gives_normal_prefix_times_last_letter():
    normal = [NormalMonomial(h, i, j, deg - i - j)
              for deg in range(5) for i in range(deg + 1)
              for j in range(deg - i + 1) for h in ("ad" if i else "a")]
    letters = {"a": A, "b": B, "c": C, "d": D}
    with pytest.raises(ValueError):
        peel(NormalMonomial("a", 0, 0, 0))
    for mono in normal[1:]:
        prefix, letter = peel(mono)
        assert prefix in normal and prefix.degree() == mono.degree() - 1
        assert (AlgebraElement({prefix: ONE}) * letters[letter]
                == AlgebraElement({mono: ONE}))


@settings(max_examples=100, deadline=None)
@given(monomials(3))
def test_counit_is_homomorphism_on_squares(m):
    x = AlgebraElement({m: ONE})
    assert counit(x * x) == counit(x) * counit(x)


@settings(max_examples=200, deadline=None)
@given(monomials())
def test_bc_moves_past_a_monomial_by_its_head_power(m):
    # (bc) x = q^(2h) x (bc), with a^h counted +h and d^h counted -h
    x = AlgebraElement({m: ONE})
    h = m.head_pow if m.head == "a" else -m.head_pow
    assert B * C * x == (x * B * C).scale(q_power(4 * h))
