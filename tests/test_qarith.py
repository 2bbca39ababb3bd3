import abc
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qsu2 import qarith
from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, sqrt_scalar, evaluate,
    sqrt_q_int_product, bq_asymptotic_ratio, normalize_scalar, ZERO, ONE, Q,
    _lp_add, _lp_gcd, _lp_mul, _lp_quo,
)
from qsu2.algebra import A, AlgebraElement, _haar_bc
from qsu2.calculus import THREE_D, _compose
from qsu2.peterweyl import PWTable, _index_pairs
from qsu2.spectral import DiracSpec, _diff_sq, _entry_data

from oracles import (
    bilinear_ratio_sq, canonicalize_by_gcd, delta_bc_power,
    haar_bc_by_invariance, pair_loop_product, subs_q_inverse,
)


def rational(v):
    return QScalar.promote(Fraction(v))


# -- q-integers ------------------------------------------------------------

def test_q_int_one_is_one():
    assert q_int(2) == ONE


def test_q_int_two_is_q_plus_qinv():
    assert q_int(4) == Q + ONE / Q


def test_q_int_three_at_two():
    # (q^3 - q^-3)/(q - q^-1) at q=2 -> 21/4 by direct arithmetic
    val = q_int(6).evaluate(QPoint(2))
    assert val == Fraction(21, 4)


def test_q_int_half_integer_is_exact():
    # [1/2]_q = q^(1/2)/(q+1); at q=1 it equals 1/2
    half = q_int(1)
    assert half.evaluate(QPoint(1)) == Fraction(1, 2)


def test_q_int_matches_division_route():
    # integer indices skip the gcd division; the result must be the
    # division's canonical form, term order included (evaluate sums in
    # that order).  Index 0 is ZERO: the two-term numerator collapses.
    assert q_int(0) == ZERO
    for two_n in range(-64, 65):
        if two_n == 0:
            continue
        want = QScalar({two_n: 1, -two_n: -1}) / QScalar({2: 1, -2: -1})
        got = q_int(two_n)
        assert list(got.num.items()) == list(want.num.items()), two_n
        assert list(got.den.items()) == list(want.den.items()), two_n
        assert hash(got) == hash(want), two_n


@pytest.mark.parametrize("two_n", range(0, 21))
def test_q_int_classical_limit(two_n):
    assert q_int(two_n).evaluate(QPoint(1)) == Fraction(two_n, 2)


def test_q_int_defining_relation_exact():
    # [n]_q * (q - q^-1) == q^n - q^-n for n <= 50
    qmq = Q - ONE / Q
    for n in range(1, 51):
        assert q_int(2 * n) * qmq == q_power(2 * n) - q_power(-2 * n)


def test_u_valuation():
    # [n]_q starts at q^(1-n) = u^(2-2n); a quotient subtracts valuations
    for n in range(1, 8):
        assert q_int(2 * n).u_valuation() == 2 - 2 * n
    assert ((q_power(3) + Q * Q) / (q_power(-1) + ONE)).u_valuation() == 4
    with pytest.raises(ValueError):
        ZERO.u_valuation()


# -- evaluation -------------------------------------------------------------

def test_evaluate_q_plus_inverse():
    x = Q + ONE / Q
    assert x.evaluate(QPoint(1)) == 2
    assert x.evaluate(QPoint(Fraction(1, 2))) == Fraction(5, 2)


def test_evaluate_sqrt_two():
    v = sqrt_scalar(q_int(4)).evaluate(QPoint(1))
    assert v == pytest.approx(math.sqrt(2), abs=1e-14)


def test_negative_radicand_raises():
    with pytest.raises(ValueError):
        sqrt_scalar(-q_int(4)).evaluate(QPoint(1))


def test_qpoint_validation():
    with pytest.raises(ValueError):
        QPoint(0)
    with pytest.raises(ValueError):
        QPoint(-1)
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError):
            QPoint(float(bad))
    assert QPoint("7/10").q0 == Fraction(7, 10)
    assert QPoint(2).b_q == 2
    assert QPoint(Fraction(1, 2)).b_q == 2


# -- asymptotics ------------------------------------------------------------

def test_bq_ratio_small_values():
    ratios = bq_asymptotic_ratio(2, QPoint(2))
    assert ratios[0] == pytest.approx(0.5)
    assert ratios[1] == pytest.approx(0.625)


def test_bq_ratio_refuses_q_one():
    with pytest.raises(ValueError):
        bq_asymptotic_ratio(5, QPoint(1))


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(3, 2), Fraction(1, 2)])
def test_bq_ratio_bounded_monotone(q0):
    # ratio_n = (1 - b^-2n)/(b - b^-1) * b -> monotone, inside [1/b, 1/(1-b^-2)]
    ratios = bq_asymptotic_ratio(60, QPoint(q0))
    b = float(max(q0, 1 / q0))
    lo, hi = 1 / b, 1 / (1 - b ** -2)
    for r in ratios:
        assert lo - 1e-12 <= r <= hi + 1e-12
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(ratios, ratios[1:]))


# -- ring laws (property tests) ---------------------------------------------

# The 97 values of st.fractions(min_value=-4, max_value=4,
# max_denominator=6), drawn from a fixed list: drawing from it is several
# times faster.  Ordered by |c|, so that shrinking still heads to 0.
_FRACTIONS = sorted({Fraction(n, d) for d in range(1, 7)
                     for n in range(-4 * d, 4 * d + 1)},
                    key=lambda c: (abs(c), c < 0))
_coeff = st.sampled_from(_FRACTIONS)
_exp = st.integers(min_value=-6, max_value=6)


def test_fraction_list_is_the_span_of_st_fractions():
    assert len(_FRACTIONS) == len(set(_FRACTIONS)) == 97
    assert _FRACTIONS[0] == 0
    assert [abs(c) for c in _FRACTIONS] == sorted(map(abs, _FRACTIONS))
    assert all(c.denominator <= 6 and -4 <= c <= 4 for c in _FRACTIONS)


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_st_fractions_draws_from_the_fraction_list(c):
    assert c in _FRACTIONS


@st.composite
def qscalars(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(_exp)] = draw(_coeff)
    return QScalar({e: Fraction(c) for e, c in terms.items()})


@settings(max_examples=1000, deadline=None)
@given(qscalars(), qscalars(), qscalars())
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    assert x.square() == x * x


@settings(max_examples=200, deadline=None)
@given(qscalars(), qscalars())
def test_field_division(x, y):
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=0, max_value=12))
def test_radical_square_roundtrip(m, n):
    # sqrt([m]_q [n]_q)^2 == [m]_q [n]_q exactly
    prod = q_int(2 * m) * q_int(2 * n)
    r = sqrt_scalar(prod)
    assert r.square() == prod


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=1, max_value=10))
def test_radical_product_merges(m, n):
    # sqrt(u)sqrt(v) == sqrt(uv)
    u, v = q_int(2 * m), q_int(2 * n)
    assert sqrt_scalar(u) * sqrt_scalar(v) == sqrt_scalar(u * v)


_BIG_PRIMES = [p for p in range(100001, 100200, 2)
               if all(p % f for f in range(3, math.isqrt(p) + 1, 2))]
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BIG_PRIMES), st.sets(st.sampled_from(_SMALL_PRIMES)),
       st.sets(st.sampled_from(_SMALL_PRIMES)),
       st.sampled_from(["int", "numerator", "denominator"]))
def test_square_factor_above_trial_division_is_extracted(s, num, den, where):
    # s^2 r with s a prime above the trial-division cap and r square-free
    assert s > qarith._TRIAL_DIVISION_CAP
    r = Fraction(math.prod(num), math.prod(den - num))
    if where == "int":
        r = r.numerator
    factor = Fraction(1, s) if where == "denominator" else s
    root = sqrt_scalar(r * factor * factor)
    assert root == factor * sqrt_scalar(r)
    assert set(root.terms) == {QScalar.promote(r)}


def test_square_part_past_the_cap_raises():
    # no factor up to the cap, not a square, and above the cap cubed
    n = math.prod(_BIG_PRIMES[:3])
    assert n > qarith._TRIAL_DIVISION_CAP ** 3
    with pytest.raises(ValueError, match="square part"):
        sqrt_scalar(n)
    assert sqrt_scalar(n * n) == n


def test_radical_perfect_square_collapses():
    r = sqrt_scalar(Q ** 2 * q_int(4) ** 2)
    assert r.is_scalar()
    assert r.as_scalar() == Q * q_int(4)


def test_scalar_radical_hashes_as_its_scalar():
    # a QRadical equal to a QScalar must hash as it, or a set or dict holds
    # both of two equal elements
    x = sqrt_scalar(q_int(4)) * sqrt_scalar(q_int(4))
    assert isinstance(x, QRadical) and x == q_int(4)
    assert hash(x) == hash(q_int(4))
    assert QRadical() == ZERO and hash(QRadical()) == hash(ZERO)
    (mono,) = A.terms
    assert len({A.scale(q_int(4)), AlgebraElement({mono: x})}) == 1


def test_radical_mixed_sum_arithmetic():
    a = sqrt_scalar(q_int(4)) + sqrt_scalar(q_int(6))
    b = sqrt_scalar(q_int(4)) - sqrt_scalar(q_int(6))
    prod = a * b
    assert prod.is_scalar()
    assert prod.as_scalar() == q_int(4) - q_int(6)


def test_radical_merges_equal_radicands_into_one_term():
    # 1 and ONE are equal but hash apart, so the dict holds two keys
    terms = {1: ONE, ONE: Q}
    assert len(terms) == 2
    assert QRadical(terms).terms == {ONE: ONE + Q}
    assert QRadical({2: ONE, QScalar.promote(2): -ONE}).terms == {}


def test_radical_cancellation_leaves_no_term():
    x = sqrt_scalar(q_int(4)) + Q * sqrt_scalar(q_int(6))
    assert (x + (-x)).terms == {}
    assert (x - x).terms == {}
    # (s2 + s3)(s2 - s3) = 2 - 3: the two sqrt(6) terms cancel
    s2, s3 = sqrt_scalar(2), sqrt_scalar(3)
    assert ((s2 + s3) * (s2 - s3)).terms == {ONE: QScalar.promote(-1)}


_radicands = st.sampled_from([2, 3, 6, Q, q_int(4), q_int(6), 2 * Q])


@st.composite
def qradicals(draw):
    terms = draw(st.lists(st.tuples(_radicands, qscalars(2)), max_size=3))
    return sum((c * sqrt_scalar(r) for r, c in terms), QRadical())


@settings(max_examples=100, deadline=None)
@given(qradicals(), qradicals())
def test_radical_stores_no_zero_coefficient(x, y):
    for value in (x, y, x + y, x - y, x * y, x * (-x), x + (-x)):
        assert not any(c.is_zero() for c in value.terms.values())
    assert (x - x).terms == {}


@settings(max_examples=50, deadline=None)
@given(qradicals(), _radicands, qscalars(2))
def test_radical_divides_by_one_term(x, r, c):
    if c.is_zero():
        c = ONE
    divisor = c * sqrt_scalar(r)
    assert (x * divisor) / divisor == x


def test_radical_refuses_a_two_term_divisor():
    with pytest.raises(ValueError, match="multi-term"):
        ONE / (sqrt_scalar(2) + sqrt_scalar(3))


@pytest.mark.parametrize("x", [3, Fraction(-2, 5), Q ** 2 - 1])
@pytest.mark.parametrize("r", [sqrt_scalar(2), sqrt_scalar(q_int(4)),
                               Q * sqrt_scalar(3)])
def test_exact_number_on_the_left_of_a_radical(x, r):
    # an int or a Fraction reaches QRadical.__rsub__ and __rtruediv__
    assert x - r == -(r - x)
    assert x / r == QRadical.promote(x) / r


def test_reflected_scalar_subtraction_and_division_by_zero():
    assert 1 - Q == -(Q - 1)
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_radical_repr_lists_terms_by_radicand():
    assert repr(sqrt_scalar(3) + Q * sqrt_scalar(2)) \
        == "QRadical((q)*sqrt(2) + (1)*sqrt(3))"
    assert repr(ONE + Q * sqrt_scalar(2)) == "QRadical(1 + (q)*sqrt(2))"


def test_normalize_scalar_promotes_ints_and_fractions():
    for x in (3, Fraction(1, 2), Fraction(4, 2)):
        got = normalize_scalar(x)
        assert type(got) is QScalar and got == QScalar.promote(x)


def test_exact_scalar_arguments_run_no_abc_check(monkeypatch):
    # normalize_scalar and AlgebraElement.scale test the exact types before
    # int and Fraction: Fraction is an ABC, and testing it is slow
    calls = []
    check = abc.ABCMeta.__instancecheck__

    def counted(cls, instance):
        calls.append(cls)
        return check(cls, instance)

    x = q_int(4)
    elem = A + A * A
    monkeypatch.setattr(abc.ABCMeta, "__instancecheck__", counted)
    normalized, scaled = normalize_scalar(x), elem.scale(x)
    monkeypatch.undo()
    assert calls == []
    assert normalized is x
    assert scaled == AlgebraElement({m: c * x for m, c in elem.terms.items()})


def test_subs_q_inverse_involution():
    x = (Q ** 3 - 2 * Q + 1) / (Q ** 2 + 1)
    assert subs_q_inverse(subs_q_inverse(x)) == x


def test_q_int_symmetric_under_q_inverse():
    for n in range(1, 8):
        assert subs_q_inverse(q_int(2 * n)) == q_int(2 * n)


# -- product dispatch: QScalar on either side of each operand type -----------

@pytest.mark.parametrize("x, want", [
    (3, Q + Q + Q), (True, Q), (False, ZERO), (0, ZERO),
    (Fraction(1, 2), Q / 2), (Fraction(0), ZERO), (q_int(4), Q * Q + ONE),
    (ZERO, ZERO),
], ids=["int", "True", "False", "0", "Fraction", "Fraction0", "QScalar",
        "ZERO"])
def test_qscalar_product_with_an_exact_number(x, want):
    for got in (Q * x, x * Q):
        assert type(got) is QScalar and got == want
    assert ZERO * x == x * ZERO == ZERO


def test_qscalar_product_with_a_radical_is_a_radical():
    r = sqrt_scalar(q_int(6))              # [3]_q is no square
    for got in (Q * r, r * Q):
        assert type(got) is QRadical and got * got == Q * Q * q_int(6)


@pytest.mark.parametrize("x", [1.5, 0.0, None], ids=["1.5", "0.0", "None"])
def test_qscalar_product_with_a_float_raises_type_error(x):
    with pytest.raises(TypeError):
        Q * x
    with pytest.raises(TypeError):
        x * Q


# -- ladder roots in closed form against the square-free split ---------------
#
# sqrt_q_int_product reads the square part of [a]_q [b]_q off
# gcd([a]_q, [b]_q) = [gcd(a, b)]_q; sqrt_scalar's gcd-based split of the
# product is the oracle.

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
@example(1, 1)
@example(12, 18)
@example(60, 60)
def test_sqrt_q_int_product_is_the_square_free_split(a, b):
    prod = q_int(2 * a) * q_int(2 * b)
    root, oracle = sqrt_q_int_product(2 * a, 2 * b), sqrt_scalar(prod)
    assert root == oracle
    assert hash(root) == hash(oracle)
    assert root.square() == prod


def test_ladder_roots_match_the_square_free_split():
    # every X+ entry _compose builds for 2l <= 48; at q0 = 7/10, where
    # odd exponents evaluate in floats, the value is bit-equal to the
    # oracle's through 2l = 24 (criterion 7's largest spin) and within an
    # ulp beyond, where the oracle may sum a coefficient in another order
    point = QPoint(Fraction(7, 10))
    for tl in range(49):
        block = _compose("ladder", THREE_D, tl)["X+"]
        assert len(block) == tl
        for (tm, tn), root in block.items():
            assert tm == tn + 2
            oracle = sqrt_scalar(q_int(tl - tn) * q_int(tl + tn + 2))
            assert root == oracle and hash(root) == hash(oracle)
            got, want = (float(evaluate(x, point)) for x in (root, oracle))
            if tl <= 24:
                assert got == want, (tl, tn)
            else:
                assert abs(got - want) <= math.ulp(want), (tl, tn)


@pytest.mark.parametrize("two_a, two_b",
                         [(1, 2), (2, 3), (3, 3), (0, 2), (2, 0), (-2, 4)])
def test_sqrt_q_int_product_refuses_odd_or_nonpositive_indices(two_a, two_b):
    with pytest.raises(ValueError):
        sqrt_q_int_product(two_a, two_b)


# -- cross-cancelling kernel against the one-gcd route -----------------------
#
# The oracle forms the full product, quotient or sum and reduces it with
# one gcd; the kernel cancels small gcds first.  Canonical forms are
# unique, so both must give the same num and den.

def _oracle_mul(x, y):
    return QScalar(_lp_mul(x.num, y.num), _lp_mul(x.den, y.den))


def _oracle_div(x, y):
    return QScalar(_lp_mul(x.num, y.den), _lp_mul(x.den, y.num))


def _oracle_add(x, y):
    return QScalar(_lp_add(_lp_mul(x.num, y.den), _lp_mul(y.num, x.den)),
                   _lp_mul(x.den, y.den))


def _same(got, want):
    return (got.num == want.num and got.den == want.den
            and hash(got) == hash(want))


# odd q-integers and h((bc)^k) have genuine denominators; even q-integers
# are Laurent polynomials whose factors reach a denominator by division
_FACTORS = ([q_int(k) for k in (1, 3, 4, 5, 6, -7)]
            + [_haar_bc(k) for k in (1, 2, 3)])


@st.composite
def _quotients(draw):
    x, y = draw(qscalars(3)), draw(qscalars(3))
    return x if y.is_zero() else x / y


@st.composite
def _sharing_pairs(draw):
    """Two scalars with a common factor f, in a numerator or denominator.

    The last two shapes sum to y, so the common denominator factor that f
    brings cancels from the sum.
    """
    x, y = draw(_quotients()), draw(_quotients())
    f = draw(st.sampled_from(_FACTORS))
    shape = draw(st.sampled_from(
        ["f, 1/f", "f, f", "1/f, 1/f", "f, y - f", "1/f, y - 1/f"]))
    if shape == "f, 1/f":
        return x * f, y / f
    if shape == "f, f":
        return x * f, y * f
    if shape == "1/f, 1/f":
        return x / f, y / f
    xf = x * f if shape == "f, y - f" else x / f
    return xf, y - xf


# 1/((u+1)(u+2)) - 2/((u+1)(u+3)) = -1/((u+2)(u+3)): the sum cancels g = u+1
_U_PLUS = [QScalar({1: 1, 0: c}) for c in (1, 2, 3)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(qscalars(), qscalars()), _sharing_pairs()))
@example((ONE / (_U_PLUS[0] * _U_PLUS[1]), -2 / (_U_PLUS[0] * _U_PLUS[2])))
def test_kernel_matches_one_gcd_route(pair):
    x, y = pair
    assert _same(x * y, _oracle_mul(x, y))
    assert _same(x + y, _oracle_add(x, y))
    assert _same(x - y, _oracle_add(x, -y))
    if not y.is_zero():
        assert _same(x / y, _oracle_div(x, y))


# -- one-term factors are exponent shifts -------------------------------------
#
# _lp_mul multiplies by a one-term factor c*u^k as a shift of the other
# operand, and a scale unless c is 1; the oracle sums every pair of terms.
# Operands are canonical: no zero term, an int wherever a coefficient is
# integral.  Products of two Fractions can be integral and must be ints.

_term_coeff = st.one_of(
    st.sampled_from([1, -1]), st.integers(min_value=-9, max_value=9),
    _coeff).filter(bool).map(
        lambda c: c.numerator if c.denominator == 1 else c)


def _lp_polys(min_size=0, max_size=5):
    return st.dictionaries(_exp, _term_coeff, min_size=min_size,
                           max_size=max_size)


def _items_and_types(p):
    return [(e, c, type(c)) for e, c in p.items()]


@settings(max_examples=500, deadline=None)
@given(_lp_polys(1, 1), _lp_polys(), st.booleans())
@example({0: 1}, {3: 2, -1: Fraction(1, 2)}, True)
@example({2: -1}, {3: 2, -1: Fraction(1, 2)}, False)
@example({-1: 3}, {0: Fraction(2, 3), 5: Fraction(-1, 3), 1: 1}, True)
@example({4: Fraction(3, 2)}, {0: Fraction(2, 3), 1: Fraction(4, 3)}, False)
def test_one_term_product_is_the_pair_loop(term, p, term_first):
    p1, p2 = (term, p) if term_first else (p, term)
    before = _items_and_types(p1), _items_and_types(p2)
    got = _lp_mul(p1, p2)
    assert _items_and_types(got) == _items_and_types(pair_loop_product(p1, p2))
    assert (_items_and_types(p1), _items_and_types(p2)) == before


# two multi-term operands run _lp_mul's one loop, _lp_iadd of each term of
# p1 times p2; the oracle is the pair loop it replaced, in key order too

@settings(max_examples=500, deadline=None)
@given(_lp_polys(2), _lp_polys(2))
@example({1: 1, 0: 1}, {1: 1, 0: -1})               # the u^1 key drops
@example({1: Fraction(1, 2), 0: 3}, {2: 2, 0: Fraction(-1, 3)})
@example({-2: Fraction(2, 3), 3: 1, 0: -1}, {0: Fraction(3, 2), 5: 1})
def test_multi_term_product_is_the_pair_loop(p1, p2):
    before = _items_and_types(p1), _items_and_types(p2)
    got = _lp_mul(p1, p2)
    assert _items_and_types(got) == _items_and_types(pair_loop_product(p1, p2))
    assert (_items_and_types(p1), _items_and_types(p2)) == before


@settings(max_examples=300, deadline=None)
@given(_lp_polys(1), _lp_polys(1))
@example({0: 1}, {0: 1})
@example({0: Fraction(1, 2)}, {2: 2, 0: Fraction(-3, 2)})
def test_cross_product_over_unit_denominators(n1, n2):
    # two polynomials multiply their numerators alone; the general route
    # reduces nothing and multiplies the unit denominators too
    unit = qarith._UNIT
    got = qarith._cross_product(n1, unit, n2, unit)
    want = QScalar(pair_loop_product(n1, n2), pair_loop_product(unit, unit),
                   _canonical=True)
    assert _items_and_types(got.num) == _items_and_types(want.num)
    assert got.den == want.den == {0: 1} and hash(got) == hash(want)
    assert _same(got, _oracle_mul(QScalar(n1), QScalar(n2)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_exp, st.one_of(qscalars(3), _quotients()))),
       st.booleans())
def test_shifted_sum_is_the_term_by_term_sum(pairs, polynomials):
    # polynomials sum in place with no reduction, so the term order is that
    # of QScalar + as well
    if polynomials:
        pairs = [(k, x) for k, x in pairs if x.is_polynomial()]
    want = ZERO
    for k, x in pairs:
        want = want + q_power(k) * x
    got = qarith.shifted_sum(pairs)
    assert _same(got, want)
    if polynomials:
        assert _items_and_types(got.num) == _items_and_types(want.num)


def _boundedness_at_spin_half():
    """Every commutator ratio at spins k, s <= 1/2, for both Dirac families,
    as the bilinear form over the exact _entry_data of its two factors."""
    pw = PWTable(2)
    haar_bc = [_haar_bc(k) for k in range(3)]
    ratios = 0
    for spec in (DiracSpec("classical"), DiracSpec("q-deformed")):
        for tk in (0, 1):
            for ts in (0, 1):
                diff_sq = _diff_sq(spec, tk, ts)
                for ti, tj in _index_pairs(tk):
                    for tp, tr in _index_pairs(ts):
                        bilinear_ratio_sq(diff_sq, _entry_data(pw, tk, ti, tj),
                                          _entry_data(pw, ts, tp, tr), haar_bc)
                        ratios += 1
    return ratios


def test_boundedness_products_match_one_gcd_route(monkeypatch):
    # record every QScalar product and quotient that the exact boundedness
    # ratios make at spins <= 1/2, then redo each with the oracle
    seen = []

    def recorder(op, oracle):
        def wrapped(x, y):
            out = op(x, y)
            if isinstance(y, QScalar):
                seen.append((x, y, out, oracle))
            return out
        return wrapped

    monkeypatch.setattr(QScalar, "__mul__",
                        recorder(QScalar.__mul__, _oracle_mul))
    monkeypatch.setattr(QScalar, "__truediv__",
                        recorder(QScalar.__truediv__, _oracle_div))
    ratios = _boundedness_at_spin_half()
    monkeypatch.undo()
    assert ratios == 2 * 25
    assert len(seen) > 200, len(seen)
    for x, y, got, oracle in seen:
        assert _same(got, oracle(x, y)), (x, y)


def test_cross_cancellation_keeps_gcds_small(monkeypatch):
    # h((bc)^5) has a denominator of degree 20 and h((bc)^6)/[3]_q one of
    # degree 32; the one-gcd route reduced degree 52 (product) and 42
    # (quotient), the cross-cancelled pairs stay within the operands
    x, y = _haar_bc(5), _haar_bc(6) / q_int(6)
    largest = max(max(x.den), max(y.den), max(x.num), max(y.num))
    assert largest == 32
    degrees = []
    gcd = qarith._lp_gcd

    def spy(a, b):
        degrees.append(max(max(a), max(b)))
        return gcd(a, b)

    monkeypatch.setattr(qarith, "_lp_gcd", spy)
    prod, quot = x * y, x / y
    monkeypatch.undo()
    assert degrees and max(degrees) <= largest
    assert _same(prod, _oracle_mul(x, y))
    assert _same(quot, _oracle_div(x, y))


def _coefficients(x):
    if isinstance(x, QRadical):
        return [c for r, v in x.terms.items()
                for c in _coefficients(r) + _coefficients(v)]
    return list(x.num.values()) + list(x.den.values())


def _exact(coefficients):
    """Each is an int, or a Fraction that is not integral; never a float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coefficients)


def test_integer_coefficients_reduce_exactly():
    # int inputs must not turn into floats when the reduction divides
    for x in (QScalar({3: 1, 0: 2}, {2: 3, 0: 1}),
              QScalar({6: 1, -6: -1}) / QScalar({2: 1, -2: -1}),
              QScalar({1: 2}, {0: 3})):
        for c in list(x.num.values()) + list(x.den.values()):
            assert isinstance(c, (int, Fraction)), x
    assert QScalar({3: 1, 0: 2}, {2: 3, 0: 1}) == \
        QScalar({3: Fraction(1, 3), 0: Fraction(2, 3)},
                {2: 1, 0: Fraction(1, 3)})
    # and no result carries an integral Fraction: halves that add or
    # multiply to integers, integral Fractions given as input, monic
    # scaling by a non-unit leading coefficient, genuine denominators
    half = QScalar({1: Fraction(1, 2), 0: Fraction(1, 2)})
    samples = [half, rational(2), rational(Fraction(-3, 4)),
               QScalar({2: Fraction(4, 2), 0: Fraction(6)}),
               QScalar({3: 1, 0: 2}, {2: 3, 0: 1}),
               QScalar({1: 2}, {1: 4, 0: 2}),
               q_int(3), q_int(-8), _haar_bc(2) / q_int(5)]
    results = list(samples)
    for x in samples:
        for y in samples:
            results += [x + y, x - y, x * y, x / y]
    results += [q_int(k) for k in range(-12, 13)]
    results += [sqrt_scalar(q_int(m) * q_int(n) * x)
                for m in (1, 3, 4) for n in (2, 5) for x in samples[:4]]
    results += [_haar_bc(k) for k in range(7)]
    assert half + half == QScalar({1: 1, 0: 1})
    for x in results:
        assert _exact(_coefficients(x)), x
    with pytest.raises(TypeError):
        QScalar({1: 1, 0: 0.5})


# -- primitive-PRS gcd against the Euclidean gcd over Q ------------------------
#
# The oracle is the Euclidean gcd over Fractions that the library used
# before its gcd ran the primitive remainder sequence over Z.

def _euclid_divmod(p1, p2):
    num = dict(p1)
    dmax = max(p2)
    dlead = Fraction(p2[dmax])
    quo = {}
    while num and max(num) >= dmax:
        e = max(num)
        c = num[e] / dlead
        quo[e - dmax] = c
        for ed, cd in p2.items():
            k = ed + e - dmax
            r = num.get(k, 0) - cd * c
            if r:
                num[k] = r
            else:
                num.pop(k, None)
    return quo, num


def _euclid_gcd(p1, p2):
    """Monic gcd in Q[u] by Euclid's algorithm over Fractions."""
    a, b = dict(p1), dict(p2)
    while b:
        _, r = _euclid_divmod(a, b)
        a, b = b, r
    if not a:
        return {0: Fraction(1)}
    lead = Fraction(a[max(a)])
    return {e: c / lead for e, c in a.items()}


def _matches_oracle(a, b):
    got = _lp_gcd(a, b)
    return got == _euclid_gcd(a, b) and _exact(got.values())


_gcd_coeff = st.one_of(st.integers(min_value=-9, max_value=9), _coeff)


# _lp_quo, the exact quotient, against Euclid's division over Fractions;
# the operands are canonical, as _lp_mul takes them

@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 6), _term_coeff, max_size=4),
       st.dictionaries(st.integers(0, 6), _term_coeff, min_size=1,
                       max_size=4))
@example({2: 1, 0: Fraction(1, 2)}, {1: 1, 0: -1})
@example({}, {3: Fraction(2, 3)})
@example({0: 5}, {4: 2, 1: -1, 0: 3})
def test_exact_quotient_inverts_the_product(a, b):
    got = _lp_quo(_lp_mul(a, b), b)
    assert got == a and {e: type(c) for e, c in got.items()} == {
        e: type(c) for e, c in a.items()}
    assert list(got) == sorted(got, reverse=True)
    quo, rem = _euclid_divmod(_lp_mul(a, b), b)
    assert got == quo and not rem


def test_inexact_quotient_raises():
    with pytest.raises(ArithmeticError):
        _lp_quo({1: 1, 0: 1}, {1: 1, 0: -1})


@st.composite
def _polynomials(draw, max_terms=5):
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=8),
                                 _gcd_coeff, max_size=max_terms))
    return {e: c for e, c in terms.items() if c}


@settings(max_examples=500, deadline=None)
@given(_polynomials(), _polynomials(), _polynomials(3))
@example({2: 3, 0: -3}, {1: 6, 0: 6}, {})          # content 3 and 6, u + 1
@example({2: Fraction(1, 2), 0: Fraction(-1, 2)}, {1: 2, 0: 2}, {})
def test_gcd_matches_euclid_oracle(a, b, f):
    # f, when not constant, is a factor that a and b then share
    assert _matches_oracle(a, b)
    if f and max(f) > 0:
        assert _matches_oracle(_lp_mul(a, f), _lp_mul(b, f))


def test_recorded_gcds_match_euclid_oracle(monkeypatch):
    # every gcd the boundedness kernel takes at spins <= 1/2, and that the
    # invariance solve for h((bc)^k) takes for k <= 6, redone by the
    # Euclidean oracle
    seen = []

    def spy(a, b):
        seen.append((dict(a), dict(b)))
        return _lp_gcd(a, b)

    # cold oracle caches: the solve records the same gcds whatever ran first
    delta_bc_power.cache_clear()
    haar_bc_by_invariance.cache_clear()
    monkeypatch.setattr(qarith, "_lp_gcd", spy)
    for k in range(1, 7):
        haar_bc_by_invariance.__wrapped__(k)
    _boundedness_at_spin_half()
    monkeypatch.undo()
    assert len(seen) > 100, len(seen)
    for a, b in seen:
        assert _matches_oracle(a, b), (a, b)


# -- one-term sides: a gcd that is 1 by shape is not taken ---------------------
#
# gcd(c*u^a, p) = u^min(a, val p), so when either side has valuation 0 a
# one-term side shares no factor and _canonicalize takes no gcd.  The
# oracle takes it on every pair; both give the same pair, in key order and
# with coefficient types.

@settings(max_examples=500, deadline=None)
@given(_lp_polys(1, 1), _lp_polys(1), st.booleans())
@example({2: 1}, {2: 1, 4: 1}, True)    # u^2/(u^2 + u^4): the gcd is u^2
@example({-3: Fraction(1, 2)}, {1: 2, 4: -1}, True)
@example({4: 3}, {2: Fraction(2, 3), 5: 1}, False)
def test_one_term_sides_reduce_as_the_gcd_route(term, p, term_is_num):
    num, den = (term, p) if term_is_num else (p, term)
    got = QScalar._canonicalize(num, den)
    want = canonicalize_by_gcd(num, den)
    assert [_items_and_types(x) for x in got] == \
        [_items_and_types(x) for x in want]


def test_gcd_one_by_shape_is_not_taken(monkeypatch):
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return _lp_gcd(a, b)

    monkeypatch.setattr(qarith, "_lp_gcd", spy)
    for num, den in (({5: 2}, {2: 1, 0: 1}), ({3: 1, -1: 2}, {4: 1}),
                     ({-2: Fraction(1, 2)}, {3: 1, 1: 2}),
                     ({0: 3}, {6: 1, 2: -1})):
        QScalar(num, den)
    assert calls == []
    # both valuations positive: the gcd u^2 is taken
    assert QScalar({2: 1}, {2: 1, 4: 1}) == QScalar({0: 1}, {2: 1, 0: 1})
    assert len(calls) == 1


# -- exact evaluation against the per-term route ------------------------------
#
# The oracle is the evaluation the library used before it summed each
# polynomial over the integers and divided once: one Fraction per term.

def _per_term_lp_eval(p, u_val):
    total = Fraction(0) if isinstance(u_val, Fraction) else 0.0
    for e, c in p.items():
        total += c * u_val ** e
    return total


def _per_term_evaluate(x, point):
    if isinstance(point.q0, Fraction) and all(
            e % 2 == 0 for e in x.num) and all(e % 2 == 0 for e in x.den):
        num = sum((c * point.q0 ** (e // 2) for e, c in x.num.items()),
                  Fraction(0))
        den = sum((c * point.q0 ** (e // 2) for e, c in x.den.items()),
                  Fraction(0))
    else:
        num = _per_term_lp_eval(x.num, point.sqrt_q)
        den = _per_term_lp_eval(x.den, point.sqrt_q)
    if den == 0:
        raise ZeroDivisionError(f"denominator vanishes at q={point.q0}")
    return num / den


_EVAL_POINTS = [QPoint(Fraction(v))
                for v in ("1/2", "7/10", "4/9", "9/4", "1", "2")]
_EVAL_POINTS.append(QPoint(0.3))


@st.composite
def _raw_quotients(draw):
    # uncanonicalized num/den, so every coefficient type reaches evaluate;
    # all-even exponents take the exact route in q0 itself
    even = draw(st.booleans())
    exps = st.integers(min_value=-6, max_value=6).map(
        (lambda e: 2 * e) if even else (lambda e: e))
    coeffs = _gcd_coeff.filter(bool)
    num = draw(st.dictionaries(exps, coeffs, max_size=5))
    den = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    return QScalar(num, den, _canonical=True)


def _outcome(evaluate_fn, x, point):
    try:
        val = evaluate_fn(x, point)
    except ZeroDivisionError:
        return ZeroDivisionError
    return val, type(val)


@settings(max_examples=300, deadline=None)
@given(_raw_quotients(), st.sampled_from(_EVAL_POINTS))
@example(QScalar({1: 1}, {2: 1, 0: -1}, _canonical=True), QPoint(1))
@example(QScalar({1: 1}, {1: 2, 0: -3}, _canonical=True), QPoint("9/4"))
@example(QScalar({}, {-2: Fraction(1, 2), 4: 3}, _canonical=True),
         QPoint("4/9"))
def test_evaluate_matches_per_term_route(x, point):
    want = _outcome(_per_term_evaluate, x, point)
    assert _outcome(lambda y, pt: y.evaluate(pt), x, point) == want

