import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, sqrt_scalar, evaluate,
    bq_asymptotic_ratio, ZERO, ONE, Q,
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

_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_exp = st.integers(min_value=-6, max_value=6)


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


def test_radical_perfect_square_collapses():
    r = sqrt_scalar(Q ** 2 * q_int(4) ** 2)
    assert r.is_scalar()
    assert r.as_scalar() == Q * q_int(4)


def test_radical_mixed_sum_arithmetic():
    a = sqrt_scalar(q_int(4)) + sqrt_scalar(q_int(6))
    b = sqrt_scalar(q_int(4)) - sqrt_scalar(q_int(6))
    prod = a * b
    assert prod.is_scalar()
    assert prod.as_scalar() == q_int(4) - q_int(6)


def test_subs_q_inverse_involution():
    x = (Q ** 3 - 2 * Q + 1) / (Q ** 2 + 1)
    assert x.subs_q_inverse().subs_q_inverse() == x


def test_q_int_symmetric_under_q_inverse():
    for n in range(1, 8):
        assert q_int(2 * n).subs_q_inverse() == q_int(2 * n)
