import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsu2.qarith import (
    QScalar, QPoint, q_int, q_power, sqrt_q_int_product, sqrt_scalar, ZERO,
    ONE, Q, evaluate,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, NormalMonomial, haar, star,
    random_element,
)
from qsu2 import fourier as fourier_module
from qsu2.peterweyl import PWTable, quantum_dimension
from qsu2.fourier import (
    FourierArray, fourier_transform, inverse_fourier,
    hs_norm_sq, hs_norm_sq_float, dual_lp_norm, plancherel_sum,
    paley_constant, SU2Grid, lp_norm_classical, check_grid,
    inequality_ratio, matrix_multiply,
)

from oracles import (
    hs_norm_sq_per_entry, paley_constant_bruteforce,
    value_blocks_by_complex_product,
)


@pytest.fixture(scope="module")
def pw():
    return PWTable(8)


@pytest.fixture(scope="module")
def grid():
    return SU2Grid(48, 48, 48)


ONE_POINT = QPoint(1)


# -- transform ---------------------------------------------------------------

def test_transform_of_unit(pw):
    F = fourier_transform(UNIT, pw)
    assert F.spins() == [0]
    assert F.entry(0, 0, 0) == ONE


def test_transform_of_a(pw):
    # single entry at the lowest weight with value q/[2]_q
    F = fourier_transform(A, pw)
    assert F.spins() == [1]
    assert F.matrix(1) == {(-1, -1): Q / q_int(4)}


def test_transform_of_b(pw):
    # entry placement (row, col) = (+1/2, -1/2), value q^-1/[2]_q
    F = fourier_transform(B, pw)
    assert F.matrix(1) == {(1, -1): (ONE / Q) / q_int(4)}


def test_round_trip_200_random(pw):
    rng = random.Random(101)
    for _ in range(200):
        f = random_element(rng, max_degree=3, n_terms=4)
        assert inverse_fourier(fourier_transform(f, pw), pw) == f


def test_round_trip_degree_two_product(pw):
    f = A * B
    assert inverse_fourier(fourier_transform(f, pw), pw) == f


def test_transform_linearity(pw):
    rng = random.Random(115)
    for _ in range(10):
        f = random_element(rng, 3, 3)
        g = random_element(rng, 3, 3)
        lhs = fourier_transform(f.scale(Q) + g, pw)
        rhs = fourier_transform(f, pw).map_entries(
            lambda tl, k, v: Q * v) + fourier_transform(g, pw)
        assert lhs == rhs
        # a difference keeps the spin blocks it cancels, empty
        assert (lhs - fourier_transform(g, pw)
                - fourier_transform(f.scale(Q), pw)).is_zero()


def test_float_blocks_multiply_and_cancel():
    assert matrix_multiply({(1, 1): 2.0}, {(1, 1): 0.5}) == {(1, 1): 1.0}
    # row 1 times column 1: 1.0 * 1.0 + 1.0 * (-1.0) leaves no entry
    assert matrix_multiply({(1, 1): 1.0, (1, -1): 1.0},
                           {(1, 1): 1.0, (-1, 1): -1.0}) == {}
    assert matrix_multiply({(1, 1): 1.0, (1, -1): 1.0},
                           {(1, 1): 1.0, (-1, -1): 3.0}) == {
        (1, 1): 1.0, (1, -1): 3.0}


def test_float_arrays_add_on_shared_and_disjoint_keys():
    x = FourierArray({1: {(1, 1): 0.5}})
    assert (x + FourierArray({1: {(1, 1): 0.25}})).coeffs == {
        1: {(1, 1): 0.75}}
    assert (x + FourierArray({1: {(-1, -1): 0.25}, 0: {(0, 0): 2.0}})
            ).coeffs == {1: {(1, 1): 0.5, (-1, -1): 0.25}, 0: {(0, 0): 2.0}}
    assert (x + FourierArray({1: {(1, 1): -0.5}})).coeffs == {1: {}}


def test_evaluation_pole_raises():
    x = ONE / (Q - 1)
    with pytest.raises(ZeroDivisionError):
        x.evaluate(QPoint(1))


def test_plancherel_exact(pw):
    rng = random.Random(102)
    for _ in range(200):
        f = random_element(rng, max_degree=3, n_terms=4)
        assert haar(f * star(f)) == plancherel_sum(fourier_transform(f, pw))


def test_diagonal_takes_a_value_per_weight():
    assert FourierArray.diagonal({2: {-2: ONE, 2: Q}}) \
        == FourierArray({2: {(-2, -2): ONE, (2, 2): Q}})


# -- HS norm -----------------------------------------------------------------

def test_hs_identity_is_quantum_dimension():
    for tl in (0, 1, 2, 3):
        mat = {(tw, tw): ONE for tw in range(-tl, tl + 1, 2)}
        assert hs_norm_sq(mat, tl) == quantum_dimension(tl)


def test_hs_zero():
    assert hs_norm_sq({}, 3) == ZERO


def test_hs_diagonal_symbol_example():
    # diag(q^(-1/2), q^(1/2)) at l=1/2: sum q^(2m) q^(2m) = q^2 + q^-2
    mat = {(-1, -1): q_power(-1), (1, 1): q_power(1)}
    assert hs_norm_sq(mat, 1) == Q ** 2 + Q ** -2


def test_hs_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_norm_sq({(4, 0): ONE}, 2)


# Random blocks against the per-entry route (tests/oracles.py): entries are
# polynomials, quotients with a genuine denominator, ladder roots and other
# one-term radicals, in random key order.  A block draws from the unit-square
# kinds only, from quotients over one denominator only, or from every kind.

_small_coeff = st.one_of(st.integers(min_value=-3, max_value=3),
                         st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))
_polys = st.dictionaries(st.integers(min_value=-4, max_value=4), _small_coeff,
                         max_size=3).map(QScalar)
_unit_square_entries = st.one_of(
    _polys,
    st.tuples(st.integers(min_value=-3, max_value=3),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=1, max_value=9))
    .map(lambda t: q_power(t[0]) * sqrt_q_int_product(2 * t[1], 2 * t[2])),
    st.tuples(_polys, st.sampled_from([2, Fraction(3, 2), Q, 2 * Q, q_int(4),
                                       q_int(3)]))
    .map(lambda t: t[0] * sqrt_scalar(t[1])),
)
_divisors = st.sampled_from([q_int(1), q_int(3), Q + 2, Q * Q + 1])


@st.composite
def _blocks(draw):
    tl = draw(st.integers(min_value=0, max_value=3))
    labels = range(-tl, tl + 1, 2)
    keys = draw(st.lists(st.tuples(st.sampled_from(labels),
                                   st.sampled_from(labels)), unique=True))
    f = draw(_divisors)
    entries = draw(st.sampled_from([
        _unit_square_entries, _polys.map(lambda x: x / f),
        st.one_of(_unit_square_entries,
                  st.tuples(_polys, _divisors).map(lambda t: t[0] / t[1]))]))
    return tl, {key: draw(entries) for key in keys}


def _no_step_reduces(mat, tl):
    """Whether the entry squares and the nonzero partial sums of the
    per-entry route all have one denominator: no step of that route
    reduces, and it keeps its terms in the order they arrive."""
    dens, total = set(), ZERO
    for key, v in mat.items():
        term = hs_norm_sq_per_entry({key: v}, tl)
        total = total + term
        dens.update(str(x.den) for x in (term, total) if not x.is_zero())
    return len(dens) <= 1


@settings(max_examples=400, deadline=None)
@given(_blocks())
@example((1, {(-1, -1): QScalar({1: Fraction(-2, 3)}) / (Q * Q + 1),
              (1, -1): QScalar({1: Fraction(-2, 3)}) / (Q * Q + 1),
              (-1, 1): ONE / (Q * Q + 1)}))
def test_hs_norm_sq_matches_per_entry_route(block):
    # equal always, and in term order wherever no step of the per-entry
    # route reduces (every square a polynomial, as in the growth pass, or
    # all over one denominator that no partial sum shares a factor with),
    # so floats at an irrational q^(1/2) agree to the bit.  In the example
    # the first two weighted squares sum to 4/9 (q^2 + 1)/(q^2 + 1)^2.
    tl, mat = block
    got = hs_norm_sq(mat, tl)
    want = hs_norm_sq_per_entry(mat, tl)
    assert got == want and hash(got) == hash(want)
    if not _no_step_reduces(mat, tl):
        return
    assert list(got.num.items()) == list(want.num.items())
    assert list(got.den.items()) == list(want.den.items())
    for point in (QPoint(0.7), QPoint(Fraction(7, 10))):
        assert float(evaluate(got, point)) == float(evaluate(want, point))


_bad_entries = [(0.5, TypeError), (sqrt_scalar(2) + sqrt_scalar(3),
                                   ArithmeticError)]


@settings(max_examples=100, deadline=None)
@given(_blocks(), st.integers(min_value=0),
       st.integers(min_value=0, max_value=2))
def test_hs_norm_sq_error_contracts(block, where, bad):
    # a float entry, a square outside the base field and a key outside the
    # block each raise where the entry stands, whatever precedes it
    tl, mat = block
    items = list(mat.items())
    if bad < 2:
        entry, error = _bad_entries[bad]
        key = (-tl, tl)
        items = [(k, v) for k, v in items if k != key]
    else:
        entry, error, key = ONE, ValueError, (tl + 2, tl)
    items.insert(where % (len(items) + 1), (key, entry))
    with pytest.raises(error):
        hs_norm_sq(dict(items), tl)


def test_contraction_at_q1(pw, grid):
    # ||fhat(l)||_HS <= sqrt(n_l) ||f||_L1 within quadrature tolerance
    rng = random.Random(103)
    for _ in range(5):
        f = random_element(rng, 2, 3)
        l1 = lp_norm_classical(f, 1, grid, ONE_POINT)
        F = fourier_transform(f, pw)
        for tl in F.spins():
            hs = math.sqrt(hs_norm_sq_float(F.matrix(tl), ONE_POINT))
            assert hs <= math.sqrt(tl + 1) * l1 + 1e-8


# -- dual lp norms -------------------------------------------------------------

def test_dual_lp_norm_spin_zero():
    F = FourierArray({0: {(0, 0): ONE}})
    for p in (1, 1.5, 2, 4, math.inf):
        assert dual_lp_norm(F, p, ONE_POINT) == pytest.approx(1.0)


def test_dual_lp_norm_identity_sup():
    # identity at a single spin, p = inf -> sqrt([2l+1]_q/(2l+1))
    point = QPoint(Fraction(1, 2))
    for tl in (1, 2, 3):
        F = FourierArray.identity([tl])
        want = math.sqrt(
            float(evaluate(quantum_dimension(tl), point)) / (tl + 1))
        assert dual_lp_norm(F, math.inf, point) == pytest.approx(want)


def test_dual_lp_norm_p2_matches_haar(pw):
    # Plancherel through the float path: ||fhat||_2 == sqrt(h(f f*))
    point = QPoint(Fraction(7, 10))
    rng = random.Random(104)
    for _ in range(5):
        f = random_element(rng, 2, 3)
        F = fourier_transform(f, pw)
        want = math.sqrt(float(evaluate(haar(f * star(f)), point)))
        assert dual_lp_norm(F, 2, point) == pytest.approx(want, rel=1e-12)


def test_dual_lp_norm_far_out_of_float_range():
    # blocks above and below 1 at p = 1e7: x ** p overflows or underflows,
    # and the norm tends to the largest block norm as p grows
    point = QPoint(Fraction(1, 2))
    for scale in (Fraction(3), Fraction(1, 3)):
        F = FourierArray({0: {(0, 0): QScalar.promote(scale)},
                          1: {(-1, -1): QScalar.promote(scale / 2)}})
        want = dual_lp_norm(F, math.inf, point)
        got = dual_lp_norm(F, 1e7, point)
        assert math.isfinite(got)
        assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("value", [1e200, 1e-200])
def test_dual_lp_norm_of_one_entry_past_the_square_range(value):
    # the entry's square leaves the float range, its norm does not
    F = FourierArray({0: {(0, 0): value}})
    for p in (1.5, 2, math.inf):
        assert dual_lp_norm(F, p, ONE_POINT) == pytest.approx(
            value, rel=1e-12, abs=0)


@pytest.mark.parametrize("point", [ONE_POINT, QPoint(Fraction(1, 2))])
def test_dual_lp_norm_of_spin_half_entries_near_1e170(point):
    # the weighted sum of squares overflows, the norm is about 1e170
    entries = {(1, 1): 1.0, (-1, 1): 2.0, (-1, -1): 0.5}
    small = FourierArray({1: entries})
    large = FourierArray({1: {k: 1e170 * v for k, v in entries.items()}})
    for p in (1.5, 2):
        assert dual_lp_norm(large, p, point) == pytest.approx(
            1e170 * dual_lp_norm(small, p, point), rel=1e-12)


@pytest.mark.parametrize("x", [1e200, 1e-200])
def test_dual_lp_norm_of_one_far_entry_is_exact(x):
    # (x^p)^(1/p) loses the last digits of x; the scaled sum does not
    F = FourierArray({0: {(0, 0): x}})
    assert dual_lp_norm(F, 1.5, ONE_POINT) == pytest.approx(x, rel=1e-15)


@pytest.mark.parametrize("exponent", [100, 155, 160, 170, 180])
@pytest.mark.parametrize("name", ["A*A", "C*C"])
def test_float_norms_where_only_the_row_weight_leaves_the_float_range(
        pw, name, exponent):
    # at q = 10^-e the row weight q^(2m) = q^-2 of the one entry of the
    # spin-1 block passes 1e308 for e >= 155, and so does d_1 = [3]_q,
    # while the weighted square and the dual norm both round to 0
    point = QPoint(Fraction(1, 10 ** exponent))
    fhat = fourier_transform({"A*A": A * A, "C*C": C * C}[name], pw)
    (tl,) = fhat.spins()
    mat = fhat.matrix(tl)
    exact = float(evaluate(hs_norm_sq(mat, tl), point))
    assert hs_norm_sq_float(mat, point) == exact == 0.0
    assert dual_lp_norm(fhat, 2, point) == math.sqrt(
        float(evaluate(plancherel_sum(fhat), point)))


@pytest.mark.parametrize("q0", [Fraction(1, 10 ** 160), 1e-160])
def test_dual_lp_norm_where_only_the_mass_leaves_the_float_range(q0):
    # the spin-1 block [[1]] has norm 1/sqrt(3) and mass d_1 n_1 = 3 [3]_q,
    # about 3e320: the sup norm reads no mass, the l^2 norm is
    # sqrt([3]_q), about 1e160, and the l^1 norm, about 1.7e320, is inf
    point = QPoint(q0)
    F = FourierArray({2: {(0, 0): ONE}})
    assert dual_lp_norm(F, math.inf, point) == 1 / math.sqrt(3)
    assert dual_lp_norm(F, 2, point) == pytest.approx(1e160, rel=1e-12)
    assert dual_lp_norm(F, 1, point) == math.inf


@pytest.mark.parametrize("exponent", [155, 200, 300])
def test_hs_norm_sq_float_past_the_weight_range_in_range(exponent):
    # q^-2 * (q * 3)^2 = 9: the weight overflows, the weighted square does
    # not, and the float norm is that of the exact one
    point = QPoint(Fraction(1, 10 ** exponent))
    mat = {(-2, 0): 3 * Q, (2, 0): ONE}
    want = float(evaluate(hs_norm_sq(mat, 2), point))
    assert want == pytest.approx(9.0, rel=1e-12)
    assert hs_norm_sq_float(mat, point) == pytest.approx(want, rel=1e-12)


def test_dual_lp_norm_rejects_bad_p():
    with pytest.raises(ValueError):
        dual_lp_norm(FourierArray({}), 0.5, ONE_POINT)


# -- Paley constant -------------------------------------------------------------

def test_paley_single_spin():
    assert paley_constant({0: 1.0}, ONE_POINT) == pytest.approx(1.0)


def test_paley_classical_example():
    # q=1, phi(l) = 1/(2l+1), l <= 2: max_N (1/N) sum_{n<=N} n^2 = 55/5 = 11
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, 5)}
    assert paley_constant(phi, ONE_POINT) == pytest.approx(11.0)


def test_paley_scaling_homogeneity():
    rng = random.Random(105)
    phi = {tl: rng.uniform(0.1, 5.0) for tl in range(0, 7)}
    m1 = paley_constant(phi, QPoint(Fraction(1, 2)))
    m3 = paley_constant({k: 3 * v for k, v in phi.items()},
                        QPoint(Fraction(1, 2)))
    assert m3 == pytest.approx(3 * m1)


def test_paley_matches_bruteforce():
    rng = random.Random(106)
    for trial in range(40):
        # the second half draws from three values: ties at every threshold
        phi = {tl: rng.uniform(0.05, 4.0) if trial < 20
               else rng.choice((0.5, 1.0, 2.0)) for tl in range(0, 7)}
        point = QPoint(Fraction(1, 2)) if trial % 2 else ONE_POINT
        assert paley_constant(phi, point) == pytest.approx(
            paley_constant_bruteforce(phi, point), rel=1e-12)


def test_paley_empty_support_raises():
    with pytest.raises(ValueError):
        paley_constant({}, ONE_POINT)


# -- quadrature oracle ---------------------------------------------------------

def test_quadrature_normalization(grid):
    for p in (1, 2, 3.5):
        assert lp_norm_classical(UNIT, p, grid) == pytest.approx(1.0)


def test_quadrature_matches_haar_moments(grid):
    # || a ||_2 = sqrt(h(a a*)) at q=1 = sqrt(1/2)
    assert lp_norm_classical(A, 2, grid) == pytest.approx(
        math.sqrt(0.5), abs=1e-12)
    got = lp_norm_classical(B * C, 2, grid)
    want = math.sqrt(float(haar((B * C) * star(B * C)).evaluate(ONE_POINT)))
    assert got == pytest.approx(want, abs=1e-10)


def test_quadrature_lp_monotone_toward_sup(grid):
    vals = [lp_norm_classical(A, p, grid) for p in (1.5, 2, 4, 8)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1.0  # sup |a| = 1


class MeshgridSU2:
    """Oracle for SU2Grid: f from complex a, b, c, d on the full 3-D grid.

    The entries are complex arrays over the meshgrid of the nodes, each
    monomial is the product of their powers, and the weights are a 3-D
    array; SU2Grid reaches the same values through theta-profiles and
    characters, on the rows it holds.
    """

    def __init__(self, n_polar, n_phi, n_psi):
        x, wx = np.polynomial.legendre.leggauss(n_polar)
        phi = np.arange(n_phi) * (2 * np.pi / n_phi)
        psi = np.arange(n_psi) * (4 * np.pi / n_psi)
        X, PHI, PSI = np.meshgrid(x, phi, psi, indexing="ij")
        half = np.arccos(X) / 2.0
        cos_h, sin_h = np.cos(half), np.sin(half)
        self.a = cos_h * np.exp(0.5j * (PHI + PSI))
        self.b = sin_h * np.exp(0.5j * (PHI - PSI))
        self.c = -np.conj(self.b)
        self.d = np.conj(self.a)
        w = np.ones_like(X) * wx[:, None, None]
        w *= (2 * np.pi / n_phi) * (4 * np.pi / n_psi) / (16 * np.pi ** 2)
        self.weights = w

    def evaluate(self, f, point):
        total = np.zeros_like(self.a)
        for mono, coeff in f.terms.items():
            cval = complex(float(evaluate(coeff, point)))
            head = self.a if mono.head == "a" else self.d
            vals = np.ones_like(self.a)
            if mono.head_pow:
                vals = vals * head ** mono.head_pow
            if mono.b_pow:
                vals = vals * self.b ** mono.b_pow
            if mono.c_pow:
                vals = vals * self.c ** mono.c_pow
            total = total + cval * vals
        return total

    def lp_norm(self, f, p):
        vals = np.abs(self.evaluate(f, ONE_POINT))
        return float(np.sum(vals ** p * self.weights).real) ** (1 / p)


@st.composite
def monomials(draw, heads="ad", min_head_pow=0, max_degree=4):
    head = draw(st.sampled_from(heads))
    hp = draw(st.integers(min_head_pow, max_degree))
    j = draw(st.integers(0, max_degree - hp))
    k = draw(st.integers(0, max_degree - hp - j))
    return NormalMonomial(head if hp else "a", hp, j, k)


@st.composite
def elements_with_both_heads(draw, max_degree=4):
    """Elements of degree <= max_degree with an a-headed and a d-headed term."""
    monos = ([draw(monomials("a", 1, max_degree)),
              draw(monomials("d", 1, max_degree))]
             + draw(st.lists(monomials(max_degree=max_degree), max_size=5)))
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                       st.integers(1, 4))
    return AlgebraElement({m: QScalar.promote(draw(coeffs)) for m in monos})


@settings(max_examples=60, deadline=None)
@given(elements_with_both_heads())
def test_grid_matches_meshgrid_oracle_pointwise(f):
    # non-cubic grids: a mix-up of the three axes cannot go unseen; with
    # n_psi even, SU2Grid(5, 7, 6) holds rows 0..3 of the full grid
    for dims, rows in (((5, 6, 7), 6), ((5, 7, 6), 4)):
        want = MeshgridSU2(*dims).evaluate(f, ONE_POINT)[:, :rows]
        got = SU2Grid(*dims).evaluate(f, ONE_POINT)
        assert got.shape == want.shape == (5, rows, dims[2])
        assert np.all(np.abs(got - want) <= 1e-12 * (1 + np.abs(want)))


@settings(max_examples=120, deadline=None)
@given(elements_with_both_heads(), st.integers(1, 5), st.integers(1, 9),
       st.integers(1, 10), st.sampled_from((1.25, 2, 3.5)))
@example(A + D, 3, 4, 6, 1.25)   # even n_phi: row n_phi/2 has weight 1
@example(A + D, 3, 5, 7, 3.5)    # odd n_psi: no row is folded
def test_folded_grid_lp_norm_matches_full_meshgrid(f, n, n_phi, n_psi, p):
    # the half torus with mirrored rows weighted 2 is the full trapezoid sum
    grid = SU2Grid(n, n_phi, n_psi)
    assert grid.integrate(np.ones(grid.shape)) == pytest.approx(1, rel=1e-14)
    # abs: an f that vanishes at every node leaves round-off on both sides
    want = MeshgridSU2(n, n_phi, n_psi).lp_norm(f, p)
    assert lp_norm_classical(f, p, grid) == pytest.approx(want, rel=1e-13,
                                                          abs=1e-15)


def test_folded_grid_shape_and_character_size():
    # SU2Grid(4, 64, 64) holds rows 0..32; n_psi = 7 is odd: every row
    for grid, shape in ((SU2Grid(4, 64, 64), (4, 33, 64)),
                        (SU2Grid(5, 6, 7), (5, 6, 7)),
                        (SU2Grid(3, 7, 6), (3, 4, 6))):
        assert grid.shape == shape
        grid.evaluate(A + D + B * C + B * B, ONE_POINT)
        _, rows, n_psi = grid.shape
        assert all(chi.shape == (rows * n_psi,)
                   for chi in grid.characters.values())


def _inequality_workload_polys(seed, count=24):
    """The polynomials the benchmark's inequality set-up draws from seed:
    four distinct monomials of degrees 3, 3, 2, 1 in a layout drawn from
    random.Random(0), coefficients in {+-1, +-2, +-3} from the seed."""
    def of_degree(degree):
        return [NormalMonomial(head if hp else "a", hp, j, degree - hp - j)
                for head in "ad"
                for hp in range(0 if head == "a" else 1, degree + 1)
                for j in range(degree - hp + 1)]

    layout, rng = random.Random(0), random.Random(seed)
    by_degree = {d: of_degree(d) for d in (1, 2, 3)}
    polys = []
    for _ in range(count):
        terms = {}
        for d in (3, 3, 2, 1):
            m = layout.choice([m for m in by_degree[d] if m not in terms])
            terms[m] = rng.choice((-3, -2, -1, 1, 2, 3))
        polys.append(AlgebraElement({m: QScalar.promote(Fraction(c))
                                     for m, c in terms.items()}))
    return polys


def test_lp_norms_match_meshgrid_oracle_on_recorded_inputs():
    grid, oracle = SU2Grid(64, 64, 64), MeshgridSU2(64, 64, 64)
    for f in _inequality_workload_polys(seed=1):
        for p in (1.25, 1.5, 1.75, 2):
            assert lp_norm_classical(f, p, grid) == pytest.approx(
                oracle.lp_norm(f, p), rel=1e-13, abs=0)


def test_grid_of_zero_and_unit():
    grid = SU2Grid(5, 6, 7)
    zero = grid.evaluate(AlgebraElement({}), ONE_POINT)
    assert zero.shape == (5, 6, 7) and not zero.any()
    assert lp_norm_classical(AlgebraElement({}), 1.5, grid) == 0.0
    assert np.array_equal(grid.evaluate(UNIT, ONE_POINT), np.ones((5, 6, 7)))
    assert grid.integrate(np.ones(grid.shape)) == pytest.approx(1.0, rel=1e-14)


def test_grid_character_table_is_keyed_by_doubled_frequencies():
    grid = SU2Grid(5, 6, 7)
    f = A + D + B * C + B * B
    grid.evaluate(f, ONE_POINT)
    # a: (1, 1); d: (-1, -1); bc: (0, 0); b^2: (2, -2)
    assert sorted(grid.characters) == [(-1, -1), (0, 0), (1, 1), (2, -2)]
    # a is in the table already; b^2 c: (1, -1)
    grid.evaluate(A + B * B * C, ONE_POINT)
    assert len(grid.characters) == 5


def _sums_of_two_monomials(degree):
    """f = m + m' for every pair of normal monomials of degree <= degree."""
    monos = [NormalMonomial(head, h, j, deg - h - j)
             for deg in range(degree + 1) for h in range(deg + 1)
             for j in range(deg - h + 1) for head in ("ad" if h else "a")]
    return [AlgebraElement({m: 1, m2: 1})
            for i, m in enumerate(monos) for m2 in monos[i + 1:]]


def _l2_misread(f, n):
    """|grid L^2 norm - sqrt h(f f*)| / sqrt h(f f*) on the n^3 grid."""
    exact = math.sqrt(float(evaluate(haar(f * star(f)), ONE_POINT)))
    got = lp_norm_classical(f, 2, SU2Grid(n, n, n))
    return abs(got - exact) / exact


@pytest.mark.parametrize("degree, f, misread", [
    (1, C + D, 0.57), (2, A * C + D * B, 1.0),
    (3, A * A * C + D * B * B, 0.66)], ids=["c+d", "ac+db", "a2c+db2"])
def test_grid_floor_reads_the_l2_norm_exactly(degree, f, misread):
    # check_grid's floor n = 2 degree + 1 reads ||f||_2 of every sum of two
    # monomials of degree <= degree to rounding; one node fewer misreads f
    floor = 2 * degree + 1
    check_grid(floor, degree)
    for g in _sums_of_two_monomials(degree):
        assert _l2_misread(g, floor) <= 4.1e-16
    with pytest.raises(ValueError, match=f"at least {floor} nodes"):
        check_grid(floor - 1, degree)
    assert round(_l2_misread(f, floor - 1), 2) == misread


def test_quadrature_rejects_q_not_one(grid):
    with pytest.raises(ValueError):
        lp_norm_classical(A, 3, grid, QPoint(Fraction(1, 2)))


@pytest.mark.parametrize("p", [0, -1, 0.5, 1 - 1e-12, math.nan, -math.inf])
def test_quadrature_rejects_p_below_one(grid, p):
    with pytest.raises(ValueError, match="p must be >= 1"):
        lp_norm_classical(A, p, grid)


def test_quadrature_sup_norm_is_the_largest_value_held(grid):
    # |2a| = 2 cos(theta/2) peaks at the theta node nearest 0, below 2
    for f in (2 * A, A + D + B * C, B * B * C):
        want = float(np.abs(grid.evaluate(f, ONE_POINT)).max())
        assert lp_norm_classical(f, math.inf, grid) == want
    assert 1.99 < lp_norm_classical(2 * A, math.inf, grid) < 2
    assert lp_norm_classical(AlgebraElement({}), math.inf, grid) == 0.0
    # the held rows suffice: mirror rows hold conjugate values
    for dims in ((5, 6, 7), (5, 7, 6)):
        want = float(np.abs(MeshgridSU2(*dims).evaluate(A + B * B * C,
                                                        ONE_POINT)).max())
        assert lp_norm_classical(A + B * B * C, math.inf,
                                 SU2Grid(*dims)) == pytest.approx(want,
                                                                  rel=1e-14)


def _full_array_lp(grid, f, p):
    """The L^p norm from f on the whole grid at once."""
    return grid.integrate(np.abs(grid.evaluate(f, ONE_POINT)) ** p) ** (1 / p)


# the small grids of the streamed-norm test, and the elements it takes there
_STREAMED_GRIDS = ((5, 6, 7), (3, 7, 6), (17, 9, 10), (50, 50, 50),
                   (33, 8, 8), (1, 4, 4))


def _streamed_extra():
    return _inequality_workload_polys(seed=2)[:4] + [A + D + B * C, UNIT]


def test_streamed_lp_norm_is_the_full_array_route(monkeypatch):
    # blocks start at multiples of 16 rows, so the streamed sums are
    # those of one product over the grid, bit for bit; a block as tall
    # as the grid is that one product
    cases = [(SU2Grid(64, 64, 64), _inequality_workload_polys(seed=1),
              (1.25, 1.5, 1.75))]
    extra = _streamed_extra()
    cases += [(SU2Grid(*dims), extra, (1, 1.25, 1.5, 2, 3.5))
              for dims in _STREAMED_GRIDS]
    for grid, polys, ps in cases:
        for f in polys:
            streamed = [lp_norm_classical(f, p, grid) for p in ps]
            assert streamed == [_full_array_lp(grid, f, p) for p in ps]
            values = grid.evaluate(f, ONE_POINT)
            with monkeypatch.context() as m:
                m.setattr(fourier_module, "_THETA_BLOCK", 10 ** 6)
                assert np.array_equal(grid.evaluate(f, ONE_POINT), values)
                assert [lp_norm_classical(f, p, grid)
                        for p in ps] == streamed


def test_real_gemm_is_the_complex_product():
    # the real product on the interleaved (re, im) characters forms the
    # sums of the complex product, bit for bit, on the recorded inequality
    # inputs and on every streamed-test grid of >= 2 theta and torus nodes
    grid = SU2Grid(64, 64, 64)
    for f in (_inequality_workload_polys(seed=1)
              + _inequality_workload_polys(seed=2)):
        assert np.array_equal(
            grid.evaluate(f, ONE_POINT),
            value_blocks_by_complex_product(grid, f, ONE_POINT))
    # one theta node makes every product a one-row gemv, and one torus
    # node makes the complex product a gemv against the real gemm of its
    # (re, im) pair; numpy's gemv and gemm kernels round differently, so
    # these two grids agree only to the last bits
    gemv = ((1, 4, 4), (5, 1, 1))
    for dims in _STREAMED_GRIDS + gemv[1:]:
        grid = SU2Grid(*dims)
        for f in _streamed_extra():
            got = grid.evaluate(f, ONE_POINT)
            want = value_blocks_by_complex_product(grid, f, ONE_POINT)
            if dims in gemv:
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
            else:
                assert np.array_equal(got, want)


def test_lp_norm_holds_no_full_grid_array():
    grid = SU2Grid(128, 128, 128)
    full = np.empty(grid.shape, dtype=complex).nbytes
    assert full == 16.25 * 2 ** 20
    f = _inequality_workload_polys(seed=1)[0]
    lp_norm_classical(f, 1.5, grid)  # fills the character table
    tracemalloc.start()
    try:
        lp_norm_classical(f, 1.5, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full / 4


# -- inequality harness ----------------------------------------------------------

def test_hy_equality_at_p2(pw, grid):
    rng = random.Random(107)
    for _ in range(5):
        f = random_element(rng, 3, 4)
        r = inequality_ratio("hausdorff-young", f, {"p": 2}, pw,
                             ONE_POINT, grid)
        assert r["ratio"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p", [4 / 3, 3 / 2])
def test_hy_bounded_by_one(pw, grid, p):
    rng = random.Random(108)
    for _ in range(8):
        f = random_element(rng, 3, 4)
        r = inequality_ratio("hausdorff-young", f, {"p": p}, pw,
                             ONE_POINT, grid)
        assert r["ratio"] <= 1 + 1e-5


def test_hy_p2_any_q(pw):
    # at p = 2 the L^2 side is available at every q; ratio is exactly 1
    point = QPoint(Fraction(1, 2))
    rng = random.Random(109)
    f = random_element(rng, 3, 4)
    r = inequality_ratio("hausdorff-young", f, {"p": 2}, pw, point)
    assert r["ratio"] == pytest.approx(1.0, abs=1e-10)


def test_lp_away_from_q1_rejected(pw):
    with pytest.raises(ValueError):
        inequality_ratio("hausdorff-young", A, {"p": 1.5}, pw,
                         QPoint(Fraction(1, 2)))


def test_p_range_enforced(pw, grid):
    with pytest.raises(ValueError):
        inequality_ratio("hausdorff-young", A, {"p": 2.5}, pw,
                         ONE_POINT, grid)
    with pytest.raises(ValueError):
        inequality_ratio("hy-paley", A, {"p": 1.5, "b": 9.0,
                                         "phi": {tl: 1.0 for tl in range(4)}},
                         pw, ONE_POINT, grid)


def test_paley_inequality_reported(pw, grid):
    rng = random.Random(110)
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, 8)}
    f = random_element(rng, 3, 4)
    r = inequality_ratio("paley", f, {"p": 1.5, "phi": phi}, pw,
                         ONE_POINT, grid)
    assert r["lhs"] > 0 and r["rhs_without_constant"] > 0
    assert math.isfinite(r["ratio"])


def test_hy_paley_interpolates(pw, grid):
    rng = random.Random(111)
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, 8)}
    f = random_element(rng, 3, 4)
    p = 1.5
    r = inequality_ratio("hy-paley", f, {"p": p, "b": 2.0, "phi": phi},
                         pw, ONE_POINT, grid)
    assert math.isfinite(r["ratio"]) and r["ratio"] > 0


def test_hardy_littlewood_stable_as_lmax_grows(pw, grid):
    # lambda_l = 2l+1, beta = 3, p = 3/2: finite ratio, stable in l_max
    rng = random.Random(112)
    lam = {tl: tl + 1 for tl in range(0, 9)}
    ratios = []
    for tl_max in (2, 4, 6):
        f = random_element(rng, min(3, tl_max), 4)
        r = inequality_ratio(
            "hardy-littlewood", f,
            {"p": 1.5, "beta": 3.0, "lambda_weights": lam},
            pw, ONE_POINT, grid)
        ratios.append(r["ratio"])
    assert all(math.isfinite(x) for x in ratios)


@pytest.mark.parametrize("beta, kind", [
    (3.0, "hausdorff-young"), (3.0, "paley"), (3.0, "hy-paley")] + [
    (beta, kind) for beta in (3.0, -2400.0, -5000.0, -8000.0)
    for kind in ("hardy-littlewood", "cor-5.8")])
def test_dirac_weighted_lhs_matches_log_domain_oracle(pw, kind, beta):
    # every kind's left side is (sum_l d_l n_l (h_l base_l^e)^r)^(1/r),
    # h_l = ||fhat(l)||_HS / sqrt(n_l); summed here in the log domain.
    # The |lambda_l|-weighted plain sums overflow from beta -2400
    # (hardy-littlewood) and -5000 (cor-5.8) on; the left side leaves the
    # float range at -5000 (hl) and -8000 (both), and is about 1e241 and
    # 1e251 before
    p, b, f = 1.5, 2.0, random_element(random.Random(42), 3, 4)
    grid = SU2Grid(8, 8, 8)
    lam = {tl: tl + 1 for tl in range(0, 9)}
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, 9)}
    r, base, e = {
        "hausdorff-young": (p / (p - 1), lam, 0.0),
        "paley": (p, phi, (2 - p) / p),
        "hy-paley": (b, phi, 1 / b - (p - 1) / p),
        "hardy-littlewood": (p, lam, beta * (p - 2) / p),
        "cor-5.8": (p, lam, beta * (0.5 - 1 / p)),
    }[kind]
    logs = []
    for tl, mat in fourier_transform(f, pw).coeffs.items():
        dn = float(evaluate(quantum_dimension(tl), ONE_POINT)) * (tl + 1)
        hs = math.sqrt(hs_norm_sq_float(mat, ONE_POINT) / (tl + 1))
        logs.append(math.log(dn) + r * (math.log(hs) + e * math.log(base[tl])))
    top = max(logs)
    log_lhs = (top + math.log(math.fsum(math.exp(t - top) for t in logs))) / r
    out = inequality_ratio(kind, f, {"p": p, "b": b, "beta": beta, "phi": phi,
                                     "lambda_weights": lam},
                           pw, ONE_POINT, grid)
    if log_lhs > math.log(sys.float_info.max):
        assert out["lhs"] == math.inf
    else:
        assert math.isclose(out["lhs"], math.exp(log_lhs), rel_tol=1e-9)
    m_phi = paley_constant(phi, ONE_POINT) ** e if base is phi else 1.0
    assert math.isclose(out["rhs_without_constant"],
                        m_phi * lp_norm_classical(f, p, grid, ONE_POINT),
                        rel_tol=1e-12)


def test_cor58_dirac_weighted(pw, grid):
    lam = {tl: tl + 1 for tl in range(0, 9)}
    r = inequality_ratio("cor-5.8", A + D,
                         {"p": 1.5, "beta": 3.0, "lambda_weights": lam},
                         pw, ONE_POINT, grid)
    assert math.isfinite(r["ratio"]) and r["lhs"] > 0
