"""Fourier analysis on the dual of the quantum SU(2).

The transform pairs an algebra element f with its matrix coefficients
fhat(l)_ij = h(f (t^l_ji)*) over the unitary Peter-Weyl entries; the
inverse is f = sum_l d_l Tr((Q^l)^-1 fhat(l) t^l).  Both directions are
exact: entries are QScalar or single-term QRadical values whose gauge
radicals cancel against the entries' own normalizers on the way back.
The inverse hands its coefficients to PWTable.reconstruct.

Float entries arise only from a numeric power of |D|
(spectral.abs_dirac_power); only the float norms (dual_lp_norm,
hs_norm_sq_float, multiplier.operator_norm) read them.  Every exact
operation -- the inverse, symbol application, hs_norm_sq -- raises
TypeError on a float entry.

Dual-space norms follow the quantum-dimension weighting

    ||sigma||_p = ( sum_l d_l n_l (||sigma(l)||_HS / sqrt(n_l))^p )^(1/p),

with ||sigma(l)||_HS^2 = Tr (Q^l)^-1 sigma sigma* = sum_m q^(2m) sum_n
|sigma_mn|^2 (the displayed trace is homogeneous of degree two, so it is
read as the squared norm).  The Paley constant, the classical-limit
quadrature oracle for L^p norms, and the inequality verification harness
(Hausdorff-Young, Paley, Hausdorff-Young-Paley, Hardy-Littlewood, and
the Dirac-weighted variant) live here as well.

L^p(G) norms at q != 1 are only available for p = 2 (through the Haar
state); the harness verifies the q-generic Fourier-side quantities
exactly and the full two-sided inequalities in the classical limit.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from itertools import groupby

from .qarith import (
    QRadical, QPoint, ZERO, ONE, _acc, evaluate, is_zero,
    normalize_scalar, shifted_sum,
)
from .algebra import grade, l2_inner, row_grade, _promote_elem
from .peterweyl import quantum_dimension, q_weight

__all__ = [
    "FourierArray", "fourier_transform", "inverse_fourier",
    "hs_norm_sq", "hs_norm_sq_float", "matrix_multiply",
    "matrix_adjoint", "dual_lp_norm", "plancherel_sum",
    "paley_constant",
    "SU2Grid", "lp_norm_classical", "check_inequality", "check_grid",
    "inequality_ratio",
]


# ---------------------------------------------------------------------------
# matrices on the dual: dict (tm, tn) -> scalar, weights doubled
# ---------------------------------------------------------------------------

class FourierArray:
    """Finite map  spin -> (2l+1)x(2l+1) matrix  in the unitary gauge.

    Matrices are sparse dicts keyed by doubled weights; entries are exact
    scalars (QScalar/QRadical).  Float entries come only from a numeric
    power of |D|, and only the float norms read them.  The same container
    represents transforms fhat and multiplier symbols.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        # a declared spin block is kept even when its entries all vanish:
        # symbol support is authoritative, a zero block is not a missing one
        cleaned = {}
        for tl, mat in (coeffs or {}).items():
            entries = {}
            for key, val in mat.items():
                val = normalize_scalar(val)
                if is_zero(val):
                    continue
                _check_key(tl, key)
                entries[key] = val
            cleaned[tl] = entries
        self.coeffs = cleaned

    @staticmethod
    def identity(twice_ls):
        return FourierArray.diagonal(dict.fromkeys(twice_ls, ONE))

    @staticmethod
    def diagonal(values):
        """values: {twice_l: scalar or {tw: scalar}} -> diagonal array."""
        out = {}
        for tl, val in values.items():
            if isinstance(val, dict):
                out[tl] = {(tw, tw): v for tw, v in val.items()}
            else:
                out[tl] = {(tw, tw): val for tw in range(-tl, tl + 1, 2)}
        return FourierArray(out)

    def spins(self):
        return sorted(self.coeffs)

    def matrix(self, tl):
        return dict(self.coeffs.get(tl, {}))

    def entry(self, tl, tm, tn):
        return self.coeffs.get(tl, {}).get((tm, tn), ZERO)

    def map_entries(self, fn):
        return FourierArray({tl: {k: fn(tl, k, v) for k, v in mat.items()}
                             for tl, mat in self.coeffs.items()})

    def __add__(self, other):
        out = {tl: dict(mat) for tl, mat in self.coeffs.items()}
        for tl, mat in other.coeffs.items():
            dst = out.setdefault(tl, {})
            for k, v in mat.items():
                _acc(dst, k, v)
        return FourierArray(out)

    def __sub__(self, other):
        return self + other.map_entries(lambda tl, k, v: -v)

    def __eq__(self, other):
        return isinstance(other, FourierArray) and self.coeffs == other.coeffs

    def is_zero(self):
        return all(not mat for mat in self.coeffs.values())

    def __repr__(self):
        lines = []
        for tl in self.spins():
            lines.append(f"l={Fraction(tl, 2)}: {self.coeffs[tl]}")
        return "FourierArray(" + "; ".join(lines) + ")"


def _check_key(tl, key):
    tm, tn = key
    rng = range(-tl, tl + 1, 2)
    if tm not in rng or tn not in rng:
        raise ValueError(f"entry {key} outside the spin-{Fraction(tl,2)} block")


def matrix_multiply(m1, m2):
    """Sparse product of two blocks {(row, col): value}."""
    out = {}
    by_row = {}
    for (tm, tk), v in m1.items():
        by_row.setdefault(tk, []).append((tm, v))
    for (tk, tn), w in m2.items():
        for tm, v in by_row.get(tk, []):
            _acc(out, (tm, tn), v * w)
    return out


def matrix_adjoint(mat):
    """Conjugate transpose; all exact scalars here are real."""
    return {(tn, tm): v for (tm, tn), v in mat.items()}


# ---------------------------------------------------------------------------
# transform and inverse
# ---------------------------------------------------------------------------

def fourier_transform(f, pw):
    """fhat(l)_ij = h(f (t^l_ji)*), exactly, over the spins where f lives.

    In terms of the T-basis expansion f = sum c_mn T_mn and the gram data
    this is fhat_ij = gamma(i,j) q_i c_(j,i) / d_l, where gamma is the
    unitary gauge radical and q_i the Q-weight of the row index.
    """
    f = _promote_elem(f)
    expansion = pw.pw_expand(f)
    out = {}
    for tl, cmat in expansion.items():
        d = quantum_dimension(tl)
        out[tl] = pw.gauge(tl, {(tn, tm): q_weight(tn) * c / d
                                for (tm, tn), c in cmat.items()})
    return FourierArray(out)


def inverse_fourier(arr, pw):
    """f = sum_l d_l Tr((Q^l)^-1 fhat(l) t^l), exactly.

    Note the trace ordering: (Q^l)^-1 fhat pi is the unique ordering
    consistent with the transform and the orthogonality relations (the
    round trip and the Plancherel identity both hold exactly with it).
    Componentwise: f = sum_l d_l sum_ij (1/q_i) fhat(l)_ij t^l_ji, with
    t^l_ji = gamma(j,i) T^l_ji, so the T-basis coefficients go to
    PWTable.reconstruct.
    """
    coeffs = {}
    for tl, mat in arr.coeffs.items():
        d = quantum_dimension(tl)
        block = pw.gauge(tl, {(tj, ti): val * (d / q_weight(ti))
                              for (ti, tj), val in mat.items()})
        coeffs[tl] = {key: normalize_scalar(v) for key, v in block.items()}
    return pw.reconstruct(coeffs)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt and lp norms on the dual
# ---------------------------------------------------------------------------

def hs_norm_sq(mat, tl):
    """||sigma(l)||_HS^2 = sum_m q^(2m) sum_n |sigma_mn|^2, exactly.

    The norm is one shifted_sum of the entry squares: TypeError for a
    float entry, ArithmeticError for a square outside the base field,
    ValueError for a key outside the block.
    """
    squares = []
    for (tm, tn), v in mat.items():
        _check_key(tl, (tm, tn))
        if isinstance(v, float):
            raise TypeError("float entries: use hs_norm_sq_float with a QPoint")
        sq = v.square()
        if isinstance(sq, QRadical):
            raise ArithmeticError("entry square left the base field")
        squares.append((2 * tm, sq))
    return shifted_sum(squares)


def _float_entries(mat, point):
    """(row weight q^(2m), entry) pairs as floats at point.

    Where the weight alone leaves the float range, the pair is
    (1, |entry| q^m): its root moves into the entry, taken by
    _times_power, so the weighted square stays in range where it is.
    """
    for (tm, _), v in mat.items():
        try:
            w = float(point.q0) ** tm
        except OverflowError:
            yield 1.0, _times_power(abs(float(evaluate(v, point))),
                                    float(point.q0), tm / 2)
        else:
            yield w, float(evaluate(v, point))


def hs_norm_sq_float(mat, point):
    """hs_norm_sq of a block with exact or float entries, as a float."""
    total = 0.0
    for w, fv in _float_entries(mat, point):
        total += w * fv * fv
    return total


def plancherel_sum(arr):
    """sum_l d_l ||fhat(l)||_HS^2, exactly (equals h(f f*))."""
    total = ZERO
    for tl, mat in arr.coeffs.items():
        total = total + quantum_dimension(tl) * hs_norm_sq(mat, tl)
    return total


def _blocks(arr, point):
    """(twice_l, ||arr(l)||_HS / sqrt(n_l)) per spin, floats at point.

    The plain sum of squares is taken first; only when it is not in the
    float range (inf, or 0: underflow or an empty block) is the norm
    taken by _weighted_lp, which scales the entries by the largest.
    """
    for tl, mat in arr.coeffs.items():
        sq = hs_norm_sq_float(mat, point)
        if 0 < sq < math.inf:
            hs = math.sqrt(sq)
        else:
            hs = _weighted_lp([(w, abs(fv)) for w, fv
                               in _float_entries(mat, point)], 2)
        yield tl, hs / math.sqrt(tl + 1)


def _mass_pair(tl, x, point, p):
    """The pair (d_l n_l, x) of one block in a weighted l^p sum at point.

    A block with x = 0 adds 0 to every weighted sum, so its d_l n_l is
    not evaluated: the pair is (0, 0).  Where d_l n_l leaves the float
    range, it moves into x as (1, x (d_l n_l)^(1/p)), formed from
    logarithms as _times_power forms a row weight, so w x^p keeps its
    value; inf only where that is past the float range too.
    """
    if not x:
        return 0.0, 0.0
    try:
        return _dn_at(tl, point), x
    except OverflowError:
        pass
    try:
        return 1.0, math.exp(math.log(x) + _log_dn(tl, point) / p)
    except OverflowError:
        return 1.0, math.inf


def dual_lp_norm(arr, p, point):
    """The lp(dual) norm at a numeric point; p in [1, inf].

    At p = inf it is the largest block norm, and no d_l n_l is evaluated.
    """
    if p != math.inf and p < 1:
        raise ValueError("p must be >= 1")
    if p == math.inf:
        return max((x for _, x in _blocks(arr, point)), default=0.0)
    return _weighted_lp([_mass_pair(tl, x, point, p)
                         for tl, x in _blocks(arr, point)], p)


def _weighted_lp(blocks, p):
    """(sum of w * x^p)^(1/p) over the (w, x) pairs, x >= 0, in float range.

    The plain sum is taken only when the largest x lies in [2^-16, 2^16]
    and the sum neither overflows nor underflows to 0; otherwise the x
    are scaled by the largest before they are raised to p, so a lone x
    far from 1 comes back exactly rather than through (x^p)^(1/p).
    """
    top = max((x for _, x in blocks), default=0.0)
    if top in (0, math.inf):
        return top
    if 2.0 ** -16 <= top <= 2.0 ** 16:
        try:
            total = sum(w * x ** p for w, x in blocks)
        except OverflowError:
            total = math.inf
        if 0 < total < math.inf:
            return total ** (1 / p)
    return top * sum(w * (x / top) ** p for w, x in blocks) ** (1 / p)


def _times_power(x, base, e):
    """x * base^e for x >= 0, base > 0: inf or 0 only past the float range.

    base^e is taken first; only when it leaves the float range is the
    product formed from logarithms.
    """
    try:
        w = base ** e
    except OverflowError:
        w = math.inf
    if 0 < w < math.inf:
        return x * w
    if x == 0:
        return 0.0
    try:
        return math.exp(math.log(x) + e * math.log(base))
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Paley constant
# ---------------------------------------------------------------------------

def _dn_at(tl, point):
    """d_l n_l as a float at point."""
    return float(evaluate(quantum_dimension(tl), point)) * (tl + 1)


def _log_dn(tl, point):
    """log(d_l n_l) at point, for a d_l n_l past the float range.

    With n = 2l+1 and b = b_q > 1, [n]_q = b^(n-1) (1 - b^(-2n))/(1 - b^(-2));
    b is read through its logarithm, so a rational b past the float range
    is read as well.
    """
    n, b = tl + 1, point.b_q
    log_b = (math.log(b.numerator) - math.log(b.denominator)
             if isinstance(b, Fraction) else math.log(b))
    return ((n - 1) * log_b + math.log(-math.expm1(-2 * n * log_b))
            - math.log(-math.expm1(-2 * log_b)) + math.log(n))


def _level_set_sup(values, point, expo):
    """sup_t t (sum_(values[l] >= t) d_l n_l)^expo over t > 0, or 0.

    Between consecutive values the level set is fixed and the map grows
    with t, so the sup runs over the positive values, each tie one level.
    """
    best = mass = 0.0
    items = sorted(values.items(), key=lambda kv: -kv[1])
    for t, level in groupby(items, key=lambda kv: kv[1]):
        if t <= 0:
            break
        for tl, _ in level:
            mass += _dn_at(tl, point)
        best = max(best, t * mass ** expo)
    return best


def paley_constant(phi, point):
    """M_phi = sup_t t * sum_{phi(l) >= t} d_l n_l, phi > 0 on its support."""
    if not phi:
        raise ValueError("empty support")
    if any(v <= 0 for v in phi.values()):
        raise ValueError("phi must be positive on its support")
    return _level_set_sup(phi, point, 1)


# ---------------------------------------------------------------------------
# classical limit: quadrature on SU(2)
# ---------------------------------------------------------------------------

# Rows of theta per block of SU2Grid._value_blocks.  Each block is one
# real gemm of the theta-profiles with the characters read as interleaved
# (re, im) floats: the profiles are real, so no multiply lands on a zero
# imaginary part (the real-operand case of the 4m method, Van Zee and
# Smith, ACM TOMS 44(1), 2017), and every sum is the one the complex
# product forms.  OpenBLAS groups the output rows of its gemm and gemv
# kernels in sizes that divide 16, so blocks that start at multiples of
# 16 give the same sums, bit for bit, as one product over the whole grid
# (15-row blocks change the last digits).  A lone last row joins the
# block before it: numpy takes a one-row product by gemv, which rounds
# that row differently from gemm.  A grid of one theta node is that case
# whole, and one of one torus node makes the complex product a gemv: on
# those grids the real gemm may differ from the complex product in the
# last bit.  A block holds at most 17 x (held rows) x n_psi values.
_THETA_BLOCK = 16


class SU2Grid:
    """Product quadrature on SU(2) in Euler angles, held as 1-D data.

    Gauss-Legendre in cos(theta), trapezoid in the two periodic angles
    (phi of period 2pi, psi of period 4pi); the normalized Haar measure
    is sin(theta) dtheta dphi dpsi / (16 pi^2).  Matrix entries:

        a = cos(theta/2) e^(i(phi+psi)/2)     b = sin(theta/2) e^(i(phi-psi)/2)
        c = -conj(b)                          d = conj(a)

    A monomial a^h b^j c^k (d^h b^j c^k) therefore factors into a real
    theta-profile and one character of the two periodic angles,

        (-1)^k cos^h(theta/2) sin^(j+k)(theta/2) e^(i(mu phi + nu psi)),

    with m = +h for head a and -h for head d, n = j - k, and doubled
    frequencies (2 mu, 2 nu) = (m + n, m - n), the monomial's bidegree
    (row_grade, grade): the Wigner split
    D^l_mn = e^(-i m phi) d^l_mn(theta) e^(-i n psi).

    Conjugation symmetry.  At a real point every coefficient is a real
    float, so f(theta, -phi, -psi) = conj f(theta, phi, psi) and |f|^p is
    mirror-symmetric.  The torus is periodic under (2pi, 2pi) and
    (0, 4pi), so the mirror of node (phi_j, psi_k) is the node
    (phi_(n_phi - j), 2pi - psi_k) whenever n_psi is even: row n_phi - j
    holds the values of row j, conjugated and permuted along psi.  The grid
    then keeps rows j = 0 .. n_phi // 2 only, with torus weight 1 on row 0,
    2 on rows 1 .. (n_phi - 1) // 2 (each stands for its mirror too), and
    1 on row n_phi / 2 when n_phi is even (rows 0 and n_phi / 2 are their
    own mirrors).  When n_psi is odd the mirror falls between the psi
    nodes, and the grid keeps every row at weight 1.

    The grid holds only 1-D nodes: cos_half and sin_half (cos and sin of
    theta/2 at the Gauss-Legendre nodes), phi (the held rows) and psi,
    the theta weights theta_weights with the constant trapezoid factor
    (2pi/n_phi)(4pi/n_psi)/(16pi^2) folded in, and torus_weights, the
    row weights above repeated along psi.  Its one cache is the character
    table `characters`, {(2 mu, 2 nu): e^(i(mu phi + nu psi)) flattened
    over the held rows x n_psi periodic grid}, filled as f meets new
    frequencies; len(grid.characters) is its size.

    Values are computed in blocks of 16 theta rows (_THETA_BLOCK), each
    one real matrix product of the theta-profiles with the characters
    read as interleaved (re, im) floats, and each reduced before the next
    is built: lp_norm_classical never holds f on the whole grid, so its
    working memory grows with n_phi * n_psi, not with
    n_theta * n_phi * n_psi.  evaluate assembles the same blocks into the
    full array.
    """

    def __init__(self, n_polar=64, n_phi=64, n_psi=64):
        import numpy as np
        x, wx = np.polynomial.legendre.leggauss(n_polar)
        half = np.arccos(x) / 2.0
        self.cos_half, self.sin_half = np.cos(half), np.sin(half)
        rows = np.ones(n_phi // 2 + 1 if n_psi % 2 == 0 else n_phi)
        if n_psi % 2 == 0:
            rows[1:(n_phi + 1) // 2] = 2.0
        self.phi = np.arange(len(rows)) * (2 * np.pi / n_phi)
        self.psi = np.arange(n_psi) * (4 * np.pi / n_psi)
        self.theta_weights = wx * ((2 * np.pi / n_phi) * (4 * np.pi / n_psi)
                                   / (16 * np.pi ** 2))
        self.torus_weights = np.repeat(rows, n_psi)
        self.characters = {}

    @property
    def shape(self):
        """(n_polar, held rows, n_psi): the shape of evaluate's values."""
        return len(self.cos_half), len(self.phi), len(self.psi)

    def _character(self, key):
        import numpy as np
        chi = self.characters.get(key)
        if chi is None:
            mu2, nu2 = key
            chi = np.outer(np.exp(0.5j * mu2 * self.phi),
                           np.exp(0.5j * nu2 * self.psi)).ravel()
            self.characters[key] = chi
        return chi

    def _factors(self, f, point):
        """(theta, chars): f's n_theta x K real theta-profiles and its
        K x (held rows x n_psi) complex characters, one per column of
        theta.  The terms are grouped by character, and each group's
        theta-profile is the sum of its terms' profiles.
        """
        import numpy as np
        f = _promote_elem(f)
        profiles = {}
        for mono, coeff in f.terms.items():
            h, j, k = mono.head_pow, mono.b_pow, mono.c_pow
            key = (row_grade(mono), grade(mono))
            scale = float(evaluate(coeff, point)) * (-1.0 if k % 2 else 1.0)
            prof = scale * self.cos_half ** h * self.sin_half ** (j + k)
            profiles[key] = profiles[key] + prof if key in profiles else prof
        theta = np.empty((len(self.cos_half), len(profiles)))
        chars = np.empty((len(profiles), len(self.torus_weights)),
                         dtype=complex)
        for col, (key, prof) in enumerate(profiles.items()):
            theta[:, col] = prof
            chars[col] = self._character(key)
        return theta, chars

    def _value_blocks(self, f, point):
        """Yield (s, values of f on theta rows s, s+1, ...), block by block.

        Each block is the real product of _THETA_BLOCK rows (a lone last
        row joins the block before it) of f's theta-profiles with its
        characters read as interleaved (re, im) floats (_factors), written
        into one complex buffer, seen as floats, that the next block
        overwrites.
        """
        import numpy as np
        theta, chars = self._factors(f, point)
        n = len(theta)
        buf = np.empty((min(_THETA_BLOCK + 1, n), chars.shape[1]),
                       dtype=complex)
        reals, out = chars.view(float), buf.view(float)
        for s in range(0, max(n - 1, 1), _THETA_BLOCK):
            e = n if s + _THETA_BLOCK >= n - 1 else s + _THETA_BLOCK
            np.matmul(theta[s:e], reals, out=out[:e - s])
            yield s, buf[:e - s]

    def evaluate(self, f, point):
        """Pointwise values of f at the held nodes (complex, self.shape)."""
        import numpy as np
        values = np.empty(self.shape, dtype=complex)
        rows = values.reshape(len(values), -1)
        for s, block in self._value_blocks(f, point):
            rows[s:s + len(block)] = block
        return values

    def integrate(self, values):
        """The quadrature sum of values at the held nodes (real part).

        values must come from a conjugation-symmetric function, such as
        |f|^p, or be f itself, evaluated at a real point: a mirrored row's
        sum is then its held row's sum (for f, conjugated, so the real part
        is still right).  The values are contracted with torus_weights,
        then with theta_weights.
        """
        import numpy as np
        periodic = (values.reshape(len(self.theta_weights), -1)
                    @ self.torus_weights)
        return float(np.dot(self.theta_weights, periodic).real)


def lp_norm_classical(f, p, grid, point=None):
    """(integral |f|^p dg)^(1/p) on the classical group, p in [1, inf];
    q must be 1.  At p = inf, the largest |f| over the held nodes.

    |f|^p is taken and contracted with torus_weights one theta block at
    a time, so no array of the full grid's size is held; the per-theta
    sums are then contracted with theta_weights, as integrate does.
    """
    import numpy as np
    if not p >= 1:
        raise ValueError("p must be >= 1")
    point = point or QPoint(1)
    if not point.is_one:
        raise ValueError("classical L^p quadrature requires q = 1")
    n_theta = len(grid.theta_weights)
    periodic = np.empty(n_theta)
    mags = np.empty((min(_THETA_BLOCK + 1, n_theta),
                     len(grid.torus_weights)))
    top = 0.0
    for s, block in grid._value_blocks(f, point):
        mag = np.abs(block, out=mags[:len(block)])
        if p == math.inf:
            top = max(top, float(mag.max()))
        else:
            # in place, as the oracle's ** p: numpy squares when p = 2
            mag **= p
            np.matmul(mag, grid.torus_weights, out=periodic[s:s + len(mag)])
    if p == math.inf:
        return top
    return float(np.dot(grid.theta_weights, periodic)) ** (1 / p)


# ---------------------------------------------------------------------------
# inequality harness
# ---------------------------------------------------------------------------

_KINDS = ("hausdorff-young", "paley", "hy-paley", "hardy-littlewood",
          "cor-5.8")


def _lp_side(f, p, point, grid):
    """||f||_Lp: the Haar state when p=2, else quadrature (q = 1 only)."""
    if p == 2:
        return math.sqrt(float(evaluate(l2_inner(f, f), point)))
    if grid is None:
        raise ValueError("a quadrature grid is required for p != 2")
    return lp_norm_classical(f, p, grid, point)


def check_inequality(kind, p, b, point):
    """Raise ValueError unless kind can be checked with p (and b) at point.

    Every kind needs 1 < p <= 2; away from q = 1 the L^p side exists only
    for p = 2; hy-paley also needs p <= b <= p'.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if not 1 < p <= 2:
        raise ValueError("the inequalities need 1 < p <= 2")
    if p != 2 and not point.is_one:
        raise ValueError(
            f"L^{p} at q={_short_text(point.q0)} is unsupported "
            "(only p=2 away from q=1)")
    if kind == "hy-paley" and not p <= b <= p / (p - 1):
        raise ValueError("hy-paley needs p <= b <= p'")


def check_grid(n, degree):
    """Raise ValueError unless SU2Grid(n, n, n) integrates |f|^2 exactly
    for every f of degree at most degree: |f|^2 has psi-frequencies up to
    2 degree in units of 1/2 (psi has period 4pi), and the n-node
    trapezoid rule is exact to trigonometric degree n - 1."""
    if n < 2 * degree + 1:
        raise ValueError(
            f"the grid needs at least {2 * degree + 1} nodes per angle to "
            f"integrate |f|^2 of degree {degree} exactly, not {n}")


def _short_text(x):
    """x as written when that is short, else exactly rounded to six
    significant digits (a float would overflow past 1e308)."""
    text = str(x)
    if len(text) <= 16:
        return text
    x = Fraction(x)
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        return f"{decimal.Decimal(x.numerator) / x.denominator:.5e}"


def inequality_ratio(kind, f, params, pw, point, grid=None):
    """Both sides of one inequality, with the constant-free ratio.

    params is a dict with the exponents the kind needs: p always; b for
    hy-paley; beta and lambda_weights (a {twice_l: positive value} map)
    for hardy-littlewood and cor-5.8; phi (same shape) for the Paley
    kinds.  Returns {"lhs", "rhs_without_constant", "ratio"}.

    Every left side is (sum_l d_l n_l (h_l base_l^e)^r)^(1/r), with
    h_l = ||fhat(l)||_HS / sqrt(n_l), and is inf only past the float
    range: r = p' and e = 0 for hausdorff-young; base phi, r = b (p for
    paley) and e = 1/r - 1/p', with M_phi^e on the right, for the Paley
    kinds; base |lambda_l|, r = p and e = beta (1/2 - 1/p), doubled for
    hardy-littlewood, for the two Dirac-weighted kinds.
    """
    p = params["p"]
    check_inequality(kind, p, params.get("b"), point)
    pprime = p / (p - 1)
    fhat = fourier_transform(f, pw)
    rhs = _lp_side(f, p, point, grid)
    if kind == "hausdorff-young":
        r, base, e = pprime, dict.fromkeys(fhat.coeffs, 1.0), 0.0
    elif kind in ("paley", "hy-paley"):
        r = params["b"] if kind == "hy-paley" else p
        base, e = params["phi"], 1 / r - 1 / pprime
        rhs *= paley_constant(base, point) ** e
    else:
        r = p
        base = {tl: abs(float(evaluate(params["lambda_weights"][tl], point)))
                for tl in fhat.coeffs}
        e = params["beta"] * (0.5 - 1 / p) * (2 if kind == "hardy-littlewood"
                                              else 1)
    lhs = _weighted_lp([_mass_pair(tl, _times_power(x, base[tl], e), point, r)
                        for tl, x in _blocks(fhat, point)], r)
    ratio = lhs / rhs if rhs else math.inf if lhs else 0.0
    return {"lhs": lhs, "rhs_without_constant": rhs, "ratio": ratio}
