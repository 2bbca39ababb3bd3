"""The 3D and 4D first-order differential calculi on the quantum SU(2).

Each calculus is specified by the exterior derivative on the four
generators together with the bimodule commutation of the basis one-forms
past the generators; both are pinned data.  The library computes with the
generator route:

  * d and the commutation transfer extend to every normal monomial by the
    Leibniz rule and the comodule-algebra rule
    C_i^j(fg) = sum_k C_i^k(f) C_k^j(g), exactly.  Every transfer table,
    pinned or derived, is stored by row, {i: {j: C_i^j}}, so row i is one
    lookup.  partial_derivative reads the partial d_i f off df as its e_i
    coefficient.
  * right_multiply moves a one-form past an element f by linearity in f:
    it sums the rows of the cached monomial tables that omega has into one
    table T(f)_ij = sum_m c_m C_i^j(m) over the terms c_m m of f, then forms
    omega . f = sum_(i,j) omega_i T(f)_ij e_j, one algebra product per
    nonzero entry, however many monomials f has.

The symbol route is kept only as the test oracle of the generator route:

  * every partial derivative and every commutation operator is
    coinvariant, hence acts per spin through a matrix; the matrices are
    closed-form compositions of the ladder/weight symbol blocks
    sigma_(X+)(t^l)_mn = sqrt([l-n][l+n+1]) delta_(m,n+1),
    sigma_(X-)(t^l)_mn = sqrt([l+n][l-n+1]) delta_(m,n-1),
    sigma_(q^(H/2))(t^l)_nn = q^n.  The compositions are data: the table
    _SYMBOLS states each as a sum of terms c L q^(wH/2), and each ladder
    L is stated once, in _ladder, as the q-integers whose product (or the
    root of it) is its entry.  _compose builds every block of a table at
    one spin, once per process, so every calculus shares its blocks; it
    is their one builder, and classical_limit_report reads the ladder
    table's blocks and the ladders' classical values.  exterior_d expands
    f once and applies the partials' blocks, taken to the T basis once
    per calculus, to those Peter-Weyl coefficient blocks as the oracle of
    exterior_d_generators; the tests apply the commutation symbols the
    same way as the oracle of right_multiply.  The growth harness reads
    its Hilbert-Schmidt norms in closed form off the same _SYMBOLS terms
    and _ladder brackets and builds no block (_growth_norms_sq).

The two routes agreeing on all coefficient entries is a test, not an
assumption.  The symbol tables here use weights ascending -l..l.  The
growth harness evaluates each family's Hilbert-Schmidt norm in the weight
orientation that its GROWTH_CLAIMS row records: reversed (m -> -m) for the
four-dimensional families, the labeling recorded for the source's 4D
tables, and for the 3D partials e+-; ascending for the rest.  PAPER.md
holds only the abstract and does not settle which orientation the source's
3D table uses; the verdict for e+- does not depend on it (weighted
exponent 3 reversed, 1 ascending, and neither is the printed 2).

3D data (basis e0, e+, e-):
    da = a e0 + q b e+         db = a e-  - q^-2 b e0
    dc = c e0 + q d e+         dd = c e-  - q^-2 d e0
    e0 f = q^(2|f|) f e0       e+- f = q^|f| f e+-
with |.| the grading a, c -> +1, b, d -> -1.

4D data (basis ea, eb, ec, ed; lambda = 1 - q^-2):
    da = a((q-1)ea + (q^-1-1)ed) + lambda b eb
    db = b((q^-1-1+q lambda^2)ea + (q-1)ed) + lambda a ec    (c, d alike)
    ea x = (q a, q^-1 b, q c, q^-1 d) ea   for x = (a, b, c, d)
    [eb, x] = q lambda (0, a, 0, c) ea
    [ec, x] = q lambda (b, 0, d, 0) ea
    [ed, a]_(q^-1) = lambda b eb             [ed, c]_(q^-1) = lambda d eb
    [ed, b]_q = lambda a ec + q lambda^2 b ea  (d alike)

The geometric Dirac operator D acts on spinor pairs through the four 4D
partials; its spin-l block diagonalizes with eigenvalues
lambda q^(l+1) [l]_q  and  -lambda q^(-l) [l+1]_q, which
geometric_dirac_eigenvalue_report decides exactly from the symbol block's
minimal polynomial and trace.  The theta-direction
partial of the 4D calculus is the q-Laplacian up to the normalization
q^2 lambda^2 / [2]_q, with eigenvalue [l]_q [l+1]_q on every t^l_mn; the
quantum metric g = ec(x)eb + q^2 eb(x)ec + (q^2/[2])(ez(x)ez - th(x)th)
gives the same operator through second-order partials once the z- and
theta-legs of the frame carry their geometric normalization (an extra
q^(-1/2) relative to the b, c legs; the constants are pinned by the
exact eigenvalue identity and recorded below).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .qarith import (QPoint, QScalar, ZERO, ONE, Q, _acc, _lp_iadd, _lp_mul,
                     _lp_quo, _lp_shift, q_power, q_int, sqrt_q_int_product,
                     evaluate)
from .algebra import (
    AlgebraElement, NormalMonomial, A, B, C, D, UNIT,
    _GENERATORS, _promote_elem, grade, peel,
)
from .fourier import FourierArray, matrix_multiply
from .multiplier import _apply_blocks, _t_block

__all__ = [
    "OneForm", "Calculus", "THREE_D", "FOUR_D", "calculus",
    "partial_symbols", "commutation_symbols",
    "admissibility_check", "check_growth", "growth_table", "GROWTH_CLAIMS",
    "Spinor", "geometric_dirac", "dirac_eigenvalues",
    "geometric_dirac_eigenvalue_report",
    "q_laplacian", "q_laplacian_metric", "laplacian_eigenvalue",
    "laplacian_eigenvalue_identity_holds", "quantum_metric",
    "classical_limit_report",
]

THREE_D = "3d"
FOUR_D = "4d"

_LAMBDA = ONE - q_power(-4)          # 1 - q^-2


# ---------------------------------------------------------------------------
# one-forms
# ---------------------------------------------------------------------------

class OneForm:
    """Finite left-coefficient combination  sum_i f_i e_i."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        cleaned = {}
        for label, elem in (parts or {}).items():
            elem = _promote_elem(elem)
            if not elem.is_zero():
                cleaned[label] = elem
        self.parts = cleaned

    def coefficient(self, label):
        return self.parts.get(label, AlgebraElement({}))

    def __add__(self, other):
        out = dict(self.parts)
        for label, elem in other.parts.items():
            _acc(out, label, elem)
        return OneForm(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return OneForm({k: v.scale(c) for k, v in self.parts.items()})

    def left_multiply(self, f):
        f = _promote_elem(f)
        return OneForm({k: f * v for k, v in self.parts.items()})

    def __eq__(self, other):
        return isinstance(other, OneForm) and self.parts == other.parts

    def is_zero(self):
        return not self.parts

    def __repr__(self):
        if not self.parts:
            return "0"
        return " + ".join(f"({v}) {k}" for k, v in sorted(self.parts.items()))


class Spinor:
    """A pair of algebra elements: sections of the rank-two spinor module."""

    __slots__ = ("s1", "s2")

    def __init__(self, s1, s2):
        self.s1 = _promote_elem(s1)
        self.s2 = _promote_elem(s2)

    def __eq__(self, other):
        return (isinstance(other, Spinor)
                and self.s1 == other.s1 and self.s2 == other.s2)

    def __repr__(self):
        return f"Spinor({self.s1!r}, {self.s2!r})"


# ---------------------------------------------------------------------------
# pinned generator data
# ---------------------------------------------------------------------------

def _three_d_data():
    qm2 = q_power(-4)            # q^-2
    d_table = {
        "a": {"e0": A, "e+": B.scale(Q)},
        "b": {"e-": A, "e0": B.scale(-qm2)},
        "c": {"e0": C, "e+": D.scale(Q)},
        "d": {"e-": C, "e0": D.scale(-qm2)},
    }
    # e_i g = (power of q by grade) g e_i: diagonal transfer
    transfer = {}
    for g, mono in _GENERATORS.items():
        sign = grade(mono)
        transfer[g] = {
            "e0": {"e0": AlgebraElement({mono: q_power(4 * sign)})},
            "e+": {"e+": AlgebraElement({mono: q_power(2 * sign)})},
            "e-": {"e-": AlgebraElement({mono: q_power(2 * sign)})},
        }
    return ("e0", "e+", "e-"), d_table, transfer


def _four_d_data():
    lam = _LAMBDA
    qm1, qp1 = q_power(-2), q_power(2)
    ea_a = (Q - 1)
    ea_b = qm1 - 1 + Q * lam * lam
    ed_a = qm1 - 1
    ed_b = Q - 1
    d_table = {
        "a": {"ea": A.scale(ea_a), "ed": A.scale(ed_a), "eb": B.scale(lam)},
        "b": {"ea": B.scale(ea_b), "ed": B.scale(ed_b), "ec": A.scale(lam)},
        "c": {"ea": C.scale(ea_a), "ed": C.scale(ed_a), "eb": D.scale(lam)},
        "d": {"ea": D.scale(ea_b), "ed": D.scale(ed_b), "ec": C.scale(lam)},
    }
    qlam = Q * lam
    transfer = {
        "a": {"ea": {"ea": A.scale(Q)}, "eb": {"eb": A},
              "ec": {"ec": A, "ea": B.scale(qlam)},
              "ed": {"ed": A.scale(qm1), "eb": B.scale(lam)}},
        "b": {"ea": {"ea": B.scale(qm1)}, "eb": {"eb": B, "ea": A.scale(qlam)},
              "ec": {"ec": B},
              "ed": {"ed": B.scale(Q), "ec": A.scale(lam),
                     "ea": B.scale(Q * lam * lam)}},
        "c": {"ea": {"ea": C.scale(Q)}, "eb": {"eb": C},
              "ec": {"ec": C, "ea": D.scale(qlam)},
              "ed": {"ed": C.scale(qm1), "eb": D.scale(lam)}},
        "d": {"ea": {"ea": D.scale(qm1)}, "eb": {"eb": D, "ea": C.scale(qlam)},
              "ec": {"ec": D},
              "ed": {"ed": D.scale(Q), "ec": C.scale(lam),
                     "ea": D.scale(Q * lam * lam)}},
    }
    return ("ea", "eb", "ec", "ed"), d_table, transfer


# ---------------------------------------------------------------------------
# closed-form symbol blocks
# ---------------------------------------------------------------------------

def _ladder(name, tl):
    """(root, dt, pairs): the ladder L of a _SYMBOLS term at spin tl.

    Its entry in column tn stands in row tn + dt and is the product of the
    q-integers [(s tn + c)/2]_q over its pairs (s, c), or for a root
    ladder sqrt_q_int_product of the two (Klimyk-Schmuedgen 1997, ch. 3):
    the identity None, the weight [H]_q, the diagonal X+X- = [l+n][l-n+1]
    and the roots X+ = sqrt([l-n][l+n+1]) and X- = sqrt([l+n][l-n+1]),
    its transpose.  A root ladder's entry vanishes in the one column whose
    row leaves -l..l, and [H], X+X- where a bracket is [0]_q.
    """
    x_pm = ((1, tl), (-1, tl + 2))
    return {None: (False, 0, ()), "[H]": (False, 0, ((2, 0),)),
            "X+X-": (False, 0, x_pm), "X-": (True, -2, x_pm),
            "X+": (True, 2, ((-1, tl), (1, tl + 2)))}[name]


_SQ = q_power(1)            # q^(1/2)
_QLAM2 = Q * _LAMBDA * _LAMBDA

# Every symbol block as a sum of terms (c, L, w) = c L q^(wH/2): L names a
# ladder of _ladder (X+, X-, the diagonals X+X- and [H]_q, or the identity
# None); q^(wH/2) = diag(q^(wn)) acts first.  Each composition was
# checked against the generator route (the extraction tests).
_SYMBOLS = {
    # x0 = (q^(-2H) - 1)/(q^2 - 1) = -q^-1 [H]_q q^-H,
    # x+- = q^(1/2) X+- q^(-H/2)
    ("partial", THREE_D): {
        "e0": ((-q_power(-2), "[H]", -2),),
        "e+": ((_SQ, "X+", -1),),
        "e-": ((_SQ, "X-", -1),),
    },
    # x^a = q^(-H) + q lambda^2 X+X- - 1,  x^b = q^(1/2) lambda X+ q^(H/2),
    # x^c = q^(-1/2) lambda X- q^(H/2),   x^d = q^H - 1
    ("partial", FOUR_D): {
        "ea": ((ONE, None, -2), (_QLAM2, "X+X-", 0), (-ONE, None, 0)),
        "eb": ((_SQ * _LAMBDA, "X+", 1),),
        "ec": ((_LAMBDA / _SQ, "X-", 1),),
        "ed": ((ONE, None, 2), (-ONE, None, 0)),
    },
    # C_0^0 -> q^(-2H),  C_+^+ = C_-^- -> q^(-H)
    ("commutation", THREE_D): {
        ("e0", "e0"): ((ONE, None, -4),),
        ("e+", "e+"): ((ONE, None, -2),),
        ("e-", "e-"): ((ONE, None, -2),),
    },
    # the nine nonzero 4D bimodule operators:
    #   C_a^a -> q^(-H)    C_b^b = C_c^c -> identity    C_d^d -> q^H
    #   C_b^a -> q^(3/2) lambda X- q^(-H/2)   C_d^a -> q lambda^2 X+X-
    #   C_c^a -> q^(1/2) lambda X+ q^(-H/2)
    #   C_d^b -> q^(1/2) lambda X+ q^(H/2)
    #   C_d^c -> q^(-1/2) lambda X- q^(H/2)
    ("commutation", FOUR_D): {
        ("ea", "ea"): ((ONE, None, -2),),
        ("eb", "eb"): ((ONE, None, 0),),
        ("ec", "ec"): ((ONE, None, 0),),
        ("ed", "ed"): ((ONE, None, 2),),
        ("eb", "ea"): ((Q * _SQ * _LAMBDA, "X-", -1),),
        ("ec", "ea"): ((_SQ * _LAMBDA, "X+", -1),),
        ("ed", "ea"): ((_QLAM2, "X+X-", 0),),
        ("ed", "eb"): ((_SQ * _LAMBDA, "X+", 1),),
        ("ed", "ec"): ((_LAMBDA / _SQ, "X-", 1),),
    },
    # the ladders X+, X- and q^(H/2): the 3D growth claims and the
    # classical limit; the 4D claims state none
    ("ladder", THREE_D): {
        "X+": ((ONE, "X+", 0),),
        "X-": ((ONE, "X-", 0),),
        "qH2": ((ONE, None, 1),),
    },
}


@lru_cache(maxsize=None)
def _compose(family, kind, tl):
    """{label: block} of one _SYMBOLS table at spin tl, ascending weights.

    A term c L q^(wH/2) adds in column tn the entry of L (_ladder) times
    c q^(w tn/2).  A column whose row leaves -tl..tl is not built (the
    root of [0]_q is refused), and a zero entry is dropped by _acc, so the
    ladder roots are closed forms (no gcd) and the 3D partials take none.
    The result is cached on the key alone and shared by every caller, so
    no caller may mutate it.
    """
    out = {}
    for label, terms in _SYMBOLS[(family, kind)].items():
        block = {}
        for coeff, ladder, w in terms:
            root, dt, pairs = _ladder(ladder, tl)
            for tn in range(-tl, tl + 1, 2):
                if not -tl <= tn + dt <= tl:
                    continue
                args = [s * tn + c for s, c in pairs]
                entry = (sqrt_q_int_product(*args) if root
                         else math.prod(map(q_int, args), start=ONE))
                _acc(block, (tn + dt, tn), entry * (coeff * q_power(w * tn)))
        out[label] = block
    return out


def partial_symbols(kind, twice_l):
    """{label: unitary-gauge matrix} of the partials of a kind at one spin.

    Every symbol vanishes at spin 0 (counit normalization).
    """
    return _compose("partial", kind, twice_l)


def commutation_symbols(kind, twice_l):
    """{(i, j): matrix} with e_i f = sum_j C_i^j(f) e_j at one spin."""
    return _compose("commutation", kind, twice_l)


# At integer spin each entry of a _SYMBOLS block, and its square, is a
# function of the doubled weight tn of its column of the form
# sum_b N_b u^(b tn) / (u^2 - u^-2)^k, u = q^(1/2), with int Laurent
# polynomials N_b that do not depend on tn and one k for every term
# (Gasper and Rahman 2004, ch. 1; Klimyk-Schmuedgen 1997, ch. 3, for the
# ladder elements).  Such a sum is the dict {b: N_b}, its k kept beside it.

def _bracket(s, c):
    """(u^2 - u^-2) [(s tn + c)/2]_q, the sum u^c u^(s tn) - u^-c u^(-s tn)."""
    return {s: {c: 1}, -s: {-c: -1}}


def _times(x, y):
    """The product of two sums, term by term over the pairs (b, b')."""
    out = {}
    for b1, n1 in x.items():
        for b2, n2 in y.items():
            _lp_iadd(out.setdefault(b1 + b2, {}), _lp_mul(n1, n2))
    return out


def _entry_square(terms, tl):
    """(S, k, dt): at spin tl the entry in column tn of the block
    sum c L q^(wH/2) over terms squares to S(tn)/(u^2 - u^-2)^k, and it
    stands in row tn + dt.

    Each term is c u^(w tn) times the product of its ladder's brackets
    (_ladder) over (u^2 - u^-2)^k, k the number of brackets.  A root
    ladder stands alone in its block and squares with no radical, to
    c^2 u^(2 w tn) times the product of its two brackets; it vanishes in
    the one column where its block has no entry, as a bracket [0]_q
    vanishes where a diagonal block has none.  A diagonal block sums its
    terms over the largest k among them and is multiplied by itself,
    doubling k.
    """
    levels = []
    for c, ladder, w in terms:
        root, dt, pairs = _ladder(ladder, tl)
        if pairs:
            product = _bracket(*pairs[0])
            for pair in pairs[1:]:
                product = _times(product, _bracket(*pair))
        if root:
            return (_times(product, {2 * w: _lp_mul(c.num, c.num)}),
                    len(pairs), dt)
        term = {w: c.num}
        levels.append((_times(term, product) if pairs else term, len(pairs)))
    k = max(level for _, level in levels)
    entry = {}
    for term, level in levels:
        for _ in range(k - level):
            term = _times(term, {0: {2: 1, -2: -1}})
        for b, n in term.items():
            _lp_iadd(entry.setdefault(b, {}), n)
    return _times(entry, entry), 2 * k, 0


def _growth_norms_sq(terms, tl, orientations):
    """||.||_HS^2 of the block sum c L q^(wH/2) over terms at integer spin
    tl, row weight q^(2om) in each orientation o (1, -1 reversed or 0
    unweighted), with no block built and no entry squared.

    The row weight u^(2 o tm) of row tm = tn + dt shifts b by 2o, so the
    sum over the columns tn = -tl..tl adds each N_b of _entry_square at
    u^((b + 2o) tn + 2o dt).  The norm is a Laurent polynomial: that
    numerator over (u^2 - u^-2)^k = u^(-2k) (u^4 - 1)^k, one exact
    quotient and a shift, with no gcd.
    """
    square, k, dt = _entry_square(terms, tl)
    den = {0: 1}
    for _ in range(k):
        den = _lp_mul(den, {4: 1, 0: -1})
    norms = []
    for o in orientations:
        num = {}
        for b, n in square.items():
            for tn in range(-tl, tl + 1, 2):
                _lp_iadd(num, n, (b + 2 * o) * tn + 2 * o * dt)
        low = min(num)
        quo = _lp_quo(_lp_shift(num, -low), den)
        norms.append(QScalar(_lp_shift(quo, low + 2 * k), _canonical=True))
    return norms


# ---------------------------------------------------------------------------
# the calculus object
# ---------------------------------------------------------------------------

class Calculus:
    """One of the two calculi bound to a coefficient table."""

    def __init__(self, kind, pw):
        if kind not in (THREE_D, FOUR_D):
            raise ValueError(f"unknown calculus kind {kind!r}")
        self.kind = kind
        self.pw = pw
        if kind == THREE_D:
            self.labels, self._d_gen, self._transfer_gen = _three_d_data()
        else:
            self.labels, self._d_gen, self._transfer_gen = _four_d_data()
        self._d_cache = {NormalMonomial("a", 0, 0, 0): {}}
        self._transfer_cache = {
            NormalMonomial("a", 0, 0, 0): {i: {i: UNIT} for i in self.labels}}
        # (label, twice_l) -> T-basis partial block: labels x spins entries
        self._partial_blocks = {}

    # -- symbol route: the test oracles ---------------------------------------

    def exterior_d(self, f):
        """df = sum_i (partial_i f) e_i by the per-spin symbols.

        The symbol route on the Peter-Weyl coefficient blocks, kept as
        the test oracle of exterior_d_generators (and so of
        partial_derivative).  f is expanded once, and every partial acts
        on that one expansion through its T-basis blocks (_partial_block).
        """
        expansion = self.pw.pw_expand(f)
        return OneForm({
            label: _apply_blocks(partial(self._partial_block, label),
                                 expansion, self.pw, symbol_left=True)
            for label in self.labels})

    def _partial_block(self, label, tl):
        """The T-basis block of partial_label at spin tl (multiplier._t_block),
        built once per calculus: it does not depend on f."""
        key = (label, tl)
        block = self._partial_blocks.get(key)
        if block is None:
            sigma = FourierArray({tl: partial_symbols(self.kind, tl).get(
                label, {})})
            block = self._partial_blocks[key] = _t_block(sigma, self.pw, tl)
        return block

    # -- generator route --------------------------------------------------------

    def transfer(self, mono):
        """The rows {i: {j: C_i^j(mono)}} by the comodule-algebra recursion:
        row i is sum_k C_i^k(prefix) C_k^j(gen)."""
        cached = self._transfer_cache.get(mono)
        if cached is not None:
            return cached
        prefix, gen = peel(mono)
        rows = self._transfer_gen[gen]
        out = {i: _move_right(row, rows)
               for i, row in self.transfer(prefix).items()}
        self._transfer_cache[mono] = out
        return out

    def right_multiply(self, omega, f):
        """omega . f = sum_(i,j) omega_i T(f)_ij e_j, by linearity in f.

        T(f)_ij = sum_m c_m C_i^j(m) sums the transfer tables of the
        monomials m of f = sum_m c_m m once, in the rows i that omega has,
        so omega_i meets each nonzero entry in one algebra product.
        """
        tables = [(self.transfer(mono), coeff)
                  for mono, coeff in _promote_elem(f).terms.items()]
        rows = {i: _combine((table.get(i, {}), coeff)
                            for table, coeff in tables)
                for i in omega.parts}
        return OneForm(_move_right(omega.parts, rows))

    def partial_derivative(self, label, f):
        """The invariant vector field for one basis direction.

        The label coefficient of df on the generator route; no symbol and
        no Fourier transform is used.
        """
        return self.exterior_d_generators(f).coefficient(label)

    def exterior_d_generators(self, f):
        """df by the Leibniz recursion from the pinned generator data."""
        terms = _promote_elem(f).terms.items()
        return OneForm(_combine((self._d_mono(mono), coeff)
                                for mono, coeff in terms))

    def _d_mono(self, mono):
        cached = self._d_cache.get(mono)
        if cached is not None:
            return cached
        prefix, gen = peel(mono)
        # d(prefix) . gen + prefix . d(gen)
        out = _move_right(self._d_mono(prefix), self._transfer_gen[gen])
        prefix_elem = AlgebraElement({prefix: ONE})
        for j, elem in self._d_gen[gen].items():
            _acc(out, j, prefix_elem * elem)
        self._d_cache[mono] = out
        return out


def _combine(terms):
    """The sum of coeff * parts over the pairs (parts, coeff) of terms,
    each parts a {key: element} (one-form parts or one transfer row
    {j: C_i^j}); summed monomial by monomial, a key whose sum is zero
    dropped."""
    out = {}
    for parts, coeff in terms:
        for key, elem in parts.items():
            acc = out.setdefault(key, {})
            for mono, c in elem.terms.items():
                _acc(acc, mono, c * coeff)
    return {key: AlgebraElement(t) for key, t in out.items() if t}


def _move_right(parts, rows):
    """{j: sum_i coeff_i C_i^j} from {i: coeff} and the rows {i: {j: C_i^j}}
    of a transfer table; a j whose sum is zero is dropped."""
    out = {}
    for i, coeff in parts.items():
        for j, moved in rows.get(i, {}).items():
            _acc(out, j, coeff * moved)
    return out


def calculus(kind, pw):
    """The calculus of this kind bound to pw, memoized on the table."""
    calc = pw._calculi.get(kind)
    if calc is None:
        calc = pw._calculi[kind] = Calculus(kind, pw)
    return calc


# ---------------------------------------------------------------------------
# growth tables
# ---------------------------------------------------------------------------

# claimed exponent of ||sigma(t^l)||_HS^2 against [2l+1]_q, the sidedness
# of the claim, and the weight orientation the norm is evaluated in
# (+1: ascending rows as here; -1: reversed, m -> -m).  The values are the
# printed growth table as recorded here; the repo holds only the source's
# abstract (PAPER.md), so neither the table's location in the source, its
# norm convention nor the orientation of its 3D rows can be checked from
# it.  The 4D rows carry -1, the labeling recorded for the 4D tables; the
# 3D partials e+- carry -1 as well, and their verdict does not depend on
# it.  Three values (3D e+, e-: 2; 4D ea: <= 5/2) are not attained by the
# weighted norm used for every row, which grows with exact exponent 3 for
# all three; they are attained by the unweighted norm, which misses other
# rows.  The values stay as printed: the acceptance suite checks the three
# as an erratum.
GROWTH_CLAIMS = {
    THREE_D: {
        ("ladder", "X+"): (2.0, "two-sided", +1),
        ("ladder", "X-"): (2.0, "two-sided", +1),
        ("ladder", "qH2"): (2.0, "two-sided", +1),
        ("partial", "e+"): (2.0, "two-sided", -1),
        ("partial", "e-"): (2.0, "two-sided", -1),
        ("partial", "e0"): (None, "report", +1),
        ("commutation", ("e+", "e+")): (1.0, "two-sided", +1),
        ("commutation", ("e-", "e-")): (1.0, "two-sided", +1),
        ("commutation", ("e0", "e0")): (None, "report", +1),
    },
    FOUR_D: {
        ("partial", "ea"): (2.5, "one-sided", -1),
        ("partial", "eb"): (2.0, "one-sided", -1),
        ("partial", "ec"): (2.0, "one-sided", -1),
        ("partial", "ed"): (1.0, "two-sided", -1),
        ("commutation", ("ea", "ea")): (3.0, "two-sided", -1),
        ("commutation", ("eb", "ea")): (3.0, "two-sided", -1),
        ("commutation", ("eb", "eb")): (1.0, "two-sided", -1),
        ("commutation", ("ec", "ea")): (3.0, "two-sided", -1),
        ("commutation", ("ec", "ec")): (1.0, "two-sided", -1),
        ("commutation", ("ed", "ea")): (3.0, "one-sided", -1),
        ("commutation", ("ed", "eb")): (2.0, "one-sided", -1),
        ("commutation", ("ed", "ec")): (2.0, "one-sided", -1),
        ("commutation", ("ed", "ed")): (1.0, "two-sided", -1),
    },
}


def growth_table(kind, point, twice_l_max=24):
    """The growth pass: {family key: rows}, one row per integer spin
    1 <= l <= l_max, ascending, and the keys in claim order.

    A row carries the exact ||sigma(t^l)||_HS^2 in the weight orientation
    of the family's GROWTH_CLAIMS row ("hs_norm_sq") and its value at the
    point ("hs_norm_sq_float"); the rows of the last three spins also
    carry the exact unweighted norm ("hs_norm_sq_unweighted", the plain
    sum of the entry squares).  Each family's norms at a spin come in
    closed form from its _SYMBOLS terms (_growth_norms_sq): no symbol block
    is built, no entry is squared and no gcd is taken.
    """
    claims = GROWTH_CLAIMS[kind]
    rows = {key: [] for key in claims}
    spins = range(2, twice_l_max + 1, 2)
    for tl in spins:
        last = tl in spins[-3:]
        for key, out in rows.items():
            family, name = key
            orientations = (claims[key][2], 0) if last else (claims[key][2],)
            hs, *unweighted = _growth_norms_sq(_SYMBOLS[(family, kind)][name],
                                               tl, orientations)
            row = {"family": family, "name": name, "twice_l": tl,
                   "hs_norm_sq": hs,
                   "hs_norm_sq_float": float(evaluate(hs, point))}
            if last:
                row["hs_norm_sq_unweighted"] = unweighted[0]
            out.append(row)
    return rows


def check_growth(point, twice_l_max):
    """ValueError unless a growth fit can run at this point and spin cap.

    The growth scale [2l+1]_q degenerates at q = 1, and a slope needs at
    least two integer spins 1 <= l <= twice_l_max/2.
    """
    if point.is_one:
        raise ValueError("growth fits need q != 1")
    if twice_l_max < 4:
        raise ValueError(
            f"growth fits need two integer spins, 1 <= l <= "
            f"{Fraction(twice_l_max, 2)} has {max(twice_l_max // 2, 0)}")


def _slope_fit(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _exact_exponent(norms):
    """Exact growth exponent from (twice_l, exact ||sigma(t^l)||_HS^2) pairs.

    Per step between consecutive spins, the change in u-valuation of the
    norm divided by that of [2l+1]_q: the rate at which the dominant power
    of q grows, which the float fit approximates at a fixed 0 < q < 1.
    The exponent when every step gives the same value, else None.
    """
    vals = [(hs.u_valuation(), q_int(2 * (tl + 1)).u_valuation())
            for tl, hs in norms]
    steps = {Fraction(h1 - h0, s1 - s0)
             for (h0, s0), (h1, s1) in zip(vals, vals[1:])}
    return steps.pop() if len(steps) == 1 else None


# a fitted slope passes a two-sided claim within this distance of it, and a
# one-sided claim at most this far above it
GROWTH_TOLERANCE = 0.3


def admissibility_check(kind, point, twice_l_max=24):
    """Least-squares growth exponents of every symbol family.

    For each family the slope of log ||sigma(t^l)||_HS^2 against
    log [2l+1]_q is fitted over integer spins up to l_max, in the weight
    orientation of the table that states the claim, and compared to the
    claimed exponent (two-sided within GROWTH_TOLERANCE for the asserted
    equivalences, one-sided above for the stated upper bounds).  The
    admissibility fit gamma for each family is the slope itself; all
    families having finite slope is the testable admissibility content.

    Each row also carries the exact exponent over the last three integer
    spins up to l_max (see _exact_exponent), of the weighted norm in the
    row's orientation ("gamma_exact") and of the unweighted norm
    ("gamma_exact_unweighted", the plain sum of squares), and the fitted
    norms as (twice_l, float) pairs ("norms").  The pass rule uses the fit
    alone.  Every norm comes from growth_table's single pass; no block is
    built here.  check_growth states which points and caps can be fitted.
    """
    check_growth(point, twice_l_max)
    by_family = growth_table(kind, point, twice_l_max)
    # every family has a row at each spin; x = log [2l+1]_q once per spin
    spins = [row["twice_l"] for row in next(iter(by_family.values()))]
    log_scale = {tl: math.log(float(evaluate(q_int(2 * tl + 2), point)))
                 for tl in spins}
    report = {}
    for key, (claimed, sidedness, orientation) in GROWTH_CLAIMS[kind].items():
        rows = by_family[key]
        xs, ys = [], []
        for row in rows:
            hs = row["hs_norm_sq_float"]
            if hs <= 0:
                continue
            xs.append(log_scale[row["twice_l"]])
            ys.append(math.log(hs))
        slope = _slope_fit(xs, ys)
        if claimed is None:
            passed = None
        elif sidedness == "two-sided":
            passed = abs(slope - claimed) <= GROWTH_TOLERANCE
        else:
            passed = slope <= claimed + GROWTH_TOLERANCE
        last = rows[-3:]
        report[key] = {
            "gamma_fit": slope, "claimed": claimed,
            "sidedness": sidedness, "orientation": orientation,
            "passed": passed,
            "gamma_exact": _exact_exponent(
                [(r["twice_l"], r["hs_norm_sq"]) for r in last]),
            "gamma_exact_unweighted": _exact_exponent(
                [(r["twice_l"], r["hs_norm_sq_unweighted"]) for r in last]),
            "norms": [(r["twice_l"], r["hs_norm_sq_float"]) for r in rows]}
    return report


# ---------------------------------------------------------------------------
# geometric Dirac operator and q-Laplacian (4D calculus)
# ---------------------------------------------------------------------------

def geometric_dirac(s, pw):
    """D(s1, s2) = (da s1 + db s2, dc s1 + dd s2) through the 4D partials."""
    d = calculus(FOUR_D, pw).exterior_d_generators
    d1, d2 = d(s.s1), d(s.s2)
    return Spinor(d1.coefficient("ea") + d2.coefficient("eb"),
                  d1.coefficient("ec") + d2.coefficient("ed"))


def dirac_eigenvalues(twice_l):
    """Exact eigenvalues of D/lambda on the spin-l block with multiplicities.

    (lambda here is the calculus constant 1 - q^-2.)  The two values are
    q^(l+1) [l]_q  (on the spin l+1/2 component of the spinor block, so
    multiplicity (2l+2)(2l+1)) and, for l > 0, -q^(-l) [l+1]_q (on the
    spin l-1/2 component, multiplicity 2l(2l+1)).
    """
    plus = q_power(twice_l + 2) * q_int(twice_l)
    minus = -(q_power(-twice_l) * q_int(twice_l + 2))
    out = [(plus, (twice_l + 2) * (twice_l + 1))]
    if twice_l > 0:
        out.append((minus, twice_l * (twice_l + 1)))
    return out


def _check_dirac(point, twice_l_max=1):
    """ValueError at q = 1, where lambda = 1 - q^-2 vanishes, so D/lambda
    is not defined, and below a spin cap of 1/2: a report over the spins
    1/2 <= l <= twice_l_max/2 would check none."""
    if point.is_one:
        raise ValueError("the geometric Dirac report needs q != 1 "
                         "(lambda = 1 - q^-2 vanishes)")
    if twice_l_max < 1:
        raise ValueError("the geometric Dirac report needs a spin cap of "
                         "at least 1/2 (it checks 1/2 <= l <= cap)")


def geometric_dirac_eigenvalue_report(twice_l, point):
    """The spin-l block of D/lambda against dirac_eigenvalues, exactly.

    On each of the 2l+1 coefficient rows D acts by the block
    S = [[sigma_ea, sigma_eb], [sigma_ec, sigma_ed]], keyed (half, weight).
    S/lambda has the claimed spectrum when, in Q(q^(1/2)),
    prod_mu (S - lambda mu) = 0 over the distinct mu ("product_vanishes":
    S is diagonalizable with no other eigenvalue; Horn and Johnson, Matrix
    Analysis, 2nd ed., 3.3) and tr S = lambda sum_mu (m_mu/(2l+1)) mu
    ("trace_matches": the multiplicities).  "eigenvalues" maps each mu at
    the point to m_mu.  ValueError at q = 1 (see _check_dirac).
    """
    _check_dirac(point)
    syms = partial_symbols(FOUR_D, twice_l)
    block = {((h1, tm), (h2, tn)): v
             for h1, row in enumerate((("ea", "eb"), ("ec", "ed")))
             for h2, name in enumerate(row)
             for (tm, tn), v in syms[name].items()}
    diagonal = [(h, tw) for h in (0, 1)
                for tw in range(-twice_l, twice_l + 1, 2)]
    spectrum = dirac_eigenvalues(twice_l)
    factors = [dict(block) for _ in spectrum]
    for factor, (value, _) in zip(factors, spectrum):
        for key in diagonal:
            _acc(factor, (key, key), -(_LAMBDA * value))
    trace = sum((block.get((key, key), ZERO) for key in diagonal), ZERO)
    claimed = _LAMBDA * sum((value * Fraction(mult, twice_l + 1)
                             for value, mult in spectrum), ZERO)
    product_vanishes = not reduce(matrix_multiply, factors)
    trace_matches = trace == claimed
    return {"passed": product_vanishes and trace_matches,
            "product_vanishes": product_vanishes,
            "trace_matches": trace_matches,
            "eigenvalues": {float(evaluate(value, point)): mult
                            for value, mult in spectrum},
            "block_dimension": 2 * (twice_l + 1) ** 2}


def laplacian_eigenvalue(twice_l):
    """[l]_q [l+1]_q, exactly."""
    return q_int(twice_l) * q_int(twice_l + 2)


def laplacian_eigenvalue_identity_holds(twice_l):
    """(q^(2l+1) + q^(-2l-1) - q - q^-1)/(q - q^-1)^2 == [l]_q [l+1]_q."""
    num = (q_power(2 * (twice_l + 1)) + q_power(-2 * (twice_l + 1))
           - Q - ONE / Q)
    den = (Q - ONE / Q) ** 2
    return num / den == laplacian_eigenvalue(twice_l)


def q_laplacian(f, pw):
    """Delta_q f = (q da + q^-1 dd) f / (q^2 lambda^2), exactly.

    The theta-direction partial of the 4D calculus is
    (q da + q^-1 dd)/[2]_q = (q^2 lambda^2/[2]_q) Delta_q, and
    Delta_q t^l_mn = [l]_q [l+1]_q t^l_mn for every m, n.
    """
    df = calculus(FOUR_D, pw).exterior_d_generators(f)
    scale = ONE / (Q * Q * _LAMBDA * _LAMBDA)
    out = df.coefficient("ea").scale(Q) + df.coefficient("ed").scale(ONE / Q)
    return out.scale(scale)


def quantum_metric():
    """The quantum metric coefficients in the geometric frame.

    g = ec (x) eb + q^2 eb (x) ec + (q^2/[2]_q)(ez (x) ez - th (x) th),
    with ez = q^-2 ea - ed and th = ea + ed; the inverse-metric
    coefficients used by the second-order route are returned alongside.
    """
    two = q_int(4)
    return {
        "g": {("ec", "eb"): ONE, ("eb", "ec"): Q * Q,
              ("ez", "ez"): Q * Q / two, ("th", "th"): -(Q * Q) / two},
        "g_inv": {("eb", "ec"): ONE, ("ec", "eb"): ONE / (Q * Q),
                  ("ez", "ez"): two / (Q * Q), ("th", "th"): -two / (Q * Q)},
        "frame": {"ez": {"ea": ONE / (Q * Q), "ed": -ONE},
                  "th": {"ea": ONE, "ed": ONE}},
    }


def q_laplacian_metric(f, pw):
    """Delta_q through the metric:  (q/2) g^ij d_i d_j in the geometric frame.

    The z- and theta-legs of the geometrically normalized frame carry an
    extra q^(-1/2) relative to the b, c legs:
        d~b = db/lambda, d~c = dc/lambda,
        d~z = q^(-1/2) dz/lambda, d~th = q^(-1/2) dth/lambda,
    with dz = q(da - dd)/[2]_q and dth = (q da + q^-1 dd)/[2]_q.  The
    constants are pinned by the exact eigenvalue identity (tested) --
    the published display leaves the frame normalization implicit.

    Each partial is read off the one-form d g of its argument g, so five
    one-forms are built: d of f, d_c f, d_b f, dz f and dth f.
    """
    d = calculus(FOUR_D, pw).exterior_d_generators
    lam = _LAMBDA
    two = q_int(4)
    ginv = quantum_metric()["g_inv"]

    def dz(dg):
        return (dg.coefficient("ea") - dg.coefficient("ed")).scale(Q / two)

    def dth(dg):
        return (dg.coefficient("ea").scale(Q)
                + dg.coefficient("ed").scale(ONE / Q)).scale(ONE / two)

    df = d(f)
    inv_lam = ONE / lam
    tilde_scale_zt = q_power(-1) * inv_lam     # q^(-1/2)/lambda
    term_bc = d(df.coefficient("ec")).coefficient("eb").scale(
        ginv[("eb", "ec")] * inv_lam * inv_lam)
    term_cb = d(df.coefficient("eb")).coefficient("ec").scale(
        ginv[("ec", "eb")] * inv_lam * inv_lam)
    term_zz = dz(d(dz(df))).scale(ginv[("ez", "ez")] * tilde_scale_zt ** 2)
    term_tt = dth(d(dth(df))).scale(ginv[("th", "th")] * tilde_scale_zt ** 2)
    total = term_bc + term_cb + term_zz + term_tt
    return total.scale(Q / 2)


# ---------------------------------------------------------------------------
# classical limit
# ---------------------------------------------------------------------------

def classical_limit_report(twice_l_max=4, q0=0.999):
    """Ladder symbols against their classical matrices near q = 1.

    sigma_(X+)(t^l) -> sqrt((l-n)(l+n+1)) shifts, sigma_(X-) likewise
    (each ladder's pairs (s, c) of _ladder, read at q = 1: the root of the
    product of the (s tn + c)/2), sigma_(q^(H/2)) -> identity, and the
    balanced difference quotient
    (sigma_(q^(H/2)) - sigma_(q^(-H/2)))/(q - q^(-1)) = [n]_q -> diag(n),
    the classical weight matrix.  ValueError at q0 = 1, where that
    quotient is 0/0.
    """
    point = QPoint(q0)
    if point.is_one:
        raise ValueError("the classical limit report needs q0 != 1: the "
                         "weight difference quotient is 0/0 at q0 = 1")
    sq = point.sqrt_q
    rows = []
    for tl in range(0, twice_l_max + 1):
        blocks = _compose("ladder", THREE_D, tl)
        worst = 0.0
        for ladder in ("X+", "X-"):
            pairs = _ladder(ladder, tl)[2]
            for (tm, tn), v in blocks[ladder].items():
                classical = math.sqrt(math.prod((s * tn + c) / 2
                                                for s, c in pairs))
                worst = max(worst, abs(float(evaluate(v, point))
                                       - classical))
        for (tm, tn), v in blocks["qH2"].items():
            worst = max(worst, abs(float(evaluate(v, point)) - 1.0))
            # (q^n - q^-n)/(q - q^-1) = [n]_q -> n: the classical weight
            qv = float(point.q0)
            quotient = (float(evaluate(v, point)) - float(sq) ** (-tn)) \
                / (qv - 1 / qv)
            worst = max(worst, abs(quotient - tn / 2))
        rows.append({"twice_l": tl, "max_deviation": worst})
    return rows
