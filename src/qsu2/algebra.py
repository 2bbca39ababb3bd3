"""The polynomial Hopf *-algebra of the quantum SU(2).

Generators a, b, c, d with the relations

    ba = q ab,  ca = q ac,  db = q bd,  dc = q cd,  bc = cb,
    ad = 1 + q^-1 bc,       da = 1 + q bc,

unit determinant ad - q^-1 bc = 1, and the compact *-structure

    a* = d,  b* = -q^-1 c,  c* = -q b,  d* = a.

This relation/star pair is the one that passes the Peter-Weyl
orthogonality suite with the quantum-trace matrix diag(q^-2i): the
defining tests, not any particular printed convention, pin it down.

Normal form: every element is a combination of monomials
a^i b^j c^k (i >= 0) or d^i b^j c^k (i >= 1); rewriting is oriented
toward this PBW order and confluence is asserted by tests.

The Haar state vanishes off the doubly-graded-zero component, spanned
by (bc)^k.  There it is a Jackson integral in bc (Woronowicz, Publ. RIMS
23, 1987; Klimyk-Schmuedgen 1997, 4.3), and the sum is the closed form
h((bc)^k) = (-1)^k / [k+1]_q.  The tests check it against the solution
of the invariance system (h (x) id) Delta((bc)^k) = h((bc)^k) 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .qarith import QScalar, QRadical, ZERO, ONE, Q, _acc, q_int, q_power

__all__ = [
    "NormalMonomial", "AlgebraElement", "TensorElement",
    "A", "B", "C", "D", "UNIT",
    "multiply", "coproduct", "counit", "antipode", "star", "peel", "grade",
    "row_grade", "haar", "l2_inner", "random_element",
]


class NormalMonomial(NamedTuple):
    """a^i b^j c^k (head 'a', i >= 0) or d^i b^j c^k (head 'd', i >= 1)."""
    head: str
    head_pow: int
    b_pow: int
    c_pow: int

    def degree(self):
        return self.head_pow + self.b_pow + self.c_pow

    def __str__(self):
        if self.degree() == 0:
            return "1"
        bits = []
        if self.head_pow:
            bits.append(self.head if self.head_pow == 1
                        else f"{self.head}^{self.head_pow}")
        if self.b_pow:
            bits.append("b" if self.b_pow == 1 else f"b^{self.b_pow}")
        if self.c_pow:
            bits.append("c" if self.c_pow == 1 else f"c^{self.c_pow}")
        return "*".join(bits)


_ID = NormalMonomial("a", 0, 0, 0)
_GENERATORS = {
    "a": NormalMonomial("a", 1, 0, 0),
    "b": NormalMonomial("a", 0, 1, 0),
    "c": NormalMonomial("a", 0, 0, 1),
    "d": NormalMonomial("d", 1, 0, 0),
}


def grade(mono):
    """The Z-grading: number of a, c letters minus number of b, d."""
    i, j, k = mono.head_pow, mono.b_pow, mono.c_pow
    return (i if mono.head == "a" else -i) - j + k


def row_grade(mono):
    """The companion grading from the left coaction (a, b: +1; c, d: -1)."""
    i, j, k = mono.head_pow, mono.b_pow, mono.c_pow
    return (i if mono.head == "a" else -i) + j - k


# ---------------------------------------------------------------------------
# normal-form multiplication
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _head_mul(head, m, n):
    """Normal form of h^m g^n, as a tuple of (monomial, coeff) pairs.

    h is the head and g the other one.  a d = 1 + q^-1 bc and
    d a = 1 + q bc; the bc moves right past g^(n-1), q^-+2 per letter, so
    h^m g^n = h^(m-1) g^(n-1) (1 + q^-+(2n-1) bc), with - for h = a.
    """
    if m == 0 or n == 0:
        hp, h = (m, head) if m else (n, "d" if head == "a" else "a")
        return ((NormalMonomial(h if hp else "a", hp, 0, 0), ONE),)
    bump = q_power((-2 if head == "a" else 2) * (2 * n - 1))
    out = {}
    for mono, coeff in _head_mul(head, m - 1, n - 1):
        _acc(out, mono, coeff)
        bumped = mono._replace(b_pow=mono.b_pow + 1, c_pow=mono.c_pow + 1)
        _acc(out, bumped, coeff * bump)
    return tuple(out.items())


@lru_cache(maxsize=None)
def _mono_mul(m1, m2):
    """Product of two normal monomials as a tuple of (monomial, coeff).

    When no head letter moves the coeff is ONE itself, so a caller can
    skip multiplying by it.
    """
    h1, i1, j1, k1 = m1
    h2, i2, j2, k2 = m2
    # slide the head letters of m2 leftwards past b^j1 c^k1
    swaps = i2 * (j1 + k1)
    factor = q_power(2 * swaps if h2 == "a" else -2 * swaps) if swaps else ONE
    jt, kt = j1 + j2, k1 + k2
    if i1 == 0 or i2 == 0 or h1 == h2:
        head, hp = h1 if i1 else h2, i1 + i2
        return ((NormalMonomial(head if hp else "a", hp, jt, kt), factor),)
    out = {}
    for mono, coeff in _head_mul(h1, i1, i2):
        joined = mono._replace(b_pow=mono.b_pow + jt, c_pow=mono.c_pow + kt)
        _acc(out, joined, coeff * factor)
    return tuple(out.items())


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class AlgebraElement:
    """A finite combination of normal monomials with exact coefficients.

    Coefficients are QScalar (or, on demand, QRadical); the zero element
    stores no terms.  All operations return new elements.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _cleaned(terms)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def scalar(c):
        c = c if isinstance(c, (QScalar, QRadical)) else QScalar.promote(c)
        return AlgebraElement({_ID: c})

    @staticmethod
    def generator(name):
        if name not in _GENERATORS:
            raise ValueError(f"unknown generator {name!r}")
        return AlgebraElement({_GENERATORS[name]: ONE})

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        other = _promote_elem(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _acc(out, mono, coeff)
        return AlgebraElement(out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_promote_elem(other))

    def __rsub__(self, other):
        return _promote_elem(other) + (-self)

    def scale(self, c):
        # exact scalars first: Fraction is an ABC, and testing it is slow
        if (not isinstance(c, (QScalar, QRadical))
                and isinstance(c, (int, Fraction))):
            c = QScalar.promote(c)
        return AlgebraElement({m: cc * c for m, cc in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not AlgebraElement:
            if isinstance(other, (QScalar, QRadical, int, Fraction)):
                return self.scale(other)
            other = _promote_elem(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                for mono, coeff in _mono_mul(m1, m2):
                    _acc(out, mono, c12 if coeff is ONE else coeff * c12)
        return AlgebraElement(out)

    def __rmul__(self, other):
        if isinstance(other, (QScalar, QRadical, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        try:
            other = _promote_elem(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((m.degree() for m in self.terms), default=0)

    def coefficient(self, mono):
        return self.terms.get(mono, ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (m.degree(), str(m))):
            bits.append(f"({self.terms[mono]})*{mono}")
        return " + ".join(bits)


def _cleaned(terms):
    """The nonzero entries of {key: coeff}, int and Fraction promoted."""
    out = {}
    for key, coeff in (terms or {}).items():
        # exact scalars first: Fraction is an ABC, and testing it is slow
        if (not isinstance(coeff, (QScalar, QRadical))
                and isinstance(coeff, (int, Fraction))):
            coeff = QScalar.promote(coeff)
        if not coeff.is_zero():
            out[key] = coeff
    return out


def _promote_elem(x):
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, (int, Fraction, QScalar, QRadical)):
        return AlgebraElement.scalar(x)
    raise TypeError(f"cannot promote {type(x).__name__} to AlgebraElement")


A = AlgebraElement.generator("a")
B = AlgebraElement.generator("b")
C = AlgebraElement.generator("c")
D = AlgebraElement.generator("d")
UNIT = AlgebraElement.scalar(1)


def multiply(x, y):
    """Normal form of the product xy."""
    return _promote_elem(x) * _promote_elem(y)


# ---------------------------------------------------------------------------
# coalgebra structure
# ---------------------------------------------------------------------------

class TensorElement:
    """A finite sum of monomial tensor pairs with exact coefficients."""

    __slots__ = ("pairs",)

    def __init__(self, pairs=None):
        self.pairs = _cleaned(pairs)

    def __add__(self, other):
        out = dict(self.pairs)
        for key, coeff in other.pairs.items():
            _acc(out, key, coeff)
        return TensorElement(out)

    def __mul__(self, other):
        out = {}
        for (l1, r1), c1 in self.pairs.items():
            for (l2, r2), c2 in other.pairs.items():
                c12 = c1 * c2
                for ml, cl in _mono_mul(l1, l2):
                    for mr, cr in _mono_mul(r1, r2):
                        _acc(out, (ml, mr), c12 * cl * cr)
        return TensorElement(out)

    def scale(self, c):
        return TensorElement({k: cc * c for k, cc in self.pairs.items()})

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.pairs == other.pairs

    def __repr__(self):
        bits = [f"({c})*{l}(x){r}" for (l, r), c in self.pairs.items()]
        return " + ".join(bits) if bits else "0"


# Delta(g) = sum of l (x) r over the letter pairs lr of each generator g
_GEN_COPRODUCT = {
    g: TensorElement({(_GENERATORS[l], _GENERATORS[r]): ONE for l, r in pairs})
    for g, pairs in (("a", ("aa", "bc")), ("b", ("ab", "bd")),
                     ("c", ("ca", "dc")), ("d", ("cb", "dd")))}


def peel(mono):
    """(prefix, letter) with mono = prefix * letter and prefix normal.

    The last letter of h^i b^j c^k is c, else b, else the head h; the
    unit has none.
    """
    h, i, j, k = mono
    if k:
        return mono._replace(c_pow=k - 1), "c"
    if j:
        return mono._replace(b_pow=j - 1), "b"
    if not i:
        raise ValueError("the unit has no last letter")
    return NormalMonomial(h if i > 1 else "a", i - 1, 0, 0), h


@lru_cache(maxsize=None)
def _coproduct_mono(mono):
    if mono == _ID:
        return TensorElement({(_ID, _ID): ONE})
    prefix, letter = peel(mono)
    return _coproduct_mono(prefix) * _GEN_COPRODUCT[letter]


def coproduct(x):
    """Delta(x) as a TensorElement; an algebra homomorphism by build."""
    out = {}
    for mono, coeff in _promote_elem(x).terms.items():
        for key, c in _coproduct_mono(mono).pairs.items():
            _acc(out, key, c * coeff)
    return TensorElement(out)


def counit(x):
    """epsilon: a, d -> 1; b, c -> 0."""
    x = _promote_elem(x)
    total = ZERO
    for mono, coeff in x.terms.items():
        if mono.b_pow == 0 and mono.c_pow == 0:
            total = total + coeff
    return total


def _reverse(x, b_scale, c_scale, swap):
    """The antimultiplicative map a <-> d, b -> b_scale b, c -> c_scale c.

    With swap, b and c trade places: b -> c_scale c, c -> b_scale b.  The
    image of h^i b^j c^k is (image of c)^k (image of b)^j h'^i, one
    normal monomial once h'^i moves left past its j + k letters b, c:
    q^-1 per letter for h' = d, q per letter for h' = a.
    """
    out = {}
    for (h, i, j, k), coeff in _promote_elem(x).terms.items():
        if swap:
            j, k = k, j
        hop = q_power((-2 if h == "a" else 2) * i * (j + k))
        new = NormalMonomial("d" if h == "a" and i else "a", i, j, k)
        _acc(out, new, coeff * (b_scale ** j * c_scale ** k * hop))
    return AlgebraElement(out)


def star(x):
    """The *-involution: a*=d, b*=-q^-1 c, c*=-q b, d*=a (q real)."""
    return _reverse(x, -Q, -q_power(-2), swap=True)


def antipode(x):
    """The antipode: S(a)=d, S(b)=-q b, S(c)=-q^-1 c, S(d)=a."""
    return _reverse(x, -Q, -q_power(-2), swap=False)


# ---------------------------------------------------------------------------
# Haar state
# ---------------------------------------------------------------------------

def _haar_bc(k):
    """h((bc)^k) = (-1)^k / [k+1]_q, invariant under q <-> 1/q."""
    return (ONE if k % 2 == 0 else -ONE) / q_int(2 * (k + 1))


def haar(x):
    """The Haar state h(x), exact.

    h kills every monomial with a nonzero grade in either of the two
    gradings (invariance forces this); on the doubly-graded-zero
    component, spanned by (bc)^k, h((bc)^k) = (-1)^k / [k+1]_q, so h(x)
    is the sum of c_k h((bc)^k) over the coefficients c_k of (bc)^k.
    """
    return sum((coeff * _haar_bc(mono.b_pow)
                for mono, coeff in _promote_elem(x).terms.items()
                if mono.head_pow == 0 and mono.b_pow == mono.c_pow), ZERO)


def l2_inner(f, g):
    """(f, g) = h(f g*): linear in f, conjugate-linear in g."""
    return haar(_promote_elem(f) * star(g))


# ---------------------------------------------------------------------------
# seeded random elements (shared by tests and the CLI)
# ---------------------------------------------------------------------------

def random_element(rng, max_degree=3, n_terms=4):
    """Random combination of normal monomials, coefficients in {-3..3}\\{0}."""
    terms = {}
    for _ in range(n_terms):
        deg = rng.randint(0, max_degree)
        head = rng.choice("ad")
        if head == "d":
            hp = rng.randint(1, deg) if deg >= 1 else 0
            if hp == 0:
                head = "a"
        else:
            hp = rng.randint(0, deg)
        rest = deg - hp
        j = rng.randint(0, rest)
        kk = rest - j
        mono = NormalMonomial(head if hp else "a", hp, j, kk)
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
        _acc(terms, mono, QScalar.promote(coeff))
    return AlgebraElement(terms)
