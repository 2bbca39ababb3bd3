"""Exact scalar arithmetic in the deformation parameter q.

Scalars live in the fraction field Q(q^(1/2)): Laurent polynomials in
q^(1/2) with rational coefficients, divided by one another and kept in a
canonical reduced form.  Exponents are stored doubled, so the lattice of
allowed powers is (1/2)Z exactly; q^(1/2)- and q^(H/2)-type symbols
therefore never need floating point.  A coefficient is an int whenever it
is integral and a Fraction only when it is not, so the common case runs
on plain Python ints; _div is the one exact division of coefficients.

QScalar._canonicalize is the one place a fraction is reduced.  Its gcd is
the primitive polynomial remainder sequence over Z.  Products, quotients
and sums cross-cancel (Henrici 1956; Knuth, TAOCP 2, 4.5.1): they reduce
small pairs of the canonical operands before multiplying, never the full
result, and the pieces they multiply are coprime, so the result is
canonical as built.

On top of the field sits QRadical, a formal finite sum  sum_i c_i*sqrt(r_i)
with c_i, r_i in Q(q^(1/2)).  Radicands are canonical (square factors are
extracted via gcd-based square-free decomposition), so products of square
roots drop back into the base field whenever they can.  The roots of
[a]_q[b]_q take a closed form instead, sqrt_q_int_product.

q_int(2n) is the q-integer [n]_q = (q^n - q^-n)/(q - q^-1); QPoint is a
positive numeric evaluation point carrying b_q = max(q, 1/q).

Every exact sparse sum of the package -- algebra elements, tensors,
radicals, Fourier blocks, one-forms -- is a dict key -> value summed by
_acc: add into the key in place, drop it when is_zero says the sum is
zero.  is_zero takes any value: by its is_zero method where it has one,
by comparison with 0 for a plain number.  Its Laurent-polynomial
counterpart is _lp_iadd, out += c*u^k*p in place with a zero sum
dropped: products, the exact quotient _lp_quo and the gcd's
pseudo-division all add through it.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "QScalar",
    "QRadical",
    "QPoint",
    "q_int",
    "q_power",
    "from_fraction",
    "sqrt_scalar",
    "sqrt_q_int_product",
    "normalize_scalar",
    "is_zero",
    "shifted_sum",
    "evaluate",
    "bq_asymptotic_ratio",
    "ZERO",
    "ONE",
    "Q",
]


# ---------------------------------------------------------------------------
# Laurent polynomials in u = q^(1/2): dict  u-exponent (int) -> coefficient
# ---------------------------------------------------------------------------

def _int(c):
    """The rational c as an int when it is integral."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _div(a, b):
    """a/b exactly: an int when b divides a, a Fraction otherwise."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        return Fraction(a, b) if rem else quo
    return _int(Fraction(a) / b)


_is_int = int.__instancecheck__        # isinstance(c, int), usable with map


def _lp_ints(p):
    """Make the integral Fraction coefficients of p ints, in place."""
    for e, c in p.items():
        if type(c) is not int and c.denominator == 1:
            p[e] = c.numerator
    return p


def _lp_trim(terms):
    """terms without zeros, integral coefficients as ints."""
    out = {e: c for e, c in terms.items() if c}
    if not all(isinstance(c, _FRACTIONABLE) for c in out.values()):
        raise TypeError("QScalar coefficients must be int or Fraction")
    return _lp_ints(out)


def _lp_iadd(out, p, k=0, c=1):
    """out += c * u^k * p in place, a key dropped when its sum is zero; out.

    The one loop that adds into a polynomial, the counterpart of _acc."""
    for e, v in p.items():
        e += k
        s = out.get(e, 0) + c * v
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _lp_add(p1, p2):
    return _lp_ints(_lp_iadd(dict(p1), p2))


def _lp_neg(p):
    return {e: -c for e, c in p.items()}


def _lp_mul(p1, p2):
    """p1*p2 for polynomials with no zero and no integral Fraction term.

    A one-term factor c*u^k is a shift by k, and a scale unless c is 1, in
    the pair loop's key order; the unit {0: 1} returns the other operand
    itself, safe only because no kernel mutates a product."""
    if not p1 or not p2:
        return {}
    if len(p1) == 1 or len(p2) == 1:
        p, ((k, c),) = (p2, p1.items()) if len(p1) == 1 else (p1, p2.items())
        if c == 1:
            return _lp_shift(p, k)
        out = {e + k: v * c for e, v in p.items()}
        return out if all(map(_is_int, out.values())) else _lp_ints(out)
    out = {}
    for e1, c1 in p1.items():
        _lp_iadd(out, p2, e1, c1)
    return _lp_ints(out)


def _lp_shift(p, k):
    """Multiply by u^k; p itself when k is 0."""
    if k == 0:
        return p
    return {e + k: c for e, c in p.items()}


def _lp_quo(p1, p2):
    """p1/p2 in Q[u], exact; exponents must be nonnegative.

    Raises ArithmeticError when p2 does not divide p1.  Each step cancels
    the remainder's term at u^e and adds terms below it only, so one pass
    down the exponents visits every leading term; the quotient's keys
    descend."""
    num = dict(p1)
    dmax = max(p2)
    dlead = p2[dmax]
    quo = {}
    for e in range(max(num, default=0), dmax - 1, -1):
        c = num.get(e)
        if c is None:
            continue
        c = _div(c, dlead)
        quo[e - dmax] = c
        _lp_iadd(num, p2, e - dmax, -c)
    if num:
        raise ArithmeticError("inexact polynomial quotient")
    return quo


def _lp_primitive(p):
    """The primitive part of p over Z: int coefficients with gcd 1."""
    if not p:
        return p
    if not all(map(_is_int, p.values())):
        m = math.lcm(*(c.denominator for c in p.values()))
        p = {e: (c * m).numerator for e, c in p.items()}
    g = math.gcd(*p.values())
    return p if g == 1 else {e: c // g for e, c in p.items()}


def _lp_gcd(p1, p2):
    """Monic gcd in Q[u] of int/Fraction polynomials; exponents >= 0.

    The primitive polynomial remainder sequence over Z (Collins 1967;
    Brown 1971; Knuth, TAOCP 2, 4.6.1): clear denominators, take primitive
    parts, and replace (a, b) by (b, pp(prem(a, b))) until b vanishes.
    Each pseudo-division step scales the remainder by lc(b)/g and
    subtracts c/g times a shift of b, g = gcd(lc(b), c) for its leading
    coefficient c, so every step is exact in Z.  The result is the monic
    gcd, the one Euclid's algorithm over Q gives.
    """
    a, b = _lp_primitive(p1), _lp_primitive(p2)
    while b:
        dmax = max(b)
        dlead = b[dmax]
        r = dict(a)
        while r and (e := max(r)) >= dmax:
            g = math.gcd(dlead, r[e])
            m, c = dlead // g, r[e] // g
            if m != 1:
                for k in r:
                    r[k] *= m
            _lp_iadd(r, b, e - dmax, -c)
        a, b = b, _lp_primitive(r)
    if not a:
        return {0: 1}
    lead = a[max(a)]
    return {e: _div(c, lead) for e, c in a.items()}


def _lp_eval(p, x, step):
    """Sum of c*x^(e/step) over the terms of p; step divides every e.

    A Fraction x = n/d is summed over the integers, as
    sum c*n^(k-lo)*d^(hi-k) for k = e/step in [lo, hi], and divided once;
    a float x is summed term by term.
    """
    if not isinstance(x, Fraction):
        total = 0.0
        for e, c in p.items():
            total += c * x ** (e // step)
        return total
    if not p:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    lo, hi = min(p) // step, max(p) // step
    total = sum(c * n ** (e // step - lo) * d ** (hi - e // step)
                for e, c in p.items())
    return Fraction(total * n ** max(lo, 0) * d ** max(-hi, 0),
                    d ** max(hi, 0) * n ** max(-lo, 0))


# ---------------------------------------------------------------------------
# QScalar: reduced fraction of Laurent polynomials
# ---------------------------------------------------------------------------

_FRACTIONABLE = (int, Fraction)
_UNIT = {0: 1}                    # the denominator of every polynomial


class QScalar:
    """An exact element of Q(q^(1/2)).

    Internally a pair num/den of Laurent polynomials in u = q^(1/2),
    each a dict of u-exponent -> coefficient, the coefficient an int when
    integral and a Fraction otherwise.  The denominator is canonical: a
    genuine polynomial in u with nonzero constant term and leading
    coefficient 1, coprime to the numerator (the numerator absorbs all
    u-power shifts).  Equality, hashing and zero-testing are therefore
    structural; hash(Fraction(n)) == hash(n), so they do not depend on
    how a coefficient is stored.  The dicts are never mutated after
    construction, so results may share them with operands.

    Arithmetic reduces through _canonicalize on small pairs only:
    n1/d1 * n2/d2 reduces n1 against d2 and n2 against d1; a quotient is
    the product with the divisor's num and den swapped; a sum over
    d1 != d2 reduces d1 against d2 to d1/g and d2/g, g = gcd(d1, d2), and
    then only n1*d2/g + n2*d1/g against g.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _UNIT
        if _canonical:
            self.num = num
            self.den = den
        else:
            self.num, self.den = self._canonicalize(num, den)
        self._hash = None

    @staticmethod
    def _canonicalize(num, den):
        """The canonical pair of num/den; the one place a fraction reduces.

        The common factor is the monic gcd of _lp_gcd (primitive PRS over
        Z), divided out exactly; the denominator is then scaled to be monic
        through _div.  A one-term side c*u^a against p has the gcd
        u^min(a, val p), so no gcd is taken when a or val p is 0: the
        factor is 1 by shape.  Coefficients come back as ints where
        integral and as Fractions elsewhere, with zero terms dropped.
        Inputs of nonzero ints that need no shift or scaling come back
        uncopied.
        """
        if not (all(num.values()) and all(map(_is_int, num.values()))):
            num = _lp_trim(num)
        if not (all(den.values()) and all(map(_is_int, den.values()))):
            den = _lp_trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator in QScalar")
        if not num:
            return {}, _UNIT
        if set(den) == {0}:
            c = den[0]
            if c != 1:
                num = {e: _div(v, c) for e, v in num.items()}
            return num, _UNIT
        # make both sides polynomials for the gcd step
        shift = -min(min(num), min(den), 0)
        n = _lp_shift(num, shift)
        d = _lp_shift(den, shift)
        # gcd(c*u^a, p) = u^min(a, val p): 1 when a side has valuation 0
        if not ((len(n) == 1 or len(d) == 1) and 0 in (min(n), min(d))):
            g = _lp_gcd(n, d)
            if g != _UNIT:
                n = _lp_quo(n, g)
                d = _lp_quo(d, g)
        # denominator canonical: constant term nonzero, monic
        mn = min(d)
        if mn:
            n = _lp_shift(n, -mn)
            d = _lp_shift(d, -mn)
        lead = d[max(d)]
        if lead != 1:
            n = {e: _div(c, lead) for e, c in n.items()}
            d = {e: _div(c, lead) for e, c in d.items()}
        return n, d

    # -- constructors ---------------------------------------------------

    @staticmethod
    def promote(x):
        if isinstance(x, QScalar):
            return x
        if isinstance(x, _FRACTIONABLE):
            if type(x) is not int:
                x = _int(Fraction(x))
            return QScalar({0: x} if x else {}, _canonical=True)
        raise TypeError(f"cannot promote {type(x).__name__} to QScalar")

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_polynomial(self):
        return self.den == _UNIT

    def u_valuation(self):
        """Lowest u-degree of the numerator minus that of the denominator.

        This power of u = q^(1/2) dominates as q -> 0.
        """
        if self.is_zero():
            raise ValueError("zero has no valuation")
        return min(self.num) - min(self.den)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, QRadical):
            return QRadical.promote(self) + other
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            if d1 == _UNIT:
                return QScalar(_lp_add(n1, n2), d1, _canonical=True)
            return QScalar(_lp_add(n1, n2), d1)
        # Henrici: c1 = d1/g and c2 = d2/g for g = gcd(d1, d2); the sum
        # t/(c1 c2 g) with t = n1 c2 + n2 c1 can share factors with g only
        c1, c2 = ((d1, d2) if _UNIT in (d1, d2)
                  else QScalar._canonicalize(d1, d2))
        t = _lp_add(_lp_mul(n1, c2), _lp_mul(n2, c1))
        if max(c1) == max(d1):  # g = 1
            return QScalar(t, _lp_mul(c1, c2), _canonical=True)
        g = _lp_quo(d1, c1)
        t, g = QScalar._canonicalize(t, g)
        return QScalar(t, _lp_mul(_lp_mul(c1, c2), g), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return QScalar(_lp_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        if isinstance(other, QRadical):
            return QRadical.promote(self) - other
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not QScalar:  # QScalar times QScalar: no promote
            if isinstance(other, QRadical):
                return other * self
            try:
                other = QScalar.promote(other)
            except TypeError:
                return NotImplemented
        if not (self.num and other.num):
            return ZERO
        return _cross_product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QRadical):
            return QRadical.promote(self) / other
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero QScalar")
        if self.is_zero():
            return ZERO
        return _cross_product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other):
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        return other / self

    def square(self):
        """self*self; QRadical.square is the same for radicals."""
        return self * self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("QScalar power must be an integer")
        if n < 0:
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QRadical):
            return QRadical.promote(self) == other
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((frozenset(self.num.items()),
                               frozenset(self.den.items())))
        return self._hash

    # -- evaluation / display ----------------------------------------------

    def evaluate(self, point):
        """Numeric value at a QPoint; a Fraction when the point allows it."""
        if isinstance(point.q0, Fraction) and all(
                e % 2 == 0 for e in self.num) and all(
                e % 2 == 0 for e in self.den):
            # integral q-powers only: evaluate exactly in q0
            x, step = point.q0, 2
        else:
            x, step = point.sqrt_q, 1
        num = _lp_eval(self.num, x, step)
        den = _lp_eval(self.den, x, step)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at q={point.q0}")
        return num / den

    def __repr__(self):
        return f"QScalar({self})"

    def __str__(self):
        if self.is_polynomial():
            return _lp_str(self.num)
        return f"({_lp_str(self.num)})/({_lp_str(self.den)})"


def _cross_product(n1, d1, n2, d2):
    """(n1/d1) * (n2/d2) for nonzero coprime pairs with d1 canonical.

    Henrici's cross-cancellation: reduce n1 against d2 and n2 against d1;
    the product of the two reduced pairs is then canonical as it stands.
    A pair over the unit polynomial needs no reduction, and two of them
    multiply their numerators alone.  The quotient passes the divisor as
    (den, num), so d2 may be any nonzero numerator.
    """
    if d1 == _UNIT and d2 == _UNIT:
        return QScalar(_lp_mul(n1, n2), _UNIT, _canonical=True)
    a, b = (n1, d2) if d2 == _UNIT else QScalar._canonicalize(n1, d2)
    c, d = (n2, d1) if d1 == _UNIT else QScalar._canonicalize(n2, d1)
    return QScalar(_lp_mul(a, c), _lp_mul(b, d), _canonical=True)


def _lp_str(p):
    if not p:
        return "0"
    bits = []
    for e in sorted(p, reverse=True):
        c = p[e]
        if e == 0:
            bits.append(f"{c}")
        else:
            ez = Fraction(e, 2)
            power = "q" if ez == 1 else f"q^{ez}"
            if c == 1:
                bits.append(power)
            elif c == -1:
                bits.append(f"-{power}")
            else:
                bits.append(f"{c}*{power}")
    return " + ".join(bits).replace("+ -", "- ")


ZERO = QScalar({}, _canonical=True)
ONE = QScalar({0: 1}, _canonical=True)
Q = QScalar({2: 1}, _canonical=True)     # the generator q itself


def q_power(doubled_exponent):
    """q^(k/2) where k = doubled_exponent (an integer)."""
    return QScalar({doubled_exponent: 1}, _canonical=True)


def from_fraction(x):
    return QScalar.promote(Fraction(x))


def q_int(two_n):
    """The q-integer [n]_q for n = two_n/2, as an exact QScalar.

    [n]_q = (q^n - q^-n)/(q - q^-1); half-integer n lands on the q^(1/2)
    exponent lattice.  evaluate(q_int(2n), q0=1) == n.

    For integer n the quotient is the Laurent polynomial
    q^(n-1) + q^(n-3) + ... + q^(1-n) (negated for n < 0).  It is built
    directly, with no gcd, in the canonical form and term order that the
    division gives; evaluate sums in that order.
    """
    if not isinstance(two_n, int):
        raise TypeError("q_int takes the doubled index 2n as an integer")
    if two_n == 0:
        return ZERO
    if two_n % 2 == 0:
        n = abs(two_n) // 2
        sign = 1 if two_n > 0 else -1
        return QScalar({2 * n - 2 - 4 * j: sign for j in range(n)},
                       _canonical=True)
    num = QScalar({two_n: 1, -two_n: -1})
    den = QScalar({2: 1, -2: -1})
    return num / den


def sqrt_q_int_product(two_a, two_b):
    """sqrt([a]_q [b]_q) for integers a, b >= 1, from the doubled indices.

    [n]_q = q^(1-n) P_n, P_n = (x^n - 1)/(x - 1) for x = q^2, and
    gcd(P_a, P_b) = P_g for g = gcd(a, b), so sqrt([a][b]) is
    q^((2-a-b)/2) P_g sqrt((P_a/P_g)(P_b/P_g)): a radicand of coprime
    square-free factors, monic with constant term 1, canonical with no gcd
    taken.  Terms run in descending exponent order.
    """
    if two_a % 2 or two_b % 2 or min(two_a, two_b) < 2:
        raise ValueError("sqrt_q_int_product takes 2a, 2b for a, b >= 1")
    a, b = two_a // 2, two_b // 2
    g = math.gcd(a, b)
    coeff = {4 * i + 2 - a - b: 1 for i in range(g - 1, -1, -1)}
    core = _lp_mul(*({4 * g * i: 1 for i in range(n // g - 1, -1, -1)}
                     for n in (a, b)))
    return QRadical({QScalar(core, _canonical=True):
                     QScalar(coeff, _canonical=True)})


# ---------------------------------------------------------------------------
# Radical extension: finite sums  sum c_i sqrt(r_i)
# ---------------------------------------------------------------------------

_TRIAL_DIVISION_CAP = 100000


def _int_square_part(n):
    """(s, r) with n = s^2 r and r square-free, for an int n >= 0.

    Trial division removes the factors p <= _TRIAL_DIVISION_CAP while the
    cofactor m is at least p^3.  Once m < p^3 and m has no factor below
    p, m is 1, a prime, a prime squared or a product of two primes, and
    the perfect-square test tells them apart.  A cofactor left at least
    p^3 past the cap that is not a perfect square raises ValueError: its
    square part is not known, and r would not be canonical.
    """
    root = math.isqrt(n)
    if root * root == n:
        return root, 1
    s, r, rest, p = 1, 1, n, 2
    while p * p * p <= rest and p <= _TRIAL_DIVISION_CAP:
        while rest % (p * p) == 0:
            s *= p
            rest //= p * p
        if rest % p == 0:
            r *= p
            rest //= p
        p += 1 if p == 2 else 2
    root = math.isqrt(rest)
    if root * root == rest:
        return s * root, r
    if p * p * p <= rest:
        raise ValueError(f"square part of {n} unknown: the cofactor {rest} "
                         f"has no factor <= {_TRIAL_DIVISION_CAP}, and is "
                         f"neither a square nor below the cap cubed")
    return s, r * rest


def _fraction_square_part(c):
    """c = s^2 * r with the numerator and denominator of r square-free."""
    sn, rn = _int_square_part(c.numerator)
    sd, rd = _int_square_part(c.denominator)
    return Fraction(sn, sd), Fraction(rn, rd)


def _poly_square_free_split(p):
    """p = content * s^2 * r with s, r monic and r square-free.

    p is a dict polynomial in Q[u] with nonnegative exponents; returns
    (content, s, r) with content an int or a Fraction.
    """
    one = {0: 1}
    lead = p[max(p)]
    mono = {e: _div(c, lead) for e, c in p.items()}
    if max(mono) == 0:
        return lead, dict(one), dict(one)
    deriv = _lp_trim({e - 1: c * e for e, c in mono.items() if e})
    g = _lp_gcd(mono, deriv)
    if max(g) == 0:
        return lead, dict(one), mono
    w = _lp_quo(mono, g)
    # mono = g*w with w = product of the distinct irreducible factors;
    # recursing on g and dividing w by the even-multiplicity part gives
    # mono = (s1*r1)^2 * (w/r1) with w/r1 square-free.
    _, s1, r1 = _poly_square_free_split(g)
    return lead, _lp_mul(s1, r1), _lp_quo(w, r1)


def _canonical_radicand(r):
    """Split sqrt(r) = coeff * sqrt(core) with core canonical.

    core is ONE for perfect squares; otherwise the square-free residue
    (times a square-free rational and possibly a single power of u).
    """
    if r.is_zero():
        return ZERO, ONE
    # sqrt(num/den) = sqrt(num*den)/den
    p = _lp_mul(r.num, r.den)
    den = QScalar(dict(r.den), _canonical=True)
    shift = min(p)
    even = shift - (shift % 2)
    p0 = _lp_shift(p, -even)              # min exponent now 0 or 1
    content, s, core = _poly_square_free_split(p0)
    neg = content < 0
    if neg:
        content = -content
    csq, crem = _fraction_square_part(content)
    coeff = QScalar(_lp_shift(s, even // 2)) * QScalar.promote(csq) / den
    core_scalar = QScalar(_lp_mul(core, {0: _int(crem)}))
    if neg:
        core_scalar = -core_scalar
    return coeff, core_scalar


def sqrt_scalar(x):
    """Formal square root of a QScalar, as a QRadical (exact when square)."""
    x = QScalar.promote(x)
    coeff, core = _canonical_radicand(x)
    if coeff.is_zero():
        return QRadical({})
    return QRadical({core: coeff})


class QRadical:
    """Finite sum  sum_i c_i * sqrt(r_i)  over Q(q^(1/2)).

    Radicands are canonical, so sqrt(u)*sqrt(v) simplifies to sqrt(uv)
    with square factors extracted, and squaring a single term always
    lands back in QScalar.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {}
        for rad, coeff in (terms or {}).items():
            _acc(self.terms, QScalar.promote(rad), QScalar.promote(coeff))
        self._hash = None

    @staticmethod
    def promote(x):
        if isinstance(x, QRadical):
            return x
        x = QScalar.promote(x)
        return QRadical({ONE: x})

    def is_zero(self):
        return not self.terms

    def is_scalar(self):
        return set(self.terms) <= {ONE}

    def as_scalar(self):
        if not self.is_scalar():
            raise ValueError(f"radical does not simplify to Q(q^(1/2)): {self}")
        return self.terms.get(ONE, ZERO)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        out = QRadical()
        out.terms = dict(self.terms)
        for r, c in other.terms.items():
            _acc(out.terms, r, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return QRadical({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        out = QRadical()
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                c = c1 * c2
                if r1 == r2:
                    rad, cc = ONE, c * r1
                elif r1 == ONE:
                    rad, cc = r2, c
                elif r2 == ONE:
                    rad, cc = r1, c
                else:
                    extra, rad = _canonical_radicand(r1 * r2)
                    cc = c * extra
                _acc(out.terms, rad, cc)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QRadical) and not other.is_scalar():
            terms = list(other.terms.items())
            if len(terms) == 1:
                r, c = terms[0]
                return self * QRadical({r: ONE / (c * r)})
            raise ValueError("division by a multi-term radical")
        if isinstance(other, QRadical):
            other = other.as_scalar()
        try:
            other = QScalar.promote(other)
        except TypeError:
            return NotImplemented
        return QRadical({r: c / other for r, c in self.terms.items()})

    def __rtruediv__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        return other / self

    def square(self):
        """self*self, a QScalar whenever it is one: c*sqrt(r) gives c^2*r."""
        if len(self.terms) == 1:
            ((r, c),) = self.terms.items()
            return c.square() * r
        out = self * self
        return out.as_scalar() if out.is_scalar() else out

    def __eq__(self, other):
        try:
            other = QRadical.promote(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = (hash(self.as_scalar()) if self.is_scalar()
                          else hash(frozenset(self.terms.items())))
        return self._hash

    def evaluate(self, point):
        total = 0.0
        for r, c in self.terms.items():
            rv = r.evaluate(point)
            if rv < 0:
                raise ValueError(f"negative radicand {r} at q={point.q0}")
            total += float(c.evaluate(point)) * math.sqrt(float(rv))
        return total

    def __repr__(self):
        if not self.terms:
            return "QRadical(0)"
        bits = []
        for r, c in sorted(self.terms.items(), key=lambda t: str(t[0])):
            if r == ONE:
                bits.append(f"{c}")
            else:
                bits.append(f"({c})*sqrt({r})")
        return "QRadical(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# Evaluation points
# ---------------------------------------------------------------------------

class QPoint:
    """A numeric evaluation point 0 < q0 < inf, with b_q = max(q0, 1/q0).

    A rational q0 whose square root is rational keeps evaluation exact;
    anything else evaluates through floats.  The square root is taken on
    first use, so a q0 past the float range fails only where it is used.
    """

    __slots__ = ("q0", "_sqrt_q")

    def __init__(self, q0):
        if isinstance(q0, str):
            q0 = Fraction(q0)
        q0 = Fraction(q0) if isinstance(q0, _FRACTIONABLE) else float(q0)
        if not 0 < q0 < math.inf:
            raise ValueError("q0 must be positive and finite")
        self.q0 = q0
        self._sqrt_q = None

    @property
    def sqrt_q(self):
        if self._sqrt_q is None:
            root = (_fraction_sqrt(self.q0) if isinstance(self.q0, Fraction)
                    else None)
            self._sqrt_q = (root if root is not None
                            else math.sqrt(float(self.q0)))
        return self._sqrt_q

    @property
    def b_q(self):
        return max(self.q0, 1 / self.q0)

    @property
    def is_one(self):
        return self.q0 == 1

    def __repr__(self):
        return f"QPoint({self.q0})"


def _fraction_sqrt(x):
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def normalize_scalar(x):
    """x with ints and Fractions promoted and a QRadical with no radical
    part collapsed to its QScalar; other values (floats) unchanged."""
    # exact scalars first: Fraction is an ABC, and testing it is slow
    if isinstance(x, QRadical):
        return x.as_scalar() if x.is_scalar() else x
    if not isinstance(x, QScalar) and isinstance(x, _FRACTIONABLE):
        return QScalar.promote(x)
    return x


def is_zero(x):
    """Whether x is zero: by its is_zero method where it has one (exact
    scalars, algebra elements, one-forms, Fourier arrays), else by value."""
    try:
        return x.is_zero()
    except AttributeError:          # a plain number
        return x == 0


def _acc(out, key, value):
    """out[key] += value in place, the key dropped when the sum is zero.

    The one rule for every sparse sum {key: value} of the package.
    """
    acc = out.get(key)
    acc = value if acc is None else acc + value
    if is_zero(acc):
        out.pop(key, None)
    else:
        out[key] = acc


def shifted_sum(pairs):
    """sum of q^(k/2) * x over (k, x) pairs of an int and a QScalar.

    Numerators over one denominator add in place, shifted by k, and each
    denominator's sum is reduced once: where no partial sum would reduce,
    in the term order that QScalar + gives."""
    groups = {}                         # den terms -> (den, numerator sum)
    for k, x in pairs:
        den, num = groups.setdefault(frozenset(x.den.items()), (x.den, {}))
        _lp_iadd(num, x.num, k)
    parts = [QScalar(_lp_ints(num), den, _canonical=den == _UNIT)
             for den, num in groups.values()]
    return sum(parts[1:], parts[0]) if parts else ZERO


def evaluate(x, point):
    """Numeric value of an exact scalar at a QPoint."""
    if isinstance(x, (QScalar, QRadical)):
        return x.evaluate(point)
    if isinstance(x, _FRACTIONABLE):
        return Fraction(x)
    if isinstance(x, float):
        return x
    raise TypeError(f"cannot evaluate {type(x).__name__}")


def bq_asymptotic_ratio(n_max, point):
    """Ratios [n]_q / b_q^n for n = 1..n_max at a numeric point q0 != 1.

    With b = b_q one has [n]_q = (b^n - b^-n)/(b - b^-1), so the ratios
    increase monotonically from 1/b towards 1/(1 - b^-2) and stay inside
    a fixed positive interval independent of n.
    """
    if point.is_one:
        raise ValueError("b_q asymptotics degenerate at q0 = 1; [n]_1 = n")
    out = []
    b = float(point.b_q)
    for n in range(1, n_max + 1):
        val = float(evaluate(q_int(2 * n), point))
        out.append(val / b ** n)
    return out
