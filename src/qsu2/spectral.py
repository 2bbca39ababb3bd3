"""Dirac-type operators given by per-spin eigenvalue families.

A DiracSpec carries |lambda_l| for each spin: the classical family
2l+1, its q-deformation [2l+1]_q, or an explicit table.  Every
implemented operation (powers, commutators, summability, growth ratios)
depends on |D| alone, so no signs are kept.

Summability is classified analytically (exponent comparison for the
polynomial family at q = 1, ratio test for the geometric regimes), never
by numeric extrapolation; partial-sum tables are emitted as evidence
only.  Two multiplicity conventions are computed side by side: the
quantum weight d_l n_l of the defining series, and the plain
Hilbert-space multiplicity n_l^2 -- at q != 1 the classical eigenvalue
family is summable in the second convention and in none of the first.

The commutator d(a)b = |D|(ab) - a(|D|b) is exact; polynomial products
have finite spin support, so there is no truncation error inside the
configured cap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from operator import mul
from typing import NamedTuple

from .qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, sqrt_scalar, evaluate,
)
from .algebra import _haar_bc, _promote_elem
from .peterweyl import _index_pairs, quantum_dimension, q_weight
from .fourier import FourierArray, _dn_at

__all__ = [
    "DiracSpec", "SummabilityReport", "summability_classify",
    "abs_dirac_power", "commutator_apply", "boundedness_scan",
]


class DiracSpec:
    """Eigenvalue family of a Dirac-type operator.

    family: "classical"  -> |lambda_l| = 2l+1
            "q-deformed" -> |lambda_l| = [2l+1]_q
            "table"      -> explicit {twice_l: scalar}

    Read-only; equal specs have equal (family, table), and the hash
    leaves the table out.
    """

    __slots__ = ("family", "table")

    def __init__(self, family="classical", table=None):
        if family not in ("classical", "q-deformed", "table"):
            raise ValueError(f"unknown Dirac family {family!r}")
        if family == "table" and not table:
            raise ValueError("table family needs an explicit eigenvalue map")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to DiracSpec field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return DiracSpec, (self.family, self.table)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.table) == (other.family, other.table)

    def __hash__(self):
        return hash((self.family,))

    def __repr__(self):
        return f"DiracSpec(family={self.family!r}, table={self.table!r})"

    def abs_eigenvalue(self, twice_l):
        """|lambda_l| as an exact scalar."""
        if self.family == "classical":
            return QScalar.promote(twice_l + 1)
        if self.family == "q-deformed":
            return q_int(2 * (twice_l + 1))
        val = self.table.get(twice_l)
        if val is None:
            raise KeyError(f"no eigenvalue for spin {Fraction(twice_l, 2)}")
        return val if isinstance(val, (QScalar, QRadical)) \
            else QScalar.promote(val)


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------

class SummabilityReport(NamedTuple):
    spectral_dimension: object            # float or None
    plain_multiplicity_dimension: object  # the n^2 convention, for comparison
    evidence: list                        # rows (beta, l, partial sum)
    reasoning: str


_EVIDENCE_BETAS = (1.5, 3.0, 3.5)
_EVIDENCE_CUTOFF = 40    # doubled spin of the last partial sum


def summability_classify(spec, point):
    """Infimum beta with sum_l d_l n_l / |lambda_l|^beta finite.

    Classified analytically: at q = 1 the summand of the classical family
    is (2l+1)^(2-beta) (a p-series, finite iff beta > 3); at q != 1 the
    q-deformed family satisfies a geometric ratio test (finite iff
    beta > 1), while the classical family diverges for every beta since
    d_l grows geometrically against a polynomial |lambda_l|.  The
    evidence rows are partial sums at l = 5, 10 and 20 for a few betas.
    """
    if spec.family == "table":
        raise ValueError("closed-form family required; a table carries no "
                         "decay information to classify")
    q_is_one = point.is_one
    if spec.family == "classical" and q_is_one:
        dim, why = 3.0, "summand (2l+1)^(2-beta): p-series threshold beta=3"
    elif spec.family == "q-deformed" and q_is_one:
        dim, why = 3.0, "q=1 collapses [2l+1]_q to 2l+1: classical threshold"
    elif spec.family == "q-deformed":
        dim, why = 1.0, ("summand (2l+1) [2l+1]_q^(1-beta): geometric ratio "
                         "b_q^(2(1-beta)) < 1 iff beta > 1")
    else:
        dim, why = None, ("d_l n_l/|lambda_l|^beta has geometric growth "
                          "b_q^(2l) against polynomial decay: divergent for "
                          "every beta")

    if spec.family == "classical" or q_is_one:
        alt = 3.0   # n^2 (2l+1)^(-beta) = (2l+1)^(2-beta)
    else:
        alt = 0.0   # n^2 [2l+1]_q^(-beta): geometric for every beta > 0

    evidence = []
    for beta in _EVIDENCE_BETAS:
        total = 0.0
        for tl in range(0, _EVIDENCE_CUTOFF + 1):
            lam = abs(float(evaluate(spec.abs_eigenvalue(tl), point)))
            total += _dn_at(tl, point) / lam ** beta
            if tl in (10, 20, _EVIDENCE_CUTOFF):
                evidence.append((beta, Fraction(tl, 2), total))
    return SummabilityReport(dim, alt, evidence, why)


# ---------------------------------------------------------------------------
# powers of |D|
# ---------------------------------------------------------------------------

def abs_dirac_power(arr, alpha, spec, point=None):
    """Per-spin scaling by |lambda_l|^alpha.

    arr must have exact entries.  alpha = 0 is the identity.  Integer
    alpha stays in QScalar; half integer alpha scales by an exact formal
    square root; anything else gives float entries, for the float norms
    only, and needs an evaluation point.
    """
    frac = _as_fraction(alpha)
    out = {}
    for tl, mat in arr.coeffs.items():
        lam = spec.abs_eigenvalue(tl)
        if frac is not None and frac.denominator in (1, 2):
            if frac.denominator == 1:
                scale = lam ** frac.numerator
            elif isinstance(lam, QRadical):
                raise ValueError("half-integer powers need a QScalar family")
            else:
                scale = sqrt_scalar(lam ** frac.numerator)
            out[tl] = {k: scale * v for k, v in mat.items()}
        else:
            if point is None:
                raise ValueError(
                    f"power {alpha} is numeric; an evaluation point is needed")
            s = abs(float(evaluate(lam, point))) ** float(alpha)
            out[tl] = {k: float(evaluate(v, point)) * s
                       for k, v in mat.items()}
    return FourierArray(out)


def _as_fraction(alpha):
    if isinstance(alpha, int):
        return Fraction(alpha)
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, float) and float(alpha).is_integer():
        return Fraction(int(alpha))
    return None


# ---------------------------------------------------------------------------
# commutators
# ---------------------------------------------------------------------------

def apply_abs_dirac(f, spec, pw, alpha=1):
    """|D|^alpha f, exact for integer alpha: a scalar per spin commutes
    with the unitary gauge, so it scales f's T-basis blocks as they are."""
    scaled = abs_dirac_power(FourierArray(pw.pw_expand(f)), alpha, spec)
    return pw.reconstruct(scaled.coeffs)


def commutator_apply(a, b, spec, pw):
    """d(a)(b) = [|D|, a] b = |D|(ab) - a (|D| b), exactly."""
    a = _promote_elem(a)
    b = _promote_elem(b)
    return apply_abs_dirac(a * b, spec, pw) - a * apply_abs_dirac(b, spec, pw)


# ---------------------------------------------------------------------------
# the boundedness-condition ratio
# ---------------------------------------------------------------------------

def _diff_sq(spec, twice_k, twice_s):
    """|lam_k - lam_s|^2."""
    return (spec.abs_eigenvalue(twice_k)
            - spec.abs_eigenvalue(twice_s)).square()


def _entry_data(pw, twice_l, tm, tn):
    """The row weight N_m/N_n, the column weight (N_m/N_n) d_l/q_n, the
    shift q^(-2h) and {k: coefficient of (bc)^k in T T*} of T = T^l_mn,
    whose signed head power is h."""
    h, tt = pw.bc_square(twice_l, tm, tn)
    row_weight = pw.gauge_ratio_sq(twice_l, tm, tn)
    return (row_weight, row_weight * quantum_dimension(twice_l) / q_weight(tn),
            q_power(-4 * h), {mono.b_pow: c for mono, c in tt.terms.items()})


def _over_lcm(xs):
    """(den, [x den for x in xs]), den the lcm of the denominators of xs."""
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _int_entry(data, haar_bc, top):
    """_entry_data in Fractions as (den, ints), one int den per factor.
    With h the signed head power of A, (bc) A = q^(2h) A (bc), so with
    s = q^(-2h), A A* = sum a_u (bc)^u and B B* = sum b_v (bc)^v,
    h(A B B* A*) = h((A A*) (B B*)|_(bc -> s bc)) is the bilinear form
    sum_u sum_v a_u b_v s^v h((bc)^(u+v)), whose sum over u is A's alone.
    For row weight rn/rd, shift sn/sd, a_u = A_u/Ad and h_k = H_k/Hd up to
    k = deg(A A*) + top, A's vector as the left factor is [c_0..c_top]
    over rd Ad Hd sd^top, c_v = rn sn^v sd^(top-v) sum_u A_u H_(u+v); as
    the right factor, [cn A_u] over cd Ad for column weight cn/cd."""
    row_weight, column_weight, shift, bc = data
    ad, aa = _over_lcm([bc.get(u, 0) for u in range(max(bc) + 1)])
    hd, hh = _over_lcm(haar_bc)
    rn, sn, sd = row_weight.numerator, shift.numerator, shift.denominator
    left = (row_weight.denominator * ad * hd * sd ** top,
            [rn * sn ** v * sd ** (top - v) * sum(map(mul, aa, hh[v:]))
             for v in range(top + 1)])
    return left, (column_weight.denominator * ad,
                  [column_weight.numerator * a for a in aa])


def _int_ratio_sq(diff_sq, left, right):
    """diff_sq (row weight of A) h(A B (A B)*) (column weight of B) as an
    unreduced (n, d), d > 0: A's vector dotted with B's coefficients."""
    return (diff_sq[0] * sum(map(mul, left[1], right[1])),
            diff_sq[1] * left[0] * right[0])


def boundedness_scan(twice_cap, spec, pw, point):
    """All ratios for k, s <= cap; rows (k, s, i, j, p, r, family, q, ratio).

    A ratio is sqrt(|lam_k - lam_s|^2 h(P P*) d_s/q_r), P = t^k_ij t^s_pr,
    t^l_mn = sqrt(N_m/N_n) T^l_mn: its square is diff_sq h(A B (A B)*) for
    A = T^k_ij, B = T^s_pr (_int_entry), times A's row weight N_i/N_j and
    B's column weight (N_p/N_r) d_s/q_r = 1/h(B B*) (_entry_data).

    Every entry's data, each h((bc)^k) and each diff_sq are evaluated once
    at q0.  These scalars have only even powers of q^(1/2) and no
    denominator vanishing at q0 > 0, so each is a Fraction, exactly; a
    table family's diff_sq may have odd powers and evaluate to a float,
    read as the ratio it equals.  Each entry goes over int denominators
    once (_int_entry), so a row is one int dot product and one int
    division, rounded correctly: Fraction.__float__'s float, and its
    OverflowError past the float range."""
    value = partial(evaluate, point=QPoint(Fraction(point.q0)))
    entries = {}
    for tl in range(twice_cap + 1):
        for tm, tn in _index_pairs(tl):
            *weights, bc = _entry_data(pw, tl, tm, tn)
            entries[tl, tm, tn] = (*map(value, weights),
                                   {k: value(c) for k, c in bc.items()})
    haar_bc = [value(_haar_bc(k)) for k in range(2 * twice_cap + 1)]
    top = max(max(data[3]) for data in entries.values())
    ints = {key: _int_entry(data, haar_bc, top)
            for key, data in entries.items()}
    half = {t: Fraction(t, 2) for t in range(-twice_cap, twice_cap + 1)}
    rows = []
    for tk in range(0, twice_cap + 1):
        for ts in range(0, twice_cap + 1):
            diff_sq = value(_diff_sq(spec, tk, ts))
            zero = not diff_sq          # then every row of (k, s) is 0
            diff = diff_sq.as_integer_ratio()
            rights = [(tp, tr, ints[ts, tp, tr][1])
                      for tp, tr in _index_pairs(ts)]
            for ti, tj in _index_pairs(tk):
                left = ints[tk, ti, tj][0]
                for tp, tr, right in rights:
                    n, d = (0, 1) if zero else _int_ratio_sq(diff, left, right)
                    rows.append({
                        "k": half[tk], "s": half[ts],
                        "i": half[ti], "j": half[tj],
                        "p": half[tp], "r": half[tr],
                        "lambda_family": spec.family, "q": point.q0,
                        "ratio": math.sqrt(max(n / d, 0.0)),
                    })
    return rows
