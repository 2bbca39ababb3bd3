"""Peter-Weyl coefficient matrices of the quantum SU(2).

For each spin l the (2l+1)x(2l+1) matrix T^l of algebra elements is built
by coacting on the degree-2l monomial basis of the quantum plane
(y x = q x y,  x -> x(x)a + y(x)c,  y -> x(x)b + y(x)d), so the
corepresentation law and the counit normalization hold by construction.
T^(1/2) is the generator matrix [[a, b], [c, d]] with weights ascending
-l..l; rows and columns are indexed by doubled weights.

Entries are kept unnormalized together with squared row normalizers
N^l_m = 1/(2l choose l+m)_(q^2), Gaussian binomials in q^2 (Koornwinder
1989, Indag. Math. 51; Klimyk-Schmuedgen 1997, section 4.2), so every
identity can be tested in pure Q(q^(1/2)) arithmetic; the unitary
entries t^l_mn = sqrt(N_m/N_n) T^l_mn are materialized only on demand.
Only the orthogonality suite takes a Haar state: it is the theorem check.

The quantum-trace weights are q^l_i = q^(-2i), i = -l..l, with quantum
dimension d_l = [2l+1]_q = Tr Q^l = Tr (Q^l)^(-1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .qarith import (
    ONE, ZERO, _acc, q_power, q_int, sqrt_scalar, normalize_scalar,
)
from .algebra import (
    A, B, C, D, AlgebraElement, NormalMonomial, grade, haar, row_grade, star,
    _promote_elem,
)

__all__ = ["PWTable", "quantum_dimension", "q_weight"]


def quantum_dimension(twice_l):
    """d_l = [2l+1]_q."""
    return q_int(2 * (twice_l + 1))


def q_weight(tw):
    """Q-matrix entry at doubled weight tw: q^(-2i) with i = tw/2."""
    return q_power(-2 * tw)


# -- quantum plane helpers ---------------------------------------------------
# a plane tensor is a dict  (x_pow, y_pow) -> AlgebraElement

def _plane_mul(p1, p2):
    out = {}
    for (a1, b1), f1 in p1.items():
        for (a2, b2), f2 in p2.items():
            # y^b1 x^a2 = q^(b1 a2) x^a2 y^b1
            coeff = q_power(2 * b1 * a2)
            _acc(out, (a1 + a2, b1 + b2), (f1 * f2).scale(coeff))
    return out


class PWTable:
    """Coefficient matrices, normalizers and product decompositions.

    All data is exact and symbolic in q.  The table is built lazily up
    to the configured spin cap; requests beyond the cap raise ValueError
    (inside the cap there is no truncation error of any kind).  The row
    normalizers N^l_m = 1/(2l choose l+m)_(q^2) are closed-form.
    """

    def __init__(self, twice_l_max=6):
        self.twice_l_max = twice_l_max
        self._entries = {}      # twice_l -> {(tm, tn): AlgebraElement}
        # _norms and _gram keep their names: benchmarks/tracing.py reads them
        self._norms = {}        # twice_l -> {tm: QScalar}
        self._gram = {}         # (twice_l, tm, tn) -> (h, T T*)
        self._star_entries = {}
        self._clebsch = {}      # (twice_k, twice_s) -> coefficient map
        self._clebsch_sq = {}
        self._gauge_cache = {}  # (twice_l, tm, tn) -> sqrt(N_m/N_n)
        self._calculi = {}      # kind -> calculus.Calculus bound to this table

    # -- construction ----------------------------------------------------

    def _check(self, twice_l):
        if twice_l < 0 or twice_l > self.twice_l_max:
            raise ValueError(
                f"spin {Fraction(twice_l, 2)} outside table cap "
                f"{Fraction(self.twice_l_max, 2)}")

    @staticmethod
    @lru_cache(maxsize=None)
    def _coaction_powers(letter, power):
        if power == 0:
            return {(0, 0): AlgebraElement.scalar(1)}
        base = {(1, 0): A, (0, 1): C} if letter == "x" else \
               {(1, 0): B, (0, 1): D}
        prev = PWTable._coaction_powers(letter, power - 1)
        return _plane_mul(prev, base)

    def entries(self, twice_l):
        """The unnormalized matrix {(tm, tn): T^l_mn}."""
        self._check(twice_l)
        tl = twice_l
        if tl not in self._entries:
            mat = {}
            for tn in range(-tl, tl + 1, 2):
                x_pow = (tl - tn) // 2
                y_pow = (tl + tn) // 2
                col = _plane_mul(self._coaction_powers("x", x_pow),
                                 self._coaction_powers("y", y_pow))
                for (xa, yb), f in col.items():
                    tm = yb * 2 - tl        # v_m = x^(l-m) y^(l+m)
                    assert xa + yb == tl and xa == (tl - tm) // 2
                    mat[(tm, tn)] = f
            self._entries[tl] = mat
        return self._entries[tl]

    def entry(self, twice_l, tm, tn):
        return self.entries(twice_l)[(tm, tn)]

    def star_entry(self, twice_l, tm, tn):
        key = (twice_l, tm, tn)
        if key not in self._star_entries:
            self._star_entries[key] = star(self.entry(twice_l, tm, tn))
        return self._star_entries[key]

    def bc_square(self, twice_l, tm, tn):
        """(h, T T*) for T = T^l_mn, cached; T T* is a polynomial in bc.

        T has bidegree (-tm, -tn), so each of its monomials carries the
        one signed head power h = -(tm + tn)/2 (a^h, or d^-h when h < 0),
        and T T* has bidegree zero: it lies in the span of the (bc)^k.
        """
        key = (twice_l, tm, tn)
        if key not in self._gram:
            tt = self.entry(*key) * self.star_entry(*key)
            self._gram[key] = (-(tm + tn) // 2, tt)
        return self._gram[key]

    def norm_sq(self, twice_l):
        """Squared row normalizers {tm: N^l_m = 1/(2l choose l+m)_(q^2)}.

        Each row of Gaussian binomials comes from the last by the q-Pascal
        rule (n choose j) = q^(2j) (n-1 choose j) + (n-1 choose j-1) over
        the unit denominator: no division and no gcd.  The q^(2j) term
        goes first, so each B_m is held in descending exponent order, as
        q_int holds [n]_q, and its float evaluation sums in that order.
        """
        self._check(twice_l)
        tl = twice_l
        if tl not in self._norms:
            row = [ONE]
            for n in range(1, tl + 1):
                row = [ONE, *(q_power(4 * j) * row[j] + row[j - 1]
                              for j in range(1, n)), ONE]
            self._norms[tl] = {tm: ONE / row[(tl + tm) // 2]
                               for tm in range(-tl, tl + 1, 2)}
        return self._norms[tl]

    def gauge_ratio_sq(self, twice_l, tm, tn):
        """N_m / N_n: the square of the unitary gauge factor gamma_m/gamma_n."""
        norms = self.norm_sq(twice_l)
        return norms[tm] / norms[tn]

    def gauge_radical(self, twice_l, tm, tn):
        """sqrt(N_m/N_n) as a cached QRadical: the unitary gauge factor."""
        key = (twice_l, tm, tn)
        if key not in self._gauge_cache:
            self._gauge_cache[key] = sqrt_scalar(
                self.gauge_ratio_sq(twice_l, tm, tn))
        return self._gauge_cache[key]

    def unitary_entry(self, twice_l, tm, tn):
        """t^l_mn = sqrt(N_m/N_n) T^l_mn, with a QRadical coefficient."""
        ratio = self.gauge_radical(twice_l, tm, tn)
        t = self.entry(twice_l, tm, tn)
        return AlgebraElement({m: ratio * c for m, c in t.terms.items()})

    # -- expansion in the coefficient basis --------------------------------

    def pw_expand(self, f):
        """Coefficients {twice_l: {(tm,tn): c}} with f = sum c T^l_mn.

        Every entry T^l_mn is homogeneous of bidegree (-tm, -tn) in the
        two weight gradings, so each graded component of f meets exactly
        one matrix position per spin.  There the monomials have distinct
        degrees, two apart, and T^l_mn is the one entry with a monomial of
        degree 2l, its top monomial: the expansion is triangular in
        degree.  From the degree of f down, each coefficient is read off a
        top monomial, and exactness is asserted through the final residual.
        """
        f = _promote_elem(f)
        out = {}
        if f.is_zero():
            return out
        deg = f.degree()
        if deg > self.twice_l_max:
            raise ValueError(
                f"degree {deg} exceeds spin cap {self.twice_l_max}/2 support")
        # split into bigraded components
        components = {}
        for mono, coeff in f.terms.items():
            tm, tn = -row_grade(mono), -grade(mono)
            components.setdefault((tm, tn), {})[mono] = coeff
        for (tm, tn), terms in components.items():
            piece = AlgebraElement(terms)
            for tl in range(deg - (deg - tm) % 2, max(abs(tm), abs(tn)) - 1,
                            -2):
                entry = self.entry(tl, tm, tn)
                top = max(entry.terms, key=NormalMonomial.degree)
                c = piece.coefficient(top)
                if not c.is_zero():
                    c = c / entry.terms[top]
                    out.setdefault(tl, {})[(tm, tn)] = c
                    piece = piece - entry.scale(c)
            if not piece.is_zero():
                raise ArithmeticError("Peter-Weyl expansion left a residual")
        return out

    def reconstruct(self, coeffs):
        out = {}
        for tl, mat in coeffs.items():
            for (tm, tn), c in mat.items():
                for mono, cc in self.entry(tl, tm, tn).terms.items():
                    _acc(out, mono, cc * c)
        return AlgebraElement(out)

    # -- product decomposition ---------------------------------------------

    def clebsch_coefficients(self, twice_k, twice_s):
        """Expansion coefficients of t^k_ij t^s_pr in the unitary basis.

        Returns {(ti,tj,tp,tr,tm,tu,tt): C} where

            t^k_ij t^s_pr = sum_m sum_(u,t) C * t^m_ut

        holds exactly, m running over |k-s|..k+s.  Both weight gradings
        are conserved, so only (u, t) = (i+p, j+r) contributes.  C is a
        QRadical in general; its square is always a plain QScalar.  The
        library reads sum |C|^2 q_t/d_m as a Haar state instead
        (spectral.boundedness_ratio_sq); this expansion is its oracle.
        """
        self._check(twice_k + twice_s)
        cache_key = (twice_k, twice_s)
        if cache_key in self._clebsch:
            return self._clebsch[cache_key]
        out = {}
        ek, es = self.entries(twice_k), self.entries(twice_s)
        for (ti, tj) in _index_pairs(twice_k):
            for (tp, tr) in _index_pairs(twice_s):
                prod = ek[(ti, tj)] * es[(tp, tr)]
                expansion = self.pw_expand(prod)
                for tm, mat in expansion.items():
                    for (tu, tt), c_t in mat.items():
                        # gauge transport T-basis -> unitary basis
                        ratio = (self.gauge_ratio_sq(twice_k, ti, tj)
                                 * self.gauge_ratio_sq(twice_s, tp, tr)
                                 * self.gauge_ratio_sq(tm, tt, tu))
                        out[(ti, tj, tp, tr, tm, tu, tt)] = normalize_scalar(
                            sqrt_scalar(ratio) * c_t)
        self._clebsch[cache_key] = out
        return out

    def clebsch_squared(self, twice_k, twice_s):
        """{keys: |C|^2} in pure QScalar arithmetic."""
        cache_key = (twice_k, twice_s)
        if cache_key in self._clebsch_sq:
            return self._clebsch_sq[cache_key]
        out = {key: val.square() for key, val
               in self.clebsch_coefficients(twice_k, twice_s).items()}
        self._clebsch_sq[cache_key] = out
        return out

    # -- identity suites (used by tests and the CLI) -------------------------

    def orthogonality_violations(self, twice_l_cap):
        """Exact check of both Peter-Weyl orthogonality relations.

        Returns a list of violation descriptions (empty when the suite
        passes) covering all spins l, l' <= cap and all index tuples:

            h((t_ij)* t'_kl) = delta delta delta / (d_l q_i)
            h(t_ij (t'_kl)*) = delta delta delta q_j / d_l

        Both sides are taken on the entries T, scaled by N_i/N_j, the
        gauge of the left factor; diagonal and off-diagonal pairs alike.
        """
        bad = []
        spins = range(twice_l_cap + 1)
        for tl1 in spins:
            d = quantum_dimension(tl1)
            for tl2 in spins:
                for (ti, tj) in _index_pairs(tl1):
                    ratio = self.gauge_ratio_sq(tl1, ti, tj)
                    for (tk, tn) in _index_pairs(tl2):
                        same = (tl1, ti, tj) == (tl2, tk, tn)
                        first = ratio * haar(self.star_entry(tl1, ti, tj)
                                             * self.entry(tl2, tk, tn))
                        second = ratio * haar(self.entry(tl1, ti, tj)
                                              * self.star_entry(tl2, tk, tn))
                        if first != (ONE / q_weight(ti) / d if same else ZERO):
                            bad.append(("first", tl1, ti, tj, tl2, tk, tn))
                        if second != (q_weight(tj) / d if same else ZERO):
                            bad.append(("second", tl1, ti, tj, tl2, tk, tn))
        return bad


def _index_pairs(twice_l):
    rng = range(-twice_l, twice_l + 1, 2)
    return [(tm, tn) for tm in rng for tn in rng]
