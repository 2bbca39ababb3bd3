"""Acceptance suite: one test per criterion, tolerances pinned here.

Each test prints one ACCEPTANCE line (visible with -s or in the summary
of a failed run).  Criterion 7 checks three printed growth exponents as an
erratum: the 3D partials e+, e- (printed 2) and the 4D partial ea (printed
<= 5/2).  The weighted Hilbert-Schmidt norms of these pinned symbols grow
with exact exponent 3; the printed values are attained by the exponent of
the unweighted norm, which misses other claims of the same table.  The
repo holds only the source's abstract (PAPER.md), so the erratum is checked
against the library's own norm, the trace-weighted one that makes
Plancherel exact (criterion 3), not against the source's text.  The test
asserts all three facts, so the erratum is flagged once it goes stale.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, ZERO, ONE, Q, evaluate,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, coproduct, counit, antipode, star,
    haar, l2_inner, random_element,
)
from qsu2.peterweyl import PWTable, quantum_dimension, q_weight
from qsu2.fourier import (
    FourierArray, fourier_transform, inverse_fourier, plancherel_sum,
    SU2Grid, inequality_ratio, paley_constant,
)
from qsu2.multiplier import (
    apply_symbol, extract_symbol, adjoint_symbol, lp_lq_bound,
    schwartz_seminorms,
)
from qsu2.spectral import DiracSpec, summability_classify, commutator_apply, \
    boundedness_scan
from qsu2.calculus import (
    OneForm, THREE_D, FOUR_D, calculus, admissibility_check,
    geometric_dirac_eigenvalue_report, dirac_eigenvalues,
    q_laplacian, q_laplacian_metric, laplacian_eigenvalue,
    laplacian_eigenvalue_identity_holds, classical_limit_report,
)

from oracles import (
    dirac_eigenvalue_error, paley_constant_bruteforce, unitary_entry,
)

HALF = QPoint(Fraction(1, 2))
SEVEN_TENTHS = QPoint(Fraction(7, 10))
ONE_PT = QPoint(1)


@pytest.fixture(scope="module")
def pw():
    return PWTable(8)


@pytest.fixture(scope="module")
def grid():
    return SU2Grid(64, 64, 64)


def _line(number, ok, message):
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {message}")
    return ok


def test_criterion_01_orthogonality(pw):
    start = time.time()
    bad = pw.orthogonality_violations(3)
    # same identities at the rational point q = 7/10
    worst = 0.0
    for tl in range(0, 4):
        d = float(evaluate(quantum_dimension(tl), SEVEN_TENTHS))
        for (tm, tn), t in pw.entries(tl).items():
            second = float(evaluate(
                haar(t * pw.star_entry(tl, tm, tn)), SEVEN_TENTHS))
            ratio = float(evaluate(
                pw.gauge_ratio_sq(tl, tm, tn), SEVEN_TENTHS))
            want = float(evaluate(q_weight(tn), SEVEN_TENTHS)) / d
            worst = max(worst, abs(ratio * second - want))
    took = time.time() - start
    ok = not bad and worst < 1e-12 and took < 60
    assert _line(1, ok, f"Peter-Weyl orthogonality exact, l,l' <= 3/2 "
                        f"(residual {worst:.1e} at q=7/10, {took:.1f}s)")


def test_criterion_02_hopf_and_confluence():
    start = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(500):
        x = random_element(rng, 4, 2)
        y = random_element(rng, 4, 2)
        z = random_element(rng, 4, 2)
        if (x * y) * z != x * (y * z):
            ok = False
            break
    for _ in range(50):
        x = random_element(rng, 3, 3)
        t = coproduct(x)
        lhs = AlgebraElement({})
        ce = AlgebraElement({})
        for (ml, mr), coeff in t.pairs.items():
            lhs = lhs + (antipode(AlgebraElement({ml: ONE}))
                         * AlgebraElement({mr: ONE})).scale(coeff)
            ce = ce + AlgebraElement(
                {mr: coeff * counit(AlgebraElement({ml: ONE}))})
        if lhs != AlgebraElement.scalar(counit(x)) or ce != x:
            ok = False
            break
    took = time.time() - start
    ok = ok and took < 60
    assert _line(2, ok, f"rewriting confluence (500 triples) + Hopf axioms "
                        f"exact ({took:.1f}s)")


def test_criterion_03_fourier_roundtrip_plancherel(pw):
    start = time.time()
    rng = random.Random(2025)
    ok = True
    for _ in range(200):
        f = random_element(rng, 3, 4)
        if inverse_fourier(fourier_transform(f, pw), pw) != f:
            ok = False
            break
        if haar(f * star(f)) != plancherel_sum(fourier_transform(f, pw)):
            ok = False
            break
    took = time.time() - start
    ok = ok and took < 30
    assert _line(3, ok, f"Fourier round trip + Plancherel exact on 200 "
                        f"random polynomials ({took:.1f}s)")


def test_criterion_04_q_laplacian(pw):
    ok = True
    for tl in range(0, 7):
        lam = laplacian_eigenvalue(tl)
        if not laplacian_eigenvalue_identity_holds(tl):
            ok = False
        for t in pw.entries(tl).values():
            if q_laplacian(t, pw) != t.scale(lam):
                ok = False
                break
    # metric route, same exactness
    for tl in range(0, 7):
        lam = laplacian_eigenvalue(tl)
        for t in pw.entries(tl).values():
            if q_laplacian_metric(t, pw) != t.scale(lam):
                ok = False
                break
    assert _line(4, ok, "q-Laplacian eigenvalue [l][l+1] exact for l <= 3, "
                        "theta route + metric route + closed-form identity")


def test_criterion_05_geometric_dirac():
    ok = True
    mults = []
    for q0 in (Fraction(1, 2), Fraction(4, 5)):
        for tl in (1, 2, 3):
            rep = geometric_dirac_eigenvalue_report(tl, QPoint(q0))
            ok = (ok and rep["passed"]
                  and dirac_eigenvalue_error(tl, QPoint(q0)) <= 1e-9)
            mults.append((tl, [m for _, m in dirac_eigenvalues(tl)]))
    ok = ok and all(m == [(tl + 2) * (tl + 1), tl * (tl + 1)]
                    for tl, m in mults)
    assert _line(5, ok, "geometric Dirac block eigenvalues "
                        "{q^(l+1)[l], -q^(-l)[l+1]} exactly and at 1e-9 in "
                        "floats, multiplicities (2l+2)(2l+1) and 2l(2l+1)")


def test_criterion_06_calculi_displays_leibniz(pw):
    start = time.time()
    c3, c4 = calculus(THREE_D, pw), calculus(FOUR_D, pw)
    lam = ONE - q_power(-4)
    ok = c3.exterior_d(A) == OneForm({"e0": A, "e+": B.scale(Q)})
    ok &= c3.exterior_d(B) == OneForm({"e-": A, "e0": B.scale(-q_power(-4))})
    ok &= c3.exterior_d(C) == OneForm({"e0": C, "e+": D.scale(Q)})
    ok &= c3.exterior_d(D) == OneForm({"e-": C, "e0": D.scale(-q_power(-4))})
    ok &= c4.exterior_d(A) == OneForm({"ea": A.scale(Q - 1),
                                       "ed": A.scale(q_power(-2) - 1),
                                       "eb": B.scale(lam)})
    ok &= c4.exterior_d(B) == OneForm(
        {"ea": B.scale(q_power(-2) - 1 + Q * lam * lam),
         "ed": B.scale(Q - 1), "ec": A.scale(lam)})
    rng = random.Random(2026)
    for _ in range(100):
        f = random_element(rng, 3, 2)
        g = random_element(rng, 3, 2)
        for calc in (c3, c4):
            dfg = calc.exterior_d_generators(f * g)
            leib = (calc.right_multiply(calc.exterior_d_generators(f), g)
                    + calc.exterior_d_generators(g).left_multiply(f))
            if dfg != leib:
                ok = False
            om = calc.exterior_d_generators(f)
            if calc.right_multiply(calc.right_multiply(om, g), f) != \
                    calc.right_multiply(om, g * f):
                ok = False
    took = time.time() - start
    ok = bool(ok) and took < 60
    assert _line(6, ok, f"3D/4D generator differentials match the displays; "
                        f"Leibniz + bimodule associativity exact on 100 "
                        f"random pairs ({took:.1f}s)")


# Printed growth claims that the weighted norm of the pinned symbols cannot
# attain, with the exact weighted exponent they have instead.  The printed
# value is attained by the exponent of the unweighted norm (hs_norm_sq
# orientation 0), which misses other claims of the table.
GROWTH_ERRATA = {
    (THREE_D, ("partial", "e+")): 3,
    (THREE_D, ("partial", "e-")): 3,
    (FOUR_D, ("partial", "ea")): 3,
}


def _attains(exponent, claimed, sidedness):
    if exponent is None:
        return False
    if sidedness == "two-sided":
        return exponent == claimed
    return exponent <= claimed


def _erratum_report(kind, key, row):
    """(holds, text): does the printed slip of (kind, key) hold as stated?

    It holds when the exact weighted exponent is the one GROWTH_ERRATA
    records, the unweighted exponent attains the printed claim, and the
    fitted slope does not (a fit that attains it makes the erratum stale).
    """
    weighted, unweighted = row["gamma_exact"], row["gamma_exact_unweighted"]
    claimed, sidedness = row["claimed"], row["sidedness"]
    holds = (weighted == GROWTH_ERRATA[kind, key]
             and _attains(unweighted, claimed, sidedness)
             and not row["passed"])
    reason = ("the unweighted-norm exponent attains the printed value" if holds
              else f"stale erratum: expected weighted exponent "
                   f"{GROWTH_ERRATA[kind, key]}, an unweighted exponent "
                   f"attaining the claim and a fit missing it")
    return holds, (f"{kind} {key[1]}: exact exponent {weighted} "
                   f"(fit {row['gamma_fit']:.2f}, passed {row['passed']}) vs "
                   f"printed {claimed} ({sidedness}); unweighted exponent "
                   f"{unweighted}; {reason}")


def test_criterion_07_growth_exponents():
    start = time.time()
    reports = {THREE_D: admissibility_check(THREE_D, HALF, twice_l_max=24),
               FOUR_D: admissibility_check(FOUR_D, HALF, twice_l_max=24)}
    misses, errata, stale = [], [], []
    for kind, rep in reports.items():
        for key, row in sorted(rep.items(), key=lambda t: str(t[0])):
            if row["claimed"] is None:
                continue
            if (kind, key) in GROWTH_ERRATA:
                holds, text = _erratum_report(kind, key, row)
                errata.append(text)
                if not holds:
                    stale.append(text)
            elif not row["passed"]:
                misses.append(f"{kind} {key}: slope {row['gamma_fit']:.2f} "
                              f"vs claimed {row['claimed']} "
                              f"({row['sidedness']})")
    took = time.time() - start
    ok = not misses and not stale and took < 120
    assert _line(7, ok, f"growth exponents over l <= 12 at q = 1/2 "
                        f"({took:.1f}s); erratum: " + " | ".join(errata)
                 + (f"; unattained claims: {misses}" if misses else "")), (
        "; ".join(misses + stale) or f"took {took:.1f}s against the 120s gate")


def test_criterion_08_classical_limit():
    rows = classical_limit_report(twice_l_max=4, q0=0.999)
    worst = max(r["max_deviation"] for r in rows)
    ok = worst < 1e-2
    assert _line(8, ok, f"ladder symbols at q=0.999 within 1e-2 of the "
                        f"classical matrices for l <= 2 (worst {worst:.2e})")


def test_criterion_09_hausdorff_young(pw, grid):
    start = time.time()
    rng = random.Random(2027)
    worst = 0.0
    for p in (4 / 3, 3 / 2, 2.0):
        for _ in range(20):
            f = random_element(rng, 3, 4)
            r = inequality_ratio("hausdorff-young", f, {"p": p}, pw,
                                 ONE_PT, grid)
            worst = max(worst, r["ratio"])
    took = time.time() - start
    ok = worst <= 1 + 1e-5 and took < 300
    assert _line(9, ok, f"Hausdorff-Young ratio <= 1+1e-5 at q=1 for "
                        f"p in {{4/3, 3/2, 2}} x 20 samples "
                        f"(max {worst:.8f}, {took:.1f}s)")


def test_criterion_10_paley_constant():
    rng = random.Random(2028)
    ok = True
    for trial in range(20):
        phi = {tl: rng.uniform(0.05, 4.0) for tl in range(0, 7)}
        point = HALF if trial % 2 else ONE_PT
        if not math.isclose(paley_constant(phi, point),
                            paley_constant_bruteforce(phi, point),
                            rel_tol=1e-12):
            ok = False
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, 5)}
    ok = ok and math.isclose(paley_constant(phi, ONE_PT), 11.0)
    assert _line(10, ok, "Paley constant equals the brute-force threshold "
                         "scan (20 random phi) and the worked value 11")


def test_criterion_11_multiplier_layer(pw):
    rng = random.Random(2029)
    ok = True
    # extract(apply) identity, l <= 2
    sigma = {}
    for tl in range(0, 5):
        mat = {}
        for tm in range(-tl, tl + 1, 2):
            for tn in range(-tl, tl + 1, 2):
                if rng.random() < 0.6:
                    mat[(tm, tn)] = QScalar.promote(
                        Fraction(rng.randint(-3, 3)))
        sigma[tl] = mat
    sigma = FourierArray(sigma)
    ok &= extract_symbol(lambda x: apply_symbol(sigma, x, pw), 4, pw) == sigma
    # adjoint relation, l <= 1
    sig = FourierArray({0: {(0, 0): ONE},
                        1: {(-1, 1): ONE + Q, (1, -1): Q, (-1, -1): ONE},
                        2: {}, 3: {}, 4: {}})
    sig_adj = adjoint_symbol(sig)
    for f in (A, B, C, D, A * B, B * C):
        for g in (A, B, C, D, C * D):
            if l2_inner(apply_symbol(sig, f, pw), g) != \
                    l2_inner(f, apply_symbol(sig_adj, g, pw)):
                ok = False
    # identity-symbol bound with the empty-sum convention
    ident = FourierArray.identity(range(0, 5))
    ok &= lp_lq_bound(ident, 2.0, 2.0, 4, HALF) == 1.0
    assert _line(11, bool(ok), "extract(apply)=id (l<=2), adjoint relation "
                               "exact (l<=1), identity-symbol bound = 1")


def test_criterion_12_summability_classifier():
    r1 = summability_classify(DiracSpec("classical"), ONE_PT)
    r2 = summability_classify(DiracSpec("q-deformed"), HALF)
    r3 = summability_classify(DiracSpec("classical"), HALF)
    ok = (r1.spectral_dimension == 3.0 and r2.spectral_dimension == 1.0
          and r3.spectral_dimension is None)
    assert _line(12, ok, f"spectral dimensions: classical@1 -> "
                         f"{r1.spectral_dimension}, q-deformed@1/2 -> "
                         f"{r2.spectral_dimension}, classical@1/2 -> "
                         f"{r3.spectral_dimension}")


def test_criterion_13_commutator_expansion_and_scan(pw, tmp_path):
    start = time.time()
    ok = True
    # direct commutator norms == product-decomposition expansion, k,s <= 1
    for spec in (DiracSpec("classical"), DiracSpec("q-deformed")):
        for tk in (0, 1, 2):
            for ts in (0, 1, 2):
                csq = pw.clebsch_squared(tk, ts)
                lam_s = spec.abs_eigenvalue(ts)
                pairs_k = [(-tk, -tk), (-tk, tk), (tk, -tk)] if tk else [(0, 0)]
                pairs_s = [(-ts, ts), (ts, ts)] if ts else [(0, 0)]
                for (ti, tj) in pairs_k:
                    for (tp, tr) in pairs_s:
                        aa = unitary_entry(pw, tk, ti, tj)
                        bb = unitary_entry(pw, ts, tp, tr)
                        direct = commutator_apply(aa, bb, spec, pw)
                        val = haar(direct * star(direct))
                        if isinstance(val, QRadical):
                            val = val.as_scalar()
                        want = ZERO
                        for (i2, j2, p2, r2, tm, tu, tt), c2 in csq.items():
                            if (i2, j2, p2, r2) != (ti, tj, tp, tr):
                                continue
                            diff = spec.abs_eigenvalue(tm) - lam_s
                            want = want + diff * diff * c2 \
                                * q_weight(tt) / quantum_dimension(tm)
                        if val != want:
                            ok = False
    # full scan emits its table
    rows = boundedness_scan(3, DiracSpec("q-deformed"), pw, HALF)
    from qsu2.serialize import write_csv
    path = tmp_path / "commutator_ratios.csv"
    write_csv(path, ["k", "s", "i", "j", "p", "r", "lambda_family", "q",
                     "ratio"], rows)
    took = time.time() - start
    ok = ok and path.exists() and len(rows) == 900 and took < 300
    assert _line(13, ok, f"commutator norms equal the coefficient expansion "
                         f"exactly (k,s <= 1); scan k,s <= 3/2 wrote "
                         f"{len(rows)} rows ({took:.1f}s)")


def test_criterion_14_seminorm_equivalence():
    # the printed gamma pairing is corrected to alpha + (beta+1)/2, the
    # exponent the derivation supports for the q-deformed family at the
    # claimed constant (see the decisions record): verified on 50 random
    # symbols, truncation l <= 4, q = 1/2.
    rng = random.Random(2030)
    beta, alpha = 2.0, 1.0
    gamma = alpha + (beta + 1) / 2
    lam = {tl: float(evaluate(q_int(2 * (tl + 1)), HALF))
           for tl in range(0, 9)}
    const = math.sqrt(sum(
        float(evaluate(q_int(2 * (tl + 1)), HALF)) * (tl + 1)
        / lam[tl] ** beta for tl in range(0, 9)))
    ok = True
    for _ in range(50):
        sigma = {}
        for tl in range(0, 9):
            mat = {}
            for tm in range(-tl, tl + 1, 2):
                for tn in range(-tl, tl + 1, 2):
                    if rng.random() < 0.5:
                        mat[(tm, tn)] = QScalar.promote(
                            Fraction(rng.randint(-3, 3)))
            sigma[tl] = mat
        sigma = FourierArray(sigma)
        p_a = schwartz_seminorms(sigma, alpha, 0.0, lam, HALF)["p_alpha"]
        q_g = schwartz_seminorms(sigma, 0.0, gamma, lam, HALF)["q_gamma"]
        if p_a > const * q_g + 1e-9:
            ok = False
    assert _line(14, ok, "seminorm equivalence with constant "
                         "sqrt(sum d n/|lam|^beta) holds for 50 random "
                         "symbols (gamma = alpha + (beta+1)/2 pairing)")
