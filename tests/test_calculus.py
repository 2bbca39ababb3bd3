import collections
import gc
import importlib
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qsu2 import qarith
from qsu2.qarith import (
    QScalar, QRadical, QPoint, q_int, q_power, ZERO, ONE, Q, evaluate, _acc,
    sqrt_q_int_product,
)
from qsu2.algebra import (
    A, B, C, D, UNIT, AlgebraElement, counit, random_element,
)
from qsu2.peterweyl import PWTable
from qsu2.fourier import hs_norm_sq, matrix_multiply
from qsu2.calculus import (
    OneForm, Spinor, Calculus, THREE_D, FOUR_D, calculus,
    partial_symbols, commutation_symbols,
    admissibility_check, check_growth, growth_table,
    GROWTH_CLAIMS,
    geometric_dirac, dirac_eigenvalues,
    geometric_dirac_eigenvalue_report, q_laplacian, q_laplacian_metric,
    laplacian_eigenvalue, laplacian_eigenvalue_identity_holds,
    quantum_metric, classical_limit_report,
)

from oracles import (
    commutation_action, compose_by_ladder_builders, dirac_eigenvalue_error,
    growth_norm_by_blocks, hs_norm_sq_per_entry, partial_action,
    unitary_entry,
)

# the module itself: the package re-exports the name "calculus" as a function
calculus_module = importlib.import_module("qsu2.calculus")
LAM = ONE - q_power(-4)
HALF = QPoint(Fraction(1, 2))


@pytest.fixture(scope="module")
def pw():
    return PWTable(8)


@pytest.fixture(scope="module")
def c3(pw):
    return calculus(THREE_D, pw)


@pytest.fixture(scope="module")
def c4(pw):
    return calculus(FOUR_D, pw)


# -- pinned displays on the generators ----------------------------------------

def test_3d_differentials(c3):
    assert c3.exterior_d(A) == OneForm({"e0": A, "e+": B.scale(Q)})
    assert c3.exterior_d(B) == OneForm({"e-": A, "e0": B.scale(-q_power(-4))})
    assert c3.exterior_d(C) == OneForm({"e0": C, "e+": D.scale(Q)})
    assert c3.exterior_d(D) == OneForm({"e-": C, "e0": D.scale(-q_power(-4))})
    assert c3.exterior_d(UNIT).is_zero()
    assert c3.exterior_d(A) - OneForm({"e0": A}) == OneForm({"e+": B.scale(Q)})
    assert (c3.exterior_d(B) - c3.exterior_d(B)).is_zero()


def test_4d_differentials(c4):
    ea_a, ed_a = Q - 1, q_power(-2) - 1
    ea_b = q_power(-2) - 1 + Q * LAM * LAM
    assert c4.exterior_d(A) == OneForm(
        {"ea": A.scale(ea_a), "ed": A.scale(ed_a), "eb": B.scale(LAM)})
    assert c4.exterior_d(B) == OneForm(
        {"ea": B.scale(ea_b), "ed": B.scale(Q - 1), "ec": A.scale(LAM)})
    assert c4.exterior_d(C) == OneForm(
        {"ea": C.scale(ea_a), "ed": C.scale(ed_a), "eb": D.scale(LAM)})
    assert c4.exterior_d(D) == OneForm(
        {"ea": D.scale(ea_b), "ed": D.scale(Q - 1), "ec": C.scale(LAM)})
    assert c4.exterior_d(UNIT).is_zero()


def test_3d_bimodule_relations(c3):
    # e0 f = q^(2|f|) f e0 and e+- f = q^|f| f e+- on the generators
    e0, ep, em = OneForm({"e0": UNIT}), OneForm({"e+": UNIT}), OneForm({"e-": UNIT})
    assert c3.right_multiply(ep, A) == OneForm({"e+": A.scale(Q)})
    assert c3.right_multiply(em, A) == OneForm({"e-": A.scale(Q)})
    assert c3.right_multiply(e0, A) == OneForm({"e0": A.scale(Q * Q)})
    assert c3.right_multiply(e0, B) == OneForm({"e0": B.scale(q_power(-4))})
    assert c3.right_multiply(ep, B) == OneForm({"e+": B.scale(1 / Q)})


def test_4d_bimodule_relations(c4):
    ea, eb = OneForm({"ea": UNIT}), OneForm({"eb": UNIT})
    ec, ed = OneForm({"ec": UNIT}), OneForm({"ed": UNIT})
    # ea x = (qa, q^-1 b, qc, q^-1 d) ea
    assert c4.right_multiply(ea, A) == OneForm({"ea": A.scale(Q)})
    assert c4.right_multiply(ea, B) == OneForm({"ea": B.scale(1 / Q)})
    # [eb, b] = q lam a ea; [eb, a] = 0
    assert c4.right_multiply(eb, B) == OneForm(
        {"eb": B, "ea": A.scale(Q * LAM)})
    assert c4.right_multiply(eb, A) == OneForm({"eb": A})
    # [ec, a] = q lam b ea
    assert c4.right_multiply(ec, A) == OneForm(
        {"ec": A, "ea": B.scale(Q * LAM)})
    # [ed, a]_(q^-1) = lam b eb
    assert c4.right_multiply(ed, A) == OneForm(
        {"ed": A.scale(1 / Q), "eb": B.scale(LAM)})
    # [ed, b]_q = lam a ec + q lam^2 b ea
    assert c4.right_multiply(ed, B) == OneForm(
        {"ed": B.scale(Q), "ec": A.scale(LAM), "ea": B.scale(Q * LAM * LAM)})


# -- Leibniz, associativity, route agreement ------------------------------------

@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_leibniz_and_associativity(pw, kind):
    calc = calculus(kind, pw)
    rng = random.Random(61)
    for _ in range(100):
        f = random_element(rng, 3, 2)
        g = random_element(rng, 3, 2)
        dfg = calc.exterior_d_generators(f * g)
        leib = (calc.right_multiply(calc.exterior_d_generators(f), g)
                + calc.exterior_d_generators(g).left_multiply(f))
        assert dfg == leib
        om = calc.exterior_d_generators(f)
        assert calc.right_multiply(calc.right_multiply(om, g), f) == \
            calc.right_multiply(om, g * f)


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_two_routes_agree_on_coefficients(pw, kind):
    calc = calculus(kind, pw)
    for tl in (0, 1, 2, 3):
        for t in pw.entries(tl).values():
            assert calc.exterior_d(t) == calc.exterior_d_generators(t)


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_partial_symbols_extracted_from_generator_route(pw, kind):
    # the closed-form symbol tables coincide with a blind extraction from
    # the Leibniz-recursion operator, up to l = 5/2 (beyond the spins the
    # closed forms were fitted at)
    from qsu2.multiplier import extract_algebraic_symbol
    from qsu2.fourier import FourierArray
    calc = calculus(kind, pw)
    for label in calc.labels:
        op = lambda x: calc.exterior_d_generators(x).coefficient(label)
        extracted = extract_algebraic_symbol(op, 5, pw)
        closed = FourierArray({tl: partial_symbols(kind, tl).get(label, {})
                               for tl in range(0, 6)})
        assert extracted == closed, (kind, label)


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_commutation_symbols_extracted_from_transfer(pw, kind):
    # same cross-check for the bimodule operators C_i^j built by the
    # comodule-algebra transfer recursion
    from qsu2.multiplier import extract_algebraic_symbol
    from qsu2.fourier import FourierArray
    from qsu2.algebra import AlgebraElement
    calc = calculus(kind, pw)
    pairs = {pair for tl in (0, 2) for pair in commutation_symbols(kind, tl)}

    def transfer_op(pair):
        def op(x):
            out = {}
            for mono, coeff in x.terms.items():
                piece = calc.transfer(mono).get(pair[0], {}).get(pair[1])
                if piece is not None:
                    for m, c in piece.terms.items():
                        _acc(out, m, c * coeff)
            return AlgebraElement(out)
        return op

    for pair in sorted(pairs):
        extracted = extract_algebraic_symbol(transfer_op(pair), 5, pw)
        closed = FourierArray({tl: commutation_symbols(kind, tl).get(pair, {})
                               for tl in range(0, 6)})
        assert extracted == closed, (kind, pair)


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_right_multiply_matches_symbol_route(pw, kind):
    # right_multiply runs on the transfer recursion; commutation_action is
    # its symbol-route oracle.  The moved elements have degree 6, so the
    # symbols act beyond the spins the extraction test above covers.
    calc = calculus(kind, pw)
    rng = random.Random(63)
    checked = 0
    while checked < 3:
        g = random_element(rng, 3, 2) * random_element(rng, 3, 2)
        if g.degree() < 6:
            continue
        omega = OneForm({label: random_element(rng, 1, 2)
                         for label in calc.labels})
        by_symbols = {}
        for label, coeff in omega.parts.items():
            moved = commutation_action(calc, label, g)
            for j, v in moved.parts.items():
                _acc(by_symbols, j, coeff * v)
        assert calc.right_multiply(omega, g) == OneForm(by_symbols)
        checked += 1


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False),
       c=st.sampled_from([ONE, -Q, q_int(4), QScalar.promote(Fraction(2, 3))]))
def test_right_multiply_is_linear_in_the_element(pw, kind, rng, c):
    calc = calculus(kind, pw)
    omega = OneForm({label: random_element(rng, 1, 2)
                     for label in calc.labels})
    f, g = random_element(rng, 3, 3), random_element(rng, 3, 3)
    assert calc.right_multiply(omega, f + g.scale(c)) == (
        calc.right_multiply(omega, f)
        + calc.right_multiply(omega, g).scale(c))


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_right_multiply_runs_no_symbol(pw, kind, monkeypatch):
    calls = []
    apply = calculus_module._apply_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return apply(*args, **kwargs)

    monkeypatch.setattr(calculus_module, "_apply_blocks", counted)
    calc = calculus(kind, pw)
    omega = OneForm({label: A + B for label in calc.labels})
    calc.right_multiply(omega, A * D + B * C.scale(2))
    assert calls == []
    calc.exterior_d(A * D)       # the spy does see the symbol route
    assert calls


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
@pytest.mark.parametrize("f", [A, A + B.scale(2) + C + D.scale(-3) + B * C],
                         ids=["1 monomial", "5 monomials"])
def test_right_multiply_makes_one_product_per_summed_entry(pw, kind, f,
                                                            monkeypatch):
    # omega . f sums the transfer tables of f's monomials first, so omega_i
    # meets each nonzero entry of the sum in one product, not once per
    # monomial: at 3D, 3 products for 3 parts, however many monomials.
    calc = calculus(kind, pw)
    omega = OneForm({label: A + B for label in calc.labels})
    summed = {}
    for mono, coeff in f.terms.items():
        for i, row in calc.transfer(mono).items():   # cached from here
            for j, elem in row.items():
                _acc(summed, (i, j), elem.scale(coeff))
    products = []
    mul = AlgebraElement.__mul__

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", counted)
    calc.right_multiply(omega, f)
    monkeypatch.undo()
    assert len(products) == len(summed)
    assert sorted(map(repr, products)) == sorted(map(repr, summed.values()))
    if kind == THREE_D:
        assert len(products) == 3


def test_partials_run_no_symbol(pw, monkeypatch):
    calls = []
    apply = calculus_module._apply_blocks

    def counted(*args, **kwargs):
        calls.append(args)
        return apply(*args, **kwargs)

    monkeypatch.setattr(calculus_module, "_apply_blocks", counted)
    f = A * D + B * C.scale(2)
    q_laplacian(f, pw)
    q_laplacian_metric(f, pw)
    geometric_dirac(Spinor(f, A * B), pw)
    assert calls == []
    calculus(FOUR_D, pw).exterior_d(f)
    assert calls


def test_one_differential_per_element(pw, monkeypatch):
    # every partial is read off one exterior_d_generators call per element
    calls = []
    d_gen = Calculus.exterior_d_generators

    def counted(self, f):
        calls.append(f)
        return d_gen(self, f)

    monkeypatch.setattr(Calculus, "exterior_d_generators", counted)
    f = pw.entry(4, -4, -4)
    for run, want in ((lambda: q_laplacian_metric(f, pw), 5),
                      (lambda: q_laplacian(f, pw), 1),
                      (lambda: geometric_dirac(Spinor(f, A * B), pw), 2)):
        calls.clear()
        run()
        assert len(calls) == want


def test_calculus_memo_does_not_keep_the_table_alive():
    table = PWTable(2)
    calc = calculus(THREE_D, table)
    assert calculus(THREE_D, table) is calc
    ref = weakref.ref(table)
    del table, calc
    gc.collect()
    assert ref() is None


def test_two_routes_agree_on_random_products(pw, c3, c4):
    # the products reach degree 6, past the spins the extraction test
    # covers; partial_derivative reads the generator route, exterior_d the
    # symbol route
    rng = random.Random(62)
    degrees = set()
    for _ in range(10):
        f = random_element(rng, 3, 2) * random_element(rng, 3, 2)
        degrees.add(f.degree())
        for calc in (c3, c4):
            by_symbols = calc.exterior_d(f)
            assert by_symbols == calc.exterior_d_generators(f)
            for label in calc.labels:
                assert calc.partial_derivative(label, f) == \
                    by_symbols.coefficient(label), (calc.kind, label)
    assert max(degrees) == 6


# -- symbol structure -------------------------------------------------------------

def test_symbols_vanish_at_spin_zero():
    for kind in (THREE_D, FOUR_D):
        for mat in partial_symbols(kind, 0).values():
            assert mat == {}


def test_weight_block_example():
    # sigma_(q^(H/2))(t^1) = diag(q^-1, 1, q)
    assert calculus_module._compose("ladder", THREE_D, 2)["qH2"] == {
        (-2, -2): 1 / Q, (0, 0): ONE, (2, 2): Q}


def test_3d_x0_entries():
    # entries {1 at n=-1/2, -q^-2 at n=+1/2}: the pair fixed by d(a), d(b)
    x0 = partial_symbols(THREE_D, 1)["e0"]
    assert x0[(-1, -1)] == ONE
    assert x0[(1, 1)] == -q_power(-4)


def test_4d_sigma_a_closed_form():
    # sigma^a(t^l)_nn == q^(2l) + q^(-2l-2) - q^(2n-2) - 1 (weight-reversed
    # relative to the printed table, same entry multiset)
    for tl in (1, 2, 3, 4):
        sa = partial_symbols(FOUR_D, tl)["ea"]
        for tn in range(-tl, tl + 1, 2):
            want = (q_power(2 * tl) + q_power(-2 * tl - 4)
                    - q_power(2 * tn - 4) - ONE)
            assert sa.get((tn, tn), ZERO) == want


def test_3d_commutation_symbol_blocks():
    # the e+- commutation blocks at l=1/2 are diag(q, q^-1) and the e0
    # block diag(q^2, q^-2), matching the generator-level relations
    syms = commutation_symbols(THREE_D, 1)
    assert syms[("e+", "e+")] == {(-1, -1): Q, (1, 1): 1 / Q}
    assert syms[("e-", "e-")] == {(-1, -1): Q, (1, 1): 1 / Q}
    assert syms[("e0", "e0")] == {(-1, -1): Q * Q, (1, 1): 1 / (Q * Q)}


def test_4d_commutation_identity_blocks():
    syms = commutation_symbols(FOUR_D, 3)
    ident = {(tn, tn): ONE for tn in range(-3, 4, 2)}
    assert syms[("eb", "eb")] == ident
    assert syms[("ec", "ec")] == ident


def test_4d_commutation_vanishing_blocks():
    # seven bimodule operators vanish identically
    syms = commutation_symbols(FOUR_D, 2)
    present = set(syms)
    all_pairs = {(i, j) for i in ("ea", "eb", "ec", "ed")
                 for j in ("ea", "eb", "ec", "ed")}
    missing = all_pairs - present
    assert len(missing) == 7
    assert ("ea", "eb") in missing and ("eb", "ec") in missing


def test_epsilon_consistency(pw, c3, c4):
    # counit of the derivative row recovers the symbol entry
    for calc in (c3, c4):
        for tl in (1, 2):
            syms = partial_symbols(calc.kind, tl)
            for label, mat in syms.items():
                for (tm, tn) in [(tm, tn)
                                 for tm in range(-tl, tl + 1, 2)
                                 for tn in range(-tl, tl + 1, 2)]:
                    image = calc.partial_derivative(
                        label, unitary_entry(pw, tl, tm, tn))
                    got = counit(image)
                    want = mat.get((tm, tn), ZERO)
                    if isinstance(got, QRadical) and got.is_scalar():
                        got = got.as_scalar()
                    if isinstance(want, QRadical):
                        assert QRadical.promote(got) == want
                    else:
                        assert got == want


def test_ladder_commutation_identity():
    # sigma_(X+) sigma_(X-) - sigma_(X-) sigma_(X+) == diag([2n]_q)
    for tl in (1, 2, 3, 4):
        blocks = calculus_module._compose("ladder", THREE_D, tl)
        plus, minus = blocks["X+"], blocks["X-"]
        pm = matrix_multiply(plus, minus)
        mp = matrix_multiply(minus, plus)
        for tn in range(-tl, tl + 1, 2):
            got = pm.get((tn, tn), ZERO) - mp.get((tn, tn), ZERO)
            if isinstance(got, QRadical):
                got = got.as_scalar()
            assert got == q_int(2 * tn)


def test_ladder_blocks_take_no_gcd(monkeypatch):
    # the roots come in closed form, with no square-free split
    calls = []
    gcd = qarith._lp_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)
    calculus_module._compose.cache_clear()      # build every block here
    monkeypatch.setattr(qarith, "_lp_gcd", counted)
    for tl in range(25):
        calculus_module._compose("ladder", THREE_D, tl)
    assert calls == []


def test_partial_blocks_take_no_gcd(monkeypatch):
    # the 3D e0 diagonal is the geometric series its quotient is, and the
    # ladders are closed-form roots, so no 3D partial block takes a gcd
    calls = []
    gcd = qarith._lp_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)
    calculus_module._compose.cache_clear()      # build every block here
    monkeypatch.setattr(qarith, "_lp_gcd", counted)
    for tl in range(25):
        partial_symbols(THREE_D, tl)
    assert calls == []


def test_e0_diagonal_is_the_quotient():
    # the 3D e0 diagonal against (q^(-2H) - 1)/(q^2 - 1) through the general
    # product: equal QScalars with the same keys and terms in the same order
    factor = ONE / (Q * Q - ONE)
    for tl in range(25):
        want = {}
        for tn in range(-tl, tl + 1, 2):
            _acc(want, (tn, tn), q_power(-4 * tn))
            _acc(want, (tn, tn), -ONE)
        want = {key: factor * v for key, v in want.items()}
        got = partial_symbols(THREE_D, tl)["e0"]
        assert list(got) == list(want)
        for key, v in want.items():
            assert got[key] == v
            assert list(got[key].num.items()) == list(v.num.items())
            assert list(got[key].den.items()) == list(v.den.items())


def _term_order(x):
    """The terms of a QScalar, or of each radicand and coefficient of a
    QRadical, in their dict order."""
    if isinstance(x, QRadical):
        return [(_term_order(r), _term_order(c)) for r, c in x.terms.items()]
    return [list(x.num.items()), list(x.den.items())]


def test_compose_is_the_ladder_builders():
    # every _SYMBOLS table against the per-ladder builders it replaced:
    # the same keys, values and term order of every QScalar and radical
    for family, kind in calculus_module._SYMBOLS:
        for tl in range(25):
            got = calculus_module._compose(family, kind, tl)
            want = compose_by_ladder_builders(family, kind, tl)
            assert got == want and list(got) == list(want)
            for label, block in want.items():
                assert list(got[label]) == list(block)
                assert ([_term_order(v) for v in got[label].values()]
                        == [_term_order(v) for v in block.values()])


# -- growth -----------------------------------------------------------------------

def test_growth_report_matches_analysis():
    reports = {THREE_D: admissibility_check(THREE_D, HALF, twice_l_max=24),
               FOUR_D: admissibility_check(FOUR_D, HALF, twice_l_max=24)}
    for kind, rep in reports.items():
        for key, row in rep.items():
            # the fit tracks the exact exponent of the weighted norm (the
            # widest gap, 4D eb and ec at 1.16 against 1, is subleading
            # terms at q = 1/2) and reaches the verdict the exact one does
            exact = row["gamma_exact"]
            assert abs(row["gamma_fit"] - exact) < 0.2, (kind, key, row)
            if row["claimed"] is None:
                continue
            if row["sidedness"] == "two-sided":
                assert row["passed"] == (exact == row["claimed"]), (kind, key)
            else:
                assert row["passed"] == (exact <= row["claimed"]), (kind, key)
    # the unweighted norm misses claims the weighted one attains
    assert reports[FOUR_D][("commutation", ("eb", "eb"))][
        "gamma_exact_unweighted"] == 0
    assert reports[THREE_D][("ladder", "X+")]["gamma_exact_unweighted"] == 1


def test_3d_ladder_partial_norms_closed_form():
    # reversed-orientation norms of x+- in closed form; the dominant term
    # q^(4-6l) against [2l+1]_q ~ q^(-2l) is growth exponent 3.  In the
    # ascending orientation the dominant terms grow as q^(-2l): exponent 1.
    for tl in range(1, 9):
        syms = partial_symbols(THREE_D, tl)
        plus = sum((q_power(-2 - 4 * tn) * q_int(tl - tn) * q_int(tl + tn + 2)
                    for tn in range(-tl, tl - 1, 2)), ZERO)
        minus = sum((q_power(6 - 4 * tn) * q_int(tl + tn) * q_int(tl - tn + 2)
                     for tn in range(-tl + 2, tl + 1, 2)), ZERO)
        assert hs_norm_sq_per_entry(syms["e+"], tl, -1) == plus
        assert hs_norm_sq_per_entry(syms["e-"], tl, -1) == minus
        assert plus.u_valuation() == minus.u_valuation() == 8 - 6 * tl
        assert q_int(2 * (tl + 1)).u_valuation() == -2 * tl
        assert hs_norm_sq(syms["e+"], tl).u_valuation() == 8 - 2 * tl
        assert hs_norm_sq(syms["e-"], tl).u_valuation() == -2 * tl


def test_growth_needs_deformation():
    with pytest.raises(ValueError):
        admissibility_check(THREE_D, QPoint(1))


def test_growth_table_rows():
    rows = growth_table(FOUR_D, HALF, twice_l_max=8)[("partial", "ed")]
    assert [r["twice_l"] for r in rows] == [2, 4, 6, 8]
    for r in rows:
        tl = r["twice_l"]
        exact = hs_norm_sq_per_entry(partial_symbols(FOUR_D, tl)["ed"], tl,
                                     -1)
        assert r["hs_norm_sq"] == exact
        assert r["hs_norm_sq_float"] == float(evaluate(exact, HALF))
        assert r["hs_norm_sq_float"] > 0


def _count_calls(monkeypatch, owner, names, calls):
    """Count the calls to owner.<name> for each name into calls[name]."""
    for name in names:
        calls[name] = 0
        build = getattr(owner, name)

        def counted(*args, _build=build, _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(owner, name, counted)


_SYMBOL_TABLES = ("partial_symbols", "commutation_symbols", "_compose")


def test_growth_builds_no_symbol_table(monkeypatch):
    # the norms come from the _SYMBOLS terms; no table of blocks is built
    calculus_module._compose.cache_clear()
    calls = {}
    _count_calls(monkeypatch, calculus_module, _SYMBOL_TABLES, calls)
    for kind in (THREE_D, FOUR_D):
        rep = admissibility_check(kind, HALF, twice_l_max=8)
        assert [tl for tl, _ in next(iter(rep.values()))["norms"]] == [
            2, 4, 6, 8]
    assert calls == dict.fromkeys(_SYMBOL_TABLES, 0)


def test_growth_builds_no_ladder_block(monkeypatch):
    # no X+ block, and so no ladder root, in the growth pass of either
    # kind; the 3D commutation blocks are weights alone, so building them
    # builds no X+ either
    calculus_module._compose.cache_clear()      # build every block here
    calls = {}
    _count_calls(monkeypatch, calculus_module, ("sqrt_q_int_product",),
                 calls)
    for kind in (THREE_D, FOUR_D):
        growth_table(kind, HALF, 8)
    for tl in range(7):
        commutation_symbols(THREE_D, tl)
    assert calls == {"sqrt_q_int_product": 0}


def test_calculi_on_two_tables_build_each_block_once(monkeypatch):
    # the blocks are cached on (family, kind, spin) alone, so the calculus
    # of a second table builds none of them again.  A build reads its
    # _SYMBOLS table once, and f of degree 2 asks for spins 0, 1 and 2.
    reads = collections.Counter()

    class Counted(dict):
        def __getitem__(self, key):
            reads[key] += 1
            return dict.__getitem__(self, key)

    calculus_module._compose.cache_clear()
    monkeypatch.setattr(calculus_module, "_SYMBOLS",
                        Counted(calculus_module._SYMBOLS))
    f = A * D + B.scale(2)
    for kind in (THREE_D, FOUR_D):
        for table in (PWTable(2), PWTable(2)):
            calc = calculus(kind, table)
            calc.exterior_d(f)
            for label in calc.labels:
                commutation_action(calc, label, f)
    assert reads == {(family, kind): 3 for family in ("partial", "commutation")
                     for kind in (THREE_D, FOUR_D)}


def test_calculus_holds_only_its_documented_caches(pw):
    # every route on one calculus grows only the caches that
    # Calculus.__init__ names, and leaves the pinned generator data as
    # built: the generator routes grow the two monomial caches, and only
    # exterior_d grows the T-basis partial blocks; the symbol blocks live
    # in the one module cache, _compose
    calc = Calculus(FOUR_D, pw)

    def sizes():
        return {k: len(v) for k, v in vars(calc).items()
                if isinstance(v, dict)}

    before = sizes()
    f = A * D + B * C.scale(2)
    calc.right_multiply(calc.exterior_d_generators(f), f)
    middle = sizes()
    calc.exterior_d(f)
    after = sizes()
    assert sorted(after) == ["_d_cache", "_d_gen", "_partial_blocks",
                             "_transfer_cache", "_transfer_gen"]
    assert sorted(k for k in middle if middle[k] != before[k]) == [
        "_d_cache", "_transfer_cache"]
    assert sorted(k for k in after if after[k] != middle[k]) == [
        "_partial_blocks"]
    # f has spins 0 and 1: one block per label and spin
    assert after["_partial_blocks"] == 2 * len(calc.labels)


def _recorded_inputs():
    """Degrees 1-3: the powers of a, b, c, d and seeded three-term elements."""
    for deg in (1, 2, 3):
        for gen in (A, B, C, D):
            yield math.prod([gen] * (deg - 1), start=gen)
        for seed in range(4):
            yield random_element(random.Random(100 * deg + seed), deg, 3)


def _typed_terms(x):
    """The terms of x in order, with the type of each coefficient."""
    return [(mono, type(c), c) for mono, c in x.terms.items()]


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_exterior_d_is_the_per_label_symbol_route(pw, kind):
    # one expansion and the cached T-basis blocks give each label's part
    # exactly, coefficient types and term order included, as
    # apply_algebraic_symbol on the partial symbols did per label
    calc = calculus(kind, pw)
    for f in _recorded_inputs():
        df = calc.exterior_d(f)
        for label in calc.labels:
            assert _typed_terms(df.coefficient(label)) == _typed_terms(
                partial_action(calc, label, f)), (kind, label, f)


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_exterior_d_expands_once(pw, kind, monkeypatch):
    calls = []
    expand = PWTable.pw_expand

    def counted(self, f):
        calls.append(f)
        return expand(self, f)

    monkeypatch.setattr(PWTable, "pw_expand", counted)
    calc = calculus(kind, pw)
    for f in (A, A * B * C + D.scale(2), UNIT):
        calls.clear()
        calc.exterior_d(f)
        assert len(calls) == 1


@pytest.mark.parametrize("kind", [THREE_D, FOUR_D])
def test_second_element_of_a_degree_builds_no_block(pw, kind, monkeypatch):
    # the T-basis partial blocks depend on (label, spin) alone: the first
    # element of degree 3 builds them for spins 1/2 and 3/2, the second
    # reads them
    calls = {}
    _count_calls(monkeypatch, calculus_module, ("_t_block",), calls)
    calc = Calculus(kind, pw)
    calc.exterior_d(A * B * C + D.scale(2))
    assert calls["_t_block"] == 2 * len(calc.labels)
    calls["_t_block"] = 0
    calc.exterior_d(B * D * D + A.scale(-3) + C)
    assert calls["_t_block"] == 0


def test_growth_squares_no_entry_and_takes_no_gcd(monkeypatch):
    # no .square() of an exact scalar or radical, and no polynomial gcd:
    # each norm is one exact quotient by (u^4 - 1)^k
    calls = {}
    for cls in (QScalar, QRadical):
        def counted(self, _square=cls.square, _name=cls.__name__):
            calls[_name] += 1
            return _square(self)
        calls[cls.__name__] = 0
        monkeypatch.setattr(cls, "square", counted)
    _count_calls(monkeypatch, qarith, ("_lp_gcd",), calls)
    for kind in (THREE_D, FOUR_D):
        growth_table(kind, HALF, 8)
    assert calls == {"QScalar": 0, "QRadical": 0, "_lp_gcd": 0}


_GROWTH_FAMILIES = [(kind, family, name) for kind, claims in
                    GROWTH_CLAIMS.items() for family, name in claims]


def _closed_form(kind, family, name, tl, orientations):
    return calculus_module._growth_norms_sq(
        calculus_module._SYMBOLS[(family, kind)][name], tl, orientations)


def _assert_is_the_block_norm(kind, family, name, tl, orientations):
    for o, hs in zip(orientations, _closed_form(kind, family, name, tl,
                                                orientations)):
        assert hs == growth_norm_by_blocks(kind, family, name, tl, o)
        # a Laurent polynomial in q: no denominator, no odd power of q^(1/2)
        assert hs.den == {0: 1} and all(e % 2 == 0 for e in hs.num)


@pytest.mark.parametrize("kind, family, name", _GROWTH_FAMILIES, ids=[
    f"{kind}-{family}-{'/'.join(name) if isinstance(name, tuple) else name}"
    for kind, family, name in _GROWTH_FAMILIES])
def test_growth_norms_are_the_block_norms(kind, family, name):
    # every integer spin up to l = 16, in both orientations and unweighted;
    # the property below reaches l = 24
    for tl in range(2, 33, 2):
        _assert_is_the_block_norm(kind, family, name, tl, (1, -1, 0))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_GROWTH_FAMILIES), st.integers(min_value=1,
                                                      max_value=24),
       st.sampled_from([1, -1, 0]))
def test_growth_norm_matches_the_block_route(family, l, orientation):
    _assert_is_the_block_norm(*family, 2 * l, (orientation,))


def test_ladder_table_is_the_closed_form_blocks():
    for tl in range(7):
        weights = range(-tl, tl + 1, 2)
        assert calculus_module._compose("ladder", THREE_D, tl) == {
            "X+": {(tn + 2, tn): sqrt_q_int_product(tl - tn, tl + tn + 2)
                   for tn in weights[:-1]},
            "X-": {(tn - 2, tn): sqrt_q_int_product(tl + tn, tl - tn + 2)
                   for tn in weights[1:]},
            "qH2": {(tn, tn): q_power(tn) for tn in weights}}


def test_check_growth_rules():
    with pytest.raises(ValueError, match="q != 1"):
        check_growth(QPoint(1), 24)
    for twice_l_max, spins in ((0, 0), (1, 0), (2, 1), (3, 1)):
        with pytest.raises(ValueError, match=f"has {spins}"):
            check_growth(HALF, twice_l_max)
        with pytest.raises(ValueError, match="two integer spins"):
            admissibility_check(FOUR_D, HALF, twice_l_max)
    check_growth(HALF, 4)
    assert len(admissibility_check(THREE_D, HALF, 4)[("partial", "e+")][
        "norms"]) == 2


# -- geometric Dirac ---------------------------------------------------------------

def test_dirac_zero_block():
    rep = geometric_dirac_eigenvalue_report(0, HALF)
    assert rep["passed"]
    assert list(rep["eigenvalues"].values()) == [2]


def test_dirac_report_refuses_q_one():
    # lambda = 1 - q^-2 vanishes at q = 1, so D/lambda is not defined there
    with pytest.raises(ValueError, match="q != 1"):
        geometric_dirac_eigenvalue_report(1, QPoint(1))


def test_dirac_eigenvalues_match_closed_form():
    # the exact verdict, and beside it the float eigensolve it replaced
    for q0 in (Fraction(1, 2), Fraction(4, 5)):
        for tl in (1, 2, 3):
            rep = geometric_dirac_eigenvalue_report(tl, QPoint(q0))
            assert rep["passed"], (q0, tl)
            assert rep["product_vanishes"] and rep["trace_matches"]
            assert dirac_eigenvalue_error(tl, QPoint(q0)) <= 1e-9
            assert rep["block_dimension"] == 2 * (tl + 1) ** 2


def test_dirac_report_is_exact_far_from_q_one():
    # eigenvalues near 1e9 at q = 1000, l = 3/2: the float route read an
    # error of about 1e-7 there, over an absolute 1e-9
    for q0 in (1000, Fraction(1, 1000), 10**20):
        for tl in range(1, 5):
            assert geometric_dirac_eigenvalue_report(tl, QPoint(q0))["passed"]
    assert dirac_eigenvalue_error(3, QPoint(1000)) > 1e-9


@pytest.mark.parametrize("tl", [1, 2, 3])
def test_dirac_report_fails_a_wrong_spectrum(tl, monkeypatch):
    true = dirac_eigenvalues(tl)
    (plus, m_plus), (minus, m_minus) = true
    # q mu+ is no eigenvalue of S/lambda: both equalities fail
    monkeypatch.setattr(calculus_module, "dirac_eigenvalues",
                        lambda _: [(Q * plus, m_plus), (minus, m_minus)])
    rep = geometric_dirac_eigenvalue_report(tl, HALF)
    assert not rep["passed"]
    assert not rep["product_vanishes"] and not rep["trace_matches"]
    # the right values with 2l+1 of the multiplicity moved from mu- to mu+
    moved = [(plus, m_plus + tl + 1), (minus, m_minus - tl - 1)]
    monkeypatch.setattr(calculus_module, "dirac_eigenvalues", lambda _: moved)
    rep = geometric_dirac_eigenvalue_report(tl, HALF)
    assert not rep["passed"]
    assert rep["product_vanishes"] and not rep["trace_matches"]


@pytest.mark.parametrize("tl", [1, 2, 3])
def test_dirac_report_fails_a_corrupted_symbol(tl, monkeypatch):
    # one entry of sigma_eb off by a factor q; the cached blocks are copied
    syms = dict(partial_symbols(FOUR_D, tl))
    eb = dict(syms["eb"])
    key = next(iter(eb))
    eb[key] = eb[key] * Q
    syms["eb"] = eb
    monkeypatch.setattr(calculus_module, "partial_symbols",
                        lambda kind, twice_l: syms)
    rep = geometric_dirac_eigenvalue_report(tl, HALF)
    assert not rep["passed"] and not rep["product_vanishes"]
    monkeypatch.undo()
    assert geometric_dirac_eigenvalue_report(tl, HALF)["passed"]


def test_dirac_halfspin_eigenvalue_values():
    # l = 1/2: q^(3/2)[1/2]_q and -q^(-1/2)[3/2]_q
    vals = dirac_eigenvalues(1)
    assert vals[0][0] == q_power(3) * q_int(1)
    assert vals[1][0] == -(q_power(-1) * q_int(3))
    assert vals[0][1] == 6 and vals[1][1] == 2


def test_dirac_multiplicities_partition_block():
    for tl in (1, 2, 3, 4):
        total = sum(m for _, m in dirac_eigenvalues(tl))
        assert total == 2 * (tl + 1) ** 2


def test_geometric_dirac_on_spinors(pw):
    # D runs on the generator-route partials; the symbol-route exterior_d
    # is its oracle, componentwise on a simple spinor
    s = Spinor(A, B)
    out = geometric_dirac(s, pw)
    c4 = calculus(FOUR_D, pw)
    dA, dB = c4.exterior_d(A), c4.exterior_d(B)
    assert out.s1 == dA.coefficient("ea") + dB.coefficient("eb")
    assert out.s2 == dA.coefficient("ec") + dB.coefficient("ed")
    assert out == Spinor(out.s1, out.s2) and out != Spinor(out.s2, out.s1)
    assert out != (out.s1, out.s2)


# -- q-Laplacian --------------------------------------------------------------------

def test_laplacian_eigenvalue_theta_route(pw):
    for tl in range(0, 7):
        lam_l = laplacian_eigenvalue(tl)
        for t in pw.entries(tl).values():
            assert q_laplacian(t, pw) == t.scale(lam_l)


def test_laplacian_closed_form_identity():
    for tl in range(0, 7):
        assert laplacian_eigenvalue_identity_holds(tl)


def test_laplacian_metric_route_agrees(pw):
    for tl in range(0, 4):
        lam_l = laplacian_eigenvalue(tl)
        for t in pw.entries(tl).values():
            assert q_laplacian_metric(t, pw) == t.scale(lam_l)


def test_laplacian_on_generator():
    pw = PWTable(4)
    assert q_laplacian(A, pw) == A.scale(q_int(1) * q_int(3))
    assert q_laplacian(UNIT, pw).is_zero()


def test_metric_data_shape():
    g = quantum_metric()
    assert g["g"][("eb", "ec")] == Q * Q
    assert g["g_inv"][("ec", "eb")] == 1 / (Q * Q)
    assert g["frame"]["ez"] == {"ea": 1 / (Q * Q), "ed": -ONE}


# -- classical limit -----------------------------------------------------------------

def test_classical_limit_lemma_symbols():
    rows = classical_limit_report(twice_l_max=4, q0=0.999)
    for row in rows:
        assert row["max_deviation"] < 1e-2


def test_classical_limit_refuses_q_one():
    # the weight difference quotient over q - q^-1 is 0/0 at q0 = 1
    with pytest.raises(ValueError, match="0/0 at q0 = 1"):
        classical_limit_report(twice_l_max=2, q0=1)
