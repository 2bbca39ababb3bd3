"""The four workloads: seeded inputs, the timed job, and its checks.

Each workload is a ``Workload`` with three steps:

* ``setup(seed, size, workdir)`` imports what the job needs, builds the
  tables and generates the inputs from the seed; the CLI workloads write
  their CSV artifacts to ``workdir``;
* ``job(inputs)`` is the timed part; it returns the outputs and the number
  of operations that raised (an operation is one unit of the job, see
  ``ops``);
* ``check(inputs, outputs)`` returns a list of failure messages, empty when
  every output agrees with a computation made apart from the code that
  produced it, or with a property the method must have.

``size`` is "full" for the benchmark and "tiny" for the self-tests.
Traced library functions are reached through the library, never through a
name imported here (see tracing.py).
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import re
import shutil
from fractions import Fraction

SIZES = {
    # monomials of degree <= D give the pairs: 14 pairs at D = 2
    "leibniz": {"full": {"degree": 2}, "tiny": {"degree": 1}},
    # --lmax passed to `calculus --check growth` (spins up to 2 lmax)
    "growth": {"full": {"lmax": "5", "kinds": ("3d", "4d")},
               "tiny": {"lmax": "1", "kinds": ("3d",)}},
    "scan": {"full": {"lmax": "3/2", "sample": 8},
             "tiny": {"lmax": "1/2", "sample": 4}},
    "inequality": {"full": {"polys": 24, "grid": 64},
                   "tiny": {"polys": 3, "grid": 16}},
}

HALF = Fraction(1, 2)
COEFFS = (-3, -2, -1, 1, 2, 3)
# the supports of the leibniz and inequality inputs, the same for every seed
LAYOUT_SEED = 0


def _q_int(n, q=0.5):
    """[n]_q in plain floats."""
    return (q ** n - q ** -n) / (q - 1 / q)


def _monomials(degree):
    """Every normal monomial a^i b^j c^k / d^i b^j c^k of one degree."""
    from qsu2.algebra import NormalMonomial
    if degree == 0:
        return [NormalMonomial("a", 0, 0, 0)]
    out = []
    for head in "ad":
        for hp in range(0 if head == "a" else 1, degree + 1):
            for j in range(degree - hp + 1):
                out.append(NormalMonomial(head if hp else "a", hp, j,
                                          degree - hp - j))
    return out


def _element(terms):
    from qsu2.algebra import AlgebraElement
    from qsu2.qarith import QScalar
    return AlgebraElement({m: QScalar.promote(Fraction(c))
                           for m, c in terms})


class Workload:
    name = ""

    def setup(self, seed, size, workdir):
        raise NotImplementedError

    def job(self, inputs):
        raise NotImplementedError

    def check(self, inputs, outputs):
        raise NotImplementedError

    def ops(self, inputs):
        """Operations one job attempts."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# leibniz
# ---------------------------------------------------------------------------

class Leibniz(Workload):
    """Seeded pairs (f, g) through the 3D and 4D calculi.

    The pairs cover every normal monomial of degree <= D exactly twice on
    each side: side k of pair i is c1 m[p(i)] + c2 m[p(i + s)] for a
    permutation p and shift s fixed by LAYOUT_SEED, and coefficients c
    drawn from the seed.  Which monomials meet decides most of a job's
    cost (seeded supports moved it by +-10% between seeds), so the supports
    are the same for every seed and the seed draws the coefficients.
    """

    name = "leibniz"

    def setup(self, seed, size, workdir):
        from qsu2.calculus import FOUR_D, THREE_D, calculus
        from qsu2.peterweyl import PWTable
        degree = SIZES[self.name][size]["degree"]
        pool = [m for d in range(degree + 1) for m in _monomials(d)]
        layout, rng = random.Random(LAYOUT_SEED), random.Random(seed)

        def side():
            perm = layout.sample(pool, len(pool))
            shift = layout.randrange(1, len(pool))
            return [_element([(perm[i], rng.choice(COEFFS)),
                              (perm[(i + shift) % len(pool)],
                               rng.choice(COEFFS))])
                    for i in range(len(pool))]

        pairs = list(zip(side(), side()))
        pw = PWTable(max(2 * degree, 1))
        return {"calculi": [calculus(THREE_D, pw), calculus(FOUR_D, pw)],
                "pairs": pairs}

    def ops(self, inputs):
        # one per pair and calculus, and the four displays per calculus
        return len(inputs["calculi"]) * (len(inputs["pairs"]) + 4)

    def job(self, inputs):
        from qsu2.algebra import A, B, C, D
        results, displays, failed = [], [], 0
        for calc in inputs["calculi"]:
            for name, gen in zip("abcd", (A, B, C, D)):
                try:
                    displays.append((calc.kind, name, calc.exterior_d(gen),
                                     calc.exterior_d_generators(gen)))
                except Exception:           # counted; the run goes on
                    failed += 1
            for f, g in inputs["pairs"]:
                try:
                    df = calc.exterior_d_generators(f)
                    df_g = calc.right_multiply(df, g)
                    results.append({
                        "kind": calc.kind,
                        "d(fg)": calc.exterior_d_generators(f * g),
                        "d(f)g+fd(g)": df_g + calc.exterior_d_generators(
                            g).left_multiply(f),
                        "(d(f)g)f": calc.right_multiply(df_g, f),
                        "d(f)(gf)": calc.right_multiply(df, g * f),
                        "d(f) symbols": calc.exterior_d(f),
                        "d(f)": df,
                    })
                except Exception:
                    failed += 1
        return {"results": results, "displays": displays}, failed

    def check(self, inputs, outputs):
        bad = []
        expected = _pinned_displays()
        for kind, name, by_symbol, by_generator in outputs["displays"]:
            if by_symbol != expected[kind][name]:
                bad.append(f"{kind} d({name}) by symbols differs from the "
                           f"display: {by_symbol}")
            if by_generator != expected[kind][name]:
                bad.append(f"{kind} d({name}) by generators differs from the "
                           f"display: {by_generator}")
        for i, r in enumerate(outputs["results"]):
            for left, right in (("d(fg)", "d(f)g+fd(g)"),
                                ("(d(f)g)f", "d(f)(gf)"),
                                ("d(f) symbols", "d(f)")):
                if r[left] != r[right]:
                    bad.append(f"{r['kind']} pair {i}: {left} = {r[left]} "
                               f"but {right} = {r[right]}")
        return bad


def _pinned_displays():
    """d on the generators as displayed for both calculi.

    3D: da = a e0 + q b e+, db = a e- - q^-2 b e0, dc = c e0 + q d e+,
        dd = c e- - q^-2 d e0.
    4D (lambda = 1 - q^-2): da = a((q-1)ea + (q^-1-1)ed) + lambda b eb,
        db = b((q^-1-1+q lambda^2)ea + (q-1)ed) + lambda a ec, and c, d
        alike with (a, b) -> (c, d).
    """
    from qsu2.algebra import A, B, C, D
    from qsu2.calculus import OneForm
    from qsu2.qarith import ONE, q_power
    q, q_inv = q_power(2), q_power(-2)
    lam = ONE - q_inv * q_inv
    three = {
        "a": OneForm({"e0": A, "e+": B.scale(q)}),
        "b": OneForm({"e-": A, "e0": B.scale(-q_inv * q_inv)}),
        "c": OneForm({"e0": C, "e+": D.scale(q)}),
        "d": OneForm({"e-": C, "e0": D.scale(-q_inv * q_inv)}),
    }
    four = {}
    for (x, y), (nx, ny) in (((A, B), "ab"), ((C, D), "cd")):
        four[nx] = OneForm({"ea": x.scale(q - 1), "ed": x.scale(q_inv - 1),
                            "eb": y.scale(lam)})
        four[ny] = OneForm({"ea": y.scale(q_inv - 1 + q * lam * lam),
                            "ed": y.scale(q - 1), "ec": x.scale(lam)})
    return {"3d": three, "4d": four}


# ---------------------------------------------------------------------------
# the CLI-driven workloads
# ---------------------------------------------------------------------------

def _run_cli(argv):
    """qsu2.cli.main in this process; (exit code, captured stdout)."""
    from qsu2 import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class _CliWorkload(Workload):
    """A workload that runs qsu2 subcommands into its own output directory."""

    def setup_dir(self, workdir):
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

    def ops(self, inputs):
        return len(inputs["commands"])

    def job(self, inputs):
        runs, failed = [], 0
        for argv in inputs["commands"]:
            try:
                code, text = _run_cli(argv)
            except Exception:
                code, text = None, ""
            if code != 0:
                failed += 1
            runs.append((code, text))
        return {"runs": runs}, failed


class Growth(_CliWorkload):
    """`qsu2 --q 1/2 --lmax L calculus --kind K --check growth`, K = 3d, 4d.

    The inputs do not depend on the seed.
    """

    name = "growth"

    def setup(self, seed, size, workdir):
        import qsu2.cli  # noqa: F401  (the import is part of set-up)
        conf = SIZES[self.name][size]
        self.setup_dir(workdir)
        commands = [["--q", "1/2", "--lmax", conf["lmax"], "--output",
                     workdir, "calculus", "--kind", kind, "--check",
                     "growth"] for kind in conf["kinds"]]
        return {"commands": commands, "kinds": conf["kinds"],
                "twice_l_max": 4 * Fraction(conf["lmax"]), "dir": workdir}

    def read(self, inputs):
        """CSV rows per kind, after the job."""
        return {kind: _read_csv(os.path.join(inputs["dir"],
                                             f"growth_{kind}.csv"))
                for kind in inputs["kinds"]}

    def check(self, inputs, outputs):
        bad = []
        tables = self.read(inputs)
        for kind, (code, text) in zip(inputs["kinds"], outputs["runs"]):
            if code != 0:
                bad.append(f"growth {kind}: exit code {code}")
                continue
            bad += _check_exponents(kind, text)
            norms = {(r["symbol"], Fraction(r["l"])): float(r["hs_norm_sq_float"])
                     for r in tables[kind]}
            expected = _growth_closed_forms(kind, inputs["twice_l_max"])
            for key, want in expected.items():
                got = norms.get(key)
                if got is None or not math.isclose(got, want, rel_tol=1e-12):
                    bad.append(f"growth {kind} {key[0]} at l={key[1]}: CSV "
                               f"norm {got}, closed form {want!r}")
        return bad


_EXPONENT_LINE = re.compile(r"^\s+(\S+)\s+(.+?)\s+slope\s+(\S+)\s+exact\s+(\S+)")


def _check_exponents(kind, text):
    """Every printed exact exponent is an integer within 0.2 of its slope."""
    bad, seen = [], 0
    for line in text.splitlines():
        m = _EXPONENT_LINE.match(line)
        if not m:
            continue
        seen += 1
        family, name, slope, exact = m.groups()
        try:
            value = Fraction(exact)
        except ValueError:
            value = None
        if value is None or value.denominator != 1 \
                or abs(float(slope) - value) > 0.2:
            bad.append(f"growth {kind} {family} {name}: exact exponent "
                       f"{exact} vs fitted slope {slope}")
    if not seen:
        bad.append(f"growth {kind}: no exponent lines printed")
    return bad


def _growth_closed_forms(kind, twice_l_max):
    """{(symbol, l): ||sigma(t^l)||^2 at q = 1/2} in the CSV's orientation.

    Ladders (ascending weight q^(2m)):
        X+  : sum_{n=-l}^{l-1} q^(2n+2) [l-n][l+n+1]
        X-  : sum_{n=-l+1}^{l} q^(2n-2) [l+n][l-n+1]
        qH2 : sum_{n=-l}^{l} q^(4n)
    3D partials (reversed weight q^(-2m)):
        e+  : sum_{n=-l}^{l-1} q^(-1-4n) [l-n][l+n+1]
        e-  : sum_{n=-l+1}^{l} q^(3-4n) [l+n][l-n+1]
    """
    if kind != "3d":
        return {}
    q = 0.5
    out = {}
    for tl in range(2, int(twice_l_max) + 1, 2):
        l = tl // 2
        up = range(-l, l)          # n = -l .. l-1
        down = range(-l + 1, l + 1)
        forms = {
            "ladder:X+": sum(q ** (2 * n + 2) * _q_int(l - n) * _q_int(l + n + 1)
                             for n in up),
            "ladder:X-": sum(q ** (2 * n - 2) * _q_int(l + n) * _q_int(l - n + 1)
                             for n in down),
            "ladder:qH2": sum(q ** (4 * n) for n in range(-l, l + 1)),
            "partial:e+": sum(q ** (-1 - 4 * n) * _q_int(l - n)
                              * _q_int(l + n + 1) for n in up),
            "partial:e-": sum(q ** (3 - 4 * n) * _q_int(l + n)
                              * _q_int(l - n + 1) for n in down),
        }
        for symbol, value in forms.items():
            out[(symbol, Fraction(l))] = value
    return out


class Scan(_CliWorkload):
    """`qsu2 --q 1/2 --lmax 3/2 commutator --scan` (q-deformed Dirac).

    The command does not depend on the seed; the seed picks the rows whose
    ratio the check recomputes from the Haar state.
    """

    name = "scan"

    def setup(self, seed, size, workdir):
        import qsu2.cli  # noqa: F401
        conf = SIZES[self.name][size]
        self.setup_dir(workdir)
        return {"commands": [["--q", "1/2", "--lmax", conf["lmax"], "--output",
                              workdir, "commutator", "--scan"]],
                "cap": Fraction(conf["lmax"]), "sample": conf["sample"],
                "seed": seed, "dir": workdir}

    def read(self, inputs):
        return _read_csv(os.path.join(inputs["dir"], "commutator_ratios.csv"))

    def check(self, inputs, outputs):
        (code, _), = outputs["runs"]
        if code != 0:
            return [f"scan: exit code {code}"]
        rows = self.read(inputs)
        cap = inputs["cap"]
        bad = []
        spins = [Fraction(t, 2) for t in range(int(2 * cap) + 1)]
        want_rows = sum((2 * k + 1) ** 2 for k in spins) ** 2
        if len(rows) != want_rows:
            bad.append(f"scan: {len(rows)} rows, expected {want_rows}")
        for r in rows:
            if r["k"] == r["s"] and float(r["ratio"]) != 0.0:
                bad.append(f"scan: ratio {r['ratio']} at k = s = {r['k']}")
        rng = random.Random(inputs["seed"])
        off = [r for r in rows if r["k"] != r["s"]]
        for r in rng.sample(off, min(inputs["sample"], len(off))):
            want = _haar_ratio(r)
            got = float(r["ratio"])
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300):
                bad.append(f"scan: ratio {got!r} at {dict(r)}, Haar state "
                           f"gives {want!r}")
        return bad


def _haar_ratio(row):
    """sqrt(|lambda_k - lambda_s|^2 h(x x*) d_s / q_r), x = t^k_ij t^s_pr.

    The unitary entries are normalized by the Haar state itself,
    h(t_mn t_mn*) = q_n / d_l, so no Clebsch coefficient enters.
    """
    from qsu2.algebra import haar, star
    from qsu2.peterweyl import PWTable
    from qsu2.qarith import QPoint, q_int, q_power, evaluate
    k, s = Fraction(row["k"]), Fraction(row["s"])
    i, j, p, r = (int(2 * Fraction(row[x])) for x in "ijpr")
    tk, ts = int(2 * k), int(2 * s)
    pw = PWTable(tk + ts)
    x = pw.entry(tk, i, j) * pw.entry(ts, p, r)

    def norm_sq(tl, m, n):          # |gamma|^2 with t_mn = gamma T_mn
        t = pw.entry(tl, m, n)
        return q_power(-2 * n) / (q_int(2 * (tl + 1)) * haar(t * star(t)))

    lam = q_int(2 * (tk + 1)) - q_int(2 * (ts + 1))
    sq = (lam * lam * norm_sq(tk, i, j) * norm_sq(ts, p, r)
          * haar(x * star(x)) * q_int(2 * (ts + 1)) / q_power(-2 * r))
    return math.sqrt(float(evaluate(sq, QPoint(HALF))))


# ---------------------------------------------------------------------------
# inequality
# ---------------------------------------------------------------------------

class Inequality(Workload):
    """Hausdorff-Young ratios at q = 1 on a quadrature grid.

    Each polynomial has four distinct monomials of degrees 3, 3, 2, 1,
    fixed by LAYOUT_SEED, and coefficients in {+-1, +-2, +-3} drawn from
    the seed.  Every polynomial is tried at p = 5/4, 3/2, 7/4.
    """

    name = "inequality"
    P = (1.25, 1.5, 1.75)

    def setup(self, seed, size, workdir):
        from qsu2.fourier import SU2Grid
        from qsu2.peterweyl import PWTable
        from qsu2.qarith import QPoint
        conf = SIZES[self.name][size]
        layout, rng = random.Random(LAYOUT_SEED), random.Random(seed)
        by_degree = {d: _monomials(d) for d in (1, 2, 3)}
        polys = []
        for _ in range(conf["polys"]):
            terms = {}
            for d in (3, 3, 2, 1):
                m = layout.choice([m for m in by_degree[d] if m not in terms])
                terms[m] = rng.choice(COEFFS)
            polys.append(_element(terms.items()))
        n = conf["grid"]
        return {"polys": polys, "pw": PWTable(6), "point": QPoint(1),
                "grid": SU2Grid(n, n, n)}

    def ops(self, inputs):
        return len(inputs["polys"]) * len(self.P)

    def job(self, inputs):
        from qsu2 import fourier
        rows, failed = [], 0
        for f in inputs["polys"]:
            for p in self.P:
                try:
                    r = fourier.inequality_ratio(
                        "hausdorff-young", f, {"p": p}, inputs["pw"],
                        inputs["point"], inputs["grid"])
                    rows.append((f, p, r["ratio"]))
                except Exception:
                    failed += 1
        return {"rows": rows}, failed

    def check(self, inputs, outputs):
        from qsu2 import fourier
        from qsu2.algebra import haar, star
        bad = []
        for f, p, ratio in outputs["rows"]:
            if not 0 < ratio <= 1 + 1e-5:
                bad.append(f"inequality: Hausdorff-Young ratio {ratio!r} at "
                           f"p={p} for {f}")
        for f in inputs["polys"]:
            l2 = fourier.lp_norm_classical(f, 2, inputs["grid"],
                                           inputs["point"])
            exact = math.sqrt(float(haar(f * star(f)).evaluate(
                inputs["point"])))
            if not math.isclose(l2, exact, rel_tol=1e-9):
                bad.append(f"inequality: quadrature L2 norm {l2!r} against "
                           f"sqrt h(f f*) = {exact!r} for {f}")
        return bad


WORKLOADS = {w.name: w for w in (Leibniz(), Growth(), Scan(), Inequality())}
