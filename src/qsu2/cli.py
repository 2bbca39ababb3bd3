"""Command-line front end: verification tables and CSV/JSON artifacts.

Every subcommand prints a pass/fail or report table and, when it has a
file artifact, writes it under the output directory (flag --output, or
the QSU2_OUTPUT_DIR environment variable, default "."); identical
configuration and seed produce byte-identical files.  The exit status
reflects exact-identity suites only -- ratio reports are informational.

q is read exactly, as a rational ("7/10") or a decimal ("0.7" is 7/10).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from .qarith import QPoint, QScalar, _acc, evaluate
from .algebra import (
    AlgebraElement, coproduct, counit, antipode, l2_inner, random_element,
)
from .peterweyl import PWTable
from .fourier import (
    FourierArray, fourier_transform, inverse_fourier, plancherel_sum,
    SU2Grid, check_grid, check_inequality, inequality_ratio,
)
from .multiplier import apply_symbol, check_bound, extract_symbol, lp_lq_bound
from .spectral import DiracSpec, summability_classify, boundedness_scan
from .calculus import (
    THREE_D, FOUR_D, calculus, admissibility_check, check_growth,
    geometric_dirac_eigenvalue_report, q_laplacian, _check_dirac,
    laplacian_eigenvalue, laplacian_eigenvalue_identity_holds,
)
from .serialize import write_csv, dump_json, fourier_array_to_json

_KIND_ALIASES = {"hy": "hausdorff-young", "paley": "paley",
                 "hy-paley": "hy-paley", "hl": "hardy-littlewood",
                 "cor58": "cor-5.8"}
_DIRAC = {"classical": "classical", "q": "q-deformed"}
# the usage error of a reported value past the float range
_Q_RANGE = "--q is too far from 1: a reported value leaves the float range"


def _parse_q(text):
    """q > 0 as an exact Fraction, from a rational or a decimal."""
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if val <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return val


def _finite_float(text):
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return val


def _positive_int(text):
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return val


def _parse_spin(text):
    try:
        val = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad spin {text!r}")
    twice = val * 2
    if twice.denominator != 1 or twice < 0:
        raise argparse.ArgumentTypeError(f"bad spin {text!r}")
    return int(twice)


def _table(args):
    return PWTable(max(2 * args.lmax, 6))


def _report(lines, failures, fmt):
    ok = not failures
    if fmt == "json":
        print(json.dumps({"lines": lines, "passed": ok}, sort_keys=True))
    else:
        for line in lines:
            print(line)
        print("RESULT:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommands: each reads its flags from the parsed arguments, where
# --lmax is the doubled spin cap and main has set args.point and
# args.output
# ---------------------------------------------------------------------------

def cmd_orthogonality(args):
    pw = _table(args)
    bad = pw.orthogonality_violations(args.lmax)
    lines = [f"orthogonality suite at l <= {Fraction(args.lmax, 2)}: "
             f"{'no violations' if not bad else bad}"]
    return _report(lines, bad, args.format)


def cmd_hopf(args):
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.trials):
        x = random_element(rng, 4, 2)
        y = random_element(rng, 4, 2)
        z = random_element(rng, 4, 2)
        if (x * y) * z != x * (y * z):
            failures.append("associativity")
            break
    for _ in range(20):
        x = random_element(rng, 3, 3)
        total = {}
        for (ml, mr), coeff in coproduct(x).pairs.items():
            prod = antipode(AlgebraElement({ml: 1})) * AlgebraElement({mr: 1})
            for mono, c in prod.terms.items():
                _acc(total, mono, c * coeff)
        if AlgebraElement(total) != AlgebraElement.scalar(counit(x)):
            failures.append("antipode axiom")
            break
    lines = [f"confluence on {args.trials} random triples + Hopf axioms: "
             f"{'ok' if not failures else failures}"]
    return _report(lines, failures, args.format)


def cmd_fourier(args):
    pw = _table(args)
    rng = random.Random(args.seed)
    failures = []
    for _ in range(args.trials):
        f = random_element(rng, 3, 4)
        fhat = fourier_transform(f, pw)
        if inverse_fourier(fhat, pw) != f:
            failures.append("round trip")
            break
        if l2_inner(f, f) != plancherel_sum(fhat):
            failures.append("plancherel")
            break
    lines = [f"round trip + Plancherel on {args.trials} random polynomials: "
             f"{'ok' if not failures else failures}"]
    return _report(lines, failures, args.format)


def cmd_inequality(args):
    kind = _KIND_ALIASES[args.kind]
    pw = _table(args)
    point = args.point
    grid = (SU2Grid(args.grid, args.grid, args.grid)
            if point.is_one and args.p != 2 else None)
    rng = random.Random(args.seed)
    phi = {tl: 1.0 / (tl + 1) for tl in range(0, args.lmax + 1)}
    lam = {tl: tl + 1 for tl in range(0, args.lmax + 1)}
    params = {"p": args.p, "b": args.b, "beta": args.beta,
              "phi": phi, "lambda_weights": lam}
    rows = []
    for trial in range(args.trials):
        f = random_element(rng, min(args.lmax, 3), 4)
        r = inequality_ratio(kind, f, params, pw, point, grid)
        rows.append({"kind": args.kind, "q": args.q, "p": args.p,
                     "b": args.b, "beta": args.beta,
                     "l_max": Fraction(args.lmax, 2),
                     "seed": args.seed + trial, "lhs": r["lhs"],
                     "rhs": r["rhs_without_constant"], "ratio": r["ratio"]})
    path = os.path.join(args.output, f"inequality_{args.kind}.csv")
    write_csv(path, ["kind", "q", "p", "b", "beta", "l_max", "seed",
                     "lhs", "rhs", "ratio"], rows)
    worst = max(r["ratio"] for r in rows)
    lines = [f"{kind}: {len(rows)} trials, max ratio {worst:.6f}",
             f"wrote {path}"]
    failures = kind == "hausdorff-young" and worst > 1 + 1e-5
    return _report(lines, failures, args.format)


def cmd_multiplier(args):
    pw = _table(args)
    rng = random.Random(args.seed)
    cap = min(args.lmax, 4)
    sigma = {}
    for tl in range(0, cap + 1):
        mat = {}
        for tm in range(-tl, tl + 1, 2):
            for tn in range(-tl, tl + 1, 2):
                if rng.random() < 0.5:
                    mat[(tm, tn)] = QScalar.promote(
                        Fraction(rng.randint(-3, 3)))
        sigma[tl] = mat
    sigma = FourierArray(sigma)
    failures = []
    lines = []
    if args.extract:
        rec = extract_symbol(lambda x: apply_symbol(sigma, x, pw), cap, pw)
        ok = rec == sigma
        lines.append(f"extract(apply(sigma)) == sigma: {ok}")
        if not ok:
            failures.append("extract")
        path = os.path.join(args.output, "multiplier_symbol.json")
        dump_json(fourier_array_to_json(rec), path)
        lines.append(f"wrote {path}")
    else:
        ident = FourierArray.identity(range(0, cap + 1))
        bound = lp_lq_bound(ident, 2.0, 2.0, cap, args.point)
        lines.append(f"identity-symbol bound at p=q=2: {bound}")
        if abs(bound - 1.0) > 1e-12:
            failures.append("identity bound")
        q_exp = max(args.b, 2.0)
        b2 = lp_lq_bound(sigma, args.p, q_exp, cap, args.point)
        lines.append(f"random symbol bound (p={args.p}, q={q_exp}): {b2:.6f}")
    return _report(lines, failures, args.format)


def cmd_spectrum(args):
    spec = DiracSpec(_DIRAC[args.dirac])
    rep = summability_classify(spec, args.point)
    lines = [
        f"family {spec.family} at q={args.q}:",
        f"  spectral dimension (d_l n_l weights): {rep.spectral_dimension}",
        f"  plain-multiplicity dimension (n_l^2): "
        f"{rep.plain_multiplicity_dimension}",
        f"  {rep.reasoning}",
        "  partial sums (beta, l, sum):",
    ]
    for beta, l, total in rep.evidence:
        lines.append(f"    {beta:4.1f}  {str(l):>5}  {total:.6e}")
    return _report(lines, [], args.format)


def cmd_commutator(args):
    pw = _table(args)
    spec = DiracSpec(_DIRAC[args.dirac])
    rows = boundedness_scan(args.lmax, spec, pw, args.point)
    path = os.path.join(args.output, "commutator_ratios.csv")
    write_csv(path, ["k", "s", "i", "j", "p", "r", "lambda_family", "q",
                     "ratio"], rows)
    sup = max(r["ratio"] for r in rows)
    lines = [f"scan k,s <= {Fraction(args.lmax, 2)} "
             f"({len(rows)} rows), sup ratio {sup:.6f}", f"wrote {path}"]
    return _report(lines, [], args.format)


def cmd_calculus(args):
    pw = _table(args)
    calc = calculus(args.kind, pw)
    failures = []
    lines = []
    if args.check == "leibniz":
        rng = random.Random(args.seed)
        bad = 0
        for _ in range(args.trials):
            f = random_element(rng, 3, 2)
            g = random_element(rng, 3, 2)
            dfg = calc.exterior_d_generators(f * g)
            leib = (calc.right_multiply(calc.exterior_d_generators(f), g)
                    + calc.exterior_d_generators(g).left_multiply(f))
            if dfg != leib:
                bad += 1
        lines.append(f"Leibniz on {args.trials} random pairs: "
                     f"{'exact' if not bad else f'{bad} failures'}")
        if bad:
            failures.append("leibniz")
    else:
        rep = admissibility_check(args.kind, args.point,
                                  twice_l_max=2 * args.lmax)
        for (family, name), row in sorted(rep.items(), key=lambda t: str(t)):
            lines.append(
                f"  {family:12s} {str(name):14s} slope {row['gamma_fit']:6.3f}"
                f"  exact {row['gamma_exact']}"
                f"  unweighted {row['gamma_exact_unweighted']}"
                f"  claim {row['claimed']}  passed {row['passed']}")
        rows = [{"symbol": f"{family}:{name}", "l": Fraction(tl, 2),
                 "hs_norm_sq_float": hs, "q_int_pow_fit": row["gamma_fit"]}
                for (family, name), row in rep.items()
                for tl, hs in row["norms"]]
        path = os.path.join(args.output, f"growth_{args.kind}.csv")
        write_csv(path, ["symbol", "l", "hs_norm_sq_float", "q_int_pow_fit"],
                  rows)
        lines.append(f"wrote {path}")
        if args.check == "admissible":
            finite = all(math.isfinite(r["gamma_fit"]) for r in rep.values())
            lines.append(f"admissibility (finite growth exponents): {finite}")
            if not finite:
                failures.append("admissible")
    return _report(lines, failures, args.format)


def cmd_dirac_geometric(args):
    lines = []
    failures = []
    for tl in range(1, args.lmax + 1):
        rep = geometric_dirac_eigenvalue_report(tl, args.point)
        vals = ", ".join(f"{v:.6f} (x{m})"
                         for v, m in rep["eigenvalues"].items())
        lines.append(f"l={Fraction(tl,2)}: {vals}")
        if not rep["passed"]:
            failures.append(tl)
    return _report(lines, failures, args.format)


def cmd_laplacian(args):
    pw = _table(args)
    lines = []
    failures = []
    for tl in range(0, args.lmax + 1):
        lam = laplacian_eigenvalue(tl)
        ok_identity = laplacian_eigenvalue_identity_holds(tl)
        t = pw.entry(tl, -tl, -tl)
        ok_action = q_laplacian(t, pw) == t.scale(lam)
        lines.append(f"l={Fraction(tl,2)}: [l][l+1] = "
                     f"{float(evaluate(lam, args.point)):.6f}  "
                     f"identity {ok_identity}  action {ok_action}")
        if not (ok_identity and ok_action):
            failures.append(tl)
    return _report(lines, failures, args.format)


# ---------------------------------------------------------------------------

def _add_global_flags(parser):
    """The flags before the subcommand, which --config may also set."""
    parser.add_argument("--q", type=_parse_q, default="7/10",
                        help="deformation parameter, exact: 7/10 or 0.7")
    parser.add_argument("--lmax", type=_parse_spin, default="3/2",
                        help="spin cap, e.g. 3/2 (default 3/2)")
    parser.add_argument("--p", type=_finite_float, default=1.5)
    parser.add_argument("--b", type=_finite_float, default=2.0)
    parser.add_argument("--beta", type=_finite_float, default=3.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trials", type=_positive_int, default=20)
    parser.add_argument("--grid", type=_positive_int, default=64,
                        help="quadrature resolution per angle")
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=["json", "pretty"],
                        default="pretty")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsu2",
        description="verification tables for harmonic analysis on the "
                    "quantum SU(2)")
    _add_global_flags(parser)
    parser.add_argument("--config", default=None,
                        help="JSON file overriding the flags above")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("orthogonality").set_defaults(run=cmd_orthogonality)
    sub.add_parser("hopf").set_defaults(run=cmd_hopf)
    sub.add_parser("fourier").set_defaults(run=cmd_fourier)
    p = sub.add_parser("inequality")
    p.set_defaults(run=cmd_inequality)
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), required=True)
    p = sub.add_parser("multiplier")
    p.set_defaults(run=cmd_multiplier)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bound", action="store_true")
    g.add_argument("--extract", action="store_true")
    p = sub.add_parser("spectrum")
    p.set_defaults(run=cmd_spectrum)
    p.add_argument("--dirac", choices=sorted(_DIRAC), default="classical")
    p = sub.add_parser("commutator")
    p.set_defaults(run=cmd_commutator)
    p.add_argument("--scan", action="store_true")
    p.add_argument("--dirac", choices=sorted(_DIRAC), default="q")
    p = sub.add_parser("calculus")
    p.set_defaults(run=cmd_calculus)
    p.add_argument("--kind", choices=[THREE_D, FOUR_D], required=True)
    p.add_argument("--check", choices=["leibniz", "growth", "admissible"],
                   required=True)
    sub.add_parser("dirac-geometric").set_defaults(run=cmd_dirac_geometric)
    sub.add_parser("laplacian").set_defaults(run=cmd_laplacian)
    return parser


def _apply_config(args):
    """Override the global flags from the JSON object in args.config.

    Keys are flag names without dashes; values go through the flags' parsers.
    """
    parser = argparse.ArgumentParser(prog=f"qsu2 --config {args.config}",
                                     add_help=False, allow_abbrev=False)
    _add_global_flags(parser)
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read the file: {exc}")
    if not isinstance(overrides, dict):
        parser.error("expected a JSON object")
    flags = []
    for key, val in overrides.items():
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            parser.error(f"{key}: expected a string or a number, not {val!r}")
        flags.append(f"--{key}={val}")
    parser.parse_args(flags, namespace=args)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        _apply_config(args)
    try:
        args.point = QPoint(args.q)
        if (args.command == "calculus"
                and args.check in ("growth", "admissible")):
            check_growth(args.point, 2 * args.lmax)
        if args.command == "dirac-geometric":
            _check_dirac(args.point, args.lmax)
        if args.command == "inequality":
            check_inequality(_KIND_ALIASES[args.kind], args.p, args.b,
                             args.point)
            if args.point.is_one and args.p != 2:
                check_grid(args.grid, min(args.lmax, 3))
        if args.command == "multiplier" and args.bound:
            check_bound(args.p, max(args.b, 2.0))
    except ValueError as exc:
        parser.error(str(exc))
    except OverflowError as exc:
        parser.error(f"{_Q_RANGE} ({exc})")
    args.output = args.output or os.environ.get("QSU2_OUTPUT_DIR", ".")
    os.makedirs(args.output, exist_ok=True)
    try:
        return args.run(args)
    except OverflowError as exc:
        parser.error(f"{_Q_RANGE} ({exc})")


if __name__ == "__main__":
    sys.exit(main())
