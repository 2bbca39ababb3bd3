import csv
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qsu2 import cli
from qsu2.cli import build_parser, main


def run_cli(args, tmp_path):
    return main(["--output", str(tmp_path)] + args)


def test_orthogonality_passes(tmp_path):
    assert run_cli(["--q", "7/10", "--lmax", "3/2", "orthogonality"],
                   tmp_path) == 0


def test_orthogonality_takes_every_relation_from_haar(tmp_path, monkeypatch):
    # 30 entries at cap 3/2: the suite takes 2 * 30^2 Haar states, one per
    # relation and pair, the diagonal included, and the numeric residual
    # 30 more, one per entry, of bc_square's T T*
    from qsu2 import peterweyl
    calls = []
    for module in (peterweyl, cli):
        monkeypatch.setattr(module, "haar", lambda x, m=module, h=module.haar:
                            calls.append(m) or h(x))
    assert run_cli(["--q", "7/10", "--lmax", "3/2", "orthogonality"],
                   tmp_path) == 0
    assert calls.count(peterweyl) == 2 * 30 ** 2 and calls.count(cli) == 30


def test_orthogonality_fails_on_a_wrong_normalizer(tmp_path, monkeypatch,
                                                    capsys):
    # the closed-form normalizers are checked, not read back: doubling one
    # N_m breaks the suite and the numeric residual
    from qsu2.peterweyl import PWTable
    norm_sq = PWTable.norm_sq

    def doubled(self, twice_l):
        norms = dict(norm_sq(self, twice_l))
        if twice_l == 3:
            norms[1] = norms[1] * 2
        return norms
    monkeypatch.setattr(PWTable, "norm_sq", doubled)
    assert run_cli(["--q", "7/10", "--lmax", "3/2", "orthogonality"],
                   tmp_path) == 1
    out = capsys.readouterr().out
    assert "no violations" not in out and "RESULT: FAIL" in out


def test_hopf_passes(tmp_path):
    assert run_cli(["--trials", "25", "hopf"], tmp_path) == 0


def test_fourier_passes(tmp_path):
    assert run_cli(["--trials", "15", "fourier"], tmp_path) == 0


def test_inequality_writes_csv(tmp_path):
    rc = run_cli(["--q", "1", "--p", "1.5", "--trials", "3", "--grid", "24",
                  "--seed", "42", "inequality", "--kind", "hy"], tmp_path)
    assert rc == 0
    assert (tmp_path / "inequality_hy.csv").exists()


def test_inequality_deterministic(tmp_path):
    args = ["--q", "1", "--p", "1.5", "--trials", "3", "--grid", "24",
            "--seed", "7", "inequality", "--kind", "paley"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    main(["--output", str(d1)] + args)
    main(["--output", str(d2)] + args)
    assert (d1 / "inequality_paley.csv").read_bytes() == \
        (d2 / "inequality_paley.csv").read_bytes()


def test_multiplier_modes(tmp_path):
    assert run_cli(["--lmax", "1", "multiplier", "--extract"], tmp_path) == 0
    assert run_cli(["--lmax", "1", "multiplier", "--bound"], tmp_path) == 0
    assert (tmp_path / "multiplier_symbol.json").exists()


def test_spectrum_classify(tmp_path):
    assert run_cli(["--q", "1/2", "spectrum", "--dirac", "q"], tmp_path) == 0
    assert run_cli(["--q", "1", "spectrum", "--dirac", "classical"],
                   tmp_path) == 0


def test_commutator_scan(tmp_path):
    rc = run_cli(["--q", "1/2", "--lmax", "1", "commutator", "--scan"],
                 tmp_path)
    assert rc == 0
    assert (tmp_path / "commutator_ratios.csv").exists()


def test_calculus_checks(tmp_path):
    assert run_cli(["--q", "1/2", "--lmax", "2", "--trials", "5",
                    "calculus", "--kind", "3d", "--check", "leibniz"],
                   tmp_path) == 0
    assert run_cli(["--q", "1/2", "--lmax", "4", "calculus", "--kind", "3d",
                    "--check", "admissible"], tmp_path) == 0
    assert (tmp_path / "growth_3d.csv").exists()


def test_dirac_and_laplacian(tmp_path):
    assert run_cli(["--q", "1/2", "--lmax", "3/2", "dirac-geometric"],
                   tmp_path) == 0
    assert run_cli(["--q", "1/2", "--lmax", "2", "laplacian"], tmp_path) == 0


@pytest.mark.parametrize("args", [
    ["spectrum", "--classify"],
    ["dirac-geometric", "--eigenvalues"],
    ["laplacian", "--eigenvalues"],
])
def test_flags_that_select_nothing_are_not_offered(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--q", "1/2", "--lmax", "1"] + args, tmp_path)
    assert exc.value.code == 2
    assert args[1] in capsys.readouterr().err


@pytest.mark.parametrize("check", ["growth", "admissible"])
@pytest.mark.parametrize("q_from", ["flag", "config"])
def test_growth_at_q_one_is_a_usage_error(tmp_path, capsys, check, q_from):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": 1}')
    q = ["--q", "1"] if q_from == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(q + ["calculus", "--kind", "3d", "--check", check], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "growth fits need q != 1" in err
    assert "usage:" in err


def test_dirac_geometric_at_q_one_is_a_usage_error(tmp_path, capsys):
    # lambda = 1 - q^-2 vanishes at q = 1: refused before the run
    with pytest.raises(SystemExit) as exc:
        run_cli(["--q", "1", "dirac-geometric"], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "needs q != 1" in err
    assert "usage:" in err


@pytest.mark.parametrize("check", ["growth", "admissible"])
@pytest.mark.parametrize("q_from", ["flag", "config"])
@pytest.mark.parametrize("lmax, spins", [("0", 0), ("1/2", 1)])
def test_growth_needs_two_integer_spins(tmp_path, capsys, check, q_from,
                                        lmax, spins):
    # the growth checks fit the integer spins 1 <= l <= 2 lmax
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lmax": lmax}))
    flags = (["--lmax", lmax] if q_from == "flag"
             else ["--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        run_cli(flags + ["--q", "1/2", "calculus", "--kind", "3d",
                         "--check", check], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "growth fits need two integer spins" in err
    assert f"has {spins}" in err
    assert not (tmp_path / "growth_3d.csv").exists()


def test_growth_runs_at_two_integer_spins(tmp_path):
    assert run_cli(["--q", "1/2", "--lmax", "1", "calculus", "--kind", "4d",
                    "--check", "growth"], tmp_path) == 0
    rows = (tmp_path / "growth_4d.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 13     # header, spins 1 and 2 per family


def test_hausdorff_young_with_p_near_one(tmp_path):
    # p' = p/(p-1) is about 1e7: the plain lp' sum leaves the float range
    assert run_cli(["--q", "1", "--p", "1.0000001", "--trials", "1",
                    "--grid", "8", "inequality", "--kind", "hy"],
                   tmp_path) == 0
    with open(tmp_path / "inequality_hy.csv") as fh:
        ratio = float(next(csv.DictReader(fh))["ratio"])
    assert math.isfinite(ratio) and ratio <= 1 + 1e-5


def test_hy_paley_with_b_far_out_of_float_range(tmp_path):
    # b = 1e6 <= p' about 1e7: the lb sum leaves the float range as well
    assert run_cli(["--q", "1", "--p", "1.0000001", "--b", "1000000",
                    "--trials", "1", "--grid", "8", "inequality",
                    "--kind", "hy-paley"], tmp_path) == 0
    with open(tmp_path / "inequality_hy-paley.csv") as fh:
        ratio = float(next(csv.DictReader(fh))["ratio"])
    assert math.isfinite(ratio) and ratio <= 1 + 1e-5


@pytest.mark.parametrize("kind", ["hl", "cor58"])
def test_dirac_weighted_kinds_with_beta_far_out_of_float_range(tmp_path,
                                                               kind):
    # |lambda_l|^(beta (p - 2)) = (2l+1)^2500 leaves the float range; the
    # left side is about 1e251 for seed 42 with cor58 and past it otherwise
    assert run_cli(["--q", "1", "--beta", "-5000", "--trials", "2",
                    "--grid", "8", "inequality", "--kind", kind],
                   tmp_path) == 0
    with open(tmp_path / f"inequality_{kind}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert float(row["lhs"]) > 1e200 and float(row["ratio"]) > 1e200


def test_decimal_q_is_read_exactly(tmp_path, capsys):
    outputs = []
    for q in ("0.7", "7/10"):
        assert run_cli(["--q", q, "--lmax", "1", "orthogonality"],
                       tmp_path) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "q=7/10" in outputs[0].out


def test_lmax_default_is_parsed_as_a_spin():
    # the default goes through the spin parser: l = 3/2, doubled to 3
    parser = build_parser()
    assert parser.parse_args(["hopf"]).lmax == 3
    assert parser.parse_args(["--lmax", "3/2", "hopf"]).lmax == 3
    assert parser.parse_args(["--lmax", "3", "hopf"]).lmax == 6


@pytest.mark.parametrize("q_from", ["flag", "config"])
@pytest.mark.parametrize("values, kind, reason", [
    ({"q": "1/2"}, "hy", "only p=2 away from q=1"),
    ({"q": "1", "p": "2.5"}, "hy", "1 < p <= 2"),
    ({"q": "1", "b": "1.2"}, "hy-paley", "p <= b <= p'"),
], ids=["p-away-from-q-one", "p-above-two", "b-below-p"])
def test_inequality_exponents_are_usage_errors(tmp_path, capsys, q_from,
                                               values, kind, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    flags = ([f"--{k}={v}" for k, v in values.items()] if q_from == "flag"
             else ["--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        run_cli(flags + ["--trials", "2", "inequality", "--kind", kind],
                tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "usage:" in err


def test_inequality_error_names_a_huge_q_briefly(tmp_path, capsys):
    # q = 2e400 is a 401-digit integer; the message rounds it exactly
    with pytest.raises(SystemExit) as exc:
        run_cli(["--q", "2e400", "--lmax", "1", "inequality", "--kind", "hy"],
                tmp_path)
    assert exc.value.code == 2
    [line] = [ln for ln in capsys.readouterr().err.splitlines()
              if "only p=2 away from q=1" in ln]
    assert "q=2.00000e+400" in line and len(line) < 120
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q_from", ["flag", "config"])
def test_multiplier_bound_exponents_are_usage_errors(tmp_path, capsys,
                                                     q_from):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"p": 3}')
    flags = ["--p", "3"] if q_from == "flag" else ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run_cli(flags + ["--lmax", "1", "multiplier", "--bound"], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "need 1 < p <= 2 <= q < infinity" in err
    assert "usage:" in err


@pytest.mark.parametrize("q_from", ["flag", "config"])
@pytest.mark.parametrize("flag", ["p", "b", "beta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exponents_must_be_finite(tmp_path, capsys, q_from, flag, value):
    cfg = tmp_path / "cfg.json"
    # JSON spells the non-finite floats NaN and Infinity
    cfg.write_text(f'{{"{flag}": {value.replace("inf", "Infinity")}}}'
                   .replace("nan", "NaN"))
    flags = ([f"--{flag}={value}"] if q_from == "flag"
             else ["--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        run_cli(flags + ["--q", "1", "--trials", "1", "--grid", "8",
                         "inequality", "--kind", "hl"], tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--{flag}" in err
    assert "must be finite" in err
    assert not (tmp_path / "inequality_hl.csv").exists()


@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_trials_must_be_positive(tmp_path, capsys, trials):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--trials", trials, "--q", "1", "inequality", "--kind", "hy"],
                tmp_path)
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_grid_must_be_positive(tmp_path, capsys, grid):
    with pytest.raises(SystemExit) as exc:
        run_cli([f"--grid={grid}", "--trials", "1", "--q", "1", "inequality",
                 "--kind", "hy"], tmp_path)
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err


def test_format_csv_is_not_offered(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--format", "csv", "--q", "1/2", "--lmax", "1", "commutator",
                 "--scan"], tmp_path)
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["abc", "0", "-1/2", "1/0", "nan"])
def test_q_must_be_a_positive_number(tmp_path, capsys, q):
    with pytest.raises(SystemExit) as exc:
        run_cli([f"--q={q}", "hopf"], tmp_path)
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--q", "1e300", "spectrum"],
    ["--q", "1e300", "--lmax", "1", "commutator", "--scan"],
    ["--q", "1e300", "--lmax", "1", "orthogonality"],
    ["--q", "1e300", "--lmax", "1", "calculus", "--kind", "3d", "--check",
     "growth"],
    ["--q", "1e-300", "--lmax", "1", "commutator"],
], ids=["spectrum", "scan", "orthogonality", "growth", "commutator"])
def test_q_far_from_one_is_a_usage_error(tmp_path, capsys, args):
    # each of these reports a float that q^(+-l) puts past the float range
    with pytest.raises(SystemExit) as exc:
        run_cli(args, tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--q is too far from 1" in err and "usage:" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--trials", "5", "hopf"],
    ["--trials", "5", "fourier"],
], ids=["hopf", "fourier"])
def test_q_far_from_one_runs_where_q_is_never_evaluated(tmp_path, capsys,
                                                        args):
    # the float square root of 2e400 overflows; these never take it
    assert run_cli(["--q", "2e400"] + args, tmp_path) == 0
    assert "RESULT: PASS" in capsys.readouterr().out


def test_laplacian_far_from_one_still_reports(tmp_path, capsys):
    assert run_cli(["--q", "1e300", "--lmax", "1", "laplacian"],
                   tmp_path) == 0
    assert "l=1: [l][l+1] = 10000000000000000525" in capsys.readouterr().out


@pytest.mark.parametrize("config, named", [
    ('{"trials": 0}', "--trials"),
    ('{"lmax": "x"}', "--lmax"),
    ('{"q": 0}', "--q"),
    ('{"format": "xml"}', "--format"),
    ('{"trials": true}', "trials"),
    ('{"bogus": 1}', "--bogus"),
    ('[1]', "JSON object"),
])
def test_config_goes_through_flag_parsers(tmp_path, capsys, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    with pytest.raises(SystemExit) as exc:
        main(["--output", str(tmp_path), "--config", str(cfg), "--q", "1",
              "inequality", "--kind", "hy"])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_config_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lmax": "1/2", "q": "1/2"}')
    assert main(["--output", str(tmp_path), "--config", str(cfg),
                 "orthogonality"]) == 0
    assert "l <= 1/2" in capsys.readouterr().out


def test_config_file_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lmax": 2, "trials": 5}')
    assert main(["--output", str(tmp_path), "--config", str(cfg),
                 "hopf"]) == 0


def test_console_entry_point(tmp_path):
    env = dict(os.environ, QSU2_OUTPUT_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "qsu2.cli", "--lmax", "1", "orthogonality"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# -- dispatch: each subparser carries its handler -----------------------------
#
# benchmarks/tracing.py counts a command by rebinding qsu2.cli.cmd_*, so
# the parser must look the handlers up when it is built, not at import.

_SUBCOMMANDS = {
    "orthogonality": [], "hopf": [], "fourier": [],
    "inequality": ["--kind", "hy"], "multiplier": ["--bound"],
    "spectrum": [], "commutator": ["--scan"],
    "calculus": ["--kind", "3d", "--check", "leibniz"],
    "dirac-geometric": [], "laplacian": [],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_each_subcommand_runs_its_handler(command):
    args = build_parser().parse_args([command] + _SUBCOMMANDS[command])
    assert args.run is getattr(cli, "cmd_" + command.replace("-", "_"))


def _counting(monkeypatch, name):
    calls = []

    def counter(args):
        calls.append(args)
        return 0

    monkeypatch.setattr(cli, name, counter)
    return calls


def test_main_runs_a_rebound_handler(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, "cmd_hopf")
    assert run_cli(["hopf"], tmp_path) == 0
    assert len(calls) == 1
    assert calls[0].output == str(tmp_path)


def test_main_runs_a_rebound_handler_with_flags(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, "cmd_commutator")
    monkeypatch.setenv("QSU2_OUTPUT_DIR", str(tmp_path / "env"))
    assert main(["--q", "1/2", "--lmax", "1", "commutator", "--scan",
                 "--dirac", "classical"]) == 0
    assert not (tmp_path / "env" / "commutator_ratios.csv").exists()
    [args] = calls
    assert (args.lmax, args.dirac, args.scan) == (2, "classical", True)
    assert args.point.q0 == Fraction(1, 2)
    assert args.output == str(tmp_path / "env")
    assert (tmp_path / "env").is_dir()


def test_config_q_reaches_the_evaluation_point(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"q": "1/2"}')
    calls = _counting(monkeypatch, "cmd_hopf")
    assert run_cli(["--config", str(cfg), "hopf"], tmp_path) == 0
    [args] = calls
    assert args.q == Fraction(1, 2)
    assert args.point.q0 == Fraction(1, 2)


# -- numpy is loaded only by the float paths ----------------------------------
#
# The exact layers never import numpy: only the q = 1 quadrature, the dense
# SVD of multiplier --bound and the dirac-geometric eigenvalues do, inside
# the functions that build float arrays.  A fresh interpreter shows it.

_EXACT_RUNS = [
    ["orthogonality"], ["hopf"], ["fourier"], ["multiplier", "--extract"],
    ["spectrum"], ["commutator", "--scan"],
    ["calculus", "--kind", "3d", "--check", "leibniz"],
    ["calculus", "--kind", "3d", "--check", "growth"],
    ["calculus", "--kind", "4d", "--check", "admissible"],
    ["laplacian"],
    ["--q", "1", "--p", "2", "inequality", "--kind", "hy"],
]
_FLOAT_RUNS = [
    ["--q", "1", "--grid", "8", "inequality", "--kind", "hy"],
    ["multiplier", "--bound"], ["dirac-geometric"],
]

_NUMPY_PROBE = """
import json, sys
import qsu2, qsu2.cli
out = {"import": "numpy" in sys.modules, "exact": [], "float": []}
for side, runs in (("exact", EXACT), ("float", FLOAT)):
    for args in runs:
        rc = qsu2.cli.main(["--output", OUT, "--lmax", "1", "--trials", "3"]
                           + args)
        out[side].append([rc, "numpy" in sys.modules])
print(json.dumps(out))
"""


def test_exact_paths_never_load_numpy(tmp_path):
    probe = (f"EXACT, FLOAT, OUT = {_EXACT_RUNS!r}, {_FLOAT_RUNS!r}, "
             f"{str(tmp_path)!r}" + _NUMPY_PROBE)
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["import"] is False
    assert out["exact"] == [[0, False]] * len(_EXACT_RUNS)
    assert out["float"] == [[0, True]] * len(_FLOAT_RUNS)
