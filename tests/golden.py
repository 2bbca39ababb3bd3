"""Golden digests of the exact CLI commands and the demos, and the script
that records them.

Each command runs through qsu2.cli.main in process, with --output set to a
fresh directory.  Its record is the exit status (a usage error is the
SystemExit it raises), the SHA-256 of stdout and of stderr with the output
directory masked, and the SHA-256 of every file it writes.  The floats
of the exact commands are exact values evaluated in Python floats, so
their bytes do not depend on numpy or the BLAS build.  The commands in NUMPY_COMMANDS
(the q = 1 quadrature and the dense SVD bound) go through numpy and
OpenBLAS.

Each demo under demos/ runs in a fresh interpreter; its record is the exit
status and the SHA-256 of stdout.  Demos 04 and 05 load numpy, so the file
also records the numpy and OpenBLAS versions the digests were taken with,
and a failing numpy command or demo names them.

    PYTHONPATH=src python3 tests/golden.py

rewrites tests/golden.json and prints every digest that moved, every
record that is new and every record that is dropped; a changed digest is
a changed artifact, to be named in CHANGES.md with its reason.
To compare without rewriting, run the tests that read the file:

    python3 -m pytest tests/test_golden.py tests/test_demos.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from qsu2 import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
MASK = "<OUTPUT>"


def _commands():
    for q, lmax in (("1/2", "5"), ("7/10", "5"), ("1/2", "12")):
        for kind in ("3d", "4d"):
            for check in ("growth", "admissible"):
                yield ["--q", q, "--lmax", lmax, "calculus", "--kind", kind,
                       "--check", check]
    for kind in ("3d", "4d"):
        yield ["--q", "1/2", "--lmax", "2", "calculus", "--kind", kind,
               "--check", "leibniz"]
    yield ["--q", "1/2", "--lmax", "3/2", "commutator", "--scan"]
    yield ["--q", "7/10", "--lmax", "2", "commutator", "--scan"]
    yield ["--q", "0.7", "--lmax", "1", "commutator", "--scan"]
    yield ["--lmax", "5/2", "commutator", "--scan", "--dirac", "classical"]
    yield ["--q", "1e300", "--lmax", "1", "commutator", "--scan"]
    yield ["--q", "1e300", "--lmax", "2", "calculus", "--kind", "4d",
           "--check", "growth"]
    # the exact suite reads no q: a q past the float range passes
    yield ["--q", "1e100", "--lmax", "3/2", "orthogonality"]
    yield ["multiplier", "--extract"]
    # the rest of the README block
    yield ["--q", "7/10", "--lmax", "3/2", "orthogonality"]
    yield ["--trials", "500", "hopf"]
    yield ["--trials", "200", "fourier"]
    yield ["--q", "1/2", "spectrum", "--dirac", "q"]
    yield ["--q", "1/2", "--lmax", "3", "laplacian"]
    yield ["--q", "1/2", "--p", "2", "inequality", "--kind", "hy"]
    # the JSON report
    yield ["--format", "json", "--q", "1/2", "--lmax", "3", "laplacian"]
    yield ["--format", "json", "--q", "1/2", "--lmax", "3/2", "commutator",
           "--scan"]
    # past README scale, where a new term order would move a float
    yield ["--q", "7/10", "--lmax", "2", "orthogonality"]
    yield ["--q", "7/10", "--lmax", "3", "orthogonality"]
    yield ["--q", "7/10", "--lmax", "3", "commutator", "--scan"]
    yield ["--q", "7/10", "--p", "2", "--lmax", "3", "inequality", "--kind",
           "hy"]
    yield ["--q", "7/10", "--p", "2", "--lmax", "3", "--trials", "40",
           "inequality", "--kind", "paley"]
    yield ["--q", "7/10", "--lmax", "3", "--trials", "50", "fourier"]
    # the geometric Dirac spectrum, at README scale and far from q = 1
    yield ["--q", "1/2", "--lmax", "3/2", "dirac-geometric"]
    yield ["--q", "1000", "--lmax", "3/2", "dirac-geometric"]


def _numpy_commands():
    for kind in ("hy", "paley", "hy-paley", "hl", "cor58"):
        yield ["--q", "1", "--p", "1.5", "--trials", "20", "--seed", "42",
               "inequality", "--kind", kind]
    # below the grid floor of degree 3 (7 nodes): a usage error
    yield ["--q", "1", "--grid", "1", "--p", "1.5", "--trials", "20",
           "inequality", "--kind", "hy"]
    yield ["multiplier", "--bound"]


EXACT_COMMANDS = [" ".join(argv) for argv in _commands()]
NUMPY_COMMANDS = [" ".join(argv) for argv in _numpy_commands()]
COMMANDS = EXACT_COMMANDS + NUMPY_COMMANDS


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def record(code, stdout, stderr, outdir):
    """The golden record of one run that wrote into outdir."""
    outdir = pathlib.Path(outdir)
    return {"exit": code,
            "stdout": _sha(stdout.replace(str(outdir), MASK).encode()),
            "stderr": _sha(stderr.replace(str(outdir), MASK).encode()),
            "files": {p.relative_to(outdir).as_posix(): _sha(p.read_bytes())
                      for p in sorted(outdir.rglob("*")) if p.is_file()}}


def run_in_process(command):
    """The golden record of one command run through cli.main here."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["--output", outdir] + command.split())
            except SystemExit as exc:
                code = exc.code
        return record(code, out.getvalue(), err.getvalue(), outdir)


def fresh_env():
    """The environment of a fresh interpreter that imports qsu2 from src."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_demo(demo):
    """One demo script run to its end in a fresh interpreter on src."""
    return subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=fresh_env(), cwd=ROOT)


def demo_record(proc):
    """The golden record of one finished demo run."""
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout.encode())}


def numpy_versions():
    """The numpy and OpenBLAS versions of this interpreter."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}"}


def load():
    return json.loads(GOLDEN.read_text())


def collect():
    """Every record, as tests/golden.json holds them."""
    return {"commands": {c: run_in_process(c) for c in COMMANDS},
            "demos": {d.stem: demo_record(run_demo(d)) for d in DEMOS},
            "numpy": numpy_versions()}


def moved(old, new):
    """One line per record that new adds to old or drops from it, and one
    per digest of a kept record that differs."""
    lines = []
    for section in ("commands", "demos"):
        before, after = old.get(section, {}), new[section]
        for name, rec in after.items():
            if name not in before:
                lines.append(f"new: {section}: {name}")
                continue
            lines.extend(f"moved: {section}: {name}: {field}"
                         for field, digest in rec.items()
                         if before[name].get(field) != digest)
        lines.extend(f"dropped: {section}: {name}"
                     for name in sorted(set(before) - set(after)))
    return lines


def main():
    old = load() if GOLDEN.exists() else {}
    new = collect()
    lines = moved(old, new)
    print("\n".join(lines) if lines else "no digest moved")
    if old.get("numpy") != new["numpy"]:
        print(f"numpy: recorded {old.get('numpy')}, running {new['numpy']}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
