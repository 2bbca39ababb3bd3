"""Golden digests of the exact CLI commands, and the script that records them.

Each command runs through qsu2.cli.main in process, with --output set to a
fresh directory.  Its record is the exit status (a usage error is the
SystemExit it raises), the SHA-256 of stdout and of stderr with the output
directory masked, and the SHA-256 of every file it writes.  Only exact
commands are listed: their floats are rational values rounded once, so
the bytes do not depend on numpy or the BLAS build.

    PYTHONPATH=src python3 tests/golden.py

rewrites tests/golden.json and prints every digest that moved; a changed
digest is a changed artifact, to be named in CHANGES.md with its reason.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

from qsu2 import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"
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
    yield ["multiplier", "--extract"]


COMMANDS = [" ".join(argv) for argv in _commands()]


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


def load():
    return json.loads(GOLDEN.read_text())


def main():
    old = load() if GOLDEN.exists() else {}
    new = {command: run_in_process(command) for command in COMMANDS}
    for command, rec in new.items():
        before = old.get(command, {})
        for field in ("exit", "stdout", "stderr", "files"):
            if before.get(field) != rec[field]:
                print(f"moved: {command}: {field}")
    for command in sorted(set(old) - set(new)):
        print(f"dropped: {command}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
