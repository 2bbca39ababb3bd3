"""Every recorded CLI command writes the bytes in tests/golden.json.

The in-process runs share the library's module-level caches; two of the
commands also run in fresh interpreters, so the digests are shown not to
depend on what ran before them.  tests/golden.py says how to rewrite the
file when an artifact changes on purpose.  The numpy commands' failure
message names the numpy and OpenBLAS versions, recorded and running.
"""

import contextlib
import io
import json
import subprocess
import sys

import pytest

import golden

RECORDED = golden.load()
GOLDEN = RECORDED["commands"]
FRESH = ["--q 1/2 --lmax 5 calculus --kind 4d --check growth",
         "--q 1e300 --lmax 1 commutator --scan"]


def test_every_command_is_recorded():
    assert sorted(GOLDEN) == sorted(golden.COMMANDS)


def test_moved_names_new_changed_and_dropped_records():
    # a new record is one line, not one per field
    old = {"commands": {"kept": {"exit": 0, "stdout": "a"},
                        "gone": {"exit": 0, "stdout": "b"}},
           "demos": {}}
    new = {"commands": {"kept": {"exit": 0, "stdout": "c"},
                        "added": {"exit": 0, "stdout": "d"}},
           "demos": {}}
    assert golden.moved(old, new) == [
        "moved: commands: kept: stdout", "new: commands: added",
        "dropped: commands: gone"]


@pytest.mark.parametrize("command", golden.EXACT_COMMANDS)
def test_in_process_digests(command):
    assert golden.run_in_process(command) == GOLDEN[command]


@pytest.mark.parametrize("command", [c for c in golden.EXACT_COMMANDS
                                     if c.startswith("--format json")])
def test_json_report_is_one_object(command, tmp_path):
    # --format json prints the report's lines and verdict as one object
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = golden.cli.main(["--output", str(tmp_path)] + command.split())
    report = json.loads(out.getvalue())
    assert sorted(report) == ["lines", "passed"]
    assert code == 0 and report["passed"] is True
    assert report["lines"] and all(isinstance(x, str)
                                   for x in report["lines"])


@pytest.mark.parametrize("command", golden.NUMPY_COMMANDS)
def test_numpy_digests(command):
    assert golden.run_in_process(command) == GOLDEN[command], (
        f"digests recorded with {RECORDED['numpy']}, running "
        f"{golden.numpy_versions()}")


@pytest.mark.parametrize("command", FRESH)
def test_fresh_process_digests(command, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qsu2.cli", "--output", str(tmp_path)]
        + command.split(), capture_output=True, text=True,
        env=golden.fresh_env(), cwd=golden.ROOT)
    rec = golden.record(proc.returncode, proc.stdout, proc.stderr, tmp_path)
    assert rec == GOLDEN[command]
