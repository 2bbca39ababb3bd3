"""Every narrative script under demos/ runs to completion and prints the
stdout recorded in tests/golden.json."""

import pytest

import golden

RECORDED = golden.load()


def test_every_demo_is_recorded():
    assert sorted(RECORDED["demos"]) == [d.stem for d in golden.DEMOS]


@pytest.mark.parametrize("demo", golden.DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = golden.run_demo(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert golden.demo_record(proc) == RECORDED["demos"][demo.stem], (
        f"{demo.stem} stdout moved; digests recorded with "
        f"{RECORDED['numpy']}, running {golden.numpy_versions()}")
