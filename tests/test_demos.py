"""Smoke test: each numbered demo runs to its end, in-process.

``run_pilot.py`` is left out: it rewrites the committed pilot calibration.
"""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


def test_all_seven_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
