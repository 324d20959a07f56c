import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # energy_curves.py writes its SVGs into the directory given as argv[1]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo), str(tmp_path)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_references_need_neither_scipy_nor_numpy(tmp_path):
    # a None entry in sys.modules makes every import of that package fail;
    # the quadrature oracle and the demo's own quadrature use mpmath
    demo = ROOT / "demos" / "screening_suppression.py"
    probe = ("import runpy, sys\n"
             "sys.modules['scipy'] = sys.modules['numpy'] = None\n"
             "from _oracles import zero_freq_quadrature\n"
             "print(zero_freq_quadrature(0.0, 2e-15, 4.35e11))\n"
             f"runpy.run_path({str(demo)!r}, run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    first, *rest = result.stdout.splitlines()
    assert float(first) < 0.0
    assert rest[0] == "series vs quadrature, L = 1 fm:"
