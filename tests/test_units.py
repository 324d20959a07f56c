import ast
from pathlib import Path

import pytest

import casnuc
from casnuc.constants import HBAR_C
from casnuc.units import J_PER_MEV, M_PER_FM


def test_mev_definition():
    assert 1.602176634e-13 / J_PER_MEV == pytest.approx(1.0, rel=1e-14)


def test_fm_definition():
    assert M_PER_FM == 1e-15


def test_hbar_c_product_units():
    assert HBAR_C / (J_PER_MEV * M_PER_FM) == pytest.approx(197.327, abs=1e-3)


def test_only_the_cli_reads_the_presentation_units():
    # every other module takes and returns SI values
    readers = set()
    for path in Path(casnuc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("units", "casnuc.units"):
                readers.add(path.stem)
    assert readers == {"cli"}
