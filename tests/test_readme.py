"""The python blocks of README.md run as written, and each value a
`print(...)  # about V` line shows agrees with V to V's last digit."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    for line, shown in zip(prints, printed):
        about = re.search(r"# about (\S+)", line)
        if about:
            claim = about.group(1)
            digits = len(claim.partition(".")[2])
            assert float(shown) == pytest.approx(float(claim), abs=0.5 * 10.0**-digits)
