"""The README's library example runs and prints what its comment says."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_the_health_factor_it_states(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    stated = re.search(r"print\(health_factor\(values\)\)\s+# (\S+)", block).group(1)
    assert stated == "0.942857142857142857"
    assert capsys.readouterr().out.splitlines()[0] == stated
