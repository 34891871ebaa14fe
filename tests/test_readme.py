"""README's "Library sketch" runs as written: its one code block, executed verbatim."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs_and_prepares_10():
    section = README.read_text(encoding="utf-8").split("## Library sketch\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    names: dict = {}
    exec(compile(code, f"{README.name} (Library sketch)", "exec"), names)
    # theta(e2 on qubit 0) is |10>, qubit 0 the most significant bit
    assert np.array_equal(names["amps"], [0, 0, 1, 0])
