"""The mutation table in `mutants.py` stays live: each old text occurs exactly once.

Running the mutants copies the tree once per mutant and stays out of tier-1
(`python tests/mutants.py`); this only checks that a refactor has not left a
mutant pointing at text that is gone or repeated.
"""

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_old_text_occurs_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / t).is_file() for t in mutant.tests)
