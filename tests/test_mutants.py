"""The mutant list still fits the code: each mutant's old text occurs exactly
once in its file, so ``mutants.py`` would apply it where it was written, and
the tests it runs first are there."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.rule
    if mutant.first:
        assert (ROOT / mutant.first.partition("::")[0]).is_file()


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
