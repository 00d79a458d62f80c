"""The mutant catalogue of tests/mutants.py stays applicable: every snippet
occurs exactly once in its file under src/bihomlie/, and the mutated file
still compiles, so no mutant is killed by a syntax error. No mutant runs
here; `python tests/mutants.py` runs them."""

import pytest

from mutants import MUTANTS, ROOT, occurrences


def test_names_are_unique_and_every_mutant_has_a_kill_set():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 12
    assert all(m.kill_set and all(t.startswith("tests/") for t in m.kill_set)
               for m in MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_snippet_occurs_once_and_the_mutant_compiles(mutant):
    assert occurrences(mutant) == 1
    path = ROOT / "src" / "bihomlie" / mutant.file
    text = path.read_text("utf-8")
    mutated = text.replace(mutant.snippet, mutant.replacement)
    assert mutated != text
    compile(mutated, str(path), "exec")
