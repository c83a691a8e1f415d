"""The verdict mutants still apply to the code they mutate.

tests/verdict_mutants.py keeps each mutant as one exact string
replacement in a file under src/. A refactor that rewrites a mutated
line leaves its mutant with nothing to replace, which shows only when
the slow runner is started; this test loads the table without running
anything and checks every entry against its file.
"""

import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent / "verdict_mutants.py"


def _mutants():
    spec = importlib.util.spec_from_file_location("verdict_mutants_table",
                                                  MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ROOT, module.MUTANTS


def test_every_mutant_replaces_exactly_one_site():
    root, mutants = _mutants()
    assert mutants
    assert len({mutant.name for mutant in mutants}) == len(mutants)
    for mutant in mutants:
        assert mutant.old != mutant.new, mutant.name
        text = (root / mutant.path).read_text()
        assert text.count(mutant.old) == 1, mutant.name
