import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_text_occurs_once_in_its_file():
    # A change to a listed decision must keep its mutant current.
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for mutant in mutants.MUTANTS:
        source = (ROOT / mutant.path).read_text()
        assert source.count(mutant.text) == 1, mutant.name
        assert mutant.replacement != mutant.text, mutant.name
