"""The mutant table of ``tests/mutants.py`` follows the code: each row's
source text occurs exactly once in its file, and each test it names
exists. Running the mutants is opt-in (``python3 tests/mutants.py``)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_source_text_occurs_once(mutant):
    text = (mutants.ROOT / "src" / "motifgcn" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.source) == 1
    assert mutant.replacement != mutant.source


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_names_existing_tests(mutant):
    assert isinstance(mutant.tests, tuple) and mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"def {name.split('[')[0]}(" in (mutants.ROOT / path).read_text(encoding="utf-8")

