"""The mutation catalogue stays applicable.

tests/mutants.json lists small mutants of the package, each with an id, what
it breaks, a file, a text that occurs in it, the text that replaces it and
the test expected to fail once it does. tests/run_mutants.py applies each
one to a copy of the tree and writes which test killed it; no test here runs
one. This test only keeps the catalogue from rotting: each old text must
still name exactly one place in its file.
"""

import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as _fh:
    MUTANTS = json.load(_fh)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant["file"]), encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    path, _, _ = mutant["killer"].partition("::")
    assert os.path.isfile(os.path.join(ROOT, path))
