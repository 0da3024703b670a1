"""The mutation catalogue stays applicable.

tests/mutants.json lists small mutants of the package, each with an id, what
it breaks, a file, a text that occurs in it, the text that replaces it and
the test expected to fail once it does. tests/run_mutants.py applies each
one to a copy of the tree and writes which test killed it; no test here runs
one. This test only keeps the catalogue from rotting: each old text must
still name exactly one place in its file, each killer must name a test
that its file defines, so a renamed test shows here and not only in a run of
every mutant, and no two mutants may share an id, which would merge their
outcomes in the kill map.
"""

import ast
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as _fh:
    MUTANTS = json.load(_fh)


def defines(path, names):
    """Whether the file at path defines names[0], and within it names[1]
    and so on: a test's class, then the test; a [param] suffix is not a
    name."""
    with open(path, encoding="utf-8") as fh:
        scope = ast.parse(fh.read()).body
    for name in names:
        found = [node.body for node in scope if getattr(node, "name", None) == name]
        if not found:
            return False
        scope = found[0]
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m["id"] for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    with open(os.path.join(ROOT, mutant["file"]), encoding="utf-8") as fh:
        source = fh.read()
    assert source.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    path, *names = mutant["killer"].partition("[")[0].split("::")
    assert names and defines(os.path.join(ROOT, path), names)


def test_ids_are_distinct():
    # pytest would suffix a repeated parametrize id rather than fail
    ids = [m["id"] for m in MUTANTS]
    assert len(set(ids)) == len(ids), sorted(i for i in set(ids) if ids.count(i) > 1)
