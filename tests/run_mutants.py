"""Apply each mutant of tests/mutants.json and record which test kills it.

Usage: python tests/run_mutants.py KILL_MAP.json

For each mutant, src/ and tests/ are copied to a temporary directory, with
README.md and pyproject.toml, which the tests read, and the mutant's one
replacement is made in the copy. The expected killer runs first; if it
passes, the whole file it belongs to runs, and then the whole of tests/
but tests/test_mutants.py, which fails on any mutant because the old text
is gone. The kill map written to KILL_MAP.json is
{id: {"status": "killed" | "survived", "by": test}}, where test is the
killer, its file, "tests", or null for a survivor.

This is not a tier-1 test: a mutant that the killer misses costs a run of
the killer's whole file, and a survivor a run of all of tests/. pytest does
not collect it, since its name does not start with test_.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "README.md", "pyproject.toml")
# pytest's exit codes for failed tests and for an error while collecting,
# which a mutant that breaks an import causes; anything else but 0 (no such
# test, a usage error) says that the catalogue is wrong, not the mutant
KILLED_CODES = (1, 2)


def mutated_tree(mutant, dest):
    """Copy the tree into dest and apply mutant there."""
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, dest)
    path = os.path.join(dest, mutant["file"])
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    if source.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['id']}: old text does not occur once in {mutant['file']}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(mutant["old"], mutant["new"]))


def fails(tree, target):
    """Whether pytest fails on target inside tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--ignore=tests/test_mutants.py", target],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    if proc.returncode not in (0,) + KILLED_CODES:
        raise SystemExit(f"pytest exited {proc.returncode} on {target}")
    return proc.returncode != 0


def run(mutant):
    killer = mutant["killer"]
    with tempfile.TemporaryDirectory() as tree:
        mutated_tree(mutant, tree)
        for target in (killer, killer.partition("::")[0], "tests"):
            if fails(tree, target):
                return {"status": "killed", "by": target}
    return {"status": "survived", "by": None}


def main(argv):
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    with open(os.path.join(ROOT, "tests", "mutants.json"), encoding="utf-8") as fh:
        mutants = json.load(fh)
    # the kill map is keyed by id, so a repeated one would lose an outcome
    ids = [mutant["id"] for mutant in mutants]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise SystemExit(f"mutant ids given twice: {', '.join(repeated)}")
    kills = {}
    for mutant in mutants:
        kills[mutant["id"]] = outcome = run(mutant)
        print(mutant["id"], outcome["status"], outcome["by"] or "-", flush=True)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(kills, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
