"""The Python examples of README.md, run as written.

Every ```python block runs in one shared namespace, in document order. A
top-level expression followed by `# value` must equal the value the comment
states, evaluated with Fraction in scope; every other statement just runs.
"""

import ast
import os
import re
from fractions import Fraction

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README) as fh:
        return re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.S | re.M)


def run_block(source, namespace):
    """Run one block; returns the number of stated values it checked."""
    lines = source.splitlines()
    checked = 0
    for node in ast.parse(source).body:
        comment = lines[node.end_lineno - 1][node.end_col_offset :].strip()
        if isinstance(node, ast.Expr) and comment.startswith("#"):
            got = eval(compile(ast.Expression(node.value), README, "eval"), namespace)
            want = eval(comment[1:], {"Fraction": Fraction})
            assert got == want, (ast.unparse(node), got, want)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), README, "exec"), namespace)
    return checked


def test_readme_examples_hold():
    blocks = python_blocks()
    assert blocks
    namespace = {}
    checked = sum(run_block(block, namespace) for block in blocks)
    assert checked >= 5
