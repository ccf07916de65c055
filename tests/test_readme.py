"""The README's library quick start runs and states what it returns."""

import ast
import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)


def test_readme_quick_start_runs_and_states_its_values():
    code = _quick_start()
    lines = code.splitlines()
    namespace: dict = {}
    stated = {}  # the comment after a bare expression -> the expression's value
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            stated[comment] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert stated["Fraction(1, 6)"] == Fraction(1, 6)
    assert type(stated["Fraction(1, 6)"]) is Fraction
    assert stated["(6, 4)"] == (6, 4)
    assert stated["True"] is True
