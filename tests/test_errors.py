"""Every error type the package defines is raised somewhere in its source."""

import ast
from pathlib import Path

import spongedims
from spongedims import errors


def _raised_names(tree: ast.AST) -> set[str]:
    """Names of the exceptions a module's ``raise`` statements construct or re-raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    src = Path(spongedims.__file__).parent
    defined = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.SpongeDimsError) and cls is not errors.SpongeDimsError
    }
    raised = set().union(*(_raised_names(ast.parse(path.read_text())) for path in src.glob("*.py")))
    assert defined, "errors.py defines no error types"
    assert not defined - raised, f"error types nothing raises: {sorted(defined - raised)}"
