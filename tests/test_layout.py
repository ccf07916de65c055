"""The package keeps only what it runs: every public name has a caller in ``src/`` or in the benchmark.

Reference code that only tests call (the per-cube ``Fraction`` loops, the
old per-coordinate entry points) lives beside those tests, not in the
package.  A public top-level function or class, or a public method, passes
when another part of ``src/spongedims`` names it, or when ``perfbench/``
reads an attribute of that name.  ``__init__.py`` is left out on both sides,
since a re-export is not a use.
"""

import ast
from pathlib import Path

import spongedims

SRC = Path(spongedims.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _trees(paths):
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _public_definitions(tree):
    """(qualified name, bare name) of each public top-level function or class and each public method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _referenced(tree):
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attributes(tree):
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_public_name_has_a_caller():
    package = _trees(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    bench = set().union(*map(_attributes, _trees(sorted(PERFBENCH.glob("*.py"))).values()))
    referenced = set().union(*map(_referenced, package.values()))
    unused = [
        f"{module}:{qualified}"
        for module, tree in package.items()
        for qualified, name in _public_definitions(tree)
        if name not in referenced and name not in bench
    ]
    assert len(package) > 5 and bench, "nothing to scan"
    assert not unused, f"public names nothing in src/ or perfbench/ uses: {unused}"
