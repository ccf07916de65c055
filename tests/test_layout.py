"""The package keeps only what it runs: every public name has a caller in ``src/`` or in the benchmark.

Reference code that only tests call (the per-cube ``Fraction`` loops, the
old per-coordinate entry points) lives beside those tests, not in the
package.  A public top-level function or class, or a public method, passes
when another part of ``src/spongedims`` names it, or when ``perfbench/``
reads an attribute of that name.  ``__init__.py`` is left out on both sides,
since a re-export is not a use.

The other direction is guarded too: the dotted names ``perfbench/tracing.py``
wraps and sums must resolve to package attributes, apart from a pinned set of
names that are already gone.

The checks stay independent of what they check: the tangent geometry and the
counting oracle import nothing from ``dimensions``.  The Hausdorff
refinement stays in one module: ``_kernels`` imports no package module but
``errors``, and ``tangent`` reads nothing of it but the refinement loop.
No module but ``_kernels`` imports numpy.
"""

import ast
import importlib
from pathlib import Path

import pytest

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


# Names perfbench/tracing.py reads that no package attribute backs.  Each is
# a metric that silently reads 0; the set may only shrink, as the tracer is
# pointed at names that exist.
STALE_TRACER_NAMES = {
    "kernels.filter_pass",
    "measure.approximate_cube",
    "measure.cube_measure",
    "measure.depths_lg",
    "measure.lg_weights",
    "measure.pcu_weights",
    "model.cluster",
    "model.digit_tree",
    "model.lg_cluster",
    "model.lg_digit_tree",
    "model.require_valid_bm",
    "model.require_valid_lg",
    "oracle.fit_exponent",
    "oracle.subcube_counts_naive",
    "tangent.cluster_prefractal",
    "tangent.select_maximizers",
    "tangent.select_twists",
    "tangent.tangent_word",
}


def _tracer_names(tree):
    """Dotted layer names the tracer observes (OBSERVERS keys), sums (``S``/``C`` arguments) or groups (tuples)."""
    def strings(nodes):
        return [n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)]

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "OBSERVERS" for t in node.targets):
            names.update(strings(node.value.keys))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("S", "C"):
            names.update(strings(node.args))
        elif isinstance(node, ast.Tuple) and node.elts and len(strings(node.elts)) == len(node.elts):
            names.update(name for name in strings(node.elts) if "." in name)
    return names


def _resolves(name, layers):
    layer, *path = name.split(".")
    obj = importlib.import_module(f"spongedims.{layers[layer]}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_tracer_names_resolve_to_package_attributes():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    names = _tracer_names(tree)
    assert len(names) > 40, "nothing to scan"
    stale = {name for name in names if not _resolves(name, layers)}
    assert stale == STALE_TRACER_NAMES, (
        f"newly stale: {sorted(stale - STALE_TRACER_NAMES)}; resolving again: {sorted(STALE_TRACER_NAMES - stale)}"
    )


def _imported_modules(tree):
    """The bare names of the package modules a module imports, absolute or relative."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("spongedims").removeprefix(".")
            names.update([module.split(".")[0]] if module else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("spongedims.") for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["tangent.py", "oracle.py"])
def test_checks_import_no_formula(module):
    imported = _imported_modules(ast.parse((SRC / module).read_text(encoding="utf-8")))
    assert {"model", "errors"} & imported, "nothing to scan"
    assert "dimensions" not in imported


def test_tangent_reads_only_the_refinement_of_the_kernels():
    # The branch-and-bound, its passes and its budget live in ``_kernels``;
    # ``tangent`` builds boxes and hands their floats to the loop alone.
    tree = ast.parse((SRC / "tangent.py").read_text(encoding="utf-8"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_kernels"
    }
    imports = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    from_kernels = [module for module in imports if module.endswith("_kernels")]
    assert read == {"_directed_distance"} and not from_kernels


def test_kernels_import_no_package_module_but_errors():
    modules = {path.stem for path in SRC.glob("*.py")}
    imported = _imported_modules(ast.parse((SRC / "_kernels.py").read_text(encoding="utf-8")))
    assert imported & modules == {"errors"}


def _imports_numpy(tree):
    """Whether a module imports numpy: an import statement, or a call on the name ``"numpy"`` (a lazy import)."""
    calls = (node for node in ast.walk(tree) if isinstance(node, ast.Call))
    return any(module.split(".")[0] == "numpy" for module in _imported_modules(tree)) or any(
        isinstance(arg, ast.Constant) and arg.value == "numpy" for call in calls for arg in call.args
    )


def test_only_the_kernels_import_numpy():
    # ``_kernels`` binds numpy lazily; ``tangent`` takes that module from ``sys.modules``.  An
    # import anywhere else would load numpy in the formula subcommands too.
    trees = _trees(sorted(SRC.glob("*.py")))
    assert len(trees) > 5, "nothing to scan"
    assert {name for name, tree in trees.items() if _imports_numpy(tree)} == {"_kernels.py"}
