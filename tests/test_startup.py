"""Start-up: only box sets and distances load numpy.

``_kernels`` binds numpy lazily, so a process that runs only the formula
subcommands (``validate``, ``dims``, ``compare``, ``measure-check``,
``oracle``), or a ``tangent`` run refused from exact box counts, never
imports it.  Each check runs in a fresh interpreter, since this one has
numpy loaded already; ``numpy.*`` submodules show that numpy's import ran.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spongedims
from spongedims import _kernels

SRC = Path(spongedims.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent
FORMULA_COMMANDS = ("validate", "dims", "compare", "measure-check", "oracle")


def _fresh(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports ``spongedims`` from this checkout and the test helpers."""
    path = os.pathsep.join(filter(None, [str(SRC), str(TESTS), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=TESTS,
    )


def _last_json(proc: subprocess.CompletedProcess):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_formula_subcommands_run_without_numpy_and_geometry_loads_it():
    proc = _fresh(
        f"""
        import json, sys, tempfile
        from pathlib import Path
        from test_golden import CASES, GOLDEN, run_case

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("numpy."))

        def mismatches(names):
            bad = []
            for name in names:
                with tempfile.TemporaryDirectory() as work:
                    got = run_case(name, Path(work))
                want = (GOLDEN / f"{{name}}.stdout").read_bytes()
                case_dir = GOLDEN / name
                files = {{p.name: p.read_bytes() for p in case_dir.iterdir()}} if case_dir.is_dir() else {{}}
                if (got["stdout"], got["files"]) != (want, files):
                    bad.append(name)
            return bad

        formula = sorted(name for name, (_, args) in CASES.items() if args[0] in {FORMULA_COMMANDS!r})
        geometry = sorted(n for n in CASES if n.startswith(("tangent-", "export-")) and "prefix3" not in n)
        bad = mismatches(formula)
        before = loaded()
        bad += mismatches(geometry)
        print(json.dumps([len(formula), len(geometry), bad, before, len(loaded())]))
        """
    )
    formula, geometry, bad, before, after = _last_json(proc)
    assert (formula, geometry) == (52, 14), "the golden cases changed"
    assert bad == []
    assert before == [], "a formula subcommand loaded numpy"
    assert after > 0, "no geometry case loaded numpy"


def test_tangent_refused_from_box_counts_loads_no_numpy():
    # gen seed 47 at the default scales: the depth-1 product at 1/6561 is over the box budget
    proc = _fresh(
        """
        import contextlib, io, json, random, sys, tempfile
        from pathlib import Path
        from gen import random_bm_spec
        from spongedims.cli import main

        spec = random_bm_spec(random.Random(47), max_dim=4, min_dim=2)
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "seed47.json"
            path.write_text(json.dumps({"type": "bedford-mcmullen", "bases": list(spec.bases),
                                        "digits": [list(d) for d in spec.digits]}))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["tangent", "--input", str(path)])
        loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
        print(json.dumps([code, out.getvalue(), err.getvalue(), loaded]))
        """
    )
    code, out, err, loaded = _last_json(proc)
    assert (code, out) == (3, "")
    assert "tangent_product: needs 11529602 boxes" in err
    assert loaded == []


def test_numpy_imported_first_is_bound_as_it_is():
    proc = _fresh(
        """
        import json, types
        import numpy
        import spongedims
        print(json.dumps([spongedims.tangent.np is numpy, type(numpy) is types.ModuleType]))
        """
    )
    assert _last_json(proc) == [True, True]


def test_numpy_blocked_in_sys_modules_fails_at_import():
    proc = _fresh(
        """
        import json, sys
        sys.modules["numpy"] = None
        try:
            import spongedims
        except ModuleNotFoundError as exc:
            print(json.dumps([exc.name, str(exc)]))
        """
    )
    name, message = _last_json(proc)
    assert name == "numpy" and "numpy" in message


def test_lazy_import_of_a_missing_module_raises_and_registers_nothing():
    with pytest.raises(ModuleNotFoundError, match="spongedims_no_such_module") as exc:
        _kernels._lazy_import("spongedims_no_such_module")
    assert exc.value.name == "spongedims_no_such_module"
    assert "spongedims_no_such_module" not in sys.modules
