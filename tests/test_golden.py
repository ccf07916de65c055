"""Golden-output gate: CLI stdout, exit codes and written files, byte for byte.

Every case runs ``spongedims.cli.main`` in-process on one of five pinned
specs and compares the exact stdout bytes, the exit code and, for
``export-geometry``, every written file against ``tests/golden/``.  The
expected files were produced once by the code before the "derive once"
refactor and are never regenerated: a refactor that changes any byte of
output fails here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from spongedims.cli import main

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "fig1": {
        "type": "bedford-mcmullen",
        "bases": [2, 3, 3],
        "digits": [[0, 0, 0], [0, 1, 1], [0, 2, 2], [1, 0, 1]],
    },
    "modified": {
        "type": "bedford-mcmullen",
        "bases": [2, 3, 3],
        "digits": [[0, 0, 0], [0, 1, 1], [0, 2, 1], [0, 2, 2], [1, 0, 1]],
    },
    "lg-modified": {
        "type": "lalley-gatzouras",
        "dims": 3,
        "nodes": [
            {"prefix": [0], "c": "1/2", "t": "0"},
            {"prefix": [0, 0], "c": "1/3", "t": "0"},
            {"prefix": [0, 0, 0], "c": "1/3", "t": "0"},
            {"prefix": [0, 1], "c": "1/3", "t": "1/3"},
            {"prefix": [0, 1, 1], "c": "1/3", "t": "1/3"},
            {"prefix": [0, 2], "c": "1/3", "t": "2/3"},
            {"prefix": [0, 2, 1], "c": "1/3", "t": "1/3"},
            {"prefix": [0, 2, 2], "c": "1/3", "t": "2/3"},
            {"prefix": [1], "c": "1/2", "t": "1/2"},
            {"prefix": [1, 0], "c": "1/3", "t": "0"},
            {"prefix": [1, 0, 1], "c": "1/3", "t": "1/3"},
        ],
    },
    "prefix3": {
        "type": "lalley-gatzouras",
        "dims": 3,
        "nodes": [
            {"prefix": [0], "c": "1/3", "t": "0"},
            {"prefix": [1], "c": "1/2", "t": "1/2"},
            {"prefix": [0, 0], "c": "1/4", "t": "0"},
            {"prefix": [0, 1], "c": "1/4", "t": "1/2"},
            {"prefix": [1, 0], "c": "1/3", "t": "0"},
            {"prefix": [0, 0, 0], "c": "1/4", "t": "0"},
            {"prefix": [0, 1, 1], "c": "1/4", "t": "1/4"},
            {"prefix": [1, 0, 0], "c": "1/3", "t": "0"},
        ],
    },
    "grid4": {
        "type": "bedford-mcmullen",
        "bases": [2, 3, 3, 4],
        "digits": [[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 2, 3], [1, 0, 1, 2]],
    },
}
GRID = ("fig1", "modified", "grid4")


def _cases() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (spec name, CLI arguments after ``--input``)."""
    cases: dict[str, tuple[str, list[str]]] = {}
    for fmt in ("text", "json"):
        for spec in SPECS:
            cases[f"validate-{spec}-{fmt}"] = (spec, ["validate", "--format", fmt])
            cases[f"dims-{spec}-{fmt}"] = (spec, ["dims", "--format", fmt])
            cases[f"measure-{spec}-{fmt}"] = (
                spec, ["measure-check", "--trials", "200", "--seed", "7", "--format", fmt]
            )
        for spec in GRID:
            cases[f"compare-{spec}-{fmt}"] = (spec, ["compare", "--permutations", "--format", fmt])
            cases[f"oracle-{spec}-{fmt}"] = (spec, ["oracle", "--depths", "4,5,6", "--format", fmt])
        for spec in ("fig1", "grid4"):
            cases[f"tangent-{spec}-{fmt}"] = (spec, ["tangent", "--scales", "1/81,1/729", "--format", fmt])
    for spec in GRID:
        for fmt in ("voxel", "text"):
            cases[f"export-{spec}-{fmt}"] = (
                spec, ["export-geometry", "--depths", "1,2,3", "--format", fmt, "--output", "out"]
            )
    cases["tangent-prefix3-text"] = ("prefix3", ["tangent", "--scales", "1/81"])
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> dict:
    """Run one case inside ``workdir``; return stdout bytes, exit code and written files."""
    spec, args = CASES[name]
    spec_path = workdir / f"{spec}.json"
    spec_path.write_text(json.dumps(SPECS[spec]), encoding="utf-8")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main([args[0], "--input", spec_path.name, *args[1:]])
    finally:
        os.chdir(cwd)
    out_dir = workdir / "out"
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return {"stdout": out.getvalue().encode("utf-8"), "exit": code, "files": files}


@pytest.fixture(scope="module")
def expected_exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def test_golden_covers_every_case(expected_exit_codes):
    assert sorted(expected_exit_codes) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, expected_exit_codes):
    got = run_case(name, tmp_path)
    assert got["exit"] == expected_exit_codes[name]
    assert got["stdout"] == (GOLDEN / f"{name}.stdout").read_bytes()
    case_dir = GOLDEN / name
    want_files = {p.name: p.read_bytes() for p in sorted(case_dir.iterdir())} if case_dir.is_dir() else {}
    assert got["files"] == want_files


def test_grid_only_command_on_prefix_spec_prints_nothing(expected_exit_codes):
    assert expected_exit_codes["tangent-prefix3-text"] == 1
    assert (GOLDEN / "tangent-prefix3-text.stdout").read_bytes() == b""
