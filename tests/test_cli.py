import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spongedims
from spongedims import LGSpongeSpec, spec_from_json
from spongedims.model import validate
from spongedims.cli import build_parser, float_json, json_data, main
from test_golden import SPECS


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_text(capsys, fig1_file):
    code, out = _run(capsys, "dims", "--input", fig1_file)
    assert code == 0
    assert "assouad: 2" in out


def test_dims_json_carries_bits(capsys, fig1_file):
    code, out = _run(capsys, "dims", "--input", fig1_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["assouad"]["decimal"] == "2.0"
    assert doc["assouad"]["bits"] == "4000000000000000"
    assert doc["lower"]["decimal"] == "1.0"


def test_dims_reproducible(capsys, modified_file):
    _, first = _run(capsys, "dims", "--input", modified_file, "--format", "json")
    _, second = _run(capsys, "dims", "--input", modified_file, "--format", "json")
    assert first == second


def test_compare_modified(capsys, modified_file):
    code, out = _run(capsys, "compare", "--input", modified_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["equality_condition_holds"] is False
    drop = float(doc["drop"]["decimal"])
    assert abs(drop - (1 - math.log(2) / math.log(3))) <= 1e-9


def test_compare_permutations(capsys, modified_file):
    code, out = _run(capsys, "compare", "--input", modified_file, "--permutations")
    assert code == 0
    assert "order spread" in out


def test_validate_reports_violations(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "bedford-mcmullen", "bases": [2, 3, 3], "digits": [[0, 0, 0]]}))
    code, out = _run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert "violation" in out


def test_validate_text_prints_warnings(capsys, tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"type": "bedford-mcmullen", "bases": [2, 3], "digits": [[0, 0], [1, 0]]}))
    code, out = _run(capsys, "validate", "--input", str(path))
    assert (code, out) == (0, "ok\nwarning: coordinate 1 takes a single digit value; the sponge lies in a hyperplane\n")


def _lg_doc(dims, *nodes):
    return {"type": "lalley-gatzouras", "dims": dims, "nodes": [{"prefix": p, "c": c, "t": t} for p, c, t in nodes]}


_HALVES = (([0], "1/2", "0"), ([1], "1/2", "1/2"))


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "bedford-mcmullen", "bases": [], "digits": []}, "no coordinates: need at least one base"),
        (
            {"type": "bedford-mcmullen", "bases": [2, 2], "digits": [[0, 0], [1]]},
            "digit tuple (1,) has length 1, expected 2",
        ),
        (_lg_doc(0), "dims must be at least 1"),
        (
            LGSpongeSpec(1, {(0,): Fraction(1, 2)}, {}),
            "contraction and translation maps must share the same prefixes",
        ),
        (_lg_doc(1, *_HALVES, ([0, 0], "1/4", "0")), "prefix (0, 0) has invalid length 2"),
        (_lg_doc(2, *_HALVES, ([0, 0], "1/4", "0")), "orphan prefix (1,): extends no full-length digit"),
        (_lg_doc(1, ([0], "0", "0"), ([1], "1/2", "1/2")), "contraction 0 at prefix (0,) outside (0, 1)"),
        (_lg_doc(1, ([0], "1/4", "0"), ([1], "1/4", "1")), "translation 1 at prefix (1,) outside [0, 1)"),
        (_lg_doc(1, ([0], "1/4", "1/2"), ([1], "1/4", "1/4")), "translations not increasing: (0,) -> (1,)"),
        (_lg_doc(1, ([0], "1/4", "0"), ([1], "1/2", "3/4")), "prefix (1,) maps outside the unit interval"),
    ],
    ids=[
        "no-coordinates", "digit-length", "dims", "key-sets", "prefix-length", "orphan", "contraction",
        "translation", "translation-order", "last-sibling",
    ],
)
def test_each_validation_rule_names_its_violation(capsys, tmp_path, spec, message):
    if isinstance(spec, dict):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        spec = spec_from_json(spec)
        code = main(["dims", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: invalid spec: {'; '.join(validate(spec).violations)}\n"
        assert message in captured.err
    # a spec file gives both maps the same prefixes, so only the library reaches the key-set rule
    assert message in validate(spec).violations


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["dims", "--input", str(path)]) == 1


def test_budget_exit_code(capsys, fig1_file, tmp_path):
    code = main(
        ["export-geometry", "--input", fig1_file, "--output", str(tmp_path), "--depths", "5", "--budget", "10"]
    )
    assert code == 3


@pytest.mark.parametrize(
    "argv, stage",
    [
        (["export-geometry", "--depths", "8000"], "grid resolution"),
        (["export-geometry", "--depths", "100000000"], "grid resolution"),
        (["tangent", "--scales", "1e-30000"], "grid resolution"),
        (["oracle", "--depths", "4,5,9000"], "subcube_counts"),
        (["compare", "--permutations"], "old_formula_spread"),
    ],
    ids=["export-8000", "export-1e8", "tangent-1e-30000", "oracle-9000", "compare-1800-coordinates"],
)
def test_absurd_sizes_are_refused_quickly(capsys, fig1_file, tmp_path, argv, stage):
    # Each size is too large to print (Python's int-to-str limit is 4,300
    # digits), so the refusal must name it without computing it in full.
    path = fig1_file
    if argv[0] == "compare":  # 1,800 base-2 coordinates, one cluster: 1800! orders
        path = tmp_path / "wide.json"
        wide = {"type": "bedford-mcmullen", "bases": [2] * 1800, "digits": [[0] * 1800, [1] * 1800]}
        path.write_text(json.dumps(wide))
    extra = ["--output", str(tmp_path)] if argv[0] == "export-geometry" else []
    start = time.perf_counter()
    code = main([argv[0], "--input", str(path), *argv[1:], *extra])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(f"error: budget exceeded: {stage}:")
    assert elapsed < 5


@pytest.mark.parametrize("base", [2**63, 10**160], ids=["2^63", "10^160"])
@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("voxel", "voxel")])
def test_export_geometry_keeps_bases_past_int64_exact(capsys, tmp_path, base, fmt, ext):
    # depth 0 writes the one box on the exact grid; depth 1 is refused like any over-fine grid
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"type": "bedford-mcmullen", "bases": [2, base], "digits": [[0, 0], [1, 1]]}))
    out = tmp_path / "out"
    argv = ["export-geometry", "--input", str(path), "--output", str(out), "--format", fmt, "--depths"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "0"]) == 0
        assert capsys.readouterr().err == ""
        written = "0.0 1.0 0.0 1.0\n" if fmt == "text" else f"voxel bases=2,{base} depths=0,0\n0 0\n"
        assert (out / f"prefractal_depth0.{ext}").read_text() == written
        code = main([*argv, "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(f"error: budget exceeded: grid resolution: prefractal axis 1 needs {base}**1 = ")
    assert not (out / f"prefractal_depth1.{ext}").exists()


@pytest.mark.parametrize("base, digit", [(10**160, 10**100), (2**64, 2**63)], ids=["10^160", "2^64"])
def test_tangent_refuses_the_grid_of_a_column_past_int64(capsys, tmp_path, base, digit):
    # the fattest column above (1,) holds a digit past int64; it stays a Python int, so the sweep refuses the grid
    path = tmp_path / "wide.json"
    doc = {"type": "bedford-mcmullen", "bases": [2, base], "digits": [[0, 0], [1, 0], [1, digit]]}
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["tangent", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        f"error: budget exceeded: grid resolution: zoomed_fragment axis 1 needs {base}**7 = {base**7} cells, "
        "limit is 2**53 = 9007199254740992\n"
    )


def _wide_constant_spec(family, exponent):
    """A valid spec whose measure-check upper constant is 10**(2 * exponent)."""
    if family == "grid":
        return {"type": "bedford-mcmullen", "bases": [2, 10**exponent], "digits": [[0, 0], [1, 1]]}
    nodes = [{"prefix": [i], "c": "1/2", "t": f"{i}/2"} for i in (0, 1)]
    nodes += [{"prefix": [i, j], "c": f"1e-{exponent}", "t": f"{j}/2"} for i in (0, 1) for j in (0, 1)]
    return {"type": "lalley-gatzouras", "dims": 2, "nodes": nodes}


@pytest.mark.parametrize(
    "family, constant",
    [("grid", f"{10**160}**2"), ("prefix", f"(1/{10**200})**-2")],
    ids=["grid", "prefix"],
)
def test_measure_check_refuses_an_upper_constant_past_float64(capsys, tmp_path, family, constant):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_constant_spec(family, 160 if family == "grid" else 200)))
    code = main(["measure-check", "--input", str(path), "--trials", "200"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        f"error: budget exceeded: measure-check upper constant: {constant} exceeds the float64 limit "
        "1.7976931348623157e+308\n"
    )


def _moran_float64_spec(case):
    """A valid prefix spec with a ratio that float64 rounds to 1.0 (a) or 0.0 (b, c)."""
    big, tiny = 10**20, f"1/{10**400}"
    nodes = {
        "a": [([0], f"{big - 1}/{big}", "0"), ([1], f"1/{big}", f"{big - 1}/{big}")],
        "b": [([0], "1/2", "0"), ([1], tiny, "1/2")],
        "c": [([0], "1/2", "0"), ([1], "1/2", "1/2"), ([0, 0], tiny, "0"), ([1, 0], "1/4", "0")],
    }[case]
    return {
        "type": "lalley-gatzouras",
        "dims": len(nodes[-1][0]),
        "nodes": [{"prefix": p, "c": c, "t": t} for p, c, t in nodes],
    }


@pytest.mark.parametrize(
    "case, command, code",
    [("a", "dims", 3), ("a", "measure-check", 3), ("b", "dims", 3), ("b", "measure-check", 3), ("c", "dims", 0)],
    ids=["a-dims", "a-measure-check", "b-dims", "b-measure-check", "c-dims"],
)
def test_moran_ratios_past_float64(capsys, tmp_path, case, command, code):
    # Each spec is valid.  A single child solves to 0 exactly, however small
    # its ratio, so (c)'s prefix (0,) has exponent 0 and its root system
    # s = 1; beside a sibling, a ratio float64 cannot hold is refused.
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(_moran_float64_spec(case)))
    assert main(["validate", "--input", str(path)]) == 0
    capsys.readouterr()
    assert main([command, "--input", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        ratio = {"a": f"{10**20 - 1}/{10**20} rounds to 1.0", "b": f"1/{10**400} rounds to 0.0"}[case]
        assert captured.out == ""
        assert captured.err == (
            f"error: budget exceeded: prefix () (depth 1): moran_solve: ratio {ratio}; "
            "float64 limit (2**-1075, 1 - 2**-54)\n"
        )
    else:
        assert captured.out == (
            "formula: moran_grouped\nassouad: 1\nlower:   1\n"
            "cluster 1: max 1 at (), min 1 at ()\ncluster 2: max 0 at (0,), min 0 at (0,)\n"
        )


@pytest.mark.parametrize(
    "family, stats",
    [
        ("grid", ("1  lower: 1", "1.921000658", "0.5261064147")),
        ("prefix", ("1.002006867  lower: 1.002006867", "1.874758274", "0.6033364834")),
    ],
)
def test_measure_check_keeps_an_upper_constant_of_1e300(capsys, tmp_path, family, stats):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(_wide_constant_spec(family, 150)))
    code, out = _run(capsys, "measure-check", "--input", str(path), "--trials", "200", "--seed", "7")
    assert code == 0
    assert out == (
        f"# seed=7 trials=200\nassouad: {stats[0]}\nupper constant: 1e+300  lower constant: 1e-300\n"
        f"max normalized upper: {stats[1]}\nmin normalized lower: {stats[2]}\nviolations: 0\n"
    )


def test_measure_check_writes_csv(capsys, fig1_file, tmp_path):
    out_csv = tmp_path / "ratios.csv"
    code, out = _run(
        capsys, "measure-check", "--input", fig1_file, "--trials", "20", "--seed", "7", "--output", str(out_csv)
    )
    assert code == 0
    assert "# seed=7 trials=20" in out
    assert "violations: 0" in out
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 21


def test_measure_check_lg(capsys, tmp_path, fig1):
    from spongedims import encode_uniform_grid

    path = tmp_path / "lg.json"
    path.write_text(json.dumps(encode_uniform_grid(fig1).to_json()))
    code, out = _run(capsys, "measure-check", "--input", str(path), "--trials", "10")
    assert code == 0
    assert "violations: 0" in out


def test_dims_on_lg_spec(capsys, tmp_path, fig1):
    from spongedims import encode_uniform_grid

    path = tmp_path / "lg.json"
    path.write_text(json.dumps(encode_uniform_grid(fig1).to_json()))
    code, out = _run(capsys, "dims", "--input", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == "moran_grouped"
    assert abs(float(doc["assouad"]["decimal"]) - 2.0) <= 1e-9


def test_tangent_command(capsys, fig1_file):
    code, out = _run(capsys, "tangent", "--input", fig1_file, "--scales", "1/81,1/729")
    assert code == 0
    assert "nonincreasing: True" in out
    assert "contained=True" in out


def test_tangent_budget_picks_the_extra_depth(capsys, fig1_file):
    # 200 boxes hold depth 1 (36/54) but not depth 2 (144/324); 10 hold neither
    code, out = _run(capsys, "tangent", "--input", fig1_file, "--scales", "1/81", "--budget", "200")
    assert code == 0
    assert out == (
        "# extra_depth=1\n"
        "R=1/81  depths=(6, 4)  boxes=36/54  d_H=0.0828173325  contained=True\n"
        "nonincreasing: True\n"
    )
    code = main(["tangent", "--input", fig1_file, "--scales", "1/81", "--budget", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: budget exceeded: zoomed_fragment: needs 36 boxes, budget is 10\n"


def test_oracle_command(capsys, fig1_file, tmp_path):
    out_csv = tmp_path / "counts.csv"
    code, out = _run(capsys, "oracle", "--input", fig1_file, "--depths", "4,5,6", "--output", str(out_csv))
    assert code == 0
    assert "assouad estimate" in out
    assert out_csv.exists()


def test_export_geometry_formats(capsys, fig1_file, tmp_path):
    for fmt, ext in (("text", "txt"), ("voxel", "voxel")):
        argv = ["--output", str(tmp_path / fmt), "--depths", "1,2", "--format", fmt]
        code, _ = _run(capsys, "export-geometry", "--input", fig1_file, *argv)
        assert code == 0
        assert (tmp_path / fmt / f"prefractal_depth1.{ext}").exists()
        assert (tmp_path / fmt / f"prefractal_depth2.{ext}").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", "--permutations"),
        ("tangent", "--scales", "1/81"),
        ("oracle", "--depths", "4,5,6", "--output", "counts.csv"),
        ("export-geometry", "--depths", "1", "--output", "out"),
    ],
)
def test_grid_only_command_on_prefix_spec(capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "prefix3.json"
    path.write_text(json.dumps(SPECS["prefix3"]))
    monkeypatch.chdir(tmp_path)
    code = main([argv[0], "--input", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]} applies to grid sponges only\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prefix3.json"]


@pytest.mark.parametrize("field", ["c", "t"])
def test_zero_denominator_ratio_is_a_parse_error(capsys, tmp_path, field):
    doc = json.loads(json.dumps(SPECS["prefix3"]))
    doc["nodes"][0][field] = "1/0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    assert main(["dims", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot load spec: ratio '1/0' has a zero denominator")


@pytest.mark.parametrize("field", ["c", "t"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_ratio_is_a_parse_error(capsys, tmp_path, field, value):
    doc = json.loads(json.dumps(SPECS["prefix3"]))
    doc["nodes"][0][field] = value
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot load spec: ratio must be a decimal or p/q string, got {value!r}")


def test_json_data_renders_fields_by_name_and_rejects_other_values():
    term = spongedims.dimensions.ClusterTerm(2, np.float64(0.5), 0.25, (0, 1), (1, 0))
    assert json_data((term, Fraction(1, 81), {"n": None})) == [
        {"cluster": 2, "max_term": 0.5, "min_term": 0.25, "argmax_prefix": [0, 1], "argmin_prefix": [1, 0]},
        "1/81",
        {"n": None},
    ]
    for bad in (np.int64(3), {1, 2}, [1], (1, {2}), spongedims.dimensions.ClusterTerm):
        with pytest.raises(TypeError, match="is not JSON data"):
            json_data(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ("export-geometry", "--output", "afile"),
        ("measure-check", "--trials", "5", "--output", "nodir/x.csv"),
        ("oracle", "--depths", "1,2,3", "--output", "nodir/x.csv"),
    ],
)
def test_unwritable_output_exits_1(capsys, fig1_file, tmp_path, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("counted before opening --output")

    # the path is checked before any work: oracle must fail before it counts
    monkeypatch.setattr(spongedims.cli, "build_count_table", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory\n")
    code = main([argv[0], "--input", fig1_file, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output: [Errno ")


def test_parser_round_trip(fig1_file):
    args = build_parser().parse_args(
        ["oracle", "--input", fig1_file, "--depths", "4,5,6", "--format", "json"]
    )
    assert args.command == "oracle"
    assert args.depths == (4, 5, 6)
    assert args.fmt == "json"
    args = build_parser().parse_args(["measure-check", "--input", fig1_file, "--seed", "3"])
    assert args.seed == 3


def test_consecutive_calls_print_what_fresh_processes_print(capsys, fig1_file):
    """The parser is built once per process; no call's flags leak into the next."""
    src = str(Path(spongedims.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    calls = [
        ["measure-check", "--input", fig1_file, "--trials", "20", "--seed", "3"],
        ["measure-check", "--input", fig1_file, "--trials", "20"],
        ["tangent", "--input", fig1_file, "--scales", "1/9", "--budget", "1"],
        ["tangent", "--input", fig1_file, "--scales", "1/9"],
    ]
    for argv in calls:
        code, out = _run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "spongedims.cli", *argv], capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout)
    assert build_parser() is build_parser()


def test_float_json_round_trip():
    doc = float_json(2.2618595071429148)
    assert float(doc["decimal"]) == 2.2618595071429148
    assert len(doc["bits"]) == 16


def test_console_entry_point(fig1_file):
    # the child imports the same spongedims as this process, installed or not
    src = str(Path(spongedims.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "spongedims.cli", "dims", "--input", fig1_file, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["assouad"]["decimal"] == "2.0"


def test_non_integer_spec_number_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "float_base.json"
    path.write_text(json.dumps({"type": "bedford-mcmullen", "bases": [2.9, 3], "digits": [[0, 0], [1, 2]]}))
    assert main(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "JSON integer" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["tangent", "--scales", "2"],
        ["tangent", "--scales", "0"],
        ["tangent", "--scales", "1/81,-1/3"],
        ["tangent", "--scales", "abc"],
        ["export-geometry", "--depths", "-1"],
        ["oracle", "--depths", "4,-5"],
        ["tangent", "--scales", "1/0"],
        ["tangent", "--scales", "1/81,3/0"],
        ["measure-check", "--trials", "0"],
        ["measure-check", "--trials", "-5"],
        ["oracle", "--depths", "0"],
        ["oracle", "--depths", "0,0"],
        ["tangent", "--budget", "-5"],
        ["export-geometry", "--budget", "0"],
        ["tangent", "--scales", ","],
        ["export-geometry", "--depths", ","],
        ["oracle", "--depths", ","],
        ["measure-check", "--seed", "-1"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, fig1_file, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--input", fig1_file, *args[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" not in captured.err


@pytest.mark.parametrize(
    "args, message",
    [
        (["export-geometry", "--depths", ","], "',' lists no depths"),
        (["oracle", "--depths", " , "], "' , ' lists no depths"),
        (["oracle", "--depths", "0,0"], "'0,0' lists no depth of at least 1"),
    ],
)
def test_depth_list_errors_name_their_fault(capsys, fig1_file, args, message):
    with pytest.raises(SystemExit):
        main([args[0], "--input", fig1_file, *args[1:]])
    assert message in capsys.readouterr().err


def test_argument_range_boundaries_are_accepted(fig1_file):
    args = build_parser().parse_args(["tangent", "--input", fig1_file, "--scales", "1,1/81", "--budget", "1"])
    assert args.scales == (Fraction(1), Fraction(1, 81))
    assert args.budget == 1
    args = build_parser().parse_args(["export-geometry", "--input", fig1_file, "--depths", "0,3"])
    assert args.depths == (0, 3)
    args = build_parser().parse_args(["export-geometry", "--input", fig1_file, "--depths", "0"])
    assert args.depths == (0,)
    for depths in ("4,5", "4,4,5", "0,1", "1"):
        args = build_parser().parse_args(["oracle", "--input", fig1_file, "--depths", depths])
        assert args.depths == tuple(int(m) for m in depths.split(","))
    args = build_parser().parse_args(["measure-check", "--input", fig1_file, "--seed", "0"])
    assert args.seed == 0


_COMMANDS = ("validate", "dims", "compare", "measure-check", "tangent", "oracle", "export-geometry")


@pytest.mark.parametrize(
    "command, fmt",
    [(c, f) for c in _COMMANDS for f in (("json", "csv") if c == "export-geometry" else ("csv", "voxel"))],
)
def test_unsupported_format_is_a_usage_error(capsys, fig1_file, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", fig1_file, "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice" in captured.err


@pytest.mark.parametrize(
    "args",
    [
        ["tangent", "--output", "x"],
        ["dims", "--seed", "3"],
        ["validate", "--trials", "5"],
        ["compare", "--depths", "4"],
        ["measure-check", "--budget", "5"],
        ["oracle", "--seed", "3"],
        ["export-geometry", "--scales", "1/3"],
        ["oracle", "--anchor", "-1"],
    ],
)
def test_unread_flag_is_a_usage_error(capsys, fig1_file, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--input", fig1_file, *args[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_readme_usage_matches_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {
        line.split()[1]: set(re.findall(r"--[a-z-]+", line))
        for line in readme.splitlines()
        if line.startswith("spongedims ")
    }
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == declared
    sentence = " ".join(readme.split("Grid-only subcommands:", 1)[1].split(".", 1)[0].split())
    listed = set(re.findall(r"`([a-z-]+)`", sentence))
    assert listed == {name for name, p in subparsers.choices.items() if p.get_default("grid_only")}
