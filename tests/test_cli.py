import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import spongedims
from spongedims.cli import build_parser, float_json, main


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


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["dims", "--input", str(path)]) == 1


def test_budget_exit_code(capsys, fig1_file, tmp_path):
    code = main(
        ["export-geometry", "--input", fig1_file, "--output", str(tmp_path), "--depths", "5", "--budget", "10"]
    )
    assert code == 3


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
        ["oracle", "--anchor", "-1"],
        ["oracle", "--depths", "4,5"],
        ["oracle", "--depths", "4,4,5"],
        ["tangent", "--budget", "-5"],
        ["export-geometry", "--budget", "0"],
        ["tangent", "--scales", ","],
        ["export-geometry", "--depths", ","],
        ["oracle", "--depths", ","],
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, fig1_file, args):
    with pytest.raises(SystemExit) as exc:
        main([args[0], "--input", fig1_file, *args[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error" not in captured.err


def test_argument_range_boundaries_are_accepted(fig1_file):
    args = build_parser().parse_args(["tangent", "--input", fig1_file, "--scales", "1,1/81", "--budget", "1"])
    assert args.scales == (Fraction(1), Fraction(1, 81))
    assert args.budget == 1
    args = build_parser().parse_args(["export-geometry", "--input", fig1_file, "--depths", "0,3"])
    assert args.depths == (0, 3)


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
