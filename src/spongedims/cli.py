"""Command-line front end: load a spec file, dispatch, write reports.

Each subcommand declares only the flags its handler reads, with its own
defaults; a flag it does not take, or a malformed or out-of-range value,
is a usage error that argparse reports with exit code 2 before any spec
is read.  After that, exit codes: 1 the input failed to parse, an
output path cannot be written (it is opened before any work), or the
subcommand applies to grid sponges only; 2 the spec failed validation;
3 a box, grid-resolution or evaluation budget was exceeded; 4 anything
that should not happen.  Identical inputs, seeds, and flags produce
byte-identical output; randomized subcommands echo their seed in a
header.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import struct
import sys
from fractions import Fraction
from pathlib import Path

from .dimensions import dimension_drop, dimensions, old_formula_spread
from .errors import BudgetExceededError, InvalidSpecError, SpongeDimsError
from .measure import ratio_bound_check
from .model import SpongeSpec, load_spec, validate
from .oracle import build_count_table, fit_exponent, write_count_csv
from .tangent import DEFAULT_BOX_BUDGET, convergence_sweep, prefractal


def fmt10(x: float) -> str:
    return f"{x:.10g}"


def float_json(x: float) -> dict:
    """Decimal string plus raw IEEE-754 bits, so values round-trip exactly."""
    return {"decimal": repr(float(x)), "bits": struct.pack(">d", float(x)).hex()}


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _report_doc(report) -> dict:
    doc = report.to_json()
    doc["assouad"] = float_json(report.assouad)
    doc["lower"] = float_json(report.lower)
    return doc


def _open_output(path: str | None):
    """The CSV file at ``path``, opened before any work so a bad path fails first."""
    return open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext()


def _cmd_validate(spec, args: argparse.Namespace) -> int:
    report = validate(spec)
    if args.fmt == "json":
        _emit_json(report.to_json())
    else:
        print("ok" if report.ok else "INVALID")
        for v in report.violations:
            print(f"violation: {v}")
        for w in report.warnings:
            print(f"warning: {w}")
    return 0 if report.ok else 2


def _cmd_dims(spec, args: argparse.Namespace) -> int:
    report = dimensions(spec)
    if args.fmt == "json":
        _emit_json(_report_doc(report))
    else:
        print(f"formula: {report.formula}")
        print(f"assouad: {fmt10(report.assouad)}")
        print(f"lower:   {fmt10(report.lower)}")
        for term in report.per_cluster_terms:
            print(
                f"cluster {term.cluster}: max {fmt10(term.max_term)} at {term.argmax_prefix}, "
                f"min {fmt10(term.min_term)} at {term.argmin_prefix}"
            )
    return 0


def _cmd_compare(spec, args: argparse.Namespace) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: compare applies to grid sponges only", file=sys.stderr)
        return 1
    drop = dimension_drop(spec)
    spread = old_formula_spread(spec, budget=10000) if args.permutations else None
    if args.fmt == "json":
        doc = drop.to_json()
        doc["drop"] = float_json(drop.drop)
        if spread is not None:
            doc["order_spread"] = spread
        _emit_json(doc)
    else:
        print(f"grouped formula:        {fmt10(drop.grouped.assouad)}")
        print(f"per-coordinate formula: {fmt10(drop.old.assouad)}")
        print(f"drop:                   {fmt10(drop.drop)}")
        print(f"equality_condition_holds: {drop.equality_condition_holds}")
        if drop.old.order_dependent:
            print("caveat: weak ordering present, per-coordinate value depends on coordinate order")
        if spread is not None:
            print(
                f"order spread over {spread['orders']} orders: "
                f"min {fmt10(spread['min'])}, max {fmt10(spread['max'])}, spread {fmt10(spread['spread'])}"
            )
    return 0


def _cmd_measure_check(spec, args: argparse.Namespace) -> int:
    with _open_output(args.output) as csv_fh:
        report = ratio_bound_check(spec, args.trials, args.seed, csv_fh)
    if args.fmt == "json":
        _emit_json(report.to_json())
    else:
        print(f"# seed={report.seed} trials={report.trials}")
        print(f"assouad: {fmt10(report.assouad)}  lower: {fmt10(report.lower)}")
        print(f"upper constant: {fmt10(report.upper_constant)}  lower constant: {fmt10(report.lower_constant)}")
        print(f"max normalized upper: {fmt10(report.max_normalized_upper)}")
        print(f"min normalized lower: {fmt10(report.min_normalized_lower)}")
        print(f"violations: {len(report.violations)}")
    return 0


def _cmd_tangent(spec, args: argparse.Namespace) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: tangent geometry applies to grid sponges only", file=sys.stderr)
        return 1
    sweep = convergence_sweep(spec, args.scales, budget=args.budget)
    if args.fmt == "json":
        _emit_json(sweep.to_json())
    else:
        print(f"# extra_depth={sweep.extra_depth}")
        for row in sweep.rows:
            print(
                f"R={row.scale}  depths={row.cluster_depths}  boxes={row.fragment_boxes}/{row.product_boxes}  "
                f"d_H={fmt10(row.distance)}  contained={row.contained}"
            )
        print(f"nonincreasing: {sweep.nonincreasing}")
    return 0


def _cmd_oracle(spec, args: argparse.Namespace) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: the counting oracle applies to grid sponges only", file=sys.stderr)
        return 1
    with _open_output(args.output) as csv_fh:
        table = build_count_table(spec, args.depths, anchor_depth=args.anchor)
        fit = fit_exponent(table)
        if csv_fh is not None:
            write_count_csv(table, csv_fh)
    if args.fmt == "json":
        doc = table.to_json()
        doc["fit"] = fit.to_json()
        doc["fit"]["assouad_estimate"] = float_json(fit.assouad_estimate)
        doc["fit"]["lower_estimate"] = float_json(fit.lower_estimate)
        _emit_json(doc)
    else:
        for (k, m), (mx, mn) in sorted(table.entries.items()):
            print(f"k={k} m={m} max={mx} min={mn}")
        print(f"assouad estimate: {fmt10(fit.assouad_estimate)}")
        print(f"lower estimate:   {fmt10(fit.lower_estimate)}")
        print("incremental slopes:", " ".join(fmt10(s) for s in fit.incremental_slopes_max))
    return 0


def _cmd_export_geometry(spec, args: argparse.Namespace) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: geometry export applies to grid sponges only", file=sys.stderr)
        return 1
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "voxel" if args.fmt == "voxel" else "txt"
    for m in args.depths:
        boxes = prefractal(spec, m, budget=args.budget)
        path = out_dir / f"prefractal_depth{m}.{ext}"
        with open(path, "w", encoding="utf-8") as fh:
            if args.fmt == "voxel":
                boxes.export_voxel(fh)
            else:
                boxes.export_text(fh)
        print(f"wrote {path} ({len(boxes)} boxes)")
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit code."""
    try:
        spec = load_spec(args.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load spec: {exc}", file=sys.stderr)
        return 1
    try:
        return args.handler(spec, args)
    except InvalidSpecError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except SpongeDimsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _parse_scales(text: str) -> tuple[Fraction, ...]:
    try:
        scales = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed scale list {text!r}: {exc}") from exc
    if not scales:
        raise argparse.ArgumentTypeError(f"empty scale list {text!r}")
    for r in scales:
        if not 0 < r <= 1:
            raise argparse.ArgumentTypeError(f"scale {r} outside (0, 1]")
    return scales


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value

    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _depth_list(distinct: int):
    """Comma-separated nonnegative depths, at least ``distinct`` of them different."""
    nonnegative = _int_at_least(0)

    def parse(text: str) -> tuple[int, ...]:
        depths = tuple(nonnegative(part) for part in text.split(",") if part.strip())
        count = len(set(depths))
        if count < distinct:
            raise argparse.ArgumentTypeError(f"{text!r} lists {count} distinct depths, at least {distinct} needed")
        return depths

    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spongedims",
        description="Assouad and lower dimensions of self-affine sponges with grouped coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--input", required=True, help="spec JSON file")
        p.add_argument("--format", dest="fmt", default="text", choices=formats)
        return p

    command("validate", _cmd_validate, "check a spec file against its packing rules")
    command("dims", _cmd_dims, "evaluate the dimension formulas")
    p = command("compare", _cmd_compare, "grouped vs per-coordinate formula, drop, equality condition")
    p.add_argument(
        "--permutations",
        action="store_true",
        help="also evaluate the per-coordinate formula over all within-cluster coordinate orders",
    )
    p = command("measure-check", _cmd_measure_check, "randomized two-scale mass-ratio bounds")
    p.add_argument("--output", help="CSV file, one row per trial")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--trials", type=_int_at_least(1), default=10000, help="randomized trial count")
    p = command("tangent", _cmd_tangent, "containment checks and tangent convergence sweep")
    p.add_argument(
        "--scales",
        type=_parse_scales,
        default=(Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561)),
        help="comma-separated scales (default 1/81,1/729,1/6561)",
    )
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BOX_BUDGET, help="box budget")
    p = command("oracle", _cmd_oracle, "brute-force sub-cube counts and exponent fit")
    p.add_argument(
        "--depths", type=_depth_list(3), default=tuple(range(4, 11)), help="comma-separated refinements (default 4..10)"
    )
    p.add_argument(
        "--anchor", type=_int_at_least(0), default=None, help="oracle anchor depth (default 3x max refinement)"
    )
    p.add_argument("--output", help="CSV file of the count table")
    p = command("export-geometry", _cmd_export_geometry, "write pre-fractal box sets", formats=("text", "voxel"))
    p.add_argument("--depths", type=_depth_list(1), default=(1,), help="comma-separated depths (default 1)")
    p.add_argument("--output", default=".", help="output directory (default .)")
    p.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_BOX_BUDGET, help="box budget")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 4
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
