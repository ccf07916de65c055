"""Command-line front end: load a spec file, dispatch, write reports.

Exit codes: 1 the input failed to parse, 2 the spec failed validation,
3 a box, grid-resolution or evaluation budget was exceeded, 4 anything
that should not happen.  Identical inputs, seeds, and flags produce
byte-identical output; randomized subcommands echo their seed in a header.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .dimensions import (
    dimension_drop,
    dimensions,
    lg_moran_exponents,
    old_formula_spread,
)
from .errors import BudgetExceededError, InvalidSpecError, SpongeDimsError
from .measure import lg_weights, pcu_weights, ratio_bound_check
from .model import SpongeSpec, load_spec, validate
from .oracle import build_count_table, fit_exponent, write_count_csv
from .tangent import DEFAULT_BOX_BUDGET, convergence_sweep, prefractal


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str
    output: str | None = None
    seed: int = 0
    trials: int = 10000
    depths: tuple[int, ...] = ()
    scales: tuple[Fraction, ...] = ()
    budget: int = DEFAULT_BOX_BUDGET
    fmt: str = "text"
    permutations: bool = False
    anchor: int | None = None


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


def _cmd_validate(spec, config: RunConfig) -> int:
    report = validate(spec)
    if config.fmt == "json":
        _emit_json(report.to_json())
    else:
        print("ok" if report.ok else "INVALID")
        for v in report.violations:
            print(f"violation: {v}")
        for w in report.warnings:
            print(f"warning: {w}")
    return 0 if report.ok else 2


def _cmd_dims(spec, config: RunConfig) -> int:
    report = dimensions(spec)
    if config.fmt == "json":
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


def _cmd_compare(spec, config: RunConfig) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: compare applies to grid sponges only", file=sys.stderr)
        return 1
    drop = dimension_drop(spec)
    spread = old_formula_spread(spec, budget=10000) if config.permutations else None
    if config.fmt == "json":
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


def _cmd_measure_check(spec, config: RunConfig) -> int:
    if isinstance(spec, SpongeSpec):
        weights = pcu_weights(spec)
    else:
        weights = lg_weights(spec, lg_moran_exponents(spec))
    csv_fh = open(config.output, "w", encoding="utf-8", newline="") if config.output else None
    try:
        report = ratio_bound_check(spec, weights, config.trials, config.seed, csv_fh)
    finally:
        if csv_fh is not None:
            csv_fh.close()
    if config.fmt == "json":
        _emit_json(report.to_json())
    else:
        print(f"# seed={report.seed} trials={report.trials}")
        print(f"assouad: {fmt10(report.assouad)}  lower: {fmt10(report.lower)}")
        print(f"upper constant: {fmt10(report.upper_constant)}  lower constant: {fmt10(report.lower_constant)}")
        print(f"max normalized upper: {fmt10(report.max_normalized_upper)}")
        print(f"min normalized lower: {fmt10(report.min_normalized_lower)}")
        print(f"violations: {len(report.violations)}")
    return 0


def _cmd_tangent(spec, config: RunConfig) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: tangent geometry applies to grid sponges only", file=sys.stderr)
        return 1
    scales = config.scales or (Fraction(1, 81), Fraction(1, 729), Fraction(1, 6561))
    sweep = convergence_sweep(spec, scales, budget=config.budget)
    if config.fmt == "json":
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


def _cmd_oracle(spec, config: RunConfig) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: the counting oracle applies to grid sponges only", file=sys.stderr)
        return 1
    refinements = config.depths or tuple(range(4, 11))
    table = build_count_table(spec, refinements, anchor_depth=config.anchor)
    fit = fit_exponent(table)
    if config.output:
        with open(config.output, "w", encoding="utf-8", newline="") as fh:
            write_count_csv(table, fh)
    if config.fmt == "json":
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


def _cmd_export_geometry(spec, config: RunConfig) -> int:
    if not isinstance(spec, SpongeSpec):
        print("error: geometry export applies to grid sponges only", file=sys.stderr)
        return 1
    depths = config.depths or (1,)
    out_dir = Path(config.output or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "voxel" if config.fmt == "voxel" else "txt"
    for m in depths:
        boxes = prefractal(spec, m, budget=config.budget)
        path = out_dir / f"prefractal_depth{m}.{ext}"
        with open(path, "w", encoding="utf-8") as fh:
            if config.fmt == "voxel":
                boxes.export_voxel(fh)
            else:
                boxes.export_text(fh)
        print(f"wrote {path} ({len(boxes)} boxes)")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "dims": _cmd_dims,
    "compare": _cmd_compare,
    "measure-check": _cmd_measure_check,
    "tangent": _cmd_tangent,
    "oracle": _cmd_oracle,
    "export-geometry": _cmd_export_geometry,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        spec = load_spec(config.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load spec: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[config.command](spec, config)
    except InvalidSpecError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SpongeDimsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def _parse_scales(text: str) -> tuple[Fraction, ...]:
    try:
        scales = tuple(Fraction(part.strip()) for part in text.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"malformed scale list {text!r}: {exc}") from exc
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


def _parse_depths(text: str) -> tuple[int, ...]:
    nonnegative = _int_at_least(0)
    return tuple(nonnegative(part) for part in text.split(",") if part.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spongedims",
        description="Assouad and lower dimensions of self-affine sponges with grouped coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("validate", "check a spec file against its packing rules"),
        ("dims", "evaluate the dimension formulas"),
        ("compare", "grouped vs per-coordinate formula, drop, equality condition"),
        ("measure-check", "randomized two-scale mass-ratio bounds"),
        ("tangent", "containment checks and tangent convergence sweep"),
        ("oracle", "brute-force sub-cube counts and exponent fit"),
        ("export-geometry", "write pre-fractal box sets"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, help="spec JSON file")
        p.add_argument("--output", help="output file (CSV) or directory (geometry)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--trials", type=_int_at_least(1), default=10000, help="randomized trial count")
        p.add_argument("--depths", type=_parse_depths, default=(), help="comma-separated depth list")
        p.add_argument("--scales", type=_parse_scales, default=(), help="comma-separated scales, e.g. 1/81,1/729")
        p.add_argument("--budget", type=int, default=DEFAULT_BOX_BUDGET, help="box budget")
        formats = ["text", "voxel"] if name == "export-geometry" else ["text", "json"]
        p.add_argument("--format", dest="fmt", default="text", choices=formats)
        p.add_argument(
            "--anchor", type=_int_at_least(0), default=None, help="oracle anchor depth (default 3x max refinement)"
        )
        if name == "compare":
            p.add_argument(
                "--permutations",
                action="store_true",
                help="also evaluate the per-coordinate formula over all within-cluster coordinate orders",
            )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        input=args.input,
        output=args.output,
        seed=args.seed,
        trials=args.trials,
        depths=tuple(args.depths),
        scales=tuple(args.scales),
        budget=args.budget,
        fmt=args.fmt,
        permutations=getattr(args, "permutations", False),
        anchor=args.anchor,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 4
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
