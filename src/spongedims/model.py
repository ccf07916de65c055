"""Sponge specifications and their combinatorial structure.

Two kinds of sponge are modelled.  A grid sponge is cut from the unit cube
by subdividing coordinate ``l`` into ``n_l`` equal parts and keeping a set
of digit tuples; all maps contract coordinate ``l`` by exactly ``1/n_l``.
A prefix sponge generalises this: every digit prefix ``(i_1, ..., i_l)``
carries its own contraction ratio and translation, subject to nesting and
packing constraints that keep the maps inside the unit cube without
overlap.

Coordinates sharing a contraction cannot be ordered strictly, so they are
grouped into clusters; most downstream quantities (column counts, Moran
exponents, approximate-cube depths) are indexed by cluster rather than by
coordinate.  Ratios are parsed into exact :class:`fractions.Fraction`
values; :func:`validate_lg` decides every packing rule on their exact
integer pairs, since the inequalities are half-open and must not flip
under rounding, and builds a ``Fraction`` only to word a violation.

A spec derives its structure once, the same way in both families:
``spec.clusters`` runs :func:`validate` on first access (raising
:class:`InvalidSpecError` on every access while it is invalid) and caches the
family's partition, stored as cluster sizes; ``spec.blocks`` caches the
:func:`block_table` of the grouped digits, and a prefix sponge's
``moran_exponents`` its Moran systems.  The block table is the only stored form
of the dimension bounds' measure: a block weighs 1/N(prefix) on a grid sponge,
and on a prefix sponge its ratio to the power of its prefix's Moran exponent.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence, Union

from .errors import InvalidSpecError

if TYPE_CHECKING:
    from .dimensions import MoranSolution

Digit = tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a spec: structured violations, never raised."""

    ok: bool
    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


class _Spec:
    """What both spec families derive the same way, each from its own ``_partition``."""

    @cached_property
    def digit_set(self) -> frozenset[Digit]:
        return frozenset(self.digits)

    @cached_property
    def clusters(self) -> ClusterStructure:
        """The family's cluster partition; validates first, raising while the spec is invalid."""
        report = validate(self)
        if not report.ok:
            raise InvalidSpecError("; ".join(report.violations))
        return self._partition()

    @cached_property
    def blocks(self) -> BlockTable:
        """The grouped digits' :func:`block_table`; validates first."""
        return block_table(self.digits, self.clusters.cluster_sizes)


@dataclass(frozen=True)
class SpongeSpec(_Spec):
    """Grid sponge: integer bases per coordinate plus a digit set.

    Construction canonicalises the coordinate order: coordinates are
    stably sorted by base (so bases end up nondecreasing) and digit
    tuples are permuted to match.  Assouad and lower dimensions are
    invariant under reordering the coordinates, so nothing is lost, and two
    inputs that differ only in coordinate order give equal specs;
    duplicates and out-of-range digits are kept as-is for
    :func:`validate_bm` to report, but a base or digit that is no
    integer (``operator.index`` refuses it) raises ``TypeError``.
    """

    bases: tuple[int, ...]
    digits: tuple[Digit, ...]

    def __post_init__(self) -> None:
        bases = tuple(map(operator.index, self.bases))
        order = sorted(range(len(bases)), key=lambda i: bases[i])
        digits = []
        for dig in self.digits:
            dig = tuple(map(operator.index, dig))
            if len(dig) == len(bases):
                dig = tuple(dig[i] for i in order)
            digits.append(dig)
        object.__setattr__(self, "bases", tuple(bases[i] for i in order))
        object.__setattr__(self, "digits", tuple(sorted(digits)))

    @property
    def ambient_dim(self) -> int:
        return len(self.bases)

    def _partition(self) -> ClusterStructure:
        """Runs of equal base, one cluster each."""
        runs = [(n, len(list(run))) for n, run in itertools.groupby(self.bases)]
        return ClusterStructure(tuple(size for _, size in runs), tuple(n for n, _ in runs))


@dataclass(frozen=True)
class LGSpongeSpec(_Spec):
    """Prefix sponge: per-prefix contraction ratios and translations.

    ``contraction[p]`` and ``translation[p]`` are defined for every digit
    prefix ``p`` of length 1..dims occurring in the digit set; the digit
    set itself is the collection of full-length prefixes.  Keying by
    prefix makes the prefix-consistency rule (equal prefixes get equal
    ratios) structural rather than checked.
    """

    dims: int
    contraction: Mapping[Digit, Fraction]
    translation: Mapping[Digit, Fraction]

    @cached_property
    def digits(self) -> tuple[Digit, ...]:
        return tuple(sorted(p for p in self.contraction if len(p) == self.dims))

    @cached_property
    def min_full_contraction(self) -> Fraction:
        """Smallest full-depth ratio; scales must stay at or below it.  Validates first."""
        self.clusters  # validates
        return min(self.contraction[p] for p in self.digits)

    @cached_property
    def moran_exponents(self) -> dict[Digit, MoranSolution]:
        """Moran exponent of every grouped prefix, solved once (``dimensions.lg_moran_exponents``)."""
        from .dimensions import lg_moran_exponents  # dimensions imports this module
        return lg_moran_exponents(self)

    def _partition(self) -> ClusterStructure:
        """Merge consecutive coordinates whose ratios agree for every prefix.

        Coordinates l and l+1 join one cluster only when
        ``contraction[q] == contraction[q[:l]]`` for all length-(l+1)
        prefixes q; a single strict drop anywhere keeps them apart.  Only
        consecutive coordinates are ever merged: the nested prefix
        structure gives non-adjacent coordinates no common ratio to compare.
        """
        cluster_of = [0]
        for l in range(1, self.dims):
            mergeable = all(
                self.contraction[q] == self.contraction[q[:l]]
                for q in self.contraction
                if len(q) == l + 1
            )
            cluster_of.append(cluster_of[-1] if mergeable else cluster_of[-1] + 1)
        return ClusterStructure(tuple(map(cluster_of.count, range(cluster_of[-1] + 1))), ())

    def to_json(self) -> dict:
        nodes = [
            {"prefix": list(p), "c": str(self.contraction[p]), "t": str(self.translation[p])}
            for p in sorted(self.contraction)
        ]
        return {"type": "lalley-gatzouras", "dims": self.dims, "nodes": nodes}


AnySpec = Union[SpongeSpec, LGSpongeSpec]


@dataclass(frozen=True)
class ClusterStructure:
    """Partition of coordinates into maximal consecutive equal-contraction runs.

    ``cluster_sizes[l]`` coordinates share cluster ``l`` (0-based);
    ``cluster_bases`` holds the common integer base per cluster for grid
    sponges and is empty for prefix sponges, where "equal contraction"
    is a property of the ratio map rather than of an integer grid.
    """

    cluster_sizes: tuple[int, ...]
    cluster_bases: tuple[int, ...]

    @property
    def cluster_of(self) -> tuple[int, ...]:
        """The 0-based cluster of each coordinate."""
        return tuple(l for l, size in enumerate(self.cluster_sizes) for _ in range(size))

    @property
    def d_star(self) -> int:
        return len(self.cluster_sizes)

    def prefix_len(self, level: int) -> int:
        """Number of coordinates covered by clusters 1..level (level 0 -> 0)."""
        return sum(self.cluster_sizes[:level])

    def coord_range(self, level: int) -> range:
        """0-based coordinate indices belonging to cluster ``level`` (1-based)."""
        start = self.prefix_len(level - 1)
        return range(start, start + self.cluster_sizes[level - 1])

    def prefix(self, digit: Digit, level: int) -> Digit:
        """Flattened digit prefix through cluster ``level`` (level 0 -> ())."""
        return digit[: self.prefix_len(level)]


BlockTable = tuple[dict[Digit, tuple[Digit, ...]], ...]


def block_table(digits: Iterable[Digit], cluster_sizes: Sequence[int]) -> BlockTable:
    """Per cluster level, the distinct next-cluster blocks of every grouped prefix.

    Row ``l`` (0-based) maps each flattened prefix through clusters 1..l
    that occurs in the digit set to the sorted tuple of cluster-(l+1)
    blocks extending it, so ``len`` of an entry is the count N(prefix)
    and row 0 is ``{(): first-cluster blocks}``.  Rows iterate their
    prefixes in lexicographic order.  With every cluster size 1 this is
    the table of single-coordinate continuations.
    """
    digits = sorted(set(digits))
    rows = []
    start = 0
    for size in cluster_sizes:
        row: dict[Digit, list[Digit]] = {}
        for dig in digits:  # sorted, so prefixes and their blocks arrive in order
            blocks, blk = row.setdefault(dig[:start], []), dig[start : start + size]
            if not blocks or blocks[-1] != blk:
                blocks.append(blk)
        rows.append({p: tuple(b) for p, b in row.items()})
        start += size
    return tuple(rows)


def validate_bm(spec: SpongeSpec) -> ValidationReport:
    """Check a grid sponge spec, returning violations instead of raising.

    Warnings flag degenerate-but-evaluable inputs: a coordinate whose
    digit never varies means the attractor lies in a hyperplane, which
    every formula tolerates but the user should know about.
    """
    violations: list[str] = []
    warnings: list[str] = []
    d = spec.ambient_dim
    if d < 1:
        violations.append("no coordinates: need at least one base")
        return ValidationReport(False, tuple(violations))
    for j, n in enumerate(spec.bases):
        if n < 2:
            violations.append(f"base {n} at coordinate {j} must be at least 2")
    if len(set(spec.digits)) < 2:
        violations.append(f"digit set has {len(set(spec.digits))} distinct element(s), need at least 2")
    if len(set(spec.digits)) < len(spec.digits):
        violations.append("duplicate digit tuples in input")
    for dig in spec.digits:
        if len(dig) != d:
            violations.append(f"digit tuple {dig} has length {len(dig)}, expected {d}")
            continue
        for j, (v, n) in enumerate(zip(dig, spec.bases)):
            if not 0 <= v < n:
                violations.append(f"digit {v} at coordinate {j} of {dig} outside range 0..{n - 1}")
    if not violations:
        for j in range(d):
            if len({dig[j] for dig in spec.digits}) == 1:
                warnings.append(
                    f"coordinate {j} takes a single digit value; the sponge lies in a hyperplane"
                )
    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def _sibling_groups(spec: LGSpongeSpec) -> Iterator[tuple[Digit, list[Digit]]]:
    """Yield (parent prefix, sorted child prefixes) for every node group."""
    children: dict[Digit, set[Digit]] = {(): set()}
    for p in spec.contraction:
        children.setdefault(p[:-1], set()).add(p)
    for parent in sorted(children):
        yield parent, sorted(children[parent])


def validate_lg(spec: LGSpongeSpec) -> ValidationReport:
    """Check every packing rule of a prefix sponge, exactly, on integers.

    Rules checked, each reported with the offending prefix: ratios lie in
    (0, 1) and never grow along a prefix; sibling ratios sum to at most 1;
    sibling translations are strictly ordered with gaps at least the left
    sibling's ratio; the last sibling stays inside the unit interval.  Each
    ratio and translation is read once as its integer pair and compared by
    cross-multiplication; a sibling group sums its ratios over its own least
    common denominator.  A ``Fraction`` is built only to word a violation.
    """
    violations: list[str] = []
    warnings: list[str] = []
    if spec.dims < 1:
        return ValidationReport(False, ("dims must be at least 1",))
    if set(spec.contraction) != set(spec.translation):
        violations.append("contraction and translation maps must share the same prefixes")
        return ValidationReport(False, tuple(violations))
    digits = spec.digits
    if not digits:
        violations.append("no full-length digit prefixes")
        return ValidationReport(False, tuple(violations))
    if len(digits) < 2:
        warnings.append("single-map sponge: attractor is a point, all dimensions 0")

    prefixes_needed = {dig[:l] for dig in digits for l in range(1, spec.dims + 1)}
    for p in prefixes_needed:
        if p not in spec.contraction:
            violations.append(f"missing contraction/translation for prefix {p}")
    for p in spec.contraction:
        if not 1 <= len(p) <= spec.dims:
            violations.append(f"prefix {p} has invalid length {len(p)}")
        elif p not in prefixes_needed:
            violations.append(f"orphan prefix {p}: extends no full-length digit")
    if violations:
        return ValidationReport(False, tuple(violations), tuple(warnings))

    ratio = {p: c.as_integer_ratio() for p, c in spec.contraction.items()}  # (num, den), den > 0
    shift = {p: t.as_integer_ratio() for p, t in spec.translation.items()}
    for p in sorted(ratio):
        (a, b), (u, v) = ratio[p], shift[p]
        if not 0 < a < b:
            violations.append(f"contraction {spec.contraction[p]} at prefix {p} outside (0, 1)")
        if not 0 <= u < v:
            violations.append(f"translation {spec.translation[p]} at prefix {p} outside [0, 1)")
        if len(p) >= 2 and a * ratio[p[:-1]][1] > ratio[p[:-1]][0] * b:
            violations.append(
                f"contraction grows along prefix {p}: {spec.contraction[p]} > {spec.contraction[p[:-1]]}"
            )

    for parent, siblings in _sibling_groups(spec):
        lcd = math.lcm(*(ratio[q][1] for q in siblings))  # this group's own, so it stays as small as the group
        total = sum(a * (lcd // b) for a, b in map(ratio.__getitem__, siblings))
        if total > lcd:
            violations.append(f"sibling ratios under prefix {parent} sum to {Fraction(total, lcd)} > 1")
        for left, right in zip(siblings, siblings[1:]):
            (a, b), (u, v), (x, y) = ratio[left], shift[left], shift[right]
            if not u * y < x * v:
                violations.append(f"translations not increasing: {left} -> {right}")
            if (u * b + a * v) * y > x * v * b:  # tl + cl > tr, over the denominator v * b * y
                violations.append(
                    f"images overlap: prefix {left} ends at {Fraction(u * b + a * v, v * b)} past start "
                    f"{spec.translation[right]} of {right}"
                )
        last = siblings[-1]
        (a, b), (u, v) = ratio[last], shift[last]
        if u * b + a * v > v * b:
            violations.append(f"prefix {last} maps outside the unit interval")

    return ValidationReport(not violations, tuple(violations), tuple(warnings))


def encode_uniform_grid(spec: SpongeSpec) -> LGSpongeSpec:
    """Re-express a grid sponge as a prefix sponge with ratios 1/n_l.

    The translation of prefix ``(i_1, ..., i_l)`` is ``i_l / n_l``, the
    left edge of the digit's cell, so the resulting maps coincide with
    the grid maps exactly.
    """
    spec.clusters  # validates
    contraction: dict[Digit, Fraction] = {}
    translation: dict[Digit, Fraction] = {}
    for dig in set(spec.digits):
        for l in range(1, spec.ambient_dim + 1):
            p = dig[:l]
            contraction[p] = Fraction(1, spec.bases[l - 1])
            translation[p] = Fraction(p[-1], spec.bases[l - 1])
    return LGSpongeSpec(spec.ambient_dim, contraction, translation)


def _parse_ratio(text: object) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise ValueError(f"ratio must be a decimal or p/q string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"ratio {text!r} has a zero denominator") from None


def _parse_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def spec_from_json(doc: dict) -> AnySpec:
    """Build a spec from a parsed JSON document (see README for the grammar)."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("spec document must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "bedford-mcmullen":
        bases = tuple(_parse_int(b, "base") for b in doc["bases"])
        digits = tuple(tuple(_parse_int(v, "digit") for v in d) for d in doc["digits"])
        return SpongeSpec(bases, digits)
    if kind == "lalley-gatzouras":
        dims = _parse_int(doc["dims"], "dims")
        contraction: dict[Digit, Fraction] = {}
        translation: dict[Digit, Fraction] = {}
        for node in doc["nodes"]:
            p = tuple(_parse_int(v, "prefix entry") for v in node["prefix"])
            if p in contraction:
                raise ValueError(f"duplicate node for prefix {p}")
            contraction[p] = _parse_ratio(node["c"])
            translation[p] = _parse_ratio(node["t"])
        return LGSpongeSpec(dims, contraction, translation)
    raise ValueError(f"unknown spec type {kind!r}")


def load_spec(path: str | Path) -> AnySpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def validate(spec: AnySpec) -> ValidationReport:
    if isinstance(spec, SpongeSpec):
        return validate_bm(spec)
    return validate_lg(spec)
