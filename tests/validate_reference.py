"""Reference prefix-spec validation on ``Fraction`` arithmetic, the form ``validate_lg`` replaced.

Every packing rule compares and sums ``Fraction`` values directly, so it
is slow but plainly exact; the tests require ``spongedims.model.validate_lg``,
which decides the same rules on integer pairs, to return an equal
``ValidationReport``.
"""

from spongedims.model import ValidationReport, _sibling_groups


def validate_lg_reference(spec):
    """Check every packing rule of a prefix sponge on ``Fraction`` values."""
    violations = []
    warnings = []
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

    for p, c in sorted(spec.contraction.items()):
        t = spec.translation[p]
        if not 0 < c < 1:
            violations.append(f"contraction {c} at prefix {p} outside (0, 1)")
        if not 0 <= t < 1:
            violations.append(f"translation {t} at prefix {p} outside [0, 1)")
        if len(p) >= 2 and c > spec.contraction[p[:-1]]:
            violations.append(
                f"contraction grows along prefix {p}: {c} > {spec.contraction[p[:-1]]}"
            )

    for parent, siblings in _sibling_groups(spec):
        total = sum(spec.contraction[q] for q in siblings)
        if total > 1:
            violations.append(f"sibling ratios under prefix {parent} sum to {total} > 1")
        for left, right in zip(siblings, siblings[1:]):
            tl, cl, tr = spec.translation[left], spec.contraction[left], spec.translation[right]
            if not tl < tr:
                violations.append(f"translations not increasing: {left} -> {right}")
            if tl + cl > tr:
                violations.append(
                    f"images overlap: prefix {left} ends at {tl + cl} past start {tr} of {right}"
                )
        last = siblings[-1]
        if spec.translation[last] + spec.contraction[last] > 1:
            violations.append(f"prefix {last} maps outside the unit interval")

    return ValidationReport(not violations, tuple(violations), tuple(warnings))
