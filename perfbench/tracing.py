"""Span tracing of the spongedims layers, installed from outside the package.

The layers are the package's modules.  ``Tracer.install`` wraps every public
function a layer module defines, and rebinds the wrapper on every module
attribute that bound the original (``tangent.cluster``,
``measure.require_valid_bm``, ``cli.load_spec``, ``_kernels.bounds_pass``
...), so calls between modules are caught as well as calls into them.  A few
``BoxSet`` methods are wrapped too, because box conversion and export are
methods.  ``uninstall`` puts every original back.

Each call becomes a span (name, start, end, parent) kept in compact arrays
in memory; the self time of a span is its duration minus that of its direct
children.  ``layer_metrics`` turns one traced pass into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

LAYERS = {
    "cli": "cli",
    "model": "model",
    "dimensions": "dimensions",
    "measure": "measure",
    "tangent": "tangent",
    "kernels": "_kernels",
    "oracle": "oracle",
}

METHODS = {"tangent": ("BoxSet", ("float_arrays", "export_text", "export_voxel"))}


# Observers record work counts from a call's arguments and result.  They run
# after the span has closed, so their own cost is not charged to the layer.

def _kernel_observer(kind: str, bytes_per_pair: int):
    def observe(counts, args, result, ok):
        if not ok:
            return
        lo_a, lo_b = args[0], args[2]
        n, d = lo_a.shape
        pairs = n * lo_b.shape[0] * (2**d if kind == "corner" else 1)
        counts[f"{kind}_pairs"] += pairs
        counts["bytes_computed"] += pairs * bytes_per_pair * d
        if kind == "filter":
            counts["filter_offered"] += lo_b.shape[0]
            counts["filter_kept"] += int(result.sum())
    return observe


def _count(key: str, measure):
    def observe(counts, args, result, ok):
        if ok:
            counts[key] += measure(result)
    return observe


def _cube_observer(counts, args, result, ok):
    counts["cube_ok"] += ok


def _export_observer(counts, args, result, ok):
    counts["export_bytes"] += args[1].tell()


OBSERVERS = {
    # float64 operands one pairwise evaluation reads: both boxes' lo and hi
    # rows for bounds and filter, a corner point plus the target's lo and hi
    # for each corner evaluation.  Computed from shapes, not measured.
    "kernels.bounds_pass": _kernel_observer("bounds", 4 * 8),
    "kernels.filter_pass": _kernel_observer("filter", 4 * 8),
    "kernels.corner_pass": _kernel_observer("corner", 3 * 8),
    "tangent.prefractal": _count("boxes_built", len),
    "tangent.cluster_prefractal": _count("boxes_built", len),
    "tangent.tangent_product": _count("boxes_built", len),
    "tangent.zoomed_fragment": _count("boxes_built", lambda r: len(r.boxes)),
    "tangent.containment_check": _count("containment_boxes", lambda r: r.fragment_boxes),
    "tangent.convergence_sweep": _count("sweep_scales", lambda r: len(r.rows)),
    "tangent.BoxSet.export_text": _export_observer,
    "tangent.BoxSet.export_voxel": _export_observer,
    "measure.ratio_bound_check": _count("trials", lambda r: r.trials),
    "measure.approximate_cube": _cube_observer,
    "dimensions.moran_solve": _count("moran_iterations", lambda r: r.iterations),
    "dimensions.old_formula_spread": _count("spread_orders", lambda r: r["orders"]),
    "oracle.build_count_table": _count("entries", lambda r: len(r.entries)),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    special = {"tangent.us_per_box": "us", "tangent.export_bytes": "B", "cli.stdout_bytes": "B",
               "kernels.bytes_computed": "bytes-computed", "dimensions.s": "s"}
    if name in special:
        return special[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_job", "_per_scale", "overhead", "bb_rounds")):
        return "ratio"
    return "count"


class Tracer:
    """Wrappers for every layer function, and the spans and counts of the current pass."""

    def __init__(self, package) -> None:
        self.names: list[str] = []
        self.layer: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        modules = {layer: importlib.import_module(f"{package.__name__}.{mod}") for layer, mod in LAYERS.items()}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", layer, obj)
        # Rebind on every module that holds a reference, not only the defining one.
        for owner in [package, *modules.values()]:
            for attr, obj in vars(owner).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((owner, attr, obj, wrappers[obj]))
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in methods:
                original = cls.__dict__[attr]
                wrapper = self._wrap(f"{layer}.{cls_name}.{attr}", layer, original)
                self._patches.append((cls, attr, original, wrapper))
        self._index = {name: i for i, name in enumerate(self.names)}
        self.reset()

    def reset(self) -> None:
        self.key = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.total_s = [0.0] * len(self.names)
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time under top-level spans of layers other than cli
        self._stack: list[list] = []

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _wrap(self, name: str, layer: str, fn):
        kid = len(self.names)
        self.names.append(name)
        self.layer.append(layer)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.key)
            tracer.key.append(kid)
            tracer.parent.append(parent)
            tracer.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.end[idx] = t1
                tracer.calls[kid] += 1
                tracer.self_s[kid] += dur - frame[1]
                tracer.total_s[kid] += dur
                if stack:
                    stack[-1][1] += dur
                if layer != "cli" and (parent < 0 or tracer.layer[tracer.key[parent]] == "cli"):
                    tracer.covered_s += dur
                if observe is not None:
                    observe(tracer.counts, args, result if ok else None, ok)

        return wrapper

    def write_spans(self, path) -> None:
        """Tab-separated: name, start, end (perf_counter seconds), parent span index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for k, s, e, p in zip(self.key, self.start, self.end, self.parent):
                fh.write(f"{self.names[k]}\t{s!r}\t{e!r}\t{p}\n")

    # ---------------------------------------------------------------- metrics

    def _sum(self, table, *names) -> float:
        return sum(table[self._index[n]] for n in names if n in self._index)

    def calls_of(self, *names) -> int:
        return int(self._sum(self.calls, *names))

    def self_of(self, *names) -> float:
        return self._sum(self.self_s, *names)

    def layer_metrics(self, job_seconds: list[float], stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        c, S, C = self.counts, self.self_of, self.calls_of

        def ratio(a, b):
            return a / b if b else 0.0

        kernel_names = ("kernels.bounds_pass", "kernels.filter_pass", "kernels.corner_pass")
        pairs = c["bounds_pairs"] + c["filter_pairs"] + c["corner_pairs"]
        build_s = S("tangent.prefractal", "tangent.cluster_prefractal", "tangent.zoomed_fragment",
                    "tangent.tangent_product")
        depth = ("measure.depths_bm", "measure.depths_lg", "measure.power_depth")
        validate = ("model.validate", "model.validate_bm", "model.validate_lg",
                    "model.require_valid_bm", "model.require_valid_lg")
        dim_names = [n for n in self.names if n.startswith("dimensions.")]
        m = {
            "kernels.bounds_calls": C("kernels.bounds_pass"),
            "kernels.filter_calls": C("kernels.filter_pass"),
            "kernels.corner_calls": C("kernels.corner_pass"),
            "kernels.bounds_s": S("kernels.bounds_pass"),
            "kernels.filter_s": S("kernels.filter_pass"),
            "kernels.corner_s": S("kernels.corner_pass"),
            "kernels.bounds_pairs": c["bounds_pairs"],
            "kernels.filter_pairs": c["filter_pairs"],
            "kernels.corner_pairs": c["corner_pairs"],
            "kernels.pairs_per_s": ratio(pairs, S(*kernel_names)),
            "kernels.bytes_computed": c["bytes_computed"],
            "kernels.filter_keep_ratio": ratio(c["filter_kept"], c["filter_offered"]),
            "tangent.build_s": build_s,
            "tangent.boxes_built": c["boxes_built"],
            "tangent.us_per_box": 1e6 * ratio(build_s, c["boxes_built"]),
            "tangent.fragment_builds": C("tangent.zoomed_fragment"),
            "tangent.fragment_builds_per_scale": ratio(C("tangent.zoomed_fragment"), c["sweep_scales"]),
            "tangent.word_s": S("tangent.tangent_word", "tangent.select_maximizers", "tangent.select_twists"),
            "tangent.float_arrays_s": S("tangent.BoxSet.float_arrays"),
            "tangent.containment_s": S("tangent.containment_check"),
            "tangent.containment_boxes": c["containment_boxes"],
            "tangent.hausdorff_s": S("tangent.hausdorff_distance"),
            "tangent.bb_rounds": ratio(C("kernels.bounds_pass"), 2 * C("tangent.hausdorff_distance")),
            "tangent.export_s": S("tangent.BoxSet.export_text", "tangent.BoxSet.export_voxel"),
            "tangent.export_bytes": c["export_bytes"],
            "tangent.load_s": S("tangent.load_text_boxes", "tangent.load_voxel_boxes"),
            "measure.trials": c["trials"],
            "measure.trials_per_s": ratio(c["trials"], self._sum(self.total_s, "measure.ratio_bound_check")),
            "measure.depth_calls": C(*depth),
            "measure.cube_calls": C("measure.approximate_cube"),
            "measure.mass_calls": C("measure.cube_measure"),
            "measure.depth_s": S(*depth),
            "measure.cube_s": S("measure.approximate_cube"),
            "measure.mass_s": S("measure.cube_measure"),
            "measure.weights_s": S("measure.pcu_weights", "measure.lg_weights"),
            "measure.cube_useful_ratio": ratio(c["cube_ok"], C("measure.approximate_cube")),
            "model.load_s": S("model.load_spec", "model.spec_from_json"),
            "model.validate_calls": C("model.validate_bm", "model.validate_lg"),
            "model.validate_s": S(*validate),
            "model.validate_per_job": ratio(C("model.validate_bm", "model.validate_lg"), len(job_seconds)),
            "model.cluster_calls": C("model.cluster", "model.lg_cluster"),
            "model.digit_tree_calls": C("model.digit_tree", "model.lg_digit_tree"),
            "model.cluster_s": S("model.cluster", "model.lg_cluster"),
            "model.digit_tree_s": S("model.digit_tree", "model.lg_digit_tree"),
            "dimensions.calls": C(*dim_names),
            "dimensions.s": S(*dim_names),
            "dimensions.moran_calls": C("dimensions.moran_solve"),
            "dimensions.moran_iterations": c["moran_iterations"],
            "dimensions.spread_orders": c["spread_orders"],
            "oracle.table_calls": C("oracle.build_count_table"),
            "oracle.table_s": S("oracle.build_count_table", "oracle.subcube_counts", "oracle.subcube_counts_naive"),
            "oracle.entries": c["entries"],
            "oracle.fit_s": S("oracle.fit_exponent"),
            "cli.self_s": sum(job_seconds) - self.covered_s,
            "cli.stdout_bytes": stdout_bytes,
            "trace.spans": len(self.key),
        }
        return {k: float(v) for k, v in m.items()}
