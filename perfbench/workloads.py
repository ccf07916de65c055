"""Workload inputs, job lists, the job runner and the output checks.

A job is one in-process ``spongedims.cli.main(argv)`` call with its stdout
and stderr captured; geometry jobs also read every written file back with
the program's own loaders.  Each workload is a fixed list of jobs made from
the workload seed, run by one client in a closed loop.  The checks below
decide, for every job, whether its output is right; they never feed on the
job's own timing and each of them can fail (``selftest.py`` shows it).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import random
import re
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("measure-check", "tangent-sweep", "geometry-export", "formula-corpus")

SCALES = ("1/81", "1/729", "1/6561")

# "full" is what the benchmark measures; "tiny" runs every job kind in well
# under a second and exists for the self-test.
SIZES = {
    "full": {
        "mc_jobs": 100, "mc_trials": 100, "scales": SCALES,
        "fig1_depths": 7, "grid4_depths": 6, "corpus": 100, "oracle_depths": tuple(range(4, 11)),
    },
    "tiny": {
        "mc_jobs": 8, "mc_trials": 10, "scales": SCALES[:2],
        "fig1_depths": 3, "grid4_depths": 2, "corpus": 4, "oracle_depths": (4, 5, 6),
    },
}

MC_SPECS = ("fig1", "modified", "lg-modified", "prefix3")

# Tolerances and where they come from.
LG_AGREEMENT_TOL = 1e-9  # Moran bisection stops at residual 1e-12; the exponent error is far below this
TEXT_SIDE_TOL = 1e-15  # two float64 endpoints in [0, 1], each rounded by at most 2**-53


@dataclass(frozen=True)
class Program:
    """The modules a job touches, looked up by attribute at call time so wrappers apply."""

    package: object
    cli: object
    tangent: object


def load_program(root: Path) -> Program:
    """Import spongedims from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("spongedims")
    if Path(package.__file__).resolve().parent != src / "spongedims":
        raise ImportError(f"spongedims imported from {package.__file__}, expected {src}")
    return Program(package, importlib.import_module("spongedims.cli"), package.tangent)


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Job:
    name: str
    argv: tuple[str, ...]
    check: str
    info: dict = field(default_factory=dict)
    readback: tuple[tuple[str, str], ...] = ()


@dataclass
class JobResult:
    code: int
    stdout: str
    stderr: str
    seconds: float
    loaded: tuple[int, ...] = ()
    start: float = 0.0


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def random_grid_doc(rng: random.Random, index: int) -> dict:
    """A valid grid spec: d in 2..4, bases 2..5, 2..12 distinct digits.

    d and the digit count cycle with ``index`` (through all 33 pairs) while
    bases and digits are random, so corpora from different seeds do the same
    amount of work and differ in content only.
    """
    d = 2 + index % 3
    bases = [rng.randint(2, 5) for _ in range(d)]
    cells = list(itertools.product(*(range(n) for n in bases)))
    digits = rng.sample(cells, min(2 + index % 11, len(cells)))
    return {"type": "bedford-mcmullen", "bases": bases, "digits": [list(c) for c in digits]}


def permuted_doc(doc: dict, order: list[int]) -> dict:
    return {
        "type": doc["type"],
        "bases": [doc["bases"][i] for i in order],
        "digits": [[dig[i] for i in order] for dig in doc["digits"]],
    }


def setup(program: Program, workload: str, seed: int, size: str, workdir: Path) -> list[Job]:
    """Write the workload's inputs under ``workdir`` and return its job list."""
    sz = SIZES[size]
    specs = load_reference()["specs"]
    rng = random.Random(seed)
    spec_dir = workdir / "specs"
    spec_dir.mkdir(parents=True)
    pkg = program.package

    def prefix_form(doc: dict) -> dict:
        return pkg.encode_uniform_grid(pkg.spec_from_json(doc)).to_json()

    jobs: list[Job] = []
    if workload == "measure-check":
        docs = {name: specs[name] for name in ("fig1", "modified", "prefix3")}
        docs["lg-modified"] = prefix_form(specs["modified"])
        paths = {name: _write(spec_dir / f"{name}.json", doc) for name, doc in docs.items()}
        for i in range(sz["mc_jobs"]):
            name = MC_SPECS[i % len(MC_SPECS)]
            argv = ("measure-check", "--input", paths[name], "--trials", str(sz["mc_trials"]),
                    "--seed", str(rng.randrange(2**31)), "--format", "json")
            jobs.append(Job(f"mc{i:03d}-{name}", argv, "measure-check", {"spec": paths[name]}))
    elif workload == "tangent-sweep":
        for name in ("fig1", "grid4"):
            path = _write(spec_dir / f"{name}.json", specs[name])
            argv = ("tangent", "--input", path, "--scales", ",".join(sz["scales"]), "--format", "json")
            jobs.append(Job(f"tangent-{name}", argv, "tangent-sweep", {"spec": name, "scales": list(sz["scales"])}))
        rng.shuffle(jobs)
    elif workload == "geometry-export":
        for name, fmt, top in (("fig1", "voxel", sz["fig1_depths"]), ("grid4", "text", sz["grid4_depths"])):
            path = _write(spec_dir / f"{name}.json", specs[name])
            out = workdir / f"{name}-{fmt}"
            depths = list(range(1, top + 1))
            ext = "voxel" if fmt == "voxel" else "txt"
            files = tuple((str(out / f"prefractal_depth{m}.{ext}"), fmt) for m in depths)
            argv = ("export-geometry", "--input", path, "--depths", ",".join(map(str, depths)),
                    "--format", fmt, "--output", str(out))
            info = {"bases": specs[name]["bases"], "digits": specs[name]["digits"], "depths": depths, "fmt": fmt}
            jobs.append(Job(f"export-{name}-{fmt}", argv, "geometry-export", info, files))
        rng.shuffle(jobs)
    elif workload == "formula-corpus":
        depths = ",".join(map(str, sz["oracle_depths"]))
        for i in range(sz["corpus"]):
            doc = random_grid_doc(rng, i)
            order = list(range(len(doc["bases"])))
            rng.shuffle(order)
            grid = _write(spec_dir / f"c{i:03d}-grid.json", doc)
            prefix = _write(spec_dir / f"c{i:03d}-prefix.json", prefix_form(doc))
            permuted = _write(spec_dir / f"c{i:03d}-permuted.json", permuted_doc(doc, order))
            info = {"group": i, "permuted": permuted, "depths": list(sz["oracle_depths"])}
            for form, path in (("grid", grid), ("prefix", prefix)):
                for cmd in ("validate", "dims"):
                    jobs.append(Job(f"c{i:03d}-{cmd}-{form}", (cmd, "--input", path, "--format", "json"),
                                    f"{cmd}-{form}", info))
            jobs.append(Job(f"c{i:03d}-compare", ("compare", "--input", grid, "--permutations", "--format", "json"),
                            "compare", info))
            jobs.append(Job(f"c{i:03d}-oracle", ("oracle", "--input", grid, "--depths", depths, "--format", "json"),
                            "oracle", info))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def run_job(program: Program, job: Job) -> JobResult:
    """One closed-loop request: the CLI call plus, for exports, the read-back."""
    out, err = io.StringIO(), io.StringIO()
    loaded = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = program.cli.main(list(job.argv))
            if code == 0:
                for path, fmt in job.readback:
                    tangent = program.tangent
                    loader = tangent.load_voxel_boxes if fmt == "voxel" else tangent.load_text_boxes
                    with open(path, encoding="utf-8") as fh:
                        loaded.append(len(loader(fh)))
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a job that raises is a failed job, not a crashed run
            traceback.print_exc()
            code = -1
    seconds = time.perf_counter() - start
    return JobResult(code, out.getvalue(), err.getvalue(), seconds, tuple(loaded), start)


def _bits(value: dict) -> float:
    return struct.unpack(">d", bytes.fromhex(value["bits"]))[0]


class Checker:
    """Checks every job of a pass; reference runs of ``dims`` are cached per spec file."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.tangent_ref = load_reference()["tangent_reference"]
        self._dims: dict[str, tuple[float, float]] = {}

    def dims(self, path: str) -> tuple[float, float]:
        got = self._dims.get(path)
        if got is None:
            res = run_job(self.program, Job("reference-dims", ("dims", "--input", path, "--format", "json"), "dims"))
            if res.code != 0:
                raise ValueError(f"reference dims on {path} exited {res.code}: {res.stderr.strip()[-300:]}")
            doc = json.loads(res.stdout)
            got = self._dims[path] = (_bits(doc["assouad"]), _bits(doc["lower"]))
        return got

    def check_pass(self, jobs: list[Job], results: list[JobResult]) -> list[str]:
        """One entry per job: "" when its output is right, else the first problem found."""
        by_name = {job.name: (job, res) for job, res in zip(jobs, results)}
        problems = []
        for job, res in zip(jobs, results):
            if res.code != 0:
                problems.append(f"exit code {res.code}: {res.stderr.strip()[-300:]}")
                continue
            try:
                problem = getattr(self, "_" + job.check.replace("-", "_"))(job, res, by_name)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                problem = f"unreadable output: {exc!r}"
            problems.append(problem or "")
        return problems

    # ------------------------------------------------------------ measure-check

    def _measure_check(self, job, res, by_name):
        doc = json.loads(res.stdout)
        if doc["violations"]:
            return f"{len(doc['violations'])} violations"
        assouad, lower = self.dims(job.info["spec"])
        if (doc["assouad"], doc["lower"]) != (assouad, lower):
            return f"assouad/lower {doc['assouad']}/{doc['lower']} differ from dims {assouad}/{lower}"
        return None

    # ------------------------------------------------------------ tangent-sweep

    def _tangent_sweep(self, job, res, by_name):
        doc = json.loads(res.stdout)
        ref = self.tangent_ref["rows"][job.info["spec"]]
        tol = self.tangent_ref["tol"]
        if [row["scale"] for row in doc["rows"]] != job.info["scales"]:
            return f"rows for scales {[row['scale'] for row in doc['rows']]}"
        if doc["nonincreasing"] is not True:
            return "distances not nonincreasing"
        for row in doc["rows"]:
            want = ref[row["scale"]]
            if row["contained"] is not True:
                return f"scale {row['scale']}: fragment not contained"
            if (row["fragment_boxes"], row["product_boxes"]) != (want["fragment_boxes"], want["product_boxes"]):
                return f"scale {row['scale']}: box counts {row['fragment_boxes']}/{row['product_boxes']}"
            if not abs(row["distance"] - want["distance"]) <= tol:
                return f"scale {row['scale']}: d_H {row['distance']} vs recorded {want['distance']}"
        return None

    # ---------------------------------------------------------- geometry-export

    def _geometry_export(self, job, res, by_name):
        info = job.info
        digits = {tuple(d) for d in info["digits"]}
        wrote = re.findall(r"^wrote (\S+) \((\d+) boxes\)$", res.stdout, flags=re.M)
        want_counts = [len(digits) ** m for m in info["depths"]]
        if [int(n) for _, n in wrote] != want_counts:
            return f"reported box counts {[n for _, n in wrote]}, want {want_counts}"
        if list(res.loaded) != want_counts:
            return f"read-back box counts {list(res.loaded)}, want {want_counts}"
        for (path, _), m in zip(job.readback, info["depths"]):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if info["fmt"] == "voxel":
                problem = check_voxel(lines, info["bases"], digits, m)
            else:
                problem = check_text(lines, info["bases"], len(digits), m)
            if problem:
                return f"{Path(path).name}: {problem}"
        return None

    # ----------------------------------------------------------- formula-corpus

    def _validate_grid(self, job, res, by_name):
        return None if json.loads(res.stdout)["ok"] is True else "validate not ok"

    _validate_prefix = _validate_grid

    def _grid_dims_of(self, job, by_name) -> tuple[float, float]:
        doc = json.loads(by_name[f"c{job.info['group']:03d}-dims-grid"][1].stdout)
        return _bits(doc["assouad"]), _bits(doc["lower"])

    def _dims_grid(self, job, res, by_name):
        grid = self._grid_dims_of(job, by_name)
        permuted = self.dims(job.info["permuted"])
        if grid != permuted:
            return f"dims {grid} changes to {permuted} under a coordinate permutation"
        return None

    def _dims_prefix(self, job, res, by_name):
        doc = json.loads(res.stdout)
        got = (_bits(doc["assouad"]), _bits(doc["lower"]))
        grid = self._grid_dims_of(job, by_name)
        if any(not abs(a - b) <= LG_AGREEMENT_TOL for a, b in zip(got, grid)):
            return f"prefix-encoding dims {got} vs grid {grid}"
        return None

    def _compare(self, job, res, by_name):
        grouped = json.loads(res.stdout)["grouped"]["assouad"]
        assouad = self._grid_dims_of(job, by_name)[0]
        if grouped != assouad:
            return f"compare grouped {grouped} differs from dims {assouad}"
        return None

    def _oracle(self, job, res, by_name):
        entries = json.loads(res.stdout)["entries"]
        if [e["m"] for e in entries] != job.info["depths"]:
            return f"entries for m={[e['m'] for e in entries]}, want {job.info['depths']}"
        for e in entries:
            if not e["min_count"] <= e["max_count"]:
                return f"m={e['m']}: min {e['min_count']} > max {e['max_count']}"
        for key in ("max_count", "min_count"):
            seq = [e[key] for e in entries]
            if any(a > b for a, b in zip(seq, seq[1:])):
                return f"{key} decreases in m: {seq}"
        return None


def check_voxel(lines: list[str], bases: list[int], digits: set, m: int) -> str | None:
    """|D|^m distinct cells, each decoding level by level into digits of the set."""
    header = f"voxel bases={','.join(map(str, bases))} depths={','.join([str(m)] * len(bases))}"
    if not lines or lines[0] != header:
        return f"header {lines[0] if lines else ''!r}, want {header!r}"
    rows = lines[1:]
    if len(rows) != len(digits) ** m or len(set(rows)) != len(rows):
        return f"{len(set(rows))} distinct of {len(rows)} cells, want {len(digits) ** m}"
    powers = [[n ** (m - t) for t in range(1, m + 1)] for n in bases]
    for row in rows:
        cells = [int(v) for v in row.split()]
        if len(cells) != len(bases) or any(not 0 <= c < n**m for c, n in zip(cells, bases)):
            return f"cell {row!r} outside the depth-{m} grid"
        for t in range(m):
            level = tuple((c // pw[t]) % n for c, pw, n in zip(cells, powers, bases))
            if level not in digits:
                return f"cell {row!r} has level-{t + 1} digit {level} outside the digit set"
    return None


def check_text(lines: list[str], bases: list[int], n_digits: int, m: int) -> str | None:
    """|D|^m distinct boxes, each with side n_l^-m along coordinate l."""
    if len(lines) != n_digits**m or len(set(lines)) != len(lines):
        return f"{len(set(lines))} distinct of {len(lines)} boxes, want {n_digits ** m}"
    sides = [1.0 / n**m for n in bases]
    for row in lines:
        vals = [float(v) for v in row.split()]
        if len(vals) != 2 * len(bases):
            return f"box {row!r} has {len(vals)} values, want {2 * len(bases)}"
        for lo, hi, side in zip(vals[::2], vals[1::2], sides):
            if not abs((hi - lo) - side) <= TEXT_SIDE_TOL or not math.isfinite(lo):
                return f"box {row!r} side {hi - lo} != {side}"
    return None
