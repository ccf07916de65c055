"""perfbench: end-to-end and per-layer benchmark of the spongedims command line.

Run from the repository root:

    python3 perfbench/run.py --workload measure-check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: measure-check, tangent-sweep, geometry-export, formula-corpus
(``all`` runs the four one after another).  Each workload runs in fresh
child processes, never two at a time: five set-up-only children and one
measuring child, which repeats passes of the workload's job list for
``--seconds`` and checks every job's output.  Its times are calibrated
against the machine's speed around each job (see clock.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the package's layer functions and
reports the per-layer metrics instead.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give each metric by name with its unit, the failure ratio and the
labels of the run.  Results and span files go to ``.perfbench/`` under the
repository root.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracing import unit_of  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # set-up-only children; the measuring child adds one more sample

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_ms.p50": "ms", "job_ms.p90": "ms", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def percentile(values: list[float], q: float, window: float = 0.05) -> float:
    """Mean of the order statistics within ``window`` of the nearest rank of ``q``.

    A single order statistic is unstable where the latency distribution has
    a gap, as measure-check's has at its median between grid and prefix
    specs; averaging the ranks within 5 % of n around it is not.  With fewer
    than 20 samples this is the plain nearest-rank percentile.
    """
    ordered = sorted(values)
    centre = max(0, math.ceil(q * len(ordered)) - 1)
    half = math.floor(window * len(ordered))
    return statistics.fmean(ordered[max(0, centre - half) : centre + half + 1])


def latency_metrics(walls: list[float], job_samples: list[list[float]]) -> dict[str, float]:
    """wall_s as the median pass, job_ms.* over each job's median run."""
    ms = [1e3 * statistics.median(samples) for samples in job_samples]
    return {"wall_s": statistics.median(walls), "job_ms.p50": percentile(ms, 0.5), "job_ms.p90": percentile(ms, 0.9)}


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_child(args: argparse.Namespace, mode: str, work: Path, timeout: float, spans: Path | None = None) -> dict:
    out = work.with_suffix(".json")
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work), "--out", str(out),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {args.workload} ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed(f"{mode} child of {args.workload} exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(args: argparse.Namespace) -> dict:
    """Set up and measure one workload; returns the result record."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / "results" / f"spans-{args.workload}-seed{args.seed}.tsv" if args.trace else None
    work = Path(tempfile.mkdtemp(prefix=tag + "-", dir=OUT / "work"))
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES):
                setups.append(run_child(args, "setup", work / f"setup{k}", timeout=30)["setup_s"])
        res = run_child(args, "measure", work / "measure", timeout=args.seconds + 90, spans=spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    record = {
        "workload": args.workload,
        "labels": {
            "git_sha": git_sha(),
            "kernels_backend": res["labels"]["backend"],
            "python": res["labels"]["python"],
            "numpy": res["labels"]["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
            "size": args.size,
            "trace": args.trace,
        },
        "attempted": res["attempted"],
        "failed": res["failed"],
        "problems": res["problems"],
        "jobs_per_pass": res["jobs"],
        "passes": len(res["walls"]),
    }
    if args.trace:
        record["metrics"] = {name: {"value": value, "unit": unit_of(name)} for name, value in res["layer"].items()}
        record["traced_walls"] = res["traced_walls"]
        record["untraced_walls"] = res["walls"]
        record["spans_file"] = str(spans.relative_to(ROOT))
    else:
        values = {
            "setup_s": statistics.median(setups),
            **latency_metrics(res["scaled_walls"], res["job_scaled"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        record["metrics"] = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in values.items()}
        record["wall_clock"] = latency_metrics(res["walls"], res["job_seconds"])
        record["samples"] = {"setup_s": setups, "pass_s": res["walls"],
                             "scaled_pass_s": res["scaled_walls"]}
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    labels = record["labels"]
    print(f"perfbench {record['workload']}: seed={labels['seed']} seconds={labels['seconds']} "
          f"trace={labels['trace']} size={labels['size']}")
    print("  labels: " + " ".join(f"{k}={labels[k]}" for k in ("git_sha", "kernels_backend", "python", "numpy",
                                                               "nproc", "seed")))
    notes = {}
    if not labels["trace"]:
        passes, jobs = record["passes"], record["jobs_per_pass"]
        notes = {
            "setup_s": f"median of {len(record['samples']['setup_s'])} set-ups, wall clock",
            "wall_s": f"median of {passes} passes of {jobs} jobs, calibrated",
            "job_ms.p50": f"over each job's median, {jobs} jobs x {passes} passes, calibrated",
            "job_ms.p90": f"over each job's median, {jobs} jobs x {passes} passes, calibrated",
            "peak_rss_mb": "ru_maxrss of the measuring child",
        }
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<14} {notes.get(name, '')}")
    if "wall_clock" in record:
        print("  uncalibrated: " + " ".join(f"{k}={v:.6g}" for k, v in record["wall_clock"].items()))
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':<36} {ratio:>14.6g} {'ratio':<14} {record['failed']} failed of {record['attempted']} jobs")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, required=True, help="how long the measuring child repeats passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny is for the self-test")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(argparse.Namespace(**{**vars(args), "workload": name})))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
