"""One benchmark child process: set a workload up, then optionally measure it.

``run.py`` starts this script in a fresh interpreter for every set-up sample
and for the measuring run, one at a time, and reads the JSON it writes to
``--out``.  Set-up time runs from the first line of this script to the end
of writing the inputs: importing spongedims is part of it, interpreter
start-up is not.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(program, jobs, calibrate: bool):
    """Run every job once: (results, wall-clock job times, calibrated job times or [])."""
    if not calibrate:
        results = [workloads.run_job(program, job) for job in jobs]
        return results, [r.seconds for r in results], []
    with clock.Sampler() as sampler:
        results = [workloads.run_job(program, job) for job in jobs]
    own, scaled = zip(*(sampler.job_times(r.start, r.seconds) for r in results))
    return results, list(own), list(scaled)


def measure(program, jobs, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    """Repeat passes of the job list until ``seconds`` have gone, checking each pass."""
    checker = workloads.Checker(program)
    tracer = tracing.Tracer(program.package) if trace else None
    walls: list[float] = []
    traced_walls: list[float] = []
    job_seconds: list[list[float]] = [[] for _ in jobs]
    scaled_walls: list[float] = []
    job_scaled: list[list[float]] = [[] for _ in jobs]
    layer_samples: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        # A traced run alternates untraced and traced passes, so the overhead
        # ratio compares passes made under the same conditions.
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.reset()
                tracer.install()
                try:
                    results, times, _ = run_pass(program, jobs, calibrate=False)
                finally:
                    tracer.uninstall()
                traced_walls.append(math.fsum(times))
                stdout_bytes = sum(len(r.stdout.encode("utf-8")) for r in results)
                layer_samples.append(tracer.layer_metrics([r.seconds for r in results], stdout_bytes))
            else:
                # A pass takes the sum of its job times: the jobs run back to back.
                results, times, scaled = run_pass(program, jobs, calibrate=not trace)
                walls.append(math.fsum(times))
                for samples, t in zip(job_seconds, times):
                    samples.append(t)
                if scaled:
                    scaled_walls.append(math.fsum(scaled))
                    for samples, t in zip(job_scaled, scaled):
                        samples.append(t)
            for job, problem in zip(jobs, checker.check_pass(jobs, results)):
                attempted += 1
                if problem:
                    failed += 1
                    problems.append(f"{job.name}: {problem}")
        # Start no round that would end past the deadline, judged by the last one.
        now = perf_counter()
        if now + (now - round_start) > deadline:
            break
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "walls": walls,
        "job_seconds": job_seconds,
        "scaled_walls": scaled_walls,
        "job_scaled": job_scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        layer = {name: statistics.median(s[name] for s in layer_samples) for name in layer_samples[0]}
        layer["trace.overhead"] = statistics.median(t / u for t, u in zip(traced_walls, walls))
        out["layer"] = layer
        out["traced_walls"] = traced_walls
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True, help="empty directory for the inputs")
    parser.add_argument("--out", type=Path, required=True, help="JSON result file")
    parser.add_argument("--spans", type=Path, default=None, help="span file of the last traced pass")
    args = parser.parse_args(argv)

    program = workloads.load_program(ROOT)
    jobs = workloads.setup(program, args.workload, args.seed, args.size, args.work)
    result = {"setup_s": perf_counter() - _T0, "jobs": len(jobs)}
    if args.mode == "measure":
        result.update(measure(program, jobs, args.seconds, bool(args.trace), args.spans))
        import numpy

        result["labels"] = {
            "backend": program.package._kernels.BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
