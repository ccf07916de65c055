"""Every benchmark workload runs one tiny pass against this tree and passes the benchmark's own checks.

The benchmark (``perfbench/``) drives the package through the CLI and reads
some of it directly: the spec encoders and the geometry loaders.  This runs
its job lists, runner and output checks unchanged, so a package change that
breaks the benchmark fails here rather than only in a benchmark run.  A
traced pass runs the same jobs under the benchmark's tracer, whose observers
read fields of the package's results.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return workloads.load_program(ROOT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_has_no_problems(program, workload, tmp_path):
    jobs = workloads.setup(program, workload, seed=3, size="tiny", workdir=tmp_path)
    results = [workloads.run_job(program, job) for job in jobs]
    problems = workloads.Checker(program).check_pass(jobs, results)
    assert len(problems) == len(jobs) > 0
    assert {job.name: problem for job, problem in zip(jobs, problems) if problem} == {}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_tiny_pass_has_no_problems(program, workload, tmp_path):
    jobs = workloads.setup(program, workload, seed=3, size="tiny", workdir=tmp_path)
    tracer = tracing.Tracer(program.package)
    tracer.install()
    try:
        results = [workloads.run_job(program, job) for job in jobs]
    finally:
        tracer.uninstall()
    problems = workloads.Checker(program).check_pass(jobs, results)
    assert {job.name: problem for job, problem in zip(jobs, problems) if problem} == {}
    metrics = tracer.layer_metrics([r.seconds for r in results], sum(len(r.stdout) for r in results))
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    assert declared - {"trace.overhead"} - set(metrics) == set()  # child.py adds the overhead ratio
