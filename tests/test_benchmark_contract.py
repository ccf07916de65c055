"""Every benchmark workload runs one tiny pass against this tree and passes the benchmark's own checks.

The benchmark (``perfbench/``) drives the package through the CLI and reads
some of it directly: the spec encoders and the geometry loaders.  This runs
its job lists, runner and output checks unchanged, so a package change that
breaks the benchmark fails here rather than only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))

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
