"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs at the tiny size, untraced and traced; each run must
   report exactly the metrics BENCHMARK.json names, with their units, and
   fail no job.
2. Every output check must fail on a deliberately corrupted output: a voxel
   index flipped in a written file, a text box resized, and altered JSON for
   every other check.
3. Run in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark must exit with a nonzero code and print no result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench" / "selftest"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok      " if ok else "FAILED  ") + what)
    if not ok:
        failures.append(what)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists the four workloads")
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label} exits 0 (stderr: {proc.stderr.strip()[-300:]})")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(got == want, f"{label}: reports every {key} metric with its unit")
            expect(result["failed"] == 0 and result["attempted"] >= 1 and result["correct"] is True,
                   f"{label}: fail_ratio 0 over {result['attempted']} jobs")
            expect("fail_ratio" in proc.stdout, f"{label}: prints fail_ratio")


def mutate_json(result, edit):
    doc = json.loads(result.stdout)
    edit(doc)
    return dataclasses.replace(result, stdout=json.dumps(doc))


def set_float(value: dict, x: float) -> None:
    value["bits"] = struct.pack(">d", x).hex()
    value["decimal"] = repr(x)


def flip_voxel(path: str) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    cells = lines[1].split()
    cells[0] = str(int(cells[0]) ^ 1)
    lines[1] = " ".join(cells)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def widen_text_box(path: str) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    vals = lines[0].split()
    vals[1] = repr(float(vals[1]) + 1e-9)
    lines[0] = " ".join(vals)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_checks() -> None:
    program = workloads.load_program(ROOT)
    for workload in workloads.WORKLOADS:
        work = SCRATCH / workload
        shutil.rmtree(work, ignore_errors=True)
        jobs = workloads.setup(program, workload, 5, "tiny", work)
        checker = workloads.Checker(program)
        results = [workloads.run_job(program, job) for job in jobs]
        expect(not any(checker.check_pass(jobs, results)), f"{workload}: tiny pass checks clean")

        def flagged(index: int, bad, what: str) -> None:
            trial = list(results)
            trial[index] = bad
            problems = checker.check_pass(jobs, trial)
            expect(bool(problems[index]), f"{workload}: check fails on {what} ({problems[index] or 'not caught'})")

        first = {}
        for i, job in enumerate(jobs):
            first.setdefault(job.check, i)
        flagged(0, dataclasses.replace(results[0], code=4), "a nonzero exit code")

        if workload == "measure-check":
            i = first["measure-check"]
            flagged(i, mutate_json(results[i], lambda d: d["violations"].append({"trial": 0})), "a violation")
            flagged(i, mutate_json(results[i], lambda d: d.update(assouad=d["assouad"] + 1e-15)), "an assouad off by 1e-15")
            flagged(i, mutate_json(results[i], lambda d: d.update(lower=d["lower"] * 2)), "a wrong lower")
        elif workload == "tangent-sweep":
            i = first["tangent-sweep"]
            flagged(i, mutate_json(results[i], lambda d: d["rows"][0].update(contained=False)), "a row not contained")
            flagged(i, mutate_json(results[i], lambda d: d.update(nonincreasing=False)), "nonincreasing false")
            flagged(i, mutate_json(results[i], lambda d: d["rows"][1].update(fragment_boxes=1)), "a wrong box count")
            flagged(i, mutate_json(results[i], lambda d: d["rows"][0].update(distance=d["rows"][0]["distance"] + 2e-6)),
                    "a d_H off by 2e-6")
            flagged(i, mutate_json(results[i], lambda d: d["rows"].pop()), "a missing row")
        elif workload == "geometry-export":
            by_fmt = {job.info["fmt"]: i for i, job in enumerate(jobs)}
            voxel, text = by_fmt["voxel"], by_fmt["text"]
            flagged(voxel, dataclasses.replace(results[voxel], loaded=results[voxel].loaded[:-1] + (0,)),
                    "a short read-back")
            flip_voxel(jobs[voxel].readback[-1][0])
            flagged(voxel, results[voxel], "one voxel index flipped")
            widen_text_box(jobs[text].readback[-1][0])
            flagged(text, results[text], "a text box side off by 1e-9")
        elif workload == "formula-corpus":
            i = first["validate-grid"]
            flagged(i, mutate_json(results[i], lambda d: d.update(ok=False)), "validate not ok")
            i = first["dims-prefix"]
            flagged(i, mutate_json(results[i], lambda d: set_float(d["assouad"], workloads._bits(d["assouad"]) + 1e-8)),
                    "prefix dims off by 1e-8")
            i = first["dims-grid"]
            checker._dims[jobs[i].info["permuted"]] = (0.5, 0.25)
            flagged(i, results[i], "dims changing under permutation")
            checker._dims.clear()
            i = first["compare"]
            flagged(i, mutate_json(results[i], lambda d: d["grouped"].update(assouad=d["grouped"]["assouad"] + 1e-12)),
                    "compare grouped value off by 1e-12")
            i = first["oracle"]
            flagged(i, mutate_json(results[i], lambda d: d["entries"].pop()), "a missing oracle entry")
            flagged(i, mutate_json(results[i], lambda d: d["entries"][0].update(min_count=d["entries"][0]["max_count"] + 1)),
                    "oracle min > max")
            flagged(i, mutate_json(results[i], lambda d: d["entries"][-1].update(max_count=0, min_count=0)),
                    "oracle counts decreasing in m")
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "formula-corpus", 0)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    expect(proc.returncode != 0 and '"correct"' not in last,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    check_metrics()
    check_checks()
    check_bare_directory()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {'ok' if not failures else f'{len(failures)} FAILED'}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
