"""Quick self-test of the benchmark itself, on tiny windows (about half a minute).

Run from the repository root:

    python3 bench/selftest.py

It checks that BENCHMARK.json names exactly the metrics the code reports
and only workloads it defines, that the oracle accepts every pinned and permuted expected
output and rejects corrupted ones, that every workload runs end to end and
traced on tiny windows with correct outputs and repeatable counts, and
that the benchmark refuses to run in a directory holding only
BENCHMARK.json and bench/.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile

import jobs
import run

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def check_contract() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"] for w in spec["workloads"]} <= set(jobs.WORKLOADS), "a workload is not in jobs.WORKLOADS")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "end_to_end differs from run.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "per_layer differs from run.PER_LAYER")


def check_oracle() -> None:
    expect(not jobs.cross_check(), "pinned outputs disagree with the oracle")
    for workload, templates in jobs.WORKLOADS.items():
        for seed in range(4):
            rng = random.Random(seed)
            for template in templates:
                job = template(rng, False)
                expect(not job.check(0, job.expected), f"{workload}/{job.kind} seed {seed}: variant expectation rejected")
    # negative controls: a wrong number must be caught by the oracle alone
    betti = jobs.WORKLOADS["betti-q"][0](None, False)
    wrong = betti.expected.replace("[1,[[1,2]],1]", "[1,[[1,2]],2]")
    expect(wrong != betti.expected and betti.check(0, wrong), "a wrong Betti number passed")
    kseries = jobs.WORKLOADS["kseries-series"][0](None, False)
    wrong = kseries.expected.replace("[[1,1],[2,1],[3,1]],1]", "[[1,1],[2,1],[3,1]],2]")
    expect(wrong != kseries.expected and kseries.check(0, wrong), "a wrong K-series coefficient passed")
    expect(bool(kseries.check(3, kseries.expected)), "a nonzero exit passed")


def check_runs() -> None:
    for workload in jobs.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7, seconds=1.0, trace=0)
        result, _ = run.end_to_end(args, small=True)
        expect(result["correct"] and result["failed"] == 0, f"{workload}: tiny end-to-end run had wrong outputs")
        expect(set(result["metrics"]) == set(run.END_TO_END), f"{workload}: end-to-end metrics incomplete")
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: an end-to-end metric is 0")
        args.trace = 1
        first, _ = run.traced(args, small=True, check_split=False)
        second, _ = run.traced(args, small=True, check_split=False)
        expect(first["correct"] and second["correct"], f"{workload}: tiny traced run had wrong outputs")
        expect(set(first["metrics"]) == set(run.PER_LAYER), f"{workload}: per-layer metrics incomplete")
        counts = [k for k, unit in run.PER_LAYER.items() if unit in ("count", "ratio")]
        expect(
            all(first["metrics"][k] == second["metrics"][k] for k in counts),
            f"{workload}: counts differ between two traced runs",
        )
        print(f"ok   {workload}: tiny end-to-end and traced runs", flush=True)


def check_bare_directory() -> None:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/bench", ignore=shutil.ignore_patterns("__pycache__"))
        argv = [sys.executable, "bench/run.py", "--workload", "betti-q", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0, "the benchmark ran without the package source")
    expect('"metrics"' not in done.stdout, "the benchmark printed a result without the package source")


def main() -> int:
    check_contract()
    check_oracle()
    check_bare_directory()
    check_runs()
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
