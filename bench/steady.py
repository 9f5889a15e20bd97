"""Steadiness check: do two sets of runs of the same code agree within the bounds?

Run from the repository root:

    python3 bench/steady.py [--workload NAME ...]

For each workload it makes two sets of ten end-to-end runs of
``bench/run.py``, with seeds 1-10 and 11-20 and the ``run_seconds`` of
``BENCHMARK.json``.  For each end-to-end metric and set it reports the
median and the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  A spread must stay within the
metric's bound (``setup_s`` is exempt) and is called steady below a third
of it.  The two sets' medians must differ by at most the bound, either
way.  Then two traced runs with seed 1 must report identical count and
ratio metrics.  Each run's result is appended to
``.bench_work/steady.jsonl``.  The exit code is 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LOG = ROOT / ".bench_work" / "steady.jsonl"
RUNS = 10  # runs per set; set 1 uses seeds 1-10, set 2 seeds 11-20


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    record = {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode, "result": result}
    with open(LOG, "a", encoding="utf-8") as log:
        log.write(json.dumps(record, sort_keys=True) + "\n")
    if result is None:
        print(f"  seed {seed}: exit {done.returncode}: {done.stderr.strip()[-400:]}", flush=True)
    return record


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def check_workload(workload: str, spec: dict) -> bool:
    seconds = spec["run_seconds"]
    ok = True
    medians: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for s in range(2):
        seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
        results = [run_once(workload, seed, seconds, 0)["result"] for seed in seeds]
        if any(r is None or not r["correct"] for r in results):
            print(f"{workload} set {s + 1}: a run failed or gave a wrong output")
            return False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            medians[name].append(median)
            exempt = name == "setup_s"
            verdict = "steady" if share < bound / 3 else ("within" if share <= bound else "TOO WIDE")
            if verdict == "TOO WIDE" and not exempt:
                ok = False
            note = " (exempt)" if exempt else ""
            print(f"{workload:<15} set {s + 1} {name:<14} median {median:12.6f} {metric['unit']:<4} "
                  f"spread {share:7.2%} bound {bound:.0%} {verdict}{note}", flush=True)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first, second = medians[name]
        change = (second - first) / first
        agree = abs(change) <= bound
        ok = ok and agree
        print(f"{workload:<15} set 2 vs 1 {name:<14} change {change:+7.2%} bound {bound:.0%} "
              f"{'agree' if agree else 'DISAGREE'}", flush=True)
    return ok


def check_counts(workload: str, spec: dict) -> bool:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    results = [run_once(workload, 1, spec["run_seconds"], 1)["result"] for _ in range(2)]
    if any(r is None or not r["correct"] for r in results):
        print(f"{workload}: a traced run failed or gave a wrong output")
        return False
    differ = [
        name for name, unit in units.items()
        if unit in ("count", "ratio") and results[0]["metrics"][name] != results[1]["metrics"][name]
    ]
    print(f"{workload:<15} traced counts {'repeat exactly' if not differ else 'DIFFER: ' + ', '.join(differ)}")
    return not differ


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    LOG.parent.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload or names:
        ok = check_workload(workload, spec) and ok
        ok = check_counts(workload, spec) and ok
    print("steady: all checks hold" if ok else "steady: some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
