"""Benchmark of bdfkalc CLI jobs.

Run from the repository root:

    python3 bench/run.py --workload betti-q --seed 1 --seconds 60 --trace 0

With ``--trace 0`` it runs real ``python -m bdfkalc`` jobs as child
processes in a closed loop (one client, one job at a time, the next job
started when the previous one has exited, default CLI flags) for about
``--seconds`` seconds, and reports the end-to-end metrics.  With
``--trace 1`` it runs one pass of the workload in this process three
times (untraced, timed, counted) and reports the per-layer metrics.  Every
output is checked against ``jobs.py``; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output was right.
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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = {
    "setup_s": "s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "jobs_per_s": "1/s",
    "job_cpu_s.p50": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "cli.parse_s": "s",
    "cli.run_job.self_s": "s",
    "degrees.candidate_degrees.calls": "count",
    "degrees.candidate_degrees.s": "s",
    "degrees.candidate_degrees.out": "count",
    "degrees.degree_objects": "count",
    "degrees.add_ns": "ns",
    "degrees.leq_q_ns": "ns",
    "series.invert.s": "s",
    "series.mul_q.calls": "count",
    "series.mul_q.s": "s",
    "series.mul.calls": "count",
    "series.mul.s": "s",
    "series.qseries.coeff_calls": "count",
    "series.qseries.coeff_misses": "count",
    "modules.hilbert.s": "s",
    "modules.graded_piece.calls": "count",
    "modules.graded_piece.hit_ratio": "ratio",
    "modules.graded_piece.basis_elems": "count",
    "modules.monomials_of_degree.hit_ratio": "ratio",
    "linalg.rank_q.calls": "count",
    "linalg.rank_q.s": "s",
    "linalg.rank_p.calls": "count",
    "linalg.rank_p.s": "s",
    "linalg.rank.entries": "count",
    "linalg.rank.max_rows": "count",
    "linalg.rank.max_cols": "count",
    "linalg.rank.nonzero_ratio": "ratio",
    "linalg.matmul.calls": "count",
    "linalg.matmul.s": "s",
    "homology.koszul_differential.calls": "count",
    "homology.koszul_differential.s": "s",
    "homology.koszul_piece.misses": "count",
    "homology.degrees_visited": "count",
    "homology.nonzero_degree_ratio": "ratio",
    "homology.self_s": "s",
    "grothendieck.serre_product.s": "s",
    "grothendieck.class_of.s": "s",
    "grothendieck.product.s": "s",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 9  # set-up starts per run; setup_s is their median
JOB_TIMEOUT_S = 120
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
# counts only a counting pass takes (tracing.Tracer.install(counting=True))
COUNTED_ONLY = ("degrees.degree_objects", "series.qseries.coeff_calls", "series.qseries.coeff_misses")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    job: jobs.Job
    wall_s: float
    cpu_s: float
    rss_kib: int
    exit_code: int
    stdout: str
    stderr: str


def preflight() -> None:
    if not (SRC / "bdfkalc" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'bdfkalc'}; run from a full checkout")
    if not jobs.golden_dir().is_dir():
        raise BenchError(f"no golden files at {jobs.golden_dir()}")
    problems = jobs.cross_check()
    if problems:
        raise BenchError("pinned outputs disagree with the oracle: " + "; ".join(problems))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], env: dict, scratch: Path) -> tuple:
    """Run one child to exit with stdout fully read; wall, CPU and peak RSS from wait4."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss, proc.returncode, out.decode("utf-8", "replace"), stderr


def start_python(env: dict, scratch: Path) -> float:
    """Wall time of one process that only starts Python and imports bdfkalc.cli."""
    wall, _, _, code, _, stderr = run_process([sys.executable, "-c", "import bdfkalc.cli"], env, scratch)
    if code != 0:
        raise BenchError(f"importing bdfkalc.cli failed: {stderr.strip()}")
    return wall


def closed_loop(rounds: jobs.Rounds, seconds: float, env: dict, scratch: Path) -> tuple[list[Sample], float, list[float]]:
    """Whole rounds of jobs, one at a time, while the next round still fits in ``seconds``.

    Returns the job samples, the loop time and the set-up times.  The
    SETUP_REPEATS set-up starts are spread over the run between jobs, so
    they see the same machine as the jobs; their time is left out of the
    loop time.
    """
    start_python(env, scratch)  # compiles bytecode, which users pay for once
    samples: list[Sample] = []
    setup: list[float] = []
    round_times: list[float] = []
    paused = 0.0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in rounds.next_round():
            if len(setup) < SETUP_REPEATS and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(start_python(env, scratch))
                paused += setup[-1]
            spec = scratch / f"job-{len(samples)}.json"
            spec.write_text(job.spec_text, encoding="utf-8")
            argv = [sys.executable, "-m", "bdfkalc", "--spec", str(spec)] + job.flags()
            samples.append(Sample(job, *run_process(argv, env, scratch)))
            spec.unlink()
        now = time.perf_counter()
        round_times.append(now - round_start)
        if now - start + statistics.median(round_times) > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(start_python(env, scratch))
    return samples, now - start - paused, setup


def tail(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond): the highest nearest-rank percentile
    with at least TAIL_BEYOND samples above it, and never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return 50, statistics.median(ordered), n // 2


def source_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py")))


def git_sha() -> str | None:
    """Commit of the checkout, or None for a tree exported without .git."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, job_list: list[jobs.Job]) -> dict:
    flags = {}
    for job in job_list:
        flags.setdefault(job.kind, {"argv": ["python", "-m", "bdfkalc", "--spec", "JOB.json"] + job.flags(), "size": job.size})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": source_lines(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": flags,
    }


def report_failures(failures: list[str]) -> None:
    for line in failures[:10]:
        print(f"bench: wrong output: {line}", file=sys.stderr)
    if len(failures) > 10:
        print(f"bench: ... {len(failures) - 10} more", file=sys.stderr)


def end_to_end(args, small: bool = False) -> tuple[dict, list[str]]:
    """The closed-loop run; returns the result object and the lines to print before it."""
    WORK.mkdir(exist_ok=True)
    env = child_env()
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    try:
        samples, loop_s, setup = closed_loop(jobs.Rounds(args.workload, args.seed, small), args.seconds, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = []
    for s in samples:
        problems = s.job.check(s.exit_code, s.stdout)
        if problems:
            failures.append(f"{s.job.kind}: {'; '.join(problems)} {s.stderr.strip()[:200]}")
    walls = [s.wall_s for s in samples]
    percentile, tail_value, beyond = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_value,
        "jobs_per_s": len(samples) / loop_s,
        "job_cpu_s.p50": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mib": max(s.rss_kib for s in samples) / 1024,
    }
    lines = ["env " + json.dumps(environment(args, [s.job for s in samples]), sort_keys=True)]
    lines += [f"{name:<15} {value:12.6f} {END_TO_END[name]}" for name, value in metrics.items()]
    lines.append(f"{'fail_ratio':<15} {len(failures) / len(samples):12.6f} ({len(failures)} of {len(samples)} jobs)")
    lines.append(
        f"job_s.tail is p{percentile} of {len(samples)} jobs with {beyond} beyond; "
        f"setup_s is the median of {len(setup)} starts; loop ran {loop_s:.2f} s"
    )
    report_failures(failures)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()},
    }
    return result, lines


def check_layer_split(workload: str, layer: dict, by_name: dict) -> None:
    """Stop when the trace contradicts the known shape of a workload at the seed commit."""
    if workload == "kseries-series":
        moved = [k for k, v in layer.items() if k.startswith(("linalg.", "homology.")) and v]
        if moved:
            raise BenchError(f"kseries-series ran linalg or homology code: {', '.join(moved)}")
    if workload == "betti-q":
        busiest = max((s, name) for name, (_, s) in by_name.items() if not name.startswith("trace."))
        if busiest[1] != "linalg.rank_q":
            raise BenchError(f"linalg.rank_q is not the largest self time on betti-q; {busiest[1]} is")


def traced(args, small: bool = False, check_split: bool = True) -> tuple[dict, list[str]]:
    """Untraced, timed and counted in-process passes; returns the result and lines to print.

    Self times come from the timed pass, counts from the counted pass,
    which adds the per-call Degree and QSeries counters.  Every count both
    passes take must agree exactly.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    job_list = jobs.Rounds(args.workload, args.seed, small).next_round()
    untraced_s, outputs, _ = tracing.run_pass(job_list, None)
    timed = tracing.Tracer()
    timed_s, more, stats = tracing.run_pass(job_list, timed)
    outputs += more
    m_timed = tracing.layer_metrics(timed, stats)
    counted = tracing.Tracer()
    _, more, stats = tracing.run_pass(job_list, counted, counting=True)
    outputs += more
    m_counted = tracing.layer_metrics(counted, stats)
    failures = []
    for k, out in enumerate(outputs):
        job = job_list[k % len(job_list)]
        problems = job.check(0, out)
        if problems:
            failures.append(f"{job.kind}: {'; '.join(problems)}")

    is_count = [k for k in m_timed if PER_LAYER[k] in ("count", "ratio")]
    differ = [k for k in is_count if k not in COUNTED_ONLY and m_timed[k] != m_counted[k]]
    if differ:
        raise BenchError("counts differ between the timed and the counted pass: " + ", ".join(differ))
    metrics = {k: m_counted[k] if k in is_count else m_timed[k] for k in m_timed}
    metrics.update(tracing.degree_microbench(timed))
    metrics["trace.overhead_s"] = timed_s - untraced_s
    metrics = {k: metrics[k] for k in PER_LAYER}

    by_name = timed.by_name()
    split = tracing.layer_split(timed)
    total = sum(split.values())
    share = " ".join(f"{k} {v / total:.1%}" for k, v in sorted(split.items(), key=lambda kv: -kv[1]))
    if check_split:
        try:
            check_layer_split(args.workload, metrics, by_name)
        except BenchError as exc:
            raise BenchError(f"{exc}; split {args.workload}: {share}") from exc
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    timed.write_spans(spans_path)

    lines = ["env " + json.dumps(environment(args, job_list), sort_keys=True)]
    lines += [f"{name:<38} {metrics[name]:16.6f} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"split {args.workload}: {share} (self time of {total:.3f} s traced; untraced {untraced_s:.3f} s)")
    lines.append(f"spans: {len(timed.spans)} written to {spans_path.relative_to(ROOT)}")
    report_failures(failures)
    result = {
        "correct": not failures,
        "attempted": len(outputs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": PER_LAYER[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(jobs.WORKLOADS) + ["all"],
                        help="one workload, or 'all' for each in turn (one result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = list(jobs.WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        preflight()
        for args.workload in workloads:
            result, lines = traced(args) if args.trace else end_to_end(args)
            for line in lines:
                print(line)
            print(json.dumps(result, sort_keys=True), flush=True)
            status = status or (0 if result["correct"] else 1)
    except (BenchError, tracing.TraceError) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
