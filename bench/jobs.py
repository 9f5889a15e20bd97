"""Benchmark workloads: seeded job variants and the check of each job's output.

A workload is a list of job templates.  Each template builds one job
from a random generator: the seed only picks a variant isomorphic to the
base job (same cost, same answer up to relabelling) and, in a mix, the
order of jobs.  The program under test only ever sees the generated job
file and the CLI flags.

Expected outputs come from three places, all independent of the program
at run time:

* ``expected.json`` pins the stdout of each full-size base job; it is
  checked against the oracle at start-up (``cross_check``);
* the golden files under ``tests/golden`` pin the golden jobs;
* ``oracle.py`` recomputes the values every output must agree with.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
PRIME = 32003

# k[x[i,j]] with three variables of degree e1 and three of degree e2,
# modulo x[1,1]x[1,2], x[2,1]x[2,2], x[3,1]^2
MATRIX_RING = {"columns": [3, 3]}
MATRIX_GENS = [[[1, 1], [4, 1]], [[2, 1], [5, 1]], [[3, 2]]]
MATRIX_COLUMNS = ([1, 2, 3], [4, 5, 6])


@dataclass(frozen=True)
class Job:
    """One CLI invocation and everything needed to judge its stdout."""

    kind: str
    command: str
    spec_text: str
    characteristic: int = 0
    expected: str | None = None  # exact stdout, when pinned for this size
    size: str = ""

    def flags(self) -> list[str]:
        """CLI flags after ``--spec FILE``; everything else stays at its default."""
        extra = ["--char", str(self.characteristic)] if self.characteristic else []
        return ["--command", self.command] + extra

    def check(self, exit_code: int, stdout: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        problems = []
        if self.expected is not None and stdout != self.expected:
            problems.append("stdout differs from the pinned expected output")
        poly, width = oracle_poly(json.loads(self.spec_text), self.command)
        return problems + oracle.check_output(self.command, stdout, poly, width)


def oracle_poly(spec: dict, command: str) -> tuple[dict, int]:
    """Windowed K-polynomial the job's output is tied to, and the grading width."""
    ring = spec["ring"]
    if "columns" in ring:
        width = len(ring["columns"])
        var_degrees = [
            tuple(1 if k == j else 0 for k in range(width))
            for j, height in enumerate(ring["columns"])
            for _ in range(height)
        ]
    else:
        width = max(i for v in ring["variables"] for i, _ in v["degree"])
        var_degrees = [oracle.dense(v["degree"], width) for v in ring["variables"]]
    width = max([width] + [i for u in spec["window"] for i, _ in u])
    var_degrees = [d + (0,) * (width - len(d)) for d in var_degrees]
    poly = oracle.taylor_kpoly(spec["module"], var_degrees, width)
    if command == "serre":
        poly = oracle.product(poly, oracle.taylor_kpoly(spec["module2"], var_degrees, width))
    ceilings = [oracle.dense(u, width) for u in spec["window"]]
    return oracle.truncated(poly, ceilings), width


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _window(ceiling: tuple[int, ...]) -> list:
    return [oracle.sparse(ceiling)]


def _pinned(key: str) -> str:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)[key]


# --- matrix-ring jobs: relabel variables within each column -------------

def _matrix_spec(rng: random.Random | None, ceiling: tuple[int, int]) -> dict:
    relabel = {p: p for p in range(1, 7)}
    gens = [list(map(list, gen)) for gen in MATRIX_GENS]
    if rng is not None:
        for column in MATRIX_COLUMNS:
            image = column[:]
            rng.shuffle(image)
            relabel.update(zip(column, image))
        rng.shuffle(gens)
    gens = [sorted([relabel[p], e] for p, e in gen) for gen in gens]
    return {
        "ring": MATRIX_RING,
        "module": {"node": "quotient", "gens": gens},
        "window": _window(ceiling),
    }


def _matrix_job(kind, command, characteristic, full, tiny, pin):
    """Template for a matrix-ring job; relabelling leaves every output degree unchanged."""

    def build(rng: random.Random | None, small: bool) -> Job:
        ceiling = tiny if small else full
        return Job(
            kind,
            command,
            json.dumps(_matrix_spec(rng, ceiling)),
            characteristic,
            None if small else _pinned(pin),
            f"window {ceiling}",
        )

    return build


# --- standard-ring jobs: permute the variables ----------------------------

def _standard_ring(perm: list[int]) -> dict:
    # variable x_i has degree e_perm[i-1]
    return {
        "variables": [
            {"id": f"x{i}", "degree": [[perm[i - 1], 1]]} for i in range(1, len(perm) + 1)
        ]
    }


def _permuted_output(stdout: str, perm: list[int]) -> str:
    """The base job's stdout with every degree carried along the permutation."""
    width = len(perm)

    def move(sparse_degree: list) -> tuple[int, ...]:
        vector = oracle.dense(sparse_degree, width)
        out = [0] * width
        for i, c in enumerate(vector):
            out[perm[i] - 1] = c
        return tuple(out)

    def degrees(items: list) -> list:
        return [oracle.sparse(g) for g in sorted(map(move, items), key=oracle.grlex_key)]

    payload = json.loads(stdout)
    coeffs = sorted(((move(d), c) for d, c in payload["coeffs"]), key=lambda t: oracle.grlex_key(t[0]))
    payload["coeffs"] = [[oracle.sparse(g), c] for g, c in coeffs]
    payload["window"] = degrees(payload["window"])
    payload["lower_bounds"] = degrees(payload["lower_bounds"])
    return _dump(payload)


def _standard_job(kind, command, characteristic, modules, full, tiny, pin):
    """Template for a job over k[x1,x2,x3]; the expected output is permuted to match."""

    def build(rng: random.Random | None, small: bool) -> Job:
        perm = [1, 2, 3]
        if rng is not None:
            rng.shuffle(perm)
        ceiling = tiny if small else full
        spec = {"ring": _standard_ring(perm), "window": _window(ceiling)}
        for key, gens in modules.items():
            spec[key] = {"node": "quotient", "gens": gens}
        expected = None if small else _permuted_output(_pinned(pin), perm)
        return Job(kind, command, json.dumps(spec), characteristic, expected, f"window {ceiling}")

    return build


# --- golden jobs: verbatim, compared byte for byte ------------------------

def _golden_job(kind, command, spec_name, golden_name):
    def build(rng: random.Random | None, small: bool) -> Job:
        golden = golden_dir()
        return Job(
            kind,
            command,
            (golden / spec_name).read_text(encoding="utf-8"),
            0,
            (golden / golden_name).read_text(encoding="utf-8"),
            "golden",
        )

    return build


def golden_dir() -> Path:
    return HERE.parent / "tests" / "golden"


WORKLOADS = {
    "betti-q": [
        _matrix_job("betti-q", "betti", 0, (4, 4), (2, 2), "betti-q"),
    ],
    "kseries-series": [
        _standard_job(
            "kseries", "kseries", 0,
            {"module": [[[1, 1], [2, 1]], [[2, 1], [3, 1]]]},
            (8, 8, 8), (3, 3, 3), "kseries",
        ),
    ],
    "modp-mix": [
        _golden_job("golden-kseries", "kseries", "betti_xy.json", "kseries_xy.json.golden"),
        _golden_job("golden-betti", "betti", "betti_xy.json", "betti_xy.json.golden"),
        _golden_job("golden-serre", "serre", "serre_xz.json", "serre_xz.json.golden"),
        _golden_job("golden-koszul", "koszul-verify", "koszul_m3.json", "koszul_m3.json.golden"),
        _matrix_job("betti-p", "betti", PRIME, (4, 4), (2, 2), "betti-p"),
        _matrix_job("euler-p", "euler-check", PRIME, (3, 3), (2, 2), "euler-p"),
        _standard_job(
            "serre-p", "serre", PRIME,
            {"module": [[[1, 1]]], "module2": [[[2, 1], [3, 1]]]},
            (5, 5, 5), (2, 2, 2), "serre-p",
        ),
    ],
}


class Rounds:
    """Seeded stream of job rounds: each round runs every template once, in a drawn order."""

    def __init__(self, workload: str, seed: int, small: bool = False):
        self.templates = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")
        self.small = small

    def next_round(self) -> list[Job]:
        order = list(range(len(self.templates)))
        self.rng.shuffle(order)
        return [self.templates[k](self.rng, self.small) for k in order]


def cross_check() -> list[str]:
    """Check every pinned and golden output against the oracle; return the problems."""
    problems = []
    for workload, templates in WORKLOADS.items():
        for template in templates:
            job = template(None, False)
            for problem in job.check(0, job.expected):
                problems.append(f"{workload}/{job.kind}: {problem}")
    return problems
