"""Expected values for benchmark jobs, computed without the package under test.

Degrees here are dense tuples over the grading coordinates.  The one
independent source of truth is the Taylor K-polynomial of a monomial
quotient, K(S/I) = sum over subsets T of the generators of
(-1)^|T| t^deg lcm(T); every command the benchmark runs has an output
whose values are tied to it:

* ``kseries`` equals it on the window;
* ``betti`` has sum_i (-1)^i beta_{i,g} equal to its coefficient at g;
* ``koszul-verify`` homology is Tor against the residue field, so its
  alternating sums are the same coefficients;
* ``euler-check`` has both alternating sums equal to them;
* ``serre`` equals the product of the two factors' K-polynomials.
"""

from __future__ import annotations

import json
from itertools import combinations


def dense(sparse: list, width: int) -> tuple[int, ...]:
    """Dense tuple of a program degree given as [index, coefficient] pairs."""
    out = [0] * width
    for index, coeff in sparse:
        out[index - 1] = coeff
    return tuple(out)


def sparse(vector: tuple[int, ...]) -> list[list[int]]:
    return [[i, c] for i, c in enumerate(vector, start=1) if c]


def grlex_key(vector: tuple[int, ...]) -> tuple:
    """The program's documented serialization order: total, then dense coordinates."""
    return (sum(vector), vector)


def below(g: tuple[int, ...], ceilings: list[tuple[int, ...]]) -> bool:
    return any(all(a <= b for a, b in zip(g, u)) for u in ceilings)


def taylor_kpoly(module: dict, var_degrees: list[tuple[int, ...]], width: int) -> dict:
    """K-polynomial of a free module or a monomial quotient, from its job description.

    ``module`` is the job file's module object: ``free`` with shifts, or
    ``quotient`` with generators as [position, exponent] pairs.
    """
    poly: dict[tuple[int, ...], int] = {}
    if module["node"] == "free":
        for shift in module["shifts"]:
            g = dense(shift, width)
            poly[g] = poly.get(g, 0) + 1
    elif module["node"] == "quotient":
        gens = [dict((p, e) for p, e in gen) for gen in module["gens"]]
        for size in range(len(gens) + 1):
            for subset in combinations(gens, size):
                lcm: dict[int, int] = {}
                for gen in subset:
                    for pos, e in gen.items():
                        lcm[pos] = max(lcm.get(pos, 0), e)
                g = [0] * width
                for pos, e in lcm.items():
                    for k, d in enumerate(var_degrees[pos - 1]):
                        g[k] += e * d
                key = tuple(g)
                poly[key] = poly.get(key, 0) + (-1) ** size
    else:
        raise ValueError(f"no oracle for module node {module['node']!r}")
    return {g: c for g, c in poly.items() if c}


def product(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for g, cg in a.items():
        for h, ch in b.items():
            key = tuple(x + y for x, y in zip(g, h))
            out[key] = out.get(key, 0) + cg * ch
    return {g: c for g, c in out.items() if c}


def truncated(poly: dict, ceilings: list[tuple[int, ...]]) -> dict:
    return {g: c for g, c in poly.items() if below(g, ceilings)}


def check_output(command: str, stdout: str, expected_poly: dict, width: int) -> list[str]:
    """Problems found in one job's stdout against the windowed K-polynomial.

    ``expected_poly`` is already truncated to the job window (for
    ``serre``, it is the windowed product).  An empty list means the
    output agrees with the oracle.
    """
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    problems: list[str] = []

    def alternating_sums(per_degree: dict) -> None:
        for g in set(per_degree) | set(expected_poly):
            got = per_degree.get(g, 0)
            want = expected_poly.get(g, 0)
            if got != want:
                problems.append(f"alternating sum {got} at {g}, oracle says {want}")

    if command in ("kseries", "serre"):
        coeffs = {dense(d, width): c for d, c in payload.get("coeffs", [])}
        if coeffs != expected_poly:
            problems.append(f"coefficients {sorted(coeffs.items())} != oracle {sorted(expected_poly.items())}")
        if command == "serre" and payload.get("matches_tensor_product") is not True:
            problems.append("serre did not report matches_tensor_product: true")
    elif command == "betti":
        sums: dict[tuple[int, ...], int] = {}
        for i, d, beta in payload.get("rows", []):
            if beta <= 0:
                problems.append(f"nonpositive Betti number {beta} at index {i}")
            g = dense(d, width)
            sums[g] = sums.get(g, 0) + (-1) ** i * beta
        alternating_sums(sums)
    elif command == "koszul-verify":
        rows = payload.get("homology", [])
        alternating_sums({dense(d, width): sum((-1) ** i * h for i, h in enumerate(dims)) for d, dims in rows})
        exact = all(all(h == 0 for h in dims[1:]) for _, dims in rows)
        if payload.get("exact_in_positive_indices") is not exact:
            problems.append("exact_in_positive_indices disagrees with the listed homology")
    elif command == "euler-check":
        rows = payload.get("rows", [])
        if payload.get("equal") is not True:
            problems.append("euler-check did not report equal: true")
        for d, terms, homology in rows:
            if terms != homology:
                problems.append(f"terms {terms} != homology {homology} at {d}")
        alternating_sums({dense(d, width): homology for d, _, homology in rows})
    else:
        problems.append(f"no oracle for command {command!r}")
    return problems
