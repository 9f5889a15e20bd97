"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expected values come from independent oracles (dense convolution,
closed-form binomials, brute-force enumeration, hand expansions), never
from the code paths under test.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from bdfkalc import (
    RING_MODULE,
    ZERO,
    AugmentedKoszulComplex,
    FreeModule,
    KClass,
    KoszulTensorComplex,
    Monomial,
    MonomialIdeal,
    MonomialQuotient,
    QSeries,
    RingSpec,
    Window,
    add,
    betti_table,
    class_of,
    degree,
    eq_on_window,
    euler_check,
    free_from_series,
    hilbert,
    homology_profile,
    invert,
    kseries,
    leq_q,
    mul,
    mul_q,
    one_series,
    product,
    residue_field,
    ring_hilbert,
    serre_product,
    series_from_terms,
    truncate,
    variable_quotient,
)
from oracles import count_monomials, random_series, random_window

GOLDEN = Path(__file__).parent / "golden"


def report(number, title, started, limit=None):
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"criterion {number} ({title}): PASS [{elapsed:.2f}s]")


def test_criterion_1_series_ring_axioms():
    started = time.perf_counter()
    rng = random.Random(101)
    built = 0
    while built < 510:
        window = random_window(rng, 3, 2)
        a = random_series(rng, window, 3)
        b = random_series(rng, window, 3)
        c = random_series(rng, window, 3)
        built += 3

        ab = mul(a, b)
        assert eq_on_window(ab, mul(b, a), ab.window)

        left = mul(ab, c)
        right = mul(a, mul(b, c))
        common = left.window.intersect(right.window)
        if not common.is_empty:
            assert eq_on_window(left, right, common)

        dist_left = mul(a, add(b, c))
        dist_right = add(mul(a, b), mul(a, c))
        common = dist_left.window.intersect(dist_right.window)
        if not common.is_empty:
            assert eq_on_window(dist_left, dist_right, common)
    report(1, "series ring axioms, 510 random series", started, limit=5.0)


def test_criterion_2_inversion_round_trip():
    started = time.perf_counter()
    rng = random.Random(103)
    windows = [
        Window.of([degree(8)]),
        Window.of([degree(4, 4)]),
        Window.of([degree(3, 3, 2)]),
    ]
    for trial in range(100):
        window = windows[trial % len(windows)]
        coords = window.ceiling[0].max_index()
        terms = {ZERO: 1}
        while len(terms) < rng.randint(1, 8):
            g = degree(*(rng.randint(0, 3) for _ in range(coords)))
            if g != ZERO and window.contains(g):
                terms[g] = rng.choice([-3, -2, -1, 1, 2, 3])
        q = QSeries.from_terms(terms)
        product_series = mul_q(q, truncate(invert(q), window))
        assert eq_on_window(product_series, one_series(window), window)
    report(2, "inversion round trip, 100 random connected polynomials", started, limit=5.0)


def test_criterion_3_free_module_kseries_formula():
    started = time.perf_counter()
    rng = random.Random(107)
    ring = RingSpec.standard(2)
    window = Window.of([degree(3, 3)])
    spots = [degree(a, b) for a in range(4) for b in range(4)]
    for _ in range(40):
        shifts = [rng.choice(spots) for _ in range(rng.randint(0, 6))]
        free = FreeModule.of(shifts)
        multiplicities = {}
        for h in shifts:
            multiplicities[h] = multiplicities.get(h, 0) + 1
        expected = series_from_terms(multiplicities, window)
        computed = kseries(free, ring, window)
        assert eq_on_window(computed, expected, window)

        # two-sided inverse on these inputs
        assert free_from_series(KClass(computed)) == free
        assert free_from_series(KClass(expected)) == free
        rebuilt = class_of(free_from_series(KClass(expected)), ring, window)
        assert eq_on_window(rebuilt.series, expected, window)
    report(3, "free-module K-series formula and reconstruction", started)


def test_criterion_4_koszul_exactness():
    started = time.perf_counter()
    ceilings = {1: degree(5), 2: degree(3, 2), 3: degree(2, 2, 1), 4: degree(2, 1, 1, 1)}
    for m in (1, 2, 3, 4):
        ring = RingSpec.standard(m)
        window = Window.of([ceilings[m]])
        profile = homology_profile(KoszulTensorComplex.of(RING_MODULE, ring), window)
        for g, dims in profile:
            expected_h0 = 1 if g == ZERO else 0
            assert dims[0] == expected_h0, (m, str(g), dims)
            assert all(h == 0 for h in dims[1:]), (m, str(g), dims)

        table = betti_table(residue_field(ring), ring, window)
        for i in range(m + 1):
            assert table.total(i) == math.comb(m, i), (m, i)
        assert table.max_index() == m
    report(4, "Koszul exactness and residue-field Betti sums, m=1..4", started, limit=30.0)


def test_criterion_5_quotient_by_xy():
    started = time.perf_counter()
    ring = RingSpec.standard(2)
    window = Window.of([degree(4, 4)])
    module = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])

    expected = series_from_terms({ZERO: 1, degree(1, 1): -1}, window)
    assert eq_on_window(kseries(module, ring, window), expected, window)

    table = betti_table(module, ring, window)
    assert table.entries == ((0, ZERO, 1), (1, degree(1, 1), 1))
    report(5, "K-series and Betti table of the plane quotient", started, limit=2.0)


def _subsets(n):
    return list(
        itertools.chain.from_iterable(
            itertools.combinations(range(1, n + 1), size) for size in range(n + 1)
        )
    )


def test_criterion_6_serre_formula():
    started = time.perf_counter()
    ring = RingSpec.standard(3)
    window = Window.of([degree(3, 3, 3)])
    for A, B in itertools.product(_subsets(3), repeat=2):
        m = variable_quotient(ring, A)
        n = variable_quotient(ring, B)
        homological = serre_product(m, n, ring, window)
        tensor = product(class_of(m, ring, window), class_of(n, ring, window))
        assert homological == tensor, (A, B)
    report(6, "Serre's formula on all 64 variable-subset pairs", started, limit=20.0)


def test_criterion_7_tor_symmetry():
    started = time.perf_counter()
    ring = RingSpec.standard(3)
    window = Window.of([degree(3, 3, 3)])
    for A, B in itertools.product(_subsets(3), repeat=2):
        left = dict(
            homology_profile(
                KoszulTensorComplex.of(variable_quotient(ring, B), ring, A), window
            )
        )
        right = dict(
            homology_profile(
                KoszulTensorComplex.of(variable_quotient(ring, A), ring, B), window
            )
        )
        assert set(left) == set(right)
        for g, dims in left.items():
            other = right[g]
            width = max(len(dims), len(other))
            assert tuple(dims) + (0,) * (width - len(dims)) == tuple(other) + (0,) * (
                width - len(other)
            ), (A, B, str(g))
    report(7, "Tor symmetry through both Koszul routes", started)


def test_criterion_8_hilbert_additivity():
    started = time.perf_counter()
    rng = random.Random(109)
    ring = RingSpec.standard(2)
    window = Window.of([degree(4, 4)])
    full = truncate(ring_hilbert(ring), window)
    for _ in range(50):
        raw = set()
        for _ in range(rng.randint(1, 4)):
            g = Monomial.of([(1, rng.randint(0, 3)), (2, rng.randint(0, 3))])
            if g.entries:
                raw.add(g)
        gens = [g for g in raw if not any(o != g and leq_q(o, g) for o in raw)]
        if not gens:
            continue
        total = add(
            hilbert(MonomialIdeal.of(gens), ring, window),
            hilbert(MonomialQuotient.of(gens), ring, window),
        )
        assert eq_on_window(total, full, window)
    report(8, "Hilbert additivity for 50 random monomial ideals", started)


def test_criterion_9_matrix_ring_hilbert():
    started = time.perf_counter()
    columns = [2, 3, 1]
    ring = RingSpec.matrix_ring(columns)
    series = ring_hilbert(ring)
    var_degrees = [
        tuple(v.degree.coeff(i) for i in (1, 2, 3)) for v in ring.variables
    ]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                closed_form = 1
                for j, n in enumerate(columns):
                    alpha = (a, b, c)[j]
                    closed_form *= math.comb(alpha + n - 1, n - 1)
                brute = count_monomials(var_degrees, (a, b, c))
                assert brute == closed_form, (a, b, c)
                assert series.coeff(degree(a, b, c)) == closed_form, (a, b, c)
    report(9, "matrix-ring Hilbert coefficients vs stars-and-bars", started)


def test_criterion_10_euler_characteristic():
    started = time.perf_counter()
    ring = RingSpec.standard(2)
    window = Window.of([degree(3, 3)])
    cases = [
        RING_MODULE,
        residue_field(ring),
        MonomialQuotient.of([Monomial(((1, 1), (2, 1)))]),
    ]
    for module in cases:
        assert euler_check(KoszulTensorComplex.of(module, ring), window)
    assert euler_check(AugmentedKoszulComplex(ring), window)
    report(10, "Euler characteristic identity for R, k, R/(xy)", started)


def test_criterion_11_cli_determinism():
    started = time.perf_counter()
    cases = [
        ("koszul_m3.json", "koszul-verify", "json", "koszul_m3.json.golden"),
        ("betti_xy.json", "kseries", "json", "kseries_xy.json.golden"),
        ("betti_xy.json", "betti", "json", "betti_xy.json.golden"),
        ("serre_xz.json", "serre", "json", "serre_xz.json.golden"),
    ]
    for spec, command, output, golden in cases:
        expected = (GOLDEN / golden).read_bytes()
        for threads in ("1", "2", "4"):
            for _ in range(2):
                result = subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "bdfkalc",
                        "--spec",
                        str(GOLDEN / spec),
                        "--command",
                        command,
                        "--output",
                        output,
                        "--threads",
                        threads,
                    ],
                    capture_output=True,
                )
                assert result.returncode == 0, result.stderr
                assert result.stdout == expected, (spec, command, threads)
    report(11, "CLI golden files byte-identical across runs and threads", started)
