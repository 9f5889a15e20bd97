"""Every function and cache the traced benchmark wraps must still exist.

``bench/tracing.py`` names package functions and lru_caches by module and
attribute; a refactor that renames one would otherwise fail only the
benchmark's own self-test.  This installs the tracer, sees one call go
through it, and restores the package.
"""

import ast
from pathlib import Path

from bdfkalc import (
    ZERO,
    FreeModule,
    Monomial,
    MonomialQuotient,
    QSeries,
    RingSpec,
    Window,
    all_variables,
    candidate_degrees,
    degree,
    grothendieck,
    homology,
    linalg,
    series,
    variable_quotient,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "bdfkalc"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracing.package_caches()
    tracer = tracing.Tracer()
    original = homology.betti_table
    try:
        tracer.install(counting=True)
        module = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])
        homology.betti_table(module, RingSpec.standard(2), Window.of([degree(1, 1)]))
    finally:
        tracer.restore()
    assert homology.betti_table is original
    seen = tracer.by_name()
    assert {"homology.betti_table", "homology.complex_snapshot", "linalg.rank_q"} <= set(seen)


def test_series_layer_is_traced(monkeypatch):
    """The series spans and the per-call Degree and QSeries counters see real work.

    Renaming ``mul_q`` or ``QSeries._oracle``, or building degrees without
    ``Degree.__init__``, would leave these metrics at 0 in the benchmark.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    ring = RingSpec.standard(2)
    window = Window.of([degree(2, 2)])
    tracer = tracing.Tracer()
    try:
        tracer.install(counting=True)
        left = variable_quotient(ring, [1])
        right = FreeModule.of([degree(0, 1)])
        grothendieck.serre_product(left, right, ring, window)
        grothendieck.class_of(right, ring, window)
        geometric = QSeries.from_terms({ZERO: 1, degree(1): -1})
        series.truncate(series.invert(geometric), window)
    finally:
        tracer.restore()
    seen = tracer.by_name()
    assert {"series.mul_q", "series.invert", "grothendieck.serre_product", "grothendieck.class_of"} <= set(seen)
    assert tracer.counts["degrees.degree_objects"] > 0
    assert tracer.counts["series.qseries.coeff_calls"] > 0


def test_free_serre_factor_reaches_the_homology_engine(monkeypatch):
    """A free left factor goes through the Koszul homology engine too.

    Every serre job then counts its degrees in ``homology.degrees_visited``.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    ring = RingSpec.standard(2)
    tracer = tracing.Tracer()
    try:
        tracer.install(counting=True)
        left = FreeModule.of([ZERO, degree(1)])
        right = MonomialQuotient.of([Monomial(((1, 1), (2, 1)))])
        grothendieck.serre_product(left, right, ring, Window.of([degree(2, 2)]))
    finally:
        tracer.restore()
    assert {"grothendieck.serre_product", "homology.complex_snapshot"} <= set(tracer.by_name())
    assert tracer.counts["homology.degrees_visited"] > 0


def test_rank_spans_count_differentials_not_blocks(monkeypatch):
    """Each rank span sees one call per differential, however many blocks it splits into.

    The block split stays inside ``rank_mod_p`` and ``rank_fraction_free``,
    so ``linalg.rank_p.calls`` and ``linalg.rank_q.calls`` keep counting
    differentials.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    # two variables share each degree, so differentials split into several blocks
    ring = RingSpec.matrix_ring([2, 2])
    module = MonomialQuotient.of([Monomial(((1, 1), (3, 1)))])
    window = Window.of([degree(2, 2)])
    seq = all_variables(ring)
    split = [
        len(linalg.blocks(homology.koszul_differential(module, ring, seq, n, g)))
        for g in candidate_degrees(module.lower_bounds(ring), window)
        for n in range(1, homology.koszul_index_bound(module, ring, seq, g) + 1)
    ]
    assert max(split) > 1
    tracer = tracing.Tracer()
    try:
        tracer.install(counting=False)
        homology.betti_table(module, ring, window, characteristic=32003)
        mod_p = tracer.by_name()
        homology.betti_table(module, ring, window)
        both = tracer.by_name()
    finally:
        tracer.restore()
    built = mod_p["homology.koszul_differential"][0]
    assert built > 0 and "linalg.rank_q" not in mod_p
    assert mod_p["linalg.rank_p"][0] == built
    assert both["linalg.rank_p"][0] == built
    assert both["linalg.rank_q"][0] == both["homology.koszul_differential"][0] - built > 0


def _decorated_caches(path: Path):
    """(module, qualified name) of every function in the file decorated with lru_cache or cache."""

    def name_of(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    name_of(d) in ("lru_cache", "cache") for d in child.decorator_list
                ):
                    yield path.stem, qualified
                yield from walk(child, qualified + ".")

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


def test_every_lru_cache_is_cleared_by_the_tracer(monkeypatch):
    """The traced pass clears each package cache between jobs, so no job reuses another's work."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    found = {entry for path in sorted(SRC.glob("*.py")) for entry in _decorated_caches(path)}
    assert ("modules", "_graded_piece") in found
    assert found <= set(tracing.CACHES), sorted(found - set(tracing.CACHES))
