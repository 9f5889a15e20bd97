"""Every function and cache the traced benchmark wraps must still exist.

``bench/tracing.py`` names package functions and lru_caches by module and
attribute; a refactor that renames one would otherwise fail only the
benchmark's own self-test.  This installs the tracer, sees one call go
through it, and restores the package.
"""

from pathlib import Path

from bdfkalc import Monomial, MonomialQuotient, RingSpec, Window, degree, homology

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
