"""In-process traced pass: spans and counts at the seven layer boundaries.

The tracer rebinds each traced function at every module-level name that
refers to it (``homology`` calls ``rank`` through its own import, for
example), so a call is seen whichever module makes it.  Nothing under
``src/`` is edited; ``restore`` puts every name back.  A traced function,
cache or class hook the package no longer has is a ``TraceError``: a
refactor that renames one must update this file, rather than let its
metrics read 0.

Per-call counters on ``Degree`` and ``QSeries`` cost far more than the
calls they count, so a pass either times (spans and hooks only) or
counts (spans, hooks and the per-call counters); self times come from a
timing pass and those counts from a counting pass.

Spans are kept in memory as (name, start, end, parent, job) records.
With ``threads=1`` every call runs on the calling thread, so a single
stack gives each span an unambiguous parent.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import json
import operator
import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name) for plain spans around calls into a layer
SPANS = [
    ("cli", "parse_spec", "cli.parse_spec"),
    ("cli", "run_job", "cli.run_job"),
    ("degrees", "candidate_degrees", "degrees.candidate_degrees"),
    ("series", "mul_q", "series.mul_q"),
    ("series", "mul", "series.mul"),
    ("modules", "hilbert", "modules.hilbert"),
    ("modules", "graded_piece", "modules.graded_piece"),
    ("modules", "monomials_of_degree", "modules.monomials_of_degree"),
    ("linalg", "rank_fraction_free", "linalg.rank_q"),
    ("linalg", "rank_mod_p", "linalg.rank_p"),
    ("linalg", "matmul", "linalg.matmul"),
    ("homology", "koszul_piece", "homology.koszul_piece"),
    ("homology", "koszul_differential", "homology.koszul_differential"),
    ("homology", "_homology_dimensions", "homology.homology_dimensions"),
    ("homology", "_complex_snapshot", "homology.complex_snapshot"),
    ("homology", "betti_table", "homology.betti_table"),
    ("homology", "homology_profile", "homology.homology_profile"),
    ("homology", "euler_profile", "homology.euler_profile"),
    ("grothendieck", "serre_product", "grothendieck.serre_product"),
    ("grothendieck", "class_of", "grothendieck.class_of"),
    ("grothendieck", "product", "grothendieck.product"),
]

# caches cleared before every job, so in-process work equals a fresh CLI process
CACHES = [
    ("modules", "monomials_of_degree"),
    ("modules", "_graded_piece"),
    ("modules", "ring_hilbert"),
    ("modules", "ring_hilbert_inverse"),
    ("homology", "_koszul_piece"),
]

LAYERS = ("degrees", "series", "modules", "linalg", "homology", "grothendieck", "cli")


def _module(name: str):
    return importlib.import_module(f"bdfkalc.{name}")


class TraceError(Exception):
    """The traced pass could not observe what it promises to measure."""


def _attr(module: str, name: str):
    try:
        return getattr(_module(module), name)
    except AttributeError:
        raise TraceError(f"bdfkalc.{module} has no {name}; update bench/tracing.py") from None


def _own(cls, name: str):
    """``cls.name`` as defined on the class itself, the way the tracer patches it."""
    if name not in cls.__dict__:
        raise TraceError(f"{cls.__module__}.{cls.__name__} defines no {name}; update bench/tracing.py")
    return cls.__dict__[name]


def package_caches() -> dict:
    """The package's lru_caches by name; resolve them before wrappers are installed."""
    found = {}
    for module, name in CACHES:
        cached = _attr(module, name)
        if not (hasattr(cached, "cache_clear") and hasattr(cached, "cache_info")):
            raise TraceError(f"bdfkalc.{module}.{name} is no longer an lru_cache; update bench/tracing.py")
        found[name] = cached
    return found


class Tracer:
    """Installs wrappers, records spans and counts, and restores the package."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.job = 0
        self.counts: Counter = Counter()
        self.candidate_degrees: dict = {}  # insertion-ordered set of produced degrees
        self._restore: list[tuple[object, str, object]] = []
        self._originals: dict[int, str] = {}

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def hook(work, *args, **kwargs):
            # a span of its own, so hook time is not charged to the caller
            record = ["trace.hook", time.perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            work(*args, **kwargs)
            record[2] = time.perf_counter()
            spans.append(record)

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, *args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                hook(after, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def rebind(self, original, replacement) -> int:
        """Point every package-level name bound to ``original`` at ``replacement``."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "bdfkalc" or mod_name.startswith("bdfkalc.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))
                    bound += 1
        return bound

    def patch_class(self, cls, attr: str, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, counting: bool) -> None:
        """Wrap every traced function; with ``counting``, also the Degree and QSeries counters."""
        hooks = {
            "degrees.candidate_degrees": (None, self._after_candidates),
            "modules.graded_piece": (None, self._after_piece),
            "linalg.rank_q": (self._matrix_stats, None),
            "linalg.rank_p": (self._matrix_stats, None),
            "homology.homology_dimensions": (None, lambda dims: self._visited(dims)),
            "homology.complex_snapshot": (None, lambda pair: self._visited(pair[1])),
        }
        for module, attr, name in SPANS:
            original = _attr(module, attr)
            before, after = hooks.get(name, (None, None))
            self._originals[id(original)] = f"{module}.{attr}"
            self.rebind(original, self.wrap(name, original, before, after))
        self._install_invert()
        if counting:
            self._install_qseries_counters()
            self._install_degree_counter()
        missed = self.leftover_names()
        if missed:
            self.restore()
            raise TraceError("calls would bypass the tracer through " + ", ".join(missed))

    def _install_invert(self) -> None:
        invert = _attr("series", "invert")

        def traced_invert(q, *args, **kwargs):
            result = invert(q, *args, **kwargs)
            try:
                oracle = result._oracle
            except AttributeError:
                raise TraceError("series.invert no longer returns a QSeries with an _oracle; "
                                 "update bench/tracing.py") from None
            # time inside the inverse's coefficient oracle
            result._oracle = self.wrap("series.invert", oracle)
            return result

        self._originals[id(invert)] = "series.invert"
        self.rebind(invert, traced_invert)

    def _install_qseries_counters(self) -> None:
        qseries = _attr("series", "QSeries")
        coeff, init = _own(qseries, "coeff"), _own(qseries, "__init__")
        counts = self.counts

        def counted_coeff(obj, *args, **kwargs):
            counts["series.qseries.coeff_calls"] += 1
            return coeff(obj, *args, **kwargs)

        def counted_init(obj, oracle, *args, **kwargs):
            def counted_oracle(*a, **k):
                counts["series.qseries.coeff_misses"] += 1
                return oracle(*a, **k)

            init(obj, counted_oracle, *args, **kwargs)

        self.patch_class(qseries, "coeff", counted_coeff)
        self.patch_class(qseries, "__init__", counted_init)

    def _install_degree_counter(self) -> None:
        degree = _attr("degrees", "Degree")
        init = _own(degree, "__init__")
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts["degrees.degree_objects"] += 1
            init(obj, *args, **kwargs)

        self.patch_class(degree, "__init__", counted_init)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def leftover_names(self) -> list[str]:
        """Package names still bound to an unwrapped traced function (should be none)."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "bdfkalc" or mod_name.startswith("bdfkalc.")):
                continue
            for attr, value in vars(module).items():
                if id(value) in self._originals:
                    found.append(f"{mod_name}.{attr} -> {self._originals[id(value)]}")
        return found

    # -- hooks, each timed as a trace.hook span

    def _after_candidates(self, result) -> None:
        self.counts["degrees.candidate_degrees.out"] += len(result)
        for g in result:
            self.candidate_degrees.setdefault(g, None)

    def _after_piece(self, piece) -> None:
        self.counts["modules.graded_piece.basis_elems"] += len(piece.basis)

    def _matrix_stats(self, matrix, *args, **kwargs) -> None:
        rows = len(matrix)
        cols = len(matrix[0]) if rows else 0
        c = self.counts
        c["linalg.rank.entries"] += rows * cols
        c["linalg.rank.nonzero"] += sum(len(row) - row.count(0) for row in matrix)
        c["linalg.rank.max_rows"] = max(c["linalg.rank.max_rows"], rows)
        c["linalg.rank.max_cols"] = max(c["linalg.rank.max_cols"], cols)

    def _visited(self, homology) -> None:
        self.counts["homology.degrees_visited"] += 1
        if any(homology):
            self.counts["homology.nonzero_degrees"] += 1

    # -- results ---------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[k]
        return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "job": job}) + "\n")


def run_pass(jobs, tracer: Tracer | None, counting: bool = False) -> tuple[float, list[str], dict]:
    """Parse and run each job in process, as the CLI would with ``--threads 1``.

    Returns the wall time, the stdout of each job and the summed cache
    statistics.  With a tracer, its wrappers are active for the pass, and
    with ``counting`` its per-call counters too.
    """
    cli = _module("cli")
    outputs = []
    stats: Counter = Counter()
    caches = package_caches()
    try:
        if tracer is not None:
            tracer.install(counting)
        start = time.perf_counter()
        for k, job in enumerate(jobs):
            for cached in caches.values():
                cached.cache_clear()
            if tracer is not None:
                tracer.job = k
            # look the entry points up on each call, so installed wrappers are used
            spec = cli.parse_spec(
                job.spec_text, command=job.command, output="json", characteristic=job.characteristic, threads=1
            )
            outputs.append(cli.run_job(spec))
            for name, cached in caches.items():
                info = cached.cache_info()
                stats[f"{name}.hits"] += info.hits
                stats[f"{name}.misses"] += info.misses
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
        for cached in caches.values():
            cached.cache_clear()
    return wall, outputs, stats


def per_call_ns(fn, pairs, repeats: int = 5, calls: int = 40000) -> float:
    """Median over repeats of the time per call of fn(a, b) across the pairs."""
    if not pairs:
        return 0.0
    loops = max(1, calls // len(pairs))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            for a, b in pairs:
                fn(a, b)
        samples.append((time.perf_counter() - start) / (loops * len(pairs)) * 1e9)
    return statistics.median(samples)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, stats: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    spans = tracer.by_name()
    c = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    def hit_ratio(cache):
        hits, misses = stats[f"{cache}.hits"], stats[f"{cache}.misses"]
        return ratio(hits, hits + misses)

    return {
        "cli.parse_s": self_s("cli.parse_spec"),
        "cli.run_job.self_s": self_s("cli.run_job"),
        "degrees.candidate_degrees.calls": calls("degrees.candidate_degrees"),
        "degrees.candidate_degrees.s": self_s("degrees.candidate_degrees"),
        "degrees.candidate_degrees.out": c["degrees.candidate_degrees.out"],
        "degrees.degree_objects": c["degrees.degree_objects"],
        "series.invert.s": self_s("series.invert"),
        "series.mul_q.calls": calls("series.mul_q"),
        "series.mul_q.s": self_s("series.mul_q"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.s": self_s("series.mul"),
        "series.qseries.coeff_calls": c["series.qseries.coeff_calls"],
        "series.qseries.coeff_misses": c["series.qseries.coeff_misses"],
        "modules.hilbert.s": self_s("modules.hilbert"),
        "modules.graded_piece.calls": calls("modules.graded_piece"),
        "modules.graded_piece.hit_ratio": hit_ratio("_graded_piece"),
        "modules.graded_piece.basis_elems": c["modules.graded_piece.basis_elems"],
        "modules.monomials_of_degree.hit_ratio": hit_ratio("monomials_of_degree"),
        "linalg.rank_q.calls": calls("linalg.rank_q"),
        "linalg.rank_q.s": self_s("linalg.rank_q"),
        "linalg.rank_p.calls": calls("linalg.rank_p"),
        "linalg.rank_p.s": self_s("linalg.rank_p"),
        "linalg.rank.entries": c["linalg.rank.entries"],
        "linalg.rank.max_rows": c["linalg.rank.max_rows"],
        "linalg.rank.max_cols": c["linalg.rank.max_cols"],
        "linalg.rank.nonzero_ratio": ratio(c["linalg.rank.nonzero"], c["linalg.rank.entries"]),
        "linalg.matmul.calls": calls("linalg.matmul"),
        "linalg.matmul.s": self_s("linalg.matmul"),
        "homology.koszul_differential.calls": calls("homology.koszul_differential"),
        "homology.koszul_differential.s": self_s("homology.koszul_differential"),
        "homology.koszul_piece.misses": stats["_koszul_piece.misses"],
        "homology.degrees_visited": c["homology.degrees_visited"],
        "homology.nonzero_degree_ratio": ratio(c["homology.nonzero_degrees"], c["homology.degrees_visited"]),
        "homology.self_s": sum(s for name, (_, s) in spans.items() if name.startswith("homology.")),
        "grothendieck.serre_product.s": self_s("grothendieck.serre_product"),
        "grothendieck.class_of.s": self_s("grothendieck.class_of"),
        "grothendieck.product.s": self_s("grothendieck.product"),
    }


def layer_split(tracer: Tracer) -> dict[str, float]:
    """Total self seconds per layer."""
    split = dict.fromkeys(LAYERS + ("trace",), 0.0)
    for name, (_, self_s) in tracer.by_name().items():
        split[name.split(".")[0]] += self_s
    return split


def degree_microbench(tracer: Tracer, limit: int = 512) -> dict[str, float]:
    """ns per Degree addition and per leq_q, over the pass's own candidate degrees."""
    found = list(tracer.candidate_degrees)[:limit]
    pairs = list(zip(found, found[1:] + found[:1]))
    return {
        "degrees.add_ns": per_call_ns(operator.add, pairs),
        "degrees.leq_q_ns": per_call_ns(_attr("degrees", "leq_q"), pairs),
    }
