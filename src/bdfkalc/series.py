"""Exact integer series on degree windows.

Two kinds of series appear.  A :class:`LaurentSeries` is a finite table of
coefficients, valid exactly on a window region; reading outside the window
is an error rather than a silent zero, because a truncated series knows
nothing there.  A :class:`QSeries` is a total, lazily memoized coefficient
oracle supported on the nonnegative orthant; ring-level series (a ring's
Hilbert series, and its inverse, a finite polynomial built by ``from_terms``)
are of this kind so that products against windowed series stay exact on
the windowed factor's full window.  A polynomial keeps its finite table of
terms, and ``invert`` reads only those terms.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .degrees import (
    FULL_Q,
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    WindowError,
    candidate_degrees,
    grlex_sorted,
    leq_q,
)


class NotInvertibleError(ValueError):
    """Inversion needs a polynomial with constant coefficient exactly 1."""


class QSeries:
    """Integer series supported on nonnegative degrees, evaluated lazily.

    Coefficients come from a deterministic oracle and are memoized.
    Degrees outside the nonnegative orthant return 0 without consulting
    the oracle.  ``terms`` is the finite table of a polynomial built by
    ``from_terms``, and None for any other oracle.
    """

    __slots__ = ("_oracle", "_memo", "description", "terms")

    def __init__(
        self,
        oracle: Callable[[Degree], int],
        description: str = "series",
        terms: dict[Degree, int] | None = None,
    ):
        self._oracle = oracle
        self._memo: dict[Degree, int] = {}
        self.description = description
        self.terms = terms

    def coeff(self, g: Degree) -> int:
        if not g.is_nonnegative():
            return 0
        try:
            return self._memo[g]
        except KeyError:
            value = self._memo[g] = int(self._oracle(g))
            return value

    @staticmethod
    def from_terms(terms: Mapping[Degree, int], description: str = "polynomial") -> "QSeries":
        for g in terms:
            if not g.is_nonnegative():
                raise ValueError(f"term at {g} lies outside the nonnegative orthant")
        table = {g: int(c) for g, c in terms.items() if c}
        return QSeries(lambda g: table.get(g, 0), description, table)

    @staticmethod
    def one() -> "QSeries":
        return QSeries.from_terms({ZERO: 1}, "1")

    def __repr__(self) -> str:
        return f"QSeries({self.description})"


class LaurentSeries:
    """Sparse exact coefficients on a truncation window.

    Every stored key lies in the window region and in the declared support
    cones; zero coefficients are never stored.  ``terms`` lists the
    coefficients in graded-lex order, which fixes the serialization.
    """

    __slots__ = ("window", "support", "terms", "_table")

    def __init__(
        self,
        window: Window,
        support: SupportDescriptor,
        coeffs: Mapping[Degree, int],
    ):
        table: dict[Degree, int] = {}
        for g, c in coeffs.items():
            if c == 0:
                continue
            if not window.contains(g):
                raise ValueError(f"coefficient at {g} lies outside the window")
            if not support.contains(g):
                raise ValueError(f"coefficient at {g} lies outside the declared support")
            table[g] = int(c)
        self.window = window
        self.support = support
        self._table = table
        self.terms = tuple((g, table[g]) for g in grlex_sorted(table))

    def coeff(self, g: Degree) -> int:
        if not self.window.contains(g):
            raise WindowError(f"degree {g} is outside the valid window")
        return self._table.get(g, 0)

    @property
    def is_zero(self) -> bool:
        return not self._table

    def __eq__(self, other: object) -> bool:
        """Structural equality; for mathematical comparison use eq_on_window."""
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.window == other.window
            and self.support == other.support
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.window, self.support, self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "LaurentSeries(0)"
        body = " + ".join(f"{c}*t^({g})" for g, c in self.terms[:6])
        tail = " + ..." if len(self.terms) > 6 else ""
        return f"LaurentSeries({body}{tail})"

    def to_json(self) -> dict:
        return {
            "window": [u.to_json() for u in self.window.ceiling],
            "lower_bounds": [lb.to_json() for lb in self.support.lower_bounds],
            "coeffs": [[g.to_json(), c] for g, c in self.terms],
        }


def series_from_terms(
    coeffs: Mapping[Degree, int],
    window: Window,
    support: SupportDescriptor | None = None,
) -> LaurentSeries:
    """Build a windowed series, inferring support lower bounds when absent."""
    if support is None:
        support = SupportDescriptor.of(g for g, c in coeffs.items() if c)
    return LaurentSeries(window, support, coeffs)


def zero_series(window: Window) -> LaurentSeries:
    return LaurentSeries(window, SupportDescriptor(), {})


def one_series(window: Window) -> LaurentSeries:
    return LaurentSeries(window, FULL_Q, {ZERO: 1})


def monomial_series(g: Degree, window: Window, coefficient: int = 1) -> LaurentSeries:
    return LaurentSeries(window, SupportDescriptor.of([g]), {g: coefficient})


def add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Coefficientwise sum on the window intersection."""
    window = a.window.intersect(b.window)
    if window.is_empty:
        raise WindowError("summand windows do not intersect")
    sums: dict[Degree, int] = {}
    for g, c in a.terms + b.terms:
        sums[g] = sums.get(g, 0) + c
    kept = {g: c for g, c in sums.items() if c and window.contains(g)}
    return LaurentSeries(window, a.support.union(b.support), kept)


def negate(a: LaurentSeries) -> LaurentSeries:
    return LaurentSeries(a.window, a.support, {g: -c for g, c in a.terms})


def _product_window(a: LaurentSeries, b: LaurentSeries) -> Window:
    # below every translate of the partner window by a support lower bound,
    # all pairs contributing to a coefficient are readable from the factors
    window = a.window.intersect(b.window)
    for la in a.support.lower_bounds:
        window = window.intersect(b.window.translate(la))
    for lb in b.support.lower_bounds:
        window = window.intersect(a.window.translate(lb))
    return window


def mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Convolution product, valid on the conservative window.

    The coefficient at g is the finite sum of products over all ways of
    writing g as u + v with u and v in the two supports; on the returned
    window every contributing pair lies inside the factors' windows, so
    the stored terms determine the product exactly.
    """
    window = _product_window(a, b)
    if window.is_empty:
        raise WindowError("factor windows do not intersect")
    acc: dict[Degree, int] = {}
    for u, cu in a.terms:
        for v, cv in b.terms:
            g = u + v
            acc[g] = acc.get(g, 0) + cu * cv
    kept = {g: c for g, c in acc.items() if c and window.contains(g)}
    return LaurentSeries(window, a.support + b.support, kept)


def reach(window: Window, support: SupportDescriptor) -> Window:
    """The window moved down by each support lower bound: the degrees u that reach it as u plus a degree of the support."""
    return Window.of(top - lb for top in window.ceiling for lb in support.lower_bounds)


def mul_q(q: QSeries, s: LaurentSeries) -> LaurentSeries:
    """Product of a nonnegative series with a windowed series, exact on its window.

    A term q_u * s_v lands at g = u + v with v above a support lower bound
    lb, so a g in the window needs u only in ``reach(s.window, s.support)``.
    The loop convolves q, truncated there, with the stored terms of s.
    """
    coeffs: dict[Degree, int] = {}
    for u, cu in truncate(q, reach(s.window, s.support)).terms:
        for v, cv in s.terms:
            g = u + v
            if s.window.contains(g):
                coeffs[g] = coeffs.get(g, 0) + cu * cv
    return LaurentSeries(s.window, s.support, coeffs)


def invert(q: QSeries) -> QSeries:
    """Two-sided inverse of a polynomial with constant coefficient 1.

    The inverse f satisfies f(0) = 1 and f(u) = -sum q_t f(u - t) over the
    polynomial's terms t != 0 with t <= u, so each coefficient reads one
    smaller degree per term.  Values are memoized, and degrees still
    missing wait on an explicit stack, since the chain down to 0 is as
    long as the total degree.
    """
    if q.terms is None:
        raise NotInvertibleError(f"only a polynomial can be inverted, not {q.description}")
    if q.terms.get(ZERO) != 1:
        raise NotInvertibleError("constant coefficient must be 1 to invert")
    steps = [(t, c) for t, c in q.terms.items() if t != ZERO]
    known: dict[Degree, int] = {ZERO: 1}

    def entry(g: Degree) -> int:
        stack = [g]
        while stack:
            u = stack.pop()
            if u in known:
                continue
            below = [(u - t, c) for t, c in steps if leq_q(t, u)]
            missing = [v for v, _ in below if v not in known]
            if missing:
                stack += [u, *missing]
            else:
                known[u] = -sum(c * known[v] for v, c in below)
        return known[g]

    return QSeries(entry, f"({q.description})^-1")


def truncate(q: QSeries, window: Window) -> LaurentSeries:
    """The windowed shadow of a nonnegative series: a polynomial's terms inside the window, or each window degree of a lazy one."""
    if q.terms is not None:
        coeffs = {g: c for g, c in q.terms.items() if window.contains(g)}
    else:
        coeffs = {g: c for g in candidate_degrees(FULL_Q, window) if (c := q.coeff(g))}
    return LaurentSeries(window, FULL_Q, coeffs)


def eq_on_window(a: LaurentSeries, b: LaurentSeries, window: Window) -> bool:
    """Coefficientwise agreement over the window region.

    The window must sit inside both valid regions.  Zero coefficients are
    never stored, so the series agree there exactly when their stored terms
    inside the window are the same.
    """
    for side in (a, b):
        if not side.window.covers(window):
            raise WindowError("comparison window exceeds a valid region")
    a_inside, b_inside = ({g: c for g, c in side.terms if window.contains(g)} for side in (a, b))
    return a_inside == b_inside
