"""Sparse integer degrees and the componentwise partial order.

A degree is a finitely supported integer vector indexed by 1, 2, 3, ...
The nonnegative degrees form the monoid Q, and ``g <= h`` means every
component of ``h - g`` is nonnegative.  A :class:`Degree` also serves as
a monomial's exponent vector, indexed by variable positions: there the
product by a variable is ``m + unit(pos)`` and divisibility is
:func:`leq_q`.  Two finite descriptions of regions recur throughout the
package:

* a :class:`SupportDescriptor` is a finite set of lower bounds, denoting
  the union of the upward cones ``lb + Q``;
* a :class:`Window` is a finite set of ceiling degrees, denoting the
  downward-closed region of everything below some ceiling element.

Their intersection is always finite, which is what makes every
computation here terminate.  It is listed box by box, lo <= g <= hi, and
sorted by :func:`grlex_key`; both read stored entries, never a ring-wide tuple.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping

from .values import Value


class WindowError(Exception):
    """A degree, or a whole region, escaped the window it was promised in."""


class Degree(Value):
    """Finitely supported integer vector, stored as (index, coefficient) pairs.

    Indices are 1-based and strictly increasing; zero coefficients are
    never stored, so equality of entry tuples is equality of vectors.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...] = ()) -> None:
        previous = 0
        for index, coeff in entries:
            if index <= previous:
                raise ValueError(
                    f"indices must be >= 1 and strictly increasing: index {index} in {entries}"
                )
            if coeff == 0:
                raise ValueError(f"zero coefficient stored at index {index}")
            previous = index
        object.__setattr__(self, "entries", entries)

    # its own __eq__ and __hash__: degrees key most of the package's dicts
    def __eq__(self, other: object) -> bool:
        return self.entries == other.entries if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    @staticmethod
    def of(items: Mapping[int, int] | Iterable[tuple[int, int]]) -> "Degree":
        pairs = items.items() if hasattr(items, "items") else items
        merged: dict[int, int] = {}
        for index, coeff in pairs:
            merged[index] = merged.get(index, 0) + coeff
        return Degree(tuple(sorted((i, c) for i, c in merged.items() if c)))

    def coeff(self, index: int) -> int:
        for i, c in self.entries:
            if i == index:
                return c
        return 0

    def _combined(self, other: "Degree", sign: int) -> "Degree":
        """self + sign * other, merging the two sorted entry tuples."""
        a, b = self.entries, other.entries
        if not b:
            return self
        merged = []
        i = j = 0
        while i < len(a) and j < len(b):
            ia, ca = a[i]
            ib, cb = b[j]
            if ia < ib:
                merged.append(a[i])
                i += 1
            elif ib < ia:
                merged.append((ib, sign * cb))
                j += 1
            else:
                c = ca + sign * cb
                if c:
                    merged.append((ia, c))
                i += 1
                j += 1
        merged += a[i:]
        merged += [(ib, sign * cb) for ib, cb in b[j:]]
        return Degree(tuple(merged))

    def __add__(self, other: "Degree") -> "Degree":
        return self._combined(other, 1)

    def __neg__(self) -> "Degree":
        return Degree(tuple((i, -c) for i, c in self.entries))

    def __sub__(self, other: "Degree") -> "Degree":
        return self._combined(other, -1)

    def scaled(self, factor: int) -> "Degree":
        if factor == 0:
            return ZERO
        return Degree(tuple((i, factor * c) for i, c in self.entries))

    def is_nonnegative(self) -> bool:
        """Membership in Q (stored coefficients are nonzero by invariant)."""
        return all(c > 0 for _, c in self.entries)

    def total(self) -> int:
        return sum(c for _, c in self.entries)

    def max_index(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def dense(self, width: int) -> tuple[int, ...]:
        lookup = dict(self.entries)
        return tuple(lookup.get(i, 0) for i in range(1, width + 1))

    def to_json(self) -> list[list[int]]:
        return [[i, c] for i, c in self.entries]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for i, c in self.entries:
            term = f"e{i}" if abs(c) == 1 else f"{abs(c)}e{i}"
            parts.append(("-" if c < 0 else "+") + term)
        joined = "".join(parts)
        return joined[1:] if joined.startswith("+") else joined


ZERO = Degree()


def unit(index: int) -> Degree:
    """The standard basis degree e_index."""
    return Degree(((index, 1),))


def degree(*coords: int) -> Degree:
    """Degree from dense leading coordinates: degree(2, 0, -1) = 2e1 - e3."""
    return Degree.of(enumerate(coords, start=1))


def leq_q(g: Degree, h: Degree) -> bool:
    """The partial order induced by Q: g <= h iff h - g has no negative component."""
    slack = dict(h.entries)
    for i, c in g.entries:
        if slack.pop(i, 0) < c:
            return False
    return all(c > 0 for c in slack.values())


def componentwise_min(g: Degree, h: Degree) -> Degree:
    indices = {i for i, _ in g.entries} | {i for i, _ in h.entries}
    return Degree.of({i: min(g.coeff(i), h.coeff(i)) for i in indices})


def grlex_key(d: Degree) -> tuple:
    """Sort key of the graded-lex order: by total, then lexicographically on dense coordinates.

    It is read from the entries alone: (i, c) is (1, -i, c) for c > 0 and
    (-1, i, c) for c < 0, and the end marker (0, 0, 0) sorts between them.
    """
    return (d.total(), *[(1, -i, c) if c > 0 else (-1, i, c) for i, c in d.entries], (0, 0, 0))


def grlex_sorted(degrees: Iterable[Degree]) -> list[Degree]:
    """Sort by :func:`grlex_key`.

    This is a linear extension of the partial order: g strictly below h
    forces total(g) < total(h), so every degree comes after all the
    degrees below it.
    """
    return sorted(degrees, key=grlex_key)


def _box(lo: Degree, hi: Degree) -> list[Degree]:
    """Every g with lo <= g <= hi, unordered; empty unless lo <= hi."""
    low, high = dict(lo.entries), dict(hi.entries)
    indices = sorted(low.keys() | high.keys())
    ranges = [range(low.get(i, 0), high.get(i, 0) + 1) for i in indices]
    return [Degree(tuple((i, c) for i, c in zip(indices, combo) if c)) for combo in itertools.product(*ranges)]


class SupportDescriptor(Value):
    """Finite lower-bound set describing the union of the cones ``lb + Q``."""

    __slots__ = _fields = ("lower_bounds",)

    def __init__(self, lower_bounds: tuple[Degree, ...] = ()) -> None:
        self._set(lower_bounds)

    @staticmethod
    def of(bounds: Iterable[Degree]) -> "SupportDescriptor":
        distinct = set(bounds)
        # a bound dominated by another describes a smaller cone and is redundant
        keep = [b for b in distinct if not any(o != b and leq_q(o, b) for o in distinct)]
        return SupportDescriptor(tuple(grlex_sorted(keep)))

    @property
    def is_empty(self) -> bool:
        return not self.lower_bounds

    def contains(self, g: Degree) -> bool:
        return any(leq_q(lb, g) for lb in self.lower_bounds)

    def __add__(self, other: "SupportDescriptor") -> "SupportDescriptor":
        """Minkowski sum: bounds every pairwise sum of the described sets."""
        return SupportDescriptor.of(
            a + b for a in self.lower_bounds for b in other.lower_bounds
        )

    def union(self, other: "SupportDescriptor") -> "SupportDescriptor":
        return SupportDescriptor.of(self.lower_bounds + other.lower_bounds)


FULL_Q = SupportDescriptor((ZERO,))


class Window(Value):
    """Finite ceiling set; the region is every degree below some ceiling element.

    Regions are downward closed, so membership of g certifies membership
    of everything below g.  Ceilings are kept verbatim (dominated elements
    included); membership scans all of them.
    """

    __slots__ = _fields = ("ceiling",)

    def __init__(self, ceiling: tuple[Degree, ...] = ()) -> None:
        self._set(ceiling)

    @staticmethod
    def of(degrees: Iterable[Degree]) -> "Window":
        return Window(tuple(grlex_sorted(set(degrees))))

    @property
    def is_empty(self) -> bool:
        return not self.ceiling

    def contains(self, g: Degree) -> bool:
        return any(leq_q(g, u) for u in self.ceiling)

    def covers(self, other: "Window") -> bool:
        """Whether the other region is contained in this one."""
        return all(self.contains(u) for u in other.ceiling)

    def intersect(self, other: "Window") -> "Window":
        # exact for the componentwise order: below u and below v iff below min(u, v)
        minima = {componentwise_min(u, v) for u in self.ceiling for v in other.ceiling}
        keep = [m for m in minima if not any(o != m and leq_q(m, o) for o in minima)]
        return Window.of(keep)

    def translate(self, g: Degree) -> "Window":
        return Window.of(u + g for u in self.ceiling)


def candidate_degrees(support: SupportDescriptor, window: Window) -> list[Degree]:
    """The finite set (support cones) ∩ (window region), in graded-lex order.

    Every nonzero coefficient of a series with this support and window
    lives here, in the union of the boxes lb <= g <= u; it is the
    enumeration grid for all degreewise loops.
    """
    return grlex_sorted({g for lb in support.lower_bounds for u in window.ceiling for g in _box(lb, u)})

