"""Multigraded polynomial rings and constructive module expressions.

A ring is a finite family of distinctly named variables, each with a
nonzero nonnegative degree; ``RingSpec`` refuses any other family when
it is made, so every ring in the package is valid.  Its graded pieces
are enumerated as monomials of a fixed multidegree.  A monomial is a
``Degree`` whose indices are variable positions (``Monomial`` names
it); the ring turns one into its multidegree and its printed form.
Module expressions are built from shifted free modules, direct sums,
monomial ideals and their quotients.  ``shifted_leaves`` reads a tree
as the direct sum of its shifted leaves, and every leaf can list the
monomials of its piece in any degree, say how a variable acts on them,
and produce a finite lower-bound set for its support.  The basis of a
piece, the action on it and the support bounds of a tree are read from
its leaves — which is all the homology and series layers need.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property, lru_cache
from heapq import merge
from typing import Iterable, Sequence

from .degrees import (
    FULL_Q,
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    candidate_degrees,
    grlex_key,
    grlex_sorted,
    leq_q,
    unit,
)
from .series import LaurentSeries, QSeries, mul_q, reach
from .values import HashedValue, Value


class Variable(Value):
    __slots__ = _fields = ("name", "degree")

    def __init__(self, name: str, degree: Degree) -> None:
        self._set(name, degree)


class RingValidationError(ValueError):
    pass


class RingSpec(HashedValue):
    """A polynomial ring given by its homogeneous variables.

    Variables are addressed by 1-based position in this tuple; the order
    fixes monomial serialization and every deterministic basis order
    downstream.

    The grading must be pointed and connected, so construction refuses a
    degree of 0 (the degree-0 piece is the base field alone), a degree
    outside the nonnegative orthant (the image monoid is pointed) and a
    repeated name.  Per-degree and downward finiteness hold automatically
    for a finite variable family.
    """

    __slots__ = _fields = ("variables",)

    def __init__(self, variables: tuple[Variable, ...]) -> None:
        problems = []
        for v in variables:
            if v.degree == ZERO:
                problems.append(f"variable {v.name} has degree 0; the ring would not be connected")
            elif not v.degree.is_nonnegative():
                problems.append(f"variable {v.name} has degree {v.degree} outside the nonnegative orthant")
        counts = Counter(v.name for v in variables)
        problems += [f"variable name {name} appears {count} times" for name, count in counts.items() if count > 1]
        if problems:
            raise RingValidationError("; ".join(problems))
        self._set(variables)

    @staticmethod
    def of(pairs: Iterable[tuple[str, Degree]]) -> "RingSpec":
        return RingSpec(tuple(Variable(name, deg) for name, deg in pairs))

    @staticmethod
    def standard(num_vars: int) -> "RingSpec":
        """k[x1..xn] with deg(xi) the i-th unit degree."""
        return RingSpec.of((f"x{i}", unit(i)) for i in range(1, num_vars + 1))

    @staticmethod
    def matrix_ring(columns: Sequence[int]) -> "RingSpec":
        """Column-graded variable matrix: x[i,j] for i <= columns[j-1], of degree e_j."""
        variables = []
        for j, height in enumerate(columns, start=1):
            for i in range(1, height + 1):
                variables.append(Variable(f"x[{i},{j}]", unit(j)))
        return RingSpec(tuple(variables))

    def position(self, name: str) -> int:
        for pos, v in enumerate(self.variables, start=1):
            if v.name == name:
                return pos
        raise KeyError(f"no variable named {name!r}")

    def degree_of(self, pos: int) -> Degree:
        return self.variables[pos - 1].degree

    def degree(self, m: Degree) -> Degree:
        """The degree of the monomial with exponent vector m."""
        return sum((self.degree_of(pos).scaled(e) for pos, e in m.entries), ZERO)

    def describe(self, m: Degree) -> str:
        """The monomial with exponent vector m as a product of variable names, or 1."""
        parts = []
        for pos, e in m.entries:
            name = self.variables[pos - 1].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts) or "1"


Monomial = Degree  # an exponent vector: its indices are variable positions


def monomial(pairs: Iterable[tuple[int, int]]) -> Monomial:
    """The monomial with these (position, exponent) pairs; every exponent must be positive."""
    pairs = tuple(pairs)
    for pos, e in pairs:
        if e <= 0:
            raise ValueError(f"exponent at position {pos} must be positive")
    return Degree(pairs)


@lru_cache(maxsize=None)
def monomials_of_degree(ring: RingSpec, g: Degree) -> tuple[Monomial, ...]:
    """All monomials of multidegree g, in graded-lex order on exponents.

    Bounded multiset enumeration on dense integer tuples: each variable of
    degree d can appear at most min_i(remaining_i / d_i) times, and a
    monomial is built only once the remainder reaches zero.  A branch
    stops as soon as its remainder is positive in a grading component
    that no later variable touches.  Branches wait on an explicit stack,
    so a ring of any width is enumerated.
    """
    if not g.is_nonnegative():
        return ()
    width = max([g.max_index()] + [v.degree.max_index() for v in ring.variables])
    dense = [v.degree.dense(width) for v in ring.variables]
    # unreachable[pos - 1]: components no variable at pos or later touches
    unreachable = [tuple(range(width))]
    for d in reversed(dense):
        unreachable.append(tuple(i for i in unreachable[-1] if not d[i]))
    unreachable.reverse()
    out: list[Monomial] = []
    # each branch: the next variable position, the remainder and the (position, exponent) pairs so far
    stack = [(1, g.dense(width), ())]
    while stack:
        pos, remaining, picked = stack.pop()
        if not any(remaining):
            out.append(Degree(picked))
            continue
        if any(remaining[i] for i in unreachable[pos - 1]):
            continue
        d = dense[pos - 1]
        bound = min(r // c for r, c in zip(remaining, d) if c)
        for e in range(bound + 1):
            stack.append((pos + 1, tuple(r - e * c for r, c in zip(remaining, d)), picked + ((pos, e),) if e else picked))
    return tuple(grlex_sorted(out))


@lru_cache(maxsize=None)
def ring_hilbert(ring: RingSpec) -> QSeries:
    """Hilbert series of the ring: counts monomials in each multidegree."""
    return QSeries(lambda g: len(monomials_of_degree(ring, g)), "H(ring)")


@lru_cache(maxsize=None)
def ring_hilbert_inverse(ring: RingSpec, window: Window) -> QSeries:
    """prod_i (1 - t^deg x_i) = 1 / H(ring) on the window, 0 outside; degrees are nonnegative, so a term never re-enters."""
    terms = {ZERO: 1} if window.contains(ZERO) else {}
    for v in ring.variables:
        for g, c in list(terms.items()):
            if window.contains(h := g + v.degree):
                terms[h] = terms.get(h, 0) - c
    return QSeries.from_terms(terms, "(H(ring))^-1")


BasisLabel = tuple[int, Monomial]  # basis element of a graded piece: (leaf index in shifted_leaves, monomial)


class GradedPiece(Value):
    _fields = ("degree", "basis")

    def __init__(self, degree: Degree, basis: tuple[BasisLabel, ...]) -> None:
        self._set(degree, basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def images(self, module: ModuleExpr, ring: RingSpec, pos: int) -> tuple[int | None, ...]:
        """Index of x_pos times each label in the piece at degree + deg(x_pos), None if it dies.

        The piece must be the module's own ``graded_piece``.  Each map reads
        the module's leaves once and is kept on the piece, so a label is
        multiplied by a variable once per piece's life.
        """
        if pos not in self._images:
            target = graded_piece(module, ring, self.degree + ring.degree_of(pos)).basis
            index = {label: k for k, label in enumerate(target)}
            times = [leaf.times for _, leaf, _ in shifted_leaves(module)]
            self._images[pos] = tuple(
                None if (product := times[leaf](m, pos)) is None else index[leaf, product] for leaf, m in self.basis
            )
        return self._images[pos]

    @cached_property
    def _images(self) -> dict[int, tuple[int | None, ...]]:
        return {}


class ModuleExpr(HashedValue):
    """Constructive graded module.

    Free modules, shifts and sums are read through ``shifted_leaves``;
    every other node is a leaf, which lists the monomials of its piece in a
    degree, multiplies one of them by a variable and bounds its support.
    """

    def monomials(self, ring: RingSpec, g: Degree) -> Iterable[Monomial]:
        """The monomials of this leaf's piece in degree g, in graded-lex order."""
        raise NotImplementedError

    def times(self, m: Monomial, pos: int) -> Monomial | None:
        """x_pos times a monomial of this leaf's basis, or None when the product is zero."""
        raise NotImplementedError

    def support(self, ring: RingSpec) -> SupportDescriptor:
        """Lower bounds of this leaf's support; ValueError if it names a variable beyond the ring."""
        raise NotImplementedError

    def _printed(self, ring: RingSpec) -> tuple[str | ModuleExpr, ...]:
        """This node's printed form: strings, with each child node in its place."""
        raise NotImplementedError

    def lower_bounds(self, ring: RingSpec) -> SupportDescriptor:
        """Lower bounds of the module's support: each leaf's own, moved up by its shift."""
        leaves = shifted_leaves(self)
        return SupportDescriptor.of(lb + shift for shift, leaf, _ in leaves for lb in leaf.support(ring).lower_bounds)

    def describe(self, ring: RingSpec) -> str:
        """The printed form of the tree, expanded on an explicit stack, so a tree of any depth prints."""
        out = []
        stack: list[str | ModuleExpr] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            else:
                stack.extend(reversed(item._printed(ring)))
        return "".join(out)


class FreeModule(ModuleExpr):
    """Direct sum of ring copies shifted by the given degrees (with multiplicity)."""

    _fields = ("shifts",)

    def __init__(self, shifts: tuple[Degree, ...] = ()) -> None:
        self._set(shifts)

    @staticmethod
    def of(shifts: Iterable[Degree]) -> "FreeModule":
        return FreeModule(tuple(grlex_sorted(shifts)))

    def _printed(self, ring):
        return ("free(" + ", ".join(map(str, self.shifts)) + ")" if self.shifts else "0",)


RING_MODULE = FreeModule((ZERO,))


class ShiftedModule(ModuleExpr):
    """The inner module with its grading moved up by ``by``.

    The piece at g is the inner piece at g - by with identical labels, so
    the Hilbert series picks up the factor t^by.
    """

    _fields = ("inner", "by")

    def __init__(self, inner: ModuleExpr, by: Degree) -> None:
        self._set(inner, by)

    def _printed(self, ring):
        return ("shift(", self.inner, f", {self.by})")


class DirectSum(ModuleExpr):
    _fields = ("parts",)

    def __init__(self, parts: tuple[ModuleExpr, ...]) -> None:
        self._set(parts)

    @staticmethod
    def of(parts: Iterable[ModuleExpr]) -> "DirectSum":
        return DirectSum(tuple(parts))

    def _printed(self, ring):
        return ("sum(", *[item for part in self.parts for item in (", ", part)][1:], ")")


def _reduced_gens(gens: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """The generators in graded-lex order, each with positive exponents and none dividing another."""
    ordered = grlex_sorted(monomial(g.entries) for g in gens)
    for i, a in enumerate(ordered):
        for j, b in enumerate(ordered):
            if i != j and leq_q(b, a):
                raise ValueError(
                    f"generators are not reduced: {a.entries} is divisible by {b.entries}"
                )
    return tuple(ordered)


class _GeneratedLeaf(ModuleExpr):
    """A leaf given by monomial generators, whose positions must be variables of the ring."""

    _fields = ("gens",)

    def __init__(self, gens: tuple[Monomial, ...]) -> None:
        self._set(gens)

    @cached_property
    def _last_position(self) -> int:
        return max((gen.max_index() for gen in self.gens), default=0)

    def _check_positions(self, ring: RingSpec) -> None:
        """Refuse a generator beyond the ring; read before the leaf lists a piece, prints or bounds its support."""
        if self._last_position > len(ring.variables):
            raise ValueError(f"position {self._last_position} exceeds the {len(ring.variables)} ring variables")


class MonomialIdeal(_GeneratedLeaf):
    """The ideal spanned by the monomials divisible by some generator."""

    @staticmethod
    def of(gens: Iterable[Monomial]) -> "MonomialIdeal":
        return MonomialIdeal(_reduced_gens(gens))

    def monomials(self, ring, g):
        self._check_positions(ring)
        return [m for m in monomials_of_degree(ring, g) if any(leq_q(gen, m) for gen in self.gens)]

    def times(self, m, pos):
        return m + unit(pos)

    def support(self, ring):
        self._check_positions(ring)
        return SupportDescriptor.of(ring.degree(gen) for gen in self.gens)

    def _printed(self, ring):
        self._check_positions(ring)
        return ("ideal(" + ", ".join(map(ring.describe, self.gens)) + ")",)


class MonomialQuotient(_GeneratedLeaf):
    """The ring modulo a monomial ideal: monomials no generator divides."""

    @staticmethod
    def of(gens: Iterable[Monomial]) -> "MonomialQuotient":
        return MonomialQuotient(_reduced_gens(gens))

    def monomials(self, ring, g):
        self._check_positions(ring)
        return [m for m in monomials_of_degree(ring, g) if not any(leq_q(gen, m) for gen in self.gens)]

    def times(self, m, pos):
        """x_pos times a basis monomial, or None when the product lies in the ideal.

        No generator divides a basis monomial, so a generator that does not
        involve x_pos cannot divide the product either: only the generators
        involving x_pos are tested.
        """
        product = m + unit(pos)
        if any(leq_q(gen, product) for gen in self._gens_by_variable.get(pos, ())):
            return None
        return product

    @cached_property
    def _gens_by_variable(self) -> dict[int, tuple[Monomial, ...]]:
        """For each variable position, the generators in which it appears."""
        table: dict[int, list[Monomial]] = {}
        for gen in self.gens:
            for pos, _ in gen.entries:
                table.setdefault(pos, []).append(gen)
        return {pos: tuple(gens) for pos, gens in table.items()}

    def support(self, ring):
        self._check_positions(ring)
        return FULL_Q

    def _printed(self, ring):
        self._check_positions(ring)
        return ("quotient(" + ", ".join(map(ring.describe, self.gens)) + ")" if self.gens else "ring",)


_RING_LEAF = MonomialQuotient(())  # the leaf of each shift of a free module


def variable_quotient(ring: RingSpec, positions: Iterable[int]) -> MonomialQuotient:
    """The quotient by a subset of the variables (e.g. the residue field for all of them)."""
    return MonomialQuotient.of(unit(pos) for pos in positions)


def residue_field(ring: RingSpec) -> MonomialQuotient:
    return variable_quotient(ring, range(1, len(ring.variables) + 1))


def shifted_leaves(module: ModuleExpr) -> list[tuple[Degree, ModuleExpr, int | None]]:
    """The module as a direct sum of shifted leaves in tree order, each as (shift, leaf, syzygy).

    Free modules, shifts and sums are expanded, and each shift h of a free
    module becomes the leaf R/() moved up by h; every other node is a leaf.
    The syzygy places a leaf in 0 -> I -> R -> R/I -> 0: 0 for a quotient
    R/I, 1 for an ideal I, whose Taylor terms sit one index lower, and None
    for any other class.  Nodes are read by their exact class, since a
    subclass may act differently, and on an explicit stack, so a tree of
    any depth is read.
    """
    leaves = []
    stack = [(ZERO, module)]
    while stack:
        shift, node = stack.pop()
        kind = type(node)
        if kind is FreeModule:
            leaves.extend((shift + h, _RING_LEAF, 0) for h in node.shifts)
        elif kind is ShiftedModule:
            stack.append((shift + node.by, node.inner))
        elif kind is DirectSum:
            stack.extend((shift, part) for part in reversed(node.parts))
        else:
            leaves.append((shift, node, 0 if kind is MonomialQuotient else 1 if kind is MonomialIdeal else None))
    return leaves


@lru_cache(maxsize=None)
def _graded_piece(module: ModuleExpr, ring: RingSpec, g: Degree) -> GradedPiece:
    runs = [[(k, m) for m in leaf.monomials(ring, g - shift)] for k, (shift, leaf, _) in enumerate(shifted_leaves(module))]
    # each leaf's run is sorted, and merge keeps leaf order among equal monomials
    basis = runs[0] if len(runs) == 1 else merge(*runs, key=lambda l: grlex_key(l[1]))
    return GradedPiece(g, tuple(basis))


def graded_piece(module: ModuleExpr, ring: RingSpec, g: Degree) -> GradedPiece:
    """The (finite) monomial basis of the module's piece in degree g."""
    return _graded_piece(module, ring, g)


def hilbert(module: ModuleExpr, ring: RingSpec, window: Window) -> LaurentSeries:
    """Dimension series of the module's graded pieces on the window."""
    support = module.lower_bounds(ring)
    coeffs: dict[Degree, int] = {}
    for g in candidate_degrees(support, window):
        d = graded_piece(module, ring, g).dimension
        if d:
            coeffs[g] = d
    return LaurentSeries(window, support, coeffs)


def kseries(module: ModuleExpr, ring: RingSpec, window: Window) -> LaurentSeries:
    """The Hilbert series divided by the ring's: the Grothendieck-ring coordinate."""
    series = hilbert(module, ring, window)
    return mul_q(ring_hilbert_inverse(ring, reach(series.window, series.support)), series)
