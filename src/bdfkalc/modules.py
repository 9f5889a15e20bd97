"""Multigraded polynomial rings and constructive module expressions.

A ring is a finite family of variables, each with a nonzero nonnegative
degree; its graded pieces are enumerated as monomials of a fixed
multidegree.  A monomial is a ``Degree`` whose indices are variable
positions (``Monomial`` names it); the ring turns one into its
multidegree and its printed form.  Module expressions are built from
shifted free modules, direct sums, monomial ideals and their quotients.
Every node can list a monomial basis of its piece in any degree, say how
a variable acts on that basis, and produce a finite lower-bound set for
its support — which is all the homology and series layers need.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .degrees import (
    FULL_Q,
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    candidate_degrees,
    grlex_sorted,
    leq_q,
    unit,
)
from .series import LaurentSeries, QSeries, mul_q
from .values import HashedValue, Value


class Variable(Value):
    __slots__ = _fields = ("name", "degree")

    def __init__(self, name: str, degree: Degree) -> None:
        self._set(name, degree)


class RingSpec(HashedValue):
    """A polynomial ring given by its homogeneous variables.

    Variables are addressed by 1-based position in this tuple; the order
    fixes monomial serialization and every deterministic basis order
    downstream.
    """

    _fields = ("variables",)

    def __init__(self, variables: tuple[Variable, ...]) -> None:
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

    def wedges(self, seq: tuple[int, ...], n: int) -> tuple[tuple[tuple[int, ...], Degree], ...]:
        """The n-subsets of the increasing seq with their degrees, in ``combinations`` order."""
        if (seq, n) not in self._wedges:
            self._wedges[seq, n] = tuple((w, sum(map(self.degree_of, w), ZERO)) for w in combinations(seq, n))
        return self._wedges[seq, n]

    @cached_property
    def _wedges(self) -> dict[tuple[tuple[int, ...], int], tuple]:
        return {}


class RingReport(Value):
    """Validation outcome; each problem names the offending variable."""

    __slots__ = _fields = ("problems",)

    def __init__(self, problems: tuple[str, ...] = ()) -> None:
        self._set(problems)

    @property
    def ok(self) -> bool:
        return not self.problems


class RingValidationError(ValueError):
    pass


def validate_ring(ring: RingSpec) -> RingReport:
    """Check the grading is pointed and connected.

    Degrees must be nonzero (connectedness: the degree-0 piece is the
    base field alone) and nonnegative (pointedness of the image monoid).
    Per-degree finiteness and downward finiteness hold automatically for
    a finite variable family.
    """
    problems = []
    seen: dict[str, int] = {}
    for v in ring.variables:
        if v.degree == ZERO:
            problems.append(f"variable {v.name} has degree 0; the ring would not be connected")
        elif not v.degree.is_nonnegative():
            problems.append(f"variable {v.name} has degree {v.degree} outside the nonnegative orthant")
        seen[v.name] = seen.get(v.name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            problems.append(f"variable name {name} appears {count} times")
    return RingReport(tuple(problems))


def require_valid(ring: RingSpec) -> None:
    report = validate_ring(ring)
    if not report.ok:
        raise RingValidationError("; ".join(report.problems))


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
    that no later variable touches.
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

    def extend(pos: int, remaining: tuple[int, ...], picked: list[tuple[int, int]]) -> None:
        if not any(remaining):
            out.append(Degree(tuple(picked)))
            return
        if any(remaining[i] for i in unreachable[pos - 1]):
            return
        d = dense[pos - 1]
        bound = min(r // c for r, c in zip(remaining, d) if c)
        for e in range(bound + 1):
            if e:
                picked.append((pos, e))
            extend(pos + 1, tuple(r - e * c for r, c in zip(remaining, d)), picked)
            if e:
                picked.pop()

    extend(1, g.dense(width), [])
    return tuple(grlex_sorted(out))


@lru_cache(maxsize=None)
def ring_hilbert(ring: RingSpec) -> QSeries:
    """Hilbert series of the ring: counts monomials in each multidegree."""
    return QSeries(lambda g: len(monomials_of_degree(ring, g)), "H(ring)")


@lru_cache(maxsize=None)
def ring_hilbert_inverse(ring: RingSpec) -> QSeries:
    """The inverse of H(ring): the polynomial prod_i (1 - t^deg x_i), at most 2^n terms."""
    require_valid(ring)
    terms = {ZERO: 1}
    for v in ring.variables:
        for g, c in list(terms.items()):
            terms[g + v.degree] = terms.get(g + v.degree, 0) - c
    return QSeries.from_terms(terms, "(H(ring))^-1")


BasisLabel = tuple[tuple[int, ...], Monomial]  # basis element of a graded piece: (summand path, monomial)


class GradedPiece(Value):
    _fields = ("degree", "basis")

    def __init__(self, degree: Degree, basis: tuple[BasisLabel, ...]) -> None:
        self._set(degree, basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def images(self, module: ModuleExpr, ring: RingSpec, pos: int) -> tuple[int | None, ...]:
        """Index of x_pos times each label in the piece at degree + deg(x_pos), None if it dies.

        The piece must be the module's own ``graded_piece``.  Each map is kept
        on it, so a label is multiplied by a variable once per piece's life.
        """
        if pos not in self._images:
            target = graded_piece(module, ring, self.degree + ring.degree_of(pos)).basis
            index = {label: k for k, label in enumerate(target)}
            products = (module.multiply_label(label, pos) for label in self.basis)
            self._images[pos] = tuple(None if p is None else index[p] for p in products)
        return self._images[pos]

    @cached_property
    def _images(self) -> dict[int, tuple[int | None, ...]]:
        return {}


class ModuleExpr(HashedValue):
    """Constructive graded module; subclasses enumerate bases degreewise."""

    def _labels(self, ring: RingSpec, g: Degree) -> Iterator[BasisLabel]:
        raise NotImplementedError

    def lower_bounds(self, ring: RingSpec) -> SupportDescriptor:
        raise NotImplementedError

    def multiply_label(self, label: BasisLabel, pos: int) -> BasisLabel | None:
        raise NotImplementedError

    def describe(self, ring: RingSpec) -> str:
        raise NotImplementedError


class FreeModule(ModuleExpr):
    """Direct sum of ring copies shifted by the given degrees (with multiplicity)."""

    _fields = ("shifts",)

    def __init__(self, shifts: tuple[Degree, ...] = ()) -> None:
        self._set(shifts)

    @staticmethod
    def of(shifts: Iterable[Degree]) -> "FreeModule":
        return FreeModule(tuple(grlex_sorted(shifts)))

    def _labels(self, ring, g):
        for tag, shift in enumerate(self.shifts):
            for m in monomials_of_degree(ring, g - shift):
                yield (tag,), m

    def lower_bounds(self, ring):
        return SupportDescriptor.of(self.shifts)

    def multiply_label(self, label, pos):
        path, m = label
        return path, m + unit(pos)

    def describe(self, ring):
        if not self.shifts:
            return "0"
        return "free(" + ", ".join(str(h) for h in self.shifts) + ")"


RING_MODULE = FreeModule((ZERO,))


class ShiftedModule(ModuleExpr):
    """The inner module with its grading moved up by ``by``.

    The piece at g is the inner piece at g - by with identical labels, so
    the Hilbert series picks up the factor t^by.
    """

    _fields = ("inner", "by")

    def __init__(self, inner: ModuleExpr, by: Degree) -> None:
        self._set(inner, by)

    def _labels(self, ring, g):
        return self.inner._labels(ring, g - self.by)

    def lower_bounds(self, ring):
        return self.inner.lower_bounds(ring).translate(self.by)

    def multiply_label(self, label, pos):
        return self.inner.multiply_label(label, pos)

    def describe(self, ring):
        return f"shift({self.inner.describe(ring)}, {self.by})"


class DirectSum(ModuleExpr):
    _fields = ("parts",)

    def __init__(self, parts: tuple[ModuleExpr, ...]) -> None:
        self._set(parts)

    @staticmethod
    def of(parts: Iterable[ModuleExpr]) -> "DirectSum":
        return DirectSum(tuple(parts))

    def _labels(self, ring, g):
        for idx, part in enumerate(self.parts):
            for path, m in part._labels(ring, g):
                yield (idx,) + path, m

    def lower_bounds(self, ring):
        result = SupportDescriptor()
        for part in self.parts:
            result = result.union(part.lower_bounds(ring))
        return result

    def multiply_label(self, label, pos):
        path, m = label
        inner = self.parts[path[0]].multiply_label((path[1:], m), pos)
        if inner is None:
            return None
        return path[:1] + inner[0], inner[1]

    def describe(self, ring):
        return "sum(" + ", ".join(p.describe(ring) for p in self.parts) + ")"


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


class MonomialIdeal(ModuleExpr):
    """The ideal spanned by the monomials divisible by some generator."""

    _fields = ("gens",)
    syzygy = 1  # I is the first syzygy of R/I (0 -> I -> R -> R/I -> 0): its Taylor terms sit one index lower

    def __init__(self, gens: tuple[Monomial, ...]) -> None:
        self._set(gens)

    @staticmethod
    def of(gens: Iterable[Monomial]) -> "MonomialIdeal":
        return MonomialIdeal(_reduced_gens(gens))

    def _labels(self, ring, g):
        for m in monomials_of_degree(ring, g):
            if any(leq_q(gen, m) for gen in self.gens):
                yield (), m

    def lower_bounds(self, ring):
        return SupportDescriptor.of(ring.degree(gen) for gen in self.gens)

    def multiply_label(self, label, pos):
        _, m = label
        return (), m + unit(pos)

    def describe(self, ring):
        return "ideal(" + ", ".join(map(ring.describe, self.gens)) + ")"


class MonomialQuotient(ModuleExpr):
    """The ring modulo a monomial ideal: monomials no generator divides."""

    _fields = ("gens",)
    syzygy = 0  # R/I is its own zeroth syzygy; see MonomialIdeal.syzygy

    def __init__(self, gens: tuple[Monomial, ...]) -> None:
        self._set(gens)

    @staticmethod
    def of(gens: Iterable[Monomial]) -> "MonomialQuotient":
        return MonomialQuotient(_reduced_gens(gens))

    def _labels(self, ring, g):
        for m in monomials_of_degree(ring, g):
            if not any(leq_q(gen, m) for gen in self.gens):
                yield (), m

    def lower_bounds(self, ring):
        return FULL_Q

    def multiply_label(self, label, pos):
        """x_pos times a basis label, or None when the product lies in the ideal.

        The label must be a basis element, so no generator divides its
        monomial.  A generator that does not involve x_pos then cannot
        divide the product either, so only the generators involving x_pos
        are tested.
        """
        _, m = label
        product = m + unit(pos)
        if any(leq_q(gen, product) for gen in self._gens_by_variable.get(pos, ())):
            return None
        return (), product

    @cached_property
    def _gens_by_variable(self) -> dict[int, tuple[Monomial, ...]]:
        """For each variable position, the generators in which it appears."""
        table: dict[int, list[Monomial]] = {}
        for gen in self.gens:
            for pos, _ in gen.entries:
                table.setdefault(pos, []).append(gen)
        return {pos: tuple(gens) for pos, gens in table.items()}

    def describe(self, ring):
        if not self.gens:
            return "ring"
        return "quotient(" + ", ".join(map(ring.describe, self.gens)) + ")"


def variable_quotient(ring: RingSpec, positions: Iterable[int]) -> MonomialQuotient:
    """The quotient by a subset of the variables (e.g. the residue field for all of them)."""
    return MonomialQuotient.of(unit(pos) for pos in positions)


def residue_field(ring: RingSpec) -> MonomialQuotient:
    return variable_quotient(ring, range(1, len(ring.variables) + 1))


def shifted_leaves(module: ModuleExpr) -> list[tuple[Degree, MonomialQuotient | MonomialIdeal]] | None:
    """The module as a direct sum of shifted leaves in tree order, or None if a node is of another class.

    Each leaf is a quotient or an ideal; a free module's shift h becomes
    the leaf R/() moved up by h.  Nodes are read by their exact class, since
    a subclass may act differently, and on an explicit stack, so a tree of
    any depth is read.
    """
    leaves = []
    stack = [(ZERO, module)]
    while stack:
        shift, node = stack.pop()
        kind = type(node)
        if kind is FreeModule:
            leaves.extend((shift + h, MonomialQuotient(())) for h in node.shifts)
        elif kind is ShiftedModule:
            stack.append((shift + node.by, node.inner))
        elif kind is DirectSum:
            stack.extend((shift, part) for part in reversed(node.parts))
        elif kind is MonomialQuotient or kind is MonomialIdeal:
            leaves.append((shift, node))
        else:
            return None
    return leaves


@lru_cache(maxsize=None)
def _graded_piece(module: ModuleExpr, ring: RingSpec, g: Degree) -> GradedPiece:
    num_vars = len(ring.variables)
    basis = sorted(module._labels(ring, g), key=lambda l: (l[1].total(), l[1].dense(num_vars), l[0]))
    return GradedPiece(g, tuple(basis))


def graded_piece(module: ModuleExpr, ring: RingSpec, g: Degree) -> GradedPiece:
    """The (finite) monomial basis of the module's piece in degree g."""
    return _graded_piece(module, ring, g)


def hilbert(module: ModuleExpr, ring: RingSpec, window: Window) -> LaurentSeries:
    """Dimension series of the module's graded pieces on the window."""
    require_valid(ring)
    support = module.lower_bounds(ring)
    coeffs: dict[Degree, int] = {}
    for g in candidate_degrees(support, window):
        d = graded_piece(module, ring, g).dimension
        if d:
            coeffs[g] = d
    return LaurentSeries(window, support, coeffs)


def kseries(module: ModuleExpr, ring: RingSpec, window: Window) -> LaurentSeries:
    """The Hilbert series divided by the ring's: the Grothendieck-ring coordinate."""
    return mul_q(ring_hilbert_inverse(ring), hilbert(module, ring, window))
