"""Koszul complexes on variable subsets, tensored degreewise with a module.

A wedge of degree d pairs with the module piece at g - d, which is zero
unless d fits under a room g - lb for a support lower bound lb.  So a
Koszul piece holds only the wedges that fit (with a wedge its faces, as
degrees are nonnegative), and each degree sees finitely many indices.

One engine computes all homology: ``_complex_snapshot`` takes any
complex with the small degreewise interface (support, index bound,
piece dimensions, differentials), checks the chain law d.d = 0 on every
pair of differentials it builds and takes exact ranks.  Graded Betti
numbers, torsion dimension, the shape of the minimal free resolution,
the Serre product's alternating torsion and the Euler-characteristic
identity all go through it, so each of them rejects a complex whose
differentials do not compose to zero where it looks.

A Betti table visits only what the Taylor resolution allows: beta(i, g)
of R/I vanishes unless g is the degree of the lcm of i generators, and
free modules, shifts, sums and ideals follow.  So ``betti_table`` skips
the other window degrees and, in each degree it keeps, builds only the
pieces next to an allowed index.  A module class it does not know is
visited at every degree and index.
Each differential is built as sparse rows of (column, value) pairs and
goes as built to the chain check and to ``rank``; no dense matrix is
made.  A Koszul piece keeps one module piece per distinct wedge degree.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from typing import Iterable

from .degrees import (
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    WindowError,
    candidate_degrees,
    componentwise_min,
    grlex_sorted,
    leq_q,
)
from .linalg import SparseRows, composes_to_zero, rank
from .modules import (
    RING_MODULE,
    BasisLabel,
    GradedPiece,
    ModuleExpr,
    RingSpec,
    graded_piece,
    shifted_leaves,
)
from .values import HashedValue, Value


class ChainComplexError(ValueError):
    """Consecutive differentials failed to compose to zero."""


def all_variables(ring: RingSpec) -> tuple[int, ...]:
    return tuple(range(1, len(ring.variables) + 1))


def _canonical_sequence(seq: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(seq)))


class KoszulPiece(Value):
    """Degree-g part of the n-th Koszul term tensored with the module.

    ``parts`` pairs each wedge that fits, an increasing tuple of variable
    positions as ``combinations`` yields it from the canonical sequence,
    with the module's graded piece in degree g minus the wedge's degree.  Each
    basis element is a pair (positions, label); wedges come in
    ``combinations`` order, and each wedge's labels in graded-piece order.
    """

    _fields = ("parts",)

    def __init__(self, parts: tuple[tuple[tuple[int, ...], GradedPiece], ...]) -> None:
        self._set(parts)

    @cached_property
    def basis(self) -> tuple[tuple[tuple[int, ...], BasisLabel], ...]:
        return tuple((positions, label) for positions, piece in self.parts for label in piece.basis)

    @cached_property
    def dimension(self) -> int:
        return sum(len(piece.basis) for _, piece in self.parts)


def _rooms(module: ModuleExpr, ring: RingSpec, g: Degree) -> set[Degree]:
    """g - lb for each support lower bound lb of each shifted leaf: a wedge fits if its degree lies under one."""
    # a bound above another, which ``lower_bounds`` would drop, has its room inside the other's and changes nothing
    return {g - shift - lb for shift, leaf, _ in shifted_leaves(module) for lb in leaf.support(ring).lower_bounds}


@lru_cache(maxsize=None)
def _koszul_piece(
    module: ModuleExpr, ring: RingSpec, seq: tuple[int, ...], n: int, g: Degree
) -> KoszulPiece:
    rooms = _rooms(module, ring, g)
    fitting = [pos for pos in seq if any(leq_q(ring.degree_of(pos), room) for room in rooms)]
    wedges = [(w, sum(map(ring.degree_of, w), ZERO)) for w in combinations(fitting, n)]
    wedges = [(w, d) for w, d in wedges if any(leq_q(d, room) for room in rooms)]
    inner = {d: graded_piece(module, ring, g - d) for d in dict.fromkeys(d for _, d in wedges)}
    return KoszulPiece(tuple((positions, inner[d]) for positions, d in wedges))


def koszul_piece(
    module: ModuleExpr,
    ring: RingSpec,
    seq: Iterable[int],
    n: int,
    g: Degree,
) -> KoszulPiece:
    """Basis of wedges paired with module basis elements of the complementary degree."""
    if n < 0:
        raise ValueError("homological index must be nonnegative")
    return _koszul_piece(module, ring, _canonical_sequence(seq), n, g)


def koszul_differential(
    module: ModuleExpr,
    ring: RingSpec,
    seq: Iterable[int],
    n: int,
    g: Degree,
) -> SparseRows:
    """Sparse rows of the n-th Koszul differential in degree g.

    Dropping the slot at position l carries sign (-1)^l (first slot
    positive, so the length-1 case is plain multiplication by the
    variable) and multiplies the module element by the dropped variable.
    A row is the face wedge's offset plus the product's index in its
    module piece; columns are visited in order, so they rise along a row.
    """
    if n < 1:
        raise ValueError("differentials start at homological index 1")
    sequence = _canonical_sequence(seq)
    source = koszul_piece(module, ring, sequence, n, g)
    target = koszul_piece(module, ring, sequence, n - 1, g)
    sizes = (len(piece.basis) for _, piece in target.parts)
    offset = dict(zip((face for face, _ in target.parts), accumulate(sizes, initial=0)))
    rows: SparseRows = [[] for _ in range(target.dimension)]
    start = 0
    for positions, piece in source.parts:
        for slot, pos in enumerate(positions if piece.basis else ()):
            first = offset[positions[:slot] + positions[slot + 1 :]]
            sign = -1 if slot & 1 else 1
            for col, row in enumerate(piece.images(module, ring, pos), start):
                if row is not None:
                    rows[first + row].append((col, sign))
        start += len(piece.basis)
    return rows


def var_action(module: ModuleExpr, ring: RingSpec, variable: int | str, g: Degree) -> SparseRows:
    """Sparse rows of multiplication by a variable, piece at g -> piece at g + deg.

    This is the length-1 Koszul differential on that variable.  Rows index
    the target basis, columns the source basis; every value is 1, since a
    monomial maps to a monomial or dies in a quotient.
    """
    pos = ring.position(variable) if isinstance(variable, str) else variable
    return koszul_differential(module, ring, (pos,), 1, g + ring.degree_of(pos))


def koszul_index_bound(
    module: ModuleExpr, ring: RingSpec, seq: Iterable[int], g: Degree
) -> int:
    """An n beyond which every Koszul piece in degree g is zero: the most variables that fit one room."""
    sequence = _canonical_sequence(seq)
    return max((sum(leq_q(ring.degree_of(pos), room) for pos in sequence) for room in _rooms(module, ring, g)), default=0)


def _homology_dimensions(
    module: ModuleExpr,
    ring: RingSpec,
    seq: tuple[int, ...],
    g: Degree,
    characteristic: int,
    indices: set[int] | None = None,
) -> list[int]:
    """Dimensions of the Koszul homology in degree g, indices 0..bound (only ``indices`` if given)."""
    return _complex_snapshot(KoszulTensorComplex(module, ring, seq), g, characteristic, indices)[1]


def tor_k(
    module: ModuleExpr,
    ring: RingSpec,
    i: int,
    g: Degree,
    characteristic: int = 0,
) -> int:
    """Dimension of the i-th torsion of the module against the residue field, in degree g.

    Computed as homology of the full-variable Koszul complex tensored with
    the module; by graded symmetry of torsion this equals the i-th graded
    Betti number in degree g.
    """
    seq = all_variables(ring)
    dims = _homology_dimensions(module, ring, seq, g, characteristic)
    return dims[i] if 0 <= i < len(dims) else 0


class BettiTable(Value):
    """Graded Betti numbers on a window: entries (index, degree, value)."""

    __slots__ = _fields = ("window", "entries")

    def __init__(self, window: Window, entries: tuple[tuple[int, Degree, int], ...]) -> None:
        self._set(window, entries)

    def beta(self, i: int, g: Degree) -> int:
        for index, deg, value in self.entries:
            if index == i and deg == g:
                return value
        return 0

    def total(self, i: int) -> int:
        return sum(value for index, _, value in self.entries if index == i)

    def max_index(self) -> int:
        return max((index for index, _, _ in self.entries), default=0)

    def __str__(self) -> str:
        if not self.entries:
            return "(empty betti table)"
        lines = ["    i  degree          beta"]
        for i, g, value in self.entries:
            lines.append(f"    {i:<2} {str(g):<15} {value}")
        return "\n".join(lines)


def betti_table(
    module: ModuleExpr,
    ring: RingSpec,
    window: Window,
    characteristic: int = 0,
) -> BettiTable:
    """All graded Betti numbers with degree inside the window.

    Per degree, homological indices run up to the finite wedge bound, so
    the table is total on its domain.  Where ``_taylor_support`` knows the
    module, only the degrees and indices of its Taylor resolution are
    visited, and the window is never listed; every other Betti number is
    zero.  Each differential that is built is checked against its
    neighbours for d.d = 0.
    """
    seq = all_variables(ring)
    # the bounds refuse a leaf beyond the ring before the Taylor closure reads its degrees
    bounds = module.lower_bounds(ring)
    support = _taylor_support(module, ring, window)
    if support is None:
        visits = [(g, None) for g in candidate_degrees(bounds, window)]
    else:
        visits = [(g, support[g]) for g in grlex_sorted(support)]
    entries = [
        (i, g, value)
        for g, indices in visits
        for i, value in enumerate(_homology_dimensions(module, ring, seq, g, characteristic, indices))
        if value
    ]
    # stable sort: within one index, degrees keep their enumeration order
    entries.sort(key=lambda entry: entry[0])
    return BettiTable(window, tuple(entries))


def _taylor_support(module: ModuleExpr, ring: RingSpec, window: Window) -> dict[Degree, set[int]] | None:
    """The indices at each degree where the Taylor resolution has a term, or None if unknown.

    R/I has a term at deg lcm(S) in index |S| for each set S of generators,
    the empty one included, and I at index |S| - 1 for S nonempty (Taylor;
    Miller-Sturmfels 6.1), so every Betti number lies there.  The lcm's
    grow as a closure over the generators; one whose degree leaves the
    window is dropped as it is made, which is exact because variable
    degrees are nonnegative.  A module with a leaf of another class is unknown.
    """
    leaves = shifted_leaves(module)
    if any(syzygy is None for _, _, syzygy in leaves):
        return None
    support: dict[Degree, set[int]] = {}
    for shift, leaf, syzygy in leaves:
        below = window.translate(-shift)
        lcms = {(ZERO, 0)} if below.contains(ZERO) else set()
        for gen in leaf.gens:
            for m, size in list(lcms):
                lcm = m + gen - componentwise_min(m, gen)
                if below.contains(ring.degree(lcm)):
                    lcms.add((lcm, size + 1))
        for m, size in lcms:
            if size >= syzygy:
                support.setdefault(ring.degree(m) + shift, set()).add(size - syzygy)
    return support


def torsion_dimension(
    module: ModuleExpr,
    ring: RingSpec,
    g: Degree,
    window: Window,
    characteristic: int = 0,
) -> int:
    """Largest homological index with a nonzero Betti number below g.

    Window regions are downward closed, so requiring g in the window puts
    the whole downset of g inside it.  This equals the projective
    dimension at g.  A module with no torsion at all below g (nothing of
    its support lies there) reports 0.
    """
    if not window.contains(g):
        raise WindowError(f"the downset of {g} exceeds the window")
    return betti_table(module, ring, Window.of([g]), characteristic).max_index()


def minimal_resolution_shape(
    module: ModuleExpr,
    ring: RingSpec,
    window: Window,
    characteristic: int = 0,
) -> tuple[tuple[Degree, ...], ...]:
    """Shift multisets of the minimal free resolution, one per homological index.

    In a minimal resolution the i-th term repeats the shift g exactly
    beta(i, g) times; the alternating sum of the terms' multiplicity
    series reproduces the module's K-series on the window.
    """
    table = betti_table(module, ring, window, characteristic)
    if not table.entries:
        return ((),)
    shapes: list[tuple[Degree, ...]] = []
    for i in range(table.max_index() + 1):
        shifts: list[Degree] = []
        for index, g, value in table.entries:
            if index == i:
                shifts.extend([g] * value)
        shapes.append(tuple(grlex_sorted(shifts)))
    return tuple(shapes)


class KoszulTensorComplex(HashedValue):
    """The Koszul complex of a variable subset, tensored with a module."""

    __slots__ = _fields = ("module", "ring", "sequence")

    def __init__(self, module: ModuleExpr, ring: RingSpec, sequence: tuple[int, ...]) -> None:
        self._set(module, ring, sequence)

    @staticmethod
    def of(module: ModuleExpr, ring: RingSpec, seq: Iterable[int] | None = None):
        sequence = all_variables(ring) if seq is None else _canonical_sequence(seq)
        return KoszulTensorComplex(module, ring, sequence)

    @property
    def support(self) -> SupportDescriptor:
        return self.module.lower_bounds(self.ring)

    def index_bound(self, g: Degree) -> int:
        return koszul_index_bound(self.module, self.ring, self.sequence, g)

    def piece_dim(self, n: int, g: Degree) -> int:
        return koszul_piece(self.module, self.ring, self.sequence, n, g).dimension

    def differential(self, n: int, g: Degree) -> SparseRows:
        return koszul_differential(self.module, self.ring, self.sequence, n, g)


class AugmentedKoszulComplex(HashedValue):
    """Full-variable Koszul complex of the ring with the residue field appended.

    The term at index 0 is the quotient by all variables, index n >= 1
    holds the (n-1)-st Koszul term; the whole complex is exact, so every
    homology dimension vanishes.  The residue field lives in degree 0
    alone, so the augmentation is the map 1 -> 1 there and empty elsewhere.
    """

    __slots__ = _fields = ("ring",)

    def __init__(self, ring: RingSpec) -> None:
        self._set(ring)

    @property
    def support(self) -> SupportDescriptor:
        return SupportDescriptor.of([ZERO])

    def index_bound(self, g: Degree) -> int:
        return koszul_index_bound(RING_MODULE, self.ring, all_variables(self.ring), g) + 1

    def piece_dim(self, n: int, g: Degree) -> int:
        if n == 0:
            return 1 if g == ZERO else 0
        return koszul_piece(RING_MODULE, self.ring, all_variables(self.ring), n - 1, g).dimension

    def differential(self, n: int, g: Degree) -> SparseRows:
        if n == 1:
            return [[(0, 1)]] if g == ZERO else []
        return koszul_differential(RING_MODULE, self.ring, all_variables(self.ring), n - 1, g)


def _complex_snapshot(
    complex_, g: Degree, characteristic: int, indices: set[int] | None = None
) -> tuple[list[int], list[int]]:
    """Term dimensions and homology dimensions of a complex in one degree.

    With ``indices``, only the pieces at i - 1, i and i + 1 for each wanted
    i are built, every other dimension and homology reads 0.  Verifies the
    chain law on each pair of differentials that are built and raises
    ChainComplexError on a nonzero composite.
    """
    bound = complex_.index_bound(g)
    wanted = range(bound + 1) if indices is None else indices
    built = {m for n in wanted for m in (n - 1, n, n + 1)}
    # the bound promises that the piece at bound + 1 is zero, so it is not built
    dims = [complex_.piece_dim(n, g) if n in built else 0 for n in range(bound + 1)] + [0]
    ranks = [0] * (bound + 2)
    # one differential's rows are held for the next index's chain check;
    # a map out of or into a zero piece is empty and is never built
    previous = None
    for n in range(1, bound + 1):
        if not (dims[n - 1] and dims[n]):
            previous = None
            continue
        current = complex_.differential(n, g)
        if len(current) != dims[n - 1]:
            raise ValueError(f"differential {n} at {g} has {len(current)} rows, not {dims[n - 1]}")
        if previous and not composes_to_zero(previous, current):
            raise ChainComplexError(
                f"differentials {n - 1} and {n} do not compose to zero at {g}"
            )
        ranks[n] = rank(current, characteristic)
        previous = current
    homology = [dims[n] - ranks[n] - ranks[n + 1] if n in wanted else 0 for n in range(bound + 1)]
    return dims, homology


def homology_profile(
    complex_, window: Window, characteristic: int = 0
) -> list[tuple[Degree, tuple[int, ...]]]:
    """Per-degree homology dimensions of a degreewise complex on the window."""
    return [
        (g, tuple(_complex_snapshot(complex_, g, characteristic)[1]))
        for g in candidate_degrees(complex_.support, window)
    ]


def euler_profile(
    complex_, window: Window, characteristic: int = 0
) -> list[tuple[Degree, int, int]]:
    """Per-degree alternating sums of term and homology dimensions."""
    rows = []
    for g in candidate_degrees(complex_.support, window):
        dims, homology = _complex_snapshot(complex_, g, characteristic)
        chi_terms = sum((-1) ** n * d for n, d in enumerate(dims))
        chi_homology = sum((-1) ** n * h for n, h in enumerate(homology))
        rows.append((g, chi_terms, chi_homology))
    return rows


def euler_check(complex_, window: Window, characteristic: int = 0) -> bool:
    """Degreewise Euler characteristic: terms versus homology.

    For every window degree the alternating sum of term dimensions must
    equal the alternating sum of homology dimensions; both sums are
    finite because pieces vanish beyond the per-degree index bound.
    """
    return all(
        terms == homology
        for _, terms, homology in euler_profile(complex_, window, characteristic)
    )
