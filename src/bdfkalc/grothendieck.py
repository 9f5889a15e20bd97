"""Classes in the graded Grothendieck ring, represented by K-series.

A class carries the K-series of the module that produced it, on the
window the computation ran over; two classes are equal when their series
agree on the common window.  The ring product is the series product; the
alternating-torsion product recomputes the same class homologically and
must agree with it, which is the main consistency check the package
offers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .degrees import Degree, SupportDescriptor, Window, candidate_degrees
from .homology import _homology_dimensions
from .modules import (
    DirectSum,
    FreeModule,
    ModuleExpr,
    MonomialQuotient,
    RingSpec,
    ShiftedModule,
    graded_piece,
    kseries,
    ring_hilbert_inverse,
)
from .series import LaurentSeries, eq_on_window, mul, mul_q


class UnsupportedResolutionError(ValueError):
    """The left factor has no resolution this artifact can realize."""


@dataclass(frozen=True, eq=False)
class KClass:
    """A Grothendieck-ring element: a K-series plus a note on its origin."""

    series: LaurentSeries
    provenance: str = ""

    @property
    def window(self) -> Window:
        return self.series.window

    def coeff(self, g: Degree) -> int:
        return self.series.coeff(g)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KClass):
            return NotImplemented
        common = self.window.intersect(other.window)
        return eq_on_window(self.series, other.series, common)

    def to_json(self) -> dict:
        payload = self.series.to_json()
        payload["provenance"] = self.provenance
        return payload


def class_of(module: ModuleExpr, ring: RingSpec, window: Window) -> KClass:
    """The class of a module: its K-series on the window."""
    return KClass(kseries(module, ring, window), module.describe(ring))


def product(a: KClass, b: KClass) -> KClass:
    """Ring product: the series product on the conservative window."""
    return KClass(mul(a.series, b.series), f"({a.provenance}) * ({b.provenance})")


def _quotient_variable_positions(module: ModuleExpr) -> tuple[int, ...] | None:
    if not isinstance(module, MonomialQuotient):
        return None
    positions = []
    for gen in module.gens:
        if gen.total() != 1:
            return None
        positions.append(gen.exps[0][0])
    return tuple(sorted(positions))


def _free_shift_multiset(module: ModuleExpr) -> tuple[Degree, ...] | None:
    if isinstance(module, FreeModule):
        return module.shifts
    if isinstance(module, ShiftedModule):
        inner = _free_shift_multiset(module.inner)
        if inner is None:
            return None
        return tuple(h + module.by for h in inner)
    if isinstance(module, DirectSum):
        shifts: list[Degree] = []
        for part in module.parts:
            inner = _free_shift_multiset(part)
            if inner is None:
                return None
            shifts.extend(inner)
        return tuple(shifts)
    return None


def serre_product(
    m: ModuleExpr,
    n: ModuleExpr,
    ring: RingSpec,
    window: Window,
    characteristic: int = 0,
) -> KClass:
    """The class of the alternating sum of the torsion modules of (m, n).

    The left factor must be a quotient by a subset of the variables (its
    Koszul complex is the resolution) or a free module (flat, so only the
    zeroth torsion survives).  The result agrees with the plain product
    of the two classes on the window.
    """
    provenance = f"serre({m.describe(ring)}, {n.describe(ring)})"
    positions = _quotient_variable_positions(m)
    if positions is not None:
        support = n.lower_bounds(ring)
        coeffs = {}
        for g in candidate_degrees(support, window):
            dims = _homology_dimensions(n, ring, positions, g, characteristic)
            value = sum((-1) ** i * d for i, d in enumerate(dims))
            if value:
                coeffs[g] = value
        alternating = LaurentSeries(window, support, coeffs)
        return KClass(mul_q(ring_hilbert_inverse(ring), alternating), provenance)

    shifts = _free_shift_multiset(m)
    if shifts is not None:
        # a free left factor is flat: the only torsion is the tensor product itself
        support = SupportDescriptor.of(shifts) + n.lower_bounds(ring)
        coeffs = {}
        for g in candidate_degrees(support, window):
            value = sum(graded_piece(n, ring, g - h).dimension for h in shifts)
            if value:
                coeffs[g] = value
        tensor_hilbert = LaurentSeries(window, support, coeffs)
        return KClass(mul_q(ring_hilbert_inverse(ring), tensor_hilbert), provenance)

    raise UnsupportedResolutionError(
        "left factor must be a variable-subset quotient or a free module"
    )


def free_from_series(a: KClass) -> FreeModule:
    """Rebuild the free module whose class is the given effective series.

    Every window coefficient becomes the multiplicity of that shift;
    a negative coefficient means the class is not the class of a module.
    """
    shifts: list[Degree] = []
    for g, c in a.series.terms:
        if c < 0:
            raise ValueError(f"coefficient {c} at {g} is negative: class is not effective")
        shifts.extend([g] * c)
    return FreeModule.of(shifts)
