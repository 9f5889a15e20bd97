"""Classes in the graded Grothendieck ring, represented by K-series.

A class carries the K-series of the module that produced it, on the
window the computation ran over; two classes are equal when their series
agree on the common window.  The ring product is the series product; the
alternating-torsion product recomputes the same class homologically and
must agree with it, which is the main consistency check the package
offers.
"""

from __future__ import annotations

from .degrees import Degree, Window
from .homology import KoszulTensorComplex, euler_profile
from .modules import FreeModule, ModuleExpr, RingSpec, kseries, ring_hilbert_inverse, shifted_leaves
from .series import LaurentSeries, eq_on_window, mul, mul_q, reach
from .values import Value


class UnsupportedResolutionError(ValueError):
    """The left factor has no resolution this artifact can realize."""


class KClass(Value):
    """A Grothendieck-ring element: a K-series plus a note on its origin."""

    __slots__ = _fields = ("series", "provenance")

    def __init__(self, series: LaurentSeries, provenance: str = "") -> None:
        self._set(series, provenance)

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


def class_of(module: ModuleExpr, ring: RingSpec, window: Window) -> KClass:
    """The class of a module: its K-series on the window."""
    return KClass(kseries(module, ring, window), module.describe(ring))


def product(a: KClass, b: KClass) -> KClass:
    """Ring product: the series product on the conservative window."""
    return KClass(mul(a.series, b.series), f"({a.provenance}) * ({b.provenance})")


def serre_product(
    m: ModuleExpr,
    n: ModuleExpr,
    ring: RingSpec,
    window: Window,
    characteristic: int = 0,
) -> KClass:
    """The class of the alternating sum of the torsion modules of (m, n).

    The left factor must be a direct sum of shifted free modules and
    shifted quotients by subsets of the variables: every leaf that
    ``shifted_leaves`` reads must have syzygy 0, which only an exact
    quotient has, and linear generators, so a subclass of a node is
    refused.  The Koszul complex on each subset resolves its quotient (the
    empty subset resolves the ring), so the torsion is the Koszul homology
    of n, moved up by the shift: each leaf adds the homology column of
    ``euler_profile`` on the window moved down by its shift.  The result
    agrees with the plain product of the two classes on the window.
    """
    leaves = shifted_leaves(m)
    if any(syzygy != 0 or any(gen.total() != 1 for gen in leaf.gens) for _, leaf, syzygy in leaves):
        raise UnsupportedResolutionError(
            "left factor must be a direct sum of shifted free modules "
            "and shifted quotients by variable subsets"
        )
    support = m.lower_bounds(ring) + n.lower_bounds(ring)
    coeffs: dict[Degree, int] = {}
    for h, leaf, _ in leaves:
        complex_ = KoszulTensorComplex.of(n, ring, [gen.max_index() for gen in leaf.gens])
        for g, _, chi in euler_profile(complex_, window.translate(-h), characteristic):
            coeffs[g + h] = coeffs.get(g + h, 0) + chi
    alternating = LaurentSeries(window, support, coeffs)
    provenance = f"serre({m.describe(ring)}, {n.describe(ring)})"
    return KClass(mul_q(ring_hilbert_inverse(ring, reach(alternating)), alternating), provenance)


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
