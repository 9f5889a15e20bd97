"""Classes in the graded Grothendieck ring, represented by K-series.

A class carries the K-series of the module that produced it, on the
window the computation ran over; two classes are equal when their series
agree on the common window.  The ring product is the series product; the
alternating-torsion product recomputes the same class from the right
factor's minimal resolution and the left factor's graded pieces, and
must agree with it, which is the main consistency check the package
offers.
"""

from __future__ import annotations

from .degrees import Degree, Window
from .homology import betti_table
from .modules import FreeModule, ModuleExpr, RingSpec, hilbert, kseries, ring_hilbert_inverse
from .series import LaurentSeries, eq_on_window, mul, mul_q, reach
from .values import Value


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

    Any pair of modules is accepted.  Torsion is computed from a free
    resolution of either factor; this takes n's minimal resolution, whose
    i-th term is the sum of R(-h) over its Betti numbers beta(i, h), so
    m tensored with it is a sum of shifted copies of m and, in each degree
    g, chi(Tor(m, n))_g = sum over (i, h) of (-1)^i beta(i, h) dim m_(g-h).
    n's Betti table is read on the window's reach under m's support (a
    Betti degree above the window still meets it when m reaches below 0),
    which checks d.d = 0 on n's Koszul complex; m is read through its
    graded pieces.  The series divided by the ring's Hilbert series agrees
    with the plain product of the two classes on the window.
    """
    bounds = m.lower_bounds(ring)
    chi: dict[Degree, int] = {}
    for i, h, beta in betti_table(n, ring, reach(window, bounds), characteristic).entries:
        chi[h] = chi.get(h, 0) + (-1) ** i * beta
    coeffs: dict[Degree, int] = {}
    for h, c in chi.items():
        if c:
            for g, dim in hilbert(m, ring, window.translate(-h)).terms:
                coeffs[g + h] = coeffs.get(g + h, 0) + c * dim
    alternating = LaurentSeries(window, bounds + n.lower_bounds(ring), coeffs)
    provenance = f"serre({m.describe(ring)}, {n.describe(ring)})"
    return KClass(mul_q(ring_hilbert_inverse(ring, reach(window, alternating.support)), alternating), provenance)


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
