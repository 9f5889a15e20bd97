"""Exact computations with multigraded series and modules on finite windows.

The pieces: sparse degrees with the componentwise order (``degrees``),
exact windowed and lazy series (``series``), rings and constructive
module expressions with monomial bases (``modules``), Koszul homology,
Betti tables and resolution shapes (``homology``), Grothendieck-ring
classes via K-series (``grothendieck``), and a batch CLI (``cli``).
"""

from .degrees import (
    ZERO,
    Degree,
    SupportDescriptor,
    Window,
    WindowError,
    candidate_degrees,
    componentwise_min,
    degree,
    grlex_sorted,
    leq_q,
    unit,
)
from .grothendieck import (
    KClass,
    class_of,
    free_from_series,
    product,
    serre_product,
)
from .homology import (
    AugmentedKoszulComplex,
    BettiTable,
    ChainComplexError,
    KoszulPiece,
    KoszulTensorComplex,
    all_variables,
    betti_table,
    euler_check,
    euler_profile,
    homology_profile,
    koszul_differential,
    koszul_index_bound,
    koszul_piece,
    minimal_resolution_shape,
    tor_k,
    torsion_dimension,
    var_action,
)
from .modules import (
    BasisLabel,
    DirectSum,
    FreeModule,
    GradedPiece,
    ModuleExpr,
    Monomial,
    MonomialIdeal,
    MonomialQuotient,
    RING_MODULE,
    RingSpec,
    RingValidationError,
    ShiftedModule,
    Variable,
    graded_piece,
    hilbert,
    kseries,
    monomials_of_degree,
    residue_field,
    ring_hilbert,
    ring_hilbert_inverse,
    shifted_leaves,
    variable_quotient,
)
from .series import (
    LaurentSeries,
    NotInvertibleError,
    QSeries,
    add,
    eq_on_window,
    invert,
    monomial_series,
    mul,
    mul_q,
    negate,
    one_series,
    reach,
    series_from_terms,
    truncate,
    zero_series,
)

__all__ = [name for name in dir() if not name.startswith("_")]
