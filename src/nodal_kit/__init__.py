"""Exact local geometry of pointed nodes: rings, normal forms, the
double-point quotient with its matrix factorization and duality witnesses,
and the stabilization blow-up charts."""

from .rings import (
    CoeffParseError,
    DualNumbers,
    LocalTruncation,
    NotAUnitError,
    PrimeField,
    Rationals,
    Ring,
    RingConstructionError,
    RingElem,
    make_ring,
)
from .series import PrecisionError, Series2, SubstitutionError
from .mpoly import MPoly
from .normal_form import (
    CoordChange,
    DegenerateFormError,
    QuadForm,
    normal_form_iteration,
    repair_small_lift,
    solve_linearized_increment,
    square_zero_change,
)
from .dp_ring import (
    DegreeOverflowError,
    DPElem,
    DPRing,
    x_power_decompositions,
)
from .mf import (
    MatFact,
    build_factorization,
    dual_action,
    dual_quotient_iso,
    hom_pair_space,
    ideal_j_generators,
    two_periodic_exactness,
    witness_identities,
)
from .stabilize import (
    ChartPresentation,
    FiberReport,
    build_charts,
    covering_certificate,
    determinant_and_ideal_basis,
    fiber_at_origin,
    flatness_basis_certificate,
    reduce_chart0,
)
from .reporting import CheckRecord, Report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
