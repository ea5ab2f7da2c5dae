"""Numerical verification of the hyper-symplectic structure triple on an
integrable-system fibration: three symplectic forms, three anticommuting
complex structures, Lagrangian fibres, polynomial sections, the induced
base geometry, and action-angle coordinates for oscillator products.
"""

from ._version import __version__
from .action_angle import (
    Oscillator1DOF,
    ProductSystem,
    action_from_energy,
    canonical_check,
    from_action_angle,
    model_from_product_system,
    to_action_angle,
    transform_jacobian,
    verify_action_angle,
)
from .calculus import (
    DifferentialForm,
    EndomorphismField,
    VectorField,
    exterior_derivative,
    form_matrix,
    lie_bracket,
)
from .charts import Chart, Point
from .errors import (
    ChartMismatchError,
    ConfigError,
    DegenerateFormError,
    DegenerateMetricError,
    DegenerateOrbitError,
    GeometryError,
    NotAlmostComplexError,
)
from .fibration import (
    FibrationModel,
    HyperComplexTriple,
    HyperSymplecticTriple,
    SectionMap,
    build_complex_triple,
    build_structure_triple,
    gradient_section,
    make_model,
    recursion_operator,
    section_pullback,
    standard_sigma_section,
    verify_hypersymplectic,
    verify_lagrangian_fibres,
    zero_section,
)
from .polynomials import Polynomial
from .scenarios import ReportDocument, ScenarioConfig, list_scenarios, run_scenario
from .special_kahler import (
    SpecialKahlerData,
    build_special_kahler,
    induced_complex_structure,
    kahler_metric,
    signature,
    special_symplectic_check,
)
from .structures import CheckReport, FlatConnection, nijenhuis

__all__ = [
    "__version__",
    "Chart",
    "ChartMismatchError",
    "CheckReport",
    "ConfigError",
    "DegenerateFormError",
    "DegenerateMetricError",
    "DegenerateOrbitError",
    "DifferentialForm",
    "EndomorphismField",
    "FibrationModel",
    "FlatConnection",
    "GeometryError",
    "HyperComplexTriple",
    "HyperSymplecticTriple",
    "NotAlmostComplexError",
    "Oscillator1DOF",
    "Point",
    "Polynomial",
    "ProductSystem",
    "ReportDocument",
    "ScenarioConfig",
    "SectionMap",
    "SpecialKahlerData",
    "VectorField",
    "action_from_energy",
    "build_complex_triple",
    "build_special_kahler",
    "build_structure_triple",
    "canonical_check",
    "exterior_derivative",
    "form_matrix",
    "from_action_angle",
    "gradient_section",
    "induced_complex_structure",
    "kahler_metric",
    "lie_bracket",
    "list_scenarios",
    "make_model",
    "model_from_product_system",
    "nijenhuis",
    "recursion_operator",
    "run_scenario",
    "section_pullback",
    "signature",
    "special_symplectic_check",
    "standard_sigma_section",
    "to_action_angle",
    "transform_jacobian",
    "verify_action_angle",
    "verify_hypersymplectic",
    "verify_lagrangian_fibres",
    "zero_section",
]
