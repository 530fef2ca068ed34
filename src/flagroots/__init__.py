"""Exact-arithmetic engine for exceptional root systems, painted Dynkin
diagrams and their isotropy summands (six, in the G2 pattern, for the five
G2-type spaces), and structural equigeodesic subspaces."""

from .rootsys import (
    CartanMatrix,
    DimensionMismatchError,
    FlagrootsError,
    InvalidCartanError,
    LieType,
    RootSystem,
    cartan_matrix,
    generate_positive_roots,
    root_system,
)
from .chevalley import (
    AlgebraElement,
    MixedSystemError,
    StructureConstantTable,
    bracket,
    build_constants,
    project_m,
)
from .flag import (
    G2Kind,
    IsotropyModule,
    NotComplementaryRootError,
    NotG2TypeError,
    PaintedDiagram,
    bracket_inclusion_table,
    paint,
)
from .equigeo import (
    CompatibilityGraph,
    EnumerationResult,
    MetricVector,
    StructuralFamily,
    SupportError,
    TangentVector,
    compatibility_graph,
    enumerate_maximal_families,
    equigeodesic_residual,
    is_equigeodesic_all_metrics,
    is_structural_family,
)
from .fixtures import FixtureError, FixtureSet, load_fixture, parse_space, space_diagram

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "CartanMatrix",
    "CompatibilityGraph",
    "DimensionMismatchError",
    "EnumerationResult",
    "FixtureError",
    "FixtureSet",
    "FlagrootsError",
    "G2Kind",
    "InvalidCartanError",
    "IsotropyModule",
    "LieType",
    "MetricVector",
    "MixedSystemError",
    "NotComplementaryRootError",
    "NotG2TypeError",
    "PaintedDiagram",
    "RootSystem",
    "StructuralFamily",
    "StructureConstantTable",
    "SupportError",
    "TangentVector",
    "bracket",
    "bracket_inclusion_table",
    "build_constants",
    "cartan_matrix",
    "compatibility_graph",
    "enumerate_maximal_families",
    "equigeodesic_residual",
    "generate_positive_roots",
    "is_equigeodesic_all_metrics",
    "is_structural_family",
    "load_fixture",
    "paint",
    "parse_space",
    "project_m",
    "root_system",
    "space_diagram",
]
