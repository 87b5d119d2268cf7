"""Exact collapsibility machinery for simplicial complexes.

The package builds and verifies complexes that expand to the full simplex
by elementary anticollapses while having no free faces, together with the
supporting tool chain: integer homology, collapse certificates,
combinatorial duals, acyclic matchings, and random spanning complexes.
"""

from .collapse import (
    ANTICOLLAPSE,
    COLLAPSE,
    Certificate,
    Matching,
    MorseVector,
    StepPair,
    apply_step,
    core_erosion,
    free_faces,
    is_non_evasive,
    random_discrete_morse,
    replay,
    search_collapse,
    verify_matching_acyclic,
)
from .complexes import (
    Face,
    SimplicialComplex,
    digest,
    from_facets,
    join,
    link_and_del,
    read_facet_file,
    skeleton,
    write_facet_file,
)
from .constructions import (
    CatalogEntry,
    Refusal,
    catalog,
    double_cone,
    find_base,
    lift_matching,
    load_base_case,
    stacking_move,
    theorem2_construct,
)
from .duality import (
    alexander_dual,
    check_alexander_duality,
    dual_certificate,
    is_anticollapsible,
)
from .errors import InputError, SizeError, StepError
from .homology import (
    BoundaryMatrix,
    HomologyProfile,
    boundary_matrix,
    homology,
    is_acyclic,
)
from .hypertrees import (
    HypertreeReport,
    is_hypertree,
    kalai_check,
    kruskal_generate,
    run_survey,
    survey,
)

__version__ = "0.1.0"

__all__ = [
    "ANTICOLLAPSE",
    "COLLAPSE",
    "BoundaryMatrix",
    "CatalogEntry",
    "Certificate",
    "Face",
    "HomologyProfile",
    "HypertreeReport",
    "InputError",
    "Matching",
    "MorseVector",
    "Refusal",
    "SimplicialComplex",
    "SizeError",
    "StepError",
    "StepPair",
    "alexander_dual",
    "apply_step",
    "boundary_matrix",
    "catalog",
    "check_alexander_duality",
    "core_erosion",
    "digest",
    "double_cone",
    "dual_certificate",
    "find_base",
    "free_faces",
    "from_facets",
    "homology",
    "is_acyclic",
    "is_anticollapsible",
    "is_hypertree",
    "is_non_evasive",
    "join",
    "kalai_check",
    "kruskal_generate",
    "lift_matching",
    "link_and_del",
    "load_base_case",
    "random_discrete_morse",
    "read_facet_file",
    "replay",
    "run_survey",
    "search_collapse",
    "skeleton",
    "stacking_move",
    "survey",
    "theorem2_construct",
    "verify_matching_acyclic",
    "write_facet_file",
]
