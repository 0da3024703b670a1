"""Exact solvers, structural decompositions, and constructive certificates
for domination, irredundance, and clique isolation in finite simple graphs."""

from .constructive import (
    BoundCertificate,
    applicable_ks,
    build_isolating_set,
    isolation_bound,
)
from .errors import (
    CertificateError,
    DichotomyError,
    Graph6ParseError,
    InputError,
    MachineryError,
    OrderCapError,
    ParameterError,
    PreconditionError,
    RegimeError,
    SizeCapError,
)
from .families import FAMILIES, FamilyInstance
from .graph import (
    Graph,
    GraphClass,
    classify,
    encode_graph6,
    parse_graph6,
)
from .harness import (
    CheckReport,
    certify_families,
    certify_family,
    check_graph,
    conjecture_survey,
    survey_ratios,
    verify_stream,
)
from .partition import (
    IrredundancePartition,
    PairRefinement,
    TwinRefinement,
    UndominatedWitness,
    check_delta_regime,
    compute_partition,
    refine_pairs,
    refine_twins,
    representatives_dominate,
    undominated_witnesses,
)
from .predicates import (
    is_dominating,
    is_irredundant,
    is_k_isolating,
    is_maximal_irredundant,
    private_neighbors,
)
from .solvers import (
    PackingCertificate,
    SolveResult,
    gamma,
    iota,
    iota_lower_bound,
    ir,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCertificate",
    "CertificateError",
    "CheckReport",
    "DichotomyError",
    "FAMILIES",
    "FamilyInstance",
    "Graph",
    "Graph6ParseError",
    "GraphClass",
    "InputError",
    "IrredundancePartition",
    "MachineryError",
    "OrderCapError",
    "PackingCertificate",
    "PairRefinement",
    "ParameterError",
    "PreconditionError",
    "RegimeError",
    "SizeCapError",
    "SolveResult",
    "TwinRefinement",
    "UndominatedWitness",
    "applicable_ks",
    "build_isolating_set",
    "certify_families",
    "certify_family",
    "check_graph",
    "classify",
    "compute_partition",
    "check_delta_regime",
    "conjecture_survey",
    "encode_graph6",
    "gamma",
    "iota",
    "iota_lower_bound",
    "ir",
    "is_dominating",
    "is_irredundant",
    "is_k_isolating",
    "is_maximal_irredundant",
    "isolation_bound",
    "parse_graph6",
    "private_neighbors",
    "refine_pairs",
    "refine_twins",
    "representatives_dominate",
    "survey_ratios",
    "undominated_witnesses",
    "verify_stream",
]
