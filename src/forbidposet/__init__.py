"""Forbidden colored-poset patterns in the Boolean lattice.

Families of subsets of [n] are screened for configurations described by
inclusions plus equal-cardinality constraints (expressed as order-preserving
colorings of a pattern poset).  The package detects embeddings of such
patterns, evaluates the closed-form extremal bounds, generates the matching
extremal constructions, audits the chain-counting machinery behind the
bounds, and computes exact extremal values at small n by branch and bound.
"""

from .audits import (
    AlphaReport,
    ChainSampleReport,
    ForkBandReport,
    SLemmaReport,
    alpha_audit,
    audit_S_lemma,
    audit_fork_lambda,
    compute_S,
    compute_S_recursive,
    estimate_lubell,
    weighted_chain_average,
)
from .bounds import (
    BOUND_IDS,
    BoundResult,
    constant_for_colored_poset,
    constant_for_poset_any_coloring,
    evaluate_bound,
    general_constant,
)
from .configs import (
    ColoredPoset,
    ConfigId,
    ConfigSet,
    Violation,
    build_named,
    load_config,
    parse_config,
    parse_config_id,
    serialize_config,
    validate,
)
from .constructions import complement_family, diamond_levels, kt_construction, middle_levels
from .detector import (
    count_embeddings,
    find_embedding,
    find_violation,
    is_avoiding,
    verify_embedding,
)
from .lattice import (
    Family,
    binomial,
    chains_through,
    lub_bound,
    lubell,
    q_value,
    sigma,
    tail_ratio,
)
from .search import (
    SearchProblem,
    SearchResult,
    exact_max_family,
    greedy_lower_bound,
    verify_witness,
)

__version__ = "0.2.0"

__all__ = [
    "AlphaReport",
    "BOUND_IDS",
    "BoundResult",
    "ChainSampleReport",
    "ColoredPoset",
    "ConfigId",
    "ConfigSet",
    "Family",
    "ForkBandReport",
    "SLemmaReport",
    "SearchProblem",
    "SearchResult",
    "Violation",
    "alpha_audit",
    "audit_S_lemma",
    "audit_fork_lambda",
    "binomial",
    "build_named",
    "chains_through",
    "complement_family",
    "compute_S",
    "compute_S_recursive",
    "constant_for_colored_poset",
    "constant_for_poset_any_coloring",
    "count_embeddings",
    "diamond_levels",
    "estimate_lubell",
    "evaluate_bound",
    "exact_max_family",
    "find_embedding",
    "find_violation",
    "general_constant",
    "greedy_lower_bound",
    "is_avoiding",
    "kt_construction",
    "load_config",
    "lub_bound",
    "lubell",
    "middle_levels",
    "parse_config",
    "parse_config_id",
    "q_value",
    "serialize_config",
    "sigma",
    "tail_ratio",
    "validate",
    "verify_embedding",
    "verify_witness",
    "weighted_chain_average",
]
