"""Streaming weighted hypergraph matching, with certificates and baselines."""

from .core import (
    Hypergraph,
    InvalidInput,
    Matching,
    RunMetrics,
    Stream,
    validate_matching,
)
from .ingest import (
    ParseError,
    StreamOrder,
    WeightScheme,
    gen_random_hypergraph,
    order_stream,
    parse_hmetis,
    serialize_hmetis,
    synthesize_weights,
)
from .stack_matcher import (
    DualState,
    UpdateRule,
    dual_feasible,
    dual_upper_bound,
    run_stack_stream,
)
from .swap_matcher import optimal_alpha, run_swapset, swapset_ratio
from .baselines import run_greedy, run_naive
from .oracle import (
    OracleLimits,
    TooLarge,
    exact_max_weight_matching,
    exhaustive_max_weight_matching,
    is_maximal,
)

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "InvalidInput",
    "Matching",
    "RunMetrics",
    "Stream",
    "validate_matching",
    "ParseError",
    "StreamOrder",
    "WeightScheme",
    "gen_random_hypergraph",
    "order_stream",
    "parse_hmetis",
    "serialize_hmetis",
    "synthesize_weights",
    "DualState",
    "UpdateRule",
    "dual_feasible",
    "dual_upper_bound",
    "run_stack_stream",
    "optimal_alpha",
    "run_swapset",
    "swapset_ratio",
    "run_greedy",
    "run_naive",
    "OracleLimits",
    "TooLarge",
    "exact_max_weight_matching",
    "exhaustive_max_weight_matching",
    "is_maximal",
    "__version__",
]
