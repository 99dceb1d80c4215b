"""Exact cycle-factor statistics of regular digraphs.

Counterexample constructions to the looped-clique maximality conjecture,
their closed forms, brute-force enumeration engines, benchmark
certificates, and a reproducible local search.
"""

from .enumeration import (
    FactorStats,
    cycle_factor_stats,
    expected_cycles,
    two_factor_stats,
)
from .errors import (
    GenerationError,
    IndivisibleOrderError,
    InternalCheckError,
    NoCycleFactorError,
    NotRegularError,
)
from .exact import GadgetClosedForm, benchmark_excess, gadget_closed_form, harmonic
from .families import (
    complete_looped,
    crossing_gadget,
    looped_bidirected_cycle,
    padded_gadget,
)
from .graphs import DiGraph, UGraph, fingerprint, from_text, is_d_regular, to_text
from .search import SearchConfig, SearchRecord, run_search
from .verify import Certificate, SuiteReport, certify

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DiGraph",
    "FactorStats",
    "GadgetClosedForm",
    "GenerationError",
    "IndivisibleOrderError",
    "InternalCheckError",
    "NoCycleFactorError",
    "NotRegularError",
    "SearchConfig",
    "SearchRecord",
    "SuiteReport",
    "UGraph",
    "benchmark_excess",
    "certify",
    "complete_looped",
    "crossing_gadget",
    "cycle_factor_stats",
    "expected_cycles",
    "fingerprint",
    "from_text",
    "gadget_closed_form",
    "harmonic",
    "is_d_regular",
    "looped_bidirected_cycle",
    "padded_gadget",
    "run_search",
    "to_text",
    "two_factor_stats",
]
