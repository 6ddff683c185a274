"""Fair division of indivisible goods under groupwise maximin share thresholds.

Exact-rational solvers and verifiers: the full ladder of envy-based fairness
checkers, k-part maximin shares with witnesses, an envy-graph allocator with
a guaranteed half of every groupwise share, exact search for groupwise-fair
allocations, and a reproducible random-experiment harness.
"""

from .core import (Allocation, BudgetError, Bundle, InputError, Instance,
                   ParseError, Value, as_value, bundle_value, parse_allocation,
                   parse_instance, serialize_allocation, serialize_instance)
from .maximin import (GmmsThreshold, MaximinResult, gmms_threshold,
                      maximin_exceeds, maximin_share, maximin_share_naive, mms)
from .fairness import (FairnessReport, Notion, Violation, gmms_factor, is_ef1,
                       is_efl, is_efx, is_envy_free, is_gmms, is_kwise_fair,
                       is_mms, is_pmms)
from .algorithms import (EnvyGraph, PolicyError, SearchResult, TieBreakPolicy,
                         build_envy_graph, efl_allocate, exact_gmms_search,
                         lex_dominates, lexmax_allocation, resolve_envy_cycles)
from .generator import (GenSpec, efl_tight, efl_tight_policy, fixture,
                        generate, kwise_boundary, mms_not_ef1, mms_not_gmms,
                        single_good_two_agents)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
