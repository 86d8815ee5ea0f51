"""Online bipartite matching with replacements.

Clients arrive one at a time with their edges; every arrival is matched along
a shortest augmenting path to a server with spare capacity.  The package
bundles a reference engine, a dynamic-shortest-path engine, exact rational
load analysis, capacitated / min-max / approximate-semi-matching modes,
instance generators, and independent validation oracles.
"""

from .balance import (
    BalancedFlow,
    Peel,
    PrefixBalance,
    balanced_flow,
    effective_clients,
    effective_necessities,
    limit_feasible,
    max_ratio,
)
from .errors import InvariantViolation
from .extensions import (
    EpochRecord,
    opt_load,
    run_capacitated,
    run_minmax,
    run_semi_matching,
)
from .fast_engine import FastSapEngine, default_depth_limit, run_fast_sap
from .flownet import FlowNetwork, MaxFlowResult, max_flow
from .generators import (
    gen_complete,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    star_chain_probes,
)
from .instance import ArrivalInstance
from .matching import (
    ArrivalRecord,
    AugPath,
    MatchState,
    RunLog,
    SapEngine,
    flip_path,
    run_sap,
)
from .oracles import (
    CopyMap,
    brute_max_ratio,
    hopcroft_karp_size,
    oracle_balanced_flow,
    oracle_opt_load,
    oracle_shortest_aug_path,
)
from .sink_tree import SinkDistanceTree

__all__ = [
    "ArrivalInstance",
    "ArrivalRecord",
    "AugPath",
    "BalancedFlow",
    "CopyMap",
    "EpochRecord",
    "FastSapEngine",
    "FlowNetwork",
    "InvariantViolation",
    "MatchState",
    "MaxFlowResult",
    "Peel",
    "PrefixBalance",
    "RunLog",
    "SapEngine",
    "SinkDistanceTree",
    "balanced_flow",
    "brute_max_ratio",
    "default_depth_limit",
    "effective_clients",
    "effective_necessities",
    "flip_path",
    "gen_complete",
    "gen_minmax_adversary",
    "gen_random",
    "gen_star_chain",
    "hopcroft_karp_size",
    "limit_feasible",
    "max_flow",
    "max_ratio",
    "opt_load",
    "oracle_balanced_flow",
    "oracle_opt_load",
    "oracle_shortest_aug_path",
    "run_capacitated",
    "run_fast_sap",
    "run_minmax",
    "run_sap",
    "run_semi_matching",
    "star_chain_probes",
]
