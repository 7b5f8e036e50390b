"""Sparse locally jammed disc packings: construction, verification, simulation."""

from .configuration import Configuration
from .construction import (
    CurveFamily,
    BridgeChain,
    AssemblyMetrics,
    build_half_chain,
    tune_epsilon,
    complete_symmetric_bridge,
    junction_piece,
    assemble_square,
    five_disc_config,
    tiling_3_12_12,
    density,
)
from .verifier import (
    contact_graph,
    is_locally_jammed,
    verify_stable,
    overlap_audit,
)
from .metropolis import (
    ChainParams,
    ChainStats,
    run_chain,
    shrink_radius,
    escape_experiment,
)

__version__ = "0.1.0"
