"""Sparse locally jammed disc packings: construction, verification, simulation."""

from .configuration import Configuration
from .construction import (
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
    verify_stable,
    overlap_audit,
)
from .metropolis import (
    ChainParams,
    run_chain,
    escape_experiment,
)

__version__ = "0.1.0"
