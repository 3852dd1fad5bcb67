"""Bifurcation analysis toolkit for the spatially homogeneous Gray-Scott
kinetics: closed-form equilibria and curves, exact verification of the
codimension-2 organizing points, pseudo-arclength continuation, limit-cycle
machinery and global parameter-plane classification."""

from .core import Params, State, vector_field
from .equilibria import (Discriminants, EquilibriumSet, StabilityReport,
                         classify, discriminants, equilibria, hopf_F,
                         neutral_saddle_F, saddle_node_F)
from .kernels import get_backend

__version__ = "0.1.0"

__all__ = [
    "Params", "State", "vector_field",
    "Discriminants", "EquilibriumSet", "StabilityReport",
    "classify", "discriminants", "equilibria", "hopf_F",
    "neutral_saddle_F", "saddle_node_F", "get_backend",
    "__version__",
]
