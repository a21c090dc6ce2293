"""Group-fair PageRank by reweighting existing edges.

The package builds row-stochastic transition matrices from edge lists,
computes PageRank and group scores, evaluates fairness losses and their
sparse gradients, and runs projected gradient descent (plain, restricted,
and group-adapted) next to the FairWalk and locally fair baselines.
"""

from .baselines import BaselineResult, UnsupportedGroupCountError, fairwalk, lfpr_n, lfpr_u
from .graph import (
    FairnessTarget,
    Graph,
    GraphParseError,
    GroupAssignment,
    PageRankConfig,
    TransitionMatrix,
    build_transition,
    load_graph,
    load_labels,
    parse_matrix,
    serialize_matrix,
)
from .loss import (
    grad_fair,
    grad_group_adapted,
    lipschitz_bound,
    loss_fair,
    loss_from_scores,
    loss_group_adapted,
)
from .metrics import MetricBundle, UndefinedCoefficientError, delta_p, rho_bar, rho_tilde, spearman
from .optimizer import (
    ALPHA_GRID,
    DivergedError,
    OptimizationReport,
    OptimizerConfig,
    adapt_gd,
    fair_gd,
)
from .pagerank import (
    OracleSizeError,
    group_scores,
    neumann_y,
    pagerank_direct,
    pagerank_power,
    pagerank_residual,
)
from .projection import BoxBounds, InfeasibleBoxError, project_matrix, project_simplex, project_simplex_box

__all__ = [
    "ALPHA_GRID",
    "BaselineResult",
    "BoxBounds",
    "DivergedError",
    "FairnessTarget",
    "Graph",
    "GraphParseError",
    "GroupAssignment",
    "InfeasibleBoxError",
    "MetricBundle",
    "OptimizationReport",
    "OptimizerConfig",
    "OracleSizeError",
    "PageRankConfig",
    "TransitionMatrix",
    "UndefinedCoefficientError",
    "UnsupportedGroupCountError",
    "adapt_gd",
    "build_transition",
    "delta_p",
    "fair_gd",
    "fairwalk",
    "grad_fair",
    "grad_group_adapted",
    "group_scores",
    "lfpr_n",
    "lfpr_u",
    "lipschitz_bound",
    "load_graph",
    "load_labels",
    "loss_fair",
    "loss_from_scores",
    "loss_group_adapted",
    "neumann_y",
    "pagerank_direct",
    "pagerank_power",
    "pagerank_residual",
    "parse_matrix",
    "project_matrix",
    "project_simplex",
    "project_simplex_box",
    "rho_bar",
    "rho_tilde",
    "serialize_matrix",
    "spearman",
]
