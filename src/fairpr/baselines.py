"""Reference reweighting methods: FairWalk (any K) and the two locally fair
two-group schemes, one neighborhood-based and one residual-based."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import FairnessTarget, GroupAssignment, TransitionMatrix, _check_target


class UnsupportedGroupCountError(ValueError):
    """Method is defined for two groups only."""


@dataclass(frozen=True)
class BaselineResult:
    matrix: TransitionMatrix
    method: str


def _edges(P: TransitionMatrix, groups: GroupAssignment, weights=None):
    """Row ids and target groups of the edges (the stored entries), and an
    (n, K) table holding per row and group their count, or the sum of their
    ``weights`` when given."""
    rows, gcols = P.entry_rows(), groups.labels[P.indices]
    table = np.bincount(rows * groups.K + gcols, weights, P.n * groups.K).reshape(P.n, groups.K)
    return rows, gcols, table


def _assemble(P: TransitionMatrix, groups: GroupAssignment, phi, data, rows, ks, shares) -> TransitionMatrix:
    """Validated matrix on P's edges with weights ``data``, in which row
    rows[t] spreads shares[t] evenly over group ks[t]: a share of
    shares[t] / |G_k| of the group's 0/1 indicator, vector 1 + k. P's rows
    without edges are share 1 of vector 0, the fair sink vector, phi_k over
    each group k evenly (zeros without such rows). Zero shares are left out."""
    sizes, labels = groups.group_sizes, groups.labels
    sinks = np.flatnonzero(~P.edge_mask)
    fair = phi[labels] / sizes[labels] if len(sinks) else np.zeros(P.n)
    vectors = np.vstack([fair, labels == np.arange(groups.K)[:, None]])
    per_member = shares / sizes[ks]
    keep = per_member != 0.0
    rows, ids = np.concatenate([sinks, rows[keep]]), np.concatenate([np.zeros_like(sinks), 1 + ks[keep]])
    values = np.concatenate([np.ones(len(sinks)), per_member[keep]])
    tm = TransitionMatrix(P.n, P.indptr, P.indices, data, shares=(vectors, rows, ids, values))
    tm.validate()
    return tm


def fairwalk(P: TransitionMatrix, groups: GroupAssignment, target: FairnessTarget) -> BaselineResult:
    """Rescale each row so the mass entering each reachable group is
    proportional to its target share; weights within a group keep their
    relative sizes. The pattern is preserved; sink rows pass through."""
    _check_target(groups, target)
    phi = target.phi
    rows, gcols, mass = _edges(P, groups, P.data)
    reach_phi = np.where(mass > 0, phi, 0.0).sum(axis=1)
    edge = np.flatnonzero(reach_phi[rows] != 0.0)  # rows reaching no targeted group stay
    rows, gcols = rows[edge], gcols[edge]
    out = P.data.copy()
    out[edge] = phi[gcols] * P.data[edge] / (mass[rows, gcols] * reach_phi[rows])
    tm = P.with_data(out)
    tm.validate()
    return BaselineResult(tm, "fairwalk")


def _require_two_groups(groups: GroupAssignment, method: str) -> None:
    if groups.K != 2:
        raise UnsupportedGroupCountError(f"{method} supports exactly 2 groups, got K = {groups.K}")


def lfpr_n(P: TransitionMatrix, groups: GroupAssignment, target: FairnessTarget) -> BaselineResult:
    """Every vertex splits share phi_k uniformly over its out-neighbors in
    group k; with no such neighbor the share spreads over all of group k, a
    share of the group's indicator vector beside the stored edges; a row
    without edges spreads both shares (the fair sink vector)."""
    _require_two_groups(groups, "lfpr_n")
    _check_target(groups, target)
    phi = target.phi
    rows, gcols, counts = _edges(P, groups)
    spread_rows, ks = np.nonzero((counts == 0) & P.edge_mask[:, None])
    tm = _assemble(P, groups, phi, phi[gcols] / counts[rows, gcols], spread_rows, ks, phi[ks])
    return BaselineResult(tm, "lfpr_n")


def lfpr_u(P: TransitionMatrix, groups: GroupAssignment, target: FairnessTarget) -> BaselineResult:
    """Uniform edge weights capped at the over-represented group's share;
    each row's leftover share for its under-represented group spreads
    uniformly over that whole group, as a share of the group's indicator
    vector: the residual term. A row without edges is the fair sink vector."""
    _require_two_groups(groups, "lfpr_u")
    _check_target(groups, target)
    phi1 = float(target.phi[0])
    rows, _, counts = _edges(P, groups)
    out1, out2 = counts.T
    outdeg = out1 + out2
    # under0: group 0 under-represented, so edges carry group 1's full share;
    # under1 mirrors it; otherwise neighbor fractions already match the target
    under0 = out1 < phi1 * outdeg
    under1 = ~under0 & (out2 < (1.0 - phi1) * outdeg)
    num = np.select([under0, under1], [1.0 - phi1, phi1], 1.0)
    # every divisor is >= 1 but in rows without edges, which neither weigh edges nor spread
    base = num / np.maximum(np.select([under0, under1], [out2, out1], outdeg), 1)
    resid = np.where(under0, phi1 - base * out1, (1.0 - phi1) - base * out2)
    spread = np.flatnonzero(under0 | under1)
    phi = np.array([phi1, 1.0 - phi1])
    tm = _assemble(P, groups, phi, base[rows], spread, under1[spread].astype(np.int64), resid[spread])
    return BaselineResult(tm, "lfpr_u")
