"""Reference reweighting methods: FairWalk (any K) and the two locally fair
two-group schemes, one neighborhood-based and one residual-based."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import FairnessTarget, GroupAssignment, TransitionMatrix


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


def _group_spread(groups: GroupAssignment, rows, ks, shares):
    """COO triples in which row rows[t] spreads shares[t] uniformly over
    every member of group ks[t]."""
    sizes = groups.group_sizes
    members = np.argsort(groups.labels, kind="stable")  # grouped, ascending ids
    reps = sizes[ks]
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    cols = members[np.repeat(np.cumsum(sizes)[ks] - reps, reps) + offset]
    return np.repeat(rows, reps), cols, np.repeat(shares / reps, reps)


def _assemble(P: TransitionMatrix, groups: GroupAssignment, phi, *blocks) -> TransitionMatrix:
    """Validated matrix from COO (rows, cols, vals) blocks, entries named
    twice adding up and exact zeros dropped, whose sink rows (P's) stand for
    the fair sink vector: each phi_k spread uniformly over group k."""
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*blocks))
    keys, inv = np.unique(rows * P.n + cols, return_inverse=True)
    data = np.bincount(inv, vals, len(keys))
    keys, data = keys[data != 0.0], data[data != 0.0]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // P.n, minlength=P.n))])
    sink_row = phi[groups.labels] / groups.group_sizes[groups.labels]
    tm = TransitionMatrix(P.n, indptr, keys % P.n, data, P.sink_mask.copy(), sink_row)
    tm.validate()
    return tm


def fairwalk(P: TransitionMatrix, groups: GroupAssignment, target: FairnessTarget) -> BaselineResult:
    """Rescale each row so the mass entering each reachable group is
    proportional to its target share; weights within a group keep their
    relative sizes. The pattern is preserved; sink rows pass through."""
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
    group k; with no such neighbor the share spreads over all of group k,
    extending the pattern; a sink row spreads both shares."""
    _require_two_groups(groups, "lfpr_n")
    phi = target.phi
    rows, gcols, counts = _edges(P, groups)
    spread_rows, ks = np.nonzero((counts == 0) & ~P.sink_mask[:, None])
    edges = (rows, P.indices, phi[gcols] / counts[rows, gcols])
    tm = _assemble(P, groups, phi, edges, _group_spread(groups, spread_rows, ks, phi[ks]))
    return BaselineResult(tm, "lfpr_n")


def lfpr_u(P: TransitionMatrix, groups: GroupAssignment, target: FairnessTarget) -> BaselineResult:
    """Uniform edge weights capped at the over-represented group's share;
    each row's leftover share for its under-represented group (a sink row's
    two shares) spreads uniformly over that whole group: the residual term."""
    _require_two_groups(groups, "lfpr_u")
    phi1 = float(target.phi[0])
    rows, _, counts = _edges(P, groups)
    out1, out2 = counts.T
    outdeg = out1 + out2
    # under0: group 0 under-represented, so edges carry group 1's full share;
    # under1 mirrors it; otherwise neighbor fractions already match the target
    under0 = out1 < phi1 * outdeg
    under1 = ~under0 & (out2 < (1.0 - phi1) * outdeg)
    num = np.select([under0, under1], [1.0 - phi1, phi1], 1.0)
    # every divisor is >= 1 but in sink rows, which neither weigh edges nor spread
    base = num / np.maximum(np.select([under0, under1], [out2, out1], outdeg), 1)
    resid = np.where(under0, phi1 - base * out1, (1.0 - phi1) - base * out2)
    spread = np.flatnonzero(under0 | under1)
    residual = _group_spread(groups, spread, under1[spread].astype(np.int64), resid[spread])
    tm = _assemble(P, groups, np.array([phi1, 1.0 - phi1]), (rows, P.indices, base[rows]), residual)
    return BaselineResult(tm, "lfpr_u")
