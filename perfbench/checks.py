"""Correctness checks on the program's outputs. Each returns (ok, detail);
the self-test plants a wrong answer into every one of them."""

from __future__ import annotations

import numpy as np

ROW_SUM_TOL = 1e-12
BOX_TOL = 1e-12


def scores_within(got, want, tol: float):
    """Largest gap between two score vectors is at most ``tol``."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    gap = float(np.abs(got - want).max()) if got.shape == want.shape else float("inf")
    return gap <= tol, f"scores {np.round(got, 4).tolist()} vs {want.tolist()} (gap {gap:.4f}, tol {tol})"


def less_than(a: float, b: float, what: str):
    return a < b, f"{what}: {a:.6g} < {b:.6g}"


def nonincreasing(trace):
    bad = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    return not bad, f"loss_trace of {len(trace)} values, first rise at {bad[0] if bad else None}"


def rows_in_boxes(original, revised, delta: float, epsilon: float):
    """Non-sink rows of ``revised`` sum to 1, live on ``original``'s pattern
    and keep every entry inside [max(0,(1-d)r-e), min(1,(1+d)r+e)]."""
    if original.n != revised.n:
        return False, "dimension differs"
    live = ~original.sink_mask
    sums = revised.row_sums()
    worst_sum = float(np.abs(sums[live] - 1.0).max())
    if worst_sum > ROW_SUM_TOL:
        return False, f"row sum off by {worst_sum:.3e}"
    n = original.n
    keys_o = original.entry_rows() * n + original.indices
    keys_r = revised.entry_rows() * n + revised.indices
    pos = np.searchsorted(keys_o, keys_r)
    if (pos >= len(keys_o)).any() or (keys_o[np.minimum(pos, len(keys_o) - 1)] != keys_r).any():
        return False, "revised matrix stores an entry outside the original pattern"
    w = np.zeros(len(keys_o))
    w[pos] = revised.data  # entries the file dropped are exact zeros
    ref = original.data
    lower = np.maximum(0.0, (1.0 - delta) * ref - epsilon)
    upper = np.minimum(1.0, (1.0 + delta) * ref + epsilon)
    keep = live[original.entry_rows()]
    excess = float(np.maximum(lower - w, w - upper)[keep].max())
    return excess <= BOX_TOL, f"row sums within {worst_sum:.1e}, worst box excess {excess:.1e}"


def bit_exact(a, b):
    """Same size, pattern, sink rows and bit-identical weights."""
    same = (
        a.n == b.n
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.sink_mask, b.sink_mask)
        and a.data.shape == b.data.shape
        and np.array_equal(a.data.view(np.int64), b.data.view(np.int64))
    )
    return same, f"round trip of {a.nnz} entries {'bit-exact' if same else 'differs'}"


def dominates(ours: float, theirs: dict):
    """``ours`` beats every competitor value."""
    losers = {k: v for k, v in theirs.items() if not ours > v}
    return not losers, f"fairgd {ours:.4f} vs " + ", ".join(f"{k} {v:.4f}" for k, v in theirs.items())


def printed_equals(stdout: str, key: str, value: float):
    """``key: value`` line of a command's output matches ``value`` as printed (%.6e)."""
    want = f"{value:.6e}"
    for line in stdout.splitlines():
        if line.startswith(key + ":"):
            got = line.split(":", 1)[1].strip()
            return got == want, f"{key} printed {got}, report {want}"
    return False, f"no '{key}:' line in output"


def _files(root) -> dict:
    return {p.relative_to(root): p for p in root.rglob("*") if p.is_file()} if root.is_dir() else {}


def same_outputs(op: dict, first: dict, out, first_out, volatile=("wall_time_ms",)):
    """A repeated op returned the same fields as its first run, timings
    aside, and wrote byte-identical files under its ``out`` directory."""
    diff = sorted(k for k in op.keys() | first.keys() if k not in volatile and op.get(k) != first.get(k))
    if diff:
        return False, f"fields differ from the first pass: {', '.join(diff)}"
    if "out" not in op:
        return True, "same fields as the first pass"
    now, then = _files(out / op["out"]), _files(first_out / op["out"])
    if now.keys() != then.keys():
        return False, f"files differ from the first pass: {sorted(map(str, now.keys() ^ then.keys()))}"
    changed = [str(k) for k, p in now.items() if p.read_bytes() != then[k].read_bytes()]
    return not changed, f"{len(now)} files " + (f"differ: {changed}" if changed else "identical to the first pass")
