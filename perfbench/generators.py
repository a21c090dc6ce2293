"""Seeded input generators. Each returns (edge text, label text): the
program under test only ever sees this text, never the generator state."""

from __future__ import annotations

from pathlib import Path

import numpy as np

KARATE_DIR = Path(__file__).resolve().parent.parent / "data"


def _edge_text(edges) -> str:
    return "".join(f"{a} {b}\n" for a, b in edges)


def _label_text(labels) -> str:
    return "".join(f"{i} {g}\n" for i, g in enumerate(labels))


def shuffled(texts: tuple[str, str], seed: int) -> tuple[str, str]:
    """The same edge and label lines in an order drawn from ``seed``.

    ``load_graph`` collapses and sorts edges and labels are keyed by vertex,
    so the parsed instance does not depend on the seed; only the text does.
    """
    rng = np.random.default_rng(seed)
    out = []
    for text in texts:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        out.append("".join(lines[i] + "\n" for i in rng.permutation(len(lines))))
    return out[0], out[1]


def karate(seed: int) -> tuple[str, str]:
    """The bundled 34-vertex karate files, lines shuffled by ``seed``."""
    texts = tuple((KARATE_DIR / name).read_text() for name in ("karate_edges.txt", "karate_labels.txt"))
    return shuffled(texts, seed)


def mind_like(seed: int, n: int = 250, minority: float = 0.25, homophily: float = 0.3) -> tuple[str, str]:
    """Two-group digraph with 3..7 out-draws per vertex, a 1:3 split and a
    weak same-group bias. Seed 7 gives the criterion-11 test instance."""
    rng = np.random.default_rng(seed)
    n0 = int(round(minority * n))
    labels = np.array([0] * n0 + [1] * (n - n0))
    edges = set()
    for i in range(n):
        for _ in range(int(rng.integers(3, 8))):
            if rng.random() < homophily:
                pool = np.flatnonzero(labels == labels[i])
            else:
                pool = np.arange(n)
            j = int(pool[rng.integers(len(pool))])
            if j != i:
                edges.add((i, j))
    n_seen = max(max(e) for e in edges) + 1
    return _edge_text(sorted(edges)), _label_text(labels[:n_seen])


def synth_sinks(
    seed: int,
    n: int = 10_000,
    shares=(0.2, 0.3, 0.5),
    out_degree: int = 5,
    sink_share: float = 0.01,
) -> tuple[str, str]:
    """n vertices in len(shares) groups of the given shares; a ``sink_share``
    fraction has no out-edges, every other vertex has ``out_degree`` distinct
    uniform targets other than itself. Vertex n-1 is never a sink, so the
    parsed graph has exactly n vertices."""
    rng = np.random.default_rng(seed)
    sizes = np.floor(np.asarray(shares) * n).astype(int)
    sizes[-1] = n - sizes[:-1].sum()
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    sinks = rng.choice(n - 1, size=int(round(sink_share * n)), replace=False)
    is_sink = np.zeros(n, bool)
    is_sink[sinks] = True
    lines = []
    for i in np.flatnonzero(~is_sink):
        targets = rng.choice(n - 1, size=out_degree, replace=False)
        targets[targets >= i] += 1  # skip the self-loop
        lines.extend(f"{i} {j}\n" for j in np.sort(targets))
    return "".join(lines), _label_text(labels)
