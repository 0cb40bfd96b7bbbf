"""Graph construction: named families, corona products, distance layers, edge lists.

All graphs are simple, undirected, and stored as dense 0/1 adjacency
matrices.  Vertex order is part of every constructor's contract so that
matrix indices are reproducible across runs.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations

import numpy as np


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph with a symmetric 0/1 adjacency matrix."""

    adjacency: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        a = np.array(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not (a == a.T).all():
            raise ValueError("adjacency must be symmetric")
        if a.diagonal().any():
            raise ValueError("loops are not allowed")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("adjacency entries must be 0 or 1")
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)


def regular_degree(g: Graph) -> int:
    """Common degree of a regular graph; names the offending vertex otherwise."""
    degs = g.degrees()
    bad = np.flatnonzero(degs != degs[0])
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"regularity violation at vertex {i}: degree {int(degs[i])} != {int(degs[0])}"
        )
    return int(degs[0])


def is_connected(g: Graph) -> bool:
    return bool(np.all(_hop_distances(g, 0) >= 0))


def signless_laplacian(g: Graph) -> np.ndarray:
    """Q = D + A, the degree diagonal plus the adjacency matrix."""
    return np.diag(g.adjacency.sum(axis=1)) + g.adjacency


# ---------------------------------------------------------------------------
# named families


def complete_graph(n: int) -> Graph:
    n = _positive(n, "complete graph order")
    a = np.ones((n, n)) - np.eye(n)
    return Graph(a, name=f"K:{n}")


def empty_graph(n: int) -> Graph:
    n = _positive(n, "empty graph order")
    return Graph(np.zeros((n, n)), name=f"empty:{n}")


def cycle_graph(n: int) -> Graph:
    n = _positive(n, "cycle length")
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1
    return Graph(a, name=f"C:{n}")


def cocktail_party_graph(m: int) -> Graph:
    """Complement of a perfect matching on 2m vertices; pairs are (2i, 2i+1)."""
    m = _positive(m, "cocktail party parameter")
    n = 2 * m
    a = np.ones((n, n)) - np.eye(n)
    for i in range(m):
        a[2 * i, 2 * i + 1] = a[2 * i + 1, 2 * i] = 0
    return Graph(a, name=f"CP:{m}")


def hypercube_graph(d: int) -> Graph:
    """Binary d-cube; vertex u is the bit pattern of its index."""
    d = _positive(d, "hypercube dimension")
    n = 1 << d
    a = np.zeros((n, n))
    for u in range(n):
        for bit in range(d):
            a[u, u ^ (1 << bit)] = 1
    return Graph(a, name=f"HQ:{d}")


def halved_cube_graph(d: int) -> Graph:
    """Halved cube of the 2d-dimensional binary cube.

    Vertices are the even-weight bit patterns of length 2d in ascending
    order; two are adjacent when their Hamming distance is 2.
    """
    d = _positive(d, "halved cube parameter")
    width = 2 * d
    verts = [v for v in range(1 << width) if bin(v).count("1") % 2 == 0]
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    a = np.zeros((n, n))
    for v in verts:
        for b1, b2 in combinations(range(width), 2):
            w = v ^ (1 << b1) ^ (1 << b2)
            a[index[v], index[w]] = 1
    return Graph(a, name=f"halved:{d}")


_GENERATORS = {
    "K": complete_graph,
    "C": cycle_graph,
    "empty": empty_graph,
    "CP": cocktail_party_graph,
    "HQ": hypercube_graph,
    "halved": halved_cube_graph,
}


def generate(spec: str) -> Graph:
    """Build a named family member from a "name:parameter" token."""
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ValueError(f"cannot parse graph spec {spec!r}: expected name:parameter")
    builder = _GENERATORS.get(head)
    if builder is None:
        known = ", ".join(sorted(_GENERATORS))
        raise ValueError(f"unknown generator name {head!r} (known: {known})")
    try:
        param = int(tail)
    except ValueError:
        raise ValueError(
            f"cannot parse graph spec {spec!r}: parameter {tail!r} is not an integer"
        ) from None
    return builder(param)


def _positive(n: int, what: str) -> int:
    n = operator.index(n)
    if n <= 0:
        raise ValueError(f"{what} must be positive, got {n}")
    return n


# ---------------------------------------------------------------------------
# corona products


def vertex_complemented_corona(g: Graph, h: Graph) -> Graph:
    """Attach one copy of h per base vertex, joined to every other base vertex.

    Copy i keeps h's internal edges and is joined completely to all base
    vertices except vertex i itself.  Vertex order: the n1 base vertices
    first in g's order, then the copies in blocks, with vertex j of copy i
    at index n1 + i*n2 + j.  This order is a fixed contract for all matrix
    operations.
    """
    n1, n2 = g.n, h.n
    join = np.kron(np.ones((n1, n1)) - np.eye(n1), np.ones((1, n2)))
    a = np.block([[g.adjacency, join], [join.T, np.kron(np.eye(n1), h.adjacency)]])
    return Graph(a, name=f"corona({g.name or 'G'},{h.name or 'H'})")


# ---------------------------------------------------------------------------
# distances


def _hop_distances(g: Graph, source: int) -> np.ndarray:
    """Breadth-first hop distances from source; -1 when unreachable."""
    # every vertex's neighbours from one scan of the adjacency
    cols = np.nonzero(g.adjacency)[1].tolist()
    ends = np.cumsum(g.degrees()).tolist()
    neighbors = [cols[lo:hi] for lo, hi in zip([0] + ends, ends)]
    dist = [-1] * g.n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for v in neighbors[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return np.array(dist)


# ---------------------------------------------------------------------------
# edge list files


def graph_from_edges(n: int, edges, name: str = "") -> Graph:
    n = _positive(n, "vertex count")
    a = np.zeros((n, n))
    seen = set()
    for u, v in edges:
        u, v = operator.index(u), operator.index(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
        a[u, v] = a[v, u] = 1
    return Graph(a, name=name)


def read_edge_list(path) -> Graph:
    """Read a graph file: first line is n, then one "i j" edge per line, 0-based."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty edge list file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the vertex count") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: malformed edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"{path}: malformed edge line {ln!r}") from None
    return graph_from_edges(n, edges, name=str(path))
