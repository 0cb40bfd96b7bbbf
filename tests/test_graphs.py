"""Tests for graph construction, generators, and the corona products."""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from qwcorona.graphs import (
    Graph,
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    generate,
    graph_from_edges,
    halved_cube_graph,
    hypercube_graph,
    is_connected,
    read_edge_list,
    regular_degree,
    signless_laplacian,
    vertex_complemented_corona,
)

from oracle import diameter, distance_k_adjacency, distance_matrix, path_graph


# =========================================================================
# Graph type and validation
# =========================================================================


def test_graph_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        Graph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        Graph(np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError):
        Graph(np.array([[0, 2], [2, 0]]))


def test_graph_adjacency_read_only():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0


def test_graph_degrees_and_edges():
    g = path_graph(4)
    assert list(g.degrees()) == [1, 2, 2, 1]
    assert g.adjacency.sum() // 2 == 3
    assert list(np.flatnonzero(g.adjacency[1])) == [0, 2]


# =========================================================================
# generators
# =========================================================================


def test_complete_graph():
    for n in range(1, 7):
        g = complete_graph(n)
        assert g.n == n
        assert g.adjacency.sum() // 2 == n * (n - 1) // 2
        assert regular_degree(g) == n - 1


def test_empty_graph():
    g = empty_graph(5)
    assert g.adjacency.sum() // 2 == 0
    assert regular_degree(g) == 0


def test_cycle_and_path():
    for n in range(3, 8):
        c = cycle_graph(n)
        assert c.adjacency.sum() // 2 == n
        assert regular_degree(c) == 2
        p = path_graph(n)
        assert p.adjacency.sum() // 2 == n - 1
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_cocktail_party_graph():
    # complement of a perfect matching: vertex 2i misses only 2i+1
    for m in range(1, 5):
        g = cocktail_party_graph(m)
        assert g.n == 2 * m
        assert regular_degree(g) == 2 * m - 2
        for i in range(m):
            assert g.adjacency[2 * i, 2 * i + 1] == 0


def test_hypercube_graph():
    for d in range(1, 5):
        g = hypercube_graph(d)
        assert g.n == 2 ** d
        assert regular_degree(g) == d
        assert diameter(g) == d


def test_halved_cube_graph():
    # halved cube of the 2d-cube: even-weight words, adjacent at Hamming
    # distance two; for d = 2 this is the cocktail party graph on 8 vertices
    g = halved_cube_graph(2)
    assert g.n == 8
    assert regular_degree(g) == 6
    cp = cocktail_party_graph(4)
    qg = np.sort(np.linalg.eigvalsh(signless_laplacian(g)))
    qcp = np.sort(np.linalg.eigvalsh(signless_laplacian(cp)))
    assert np.allclose(qg, qcp, atol=1e-9)

    g3 = halved_cube_graph(3)
    assert g3.n == 32
    assert regular_degree(g3) == 15


def test_generate_grammar():
    assert generate("K:4").n == 4
    assert generate("C:5").n == 5
    assert generate("empty:2").n == 2
    assert generate("CP:3").n == 6
    assert generate("HQ:3").n == 8
    assert generate("halved:2").n == 8
    for bad in ("K", "K:", "K:x", "Q:3", "K:0", ""):
        with pytest.raises(ValueError):
            generate(bad)


def test_regularity_error_names_vertex():
    with pytest.raises(ValueError, match="regularity violation at vertex 1"):
        regular_degree(path_graph(3))


# =========================================================================
# corona products
# =========================================================================


# (order, edges) of each factor: one and two vertices, irregular paths, a cycle
PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
BASES = [(1, []), (2, [(0, 1)]), (5, PATH5), (5, PATH5 + [(4, 0)])]
ATTACHMENTS = [(1, []), (3, []), (3, [(0, 1), (1, 2)]), (2, [(0, 1)])]


def test_vertex_complemented_corona_structure():
    for n1, g_edges in BASES:
        for n2, h_edges in ATTACHMENTS:
            # G on the base, H in each copy, copy i joined to every base j != i
            edges = list(g_edges)
            for i in range(n1):
                lo = n1 + i * n2
                edges += [(lo + a, lo + b) for a, b in h_edges]
                edges += [(j, lo + k) for j in range(n1) if j != i for k in range(n2)]
            expected = graph_from_edges(n1 * (1 + n2), edges)
            g, h = graph_from_edges(n1, g_edges), graph_from_edges(n2, h_edges)
            c = vertex_complemented_corona(g, h)
            assert np.array_equal(c.adjacency, expected.adjacency), (n1, g_edges, n2, h_edges)


def test_vertex_complemented_corona_degrees():
    # base degree r1 + n2*(n1-1), copy degree r2 + (n1-1)
    g = cocktail_party_graph(3)
    h = cycle_graph(3)
    c = vertex_complemented_corona(g, h)
    n1, n2 = g.n, h.n
    deg = c.degrees()
    assert all(deg[i] == 4 + 3 * (n1 - 1) for i in range(n1))
    assert all(deg[k] == 2 + (n1 - 1) for k in range(n1, c.n))


def test_corona_on_two_base_vertices():
    # n1 = 2: each copy attaches to the single other base vertex
    c = vertex_complemented_corona(complete_graph(2), complete_graph(1))
    assert c.n == 4
    assert c.adjacency[2, 1] == 1 and c.adjacency[2, 0] == 0
    assert c.adjacency[3, 0] == 1 and c.adjacency[3, 1] == 0


# =========================================================================
# distances
# =========================================================================


def test_distance_matrix_cycle():
    g = cycle_graph(6)
    d = distance_matrix(g)
    for u in range(6):
        for v in range(6):
            k = abs(u - v)
            assert d[u, v] == min(k, 6 - k)
    assert diameter(g) == 3


def test_distance_matrix_disconnected():
    g = empty_graph(3)
    d = distance_matrix(g)
    assert d[0, 1] == -1
    with pytest.raises(ValueError):
        diameter(g)


def test_distance_k_adjacency_partitions_pairs():
    g = hypercube_graph(3)
    total = np.zeros((8, 8))
    for k in range(diameter(g) + 1):
        total += distance_k_adjacency(g, k)
    assert np.array_equal(total, np.ones((8, 8)))


def test_signless_laplacian():
    g = path_graph(3)
    q = signless_laplacian(g)
    assert np.array_equal(q, np.array([[1, 1, 0], [1, 2, 1], [0, 1, 1]]))
    assert np.array_equal(q, q.T)


# =========================================================================
# edge lists
# =========================================================================


def test_graph_from_edges_validation():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert g.adjacency.sum() // 2 == 2
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 1), (1, 0)])


def test_read_edge_list(tmp_path):
    p = tmp_path / "g.edges"
    p.write_text("4\n# a comment\n0 1\n1 2\n2 3\n3 0\n")
    g = read_edge_list(p)
    q = np.sort(np.linalg.eigvalsh(signless_laplacian(g)))
    qc = np.sort(np.linalg.eigvalsh(signless_laplacian(cycle_graph(4))))
    assert np.allclose(q, qc, atol=1e-9)


def test_read_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("")
    with pytest.raises(ValueError):
        read_edge_list(bad)
    bad.write_text("x\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)
    bad.write_text("3\n0 1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(bad)


# =========================================================================
# connectivity
# =========================================================================


def test_is_connected():
    assert is_connected(cycle_graph(5))
    assert is_connected(complete_graph(1))
    assert not is_connected(empty_graph(2))
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_connected(two_triangles)


def test_corona_always_connected():
    # every copy vertex reaches n1 - 1 base vertices, so the corona of a
    # disconnected base is still connected once n1 >= 2... except for the
    # degenerate all-isolated case on two vertices where copies bridge
    for gspec in ("K:3", "C:4", "empty:3"):
        for hspec in ("K:1", "K:2", "empty:2"):
            c = vertex_complemented_corona(generate(gspec), generate(hspec))
            assert is_connected(c)


def test_pairs_distinct_in_small_corona():
    c = vertex_complemented_corona(cycle_graph(4), complete_graph(1))
    for u, v in combinations(range(c.n), 2):
        assert u != v
