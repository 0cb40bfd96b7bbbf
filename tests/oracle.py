"""Reference computations that only the tests use.

Each one forms dense matrices or checks an identity the library itself
never needs; the tests hold the library's results against them.
"""
from __future__ import annotations

import operator

import numpy as np
import sympy

from qwcorona.corona_spectra import MATCH_TOL, CoronaParams, CoronaSpectrum, pair_radicand, top_radicand
from qwcorona.graphs import (
    Graph,
    _hop_distances,
    is_connected,
    signless_laplacian,
    vertex_complemented_corona,
)
from qwcorona.spectra import DEFAULT_SUPPORT_TOL, SpectralDecomposition, decompose


def corona_full_q(g: Graph, h: Graph) -> np.ndarray:
    """Dense signless Laplacian of the corona, for arbitrary factors."""
    return signless_laplacian(vertex_complemented_corona(g, h))


def decompose_graph(g: Graph) -> SpectralDecomposition:
    return decompose(signless_laplacian(g))


def path_graph(n: int) -> Graph:
    """The path P_n, vertices in order along it: an irregular, non-antipodal graph."""
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1
    return Graph(a, name=f"P:{n}")


def as_decomposition(spectrum: CoronaSpectrum):
    """Merge closed-form rows that share a value into (eigenvalues,
    multiplicities, projectors), eigenvalues descending, projectors dense."""
    items = sorted(range(len(spectrum.rows)), key=lambda k: spectrum.floats[k], reverse=True)
    eigenvalues = []
    multiplicities = []
    projectors = []
    for k in items:
        val = spectrum.floats[k]
        mult = spectrum.rows[k][4]
        if eigenvalues and eigenvalues[-1] - val <= MATCH_TOL:
            multiplicities[-1] += mult
            projectors[-1] = projectors[-1] + spectrum.projector(k)
        else:
            eigenvalues.append(val)
            multiplicities.append(mult)
            projectors.append(spectrum.projector(k))
    return tuple(eigenvalues), tuple(multiplicities), tuple(projectors)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs hop distances; -1 when unreachable."""
    return np.array([_hop_distances(g, s) for s in range(g.n)])


def diameter(g: Graph) -> int:
    dist = distance_matrix(g)
    if np.any(dist < 0):
        raise ValueError("diameter needs a connected graph")
    return int(dist.max())


def distance_k_adjacency(g: Graph, k: int) -> np.ndarray:
    """0/1 matrix with entry (u,v) = 1 iff the hop distance is exactly k."""
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"distance must be nonnegative, got {k}")
    dist = distance_matrix(g)
    if np.any(dist < 0):
        raise ValueError("distance layers need a connected graph")
    return (dist == k).astype(float)


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """The matrix sum_k theta_k F_k, rebuilt from the eigenvectors."""
    vals = np.repeat(dec.eigenvalues, dec.multiplicities)
    return (dec.vectors * vals) @ dec.vectors.T


def support_from_projectors(dec: SpectralDecomposition, u: int) -> tuple:
    """`eigenvalue_support` as a loop over dense projectors."""
    return tuple(
        theta
        for theta, f in zip(dec.eigenvalues, dec.projectors)
        if float(np.max(np.abs(f[:, u]))) > DEFAULT_SUPPORT_TOL
    )


def cospectrality_from_projectors(dec: SpectralDecomposition, u: int, v: int):
    """`strong_cospectrality` as a loop over dense projectors."""
    flag = True
    signs = []
    for f in dec.projectors:
        x = f[:, u]
        y = f[:, v]
        x_zero = float(np.max(np.abs(x))) <= DEFAULT_SUPPORT_TOL
        y_zero = float(np.max(np.abs(y))) <= DEFAULT_SUPPORT_TOL
        if x_zero and y_zero:
            signs.append(0)
        elif x_zero != y_zero:
            signs.append(0)
            flag = False
        elif float(np.max(np.abs(x - y))) <= DEFAULT_SUPPORT_TOL:
            signs.append(1)
        elif float(np.max(np.abs(x + y))) <= DEFAULT_SUPPORT_TOL:
            signs.append(-1)
        else:
            signs.append(0)
            flag = False
    return flag, tuple(signs)


def transition_matrix(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """U_Q(tau) = sum_r exp(-i tau theta_r) F_r."""
    n = dec.n
    out = np.zeros((n, n), dtype=complex)
    for theta, f in zip(dec.eigenvalues, dec.projectors):
        out += np.exp(-1j * tau * theta) * f
    return out


def antipodal_identity_check(g: Graph) -> bool:
    """Check A_d F_i = (-1)^i F_i for every projector, eigenvalues descending,
    to within DEFAULT_SUPPORT_TOL.

    A_d is the 0/1 matrix of vertex pairs at distance exactly the diameter.
    Holds for antipodal distance-regular graphs whose antipodal classes
    have size two; fails elsewhere.
    """
    if not is_connected(g):
        raise ValueError("antipodal identity needs a connected graph")
    a_d = distance_k_adjacency(g, diameter(g))
    dec = decompose_graph(g)
    for i, f in enumerate(dec.projectors):
        want = f if i % 2 == 0 else -f
        if float(np.max(np.abs(a_d @ f - want))) > DEFAULT_SUPPORT_TOL:
            return False
    return True


def pair_identity_targets(params: CoronaParams, theta: int):
    """Exact targets for the pair products:

    (s - v+)(s - v-) = -n2  and  ((s - v+)^2 + n2)((s - v-)^2 + n2) = n2 * D.
    """
    d = pair_radicand(params, theta)
    return -params.n2, params.n2 * d


def pair_products(s: int, a_sum: int, radicand: int, c: int) -> tuple:
    """Exact (x*y, (x^2 + c)*(y^2 + c)) for x, y = s - (a_sum +/- sqrt(radicand))/2,
    the left-hand sides of the pair and top identities, in sympy arithmetic."""
    root = sympy.sqrt(radicand)
    x = s - (a_sum + root) / 2
    y = s - (a_sum - root) / 2
    return sympy.expand(x * y), sympy.expand((x * x + c) * (y * y + c))


def top_identity_targets(params: CoronaParams):
    """Same products for the top pair, with n2*(1 - n1)^2 in place of n2."""
    d = top_radicand(params)
    c = params.n2 * (1 - params.n1) ** 2
    return -c, c * d
