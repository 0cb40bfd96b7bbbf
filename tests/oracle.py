"""Reference computations that only the tests use.

Each one forms dense matrices or checks an identity the library itself
never needs; the tests hold the library's results against them.
"""
from __future__ import annotations

import math
import operator

import mpmath
import numpy as np
import sympy

from qwcorona.algebraic import DEFAULT_RECOGNITION_TOL
from qwcorona.corona_spectra import MATCH_TOL, CoronaParams, CoronaSpectrum, pair_radicand, top_radicand
from qwcorona.graphs import (
    Graph,
    _hop_distances,
    is_connected,
    signless_laplacian,
    vertex_complemented_corona,
)
from qwcorona.spectra import DEFAULT_SUPPORT_TOL, SpectralDecomposition, _phase_sum, decompose
from qwcorona.state_transfer import _phase_rows


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


def corona_transition_element(
    gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int, taus
):
    """Walk amplitude (u,0) -> (v,0) on the corona at float times, from the
    PGST scan's phase rows: each row (w_plus, w_minus, p, q, d) adds
    w*exp(-i*tau*mu) for its members mu = (p +/- sqrt(d))/q.  The tests hold
    it against the dense matrix exponential, which checks the rows' pair
    weights."""
    rows = _phase_rows(gdec, params, u, v)
    weights = [w for row in rows for w in row[:2]]
    freqs = [(p + sign * math.sqrt(d)) / q for _, _, p, q, d in rows for sign in (1, -1)]
    return _phase_sum(weights, freqs, taus)


def _exact_members(gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int) -> list:
    """(weight, mu) for every pair member in the amplitude (u,0) -> (v,0),
    at mpmath's working precision.

    The paper's pair formula on G's eigenvalues and `gdec.entries`, not the
    library's rows: theta puts weight F_theta[u,v]*(1 +/- x/L)/2 on the
    member mu = (a +/- L)/2, where a = theta + s + t, x = theta - s + t and
    L^2 = x^2 + 4*n2, or x^2 + 4*n2*(n1 - 1)^2 at the top theta = 2*r1.  An
    integral theta is taken exactly.  The members of any other theta are
    the float values (a +/- sqrt(L^2))/2 of float arithmetic, which the
    scan documents that it reads.
    """
    s, t = params.s, params.t
    f_uv = gdec.entries(u, v)
    out = []
    for idx, theta in enumerate(gdec.eigenvalues):
        exact = 2 * params.r1 if idx == 0 else round(theta)
        gap4 = 4 * params.n2 * (params.n1 - 1) ** 2 if idx == 0 else 4 * params.n2
        if abs(theta - exact) <= DEFAULT_RECOGNITION_TOL:
            x = exact - s + t
            root = mpmath.sqrt(x * x + gap4)
            mus = [(exact + s + t + sign * root) / 2 for sign in (1, -1)]
        else:
            x = theta - s + t
            floats = [(theta + s + t + sign * math.sqrt(x * x + gap4)) / 2.0 for sign in (1, -1)]
            mus = [mpmath.mpf(mu) for mu in floats]
            root = mpmath.sqrt(mpmath.mpf(x) ** 2 + gap4)
        weight = mpmath.mpf(float(f_uv[idx]))
        out += [(weight * (1 + sign * x / root) / 2, mu) for sign, mu in zip((1, -1), mus)]
    return out


_FIXED_BITS = 200  # fixed-point bits of `exact_grid_fidelities`' rotations, about 60 digits


def exact_grid_fidelities(
    gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int, grid, lo: int, hi: int
) -> np.ndarray:
    """Fidelity (u,0) -> (v,0) at the exact T_l = 2*pi*(step*l + b/c) for
    l = lo..hi, grid = (step, b, c), good to 50 digits before it is rounded
    to float.

    Each member's term at lo comes from mpmath at 60 digits, and each later
    one from the one before, rotated by exp(-2*pi*i*step*mu) in fixed point
    at 2^-200.
    """
    step, b, c = grid
    one = 1 << _FIXED_BITS
    terms = []  # per member, fixed point: re and im of its term, then of its rotation
    with mpmath.workdps(60):
        for weight, mu in _exact_members(gdec, params, u, v):
            start = weight * mpmath.expjpi(-2 * mu * (step * lo + mpmath.mpf(b) / c))
            turn = mpmath.expjpi(-2 * mu * step)
            parts = (start.real, start.imag, turn.real, turn.imag)
            terms.append([int(mpmath.nint(z * one)) for z in parts])
    out = np.empty(hi - lo + 1)
    for k in range(hi - lo + 1):
        re, im = sum(term[0] for term in terms), sum(term[1] for term in terms)
        out[k] = (re * re + im * im) / (one * one)
        for term in terms:
            x, y, cr, ci = term
            term[0], term[1] = (x * cr - y * ci) >> _FIXED_BITS, (x * ci + y * cr) >> _FIXED_BITS
    return out
