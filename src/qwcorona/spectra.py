"""Numeric spectral machinery: eigenprojectors of Q, walk amplitudes, scans.

Everything here is brute force on dense matrices.  The closed-form layers
are validated against these routines, never the other way around.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import (
    Graph,
    diameter,
    distance_k_adjacency,
    is_connected,
    signless_laplacian,
)

DEFAULT_CLUSTER_TOL = 1e-7
DEFAULT_SUPPORT_TOL = 1e-8
GAP_WARNING_FACTOR = 10.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a symmetric matrix with their projectors.

    Eigenvalues are strictly descending.  Projectors are symmetric,
    idempotent, mutually orthogonal, and sum to the identity.
    """

    eigenvalues: tuple
    multiplicities: tuple
    projectors: tuple
    warnings: tuple = ()

    @property
    def n(self) -> int:
        return self.projectors[0].shape[0]

    def reconstruct(self) -> np.ndarray:
        out = np.zeros_like(self.projectors[0])
        for theta, f in zip(self.eigenvalues, self.projectors):
            out += theta * f
        return out


def decompose(q: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, merging eigenvalues within tolerance.

    An eigenvalue joins a cluster when it lies within DEFAULT_CLUSTER_TOL
    of the cluster's largest member; the threshold is absolute, not scaled
    by the spectral norm of q.  When two clusters sit closer than ten times
    DEFAULT_CLUSTER_TOL a warning string is attached to the result.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if not np.allclose(q, q.T, atol=1e-10):
        raise ValueError("expected a symmetric matrix")

    vals, vecs = np.linalg.eigh(q)

    # descending order
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]

    clusters = []
    start = 0
    for i in range(1, len(vals)):
        if vals[start] - vals[i] > DEFAULT_CLUSTER_TOL:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(vals)))

    eigenvalues = []
    multiplicities = []
    projectors = []
    for lo, hi in clusters:
        block = vecs[:, lo:hi]
        f = block @ block.T
        f = (f + f.T) / 2.0
        f.flags.writeable = False
        eigenvalues.append(float(np.mean(vals[lo:hi])))
        multiplicities.append(hi - lo)
        projectors.append(f)

    warnings = []
    for k in range(1, len(eigenvalues)):
        gap = eigenvalues[k - 1] - eigenvalues[k]
        if gap < GAP_WARNING_FACTOR * DEFAULT_CLUSTER_TOL:
            warnings.append(
                f"clusters {eigenvalues[k - 1]:.12g} and {eigenvalues[k]:.12g} "
                f"are separated by {gap:.3e}, below {GAP_WARNING_FACTOR:g}x the "
                f"clustering threshold {DEFAULT_CLUSTER_TOL:.3e}"
            )

    return SpectralDecomposition(
        eigenvalues=tuple(eigenvalues),
        multiplicities=tuple(multiplicities),
        projectors=tuple(projectors),
        warnings=tuple(warnings),
    )


def decompose_graph(g: Graph) -> SpectralDecomposition:
    return decompose(signless_laplacian(g))


def transition_matrix(dec: SpectralDecomposition, tau: float) -> np.ndarray:
    """U_Q(tau) = sum_r exp(-i tau theta_r) F_r."""
    n = dec.n
    out = np.zeros((n, n), dtype=complex)
    for theta, f in zip(dec.eigenvalues, dec.projectors):
        out += np.exp(-1j * tau * theta) * f
    return out


def transition_amplitude(dec: SpectralDecomposition, u: int, v: int, taus):
    """Entry U_Q(tau)[u, v] for a scalar tau or an array of times."""
    taus_arr = np.asarray(taus, dtype=float)
    out = np.zeros(taus_arr.shape, dtype=complex)
    for theta, f in zip(dec.eigenvalues, dec.projectors):
        out = out + np.exp(-1j * taus_arr * theta) * f[u, v]
    if np.isscalar(taus) or getattr(taus, "ndim", 0) == 0:
        return complex(out)
    return out


def eigenvalue_support(dec: SpectralDecomposition, u: int) -> tuple:
    """Eigenvalues whose projector column at u exceeds DEFAULT_SUPPORT_TOL (max norm)."""
    out = []
    for theta, f in zip(dec.eigenvalues, dec.projectors):
        if float(np.max(np.abs(f[:, u]))) > DEFAULT_SUPPORT_TOL:
            out.append(theta)
    return tuple(out)


def strong_cospectrality(dec: SpectralDecomposition, u: int, v: int):
    """True iff every projector column satisfies F e_u = +/- F e_v, entries
    matched to within DEFAULT_SUPPORT_TOL (max norm).

    Returns (flag, signs) with one sign per eigenvalue: +1 or -1 for a
    matched nonzero column, 0 when F e_u vanishes.  A column that vanishes
    on one side only, or matches neither sign, makes the flag false.
    """
    if u == v:
        raise ValueError("strong cospectrality needs two distinct vertices")
    flag = True
    signs = []
    for f in dec.projectors:
        x = f[:, u]
        y = f[:, v]
        x_zero = float(np.max(np.abs(x))) <= DEFAULT_SUPPORT_TOL
        y_zero = float(np.max(np.abs(y))) <= DEFAULT_SUPPORT_TOL
        if x_zero and y_zero:
            signs.append(0)
            continue
        if x_zero != y_zero:
            signs.append(0)
            flag = False
            continue
        if float(np.max(np.abs(x - y))) <= DEFAULT_SUPPORT_TOL:
            signs.append(1)
        elif float(np.max(np.abs(x + y))) <= DEFAULT_SUPPORT_TOL:
            signs.append(-1)
        else:
            signs.append(0)
            flag = False
    return flag, tuple(signs)


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


# golden-section constants as in scipy.optimize's golden method
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1.4901161193847656e-08  # sqrt of the double epsilon
_GOLDEN_MAXITER = 5000


def _golden(func, xa, xb, xc):
    """Minimum of func by golden-section search inside the bracket xa < xb < xc.

    Same steps, constants and stopping rule as scipy.optimize's golden
    method, so results agree bit for bit.  Returns (x, func(x)); raises
    ValueError unless func(xb) lies below both func(xa) and func(xc).
    """
    if xa > xc:
        xa, xc = xc, xa
    if not (xa < xb < xc):
        raise ValueError("bracket points are not ordered xa < xb < xc")
    fa, fb, fc = func(xa), func(xb), func(xc)
    if not (fb < fa and fb < fc):
        raise ValueError("bracket midpoint is not below both ends")
    if abs(xc - xb) > abs(xb - xa):
        return _golden_steps(func, xa, xb, xb + _GOLDEN_C * (xc - xb), xc)
    return _golden_steps(func, xa, xb - _GOLDEN_C * (xb - xa), xb, xc)


def _bounded_golden(func, lo, hi):
    """Golden-section search on [lo, hi] that needs no bracket; it finds a
    local minimum or closes in on an end.  Returns (x, func(x))."""
    return _golden_steps(func, lo, lo + _GOLDEN_C * (hi - lo), lo + _GOLDEN_R * (hi - lo), hi)


def _golden_steps(func, x0, x1, x2, x3):
    """Shrink [x0, x3] around the interior points x1 < x2 until it is
    narrower than the relative tolerance; the better of x1, x2 wins."""
    f1, f2 = func(x1), func(x2)
    for _ in range(_GOLDEN_MAXITER):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0 = x1
            x1 = x2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f1 = f2
            f2 = func(x2)
        else:
            x3 = x2
            x2 = x1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f2 = f1
            f1 = func(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)


@dataclass(frozen=True)
class FidelityScan:
    """Grid samples of |U(tau)_{uv}|^2 plus the refined running maximum."""

    taus: np.ndarray
    fidelities: np.ndarray
    best_tau: float
    best_fidelity: float


def fidelity_scan(
    dec: SpectralDecomposition, u: int, v: int, t_max: float, steps: int
) -> FidelityScan:
    """Sample |U(tau)_{uv}|^2 over tau in (0, t_max] and refine the maximum.

    The grid has `steps` uniform points ending at t_max.  Around the best
    grid point the maximum is sharpened by a golden-section search,
    bracketed by the two neighbours where they bracket it and bounded by
    them otherwise; the refined value is never below the grid value.  Ties
    on the grid resolve to the smaller tau.
    """
    if t_max <= 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")

    taus = t_max * np.arange(1, steps + 1) / steps
    amps = transition_amplitude(dec, u, v, taus)
    fids = np.abs(amps) ** 2

    best = int(np.argmax(fids))
    best_tau = float(taus[best])
    best_fid = float(fids[best])

    lo = float(taus[best - 1]) if best > 0 else 0.0
    hi = float(taus[best + 1]) if best + 1 < steps else float(taus[best])

    def neg_fid(t: float) -> float:
        return -abs(transition_amplitude(dec, u, v, float(t))) ** 2

    if hi > lo:
        try:
            cand_tau, cand_fid = _golden(neg_fid, lo, best_tau, hi)
        except ValueError:
            cand_tau, cand_fid = _bounded_golden(neg_fid, lo, hi)
        cand_fid = -cand_fid
        if lo < cand_tau <= t_max and cand_fid > best_fid:
            best_tau, best_fid = cand_tau, cand_fid

    taus.flags.writeable = False
    fids.flags.writeable = False
    return FidelityScan(taus=taus, fidelities=fids, best_tau=best_tau, best_fidelity=best_fid)
