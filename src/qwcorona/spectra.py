"""Numeric spectral machinery: eigenvectors of Q, walk amplitudes, scans.

A decomposition keeps the eigenvectors of a dense eigensolve and reads
eigenprojector columns and entries from them on demand; a dense projector
is built only when one is indexed.  The closed-form layers are validated
against these routines, never the other way around.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

DEFAULT_CLUSTER_TOL = 1e-7
DEFAULT_SUPPORT_TOL = 1e-8
GAP_WARNING_FACTOR = 10.0


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues of a symmetric matrix, read from its eigenvectors.

    Eigenvalues are strictly descending.  `vectors` is the read-only n x n
    matrix of orthonormal eigenvectors, one column per eigenvalue with
    multiplicity, in the same order, so the eigenprojector of cluster k,
    F_k = B_k B_k^T, comes from the columns B_k of that cluster.
    `columns` and `entries` read the F_k e_u and F_k[u, v] a decision
    needs without forming any F_k, and `vanishing` which F_k e_u are
    zero; `projectors` builds a dense F_k on first index and caches it.
    """

    eigenvalues: tuple
    multiplicities: tuple
    vectors: np.ndarray
    warnings: tuple = ()
    # vertex -> (columns, vanishing mask), for the last two vertices read
    _recent: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def _starts(self) -> np.ndarray:
        """First column of each cluster in `vectors`."""
        return np.cumsum((0,) + self.multiplicities[:-1])

    @cached_property
    def projectors(self) -> Sequence:
        return _Projectors(self.vectors, self._starts, self.multiplicities)

    def columns(self, u: int) -> np.ndarray:
        """The read-only n x k matrix whose column k is F_k e_u.  The last two
        vertices' matrices are kept, since a pair decision reads each twice."""
        kept = self._recent.get(u)
        if kept is None:
            cols = np.add.reduceat(self.vectors * self.vectors[u], self._starts, axis=1)
            cols.flags.writeable = False
            if len(self._recent) >= 2:
                self._recent.clear()
            kept = self._recent[u] = (cols, _vanishes(cols))
        return kept[0]

    def vanishing(self, u: int) -> np.ndarray:
        """Per cluster k: is F_k e_u within DEFAULT_SUPPORT_TOL of zero (max
        norm)?  Taken with u's columns and kept beside them."""
        self.columns(u)
        return self._recent[u][1]

    def entries(self, u: int, v: int) -> np.ndarray:
        """The k-vector of F_k[u, v]."""
        return np.add.reduceat(self.vectors[u] * self.vectors[v], self._starts)


class _Projectors(Sequence):
    """Dense eigenprojectors of a decomposition, each built on first index."""

    def __init__(self, vectors, starts, multiplicities):
        self._vectors = vectors
        self._bounds = list(zip(starts.tolist(), multiplicities))
        self._built = [None] * len(multiplicities)

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple([self[i] for i in range(*k.indices(len(self)))])
        if self._built[k] is None:
            lo, m = self._bounds[k]
            self._built[k] = _projector(self._vectors[:, lo : lo + m])
        return self._built[k]


def _projector(block: np.ndarray) -> np.ndarray:
    """Read-only B B^T, symmetrized, for the eigenvector columns B of one cluster."""
    f = block @ block.T
    f = (f + f.T) / 2.0
    f.flags.writeable = False
    return f


def decompose(q: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix, merging eigenvalues within tolerance.

    An eigenvalue joins a cluster when it lies within DEFAULT_CLUSTER_TOL
    of the cluster's largest member; the threshold is absolute, not scaled
    by the spectral norm of q.  A cluster's value is np.mean of its members
    to the bit: np.mean sums from +0.0, so one member x gives x + 0.0 (a -0.0
    becomes 0.0) and two give (0.0 + x + y) / 2; only clusters of three or
    more call np.mean, whose pairwise sum no shorter formula matches.  When
    two clusters sit closer than ten times DEFAULT_CLUSTER_TOL a warning
    string is attached.  q must be non-empty and equal its transpose to
    within 1e-10 in every entry.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1] or q.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {q.shape}")
    if not np.abs(q - q.T).max() <= 1e-10:
        raise ValueError("expected a symmetric matrix")

    vals, vecs = np.linalg.eigh(q)

    # descending order
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    vecs.flags.writeable = False

    # tuples from lists, never generators: CPython's per-length tuple free
    # lists fill when a tuple is allocated at one length and freed at another
    eigenvalues, multiplicities = [], []
    members = vals.tolist()
    start = 0
    for i in range(1, len(members) + 1):
        if i == len(members) or members[start] - members[i] > DEFAULT_CLUSTER_TOL:
            m = i - start
            if m == 1:
                mean = members[start] + 0.0
            elif m == 2:
                mean = (0.0 + members[start] + members[start + 1]) / 2
            else:
                mean = float(np.mean(vals[start:i]))
            eigenvalues.append(mean)
            multiplicities.append(m)
            start = i

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
        vectors=vecs,
        warnings=tuple(warnings),
    )


def _phase_sum(weights, freqs, taus):
    """sum_k weights[k] * exp(-i * tau * freqs[k]) for a scalar tau or an array of times.

    With sum |w_k| <= 1 (true of every caller), each f off by eps * max|f| (LAPACK's
    eps * ||Q||_2 for a dense eigenvalue of Q >= 0; one rounded sqrt and sum for a
    closed-form (a + sign*sqrt(D))/2, a >= 0) and tau * f rounded, the fidelity is off
    by at most 3 * eps * max|tau| * max|f|; a non-finite time, or a bound over 1e-6, raises.
    """
    taus_arr = np.asarray(taus, dtype=float)
    t_abs = float(np.max(np.abs(taus_arr), initial=0.0))
    if not math.isfinite(t_abs):
        raise ValueError(f"time must be finite, got {t_abs}")
    bound = 3.0 * np.finfo(float).eps * t_abs * float(max(map(abs, freqs)))
    if bound > 1e-6:
        raise ValueError(f"time {t_abs:.12g} is too large: fidelity error bound {bound:.3g} > 1e-6")
    out = np.zeros(taus_arr.shape, dtype=complex)
    for w, f in zip(weights, freqs):
        out = out + np.exp(-1j * taus_arr * f) * w
    return complex(out) if taus_arr.ndim == 0 else out


def transition_amplitude(dec: SpectralDecomposition, u: int, v: int, taus):
    """Entry U_Q(tau)[u, v] for a scalar tau or an array of times."""
    return _phase_sum(dec.entries(u, v), dec.eigenvalues, taus)


def _vanishes(cols: np.ndarray) -> np.ndarray:
    """Per column: is its max norm within DEFAULT_SUPPORT_TOL?"""
    return np.abs(cols).max(axis=0) <= DEFAULT_SUPPORT_TOL


def eigenvalue_support(dec: SpectralDecomposition, u: int) -> tuple:
    """Eigenvalues whose projector column at u exceeds DEFAULT_SUPPORT_TOL (max norm)."""
    return tuple([theta for theta, z in zip(dec.eigenvalues, dec.vanishing(u)) if not z])


def strong_cospectrality(dec: SpectralDecomposition, u: int, v: int):
    """True iff every projector column satisfies F e_u = +/- F e_v, entries
    matched to within DEFAULT_SUPPORT_TOL (max norm).

    Returns (flag, signs) with one sign per eigenvalue: +1 or -1 for a
    matched nonzero column, 0 when F e_u vanishes.  A column that vanishes
    on one side only, or matches neither sign, makes the flag false.
    """
    if u == v:
        raise ValueError("strong cospectrality needs two distinct vertices")
    x_zero, y_zero = dec.vanishing(u), dec.vanishing(v)
    x, y = dec.columns(u), dec.columns(v)
    plus, minus = _vanishes(x - y), _vanishes(x + y)
    nonzero = ~x_zero & ~y_zero
    matched = plus | minus
    signs = np.where(plus, 1, -1) * (nonzero & matched)
    flag = not ((x_zero != y_zero) | (nonzero & ~matched)).any()
    return flag, tuple(signs.tolist())


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
    dec: SpectralDecomposition, u: int, v: int, t_max: float, steps: int, start: float = 0.0
) -> FidelityScan:
    """Sample |U(tau)_{uv}|^2 over tau in (start, t_max] and refine the maximum.

    The grid is start + (t_max - start)*k/steps, k = 1..steps.  Around the best
    grid point a golden-section search sharpens the maximum, bracketed by the two
    neighbours where they bracket it and bounded by them (or start) otherwise; the
    refined value is never below the grid value.  Ties resolve to the smaller tau.
    """
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if not 0 <= start < t_max:
        raise ValueError(f"need 0 <= start < t_max, got start={start}, t_max={t_max}")
    steps = int(steps)
    if steps < 2:
        raise ValueError(f"steps must be at least 2, got {steps}")

    weights = dec.entries(u, v)
    taus = start + (t_max - start) * np.arange(1, steps + 1) / steps
    fids = np.abs(_phase_sum(weights, dec.eigenvalues, taus)) ** 2

    best = int(np.argmax(fids))
    best_tau = float(taus[best])
    best_fid = float(fids[best])

    lo = float(taus[best - 1]) if best > 0 else start
    hi = float(taus[best + 1]) if best + 1 < steps else float(taus[best])

    def neg_fid(t: float) -> float:
        return -abs(_phase_sum(weights, dec.eigenvalues, float(t))) ** 2

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
