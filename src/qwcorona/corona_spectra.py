"""Closed-form eigensystem of vertex complemented coronas of regular graphs.

For an r1-regular connected base G on n1 vertices and an r2-regular
attachment H on n2 vertices, the signless Laplacian spectrum of the corona
splits into three families, written with s = n1 + 2*r2 - 1 and
t = n2*(n1 - 1):

  shift      n1 - 1 + mu, one block per copy, for each eigenvalue mu of
             Q(H); the all-ones direction at mu = 2*r2 is excluded
  pair       ((theta + s + t) +/- sqrt((theta - s + t)^2 + 4*n2)) / 2
             for each eigenvalue theta of Q(G) below the top
  top pair   ((2*r1 + s + t) +/- sqrt((2*r1 - s + t)^2
             + 4*n2*(n1 - 1)^2)) / 2

Values are carried exactly (QuadExt) whenever the source spectrum is
integral, so downstream certification needs no float recognition.  The
amplitude between base vertices (u,0) and (v,0) comes from G's
decomposition alone, without assembling the corona: `_amplitude_terms`
lists its terms, one weight per pair member, and is the one source of
that amplitude for both `corona_transition_element` and the PGST scan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebraic import DEFAULT_RECOGNITION_TOL, InternalInvariantError, QuadExt
from .graphs import (
    Graph,
    is_connected,
    regular_degree,
    signless_laplacian,
    vertex_complemented_corona,
)
from .spectra import SpectralDecomposition, strong_cospectrality

# a factor's top eigenvalue must lie this close to 2*r
MATCH_TOL = 1e-8

SHIFT = "shift"
PAIR_PLUS = "pair-plus"
PAIR_MINUS = "pair-minus"
TOP_PLUS = "top-plus"
TOP_MINUS = "top-minus"


@dataclass(frozen=True)
class CoronaParams:
    """Orders and degrees of the two factors, with the derived shifts s, t."""

    n1: int
    n2: int
    r1: int
    r2: int

    def __post_init__(self) -> None:
        for field in ("n1", "n2", "r1", "r2"):
            val = getattr(self, field)
            if not isinstance(val, int):
                raise TypeError(f"{field} must be an integer, got {val!r}")
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError(f"orders must be positive, got n1={self.n1}, n2={self.n2}")
        if not 0 <= self.r1 <= self.n1 - 1:
            raise ValueError(f"base degree r1={self.r1} out of range [0, {self.n1 - 1}]")
        if not 0 <= self.r2 <= self.n2 - 1:
            raise ValueError(
                f"attachment degree r2={self.r2} out of range [0, {self.n2 - 1}]"
            )

    @property
    def s(self) -> int:
        return self.n1 + 2 * self.r2 - 1

    @property
    def t(self) -> int:
        return self.n2 * (self.n1 - 1)

    @classmethod
    def from_graphs(cls, g: Graph, h: Graph) -> CoronaParams:
        if not is_connected(g):
            raise ValueError("corona closed form needs a connected base graph")
        return cls(n1=g.n, n2=h.n, r1=regular_degree(g), r2=regular_degree(h))


def pair_radicand(params: CoronaParams, theta: int) -> int:
    """(theta - s + t)^2 + 4*n2, the squared gap of one eigenvalue pair."""
    return (theta - params.s + params.t) ** 2 + 4 * params.n2


def top_radicand(params: CoronaParams) -> int:
    """(2*r1 - s + t)^2 + 4*n2*(n1 - 1)^2, squared gap of the top pair."""
    x = 2 * params.r1 - params.s + params.t
    return x * x + 4 * params.n2 * (params.n1 - 1) ** 2


@dataclass(frozen=True)
class CoronaEigenvalue:
    """One closed-form eigenvalue: family tag, exact or float value, origin.

    `origin` is the source eigenvalue (mu of H for shifts, theta of G for
    pairs), `radicand` the integer (or float) D with pair gap sqrt(D), and
    `source_index` the position of the origin in its decomposition.
    """

    kind: str
    value: object
    origin: float
    multiplicity: int
    radicand: object = None
    source_index: int = -1


def _as_int(x: float) -> int | None:
    r = round(float(x))
    if abs(float(x) - r) <= DEFAULT_RECOGNITION_TOL:
        return int(r)
    return None


def _base_pairs(gdec: SpectralDecomposition, params: CoronaParams) -> list:
    """(index, theta, x, D) per base eigenvalue, top first.

    x = theta - s + t and D is the squared pair gap x^2 + 4*n2, or
    `top_radicand` at the top, where theta is 2*r1.  theta and D are ints
    when theta lies within DEFAULT_RECOGNITION_TOL of an integer, floats
    otherwise.
    """
    s, t = params.s, params.t
    top = 2 * params.r1
    out = [(0, top, top - s + t, top_radicand(params))]
    for idx in range(1, len(gdec.eigenvalues)):
        theta = gdec.eigenvalues[idx]
        th_int = _as_int(theta)
        if th_int is not None:
            theta = th_int
        x = theta - s + t
        # x * x, not x ** 2: float radicands keep the bits of the scan's oracle
        out.append((idx, theta, x, x * x + 4 * params.n2))
    return out


def _pair_values(a_sum: int | float, radicand):
    """Both members of a pair: QuadExt when the radicand is an exact integer."""
    if isinstance(radicand, int):
        return QuadExt(a_sum, 1, radicand), QuadExt(a_sum, -1, radicand)
    root = math.sqrt(float(radicand))
    return (a_sum + root) / 2.0, (a_sum - root) / 2.0


def _validate_base(gdec: SpectralDecomposition, params: CoronaParams) -> None:
    if params.n1 < 2:
        raise ValueError("corona needs at least two base vertices")
    if sum(gdec.multiplicities) != params.n1:
        raise ValueError(
            f"base decomposition has order {sum(gdec.multiplicities)}, expected {params.n1}"
        )
    top = gdec.eigenvalues[0]
    if abs(top - 2 * params.r1) > MATCH_TOL:
        raise ValueError(
            f"top base eigenvalue {top:.12g} does not equal 2*r1 = {2 * params.r1}"
        )
    if gdec.multiplicities[0] != 1:
        raise ValueError("top base eigenvalue is not simple; base graph is disconnected")


@dataclass(frozen=True)
class CoronaSpectrum:
    """Closed-form corona eigensystem with on-demand projector blocks."""

    params: CoronaParams
    entries: tuple
    gdec: SpectralDecomposition
    hdec: SpectralDecomposition

    def base_signs(self, u: int, v: int):
        """Strong cospectrality of base vertices (u,0), (v,0), without projectors.

        Shift projectors vanish on base columns.  A pair or top entry of
        theta has column (w,0) equal to a nonzero multiple of F_theta e_w
        on base and copy rows alike (its value is never s), so its sign is
        theta's sign in G.  Entries sharing a value merge by exact
        equality; a shift never changes a merged sign, and two opposite
        nonzero signs on one value break strong cospectrality.  Returns
        (flag, values, signs) with one sign per distinct value, descending,
        in the shape of `strong_cospectrality`.
        """
        flag, theta_signs = strong_cospectrality(self.gdec, u, v)
        merged = {}
        for e in self.entries:
            sg = 0 if e.kind == SHIFT else theta_signs[e.source_index]
            old = merged.get(e.value, 0)
            # None marks a value whose eigenspace carries opposite signs
            merged[e.value] = None if old is None or old * sg < 0 else old or sg
        values = sorted(merged, key=float, reverse=True)
        flag = flag and None not in merged.values()
        return flag, tuple(values), tuple([merged[x] or 0 for x in values])

    def projector(self, k: int) -> np.ndarray:
        """Materialize the dense eigenprojector of entry k in corona order."""
        entry = self.entries[k]
        p = self.params
        n1, n2 = p.n1, p.n2
        total = n1 * (1 + n2)
        out = np.zeros((total, total))
        if entry.kind == SHIFT:
            f_mu = self.hdec.projectors[entry.source_index]
            block = np.array(f_mu)
            if entry.source_index == 0:
                # all-ones direction removed from the top attachment eigenspace
                block -= np.ones((n2, n2)) / n2
            for i in range(n1):
                lo = n1 + i * n2
                out[lo : lo + n2, lo : lo + n2] = block
            return out

        lam = float(entry.value)
        w = p.s - lam
        if entry.kind in (PAIR_PLUS, PAIR_MINUS):
            f_th = self.gdec.projectors[entry.source_index]
            copy_weight = 1.0
            denom = w * w + n2
        else:
            f_th = self.gdec.projectors[0]
            copy_weight = 1.0 - n1
            denom = w * w + n2 * (n1 - 1) ** 2
        ones_row = np.ones((1, n2))
        ones_block = np.ones((n2, n2))
        out[:n1, :n1] = (w * w / denom) * f_th
        bc = (w * copy_weight / denom) * np.kron(f_th, ones_row)
        out[:n1, n1:] = bc
        out[n1:, :n1] = bc.T
        out[n1:, n1:] = (copy_weight**2 / denom) * np.kron(f_th, ones_block)
        return out


def corona_spectrum(
    gdec: SpectralDecomposition,
    hdec: SpectralDecomposition,
    params: CoronaParams,
) -> CoronaSpectrum:
    """All eigenvalues of the corona from the two factor decompositions."""
    _validate_base(gdec, params)
    if sum(hdec.multiplicities) != params.n2:
        raise ValueError(
            f"attachment decomposition has order {sum(hdec.multiplicities)}, "
            f"expected {params.n2}"
        )
    if abs(hdec.eigenvalues[0] - 2 * params.r2) > MATCH_TOL:
        raise ValueError(
            f"top attachment eigenvalue {hdec.eigenvalues[0]:.12g} does not equal "
            f"2*r2 = {2 * params.r2}"
        )

    n1 = params.n1
    s, t = params.s, params.t
    entries = []

    # shift family: one copy of H per base vertex, all-ones directions excluded
    for idx, (mu, m) in enumerate(zip(hdec.eigenvalues, hdec.multiplicities)):
        mult = n1 * (m - 1) if idx == 0 else n1 * m
        if mult == 0:
            continue
        mu_int = _as_int(mu)
        value = QuadExt.from_int(n1 - 1 + mu_int) if mu_int is not None else n1 - 1 + mu
        entries.append(
            CoronaEigenvalue(
                kind=SHIFT,
                value=value,
                origin=float(mu),
                multiplicity=mult,
                radicand=None,
                source_index=idx,
            )
        )

    # one pair per base eigenvalue; the top pair, from 2*r1, goes last
    pairs = _base_pairs(gdec, params)
    for idx, theta, _, radicand in pairs[1:] + pairs[:1]:
        kinds = (TOP_PLUS, TOP_MINUS) if idx == 0 else (PAIR_PLUS, PAIR_MINUS)
        for kind, value in zip(kinds, _pair_values(theta + s + t, radicand)):
            entries.append(
                CoronaEigenvalue(
                    kind=kind,
                    value=value,
                    origin=float(gdec.eigenvalues[idx]),
                    multiplicity=gdec.multiplicities[idx],
                    radicand=radicand,
                    source_index=idx,
                )
            )

    total = sum(e.multiplicity for e in entries)
    expect = n1 * (1 + params.n2)
    if total != expect:
        raise InternalInvariantError(f"multiplicities sum to {total}, expected {expect}")
    return CoronaSpectrum(params=params, entries=tuple(entries), gdec=gdec, hdec=hdec)


def _amplitude_terms(gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int):
    """The amplitude (u,0) -> (v,0) as rows (weight, a, D, sign), two per pair.

    A base eigenvalue theta puts weight F_theta[u,v]*(1 + sign*x/L)/2 on
    its pair member (a + sign*L)/2, where a = theta + s + t,
    x = theta - s + t and L = sqrt(D) is the pair gap (the top gap at
    theta = 2*r1), so the amplitude at tau is
    sum weight*exp(-i*tau*(a + sign*sqrt(D))/2).  a and D are ints when
    theta is integral, as in `_base_pairs`.
    """
    _validate_base(gdec, params)
    s, t = params.s, params.t
    rows = []
    f_uv = gdec.entries(u, v)
    for idx, theta, x, d in _base_pairs(gdec, params):
        f = float(f_uv[idx])
        lam = math.sqrt(d)
        for sign in (1, -1):
            rows.append((f * (1 + sign * x / lam) / 2, theta + s + t, d, sign))
    return rows


def corona_transition_element(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    taus,
):
    """Walk amplitude (u,0) -> (v,0) on the corona, from G's spectrum alone."""
    taus_arr = np.asarray(taus, dtype=float)
    out = np.zeros(taus_arr.shape, dtype=complex)
    for weight, a, d, sign in _amplitude_terms(gdec, params, u, v):
        out = out + weight * np.exp(-0.5j * taus_arr * (a + sign * math.sqrt(d)))
    if np.isscalar(taus) or getattr(taus, "ndim", 0) == 0:
        return complex(out)
    return out


def corona_full_q(g: Graph, h: Graph) -> np.ndarray:
    """Dense signless Laplacian of the corona, for arbitrary factors: the oracle."""
    return signless_laplacian(vertex_complemented_corona(g, h))
