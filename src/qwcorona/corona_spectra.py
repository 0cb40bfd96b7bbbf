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

`corona_spectrum` returns the spectrum as one table of integer rows
(kind, a, sign, D, multiplicity, source index), one row per value
(a + sign*sqrt(D))/2; a and D are ints whenever the source eigenvalue is
integral, so downstream certification needs no float recognition, and a
QuadExt is built only for a value that is read as one; rows of one
value merge by `_row_keys`.  `_pair_rows` builds the pair rows from G's
decomposition and `CoronaParams` alone, and every reader of pair data
takes them from there: the base-pair certifier, which needs no
eigenvalue of H, and the PGST scan's phase rows for the amplitude between
base vertices (u,0) and (v,0).  Nothing here forms the N x N corona: its
dense signless Laplacian,
`signless_laplacian(vertex_complemented_corona(g, h))`, is the oracle that
the tests hold the closed form against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebraic import DEFAULT_RECOGNITION_TOL, InternalInvariantError, QuadExt, square_free_part
from .graphs import Graph, is_connected, regular_degree
from .spectra import SpectralDecomposition

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
        degrees = []
        for factor, graph in (("base", g), ("attachment", h)):
            try:
                degrees.append(regular_degree(graph))
            except ValueError as err:
                raise ValueError(f"{factor} graph: {err}") from None
        return cls(n1=g.n, n2=h.n, r1=degrees[0], r2=degrees[1])


def pair_radicand(params: CoronaParams, theta: int) -> int:
    """(theta - s + t)^2 + 4*n2, the squared gap of one eigenvalue pair."""
    return (theta - params.s + params.t) ** 2 + 4 * params.n2


def top_radicand(params: CoronaParams) -> int:
    """(2*r1 - s + t)^2 + 4*n2*(n1 - 1)^2, squared gap of the top pair."""
    x = 2 * params.r1 - params.s + params.t
    return x * x + 4 * params.n2 * (params.n1 - 1) ** 2


def _as_int(x: float) -> int | None:
    r = round(float(x))
    if abs(float(x) - r) <= DEFAULT_RECOGNITION_TOL:
        return int(r)
    return None


def _check_factor(dec: SpectralDecomposition, n: int, r: int, name: str, which: int) -> None:
    """The decomposition of a factor has order n and top eigenvalue 2*r."""
    if sum(dec.multiplicities) != n:
        raise ValueError(f"{name} decomposition has order {sum(dec.multiplicities)}, expected {n}")
    top = dec.eigenvalues[0]
    if abs(top - 2 * r) > MATCH_TOL:
        raise ValueError(f"top {name} eigenvalue {top:.12g} does not equal 2*r{which} = {2 * r}")


def _pair_rows(gdec: SpectralDecomposition, params: CoronaParams) -> list:
    """The pair rows of a validated base, top first, plus member before minus.

    Each base eigenvalue theta gives the rows (kind, a, sign, D,
    multiplicity, source index) of its members (a + sign*sqrt(D))/2, with
    a = theta + s + t and D the squared pair gap x^2 + 4*n2, x = theta - s
    + t, or `top_radicand` at the top, where theta is 2*r1.  a and D are
    ints when theta lies within DEFAULT_RECOGNITION_TOL of an integer,
    floats otherwise.
    """
    if params.n1 < 2:
        raise ValueError("corona needs at least two base vertices")
    _check_factor(gdec, params.n1, params.r1, "base", 1)
    if gdec.multiplicities[0] != 1:
        raise ValueError("top base eigenvalue is not simple; base graph is disconnected")
    s, t = params.s, params.t
    a, d = 2 * params.r1 + s + t, top_radicand(params)
    rows = [(TOP_PLUS, a, 1, d, 1, 0), (TOP_MINUS, a, -1, d, 1, 0)]
    for idx in range(1, len(gdec.eigenvalues)):
        theta = gdec.eigenvalues[idx]
        th_int = _as_int(theta)
        if th_int is not None:
            theta = th_int
        x = theta - s + t
        # x * x, not x ** 2: float radicands keep the bits of the scan's oracle
        a, d, m = theta + s + t, x * x + 4 * params.n2, gdec.multiplicities[idx]
        rows += [(PAIR_PLUS, a, 1, d, m, idx), (PAIR_MINUS, a, -1, d, m, idx)]
    return rows


def _row_keys(rows) -> tuple:
    """(keys, floats): per row (kind, a, sign, D, ...), its number's key and its float.

    Rows of one exact number share a key, the ints a QuadExt of it takes:
    (2*value, 0, 1) for a rational, (a, sign, D) for a surd, which equals
    no rational and no surd with another a, sign or D.  A float row keys on
    its float.  An exact float is that of the canonical form
    (a + b*sqrt(delta))/2, as `QuadExt.value` reads it, after one isqrt and
    at most one square-free split per distinct D.
    """
    splits = {}
    keys, floats = [], []
    for _, a, sign, d, *_ in rows:
        if not isinstance(a, int):
            key = x = (a + sign * math.sqrt(d)) / 2.0
        else:
            if d not in splits:
                r = math.isqrt(d)
                splits[d] = (r, 1) if r * r == d else square_free_part(d)
            root, delta = splits[d]
            b = sign * root
            if delta == 1:
                key, x = (a + b, 0, 1), (a + b) / 2.0
            else:
                key, x = (a, sign, d), (a + b * math.sqrt(delta)) / 2.0
        keys.append(key)
        floats.append(x)
    return tuple(keys), tuple(floats)


@dataclass(frozen=True)
class CoronaSpectrum:
    """Closed-form corona eigensystem as a row table, with on-demand projector blocks.

    A row (kind, a, sign, D, multiplicity, source index) stands for the
    value (a + sign*sqrt(D))/2.  Shift rows come first, one per eigenvalue
    mu of H, with a = 2*(n1 - 1 + mu), sign 0, D 0 and the source index
    into `hdec`; the pair rows of `_pair_rows` follow, top pair last, with
    the source index into `gdec`.  A QuadExt is built only when `value`
    is asked.
    """

    params: CoronaParams
    rows: tuple
    gdec: SpectralDecomposition
    hdec: SpectralDecomposition

    @cached_property
    def _exact(self) -> tuple:
        """(keys, floats) of the rows, by `_row_keys`."""
        return _row_keys(self.rows)

    @property
    def floats(self) -> tuple:
        """The value of every row as a float."""
        return self._exact[1]

    def value(self, k: int):
        """The value of row k: a QuadExt when it is exact, its float otherwise."""
        key = self._exact[0][k]
        return QuadExt(*key) if isinstance(key, tuple) else key

    def projector(self, k: int) -> np.ndarray:
        """Materialize the dense eigenprojector of row k in corona order."""
        kind, _, _, _, _, idx = self.rows[k]
        p = self.params
        n1, n2 = p.n1, p.n2
        total = n1 * (1 + n2)
        out = np.zeros((total, total))
        if kind == SHIFT:
            block = np.array(self.hdec.projectors[idx])
            if idx == 0:
                # all-ones direction removed from the top attachment eigenspace
                block -= np.ones((n2, n2)) / n2
            for i in range(n1):
                lo = n1 + i * n2
                out[lo : lo + n2, lo : lo + n2] = block
            return out

        w = p.s - self.floats[k]
        f_th = self.gdec.projectors[idx]
        if kind in (PAIR_PLUS, PAIR_MINUS):
            copy_weight = 1.0
            denom = w * w + n2
        else:
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
    pairs = _pair_rows(gdec, params)
    _check_factor(hdec, params.n2, params.r2, "attachment", 2)

    n1 = params.n1
    rows = []
    # shift family: one copy of H per base vertex, all-ones directions excluded
    for idx, (mu, m) in enumerate(zip(hdec.eigenvalues, hdec.multiplicities)):
        mult = n1 * (m - 1) if idx == 0 else n1 * m
        if mult:
            mu_int = _as_int(mu)
            rows.append((SHIFT, 2 * (n1 - 1 + (mu if mu_int is None else mu_int)), 0, 0, mult, idx))
    # the top pair goes last
    rows += pairs[2:] + pairs[:2]

    total = sum(row[4] for row in rows)
    expect = n1 * (1 + params.n2)
    if total != expect:
        raise InternalInvariantError(f"multiplicities sum to {total}, expected {expect}")
    return CoronaSpectrum(params=params, rows=tuple(rows), gdec=gdec, hdec=hdec)
