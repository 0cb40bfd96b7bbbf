"""Tests for the closed-form corona spectrum against numeric oracles."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qwcorona.algebraic import QuadExt
from qwcorona.corona_spectra import (
    PAIR_MINUS,
    PAIR_PLUS,
    SHIFT,
    TOP_MINUS,
    TOP_PLUS,
    CoronaParams,
    corona_spectrum,
    pair_radicand,
    top_radicand,
)
from qwcorona.graphs import generate, signless_laplacian, vertex_complemented_corona
from qwcorona.spectra import decompose

from oracle import (
    as_decomposition,
    corona_full_q,
    corona_transition_element,
    pair_identity_targets,
    pair_products,
    path_graph,
    top_identity_targets,
)

PAIRS = [
    ("K:2", "K:1"),
    ("K:2", "K:2"),
    ("K:3", "K:1"),
    ("C:4", "K:1"),
    ("C:4", "K:2"),
    ("CP:3", "K:1"),
    ("CP:4", "K:1"),
    ("C:5", "C:5"),
]


def build(gspec, hspec):
    g = generate(gspec)
    h = generate(hspec)
    params = CoronaParams.from_graphs(g, h)
    gdec = decompose(signless_laplacian(g))
    hdec = decompose(signless_laplacian(h))
    return g, h, params, gdec, hdec


# =========================================================================
# parameters
# =========================================================================


def test_params_shifts():
    p = CoronaParams(n1=4, n2=2, r1=2, r2=1)
    assert p.s == 4 + 2 - 1
    assert p.t == 2 * 3


def test_params_validation():
    with pytest.raises(ValueError):
        CoronaParams(n1=0, n2=1, r1=0, r2=0)
    with pytest.raises(ValueError):
        CoronaParams(n1=2, n2=1, r1=2, r2=0)
    with pytest.raises(ValueError):
        CoronaParams(n1=2, n2=2, r1=1, r2=2)
    with pytest.raises(TypeError):
        CoronaParams(n1=2.0, n2=1, r1=1, r2=0)


def test_params_from_graphs_requires_connected_base():
    with pytest.raises(ValueError):
        CoronaParams.from_graphs(generate("empty:3"), generate("K:1"))


def test_params_from_graphs_requires_regular():
    with pytest.raises(ValueError, match="regularity violation"):
        CoronaParams.from_graphs(path_graph(4), generate("K:1"))


def test_radicands():
    p = CoronaParams(n1=8, n2=1, r1=6, r2=0)  # CP:4 with a single pendant copy
    assert p.s == 7 and p.t == 7
    assert pair_radicand(p, 6) == 36 + 4
    assert pair_radicand(p, 4) == 16 + 4
    assert top_radicand(p) == 144 + 4 * 49  # 340 = 4 * 85


# =========================================================================
# closed form vs numeric oracle
# =========================================================================


def test_spectrum_matches_oracle_all_pairs():
    for gspec, hspec in PAIRS:
        g, h, params, gdec, hdec = build(gspec, hspec)
        spec = corona_spectrum(gdec, hdec, params)
        closed = np.sort(
            np.concatenate(
                [np.full(row[4], x) for row, x in zip(spec.rows, spec.floats)]
            )
        )
        oracle = np.sort(np.linalg.eigvalsh(corona_full_q(g, h)))
        assert closed.shape == oracle.shape
        assert np.max(np.abs(closed - oracle)) < 1e-8, (gspec, hspec)


def test_spectrum_total_multiplicity():
    for gspec, hspec in PAIRS:
        _, _, params, gdec, hdec = build(gspec, hspec)
        spec = corona_spectrum(gdec, hdec, params)
        assert sum(row[4] for row in spec.rows) == params.n1 * (1 + params.n2)


def test_shift_family_values():
    # each attachment eigenvalue mu contributes n1 - 1 + mu, with the top
    # mu = 2 r2 losing n1 copies to the pair construction
    g, h, params, gdec, hdec = build("C:4", "K:2")
    spec = corona_spectrum(gdec, hdec, params)
    shifts = [k for k, row in enumerate(spec.rows) if row[0] == SHIFT]
    for k in shifts:
        origin = hdec.eigenvalues[spec.rows[k][5]]
        assert spec.floats[k] == pytest.approx(params.n1 - 1 + origin, abs=1e-9)
        assert spec.rows[k][2:4] == (0, 0)
    # K2 has simple eigenvalues 2 and 0: the top shift family vanishes
    assert sum(spec.rows[k][4] for k in shifts) == params.n1 * (params.n2 - 1) + 0


def test_pair_family_values():
    g, h, params, gdec, hdec = build("CP:4", "K:1")
    spec = corona_spectrum(gdec, hdec, params)
    pairs = [k for k, row in enumerate(spec.rows) if row[0] in (PAIR_PLUS, PAIR_MINUS)]
    tops = [row for row in spec.rows if row[0] in (TOP_PLUS, TOP_MINUS)]
    assert len(tops) == 2
    assert all(row[4] == 1 for row in tops)
    for k in pairs:
        kind, a, sign, radicand, _, idx = spec.rows[k]
        theta = int(round(gdec.eigenvalues[idx]))
        assert radicand == pair_radicand(params, theta)
        assert a == theta + params.s + params.t
        plus = kind == PAIR_PLUS
        assert sign == (1 if plus else -1)
        root = np.sqrt(radicand)
        expected = (theta + params.s + params.t + (root if plus else -root)) / 2.0
        assert spec.floats[k] == pytest.approx(expected, abs=1e-9)
    for row in tops:
        assert row[3] == top_radicand(params)


def test_exact_values_when_integral():
    # integral base and attachment spectra produce exact quadratic entries
    _, _, params, gdec, hdec = build("K:2", "K:1")
    spec = corona_spectrum(gdec, hdec, params)
    by_kind = {row[0]: spec.value(k) for k, row in enumerate(spec.rows)}
    assert by_kind[PAIR_PLUS] == QuadExt.from_int(2)
    assert by_kind[PAIR_MINUS] == QuadExt.from_int(0)
    assert by_kind[TOP_PLUS] == QuadExt(4, 2, 2)
    assert by_kind[TOP_MINUS] == QuadExt(4, -2, 2)


def test_float_path_for_irrational_base():
    _, _, params, gdec, hdec = build("C:5", "C:5")
    spec = corona_spectrum(gdec, hdec, params)
    assert any(isinstance(spec.value(k), float) for k in range(len(spec.rows)))


# =========================================================================
# projectors
# =========================================================================


def test_projector_invariants():
    # an edgeless attachment has a multiple top eigenvalue, whose shift
    # block drops the all-ones direction
    for gspec, hspec in [
        ("K:2", "K:1"),
        ("C:4", "K:2"),
        ("CP:3", "K:1"),
        ("K:3", "empty:2"),
        ("C:5", "empty:3"),
        ("CP:2", "empty:3"),
    ]:
        g, h, params, gdec, hdec = build(gspec, hspec)
        spec = corona_spectrum(gdec, hdec, params)
        n = params.n1 * (1 + params.n2)
        total = np.zeros((n, n))
        recon = np.zeros((n, n))
        for k, row in enumerate(spec.rows):
            f = spec.projector(k)
            assert np.allclose(f, f.T, atol=1e-8)
            assert np.allclose(f @ f, f, atol=1e-8)
            assert np.trace(f) == pytest.approx(row[4], abs=1e-8)
            total += f
            recon += spec.floats[k] * f
        assert np.allclose(total, np.eye(n), atol=1e-8)
        assert np.allclose(recon, corona_full_q(g, h), atol=1e-8)


def test_as_decomposition_merges_and_sorts():
    g, h, params, gdec, hdec = build("C:4", "K:1")
    spec = corona_spectrum(gdec, hdec, params)
    eigenvalues, multiplicities, projectors = as_decomposition(spec)
    assert list(eigenvalues) == sorted(eigenvalues, reverse=True)
    assert sum(multiplicities) == params.n1 * (1 + params.n2)
    rebuilt = sum(val * f for val, f in zip(eigenvalues, projectors))
    assert np.allclose(rebuilt, corona_full_q(g, h), atol=1e-8)


# =========================================================================
# transition element
# =========================================================================


def test_transition_element_matches_expm():
    rng = np.random.default_rng(11)
    for gspec, hspec in [("K:2", "K:1"), ("CP:4", "K:1"), ("C:5", "C:5")]:
        g, h, params, gdec, hdec = build(gspec, hspec)
        q = corona_full_q(g, h)
        for tau in rng.uniform(0.1, 10.0, size=4):
            ref = expm(-1j * tau * q)
            for u in range(params.n1):
                for v in range(params.n1):
                    got = corona_transition_element(gdec, params, u, v, float(tau))
                    assert abs(got - ref[u, v]) < 1e-9


def test_transition_element_vectorized():
    _, _, params, gdec, hdec = build("K:2", "K:1")
    taus = np.array([0.5, 1.5, 2.5])
    vec = corona_transition_element(gdec, params, 0, 1, taus)
    assert vec.shape == (3,)
    for k, tau in enumerate(taus):
        assert abs(vec[k] - corona_transition_element(gdec, params, 0, 1, float(tau))) < 1e-12


def test_transition_element_refuses_times_beyond_its_accuracy():
    _, _, params, gdec, hdec = build("K:2", "K:1")
    with pytest.raises(ValueError, match="time 1e\\+300 is too large"):
        corona_transition_element(gdec, params, 0, 1, 1e300)


def test_transition_element_refuses_non_finite_times():
    _, _, params, gdec, hdec = build("K:2", "K:1")
    for taus in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match="time must be finite, got nan"):
            corona_transition_element(gdec, params, 0, 1, taus)


# =========================================================================
# exact product identities
# =========================================================================


def test_pair_product_identities_exact():
    # (s - v+)(s - v-) = -n2 and ((s - v+)^2 + n2)((s - v-)^2 + n2) = n2*D,
    # in exact arithmetic, for every integral eigenvalue of every base
    for gspec, hspec in PAIRS:
        if gspec == "C:5":
            continue  # irrational base spectrum
        _, _, params, gdec, hdec = build(gspec, hspec)
        for theta_f in gdec.eigenvalues:
            theta = int(round(float(theta_f)))
            d = pair_radicand(params, theta)
            got = pair_products(params.s, theta + params.s + params.t, d, params.n2)
            assert got == pair_identity_targets(params, theta)


def test_top_product_identities_exact():
    for gspec, hspec in PAIRS:
        if gspec == "C:5":
            continue
        _, _, params, gdec, hdec = build(gspec, hspec)
        d = top_radicand(params)
        c = params.n2 * (1 - params.n1) ** 2
        got = pair_products(params.s, 2 * params.r1 + params.s + params.t, d, c)
        assert got == top_identity_targets(params)


# =========================================================================
# input validation
# =========================================================================


def test_corona_spectrum_rejects_order_mismatch():
    _, _, params, gdec, hdec = build("K:2", "K:1")
    big = decompose(signless_laplacian(generate("K:3")))
    with pytest.raises(ValueError):
        corona_spectrum(big, hdec, params)
    with pytest.raises(ValueError):
        corona_spectrum(gdec, big, params)


def test_corona_full_q_handles_irregular_factors():
    # the assembled matrix never needs regularity
    g = path_graph(3)
    h = path_graph(2)
    q = corona_full_q(g, h)
    c = vertex_complemented_corona(g, h)
    assert np.array_equal(q, signless_laplacian(c))
