"""Tests for spectral decomposition, walk amplitudes, and cospectrality."""
from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qwcorona import spectra
from qwcorona.cli import parse_spec
from qwcorona.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    generate,
    hypercube_graph,
    signless_laplacian,
)
from qwcorona.spectra import (
    decompose,
    eigenvalue_support,
    fidelity_scan,
    strong_cospectrality,
    transition_amplitude,
)

from oracle import (
    antipodal_identity_check,
    corona_full_q,
    decompose_graph,
    path_graph,
    cospectrality_from_projectors,
    reconstruct,
    support_from_projectors,
    transition_matrix,
)

SPECS = ["K:2", "K:3", "C:4", "C:5", "CP:3", "CP:4", "HQ:3"]


# =========================================================================
# decomposition invariants
# =========================================================================


def test_decompose_projector_invariants():
    for spec in SPECS:
        q = signless_laplacian(generate(spec))
        dec = decompose(q)
        n = q.shape[0]
        total = np.zeros((n, n))
        for i, f in enumerate(dec.projectors):
            assert np.allclose(f, f.T, atol=1e-10)
            assert np.allclose(f @ f, f, atol=1e-10)
            for fj in dec.projectors[i + 1 :]:
                assert np.allclose(f @ fj, 0, atol=1e-10)
            total += f
        assert np.allclose(total, np.eye(n), atol=1e-10)
        assert np.allclose(reconstruct(dec), q, atol=1e-9)


def test_decompose_descending_and_multiplicities():
    dec = decompose_graph(complete_graph(3))
    assert dec.eigenvalues[0] == pytest.approx(4.0, abs=1e-9)
    assert dec.eigenvalues[1] == pytest.approx(1.0, abs=1e-9)
    assert dec.multiplicities == (1, 2)
    assert list(dec.eigenvalues) == sorted(dec.eigenvalues, reverse=True)


def test_decompose_multiplicity_sum():
    for spec in SPECS:
        g = generate(spec)
        dec = decompose_graph(g)
        assert sum(dec.multiplicities) == g.n
        assert np.trace(sum(dec.projectors)) == pytest.approx(g.n, abs=1e-8)


def test_decompose_close_gap_warning():
    q = np.diag([0.0, 3e-7, 1.0])
    dec = decompose(q)
    assert len(dec.eigenvalues) == 3
    assert any("separated by" in w for w in dec.warnings)


def test_decompose_clusters_degenerate_pair():
    q = np.diag([0.0, 5e-9, 1.0])
    dec = decompose(q)
    assert dec.multiplicities == (1, 2)


def test_projectors_read_only():
    dec = decompose_graph(complete_graph(2))
    with pytest.raises(ValueError):
        dec.projectors[0][0, 0] = 5.0
    with pytest.raises(ValueError):
        dec.vectors[0, 0] = 5.0
    with pytest.raises(ValueError):
        dec.columns(0)[0, 0] = 5.0


def test_decompose_rejects_non_square_and_empty():
    for q in (np.zeros((2, 3)), np.zeros((0, 0)), np.zeros(3)):
        with pytest.raises(ValueError, match="expected a non-empty square matrix"):
            decompose(q)


def test_decompose_rejects_nearly_symmetric():
    # rtol would let 1e-6 through, and eigh would read one triangle only
    with pytest.raises(ValueError, match="symmetric"):
        decompose(np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]]))
    decompose(np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]]))
    # an entrywise asymmetry of exactly 1e-10 passes; more, or a NaN, raises
    decompose(np.array([[1.0, 0.0], [1e-10, 1.0]]))
    for q in ([[1.0, 0.0], [2e-10, 1.0]], [[1.0, math.nan], [math.nan, 1.0]], [[math.nan]]):
        with pytest.raises(ValueError, match="expected a symmetric matrix"):
            decompose(np.array(q))


def _planted(seed: int, n: int):
    """Random symmetric matrix with a few integer eigenvalues repeated."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-3.0, 0.0, 1.0, 2.5, 7.0], size=n)
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q = (basis * values) @ basis.T
    return (q + q.T) / 2.0, values


def test_columns_and_entries_match_dense_projectors():
    mats = [signless_laplacian(generate(spec)) for spec in SPECS]
    for seed in range(6):
        q, values = _planted(seed, 6 + 3 * seed)
        dec = decompose(q)
        want = sorted(((v, int(np.sum(values == v))) for v in set(values.tolist())), reverse=True)
        assert [round(x, 9) for x in dec.eigenvalues] == [v for v, _ in want]
        assert list(dec.multiplicities) == [m for _, m in want]
        mats.append(q)
    for q in mats:
        dec = decompose(q)
        n, k = dec.n, len(dec.eigenvalues)
        dense = np.stack(
            [dec.vectors[:, lo : lo + m] @ dec.vectors[:, lo : lo + m].T
             for lo, m in zip(np.cumsum((0,) + dec.multiplicities[:-1]), dec.multiplicities)]
        )
        assert np.max(np.abs(dense - np.stack(dec.projectors))) <= 1e-12
        for u in range(n):
            cols = dec.columns(u)
            assert cols.shape == (n, k)
            assert np.max(np.abs(cols - dense[:, :, u].T)) <= 1e-12
            for v in range(n):
                assert np.max(np.abs(dec.entries(u, v) - dense[:, u, v])) <= 1e-12


def test_support_and_cospectrality_match_projector_loops():
    specs = SPECS + ["C:9", "C:12", "halved:3", "corona(C:4,K:2)", "corona(K:3,C:4)", "corona(CP:2,empty:2)"]
    decs = [decompose(signless_laplacian(parse_spec(spec).graph)) for spec in specs]
    decs += [decompose(_planted(seed, 9)[0]) for seed in range(3)]
    for dec in decs:
        for u in range(dec.n):
            assert eigenvalue_support(dec, u) == support_from_projectors(dec, u)
            for v in range(dec.n):
                if u != v:
                    got = strong_cospectrality(dec, u, v)
                    assert got == cospectrality_from_projectors(dec, u, v)
                    assert type(got[0]) is bool and all(type(s) is int for s in got[1])


def _reference_eigenvalues(q):
    """eigh's values, descending, clustered and averaged as `decompose` documents."""
    vals = np.linalg.eigh(q)[0]
    vals = vals[np.argsort(vals)[::-1]]
    out, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[start] - vals[i] > spectra.DEFAULT_CLUSTER_TOL:
            out.append(float(np.mean(vals[start:i])))
            start = i
    return tuple(out)


def test_eigenvalues_keep_every_bit():
    # the same eigh call, ordering and cluster means: equal bits, the sign of
    # a zero included, not close floats (a pinned literal would instead pin
    # the LAPACK build and CPU)
    specs = SPECS + ["C:8", "C:12", "C:60", "K:7", "HQ:4", "halved:4", "corona(C:6,K:2)", "corona(K:3,C:4)"]
    # attachments whose clusters have three or more members
    specs += ["empty:12", "K:40", "CP:9"]
    for spec in specs:
        q = signless_laplacian(parse_spec(spec).graph)
        got, want = decompose(q).eigenvalues, _reference_eigenvalues(q)
        assert [x.hex() for x in got] == [x.hex() for x in want], spec


def test_decompose_peak_memory_is_a_few_matrices():
    q = corona_full_q(generate("C:40"), generate("C:20"))
    n = q.shape[0]
    tracemalloc.start()
    try:
        dec = decompose(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 840 and dec.n == n
    assert peak < 4 * n * n * 8


def test_length_and_order_build_no_projector(monkeypatch):
    def refuse(block):
        raise AssertionError("a dense projector was built")

    monkeypatch.setattr(spectra, "_projector", refuse)
    dec = decompose_graph(cycle_graph(6))
    assert len(dec.projectors) == 4 and dec.n == 6
    with pytest.raises(AssertionError):
        dec.projectors[0]


# =========================================================================
# transition amplitudes against the matrix exponential
# =========================================================================


def test_transition_matrix_matches_expm():
    rng = np.random.default_rng(7)
    for spec in SPECS:
        q = signless_laplacian(generate(spec))
        dec = decompose(q)
        for tau in rng.uniform(0.1, 10.0, size=5):
            u_spec = transition_matrix(dec, tau)
            u_ref = expm(-1j * tau * q)
            assert np.max(np.abs(u_spec - u_ref)) < 1e-10


def test_transition_matrix_unitary():
    q = signless_laplacian(generate("CP:3"))
    dec = decompose(q)
    for tau in (0.3, 1.7, 9.2):
        u = transition_matrix(dec, tau)
        assert np.allclose(u @ u.conj().T, np.eye(q.shape[0]), atol=1e-10)


def test_transition_amplitude_scalar_and_vector():
    dec = decompose_graph(cycle_graph(5))
    taus = np.array([0.5, 1.0, 2.5])
    vec = transition_amplitude(dec, 0, 2, taus)
    assert vec.shape == (3,)
    for k, tau in enumerate(taus):
        single = transition_amplitude(dec, 0, 2, float(tau))
        assert abs(vec[k] - single) < 1e-12
    # K2: U(pi/2)_{01} = (e^{-i pi} - 1)/2 = -1
    k2 = decompose_graph(complete_graph(2))
    assert transition_amplitude(k2, 0, 1, math.pi / 2) == pytest.approx(-1.0, abs=1e-9)


def test_amplitude_refuses_times_beyond_its_accuracy():
    # the fidelity error bound 3*eps*tau*max|theta| passes 1e-6 on K2
    # (max|theta| = 2) between tau = 7e8 and 8e8
    dec = decompose_graph(complete_graph(2))
    transition_amplitude(dec, 0, 1, 7e8)
    for taus, named in ((1e300, "1e+300"), (8e8, "800000000"), (np.array([1.0, -8e8]), "800000000")):
        with pytest.raises(ValueError, match=f"time {re.escape(named)} is too large"):
            transition_amplitude(dec, 0, 1, taus)


def test_amplitude_refuses_non_finite_times():
    dec = decompose_graph(complete_graph(2))
    for taus in (math.nan, np.array([1.0, math.nan]), -math.inf):
        with pytest.raises(ValueError, match="time must be finite, got (nan|inf)"):
            transition_amplitude(dec, 0, 1, taus)


def test_amplitude_at_zero_is_identity():
    dec = decompose_graph(cycle_graph(4))
    assert transition_amplitude(dec, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert transition_amplitude(dec, 0, 1, 0.0) == pytest.approx(0.0, abs=1e-12)


# =========================================================================
# eigenvalue support and strong cospectrality
# =========================================================================


def test_eigenvalue_support_k2():
    dec = decompose_graph(complete_graph(2))
    assert eigenvalue_support(dec, 0) == dec.eigenvalues
    assert eigenvalue_support(dec, 1) == dec.eigenvalues


def test_eigenvalue_support_respects_zero_columns():
    # C4: the middle eigenvalue projector has full support, but the star
    # K_{1,3} center misses the eigenvalue 1 (its projector column vanishes)
    from qwcorona.graphs import graph_from_edges

    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    dec = decompose_graph(star)
    sup_center = eigenvalue_support(dec, 0)
    sup_leaf = eigenvalue_support(dec, 1)
    assert len(sup_center) < len(sup_leaf)


def test_strong_cospectrality_k2():
    dec = decompose_graph(complete_graph(2))
    flag, signs = strong_cospectrality(dec, 0, 1)
    assert flag
    assert signs == (1, -1)


def test_strong_cospectrality_p4_ends():
    dec = decompose_graph(path_graph(4))
    flag, signs = strong_cospectrality(dec, 0, 3)
    assert flag
    assert all(s in (1, -1) for s in signs)


def test_strong_cospectrality_fails_k3():
    dec = decompose_graph(complete_graph(3))
    flag, _ = strong_cospectrality(dec, 0, 1)
    assert not flag


def test_strong_cospectrality_same_vertex_rejected():
    dec = decompose_graph(complete_graph(2))
    with pytest.raises(ValueError):
        strong_cospectrality(dec, 1, 1)


def test_cospectral_signs_alternate_cp4():
    dec = decompose_graph(cocktail_party_graph(4))
    flag, signs = strong_cospectrality(dec, 0, 1)
    assert flag
    assert signs == (1, -1, 1)


# =========================================================================
# antipodal projector identity
# =========================================================================


def test_antipodal_identity():
    assert antipodal_identity_check(cocktail_party_graph(3))
    assert antipodal_identity_check(cocktail_party_graph(4))
    assert antipodal_identity_check(hypercube_graph(3))
    assert not antipodal_identity_check(path_graph(4))


# =========================================================================
# fidelity scans
# =========================================================================


def test_fidelity_scan_finds_k2_transfer():
    dec = decompose_graph(complete_graph(2))
    scan = fidelity_scan(dec, 0, 1, 5.0, 500)
    assert scan.best_fidelity == pytest.approx(1.0, abs=1e-9)
    assert scan.best_tau == pytest.approx(math.pi / 2, abs=1e-4)


@pytest.mark.parametrize("t_max", [math.nan, math.inf])
def test_fidelity_scan_rejects_non_finite_t_max(t_max):
    dec = decompose_graph(complete_graph(2))
    with pytest.raises(ValueError, match=f"t_max must be finite, got {t_max}"):
        fidelity_scan(dec, 0, 1, t_max, 10)


def test_fidelity_scan_grid_shape():
    dec = decompose_graph(cycle_graph(4))
    scan = fidelity_scan(dec, 0, 2, 10.0, 100)
    assert len(scan.taus) == 100
    assert len(scan.fidelities) == 100
    assert scan.taus[0] > 0
    assert scan.taus[-1] == pytest.approx(10.0, abs=1e-12)


def test_fidelity_scan_offset_grid_refines_its_maximum():
    # K2 fidelity sin^2(tau) peaks at pi/2, between the grid points 1.5 and 1.6
    dec = decompose_graph(complete_graph(2))
    scan = fidelity_scan(dec, 0, 1, 2.0, 10, start=1.0)
    assert np.array_equal(scan.taus, 1.0 + 1.0 * np.arange(1, 11) / 10)
    assert scan.best_fidelity == pytest.approx(1.0, abs=1e-12)
    assert scan.best_tau == pytest.approx(math.pi / 2, abs=1e-6)
    for start in (-1.0, 2.0, math.nan):
        with pytest.raises(ValueError, match="need 0 <= start < t_max"):
            fidelity_scan(dec, 0, 1, 2.0, 10, start=start)


def test_fidelity_scan_refinement_beats_grid():
    # a coarse grid straddles the K2 peak; refinement should land on it
    dec = decompose_graph(complete_graph(2))
    scan = fidelity_scan(dec, 0, 1, 4.0, 37)
    grid_best = float(np.max(scan.fidelities))
    assert scan.best_fidelity >= grid_best - 1e-15
    assert scan.best_fidelity == pytest.approx(1.0, abs=1e-6)


def test_fidelity_scan_bounds():
    dec = decompose_graph(cycle_graph(5))
    scan = fidelity_scan(dec, 0, 1, 20.0, 400)
    assert 0.0 <= scan.best_fidelity <= 1.0 + 1e-12
    assert 0.0 < scan.best_tau <= 20.0
