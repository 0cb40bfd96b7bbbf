"""Closed-form corona certification against the dense oracle.

`corona_pst_certify` decides from the factor spectra alone; the oracle is
`pst_certify` on the dense decomposition of `corona_full_q`.  The oracle's
`decompose` clusters on an absolute gap, so it keeps apart the pair-minus
values of distinct base eigenvalues (about 1e-5 apart near the size cap)
and has exactly as many clusters as the closed form has distinct values.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from qwcorona import (
    CoronaParams,
    InternalInvariantError,
    QuadExt,
    corona_base_pst_check,
    corona_full_q,
    corona_pst_certify,
    corona_spectrum,
    decompose,
    generate,
    pst_certify,
    signless_laplacian,
)
from qwcorona.state_transfer import NO_PST, UNDECIDED

MAX_N = 480


def _spectrum(gspec, hspec):
    g, h = generate(gspec), generate(hspec)
    return corona_spectrum(
        decompose(signless_laplacian(g)),
        decompose(signless_laplacian(h)),
        CoronaParams.from_graphs(g, h),
    )


FAMILIES = {"K": (1, 2, 3, 5), "C": (3, 4, 5, 7), "empty": (1, 2, 4, 6), "CP": (2, 3)}


def _grid():
    # integral bases: K3 with the attachments that pass every exact
    # refutation, and small bases whose refutations would stop earlier
    cases = [("K:3", h, 0, 1) for h in ("C:4", "CP:2", "CP:5", "HQ:2")]
    cases += [("K:2", "K:1", 0, 1), ("K:2", "K:3", 0, 1), ("CP:2", "K:1", 0, 1)]
    for n1 in range(5, 31):
        for i, (family, orders) in enumerate(FAMILIES.items()):
            h = f"{family}:{orders[n1 % len(orders)]}"
            pairs = [(0, 1)]
            if n1 % 2:
                pairs.append((0, n1 // 2))
            # each even cycle takes its antipodal pair on one family
            if n1 % 2 == 0 and (n1 // 2) % 4 == i:
                pairs.append((0, n1 // 2))
            cases += [(f"C:{n1}", h, u, v) for u, v in pairs]
    # near the size cap, where pair-minus values sit closest together
    cases += [("C:24", "empty:19", 0, 1), ("C:20", "K:23", 0, 10)]
    return cases


def _same_support(a, b):
    """Exact values compare exactly, floats within 1e-9."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, QuadExt) or isinstance(y, QuadExt):
            if x != y:
                return False
        elif abs(x - y) > 1e-9:
            return False
    return True


def test_closed_form_certifier_matches_dense_oracle():
    # the closed form refutes a non-integral base support exactly, where
    # the dense oracle cannot recognize the float support; every other
    # verdict is the same
    cases = _grid()
    refuted_exactly = 0
    for gspec, hspec, u, v in cases:
        g, h = generate(gspec), generate(hspec)
        assert g.n * (1 + h.n) <= MAX_N
        spectrum = _spectrum(gspec, hspec)
        got = corona_pst_certify(spectrum, u, v)
        oracle_dec = decompose(corona_full_q(g, h))
        want = pst_certify(oracle_dec, u, v)
        closed_values = spectrum.base_signs(u, v)[1]
        label = (gspec, hspec, u, v)
        assert len(oracle_dec.eigenvalues) == len(closed_values), label
        assert got.strongly_cospectral == want.strongly_cospectral, label
        if (want.verdict, want.basis) == (UNDECIDED, "unrecognized-eigenvalues"):
            assert (got.verdict, got.basis) == (NO_PST, "nonperiodic-endpoint"), label
            assert _same_support([float(x) for x in got.support], want.support), label
            refuted_exactly += 1
            continue
        assert (got.verdict, got.basis) == (want.verdict, want.basis), label
        assert _same_support(got.support, want.support), label
        assert (got.delta, got.g, got.tau0) == (want.delta, want.g, want.tau0), label
    assert len(cases) == 178
    assert refuted_exactly == 13


def test_dense_certifier_reads_large_radicands():
    # C6 ~o C79 (N = 480): the supported pair values carry square-free
    # radicands up to 151 637, read from their conjugates in the support;
    # the dense support refutes exactly as the closed form does
    g, h = generate("C:6"), generate("C:79")
    want = corona_pst_certify(_spectrum("C:6", "C:79"), 0, 3)
    got = pst_certify(decompose(corona_full_q(g, h)), 0, 3)
    assert (want.verdict, want.basis) == (NO_PST, "support-form")
    assert (got.verdict, got.basis, got.support) == (want.verdict, want.basis, want.support)


@pytest.mark.parametrize(
    "gspec, hspec, u, v",
    [("C:30", "C:15", 0, 15), ("C:40", "C:5", 0, 20), ("C:24", "empty:12", 0, 12)],
)
def test_antipodal_pairs_merged_by_dense_clustering(gspec, hspec, u, v):
    # a dense decomposition with a norm-scaled clustering threshold merged
    # pair-minus values here and lost strong cospectrality; the closed form
    # keeps it, and the non-integral cycle eigenvalue in the support
    # refutes periodicity of the endpoint
    g = generate(gspec)
    rep = corona_base_pst_check(g, generate(hspec), u, v)
    assert rep.strongly_cospectral is True
    assert (rep.verdict, rep.basis) == (NO_PST, "nonperiodic-endpoint")
    witness = rep.refutation_witness
    assert witness["rule"] == "non-integral-base-eigenvalue"
    theta = witness["witness"]
    assert abs(theta - round(theta)) > 1e-3
    spectrum = np.linalg.eigvalsh(signless_laplacian(g))
    assert np.min(np.abs(spectrum - theta)) < 1e-9


def test_shift_value_merges_exactly_with_top_minus():
    # K3 ~o C4: s = 6, t = 8; the top pair is {14, 4} and the shift block
    # at mu = 2 is 4 as well; theta = 1 is not strongly cospectral at (0, 1)
    spec = _spectrum("K:3", "C:4")
    kinds = {e.kind for e in spec.entries if e.value == QuadExt.from_int(4)}
    assert kinds == {"shift", "top-minus"}
    flag, values, signs = spec.base_signs(0, 1)
    assert not flag
    assert values == tuple(QuadExt.from_int(k) for k in (14, 10, 5, 4, 2))
    assert signs == (1, 0, 0, 1, 0)
    rep = corona_pst_certify(spec, 0, 1)
    assert rep.verdict == NO_PST
    assert rep.refutation_witness == [10.0, 5.0, 2.0]


def test_shift_value_merges_exactly_with_pair_minus():
    # K2 ~o K3: the theta = 0 pair is {6, 2} and the shift value is 2; the
    # merged value carries the pair's sign -1
    spec = _spectrum("K:2", "K:3")
    kinds = {e.kind for e in spec.entries if e.value == QuadExt.from_int(2)}
    assert kinds == {"shift", "pair-minus"}
    flag, values, signs = spec.base_signs(0, 1)
    assert flag
    assert values.count(QuadExt.from_int(2)) == 1
    assert signs[values.index(QuadExt.from_int(2))] == -1
    rep = corona_pst_certify(spec, 0, 1)
    assert QuadExt.from_int(2) in rep.support


def test_k2_pendant_certifier_direct():
    # K2 ~o K1 has no shift block; its support mixes sqrt(2) with integers
    spec = _spectrum("K:2", "K:1")
    assert all(e.kind != "shift" for e in spec.entries)
    flag, values, signs = spec.base_signs(0, 1)
    assert flag
    assert values == (QuadExt(4, 2, 2), QuadExt.from_int(2), QuadExt(4, -2, 2), QuadExt.from_int(0))
    assert signs == (1, -1, 1, -1)
    rep = corona_pst_certify(spec, 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "support-form"


def _with_top_minus(spec, value):
    """The spectrum with its top-minus value moved, to force a coincidence."""
    entries = tuple(
        replace(e, value=value) if e.kind == "top-minus" else e for e in spec.entries
    )
    return replace(spec, entries=entries)


def test_opposite_signs_on_one_value_break_strong_cospectrality():
    # K2 ~o K3: theta = 0 has sign -1 at (0, 1), the top +1; a top-minus
    # value moved onto the pair-minus value 2 carries both signs
    spec = _with_top_minus(_spectrum("K:2", "K:3"), QuadExt.from_int(2))
    flag, values, signs = spec.base_signs(0, 1)
    assert not flag
    assert signs[values.index(QuadExt.from_int(2))] == 0
    assert corona_pst_certify(spec, 0, 1).basis == "not-strongly-cospectral"


def test_float_value_over_integral_base_support_is_an_invariant_error():
    # K2 ~o K3 has an integral base support, so every supported corona
    # value is exact; a float one cannot come from the closed form
    spec = _with_top_minus(_spectrum("K:2", "K:3"), 6.0 + 1e-10)
    with pytest.raises(InternalInvariantError, match="float corona value"):
        corona_pst_certify(spec, 0, 1)


PROBE_BASES = [f"C:{n}" for n in range(5, 17)] + ["K:2", "K:4", "CP:3", "HQ:3"]
PROBE_ATTACHMENTS = ("K:1", "K:3", "empty:2", "C:5", "CP:2")


def _probe_grid():
    """Base pairs (0, 1) and (0, n1/2) over a thinned base x attachment grid."""
    cases = []
    for gspec in PROBE_BASES:
        n1 = generate(gspec).n
        for hspec in PROBE_ATTACHMENTS:
            cases += [(gspec, hspec, 0, v) for v in sorted({1, n1 // 2})]
    return cases


def test_probe_grid_has_no_undecided_verdict():
    # every antipodal even-cycle pair is strongly cospectral and refuted by
    # a non-integral theta in its support; nothing is left undecided
    refuted = 0
    for gspec, hspec, u, v in _probe_grid():
        rep = corona_base_pst_check(generate(gspec), generate(hspec), u, v)
        label = (gspec, hspec, u, v)
        assert rep.verdict != UNDECIDED, label
        n1 = generate(gspec).n
        # C:4 and C:6 have integral spectra and stop at the size bound
        if gspec.startswith("C:") and n1 % 2 == 0 and n1 > 6 and v == n1 // 2:
            assert rep.strongly_cospectral is True, label
            assert (rep.verdict, rep.basis) == (NO_PST, "nonperiodic-endpoint"), label
            assert rep.refutation_witness["rule"] == "non-integral-base-eigenvalue", label
            refuted += 1
    assert refuted == 5 * len(PROBE_ATTACHMENTS)


def test_corona_route_recognizes_no_float(monkeypatch):
    # corona base decisions carry exact values end to end: with recognition
    # disabled they still decide, and every support that reaches the exact
    # certifier tail is a list of QuadExt values
    import qwcorona.state_transfer as st

    def no_recognition(*args, **kwargs):
        raise AssertionError("as_exact called on the corona route")

    certified = []
    certify_support = st._certify_support

    def recording(u, v, supported):
        certified.append(supported)
        return certify_support(u, v, supported)

    monkeypatch.setattr(st, "as_exact", no_recognition)
    monkeypatch.setattr(st, "_certify_support", recording)
    for gspec, hspec, u, v in _probe_grid():
        corona_base_pst_check(generate(gspec), generate(hspec), u, v)
    assert all(isinstance(x, QuadExt) for supported in certified for x, _ in supported)
    # integral bases of the certifier grid, decided in full and certified
    # directly, past the refutations that stop most of them; every strongly
    # cospectral pair ends in the exact tail
    integral = [c for c in _grid() if not c[0].startswith("C:") or c[0] in ("C:4", "C:6")]
    integral.append(("C:6", "C:79", 0, 3))
    reached = []
    for gspec, hspec, u, v in integral:
        assert corona_base_pst_check(generate(gspec), generate(hspec), u, v).verdict != UNDECIDED
        certified.clear()
        rep = corona_pst_certify(_spectrum(gspec, hspec), u, v)
        assert rep.verdict != UNDECIDED
        assert len(certified) == (rep.strongly_cospectral is True)
        if certified:
            reached.append((gspec, hspec, u, v))
            assert all(isinstance(x, QuadExt) for x, _ in certified[0])
    assert ("K:2", "K:1", 0, 1) in reached and ("C:6", "C:79", 0, 3) in reached
