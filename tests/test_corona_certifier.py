"""Closed-form corona certification against the dense oracle.

`corona_pst_certify` decides from the factor spectra alone; the oracle is
`pst_certify` on the dense decomposition of `corona_full_q`.  The oracle's
`decompose` clusters by a tolerance scaled with the spectral norm and can
merge distinct pair-minus values; those cases are told apart and pinned.
"""
from __future__ import annotations

from dataclasses import replace

import pytest

from qwcorona import (
    CoronaParams,
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
    # near the size cap, where the oracle's clustering starts to merge
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
    merged = 0
    cases = _grid()
    for gspec, hspec, u, v in cases:
        g, h = generate(gspec), generate(hspec)
        assert g.n * (1 + h.n) <= MAX_N
        spectrum = _spectrum(gspec, hspec)
        got = corona_pst_certify(spectrum, u, v)
        oracle_dec = decompose(corona_full_q(g, h))
        want = pst_certify(oracle_dec, u, v)
        closed_values = spectrum.base_signs(u, v)[1]
        label = (gspec, hspec, u, v)
        if len(oracle_dec.eigenvalues) < len(closed_values):
            # the oracle merged clusters the closed form keeps apart; only
            # antipodal cycle vertices are strongly cospectral
            merged += 1
            antipodal = g.n % 2 == 0 and v == g.n // 2
            assert got.strongly_cospectral is antipodal, label
            continue
        assert (got.verdict, got.basis, got.strongly_cospectral) == (
            want.verdict,
            want.basis,
            want.strongly_cospectral,
        ), label
        assert _same_support(got.support, want.support), label
        assert (got.delta, got.g, got.tau0) == (want.delta, want.g, want.tau0), label
    assert len(cases) == 178
    assert merged < len(cases) // 4


@pytest.mark.parametrize(
    "gspec, hspec, u, v",
    [("C:30", "C:15", 0, 15), ("C:40", "C:5", 0, 20), ("C:24", "empty:12", 0, 12)],
)
def test_antipodal_pairs_merged_by_dense_clustering(gspec, hspec, u, v):
    rep = corona_base_pst_check(generate(gspec), generate(hspec), u, v)
    assert rep.strongly_cospectral is True
    assert rep.verdict == UNDECIDED
    assert rep.basis == "unrecognized-eigenvalues"


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


def test_close_float_values_are_left_undecided():
    # a float within tol of a supported exact value is neither merged nor
    # kept apart
    spec = _with_top_minus(_spectrum("K:2", "K:3"), 6.0 + 1e-10)
    rep = corona_pst_certify(spec, 0, 1)
    assert rep.verdict == UNDECIDED
    assert rep.basis == "unresolved-coincidence"
    assert rep.strongly_cospectral is True
    assert rep.refutation_witness == [6.0 + 1e-10, 6.0]
