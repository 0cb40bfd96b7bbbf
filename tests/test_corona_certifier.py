"""Closed-form corona certification against the dense oracle.

`corona_pst_certify` decides from G's decomposition and the factor
parameters alone; the oracle is `pst_certify` on the dense decomposition
of `corona_full_q`.  The oracle's `decompose` clusters on an absolute
gap, so it keeps apart the pair-minus values of distinct base eigenvalues
(about 1e-5 apart near the size cap) and has exactly as many clusters as
the closed form has distinct values.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from qwcorona import (
    CoronaParams,
    InternalInvariantError,
    QuadExt,
    corona_base_pst_check,
    corona_pst_certify,
    corona_spectrum,
    decompose,
    generate,
    is_perfect_square,
    pst_certify,
    signless_laplacian,
)
from qwcorona.corona_spectra import _row_keys
from qwcorona.spectra import DEFAULT_SUPPORT_TOL, strong_cospectrality
from qwcorona.state_transfer import NO_PST, UNDECIDED
from oracle import corona_full_q

MAX_N = 480


def _spectrum(gspec, hspec):
    g, h = generate(gspec), generate(hspec)
    return corona_spectrum(
        decompose(signless_laplacian(g)),
        decompose(signless_laplacian(h)),
        CoronaParams.from_graphs(g, h),
    )


def _factors(gspec, hspec):
    """G's decomposition and the factor parameters, what the certifier reads."""
    g, h = generate(gspec), generate(hspec)
    return decompose(signless_laplacian(g)), CoronaParams.from_graphs(g, h)


def _certify(gspec, hspec, u, v):
    return corona_pst_certify(*_factors(gspec, hspec), u, v)


def _recording(monkeypatch, name):
    """Record the arguments of every call of state_transfer.<name>, which still runs."""
    import qwcorona.state_transfer as st

    calls, fn = [], getattr(st, name)
    monkeypatch.setattr(st, name, lambda *args: calls.append(args) or fn(*args))
    return calls


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


def _differing_columns(dec, u, v):
    """Eigenvalues at which F e_u is neither F e_v nor -F e_v (max norm)."""
    x, y = dec.columns(u), dec.columns(v)
    apart = (np.abs(x - y).max(axis=0) > DEFAULT_SUPPORT_TOL) & (
        np.abs(x + y).max(axis=0) > DEFAULT_SUPPORT_TOL
    )
    return [th for th, far in zip(dec.eigenvalues, apart) if far]


def test_closed_form_certifier_matches_dense_oracle():
    # the closed form refutes a non-integral base support exactly, where
    # the dense oracle cannot recognize the float support; every other
    # verdict is the same.  A pair that is not strongly cospectral has the
    # same witness in both modes: the values at which its columns differ,
    # so not the shift values, where both base columns vanish
    cases = _grid()
    refuted_exactly = not_cospectral = 0
    for gspec, hspec, u, v in cases:
        g, h = generate(gspec), generate(hspec)
        assert g.n * (1 + h.n) <= MAX_N
        spectrum = _spectrum(gspec, hspec)
        got = _certify(gspec, hspec, u, v)
        oracle_dec = decompose(corona_full_q(g, h))
        want = pst_certify(oracle_dec, u, v)
        closed_values = {spectrum.value(k) for k in range(len(spectrum.rows))}
        label = (gspec, hspec, u, v)
        assert len(oracle_dec.eigenvalues) == len(closed_values), label
        assert got.strongly_cospectral == want.strongly_cospectral, label
        if want.basis == "not-strongly-cospectral":
            assert _same_support(got.refutation_witness, want.refutation_witness), label
            assert _same_support(want.refutation_witness, _differing_columns(oracle_dec, u, v)), label
            not_cospectral += 1
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
    assert not_cospectral == 161


def test_dense_certifier_reads_large_radicands():
    # C6 ~o C79 (N = 480): the supported pair values carry square-free
    # radicands up to 151 637, read from their conjugates in the support;
    # the dense support refutes exactly as the closed form does
    g, h = generate("C:6"), generate("C:79")
    want = _certify("C:6", "C:79", 0, 3)
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


def test_shift_value_merges_exactly_with_top_minus(monkeypatch):
    # K3 ~o C4: s = 6, t = 8; the top pair is {14, 4} and the shift block
    # at mu = 2 is 4 as well; theta = 1 is not strongly cospectral at (0, 1).
    # The certifier reads G's pair rows alone: the value 4 takes the top's
    # sign, and the shift value 2, where both base columns vanish, is no
    # witness
    spec = _spectrum("K:3", "C:4")
    kinds = {row[0] for k, row in enumerate(spec.rows) if spec.value(k) == QuadExt.from_int(4)}
    assert kinds == {"shift", "top-minus"}
    seen = _recording(monkeypatch, "_not_strongly_cospectral")
    rep = _certify("K:3", "C:4", 0, 1)
    [(_, _, values, signs, silent)] = seen
    assert values == tuple(float(QuadExt.from_int(k)) for k in (14, 10, 5, 4))
    assert signs == (1, 0, 0, 1)
    assert not any(silent)
    assert rep.verdict == NO_PST
    assert rep.refutation_witness == [10.0, 5.0]


def test_shift_value_merges_exactly_with_pair_minus(monkeypatch):
    # K2 ~o K3: the theta = 0 pair is {6, 2} and the shift value is 2; the
    # value 2 carries the pair's sign -1
    spec = _spectrum("K:2", "K:3")
    kinds = {row[0] for k, row in enumerate(spec.rows) if spec.value(k) == QuadExt.from_int(2)}
    assert kinds == {"shift", "pair-minus"}
    seen = _recording(monkeypatch, "_certify_support")
    rep = _certify("K:2", "K:3", 0, 1)
    [(_, _, supported)] = seen
    values = tuple(x for x, _ in supported)
    assert values.count(QuadExt.from_int(2)) == 1
    assert supported[values.index(QuadExt.from_int(2))][1] == -1
    assert QuadExt.from_int(2) in rep.support


def test_k2_pendant_certifier_direct(monkeypatch):
    # K2 ~o K1 has no shift block; its support mixes sqrt(2) with integers
    spec = _spectrum("K:2", "K:1")
    assert all(row[0] != "shift" for row in spec.rows)
    seen = _recording(monkeypatch, "_certify_support")
    rep = _certify("K:2", "K:1", 0, 1)
    [(_, _, supported)] = seen
    values = tuple(x for x, _ in supported)
    assert values == (QuadExt(4, 2, 2), QuadExt.from_int(2), QuadExt(4, -2, 2), QuadExt.from_int(0))
    assert tuple(sg for _, sg in supported) == (1, -1, 1, -1)
    assert rep.verdict == NO_PST
    assert rep.basis == "support-form"


def _with_top_minus(monkeypatch, a, d):
    """Make the certifier read G's pair rows with the top-minus row moved to
    (a - sqrt(d))/2, to force a coincidence."""
    import qwcorona.state_transfer as st

    pair_rows = st._pair_rows

    def forged(gdec, params):
        return [
            (kind, a, sign, d, mult, idx) if kind == "top-minus" else (kind, a0, sign, d0, mult, idx)
            for kind, a0, sign, d0, mult, idx in pair_rows(gdec, params)
        ]

    monkeypatch.setattr(st, "_pair_rows", forged)
    return forged


def test_opposite_signs_on_one_value_break_strong_cospectrality(monkeypatch):
    # K2 ~o K3: theta = 0 has sign -1 at (0, 1), the top +1; a top-minus
    # value moved onto the pair-minus value 2 = (6 - sqrt(4))/2 carries both
    # signs, so the columns differ there and 2 is the witness
    _with_top_minus(monkeypatch, 6, 4)
    seen = _recording(monkeypatch, "_not_strongly_cospectral")
    rep = _certify("K:2", "K:3", 0, 1)
    [(_, _, values, signs, _)] = seen
    assert values.count(2.0) == 1
    assert signs[values.index(2.0)] == 0
    assert rep.basis == "not-strongly-cospectral"
    assert rep.refutation_witness == [2.0]


def test_float_value_over_integral_base_support_is_an_invariant_error(monkeypatch):
    # K2 ~o K3 has an integral base support, so every supported corona
    # value is exact; a float row cannot come from the closed form.  The
    # forged top-minus row takes a float a, and its source theta = 2*r1 is
    # an integer
    forged = _with_top_minus(monkeypatch, 14.0 + 2e-10, 4.0)
    rows = forged(*_factors("K:2", "K:3"))
    keys, _ = _row_keys(rows)
    assert [key for key, row in zip(keys, rows) if row[0] == "top-minus"] == [6.0 + 1e-10]
    with pytest.raises(InternalInvariantError, match="float corona value"):
        _certify("K:2", "K:3", 0, 1)


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
        rep = _certify(gspec, hspec, u, v)
        assert rep.verdict != UNDECIDED
        assert len(certified) == (rep.strongly_cospectral is True)
        if certified:
            reached.append((gspec, hspec, u, v))
            assert all(isinstance(x, QuadExt) for x, _ in certified[0])
    assert ("K:2", "K:1", 0, 1) in reached and ("C:6", "C:79", 0, 3) in reached


def test_a_decision_eigensolves_the_base_alone(monkeypatch):
    # counted, not timed: one decompose, of G, whatever the order of H; each
    # endpoint's projector columns reduced once (one array per endpoint),
    # and one vanishing mask taken of each endpoint's columns, though the
    # refutations and strong cospectrality both read them
    import qwcorona.spectra as sp
    import qwcorona.state_transfer as st

    decompose_, columns, vanishes = sp.decompose, sp.SpectralDecomposition.columns, sp._vanishes
    for hspec, u, v, basis in (
        ("K:20", 0, 7, "not-strongly-cospectral"),
        ("C:20", 0, 20, "nonperiodic-endpoint"),
        ("C:1500", 0, 20, "nonperiodic-endpoint"),
    ):
        sizes, read, masked = [], [], []
        monkeypatch.setattr(st, "decompose", lambda q: sizes.append(q.shape[0]) or decompose_(q))
        monkeypatch.setattr(
            sp.SpectralDecomposition, "columns", lambda self, w: read.append((w, columns(self, w))) or read[-1][1]
        )
        monkeypatch.setattr(sp, "_vanishes", lambda cols: masked.append(cols) or vanishes(cols))
        assert corona_base_pst_check(generate("C:40"), generate(hspec), u, v).basis == basis
        assert sizes == [40]
        assert len(read) >= 4 and {w for w, _ in read} == {u, v}
        arrays = {id(cols): (w, cols) for w, cols in read}
        assert len(arrays) == 2
        # the other masks are of the sum and difference of the two endpoints
        assert sorted(w for w, cols in arrays.values() for m in masked if m is cols) == sorted([u, v])


def _counting_factorizations(monkeypatch):
    """Record every QuadExt built and every square_free_part argument."""
    import qwcorona.algebraic as alg
    import qwcorona.corona_spectra as cs

    built, splits = [], []
    post_init, split = QuadExt.__post_init__, alg.square_free_part
    monkeypatch.setattr(QuadExt, "__post_init__", lambda self: built.append(self) or post_init(self))
    for module in (alg, cs):
        monkeypatch.setattr(module, "square_free_part", lambda n: splits.append(n) or split(n))
    return built, splits


def _non_square_radicands(spec):
    exact = [d for _, _, sign, d, _, _ in spec.rows if sign and isinstance(d, int)]
    return sorted({d for d in exact if not is_perfect_square(d)})


@pytest.mark.parametrize("gspec, hspec", [("C:40", "K:20"), ("C:60", "C:25")])
def test_a_pair_refuted_by_its_signs_builds_no_quadext(monkeypatch, gspec, hspec):
    # the witness of a pair that is not strongly cospectral is a list of
    # floats: no QuadExt is built, and each distinct non-square integral
    # radicand is split once, for the float of its canonical form
    radicands = _non_square_radicands(_spectrum(gspec, hspec))
    built, splits = _counting_factorizations(monkeypatch)
    rep = corona_base_pst_check(generate(gspec), generate(hspec), 0, 7)
    assert rep.basis == "not-strongly-cospectral"
    assert built == []
    assert sorted(splits) == radicands


def test_a_certified_support_builds_one_quadext_per_supported_value(monkeypatch):
    # C6 ~o C79 (0, 3) is strongly cospectral with an exact support: the
    # certifier builds a QuadExt of each supported value, and factors
    # nothing beyond those and one split per distinct non-square radicand
    radicands = _non_square_radicands(_spectrum("C:6", "C:79"))
    gdec, params = _factors("C:6", "C:79")
    built, splits = _counting_factorizations(monkeypatch)
    rep = corona_pst_certify(gdec, params, 0, 3)
    assert (rep.verdict, rep.basis) == (NO_PST, "support-form")
    assert len(built) == len(rep.support)
    assert sorted({d for d in splits if d in radicands}) == radicands
    assert len(splits) <= len(radicands) + len(built)


def test_a_size_bound_refutation_factors_nothing(monkeypatch):
    # C4 ~o K1 (0, 2) is refuted by the size bound; its support is integral,
    # so the QuadExt of each member has delta 1, which needs no factoring
    built, splits = _counting_factorizations(monkeypatch)
    rep = corona_base_pst_check(generate("C:4"), generate("K:1"), 0, 2)
    assert rep.basis == "size-bound"
    assert len(built) == len(rep.support) == 3
    assert splits == []


def test_witness_floats_are_read_from_the_canonical_form():
    # C16 ~o C5 (0, 1) is not strongly cospectral.  Each witness float is
    # float(QuadExt) of its exact value: theta = 2 gives the pair-minus
    # value (96 - 6*sqrt(94))/2, whose float is 18.913920855502024;
    # (96 - sqrt(3384))/2 would round to 18.913920855502028
    spec = _spectrum("C:16", "C:5")
    rep = corona_base_pst_check(generate("C:16"), generate("C:5"), 0, 1)
    assert rep.basis == "not-strongly-cospectral"
    _, theta_signs = strong_cospectrality(spec.gdec, 0, 1)
    unmatched = {spec.value(k) for k, row in enumerate(spec.rows) if row[0] != "shift" and theta_signs[row[5]] == 0}
    unsupported = sorted(unmatched, key=float, reverse=True)
    assert QuadExt(96, -6, 94) in unsupported
    assert [x.hex() for x in rep.refutation_witness] == [float(x).hex() for x in unsupported]
    assert float(QuadExt(96, -6, 94)).hex() == (18.913920855502024).hex()
    assert (18.913920855502024).hex() != ((96 - math.sqrt(3384)) / 2).hex()
