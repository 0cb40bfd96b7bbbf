"""Tests for periodicity decisions, transfer refutations, and searches."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

import qwcorona
from qwcorona.algebraic import QuadExt, is_perfect_square
from qwcorona.corona_spectra import (
    CoronaParams,
    pair_radicand,
    top_radicand,
)
from qwcorona.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    generate,
    graph_from_edges,
    regular_degree,
    signless_laplacian,
)
from qwcorona.spectra import decompose, eigenvalue_support, fidelity_scan, transition_amplitude
from qwcorona.state_transfer import (
    NO_PST,
    PST,
    _refutation,
    corona_base_pst_check,
    corona_pst_certify,
    pgst_cocktail,
    pgst_scan,
    pgst_time_search,
    pst_certify,
)
from oracle import corona_full_q, corona_transition_element, path_graph


def dec_of(spec: str):
    return decompose(signless_laplacian(generate(spec)))


# =========================================================================
# corona base periodicity
# =========================================================================


def decide(gspec: str, hspec: str, u: int = 0, v: int = 1):
    return corona_base_pst_check(generate(gspec), generate(hspec), u, v)


def int_supports(spec: str, *vertices) -> dict:
    """Base supports as plain ints, the form `_refutation` reads."""
    dec = dec_of(spec)
    return {w: [round(x) for x in eigenvalue_support(dec, w)] for w in vertices}


def test_corona_base_c4_pendant_not_periodic():
    # base vertex 0 is refuted whichever vertex it is paired with
    for v in (1, 2, 3):
        rep = decide("C:4", "K:1", 0, v)
        assert (rep.verdict, rep.basis) == (NO_PST, "size-bound")
        assert rep.refutation_witness["vertex"] == 0


def test_corona_base_k2_pendant_not_periodic():
    rep = decide("K:2", "K:1")
    assert (rep.verdict, rep.basis) == (NO_PST, "size-bound")
    assert rep.refutation_witness["vertex"] == 0


def test_corona_base_positive_integer_instance():
    # K3 with C4 attachments: radicands 25 and 100 are perfect squares, so
    # both endpoints pass every rule
    params = CoronaParams(n1=3, n2=4, r1=2, r2=2)
    assert (pair_radicand(params, 1), top_radicand(params)) == (25, 100)
    integral = int_supports("K:3", 0, 1)
    assert integral == {0: [4, 1], 1: [4, 1]}
    assert _refutation(params, 0, 1, integral) is None


def test_corona_base_float_support_falls_back():
    # C:5's base support is not integral, so no rule runs and the
    # certifier decides
    rep = decide("C:5", "K:1")
    assert (rep.verdict, rep.basis, rep.strongly_cospectral) == (NO_PST, "not-strongly-cospectral", False)


@pytest.mark.parametrize("n, theta", [(5, (3 + math.sqrt(5)) / 2), (8, 2 + math.sqrt(2))])
def test_corona_base_non_integral_support_refuted(n, theta):
    # theta lies in the support of base vertex 0 of C:n~oK:1, so the
    # certifier decides every pair; the only strongly cospectral one, the
    # antipodal pair of C:8, is refuted by theta
    assert min(abs(x - theta) for x in eigenvalue_support(dec_of(f"C:{n}"), 0)) < 1e-9
    reps = [decide(f"C:{n}", "K:1", 0, v) for v in range(1, n)]
    assert all(rep.verdict == NO_PST for rep in reps)
    refuted = [rep for rep in reps if rep.strongly_cospectral]
    assert [rep.v for rep in refuted] == ([4] if n == 8 else [])
    for rep in refuted:
        wit = rep.refutation_witness
        assert (rep.basis, wit["vertex"], wit["rule"]) == (
            "nonperiodic-endpoint",
            0,
            "non-integral-base-eigenvalue",
        )
        assert wit["witness"] == pytest.approx(theta, abs=1e-9)
    assert all(rep.basis == "not-strongly-cospectral" for rep in reps if not rep.strongly_cospectral)


def test_balanced_corona_params_only_on_k2_or_edgeless_bases():
    # s = 2*r1 + t needs n1 = 2 or r1 = 0, the premise of the
    # non-integral-base-eigenvalue rule
    for n1 in range(2, 30):
        for n2 in range(1, 30):
            t = n2 * (n1 - 1)
            for r1 in range(n1):
                for r2 in range(n2):
                    if n1 + 2 * r2 - 1 == 2 * r1 + t:
                        assert n1 == 2 or r1 == 0, (n1, n2, r1, r2)


def test_size_bound_leaves_only_zero_below_the_top():
    # on n1 >= 4 vertices every theta >= 1 breaks n2 >= |theta - s + t| + 1,
    # whatever r2 < n2, so past the size bound only theta = 0 is left
    # below the top
    n2 = np.arange(1, 81)[:, None, None]
    r2 = np.arange(80)[None, :, None]
    for n1 in range(4, 41):
        theta = np.arange(1, 2 * (n1 - 1) + 1)[None, None, :]
        gap = np.abs(theta - (n1 + 2 * r2 - 1) + n2 * (n1 - 1))
        assert np.all((r2 >= n2) | (n2 < gap + 1)), n1


def test_size_bound_implies_a_non_square_radicand():
    # x^2 + 4*m with m >= 1 is a square only if m >= |x| + 1, so a size
    # bound violation is a non-square radicand and the bound is the first
    # test of the non-square radicand rule
    x = np.arange(-300, 301)[:, None]
    m = np.arange(1, 601)[None, :]
    d = x * x + 4 * m
    root = np.rint(np.sqrt(d)).astype(np.int64)
    assert np.all((root * root != d) | (m >= np.abs(x) + 1))
    assert np.any((root * root == d) & (m == np.abs(x) + 1))


def test_k2_odd_composite_attachments_meet_close_top_ratio():
    # on odd composite n2 past the size bound, the K2 base always meets the
    # close-top-ratio inequality 0 < |gap(top) - gap(0)| < 3; a radicand is
    # then not a square, and the rule that reads it refutes at u
    integral = int_supports("K:2", 0, 1)
    fired = 0
    for n2 in range(9, 400, 2):
        if all(n2 % f for f in range(3, math.isqrt(n2) + 1, 2)):
            continue
        for r2 in range(n2):
            params = CoronaParams(n1=2, n2=n2, r1=1, r2=r2)
            x = params.t - params.s
            if n2 < abs(x) + 1 or n2 < abs(2 + x) + 1:
                continue
            assert 0 < abs(abs(2 + x) - abs(x)) < 3, (n2, r2)
            basis, w, witness = _refutation(params, 0, 1, integral)
            assert (basis, w) == ("nonperiodic-endpoint", 0), (n2, r2)
            assert not is_perfect_square(witness["witness"][1]), (n2, r2)
            fired += 1
    assert fired > 10_000


# =========================================================================
# size bound
# =========================================================================


def test_size_bound_violated_for_c4():
    rep = decide("C:4", "K:1", 0, 2)
    assert rep.basis == "size-bound"
    assert rep.refutation_witness == {"vertex": 0, "eigenvalue": 2}


def test_size_bound_top_violation_for_k2_pendant():
    # with r2 = 0 the top inequality n2*(n1-1)^2 >= |2*r1 - s + t| + 1 fails
    rep = decide("K:2", "K:1")
    assert rep.basis == "size-bound"
    assert rep.refutation_witness == {"vertex": 0, "eigenvalue": 2}


def test_size_bound_holds_for_k2_cycle_attachments():
    # r2 >= 1 shrinks the top gap enough for K2 bases: a non-square
    # radicand decides
    for h in (generate("C:3"), generate("C:5"), graph_from_edges(4, [(0, 1), (2, 3)])):
        rep = corona_base_pst_check(complete_graph(2), h, 0, 1)
        assert (rep.verdict, rep.basis) == (NO_PST, "nonperiodic-endpoint"), h


# =========================================================================
# gap refutations
# =========================================================================


def test_gap_refutation_cube():
    # Q-spectrum of the 3-cube is {6,4,2,0}; its gaps of two are never
    # compared, since the size bound fails first
    for v in range(1, 8):
        rep = decide("HQ:3", "K:1", 0, v)
        assert (rep.verdict, rep.basis) == (NO_PST, "size-bound")
        assert rep.refutation_witness["eigenvalue"] in (4, 2, 0)


def test_gap_refutation_halved_cube():
    # halved 4-cube spectrum {12,6,4}
    for v in range(1, 8):
        assert decide("halved:2", "K:1", 0, v).basis == "size-bound"


def test_gap_refutation_singleton_vacuous():
    # wherever the size bound holds, a support has at most one value below
    # the top, so no two gaps below the top are ever compared
    checked = 0
    for gspec in ("K:2", "K:3", "K:4", "C:4", "C:6", "CP:3", "CP:4", "HQ:3", "halved:2"):
        g = generate(gspec)
        support = int_supports(gspec, 0)[0]
        for n2 in range(1, 16):
            for r2 in range(n2):
                params = CoronaParams(n1=g.n, n2=n2, r1=regular_degree(g), r2=r2)
                rest = [th for th in support if th != 2 * params.r1]
                if all(n2 >= abs(th - params.s + params.t) + 1 for th in rest):
                    assert len(rest) <= 1, (gspec, n2, r2)
                    checked += 1
    assert checked > 0


def test_gap_refutation_passes_k3_c4():
    # both radicands, 25 and 100, are squares: every pair reaches the
    # certifier
    for u, v in ((0, 1), (0, 2), (1, 2)):
        assert decide("K:3", "C:4", u, v).basis == "not-strongly-cospectral"


# =========================================================================
# K2 corona rule
# =========================================================================


def test_k2_rule_n2_one():
    # with one attached vertex the size bound fails first
    rep = decide("K:2", "K:1")
    assert (rep.verdict, rep.basis) == (NO_PST, "size-bound")


def test_k2_rule_odd_primes():
    # an odd prime n2 is never k*(k+1), so a radicand is not a square
    for hspec in ("C:3", "C:5", "K:5", "C:7", "K:7"):
        rep = decide("K:2", hspec)
        assert (rep.verdict, rep.basis) == (NO_PST, "nonperiodic-endpoint")
        assert not is_perfect_square(rep.refutation_witness["witness"][1])


def test_k2_rule_even():
    # K2 ~o K2 is n2 = 1*2 with r2 = n2/2: both radicands are squares and
    # the certifier refutes on parity; the others have a non-square radicand
    for hspec, basis in (
        ("K:2", "parity-mismatch"),
        ("C:4", "nonperiodic-endpoint"),
        ("CP:3", "nonperiodic-endpoint"),
        ("K:6", "nonperiodic-endpoint"),
    ):
        rep = decide("K:2", hspec)
        assert (rep.verdict, rep.basis) == (NO_PST, basis), hspec


def test_k2_rule_odd_composite_undecided():
    for hspec in ("C:9", "C:15", "K:21"):
        rep = decide("K:2", hspec)
        assert (rep.verdict, rep.basis) == (NO_PST, "nonperiodic-endpoint")


def test_k2_rule_witness_radicands():
    # the witness is the first non-square of the radicands at theta = 0 and
    # at the top, x^2 + 4*n2 and (x+2)^2 + 4*n2 with x = n2 - 2*r2 - 1:
    # K3 gives 16 and 12, C5 gives 20 and 36
    for hspec, witness in (("C:3", (2, 12)), ("C:5", (0, 20))):
        rep = decide("K:2", hspec)
        params = CoronaParams.from_graphs(generate("K:2"), generate(hspec))
        assert rep.refutation_witness["witness"] == witness
        assert witness[1] in (pair_radicand(params, 0), top_radicand(params))


def test_k2_radicands_are_both_squares_only_on_the_pronic_family():
    # both K2 radicands are squares exactly when n2 = k*(k+1) and
    # r2 = n2/2, and the exact certifier refutes each such corona on parity
    found = []
    for n2 in range(1, 10_001):
        r2 = np.arange(0, n2, 1 if n2 % 2 == 0 else 2)  # n2*r2 even
        x = n2 - 2 * r2 - 1
        both = np.ones(len(r2), dtype=bool)
        for d in (x * x + 4 * n2, (x + 2) ** 2 + 4 * n2):
            root = np.rint(np.sqrt(d)).astype(np.int64)
            both &= root * root == d
        found += [(n2, int(r)) for r in r2[both]]
    assert found == [(k * (k + 1), k * (k + 1) // 2) for k in range(1, 100)]
    gdec = dec_of("K:2")
    for n2, r2 in found:
        rep = corona_pst_certify(gdec, CoronaParams(n1=2, n2=n2, r1=1, r2=r2), 0, 1)
        assert (rep.verdict, rep.basis) == (NO_PST, "parity-mismatch"), (n2, r2)


@pytest.mark.parametrize("gspec", ["K:2", "K:3"])
def test_close_top_ratio_cases_have_a_non_square_radicand(gspec):
    # wherever 0 < |gap(top) - (n1 - 1)*gap(gamma)| < 3 holds past the size
    # bound, some radicand of the support is not a square, so the
    # non-square radicand rule refutes
    n1, r1, cases = {"K:2": (2, 1, 33_525), "K:3": (3, 2, 594)}[gspec]
    support = int_supports(gspec, 0)[0]
    gamma = min(support)
    met = 0
    for n2 in range(1, 301):
        for r2 in range(n2):
            if n2 * r2 % 2:
                continue
            params = CoronaParams(n1=n1, n2=n2, r1=r1, r2=r2)
            x = params.t - params.s
            top = 2 * r1
            if n2 < abs(gamma + x) + 1 or n2 * (n1 - 1) ** 2 < abs(top + x) + 1:
                continue
            if not 0 < abs(abs(top + x) - (n1 - 1) * abs(gamma + x)) < 3:
                continue
            radicands = (pair_radicand(params, gamma), top_radicand(params))
            assert not all(map(is_perfect_square, radicands)), (n2, r2)
            assert _refutation(params, 0, 1, {0: support, 1: support})[0] == "nonperiodic-endpoint"
            met += 1
    assert met == cases


# =========================================================================
# PST certification
# =========================================================================


def test_certify_cp4():
    rep = pst_certify(dec_of("CP:4"), 0, 1)
    assert rep.verdict == PST
    assert rep.delta == 1
    assert rep.g == 2
    assert rep.tau0 == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.phase == pytest.approx(1.0, abs=1e-9)


def test_certify_cp3_parity_mismatch():
    rep = pst_certify(dec_of("CP:3"), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "parity-mismatch"


def test_certify_k2():
    rep = pst_certify(dec_of("K:2"), 0, 1)
    assert rep.verdict == PST
    assert rep.tau0 == pytest.approx(math.pi / 2, abs=1e-12)
    assert rep.phase == pytest.approx(-1.0, abs=1e-9)


def test_certify_p4_inner_pair():
    rep = pst_certify(decompose(signless_laplacian(path_graph(4))), 1, 2)
    assert rep.verdict == NO_PST
    assert rep.basis == "support-form"


def test_certify_k3_not_cospectral():
    rep = pst_certify(dec_of("K:3"), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "not-strongly-cospectral"


def test_certified_fidelity_is_one():
    for spec in ("K:2", "CP:4", "C:4"):
        dec = dec_of(spec)
        rep = pst_certify(dec, 0, 1 if spec != "C:4" else 2)
        assert rep.verdict == PST
        amp = transition_amplitude(dec, rep.u, rep.v, rep.tau0)
        assert abs(amp) ** 2 == pytest.approx(1.0, abs=1e-9)
        assert amp == pytest.approx(rep.phase, abs=1e-9)


def test_certified_endpoints_periodic_at_double_time():
    dec = dec_of("CP:4")
    rep = pst_certify(dec, 0, 1)
    for w in (0, 1):
        amp = transition_amplitude(dec, w, w, 2 * rep.tau0)
        assert abs(amp) == pytest.approx(1.0, abs=1e-9)


# =========================================================================
# PGST searches
# =========================================================================


def assert_heuristic_search(gdec, params, u, v, g, note):
    """An unmet condition gives `pgst_scan`'s result at g, with the condition as its note."""
    res = pgst_time_search(gdec, params, u, v, 1e-2, 3000)
    scan = pgst_scan(gdec, params, u, v, 1e-2, 3000, (2, 1, g))
    assert (res.basis, res.note) == ("heuristic-search", note)
    assert (res.best_l, res.time, res.fidelity) == (scan.best_l, scan.time, scan.fidelity)


def test_pgst_time_search_needs_edgeless_attachment():
    params = CoronaParams(n1=8, n2=2, r1=6, r2=1)
    note = "the guaranteed search needs an edgeless attachment graph, got degree 1"
    assert_heuristic_search(dec_of("CP:4"), params, 0, 1, 2, note)


def test_pgst_time_search_needs_base_pst():
    params = CoronaParams(n1=6, n2=1, r1=4, r2=0)
    note = "the guaranteed search needs certified base transfer, got no-PST (parity-mismatch)"
    assert_heuristic_search(dec_of("CP:3"), params, 0, 1, 1, note)


def test_pgst_time_search_rejects_rational_top_gap():
    # C4 base with two edgeless attachment vertices: top radicand 121 = 11^2
    params = CoronaParams(n1=4, n2=2, r1=2, r2=0)
    note = (
        "the top pair gap sqrt(121) = 11 is rational; the search guarantee requires "
        "an irrational top gap"
    )
    assert_heuristic_search(dec_of("C:4"), params, 0, 2, 2, note)


def test_pgst_time_search_rejects_rational_gap_below_top():
    # C4 base with one attachment vertex: theta = 0 gives the pair radicand 4
    params = CoronaParams(n1=4, n2=1, r1=2, r2=0)
    note = (
        "pair gap sqrt(4) at base eigenvalue 0 is rational; the search guarantee requires "
        "every pair gap of a base on 4 >= 3 vertices to be irrational"
    )
    assert_heuristic_search(dec_of("C:4"), params, 0, 2, 2, note)


def test_pgst_time_search_achieves_on_cp4():
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    res = pgst_time_search(dec_of("CP:4"), params, 0, 1, epsilon=0.05, l_bound=200000)
    assert res.achieved
    assert res.basis == "irrational-gap-search"
    assert res.fidelity >= 0.95
    # T_l = (4l + 1) pi for g = 2
    assert res.time == pytest.approx((4 * res.best_l + 1) * math.pi, abs=1e-6)


def test_pgst_scan_monotone_in_bound():
    gdec = dec_of("CP:4")
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    f_small = pgst_scan(gdec, params, 0, 1, 1e-9, 300, (2, 1, 2)).fidelity
    f_large = pgst_scan(gdec, params, 0, 1, 1e-9, 3000, (2, 1, 2)).fidelity
    assert f_large >= f_small - 1e-15


def test_pgst_scan_epsilon_validation():
    gdec = dec_of("CP:4")
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pgst_scan(gdec, params, 0, 1, eps, 10, (2, 1, 2))
    # epsilon = 1 is legal and trivially achieved
    assert pgst_scan(gdec, params, 0, 1, 1.0, 1, (2, 1, 2)).achieved


def test_pgst_cocktail_validation():
    for m in (2, 4, 1, 0):
        with pytest.raises(ValueError):
            pgst_cocktail(m, 0.01, 10)
    with pytest.raises(ValueError):
        pgst_cocktail(3, 0.01, 0)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_pgst_searches_reject_non_finite_epsilon(eps):
    gdec = dec_of("CP:4")
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    message = re.escape(f"epsilon must lie in (0, 1], got {eps}")
    with pytest.raises(ValueError, match=message):
        pgst_scan(gdec, params, 0, 1, eps, 10, (2, 1, 2))
    with pytest.raises(ValueError, match=message):
        pgst_cocktail(3, eps, 10)


def test_pgst_cocktail_m3_small_bound():
    res = pgst_cocktail(3, 0.01, 50)
    assert res.basis == "distinct-surd-parts"
    assert not res.achieved
    assert 0 <= res.fidelity < 0.99
    assert res.time == pytest.approx(2 * math.pi * res.best_l, abs=1e-9)


def test_pgst_cocktail_m11_square_branch():
    # 8 m^2 - 12 m + 5 = 841 = 29^2 at m = 11
    res = pgst_cocktail(11, 0.5, 3)
    assert res.basis == "rational-top-gap"


def test_pgst_cocktail_fidelity_reevaluates():
    res = pgst_cocktail(3, 0.2, 400)
    g = cocktail_party_graph(3)
    gdec = decompose(signless_laplacian(g))
    params = CoronaParams(n1=6, n2=1, r1=4, r2=0)
    amp = corona_transition_element(gdec, params, 0, 1, res.time)
    assert abs(amp) ** 2 == pytest.approx(res.fidelity, abs=1e-9)


# =========================================================================
# orchestrated verdicts on assembled coronas
# =========================================================================


def circulant(n: int, k: int):
    return graph_from_edges(n, [(i, (i + j) % n) for i in range(n) for j in range(1, k + 1)])


def test_orchestrator_c4_pendant_size_bound():
    g = cycle_graph(4)
    h = complete_graph(1)
    for u, v in [(0, 1), (0, 2), (1, 3)]:
        rep = corona_base_pst_check(g, h, u, v)
        assert rep.verdict == NO_PST
        assert rep.basis == "size-bound"


def test_orchestrator_k2_coronas():
    g = complete_graph(2)
    rep = corona_base_pst_check(g, cycle_graph(3), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "nonperiodic-endpoint"
    # both radicands are 9, a square: the certifier refutes on parity
    rep = corona_base_pst_check(g, complete_graph(2), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "parity-mismatch"
    assert rep.refutation_witness == 2.0


@pytest.mark.parametrize(
    "gspec, hspec, basis, support, witness",
    [
        ("K:3", "K:1", "size-bound", (4, 1), {"vertex": 0, "eigenvalue": 1}),
        (
            "K:2",
            "K:4",
            "nonperiodic-endpoint",
            (2, 0),
            {"vertex": 0, "rule": "non-square-top-gap", "witness": (2, 17)},
        ),
        (
            "K:2",
            "K:3",
            "nonperiodic-endpoint",
            (2, 0),
            {"vertex": 0, "rule": "non-square-top-gap", "witness": (2, 12)},
        ),
        (
            "K:3",
            "K:2",
            "nonperiodic-endpoint",
            (4, 1),
            {"vertex": 0, "rule": "non-square-top-gap", "witness": (4, 48)},
        ),
        (
            "K:3",
            "CP:3",
            "nonperiodic-endpoint",
            (4, 1),
            {"vertex": 0, "rule": "non-square-pair-gap", "witness": (1, 33)},
        ),
        (
            "K:3",
            "C8(1,2)",
            "nonperiodic-endpoint",
            (4, 1),
            {"vertex": 0, "rule": "non-square-top-gap", "witness": (4, 228)},
        ),
    ],
)
def test_orchestrator_refutation_exits(gspec, hspec, basis, support, witness):
    # the size bound, then non-square radicands: on K2 with an even and an
    # odd prime attachment order, on K3 at the top and below it;
    # C8(1,2) is the circulant joining each vertex to the two on either side
    h = circulant(8, 2) if hspec == "C8(1,2)" else generate(hspec)
    rep = corona_base_pst_check(generate(gspec), h, 0, 1)
    assert (rep.verdict, rep.basis) == (NO_PST, basis)
    assert rep.support == tuple(QuadExt.from_int(k) for k in support)
    assert rep.refutation_witness == witness


def test_every_public_name_resolves():
    missing = [name for name in qwcorona.__all__ if not hasattr(qwcorona, name)]
    assert missing == []


def test_orchestrator_k3_c4_reaches_certifier():
    # both endpoints periodic, so the closed-form certifier runs; the pair
    # still fails strong cospectrality
    rep = corona_base_pst_check(complete_graph(3), cycle_graph(4), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "not-strongly-cospectral"


def test_orchestrator_validates_vertices():
    g = cycle_graph(4)
    h = complete_graph(1)
    with pytest.raises(ValueError):
        corona_base_pst_check(g, h, 0, 0)
    with pytest.raises(ValueError):
        corona_base_pst_check(g, h, 0, 4)


def test_refuted_pairs_stay_below_threshold():
    # spot numeric soundness: a refuted pair never approaches fidelity 1
    g = cycle_graph(4)
    h = complete_graph(1)
    rep = corona_base_pst_check(g, h, 0, 2)
    assert rep.verdict == NO_PST
    cdec = decompose(corona_full_q(g, h))
    scan = fidelity_scan(cdec, 0, 2, 50.0, 2000)
    assert scan.best_fidelity < 1 - 1e-6
