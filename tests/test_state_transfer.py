"""Tests for periodicity decisions, transfer refutations, and searches."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from qwcorona.algebraic import QuadExt
from qwcorona.corona_spectra import CoronaParams, corona_full_q, corona_transition_element
from qwcorona.graphs import (
    cocktail_party_graph,
    complete_graph,
    cycle_graph,
    generate,
    path_graph,
    signless_laplacian,
)
from qwcorona.spectra import decompose, eigenvalue_support, fidelity_scan, transition_amplitude
from qwcorona.state_transfer import (
    NO_PST,
    PST,
    UNDECIDED,
    corona_base_periodicity,
    corona_base_pst_check,
    k2_corona_no_pst,
    periodicity_size_bound,
    pgst_cocktail,
    pgst_scan,
    pgst_time_search,
    pst_certify,
    support_gap_refutation,
)


def dec_of(spec: str):
    return decompose(signless_laplacian(generate(spec)))


# =========================================================================
# corona base periodicity
# =========================================================================


def test_corona_base_c4_pendant_not_periodic():
    params = CoronaParams(n1=4, n2=1, r1=2, r2=0)
    rep = corona_base_periodicity(params, [4, 2, 0])
    assert not rep.periodic


def test_corona_base_k2_pendant_not_periodic():
    params = CoronaParams(n1=2, n2=1, r1=1, r2=0)
    rep = corona_base_periodicity(params, [2, 0])
    assert not rep.periodic
    assert rep.case == "refuted"


def test_corona_base_positive_integer_instance():
    # K3 with C4 attachments: radicands 25 and 100 are perfect squares
    params = CoronaParams(n1=3, n2=4, r1=2, r2=2)
    rep = corona_base_periodicity(params, [4, 1])
    assert rep.periodic
    assert rep.case == "integer-case"


def test_corona_base_quadratic_positive_instance():
    # s = 2*r1 + t with a singleton support and square-free n2
    params = CoronaParams(n1=2, n2=3, r1=0, r2=1)
    assert params.s == 2 * params.r1 + params.t
    rep = corona_base_periodicity(params, [0])
    assert rep.periodic
    assert rep.case == "quadratic-case"
    assert rep.delta == 3
    assert params.n2 % rep.delta == 0


def test_corona_base_quadratic_refuted_with_extra_support():
    params = CoronaParams(n1=2, n2=3, r1=0, r2=1)
    rep = corona_base_periodicity(params, [0, 2])
    assert not rep.periodic
    assert rep.basis == "surd-multiple-violation"


def test_corona_base_square_n2_routes_to_integer_case():
    # s = 2*r1 + t but n2 = 9 is a perfect square, so delta collapses to 1
    params = CoronaParams(n1=2, n2=9, r1=0, r2=4)
    assert params.s == 2 * params.r1 + params.t
    rep = corona_base_periodicity(params, [0])
    assert rep.periodic
    assert rep.case == "integer-case"


def test_corona_base_float_support_falls_back():
    params = CoronaParams(n1=4, n2=1, r1=2, r2=0)
    rep = corona_base_periodicity(params, [4.0, 2.0 + 1e-3, 0.0])
    assert rep.case in ("refuted", UNDECIDED)


@pytest.mark.parametrize("n, theta", [(5, (3 + math.sqrt(5)) / 2), (8, 2 + math.sqrt(2))])
def test_corona_base_non_integral_support_refuted(n, theta):
    # C:n~oK:1 has s = n - 1 and t = n - 1, so s != 2*r1 + t = n + 3
    params = CoronaParams(n1=n, n2=1, r1=2, r2=0)
    support = eigenvalue_support(dec_of(f"C:{n}"), 0)
    rep = corona_base_periodicity(params, support, vertex=0)
    assert (rep.periodic, rep.case, rep.basis) == (False, "refuted", "non-integral-base-eigenvalue")
    assert rep.witness == pytest.approx(theta, abs=1e-9)


def test_corona_base_balanced_non_integral_support_rejected():
    # K2 with K:3 has s = 2*r1 + t = 5; K2's spectrum {2, 0} is integral
    params = CoronaParams(n1=2, n2=3, r1=1, r2=2)
    assert params.s == 2 * params.r1 + params.t
    with pytest.raises(ValueError, match="integral spectrum"):
        corona_base_periodicity(params, [2, 0.5])


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


# =========================================================================
# size bound
# =========================================================================


def test_size_bound_violated_for_c4():
    params = CoronaParams(n1=4, n2=1, r1=2, r2=0)
    holds, witness = periodicity_size_bound(params, [4, 2, 0])
    assert not holds
    assert witness == 2


def test_size_bound_top_violation_for_k2_pendant():
    # with r2 = 0 the top inequality n2*(n1-1)^2 >= |2*r1 - s + t| + 1 fails
    params = CoronaParams(n1=2, n2=1, r1=1, r2=0)
    holds, witness = periodicity_size_bound(params, [2, 0])
    assert not holds
    assert witness == 2


def test_size_bound_holds_for_k2_cycle_attachments():
    # r2 >= 1 shrinks the top gap enough for K2 bases
    for n2, r2 in [(3, 2), (5, 2), (4, 1)]:
        params = CoronaParams(n1=2, n2=n2, r1=1, r2=r2)
        holds, witness = periodicity_size_bound(params, [2, 0])
        assert holds and witness is None


def test_size_bound_needs_integers():
    params = CoronaParams(n1=4, n2=1, r1=2, r2=0)
    with pytest.raises(ValueError):
        periodicity_size_bound(params, [4.0, 2.5, 0.0])


# =========================================================================
# gap refutations
# =========================================================================


def test_gap_refutation_cube():
    # Q-spectrum of the 3-cube is {6,4,2,0}; consecutive gaps of two fire
    params = CoronaParams(n1=8, n2=1, r1=3, r2=0)
    fired, which, witness = support_gap_refutation(params, [6, 4, 2, 0])
    assert fired
    assert which == "close-gap-pair"


def test_gap_refutation_halved_cube():
    # halved 4-cube spectrum {12,6,4}
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    fired, which, _ = support_gap_refutation(params, [12, 6, 4])
    assert fired


def test_gap_refutation_singleton_vacuous():
    params = CoronaParams(n1=3, n2=4, r1=2, r2=2)
    fired, _, _ = support_gap_refutation(params, [4])
    assert not fired


def test_gap_refutation_passes_k3_c4():
    params = CoronaParams(n1=3, n2=4, r1=2, r2=2)
    fired, _, _ = support_gap_refutation(params, [4, 1])
    assert not fired


# =========================================================================
# K2 corona rule
# =========================================================================


def test_k2_rule_n2_one():
    v = k2_corona_no_pst(1, 0)
    assert v.verdict == NO_PST
    assert v.basis == "prime-order-rule"
    assert v.provenance == "derived"


def test_k2_rule_odd_primes():
    for n2, r2 in [(3, 0), (3, 2), (5, 0), (5, 2), (7, 0)]:
        v = k2_corona_no_pst(n2, r2)
        assert v.verdict == NO_PST
        assert v.basis == "prime-order-rule"


def test_k2_rule_even():
    for n2, r2 in [(2, 0), (2, 1), (4, 0), (6, 3)]:
        v = k2_corona_no_pst(n2, r2)
        assert v.verdict == NO_PST
        assert v.basis == "even-order-rule"
        assert v.provenance == "external-literature"


def test_k2_rule_odd_composite_undecided():
    for n2 in (9, 15, 21):
        v = k2_corona_no_pst(n2, 0)
        assert v.verdict == "undecided"


def test_k2_rule_witness_radicands():
    # for n2 = 1, r2 = 0: x = 0, radicands 4 (square) and 8 (not)
    v = k2_corona_no_pst(1, 0)
    assert v.witness == 8


def test_k2_rule_validation():
    with pytest.raises(ValueError):
        k2_corona_no_pst(0, 0)
    with pytest.raises(ValueError):
        k2_corona_no_pst(3, 3)


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


def test_pgst_time_search_needs_edgeless_attachment():
    params = CoronaParams(n1=8, n2=2, r1=6, r2=1)
    with pytest.raises(ValueError, match="edgeless"):
        pgst_time_search(dec_of("CP:4"), params, 0, 1)


def test_pgst_time_search_needs_base_pst():
    params = CoronaParams(n1=6, n2=1, r1=4, r2=0)
    with pytest.raises(ValueError, match="certified base transfer"):
        pgst_time_search(dec_of("CP:3"), params, 0, 1)


def test_pgst_time_search_rejects_rational_top_gap():
    # C4 base with two edgeless attachment vertices: top radicand 121 = 11^2
    params = CoronaParams(n1=4, n2=2, r1=2, r2=0)
    with pytest.raises(ValueError, match="rational"):
        pgst_time_search(dec_of("C:4"), params, 0, 2)


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
    f_small = pgst_scan(gdec, params, 0, 1, 1e-9, 300, 2).fidelity
    f_large = pgst_scan(gdec, params, 0, 1, 1e-9, 3000, 2).fidelity
    assert f_large >= f_small - 1e-15


def test_pgst_scan_epsilon_validation():
    gdec = dec_of("CP:4")
    params = CoronaParams(n1=8, n2=1, r1=6, r2=0)
    for eps in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            pgst_scan(gdec, params, 0, 1, eps, 10, 2)
    # epsilon = 1 is legal and trivially achieved
    assert pgst_scan(gdec, params, 0, 1, 1.0, 1, 2).achieved


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
        pgst_scan(gdec, params, 0, 1, eps, 10, 2)
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
    assert rep.basis == "prime-order-rule"
    rep = corona_base_pst_check(g, complete_graph(2), 0, 1)
    assert rep.verdict == NO_PST
    assert rep.basis == "even-order-rule"


@pytest.mark.parametrize(
    "gspec, hspec, basis, support, witness",
    [
        ("K:3", "K:1", "size-bound", (4, 1), {"vertex": 0, "eigenvalue": 1}),
        (
            "K:2",
            "K:2",
            "even-order-rule",
            (2, 0),
            {"provenance": "external-literature", "witness": None},
        ),
        ("K:2", "K:3", "prime-order-rule", (2, 0), {"provenance": "derived", "witness": 12}),
        ("K:3", "K:2", "close-top-ratio", (4, 1), {"vertex": 0, "witness": 1}),
        (
            "K:3",
            "CP:3",
            "nonperiodic-endpoint",
            (4, 1),
            {"vertex": 0, "rule": "non-square-pair-gap", "witness": (1, 33)},
        ),
    ],
)
def test_orchestrator_refutation_exits(gspec, hspec, basis, support, witness):
    # one case per refutation the orchestrator can return, in rule order
    rep = corona_base_pst_check(generate(gspec), generate(hspec), 0, 1)
    assert (rep.verdict, rep.basis) == (NO_PST, basis)
    assert rep.support == tuple(QuadExt.from_int(k) for k in support)
    assert rep.refutation_witness == witness


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
