"""Tests for the exact-phase PGST scan and for the golden-section refinement."""
from __future__ import annotations

import math
import random
import re
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import qwcorona.state_transfer as st
from qwcorona import cli
from qwcorona.corona_spectra import CoronaParams, pair_radicand, top_radicand
from qwcorona.graphs import generate, signless_laplacian
from qwcorona.spectra import (
    _bounded_golden,
    _golden,
    decompose,
    fidelity_scan,
    transition_amplitude,
)
from qwcorona.state_transfer import (
    PST,
    PGSTSearchResult,
    _phase_rows,
    _turn_pair,
    pgst_cocktail,
    pgst_scan,
    pgst_time_search,
    pst_certify,
)
from oracle import corona_full_q, corona_transition_element, exact_grid_fidelities


def corona_of(base: str, att: str):
    g, h = generate(base), generate(att)
    return g, h, decompose(signless_laplacian(g)), CoronaParams.from_graphs(g, h)


def fidelity_at(gdec, params, u, v, l, g):
    """Scan fidelity at the single grid time T_l, with the float time."""
    res = pgst_scan(gdec, params, u, v, 1e-300, l, (2, 1, g), l_start=l)
    return res.time, res.fidelity


# =========================================================================
# the 15 benchmark searches at l_bound = 10^6, as the float-time scan
# found them: (base, attachment order, epsilon, u, v, best_l, achieved, time,
# fidelity)
# =========================================================================

PINNED = (
    ("K:2", 5, 1e-4, 0, 1, 82, True, 1033.583983031042, 0.999906640988907),
    ("HQ:4", 2, 1e-2, 0, 15, 268699, True, 3376574.359300349, 0.9901287544722635),
    ("CP:2", 4, 1e-4, 0, 1, 256361, False, 3221530.4786603856, 0.9997425961010598),
    ("CP:2", 6, 1e-4, 0, 1, 24082, False, 302626.4787276512, 0.9998731138372389),
    ("CP:4", 1, 1e-4, 0, 1, 732274, False, 9202029.616851902, 0.9998449676879338),
    ("CP:4", 8, 1e-4, 0, 1, 672431, True, 8450020.300176807, 0.9999297669089536),
    ("CP:6", 1, 1e-4, 0, 1, 783719, True, 9848506.55310761, 0.9999747699356256),
    ("CP:6", 2, 1e-4, 0, 1, 770961, True, 9688184.796809616, 0.9999502234141422),
    ("CP:6", 4, 1e-4, 0, 1, 548974, True, 6898613.883239866, 0.9999377058274731),
    ("CP:8", 3, 1e-4, 0, 1, 410784, True, 5162067.128041572, 0.9999993714826265),
    ("HQ:3", 3, 1e-4, 0, 7, 847454, False, 10649424.184213791, 0.9984154223162462),
    ("HQ:3", 6, 1e-3, 0, 7, 548146, True, 6888208.928371176, 0.9992451169178875),
    ("HQ:4", 7, 1e-3, 0, 15, 335150, True, 4211622.252995131, 0.9996291020004666),
    ("cocktail", 5, 1e-4, 0, 1, 990694, False, 6224713.984710973, 0.9998701725334691),
    ("cocktail", 9, 1e-4, 0, 1, 808791, False, 5081783.727779085, 0.9998711651852733),
)


@pytest.mark.parametrize("case", PINNED, ids=lambda c: f"{c[0]}~{c[1]}")
def test_pinned_searches_unchanged(case):
    base, n2, eps, u, v, best_l, achieved, time, fidelity = case
    if base == "cocktail":
        res = pgst_cocktail(n2, eps, 10**6)
    else:
        _, _, gdec, params = corona_of(base, f"empty:{n2}")
        res = pgst_time_search(gdec, params, u, v, eps, 10**6)
    assert (res.best_l, res.achieved, res.time) == (best_l, achieved, time)
    assert res.fidelity == pytest.approx(fidelity, abs=1e-14)


# =========================================================================
# accuracy at the exact grid times
# =========================================================================


@pytest.mark.parametrize(
    "base,att,u,v", [("CP:4", "empty:1", 0, 1), ("HQ:3", "empty:3", 0, 7)]
)
def test_fidelity_matches_mpmath_at_exact_grid_times(base, att, u, v):
    g, h, gdec, params = corona_of(base, att)
    cert = pst_certify(gdec, u, v)
    assert cert.verdict == PST and cert.g == 2
    with mpmath.workdps(40):
        evals, evecs = mpmath.eigsy(mpmath.matrix(corona_full_q(g, h).tolist()))
        weights = [evecs[u, k] * evecs[v, k] for k in range(len(evals))]
        for l in (1, 10**6, 10**9, 10**12):
            t_exact = (4 * l + mpmath.mpf(2) / cert.g) * mpmath.pi
            amp = mpmath.fsum(w * mpmath.expj(-t_exact * lam) for lam, w in zip(evals, weights))
            time, fid = fidelity_at(gdec, params, u, v, l, cert.g)
            assert time == (4.0 * l + 2.0 / cert.g) * math.pi
            assert abs(fid - float(abs(amp) ** 2)) <= 1e-12, l


SINGLE_TIMES = tuple((l, l) for l in [*range(40), 997, 4096, 8191, 8192, 8193])
SEAM_WINDOWS = ((255, 257), (511, 513), (32767, 32769), (32400, 33200), (0, 513), (0, 33200))


@pytest.mark.parametrize(
    "base,att,u,v,grid,windows",
    [
        pytest.param("CP:4", "empty:1", 0, 1, (2, 1, 2), SINGLE_TIMES, id="CP:4-empty:1-0-1-2"),
        pytest.param("K:2", "K:2", 0, 1, (2, 1, 1), SINGLE_TIMES, id="K:2-K:2-0-1-1"),
        pytest.param("HQ:3", "K:1", 0, 7, (2, 1, 2), SINGLE_TIMES, id="HQ:3-K:1-0-7-2"),
        # non-integral base: what the CLI's heuristic fallback scans
        pytest.param("C:5", "K:1", 0, 1, (2, 1, 1), SINGLE_TIMES, id="C:5-K:1-0-1-1"),
        pytest.param("C:5", "K:1", 0, 2, (2, 1, 1), SINGLE_TIMES, id="C:5-K:1-0-2-1"),
        pytest.param("C:7", "empty:2", 0, 3, (2, 1, 1), SINGLE_TIMES, id="C:7-empty:2-0-3-1"),
        # the cocktail grid T_l = 2*pi*l, where step * p / q is odd
        pytest.param("CP:3", "K:1", 0, 1, (1, 0, 1), SINGLE_TIMES + ((1, 300),),
                     id="CP:3-K:1-0-1-cocktail-grid"),
        # windows of up to 8,301 l across block edges, reading table entries
        # k > 0 on a base with integral and float rows
        pytest.param("C:5", "K:1", 0, 1, (2, 1, 1), ((8000, 8400), (100, 8400), (8191, 8193)),
                     id="C:5-K:1-0-1-windows"),
        # windows around the offset table's edges (l = 256, 512 from 0) and
        # the chunk restart (l = 32768 from 0), and ones from 0 that cross
        # them, on float rows and on integral rows
        pytest.param("C:5", "K:1", 0, 1, (2, 1, 1), SEAM_WINDOWS, id="C:5-K:1-0-1-seams"),
        pytest.param("CP:4", "empty:1", 0, 1, (2, 1, 2), SEAM_WINDOWS,
                     id="CP:4-empty:1-0-1-2-seams"),
    ],
)
def test_scan_matches_transition_element(base, att, u, v, grid, windows):
    step, b, c = grid
    _, _, gdec, params = corona_of(base, att)
    for lo, hi in windows:
        oracle = exact_grid_fidelities(gdec, params, u, v, grid, lo, hi)
        res = pgst_scan(gdec, params, u, v, 1e-300, hi, grid, l_start=lo)
        assert res.best_l == lo + int(np.argmax(oracle)), (lo, hi)
        assert res.time == (2.0 * step * res.best_l + 2.0 * b / c) * math.pi
        assert res.fidelity == pytest.approx(oracle.max(), abs=1e-12), (lo, hi)
        # the tables stay within 2k units of 2^-64 turns of the exact phases
        # that a scan starting at best_l reads
        alone = pgst_scan(gdec, params, u, v, 1e-300, res.best_l, grid, l_start=res.best_l)
        assert res.fidelity == pytest.approx(alone.fidelity, abs=1e-13), (lo, hi)


def test_scan_keeps_the_first_hit_and_the_smaller_l_on_ties():
    _, _, gdec, params = corona_of("C:5", "K:1")
    l_bound = 9000  # two chunks
    oracle = exact_grid_fidelities(gdec, params, 0, 1, (2, 1, 1), 0, l_bound)
    res = pgst_scan(gdec, params, 0, 1, 1e-9, l_bound, (2, 1, 1))
    assert not res.achieved
    assert res.best_l == int(np.argmax(oracle))
    assert res.fidelity == pytest.approx(oracle[res.best_l], abs=1e-10)
    # a threshold below the maximum stops at the first l reaching it
    eps = 1.0 - float(np.sort(oracle)[-5])
    res = pgst_scan(gdec, params, 0, 1, eps, l_bound, (2, 1, 1))
    assert res.achieved
    assert res.best_l == int(np.flatnonzero(oracle >= 1.0 - eps - 1e-12)[0])
    # a start inside the range scans only what follows it
    res = pgst_scan(gdec, params, 0, 1, 1e-9, l_bound, (2, 1, 1), l_start=5000)
    assert res.best_l == 5000 + int(np.argmax(oracle[5000:]))


def test_scan_rejects_a_negative_start():
    _, _, gdec, params = corona_of("CP:4", "empty:1")
    with pytest.raises(ValueError, match="non-negative"):
        pgst_scan(gdec, params, 0, 1, 0.01, 10, (2, 1, 2), l_start=-1)


@pytest.mark.parametrize("grid", [
    pytest.param((2, 1, 0), id="0"),  # (2, 1, g) is (4l + 2/g)*pi: g = 0 divides by zero
    pytest.param((2, 1, -1), id="-1"),  # and g = -1 would scan (4l - 2)*pi
    pytest.param((0, 1, 1), id="step-0"),
    pytest.param((2, -1, 1), id="offset--1"),
    pytest.param((2, 2, 4), id="unreduced-2-4"),
])
def test_scan_rejects_a_grid_parameter_below_one(grid):
    _, _, gdec, params = corona_of("CP:2", "empty:3")
    message = re.escape(f"grid (step, b, c) needs step, c >= 1 and b/c >= 0 reduced, got {grid}")
    with pytest.raises(ValueError, match=message):
        pgst_scan(gdec, params, 0, 1, 0.01, 10, grid)


def test_every_search_returns_a_result_with_its_basis(monkeypatch):
    _, _, gdec, params = corona_of("CP:4", "empty:1")
    scan = pgst_scan(gdec, params, 0, 1, 1e-2, 50, (2, 1, 2))
    assert isinstance(scan, PGSTSearchResult)
    assert (scan.u, scan.v, scan.target_epsilon, scan.l_bound) == (0, 1, 1e-2, 50)
    assert scan.basis == "heuristic-search"
    guaranteed = pgst_time_search(gdec, params, 0, 1, 1e-2, 50)
    assert guaranteed == replace(scan, basis="irrational-gap-search")
    for m, basis in ((3, "distinct-surd-parts"), (11, "rational-top-gap")):
        res = pgst_cocktail(m, 1e-2, 50)
        assert isinstance(res, PGSTSearchResult)
        assert (res.u, res.v, res.target_epsilon, res.l_bound, res.basis) == (0, 1, 1e-2, 50, basis)
    # no odd m below 400 has equal square-free parts; force them equal by
    # reading the product of the two radicands alone as a square
    params = CoronaParams(n1=6, n2=1, r1=4, r2=0)
    product = top_radicand(params) * pair_radicand(params, 4)
    monkeypatch.setattr(st, "is_perfect_square", lambda n: n == product)
    res = pgst_cocktail(3, 1e-2, 50)
    assert res == PGSTSearchResult(0, 1, 1e-2, 50, False, "hypotheses-not-met")


def _grid_ls(seed):
    rng = random.Random(seed)
    return list(range(70)) + [10**k + d for k in range(2, 13) for d in (-1, 0, 1)] + [
        rng.randrange(10**12) for _ in range(100)
    ]


@pytest.mark.parametrize("g", range(1, 9))
def test_scan_times_equal_the_closed_expression(g):
    _, _, gdec, params = corona_of("CP:4", "empty:1")
    for l in _grid_ls(g):
        res = pgst_scan(gdec, params, 0, 1, 1e-300, l, (2, 1, g), l_start=l)
        assert res.time.hex() == ((4.0 * l + 2.0 / g) * math.pi).hex(), l


def test_cocktail_grid_times_equal_the_closed_expression():
    _, _, gdec, params = corona_of("CP:3", "K:1")
    for l in _grid_ls(0):
        res = pgst_scan(gdec, params, 0, 1, 1e-300, l, (1, 0, 1), l_start=l)
        assert res.time.hex() == (2.0 * math.pi * l).hex(), l


def _reference_turns(p, q, d, sign, n, m):
    """One member's exact turns by the per-member formula, the reference for `_turn_pair`."""
    root = math.isqrt(n * n * d << 128)
    return (((n * p) << 64) + sign * root) // (m * q) % (1 << 64)


def _assert_turn_pairs_match_reference(rows, n, m):
    for row in rows:
        _, _, p, q, d = row
        plus, minus = _turn_pair(row, n, m)
        assert plus == _reference_turns(p, q, d, 1, n, m), (row, n, m)
        assert minus == _reference_turns(p, q, d, -1, n, m), (row, n, m)


@pytest.mark.parametrize("g", range(1, 9))
def test_turn_pairs_equal_the_per_member_formula(g):
    # pgst_scan's grid (4l + 2/g)*pi: the table's step n = 2, m = 1, and each
    # chunk's n = 2*g*l + 1, m = g
    _, _, gdec, params = corona_of("CP:4", "empty:1")
    rows = _phase_rows(gdec, params, 0, 1)
    assert all(q == 2 and d > 0 for *_, q, d in rows)
    _assert_turn_pairs_match_reference(rows, 2, 1)
    for l in _grid_ls(g):
        _assert_turn_pairs_match_reference(rows, 2 * g * l + 1, g)


def test_cocktail_turn_pairs_equal_the_per_member_formula():
    _, _, gdec, params = corona_of("CP:3", "K:1")
    rows = _phase_rows(gdec, params, 0, 1)
    # step * p / q is odd on this grid, never on pgst_scan's step-2 grid
    assert any(p // q % 2 for _, _, p, q, _ in rows)
    for l in _grid_ls(0):
        _assert_turn_pairs_match_reference(rows, l, 1)


def test_float_rows_carry_one_member_each():
    _, _, gdec, params = corona_of("C:5", "K:1")
    rows = _phase_rows(gdec, params, 0, 1)
    floats = [row for row in rows if row[4] == 0]
    assert len(rows) - len(floats) == 1  # the top pair
    assert len(floats) == 2 * (len(gdec.eigenvalues) - 1)
    assert all(row[1] == 0.0 for row in floats)
    for l in _grid_ls(1):
        _assert_turn_pairs_match_reference(rows, 2 * l + 1, 1)


def test_full_scan_memory_stays_below_one_mib():
    # a chunk's fidelities fill a 2 * 128 x 256 buffer, 512 KiB; the tables
    # hold 2 * 5 x 256 floats and 128 x 5 complex rotations
    _, _, gdec, params = corona_of("HQ:4", "empty:7")
    pgst_scan(gdec, params, 0, 15, 1e-300, 10, (2, 1, 2))
    tracemalloc.start()
    try:
        res = pgst_scan(gdec, params, 0, 15, 1e-300, 10**6, (2, 1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not res.achieved
    assert peak < 2**20, peak


def test_one_point_scan_sizes_its_tables_to_the_range():
    _, _, gdec, params = corona_of("HQ:4", "empty:7")
    pgst_scan(gdec, params, 0, 15, 1e-300, 10, (2, 1, 2))
    tracemalloc.start()
    try:
        res = pgst_scan(gdec, params, 0, 15, 1e-300, 10**6, (2, 1, 2), l_start=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.best_l == 10**6
    assert peak < 16 * 2**10, peak


def test_search_to_ten_million_keeps_its_answer():
    # the first eps = 1e-3 hit on this pair lies beyond l = 10^7; any faster
    # search must return this (best_l, achieved) for l <= 10^7
    _, _, gdec, params = corona_of("HQ:4", "empty:2")
    res = pgst_time_search(gdec, params, 0, 15, 1e-3, 10**7)
    assert (res.best_l, res.achieved) == (3225118, False)
    assert res.fidelity == pytest.approx(0.996772355189, abs=1e-12)


@pytest.mark.parametrize("search", ["scan", "time-search"])
@pytest.mark.parametrize("u,v", [(-8, -7), (0, -1), (0, 8), (8, 0), (1, 1)])
def test_searches_reject_pairs_that_are_not_two_base_vertices(search, u, v):
    # CP:4 has n1 = 8; a negative index would wrap to a real vertex
    _, _, gdec, params = corona_of("CP:4", "empty:1")
    with pytest.raises(ValueError, match="^need two distinct base vertices below 8$"):
        if search == "scan":
            pgst_scan(gdec, params, u, v, 1e-2, 100, (2, 1, 2))
        else:
            pgst_time_search(gdec, params, u, v, 1e-2, 100)


def test_cocktail_grid_matches_transition_element():
    m, l_bound = 5, 300
    res = pgst_cocktail(m, 1e-9, l_bound)
    _, _, gdec, params = corona_of(f"CP:{m}", "K:1")
    oracle = [abs(corona_transition_element(gdec, params, 0, 1, 2.0 * math.pi * l)) ** 2
              for l in range(1, l_bound + 1)]
    assert res.best_l == 1 + int(np.argmax(oracle))
    assert res.time == 2.0 * math.pi * res.best_l
    assert res.fidelity == pytest.approx(max(oracle), abs=1e-10)


# =========================================================================
# K2 base with an edgeless attachment: the theta = 0 gap n2 + 1
# =========================================================================


def test_k2_even_attachment_is_not_guaranteed():
    _, _, gdec, params = corona_of("K:2", "empty:2")
    res = pgst_time_search(gdec, params, 0, 1, 1e-2, 100)
    scan = pgst_scan(gdec, params, 0, 1, 1e-2, 100, (2, 1, 2))
    assert (res.basis, res.note) == (
        "heuristic-search",
        "pair gap 3 at base eigenvalue 0 is not a multiple of g = 2; "
        "the search guarantee on a two-vertex base requires it",
    )
    assert (res.best_l, res.time, res.fidelity) == (scan.best_l, scan.time, scan.fidelity)


def test_k2_odd_attachment_stays_guaranteed():
    _, _, gdec, params = corona_of("K:2", "empty:5")
    res = pgst_time_search(gdec, params, 0, 1, 1e-4, 10**6)
    assert res.basis == "irrational-gap-search"
    assert (res.best_l, res.achieved) == (82, True)


@pytest.mark.parametrize("argv", [
    ["corona(K:2,K:2)", "0", "1"],
    ["corona(K:3,empty:1)", "0", "1"],
    ["corona(C:4,empty:2)", "0", "2"],
    ["corona(C:4,empty:1)", "0", "2"],
    ["corona(K:2,empty:2)", "0", "1"],
    ["corona(CP:4,empty:1)", "0", "1"],
])
def test_cli_search_certifies_the_base_pair_once(argv, monkeypatch, capsys):
    calls = []

    def counted(*args):
        calls.append(args)
        return pst_certify(*args)

    monkeypatch.setattr(st, "pst_certify", counted)
    monkeypatch.setattr(cli, "pst_certify", counted)
    assert cli.main(["search-pgst", *argv, "--l-bound", "100"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("u,v", [("0", "0"), ("base:3", "3")])
def test_cli_search_rejects_equal_base_vertices_before_decomposing(u, v, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "decompose", lambda *args: calls.append(args))
    assert cli.main(["search-pgst", "corona(CP:4,empty:1)", u, v]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: strong cospectrality needs two distinct vertices\n")
    assert calls == []


def test_cli_k2_even_attachment_falls_back(capsys):
    code = cli.main(["search-pgst", "corona(K:2,empty:2)", "0", "1", "--l-bound", "200"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"mode": "heuristic"' in out
    assert '"basis": "heuristic-search"' in out
    assert "not a multiple of g = 2" in out


# =========================================================================
# golden-section refinement without scipy at run time
# =========================================================================


def _seeded_brackets(seed: int, count: int):
    """(function, bracket) pairs from fidelity grids of small graphs."""
    rng = random.Random(seed)
    specs = ["K:3", "C:5", "C:7", "CP:3", "HQ:3", "corona(C:4,K:1)", "corona(CP:3,K:1)"]
    out = []
    while len(out) < count:
        spec = rng.choice(specs)
        graph = cli.parse_spec(spec).graph
        dec = decompose(signless_laplacian(graph))
        u, v = rng.sample(range(graph.n), 2)
        t_max, steps = rng.uniform(1.0, 30.0), rng.randrange(4, 300)
        taus = t_max * np.arange(1, steps + 1) / steps
        fids = np.abs(transition_amplitude(dec, u, v, taus)) ** 2
        k = rng.randrange(1, steps - 1) if rng.random() < 0.3 else int(np.argmax(fids[:-1]))
        k = max(k, 1)

        def neg_fid(t, dec=dec, u=u, v=v):
            return -abs(transition_amplitude(dec, u, v, float(t))) ** 2

        out.append((neg_fid, (float(taus[k - 1]), float(taus[k]), float(taus[k + 1])),
                    (dec, u, v, t_max, steps)))
    return out


def test_golden_port_matches_scipy():
    valid = 0
    for func, bracket, _ in _seeded_brackets(seed=11, count=80):
        try:
            want = minimize_scalar(func, bracket=bracket, method="golden")
        except ValueError:
            with pytest.raises(ValueError):
                _golden(func, *bracket)
            continue
        valid += 1
        x, fx = _golden(func, *bracket)
        assert (x, fx) == (float(want.x), float(want.fun))
    assert valid >= 30


def test_fidelity_scan_matches_scipy_where_bracketed():
    compared = 0
    for _, _, (dec, u, v, t_max, steps) in _seeded_brackets(seed=23, count=60):
        scan = fidelity_scan(dec, u, v, t_max, steps)
        fids = scan.fidelities
        best = int(np.argmax(fids))
        grid_best = float(fids[best])
        assert scan.best_fidelity >= grid_best
        if not 0 < best < steps - 1:
            continue
        taus = scan.taus

        def neg_fid(t):
            return -abs(transition_amplitude(dec, u, v, float(t))) ** 2

        try:
            res = minimize_scalar(
                neg_fid, bracket=(float(taus[best - 1]), float(taus[best]), float(taus[best + 1])),
                method="golden",
            )
        except ValueError:
            continue
        compared += 1
        want_tau, want_fid = float(taus[best]), grid_best
        if taus[best - 1] < res.x <= t_max and -res.fun > grid_best:
            want_tau, want_fid = float(res.x), float(-res.fun)
        assert (scan.best_tau, scan.best_fidelity) == (want_tau, want_fid)
    assert compared >= 20


def test_bounded_golden_finds_an_interior_minimum():
    x, fx = _bounded_golden(lambda t: (t - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx <= 1e-14
    # an end minimum is approached from inside
    x, _ = _bounded_golden(lambda t: t, 2.0, 3.0)
    assert 2.0 < x < 2.0 + 1e-6


def test_refinement_never_below_grid_at_the_grid_end():
    # K2 fidelity sin^2(tau) rises up to the last grid point 1.5 < pi/2,
    # so the bracket is invalid and the bounded search runs
    dec = decompose(signless_laplacian(generate("K:2")))
    scan = fidelity_scan(dec, 0, 1, 1.5, 3)
    assert scan.best_fidelity >= float(scan.fidelities[-1])
    assert scan.best_tau <= 1.5


# =========================================================================
# the command line parser is built once
# =========================================================================


def test_cli_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    outs = []
    for argv in (
        ["spectrum", "K:3", "--projectors"],
        ["spectrum", "K:3"],
        ["search-pgst", "cocktail-corona:3", "--l-bound", "21"],
        ["search-pgst", "cocktail-corona:3", "--epsilon", "0.5"],
    ):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert len(built) == 1
    # nothing set by one call is seen by the next
    assert '"projectors"' in outs[0] and '"projectors"' not in outs[1]
    assert '"l_bound": 21,' in outs[2] and '"l_bound": 1000000,' in outs[3]
