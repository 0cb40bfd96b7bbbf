"""Tests for exact quadratic-integer arithmetic and support classification."""
from __future__ import annotations

import math
import random
from functools import lru_cache

import numpy as np
import pytest

from qwcorona.algebraic import (
    AmbiguousMatchError,
    InvalidSupportError,
    QuadExt,
    as_exact,
    classify_support,
    common_half_form,
    is_perfect_square,
    recognize_quadext,
    square_free_part,
)


# =========================================================================
# square-free factorization
# =========================================================================


def test_square_free_part_exhaustive_small():
    # n = s^2 * c with c square-free, verified by brute force up to 2000
    for n in range(1, 2001):
        s, c = square_free_part(n)
        assert s * s * c == n
        for f in range(2, int(math.isqrt(c)) + 1):
            assert c % (f * f) != 0


def test_square_free_part_examples():
    assert square_free_part(1) == (1, 1)
    assert square_free_part(4) == (2, 1)
    assert square_free_part(8) == (2, 2)
    assert square_free_part(12) == (2, 3)
    assert square_free_part(340) == (2, 85)
    assert square_free_part(16762772) == (26, 24797)


def test_square_free_part_rejects_nonpositive():
    for n in (0, -1, -4):
        with pytest.raises(ValueError):
            square_free_part(n)


def test_is_perfect_square():
    squares = {k * k for k in range(0, 50)}
    for n in range(0, 2401):
        assert is_perfect_square(n) == (n in squares)
    assert not is_perfect_square(-4)


# =========================================================================
# QuadExt canonical form and arithmetic
# =========================================================================


def test_quadext_canonicalization():
    # square part of delta migrates into b
    assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
    # delta = 1 collapses into the rational part
    assert QuadExt(1, 3, 1) == QuadExt(4, 0, 1)
    # b = 0 forgets delta
    assert QuadExt(6, 0, 7) == QuadExt(6, 0, 1)


def test_quadext_from_int_roundtrip():
    for k in range(-20, 21):
        e = QuadExt.from_int(k)
        assert e.is_integer
        assert e.as_integer() == k
        assert float(e) == k


def test_quadext_rejects_bad_delta():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 0)
    with pytest.raises(ValueError):
        QuadExt(0, 1, -2)


def test_quadext_arithmetic_matches_floats():
    vals = [QuadExt(a, b, 2) for a in (-3, 0, 2, 5) for b in (-2, 0, 1, 3)]
    vals += [QuadExt(a, b, 5) for a in (-1, 4) for b in (0, 2)]
    vals += [QuadExt.from_int(k) for k in (-2, 0, 3)]
    for x in vals:
        for y in vals:
            shared = x.b == 0 or y.b == 0 or x.delta == y.delta
            if not shared:
                # incompatible surd parts are not representable at all
                with pytest.raises(ValueError):
                    x + y
                with pytest.raises(ValueError):
                    x * y
                continue
            assert float(x) + float(y) == pytest.approx(float(x + y), abs=1e-12)
            assert float(x) - float(y) == pytest.approx(float(x - y), abs=1e-12)
            d = x.delta if x.b != 0 else y.delta
            num_a = x.a * y.a + x.b * y.b * d
            num_b = x.a * y.b + y.a * x.b
            if num_a % 2 != 0 or num_b % 2 != 0:
                # the exact product leaves the half-integer lattice
                with pytest.raises(ValueError):
                    x * y
                continue
            assert float(x) * float(y) == pytest.approx(float(x * y), abs=1e-9)


def test_quadext_product_identity_conjugate():
    # (a + b sqrt(d))/2 times its conjugate gives (a^2 - b^2 d)/4, which
    # stays on the half-integer lattice exactly when a and b share parity
    for a in range(-6, 7):
        for b in range(-4, 5):
            e = QuadExt(a, b, 3)
            if (a - b) % 2 != 0:
                with pytest.raises(ValueError):
                    e * e.conjugate()
                continue
            prod = e * e.conjugate()
            assert prod.b == 0
            assert float(prod) == pytest.approx((a * a - b * b * 3) / 4.0, abs=1e-12)


def test_quadext_int_mixing():
    e = QuadExt(3, 1, 2)
    assert e + 1 == QuadExt(5, 1, 2)
    assert 2 - e == QuadExt(1, -1, 2)
    assert e * 2 == QuadExt(6, 2, 2)


# =========================================================================
# float recognition
# =========================================================================


def test_recognize_integers_and_halves():
    for k in range(-15, 16):
        assert recognize_quadext(float(k)) == QuadExt.from_int(k)
        assert recognize_quadext(k + 0.5) == QuadExt(2 * k + 1, 0, 1)


def test_recognize_surds():
    cases = [
        ((2 + math.sqrt(2)) / 2, QuadExt(2, 1, 2)),
        (2 - math.sqrt(2), QuadExt(4, -2, 2)),
        ((7 + 3 * math.sqrt(5)) / 2, QuadExt(7, 3, 5)),
        (1 + math.sqrt(85), QuadExt(2, 2, 85)),
    ]
    for x, expected in cases:
        assert recognize_quadext(x) == expected


def test_recognize_rejects_pi():
    assert recognize_quadext(math.pi) is None


def test_recognize_loose_tolerance_is_ambiguous():
    # at 1e-5 both (0 + 2*sqrt(2))/2 and (102 - sqrt(9835))/2 fit sqrt(2)
    with pytest.raises(AmbiguousMatchError):
        recognize_quadext(math.sqrt(2), tolerance=1e-5)


def test_recognize_respects_tolerance():
    x = math.sqrt(2) + 5e-7
    assert recognize_quadext(x, tolerance=1e-9) is None
    # restricting the surd search space removes the far-fetched candidates
    assert recognize_quadext(x, tolerance=1e-5, delta_bound=50) == QuadExt(0, 2, 2)


def test_as_exact_routes_each_kind():
    q = QuadExt(7, 3, 5)
    assert as_exact(q) is q
    assert as_exact(3) == QuadExt.from_int(3)
    assert as_exact(np.int64(-2)) == QuadExt.from_int(-2)
    assert as_exact(np.float64((7 + 3 * math.sqrt(5)) / 2)) == q
    assert as_exact(math.pi) is None
    # ambiguous at a loose tolerance: no unique form, so no exact value
    assert as_exact(math.sqrt(2), tolerance=1e-5) is None


# =========================================================================
# recognition against the scalar loop it replaced
# =========================================================================


@lru_cache(maxsize=8)
def _scalar_sieve(bound: int) -> tuple[int, ...]:
    """Square-free integers in [2, bound], ascending."""
    flags = bytearray([1]) * (bound + 1)
    p = 2
    while p * p <= bound:
        step = p * p
        for k in range(step, bound + 1, step):
            flags[k] = 0
        p += 1
    return tuple(k for k in range(2, bound + 1) if flags[k])


def _scalar_recognize(x, tolerance=1e-9, delta_bound=10_000, coeff_bound=1_000_000):
    """The delta x b double loop that recognize_quadext vectorises."""
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    x = float(x)
    a0 = round(2 * x)
    if abs(x - a0 / 2.0) <= tolerance and abs(a0) <= coeff_bound:
        return QuadExt(a0, 0, 1)
    matches: list[QuadExt] = []
    for delta in _scalar_sieve(delta_bound):
        root = math.sqrt(delta)
        b_cap = min(coeff_bound, int((2 * abs(x) + 4) / root) + 2)
        for b in range(-b_cap, b_cap + 1):
            if b == 0:
                continue
            a = round(2 * x - b * root)
            if abs(a) > coeff_bound:
                continue
            if abs(x - (a + b * root) / 2.0) <= tolerance:
                cand = QuadExt(a, b, delta)
                if cand not in matches:
                    matches.append(cand)
    if not matches:
        return None
    if len(matches) > 1:
        listing = ", ".join(str(m) for m in matches)
        raise AmbiguousMatchError(
            f"{x!r} matches {len(matches)} exact candidates within {tolerance}: {listing}"
        )
    return matches[0]


def _outcome(fn, x, tolerance, **bounds):
    try:
        return fn(x, tolerance, **bounds)
    except AmbiguousMatchError as err:
        return f"ambiguous: {err}"


def _cycle_q_values(n):
    """Distinct signless Laplacian eigenvalues 2 + 2cos(2 pi k/n) of C_n."""
    return [2 + 2 * math.cos(2 * math.pi * k / n) for k in range(n // 2 + 1)]


@pytest.mark.parametrize("tolerance", [1e-9, 1e-6, 1e-3])
def test_recognize_matches_scalar_loop(tolerance):
    # delta_bound 1000 keeps the scalar loop cheap; the larger cycles are
    # strided for the same reason
    rng = random.Random(4)
    values = _cycle_q_values(20) + _cycle_q_values(41)
    values += _cycle_q_values(121)[::15] + _cycle_q_values(200)[::15]
    values += [rng.uniform(-50, 500) for _ in range(4)] + [math.pi, math.e]
    for x in values:
        got = _outcome(recognize_quadext, x, tolerance, delta_bound=1000)
        assert got == _outcome(_scalar_recognize, x, tolerance, delta_bound=1000), x


@pytest.mark.parametrize(
    "x, tolerance",
    [
        ((100 + 7 * math.sqrt(9973)) / 2, 1e-9),
        ((100 + 7 * math.sqrt(9973)) / 2, 1e-3),
        ((-3 + math.sqrt(9998)) / 2, 1e-9),
        ((-3 + math.sqrt(9998)) / 2, 1e-6),
        ((-3 + math.sqrt(9998)) / 2, 1e-3),
    ],
)
def test_recognize_matches_scalar_loop_near_delta_bound(x, tolerance):
    # delta near the default bound of 10 000 sits at the end of the table;
    # at 1e-3 the hundreds of candidates must be listed in the same order
    assert _outcome(recognize_quadext, x, tolerance) == _outcome(_scalar_recognize, x, tolerance)


# 2cos(2 pi j/m) for every m whose cosines are rational or quadratic
# (phi(m) <= 4), keyed by (m, min(j, m - j)) with gcd(j, m) = 1
_SMALL_COSINES = {
    (1, 0): QuadExt.from_int(2),
    (2, 1): QuadExt.from_int(-2),
    (3, 1): QuadExt.from_int(-1),
    (4, 1): QuadExt.from_int(0),
    (6, 1): QuadExt.from_int(1),
    (5, 1): QuadExt(-1, 1, 5),
    (5, 2): QuadExt(-1, -1, 5),
    (8, 1): QuadExt(0, 2, 2),
    (8, 3): QuadExt(0, -2, 2),
    (10, 1): QuadExt(1, 1, 5),
    (10, 3): QuadExt(1, -1, 5),
    (12, 1): QuadExt(0, 2, 3),
    (12, 5): QuadExt(0, -2, 3),
}


@pytest.mark.parametrize("n", [60, 120, 200])
def test_recognize_cycle_spectra_match_cyclotomic_truth(n):
    # 2 + 2cos(2 pi k/n) is quadratic exactly when k/n reduces to a
    # denominator m with phi(m) <= 4; every other value must give None
    for k in range(n // 2 + 1):
        g = math.gcd(n, k)
        m, j = n // g, k // g
        cosine = _SMALL_COSINES.get((m, min(j, m - j)))
        want = None if cosine is None else 2 + cosine
        assert recognize_quadext(2 + 2 * math.cos(2 * math.pi * k / n)) == want, (n, k)


def test_recognize_no_false_hits_near_500():
    # 500 + cbrt(k) for non-cube k is cubic, never quadratic
    ks = [k for k in range(2, 400) if round(k ** (1 / 3)) ** 3 != k][:300]
    assert len(ks) == 300
    assert [k for k in ks if recognize_quadext(500 + k ** (1 / 3)) is not None] == []


# =========================================================================
# common half form and parity classification
# =========================================================================


def test_common_half_form_all_integers():
    a, delta, b_list = common_half_form([12, 6, 4])
    assert (a, delta) == (0, 1)
    assert b_list == [24, 12, 8]


def test_common_half_form_shared_surd():
    sup = [QuadExt(4, 2, 2), QuadExt(4, 0, 1), QuadExt(4, -2, 2)]
    a, delta, b_list = common_half_form(sup)
    assert (a, delta) == (4, 2)
    assert b_list == [2, 0, -2]


def test_common_half_form_mixed_a_rejected():
    # integers 2 and 0 cannot both take the form (4 + b sqrt(2))/2
    sup = [QuadExt(4, 2, 2), QuadExt.from_int(2), QuadExt.from_int(0), QuadExt(4, -2, 2)]
    with pytest.raises(InvalidSupportError):
        common_half_form(sup)


def test_common_half_form_mixed_delta_rejected():
    with pytest.raises(InvalidSupportError):
        common_half_form([QuadExt(4, 1, 2), QuadExt(4, 1, 3)])


def test_classify_support_integer_case():
    cls = classify_support([12, 6, 4])
    assert cls.delta == 1
    assert cls.g == 2
    # gaps from the top: 0, 6, 8 -> parities even, odd, even
    assert cls.lambda_plus == (QuadExt.from_int(12), QuadExt.from_int(4))
    assert cls.lambda_minus == (QuadExt.from_int(6),)


def test_classify_support_quadratic_case():
    sup = [QuadExt(4, 3, 2), QuadExt(4, 1, 2), QuadExt(4, -1, 2)]
    cls = classify_support(sup)
    assert cls.delta == 2
    assert cls.g == 1
    assert cls.lambda_plus == (QuadExt(4, 3, 2), QuadExt(4, -1, 2))
    assert cls.lambda_minus == (QuadExt(4, 1, 2),)


def test_classify_support_sorts_descending():
    cls = classify_support([4, 12, 6])
    assert [float(e) for e in cls.support] == [12, 6, 4]


def test_classify_support_odd_doubled_gap_rejected():
    # (5 + sqrt(2))/2 and (5 + 2 sqrt(2))/2 share a and delta but the gap
    # is half-integral in units of sqrt(2)
    with pytest.raises(InvalidSupportError):
        classify_support([QuadExt(5, 2, 2), QuadExt(5, 1, 2)])


def test_classify_support_needs_two_distinct():
    with pytest.raises(ValueError):
        classify_support([QuadExt.from_int(3)])
    with pytest.raises(ValueError):
        classify_support([QuadExt.from_int(3), QuadExt.from_int(3)])


def test_classify_support_top_always_plus():
    # exhaustive small integer supports: the largest element lands in plus
    sets = [
        [0, 2],
        [0, 1, 3],
        [2, 4, 8],
        [1, 5, 7, 11],
        [0, 4, 6, 10, 12],
    ]
    for sup in sets:
        cls = classify_support(sup)
        assert cls.support[0] in cls.lambda_plus
        assert set(cls.lambda_plus) | set(cls.lambda_minus) == set(cls.support)
