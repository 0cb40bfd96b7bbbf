"""Tests for exact quadratic-integer arithmetic and support classification."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
import sympy

from qwcorona import (
    CoronaParams,
    corona_spectrum,
    decompose,
    generate,
    signless_laplacian,
)
from qwcorona import algebraic
from qwcorona.algebraic import (
    InvalidSupportError,
    QuadExt,
    as_exact,
    classify_support,
    common_half_form,
    is_perfect_square,
    square_free_part,
)
from oracle import corona_full_q


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


def _sympy_square_free_part(n):
    s = c = 1
    for p, k in sympy.factorint(n).items():
        s *= p ** (k // 2)
        c *= p ** (k % 2)
    return s, c


def _near_cube_root_cases():
    # the trial division stops once p**3 exceeds the cofactor: products of
    # primes just above that point, prime squares, and 2 * (prime)**2
    out = []
    for p in (11, 101, 1009, 7919, 10007):
        q = sympy.nextprime(p * p)
        out += [p * p, p * q, p * sympy.prevprime(p * p), p * p * p, p * p * sympy.nextprime(p), 2 * p * p]
        out += [q * q, 2 * q * q, p * sympy.nextprime(p)]
    return out


def test_square_free_part_matches_sympy():
    rng = np.random.default_rng(20261019)
    cases = list(range(1, 20001))
    cases += [int(x) for x in rng.integers(1, 10**13, size=300)]
    cases += _near_cube_root_cases()
    for n in cases:
        assert square_free_part(n) == _sympy_square_free_part(n), n


def test_square_free_part_raises_past_the_ceiling(monkeypatch):
    monkeypatch.setattr(algebraic, "FACTOR_CEILING", 100)
    # 101 * 103 needs no divisor past 100; 101 * 103 * 107 >= 101**3 would
    assert square_free_part(101 * 103) == (1, 101 * 103)
    assert square_free_part(4 * 101 * 101) == (2 * 101, 1)
    with pytest.raises(ValueError, match="cannot certify the square-free part of 1113121"):
        square_free_part(101 * 103 * 107)


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
# QuadExt canonical form
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
        assert (e.a, e.b, e.delta) == (2 * k, 0, 1)
        assert float(e) == k


def test_quadext_rejects_bad_delta():
    with pytest.raises(ValueError):
        QuadExt(0, 1, 0)
    with pytest.raises(ValueError):
        QuadExt(0, 1, -2)


def test_quadext_product_identity_conjugate():
    # (a + b sqrt(d))/2 times its conjugate gives the integer numerator
    # a^2 - b^2 d over 4, which stays on the half-integer lattice exactly
    # when a and b share parity
    for a in range(-6, 7):
        for b in range(-4, 5):
            e = QuadExt(a, b, 3)
            conj = e.conjugate()
            assert (conj.a, conj.b, conj.delta) == (e.a, -e.b, e.delta)
            num = e.a * e.a - e.b * e.b * e.delta
            assert (num % 2 == 0) == ((a - b) % 2 == 0)
            assert float(e) * float(conj) == pytest.approx(num / 4, abs=1e-12)


# =========================================================================
# float recognition
# =========================================================================


def test_recognize_integers_and_halves():
    ks = range(-15, 16)
    assert as_exact([float(k) for k in ks]) == [QuadExt.from_int(k) for k in ks]
    assert as_exact([k + 0.5 for k in ks]) == [QuadExt(2 * k + 1, 0, 1) for k in ks]


def test_recognize_surds():
    # each surd is read from its conjugate, which the list must hold
    cases = [
        (2 - math.sqrt(2), QuadExt(4, -2, 2)),
        ((7 + 3 * math.sqrt(5)) / 2, QuadExt(7, 3, 5)),
        (1 + math.sqrt(85), QuadExt(2, 2, 85)),
    ]
    for x, expected in cases:
        conjugate = expected.conjugate()
        assert as_exact([x, float(conjugate)]) == [expected, conjugate]


def test_recognize_rejects_pi():
    assert as_exact([math.pi]) == [None]
    # an integer sum alone makes no partner: its candidates 3 and 0 are rational
    assert as_exact([math.pi, 3 - math.pi]) == [None, None]
    # and leaves an integer beside it recognized
    assert as_exact([math.pi, 1.0]) == [None, QuadExt.from_int(1)]


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
def test_as_exact_rejects_non_finite_tolerance(tolerance):
    with pytest.raises(ValueError, match=f"tolerance must be finite, got {tolerance}"):
        as_exact([math.sqrt(2), -math.sqrt(2)], tolerance)


def test_recognize_respects_tolerance():
    x = math.sqrt(2) + 5e-7
    assert as_exact([x, -math.sqrt(2)], tolerance=1e-9)[0] is None
    assert as_exact([x, -math.sqrt(2)], tolerance=1e-5)[0] == QuadExt(0, 2, 2)


def test_as_exact_routes_each_kind():
    q = QuadExt(7, 3, 5)
    values = [q, 3, np.int64(-2), np.float64(float(q)), np.float64(float(q.conjugate())), math.pi]
    got = as_exact(values)
    assert got[0] is q
    assert got == [q, QuadExt.from_int(3), QuadExt.from_int(-2), q, q.conjugate(), None]
    # ambiguous at a loose tolerance: sqrt(2) also lies within 1e-5 of
    # (-408 + 2*sqrt(42195))/2, whose conjugate is listed, so no unique form
    far = QuadExt(-408, -2, 42195)
    roots = [math.sqrt(2), -math.sqrt(2), float(far)]
    assert as_exact(roots, tolerance=1e-5) == [None, QuadExt(0, -2, 2), far]


def test_recognize_is_sound_at_loose_tolerance():
    # every form returned at 1e-6 is the true value: the eigenvalues of
    # C_11 have degree 5, and no form may fit one of them to 1e-6 only
    for n in range(3, 101):
        dec = decompose(signless_laplacian(generate(f"C:{n}")))
        for x, e in zip(dec.eigenvalues, as_exact(dec.eigenvalues, tolerance=1e-6)):
            assert e is None or abs(float(e) - x) <= 1e-9, (n, x, e)


CORONA_BASES = ["K:2", "K:3", "K:4", "C:4", "C:5", "C:6", "C:8", "CP:2", "CP:3", "HQ:2", "HQ:3"]
CORONA_ATTACHMENTS = ["K:1", "K:2", "K:3", "empty:2", "empty:3", "C:4"]


@pytest.mark.parametrize("gspec", CORONA_BASES)
def test_recognize_every_closed_form_value_of_the_corona(gspec):
    # every exact entry of the closed form is recognized in the dense
    # spectrum, pair-minus values with large b such as (16 - 4*sqrt(13))/2
    # on C:4~oempty:3 included
    for hspec in CORONA_ATTACHMENTS:
        g, h = generate(gspec), generate(hspec)
        spectrum = corona_spectrum(
            decompose(signless_laplacian(g)),
            decompose(signless_laplacian(h)),
            CoronaParams.from_graphs(g, h),
        )
        dense = np.asarray(decompose(corona_full_q(g, h)).eigenvalues)
        recognized = as_exact(dense)
        for k in range(len(spectrum.rows)):
            value = spectrum.value(k)
            if isinstance(value, QuadExt):
                i = int(np.argmin(np.abs(dense - float(value))))
                assert recognized[i] == value, (gspec, hspec, value)


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
    got = as_exact([2 + 2 * math.cos(2 * math.pi * k / n) for k in range(n // 2 + 1)])
    for k in range(n // 2 + 1):
        g = math.gcd(n, k)
        m, j = n // g, k // g
        cosine = _SMALL_COSINES.get((m, min(j, m - j)))
        want = None if cosine is None else QuadExt(cosine.a + 4, cosine.b, cosine.delta)
        assert got[k] == want, (n, k)


def test_recognize_no_false_hits_near_500():
    # 500 + cbrt(k) for non-cube k is cubic, never quadratic
    ks = [k for k in range(2, 400) if round(k ** (1 / 3)) ** 3 != k][:300]
    assert len(ks) == 300
    got = as_exact([500 + k ** (1 / 3) for k in ks])
    assert [k for k, e in zip(ks, got) if e is not None] == []


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


def test_common_half_form_three_surds_and_a_shared_integer():
    sup = [QuadExt(4, 3, 2), QuadExt(4, 1, 2), QuadExt(4, -1, 2)]
    assert common_half_form(sup) == (4, 2, [3, 1, -1])
    # the integer 2 = (4 + 0*sqrt(2))/2 shares the form
    sup = [QuadExt(4, 2, 2), QuadExt.from_int(2), QuadExt(4, -2, 2)]
    assert common_half_form(sup) == (4, 2, [2, 0, -2])


def test_common_half_form_names_the_value_off_the_form():
    # P4's support {2+sqrt2, 2, 2-sqrt2, 0}, read from floats as one list:
    # the integer 0 cannot take the form (4 + b*sqrt(2))/2
    sup = as_exact([2 + math.sqrt(2), 2.0, 2 - math.sqrt(2), 0.0])
    assert sup == [QuadExt(4, 2, 2), QuadExt.from_int(2), QuadExt(4, -2, 2), QuadExt.from_int(0)]
    with pytest.raises(
        InvalidSupportError, match=re.escape("0 cannot take the shared form (4 + b*sqrt(2))/2")
    ):
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
