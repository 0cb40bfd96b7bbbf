"""Exact arithmetic over quadratic extensions.

Eigenvalues handled here are either integers or numbers of the form
(a + b*sqrt(delta))/2 with integers a, b and square-free delta.  The module
provides the canonical container ``QuadExt``, square-free factorization,
recognition of floats as exact values, and the gap/parity classification
that drives state transfer certification.  ``as_exact`` is the one
recognizer: it takes a whole list of eigenvalues and reads each quadratic
surd from its algebraic conjugate in the same list, so it recognizes
quadratic algebraic integers only, with no bound on their coefficients.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

FACTOR_CEILING = 10_000_000
DEFAULT_RECOGNITION_TOL = 1e-9


class InvalidSupportError(ValueError):
    """Eigenvalue support does not fit one shared half-integer quadratic form."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def square_free_part(n: int) -> tuple[int, int]:
    """Split n > 0 as n = s**2 * c with c square-free; returns (s, c).

    Trial division by p while p**3 <= the cofactor.  What is left then has
    no prime factor below p and is below p**3, so it is 1, a prime, a
    product of two distinct primes, or the square of a prime: square-free
    unless it is a perfect square.  A cofactor that would need p past
    FACTOR_CEILING raises instead of dividing on.
    """
    n = operator.index(n)
    if n <= 0:
        raise ValueError(f"square_free_part needs n > 0, got {n}")
    s, c = 1, 1
    rem = n
    p = 2
    while p * p * p <= rem:
        if p > FACTOR_CEILING:
            raise ValueError(
                f"cannot certify the square-free part of {n} with ceiling {FACTOR_CEILING}"
            )
        if rem % p == 0:
            k = 0
            while rem % p == 0:
                rem //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                c *= p
        p += 1 if p == 2 else 2
    if is_perfect_square(rem):
        s *= math.isqrt(rem)
    else:
        c *= rem
    return s, c


@dataclass(frozen=True)
class QuadExt:
    """The exact real number (a + b*sqrt(delta))/2.

    Canonical form: delta is square-free; square factors of delta fold into
    b; delta == 1 folds b into a; b == 0 forces delta == 1.  Equality and
    hashing are componentwise on the canonical form.
    """

    a: int
    b: int = 0
    delta: int = 1

    def __post_init__(self) -> None:
        a = operator.index(self.a)
        b = operator.index(self.b)
        delta = operator.index(self.delta)
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        if delta > 1:
            s, delta = square_free_part(delta)
            b *= s
        if delta == 1 and b != 0:
            a, b = a + b, 0
        if b == 0:
            delta = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "delta", delta)

    @classmethod
    def from_int(cls, k: int) -> QuadExt:
        return cls(2 * operator.index(k), 0, 1)

    def value(self) -> float:
        if self.b == 0:
            return self.a / 2.0
        return (self.a + self.b * math.sqrt(self.delta)) / 2.0

    def __float__(self) -> float:
        return self.value()

    def conjugate(self) -> QuadExt:
        return QuadExt(self.a, -self.b, self.delta)

    def __str__(self) -> str:
        if self.b == 0:
            if self.a % 2 == 0:
                return str(self.a // 2)
            return f"{self.a}/2"
        return f"({self.a} + {self.b}*sqrt({self.delta}))/2"


def as_exact(values, tolerance: float = DEFAULT_RECOGNITION_TOL) -> list[QuadExt | None]:
    """The exact value of each eigenvalue in a list, None where it has no unique form.

    A QuadExt passes through, an integer goes through `QuadExt.from_int`,
    and a float within tolerance of a half-integer becomes that
    half-integer.  Any other float x is read from its conjugate: each y in
    the list with x + y within 2*tolerance of an integer gives a =
    round(x + y), c = round(x*y) and, if a**2 - 4c > 0, the candidate
    q = (a +- sqrt(a**2 - 4c))/2 with the sign of x - y, accepted when
    |q - x| and |conj(q) - y| are both within tolerance.  Exactly one
    accepted q gives q; none, or two different ones, give None.

    So only quadratic algebraic integers whose conjugate is in the list
    are recognized.  Every eigenvalue of an integer matrix meets that: the
    spectrum, and each vertex's eigenvalue support, is closed under
    conjugation.  Each float takes one numpy row over the list.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tolerance):
        raise ValueError(f"tolerance must be finite, got {tolerance}")
    values = list(values)
    floats = np.array([float(v) for v in values])
    return [_exact_one(v, x, floats, tolerance) for v, x in zip(values, floats.tolist())]


def _exact_one(v, x: float, floats: np.ndarray, tolerance: float) -> QuadExt | None:
    if isinstance(v, QuadExt):
        return v
    if isinstance(v, (int, np.integer)):
        return QuadExt.from_int(int(v))
    a0 = round(2 * x)
    if abs(x - a0 / 2.0) <= tolerance:
        return QuadExt(a0, 0, 1)
    sums = x + floats
    hits = set()
    for y in floats[np.abs(sums - np.rint(sums)) <= 2 * tolerance].tolist():
        a, c = round(x + y), round(x * y)
        if a * a - 4 * c > 0:
            q = QuadExt(a, 1 if x > y else -1, a * a - 4 * c)
            if abs(q.value() - x) <= tolerance and abs(q.conjugate().value() - y) <= tolerance:
                hits.add(q)
    return hits.pop() if len(hits) == 1 else None


@dataclass(frozen=True)
class SupportClassification:
    """Gap/parity data of an eigenvalue support sharing one quadratic form.

    ``g`` is the gcd of the gaps (theta0 - theta_r)/sqrt(delta); an element
    lands in ``lambda_plus`` when its gap divided by g is even, in
    ``lambda_minus`` when odd.  The top eigenvalue always sits in
    ``lambda_plus`` (gap 0).
    """

    support: tuple[QuadExt, ...]
    delta: int
    g: int
    lambda_plus: tuple[QuadExt, ...]
    lambda_minus: tuple[QuadExt, ...]


def _coerce_support(support) -> list[QuadExt]:
    out = []
    for item in support:
        if isinstance(item, QuadExt):
            out.append(item)
        else:
            out.append(QuadExt.from_int(operator.index(item)))
    return out


def common_half_form(support) -> tuple[int, int, list[int]]:
    """Express every support element as (a + b_r*sqrt(delta))/2 with shared a, delta.

    Returns (a, delta, b_list) aligned with the input order.  For an
    all-integer support this degenerates to a = 0, delta = 1, b_r = twice
    the value.  Raises InvalidSupportError when no shared form exists,
    which is exactly the failure that refutes periodicity.
    """
    elems = _coerce_support(support)
    quads = [e for e in elems if e.b != 0]
    if not quads:
        return 0, 1, [e.a for e in elems]
    deltas = {e.delta for e in quads}
    if len(deltas) > 1:
        raise InvalidSupportError(
            f"not a valid periodic support: mixed delta values {sorted(deltas)}"
        )
    delta = deltas.pop()
    a_vals = {e.a for e in quads}
    if len(a_vals) > 1:
        raise InvalidSupportError(
            f"not a valid periodic support: mixed a values {sorted(a_vals)}"
        )
    a = a_vals.pop()
    b_list = []
    for e in elems:
        if e.b != 0:
            b_list.append(e.b)
        elif e.a == a:
            # integer value a/2 equals (a + 0*sqrt(delta))/2
            b_list.append(0)
        else:
            raise InvalidSupportError(
                f"not a valid periodic support: {e} cannot take the shared "
                f"form ({a} + b*sqrt({delta}))/2 with integer b"
            )
    return a, delta, b_list


def classify_support(support) -> SupportClassification:
    """Split a periodic support into the even/odd gap classes of the top element.

    The support must have at least two distinct elements, all sharing one
    half-integer quadratic form; the gaps (theta0 - theta_r)/sqrt(delta)
    must come out integral.
    """
    elems = _coerce_support(support)
    if len(elems) < 2:
        raise ValueError("support classification needs at least two eigenvalues")
    if len(set(elems)) != len(elems):
        raise ValueError("support elements must be distinct")
    elems.sort(key=lambda e: e.value(), reverse=True)
    _, delta, b_list = common_half_form(elems)
    b0 = b_list[0]
    doubled_gaps = [b0 - b for b in b_list]
    if any(d % 2 for d in doubled_gaps):
        raise InvalidSupportError(
            "not a valid periodic support: gaps are not integer multiples "
            f"of sqrt({delta})"
        )
    gaps = [d // 2 for d in doubled_gaps]
    g = 0
    for gap in gaps:
        g = math.gcd(g, gap)
    plus = tuple(e for e, gap in zip(elems, gaps) if (gap // g) % 2 == 0)
    minus = tuple(e for e, gap in zip(elems, gaps) if (gap // g) % 2 == 1)
    return SupportClassification(
        support=tuple(elems),
        delta=delta,
        g=g,
        lambda_plus=plus,
        lambda_minus=minus,
    )
