"""Exact arithmetic over quadratic extensions.

Eigenvalues handled here are either integers or numbers of the form
(a + b*sqrt(delta))/2 with integers a, b and square-free delta.  The module
provides the canonical container ``QuadExt``, square-free factorization,
recognition of floats as exact values (``as_exact`` is the one entry
point the rest of the package uses), and the gap/parity classification
that drives state transfer certification.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_FACTOR_CEILING = 10_000_000
DEFAULT_RECOGNITION_TOL = 1e-9
DEFAULT_DELTA_BOUND = 10_000
DEFAULT_COEFF_BOUND = 1_000_000
# candidates evaluated at once by recognize_quadext's sweep
_SWEEP_BLOCK = 1 << 13


class AmbiguousMatchError(ValueError):
    """Two distinct exact candidates fit the same float within tolerance."""


class InvalidSupportError(ValueError):
    """Eigenvalue support does not fit one shared half-integer quadratic form."""


class InternalInvariantError(RuntimeError):
    """An internal consistency check failed: a bug, not bad input."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def square_free_part(n: int, ceiling: int = DEFAULT_FACTOR_CEILING) -> tuple[int, int]:
    """Split n > 0 as n = s**2 * c with c square-free; returns (s, c).

    Trial division up to ``ceiling``.  A leftover cofactor whose prime
    factors all exceed the ceiling is certified square-free when it is a
    prime or a product of two distinct primes (guaranteed below
    ceiling**3 once perfect squares are peeled off); anything larger
    raises instead of guessing.
    """
    n = operator.index(n)
    if n <= 0:
        raise ValueError(f"square_free_part needs n > 0, got {n}")
    s, c = 1, 1
    rem = n
    p = 2
    while p * p <= rem and p <= ceiling:
        if rem % p == 0:
            k = 0
            while rem % p == 0:
                rem //= p
                k += 1
            s *= p ** (k // 2)
            if k % 2:
                c *= p
        p += 1 if p == 2 else 2
    if rem > 1:
        if p * p > rem:
            c *= rem
        elif is_perfect_square(rem):
            s *= math.isqrt(rem)
        elif rem < ceiling**3:
            c *= rem
        else:
            raise ValueError(
                f"cannot certify the square-free part of {n} with ceiling {ceiling}"
            )
    return s, c


@lru_cache(maxsize=8)
def _square_free_table(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Square-free integers in [2, bound], ascending, and their square roots."""
    n = max(bound, 1)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        flags[p * p :: p * p] = False
    deltas = np.flatnonzero(flags)
    roots = np.sqrt(deltas.astype(np.float64))
    deltas.setflags(write=False)
    roots.setflags(write=False)
    return deltas, roots


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
        s, c = square_free_part(delta)
        if s != 1:
            b, delta = b * s, c
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

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a % 2 == 0

    def as_integer(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self} is not an integer")
        return self.a // 2

    def value(self) -> float:
        if self.b == 0:
            return self.a / 2.0
        return (self.a + self.b * math.sqrt(self.delta)) / 2.0

    def __float__(self) -> float:
        return self.value()

    def conjugate(self) -> QuadExt:
        return QuadExt(self.a, -self.b, self.delta)

    def _coerced(self, other: object) -> QuadExt | None:
        if isinstance(other, QuadExt):
            return other
        try:
            return QuadExt.from_int(operator.index(other))
        except TypeError:
            return None

    def _common_delta(self, other: QuadExt) -> int:
        if self.b == 0:
            return other.delta
        if other.b == 0 or other.delta == self.delta:
            return self.delta
        raise ValueError(
            f"mixed radicals: delta {self.delta} vs {other.delta}"
        )

    def __add__(self, other: object) -> QuadExt:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        delta = self._common_delta(o)
        return QuadExt(self.a + o.a, self.b + o.b, delta)

    __radd__ = __add__

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.delta)

    def __sub__(self, other: object) -> QuadExt:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> QuadExt:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> QuadExt:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        delta = self._common_delta(o)
        # (a1 + b1*r)(a2 + b2*r)/4 with r = sqrt(delta); result must land
        # back on the half-integer lattice (A + B*r)/2
        two_a = self.a * o.a + self.b * o.b * delta
        two_b = self.a * o.b + self.b * o.a
        if two_a % 2 or two_b % 2:
            raise ValueError(
                f"product of {self} and {o} leaves the half-integer lattice"
            )
        return QuadExt(two_a // 2, two_b // 2, delta)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if self.b == 0:
            if self.a % 2 == 0:
                return str(self.a // 2)
            return f"{self.a}/2"
        return f"({self.a} + {self.b}*sqrt({self.delta}))/2"


def recognize_quadext(
    x: float,
    tolerance: float = DEFAULT_RECOGNITION_TOL,
    delta_bound: int = DEFAULT_DELTA_BOUND,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> QuadExt | None:
    """Map a float to the unique nearby exact value (a + b*sqrt(delta))/2.

    Integers and half-integers (b = 0) are recognized first and
    short-circuit.  Quadratic candidates range over square-free
    delta <= delta_bound and 0 < |b| <= min(coeff_bound,
    int((2|x| + 4)/sqrt(delta)) + 2), so that values with no small exact
    form (pi, say) fall through to None instead of hitting an accidental
    combination with huge coefficients.  Each candidate takes
    a = round(2x - b*sqrt(delta)) and is accepted when |a| <= coeff_bound
    and |x - (a + b*sqrt(delta))/2| <= tolerance.

    The caps never grow with delta, so the sweep runs over |b| and
    evaluates +b and -b with numpy on the prefix of the cached delta table
    whose caps allow |b| (searchsorted on the caps).  Where prefixes are
    short, consecutive |b| share one block of about _SWEEP_BLOCK
    candidates, each still held to its own cap, so memory is O(#delta)
    per step whatever |x| is; no (delta, b) table is built.  The float
    operations are those of a scalar loop over (delta, b), and rint rounds
    half to even like round, so the results are the same.  Two distinct
    surviving candidates raise AmbiguousMatchError, listed in (delta, b)
    order.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    x = float(x)
    a0 = round(2 * x)
    if abs(x - a0 / 2.0) <= tolerance and abs(a0) <= coeff_bound:
        return QuadExt(a0, 0, 1)
    deltas, roots = _square_free_table(delta_bound)
    if not deltas.size:
        return None
    two_x = 2 * x
    # min(coeff_bound, int(q) + 2), exact in float while the caps stay small
    caps = np.minimum(np.floor((2 * abs(x) + 4) / roots), coeff_bound - 2) + 2
    top = int(caps[0])
    # prefix[b - 1] = number of deltas whose cap allows |b|
    prefix = np.searchsorted(-caps, -np.arange(1, top + 1), side="right")
    hits: list[tuple[int, int, int]] = []
    b = 1
    while b <= top:
        m = int(prefix[b - 1])
        rows = np.arange(b, min(b + max(1, _SWEEP_BLOCK // m), top + 1))
        b += rows.size
        br = rows.astype(np.float64)[:, None] * roots[:m]
        # -b gives a = round(2x + b*r) and the value (a - b*r)/2, bit for bit
        for sign, a in ((-1, two_x + br), (1, two_x - br)):
            np.rint(a, out=a)
            err = a - br if sign < 0 else a + br
            err /= 2.0
            np.subtract(x, err, out=err)
            # the cap and coefficient tests only run on the rare survivors
            for i, j in zip(*np.nonzero(np.abs(err, out=err) <= tolerance)):
                if caps[j] >= rows[i] and abs(a[i, j]) <= coeff_bound:
                    hits.append((int(deltas[j]), sign * int(rows[i]), int(a[i, j])))
    if not hits:
        return None
    hits.sort()
    matches = [QuadExt(a, b, delta) for delta, b, a in hits]
    if len(matches) > 1:
        listing = ", ".join(str(m) for m in matches)
        raise AmbiguousMatchError(
            f"{x!r} matches {len(matches)} exact candidates within {tolerance}: {listing}"
        )
    return matches[0]


def as_exact(x, tolerance: float = DEFAULT_RECOGNITION_TOL) -> QuadExt | None:
    """The exact value of an eigenvalue, or None when it has no unique form.

    A QuadExt passes through, an integer goes through `QuadExt.from_int`,
    and a float goes to `recognize_quadext`, whose AmbiguousMatchError
    becomes None.
    """
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, np.integer)):
        return QuadExt.from_int(int(x))
    try:
        return recognize_quadext(float(x), tolerance=tolerance)
    except AmbiguousMatchError:
        return None


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
