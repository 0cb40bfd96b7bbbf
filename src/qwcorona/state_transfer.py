"""Decision procedures for walk behavior: periodicity, transfer, time search.

Three layers, ordered by strength:

  refutations    parameter inequalities on the base support that rule out
                 periodicity of a corona base vertex, hence transfer
  certification  exact eigenvalue-form and parity analysis that proves or
                 disproves perfect transfer and produces the minimum time;
                 between corona base vertices it runs in closed form from
                 the factor spectra, and the dense corona matrix serves
                 only as a test and CLI oracle
  search         bounded integer scans for times with near-perfect
                 fidelity, guaranteed to succeed when the relevant pair
                 gap is an irrational surd

Every verdict carries a `basis` token naming the rule that produced it and
enough witness data to re-check the claim independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebraic import (
    InternalInvariantError,
    InvalidSupportError,
    QuadExt,
    as_exact,
    classify_support,
    common_half_form,
    is_perfect_square,
    square_free_part,
)
from .corona_spectra import (
    CoronaParams,
    CoronaSpectrum,
    _amplitude_terms,
    _as_int,
    _base_pairs,
    corona_spectrum,
    pair_radicand,
    top_radicand,
)
from .graphs import Graph, cocktail_party_graph, signless_laplacian
from .spectra import (
    SpectralDecomposition,
    decompose,
    eigenvalue_support,
    strong_cospectrality,
)

PST = "PST"
NO_PST = "no-PST"
UNDECIDED = "undecided-numeric"

DEFAULT_EPSILON = 0.01
DEFAULT_L_BOUND = 10**6
SCAN_CHUNK = 8192
# phases are carried as integer fractions of a turn, in units of 2^-64
_TURN_BITS = 64
_TURN = 1 << _TURN_BITS


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class PSTReport:
    """Outcome of a perfect state transfer decision between two vertices."""

    u: int
    v: int
    verdict: str
    basis: str
    strongly_cospectral: object = None
    support: tuple = ()
    delta: object = None
    g: object = None
    lambda_plus: tuple = ()
    lambda_minus: tuple = ()
    tau0: object = None
    phase: object = None
    refutation_witness: object = None


@dataclass(frozen=True)
class PeriodicityReport:
    """Whether a vertex returns to itself with fidelity one at some time."""

    vertex: object
    periodic: bool
    case: str
    basis: str
    delta: object = None
    witness: object = None


@dataclass(frozen=True)
class PGSTSearchResult:
    """Best time found by a bounded scan for near-perfect transfer."""

    u: int
    v: int
    target_epsilon: float
    l_bound: int
    achieved: bool
    basis: str
    best_l: object = None
    time: object = None
    fidelity: object = None


@dataclass(frozen=True)
class K2CoronaVerdict:
    """Transfer verdict for the two base vertices of a two-vertex base."""

    n2: int
    r2: int
    verdict: str
    basis: str
    provenance: str
    witness: object = None


# ---------------------------------------------------------------------------
# periodicity


def is_periodic_vertex(support, vertex=None) -> PeriodicityReport:
    """Decide periodicity from the eigenvalue support alone.

    Periodic iff all support values are integers, or all share the form
    (a + b*sqrt(delta))/2 with a common a and square-free delta.  The
    support is recognized as one list, so a float surd needs its conjugate
    in it.
    """
    if not support:
        raise ValueError("periodicity needs a nonempty support")
    exact = as_exact(support)
    for x, e in zip(support, exact):
        if e is None:
            return PeriodicityReport(
                vertex=vertex,
                periodic=False,
                case=UNDECIDED,
                basis="unrecognized-eigenvalues",
                witness=float(x),
            )
    try:
        _, delta, _ = common_half_form(exact)
    except InvalidSupportError as err:
        return _refuted(vertex, "mixed-support-form", str(err))
    if delta == 1:
        return PeriodicityReport(
            vertex=vertex, periodic=True, case="integer-case", basis="integer-support", delta=1
        )
    return PeriodicityReport(
        vertex=vertex,
        periodic=True,
        case="quadratic-case",
        basis="common-surd-support",
        delta=delta,
    )


def _refuted(vertex, basis: str, witness) -> PeriodicityReport:
    return PeriodicityReport(vertex, False, "refuted", basis, witness=witness)


def _integral_support(support):
    """Support as a list of plain ints, or None when any value is not integral."""
    out = []
    for x in support:
        if isinstance(x, QuadExt):
            k = x.as_integer() if x.is_integer else None
        else:
            k = _as_int(x)
        if k is None:
            return None
        out.append(k)
    return out


def corona_base_periodicity(
    params: CoronaParams, base_support, vertex=None
) -> PeriodicityReport:
    """Periodicity of a base vertex of the corona, from base support data.

    The support of (v,0) consists of both members of every pair spawned by
    a base support eigenvalue plus the top pair, so the decision reduces to
    exact conditions on the pair radicands.

    A non-integral theta in the base support refutes periodicity.  Its
    pair members sum to theta + s + t, so an integral support of (v,0)
    makes theta an integer.  A quadratic one has members
    (a + b*sqrt(delta))/2 with one a, which the top pair fixes at
    2*r1 + s + t; so theta = 2*r1 + e*sqrt(delta) with e != 0, and the
    squared gap (theta - s + t)^2 + 4*n2, rational as (b+ - b-)^2*delta/4,
    forces 2*r1 - s + t = 0.  For n1 >= 3 and r1 >= 1 that cannot hold
    (s <= n1 + 2*n2 - 3 < 2 + n2*(n1 - 1) <= 2*r1 + t), so it leaves K2
    and edgeless bases, whose spectra are integral: a non-integral support
    there raises ValueError.

    For an integral support the split is on whether 2*r1 + t equals s: if
    not, all radicands must be perfect squares; if so, a single
    square-free delta must make every gap an integer multiple of
    sqrt(delta), which forces delta = square-free part of n2 and then
    delta | n2.
    """
    balanced = params.s == 2 * params.r1 + params.t
    ints = _integral_support(base_support)
    if ints is None:
        if balanced:
            raise ValueError(
                "a base with s = 2*r1 + t is K2 or edgeless and has an integral "
                f"spectrum, got support {list(base_support)}"
            )
        theta = next(x for x in base_support if _integral_support([x]) is None)
        return _refuted(vertex, "non-integral-base-eigenvalue", theta)

    top = 2 * params.r1
    rest = sorted({th for th in ints if th != top}, reverse=True)

    if balanced:
        _, delta_star = square_free_part(params.n2)
        if delta_star != 1:
            if rest:
                x = rest[0] - params.s + params.t
                return _refuted(vertex, "surd-multiple-violation", x)
            if params.n2 % delta_star:
                raise InternalInvariantError(
                    f"square-free part {delta_star} does not divide n2 = {params.n2}"
                )
            return PeriodicityReport(
                vertex=vertex,
                periodic=True,
                case="quadratic-case",
                basis="common-surd-support",
                delta=delta_star,
            )
        # delta 1 coincides with the integer case below

    for th in rest:
        d = pair_radicand(params, th)
        if not is_perfect_square(d):
            return _refuted(vertex, "non-square-pair-gap", (th, d))
    d_top = top_radicand(params)
    if not is_perfect_square(d_top):
        return _refuted(vertex, "non-square-top-gap", (top, d_top))
    return PeriodicityReport(
        vertex=vertex, periodic=True, case="integer-case", basis="integer-support", delta=1
    )


# ---------------------------------------------------------------------------
# refutations


def periodicity_size_bound(params: CoronaParams, base_support):
    """Necessary size inequalities for a periodic corona base vertex.

    Requires n2 >= |theta - s + t| + 1 for every support eigenvalue below
    the top and n2*(n1-1)^2 >= |2*r1 - s + t| + 1.  Returns (holds,
    violating eigenvalue or None).
    """
    ints = _integral_support(base_support)
    if ints is None:
        raise ValueError("size bound needs an integral base support")
    top = 2 * params.r1
    for th in ints:
        if th == top:
            continue
        if params.n2 < abs(th - params.s + params.t) + 1:
            return False, th
    if params.n2 * (params.n1 - 1) ** 2 < abs(top - params.s + params.t) + 1:
        return False, top
    return True, None


def support_gap_refutation(params: CoronaParams, base_support):
    """Nonperiodicity from gap comparisons on the base support.

    Some pair of support eigenvalues below the top has
    0 < |lam - s + t| - |mu - s + t| < 3, or some gamma has
    0 < ||2*r1 - s + t| - (n1-1)*|gamma - s + t|| < 3.  (The differences
    are integers, and an integer d has d^2 in {delta, 4*delta} with
    square-free delta only for d in {1, 2}, so no surd variant of these
    rules can add a refutation.)  Returns (nonperiodic, rule token,
    witness).
    """
    ints = _integral_support(base_support)
    if ints is None:
        raise ValueError("gap refutation needs an integral base support")
    top = 2 * params.r1
    rest = sorted({th for th in ints if th != top}, reverse=True)
    gaps = {th: abs(th - params.s + params.t) for th in rest}
    top_gap = abs(top - params.s + params.t)

    for lam in rest:
        for mu in rest:
            if lam == mu:
                continue
            d = gaps[lam] - gaps[mu]
            if 0 < d < 3:
                return True, "close-gap-pair", (lam, mu)
    for gamma in rest:
        d = abs(top_gap - (params.n1 - 1) * gaps[gamma])
        if 0 < d < 3:
            return True, "close-top-ratio", gamma

    return False, None, None


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def k2_corona_no_pst(n2: int, r2: int) -> K2CoronaVerdict:
    """Transfer verdict between the two base vertices of a K2 corona.

    For even n2 the answer is no transfer, imported from the literature
    and labeled as such.  For n2 = 1 or an odd prime the square-difference
    analysis is re-run exactly: the pair radicands at theta = 0 and at the
    top, x^2 + 4*n2 and (x+2)^2 + 4*n2 with x = n2 - 2*r2 - 1, can never
    both be perfect squares, so the endpoint is not even periodic.  Odd
    composite n2 is outside both rules and stays undecided.
    """
    if n2 < 1:
        raise ValueError(f"attachment order must be positive, got {n2}")
    if not 0 <= r2 <= n2 - 1:
        raise ValueError(f"attachment degree {r2} out of range [0, {n2 - 1}]")
    if n2 % 2 == 0:
        return K2CoronaVerdict(
            n2=n2,
            r2=r2,
            verdict=NO_PST,
            basis="even-order-rule",
            provenance="external-literature",
        )
    if n2 == 1 or _is_prime(n2):
        params = CoronaParams(n1=2, n2=n2, r1=1, r2=r2)
        radicands = (pair_radicand(params, 0), top_radicand(params))
        bad = [d for d in radicands if not is_perfect_square(d)]
        if not bad:
            raise InternalInvariantError(
                "both pair radicands are squares; impossible for odd prime order"
            )
        return K2CoronaVerdict(
            n2=n2,
            r2=r2,
            verdict=NO_PST,
            basis="prime-order-rule",
            provenance="derived",
            witness=bad[0],
        )
    return K2CoronaVerdict(
        n2=n2,
        r2=r2,
        verdict="undecided",
        basis="outside-rule-scope",
        provenance="derived",
    )


# ---------------------------------------------------------------------------
# certification


def pst_certify(dec: SpectralDecomposition, u: int, v: int) -> PSTReport:
    """Decide perfect transfer between u and v from a decomposition.

    Chain: strong cospectrality, exact recognition of the support, the
    common half-integer form with square-free delta, and the parity
    classification against the measured projector signs.  The support is
    recognized as one list: a float surd is read from its conjugate, which
    a support of an integer matrix always holds; a value left unrecognized
    gives undecided-numeric.  On success the minimum time is
    tau0 = pi/(g*sqrt(delta)) and the arrival amplitude
    sigma * exp(-i*tau0*theta0) is recorded as the phase.
    """
    flag, signs = strong_cospectrality(dec, u, v)
    if not flag:
        return _not_strongly_cospectral(u, v, dec.eigenvalues, signs)
    supported = [(th, sg) for th, sg in zip(dec.eigenvalues, signs) if sg != 0]
    exact = as_exact([th for th, _ in supported])
    if None in exact:
        return PSTReport(
            u=u,
            v=v,
            verdict=UNDECIDED,
            basis="unrecognized-eigenvalues",
            strongly_cospectral=True,
            support=tuple(float(w) for w, _ in supported),
            refutation_witness=float(supported[exact.index(None)][0]),
        )
    return _certify_support(u, v, [(e, sg) for e, (_, sg) in zip(exact, supported)])


def corona_pst_certify(spectrum: CoronaSpectrum, u: int, v: int) -> PSTReport:
    """Decide perfect transfer between corona base vertices in closed form.

    Same chain as `pst_certify`, fed by `CoronaSpectrum.base_signs` instead
    of dense corona projectors, so the cost is that of the factor
    decompositions, and no value is recognized from a float.  A supported
    value that is not a QuadExt comes from a non-integral theta in G's
    support of u, which makes (u,0) nonperiodic (`corona_base_periodicity`),
    so the pair has no PST (Godsil, "Periodic graphs", 2011); the verdict
    is no-PST with that function's witness.  Every other support is exact.
    """
    flag, values, signs = spectrum.base_signs(u, v)
    if not flag:
        return _not_strongly_cospectral(u, v, [float(x) for x in values], signs)
    supported = [(x, sg) for x, sg in zip(values, signs) if sg != 0]
    if all(isinstance(x, QuadExt) for x, _ in supported):
        return _certify_support(u, v, supported)
    base_support = eigenvalue_support(spectrum.gdec, u)
    per = corona_base_periodicity(spectrum.params, base_support, vertex=u)
    if per.basis != "non-integral-base-eigenvalue":
        raise InternalInvariantError(
            f"a float corona value is supported at {u}, but the base support "
            f"{list(base_support)} gives {per.basis}"
        )
    return PSTReport(
        u=u,
        v=v,
        verdict=NO_PST,
        basis="nonperiodic-endpoint",
        strongly_cospectral=True,
        support=tuple(x for x, _ in supported),
        refutation_witness={"vertex": u, "rule": per.basis, "witness": per.witness},
    )


def _not_strongly_cospectral(u, v, eigenvalues, signs) -> PSTReport:
    return PSTReport(
        u=u,
        v=v,
        verdict=NO_PST,
        basis="not-strongly-cospectral",
        strongly_cospectral=False,
        refutation_witness=[th for th, sg in zip(eigenvalues, signs) if sg == 0],
    )


def _certify_support(u, v, supported) -> PSTReport:
    """Exact tail shared by both certifiers, on (QuadExt, sign) pairs.

    The common half-integer form, the parity classification against the
    measured signs, and on success tau0 = pi/(g*sqrt(delta)) with arrival
    amplitude sigma * exp(-i*tau0*theta0) as the phase.
    """
    exact = [e for e, _ in supported]
    try:
        cls = classify_support(exact)
    except (InvalidSupportError, ValueError) as err:
        return PSTReport(
            u=u,
            v=v,
            verdict=NO_PST,
            basis="support-form",
            strongly_cospectral=True,
            support=tuple(exact),
            refutation_witness=str(err),
        )

    # measured sign times predicted parity sign must be constant
    plus = set(cls.lambda_plus)
    reference = None
    for e, sg in supported:
        predicted = 1 if e in plus else -1
        prod = sg * predicted
        if reference is None:
            reference = prod
        elif prod != reference:
            return PSTReport(
                u=u,
                v=v,
                verdict=NO_PST,
                basis="parity-mismatch",
                strongly_cospectral=True,
                support=tuple(cls.support),
                delta=cls.delta,
                g=cls.g,
                lambda_plus=tuple(cls.lambda_plus),
                lambda_minus=tuple(cls.lambda_minus),
                refutation_witness=float(e),
            )

    # theta0 sits in lambda-plus, so its measured sign equals the constant
    theta0 = cls.support[0]
    tau0 = math.pi / (cls.g * math.sqrt(cls.delta))
    phase = reference * complex(np.exp(-1j * tau0 * float(theta0)))
    return PSTReport(
        u=u,
        v=v,
        verdict=PST,
        basis="parity-certificate",
        strongly_cospectral=True,
        support=tuple(cls.support),
        delta=cls.delta,
        g=cls.g,
        lambda_plus=tuple(cls.lambda_plus),
        lambda_minus=tuple(cls.lambda_minus),
        tau0=tau0,
        phase=phase,
    )


# ---------------------------------------------------------------------------
# bounded time search


@dataclass(frozen=True)
class _PhaseTerm:
    """One term weight * exp(-i*tau*mu) of a base amplitude, with
    mu = (p + sign*sqrt(d))/q held exactly.

    An integral base eigenvalue gives the exact pair member (d its pair
    radicand, q = 2); any other gives the binary fraction of its float
    value (d = 0, sign = 0).  Both go through the same integer arithmetic.
    """

    weight: float
    p: int
    q: int
    d: int = 0
    sign: int = 0

    def turns(self, r: Fraction) -> int:
        """frac(r*mu) in units of 2^-64, within two units, for rational r >= 0."""
        n, m = r.numerator, r.denominator
        root = math.isqrt(n * n * self.d << 2 * _TURN_BITS)
        return (((n * self.p) << _TURN_BITS) + self.sign * root) // (m * self.q) % _TURN


def _phase_terms(gdec, params, u, v) -> list:
    """The rows of `_amplitude_terms` as exact phase terms."""
    terms = []
    for weight, a, d, sign in _amplitude_terms(gdec, params, u, v):
        if isinstance(d, int):
            terms.append(_PhaseTerm(weight, a, 2, d, sign))
        else:
            terms.append(_PhaseTerm(weight, *((a + sign * math.sqrt(d)) / 2.0).as_integer_ratio()))
    return terms


def _unit_phases(turns) -> np.ndarray:
    """exp(-2*pi*i*k/2^64) for 64-bit turn counts k, taken as signed."""
    signed = np.asarray(turns, dtype=np.uint64).view(np.int64)
    return np.exp(-1j * (signed * (2 * math.pi / _TURN)))


def _exact_phase_scan(terms, step, offset, time_of, epsilon, l_start, l_bound):
    """The PGST scan over tau_l = 2*pi*(step*l + offset), l in [l_start, l_bound].

    The table W[j, k] = exp(-2*pi*i*frac(k*step*mu_j)), k < SCAN_CHUNK, is
    built once from 64-bit turns wrapping mod 2^64, so entry k is off by
    at most 2k units of 2^-64 turns.  Each chunk from lo on then takes one
    exact integer phase frac((step*lo + offset)*mu_j) per term and one
    vector-matrix product, and no error carries over from chunk to chunk.
    Stops at the first l whose fidelity reaches 1 - epsilon; otherwise
    reports the global maximum with ties resolved to the smaller l.
    Returns (best_l, time_of(best_l), fidelity, achieved).
    """
    weights = np.array([term.weight for term in terms])
    ks = np.arange(min(SCAN_CHUNK, l_bound - l_start + 1), dtype=np.uint64)
    per_step = np.array([term.turns(step) for term in terms], dtype=np.uint64)
    table = _unit_phases(per_step[:, None] * ks)
    threshold = 1.0 - epsilon
    best_l, best_fid = l_start, -1.0
    for lo in range(l_start, l_bound + 1, SCAN_CHUNK):
        start = step * lo + offset
        coeffs = weights * _unit_phases([term.turns(start) for term in terms])
        amps = coeffs @ table[:, : l_bound + 1 - lo]
        fids = amps.real**2
        fids += amps.imag**2
        k = int(np.argmax(fids))
        if fids[k] >= threshold:
            k = int(np.argmax(fids >= threshold))
            return lo + k, time_of(lo + k), float(fids[k]), True
        if fids[k] > best_fid:
            best_l, best_fid = lo + k, float(fids[k])
    return best_l, time_of(best_l), best_fid, False


def pgst_scan(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    epsilon: float,
    l_bound: int,
    g: int,
    l_start: int = 0,
):
    """Scan T_l = (4l + 2/g)*pi for l in [l_start, l_bound] on base fidelity.

    Stops at the first l whose fidelity reaches 1 - epsilon; otherwise
    reports the global maximum with ties resolved to the smaller l.
    Returns (best_l, time, fidelity, achieved), time being the float
    (4.0*l + 2.0/g)*pi.

    The fidelity is that at the exact T_l.  Phases are exact integer
    fractions of a turn, so its error does not grow with l: about 1e-15
    when every base eigenvalue is integral, at l = 10^12 as at l = 1.  A
    non-integral eigenvalue enters as its float value, whose rounding
    (about 1e-15 relative) then shifts the phase by that much times T_l.
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if l_start < 0:
        raise ValueError(f"l_start must be non-negative, got {l_start}")
    if l_bound < l_start:
        raise ValueError(f"l_bound {l_bound} below start {l_start}")
    return _exact_phase_scan(
        _phase_terms(gdec, params, u, v),
        Fraction(2),
        Fraction(1, g),
        lambda l: (4.0 * l + 2.0 / g) * math.pi,
        epsilon,
        l_start,
        l_bound,
    )


def pgst_time_search(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    epsilon: float = DEFAULT_EPSILON,
    l_bound: int = DEFAULT_L_BOUND,
) -> PGSTSearchResult:
    """Near-perfect transfer time between corona base vertices, guaranteed.

    Preconditions: the attachment is edgeless; the base pair has certified
    perfect transfer at pi/g with delta = 1; the top pair gap is an
    irrational surd.  The scan then runs over T_l = (4l + 2/g)*pi.  For
    bases on three or more vertices every pair gap below the top must also
    be irrational; on the two-vertex base K2 the rational gap n2 + 1 must
    be a multiple of g.  An unmet precondition raises ValueError.
    """
    if params.r2 != 0:
        raise ValueError(
            "the guaranteed search needs an edgeless attachment graph, "
            f"got degree {params.r2}"
        )
    base = pst_certify(gdec, u, v)
    if base.verdict != PST:
        raise ValueError(
            f"the guaranteed search needs certified base transfer, got {base.verdict} "
            f"({base.basis})"
        )
    if base.delta != 1:
        raise ValueError(
            f"base transfer time must be a rational multiple of pi, got delta {base.delta}"
        )
    d_top = top_radicand(params)
    root_r, sqfree_r = square_free_part(d_top)
    if sqfree_r == 1:
        raise ValueError(
            f"the top pair gap sqrt({d_top}) = {root_r} is rational; the search "
            "guarantee requires an irrational top gap"
        )
    if params.n1 >= 3:
        for _, theta, _, d in _base_pairs(gdec, params)[1:]:
            if isinstance(d, int) and is_perfect_square(d):
                raise ValueError(
                    f"pair gap sqrt({d}) at base eigenvalue {theta} is rational; "
                    "the search guarantee requires every pair gap of a base on "
                    f"{params.n1} >= 3 vertices to be irrational"
                )
    if params.n1 == 2:
        # K2 base: the theta = 0 gap is n2 + 1, and cos(gap*T_l/2) is +/-1
        # at every l only when g divides it
        gap = math.isqrt(pair_radicand(params, 0))
        if gap % base.g:
            raise ValueError(
                f"pair gap {gap} at base eigenvalue 0 is not a multiple of g = {base.g}; "
                "the search guarantee on a two-vertex base requires it"
            )

    best_l, time, fid, achieved = pgst_scan(
        gdec, params, u, v, epsilon, l_bound, base.g
    )
    return PGSTSearchResult(
        u=u,
        v=v,
        target_epsilon=epsilon,
        l_bound=l_bound,
        achieved=achieved,
        basis="irrational-gap-search",
        best_l=best_l,
        time=time,
        fidelity=fid,
    )


def pgst_cocktail(
    m: int, epsilon: float = DEFAULT_EPSILON, l_bound: int = DEFAULT_L_BOUND
) -> PGSTSearchResult:
    """Near-perfect transfer search on the cocktail party corona CP:m with
    a single pendant-style vertex per base vertex, between an antipodal
    base pair.

    Applicability for odd m > 2 splits on the top radicand
    R = 4*(4*(m-1)^2 + (2m-1)^2): branch one when R is a perfect square,
    branch two when R is irrational with square-free part different from
    that of the pair radicand 4*((m-1)^2 + 1) at theta = 2m-2.  Both
    branches scan T = 2*pi*l for l in [1, l_bound] and score candidates
    purely by fidelity.
    """
    if m <= 2 or m % 2 == 0:
        raise ValueError(f"the cocktail party search needs an odd m greater than 2, got {m}")
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if l_bound < 1:
        raise ValueError(f"l_bound must be at least 1, got {l_bound}")

    params = CoronaParams(n1=2 * m, n2=1, r1=2 * m - 2, r2=0)
    r = top_radicand(params)
    c1 = pair_radicand(params, 2 * m - 2)
    if is_perfect_square(r):
        basis = "rational-top-gap"
    elif square_free_part(r)[1] != square_free_part(c1)[1]:
        basis = "distinct-surd-parts"
    else:
        return PGSTSearchResult(
            u=0,
            v=1,
            target_epsilon=epsilon,
            l_bound=l_bound,
            achieved=False,
            basis="hypotheses-not-met",
        )

    g = cocktail_party_graph(m)
    gdec = decompose(signless_laplacian(g))
    best_l, time, fid, achieved = _exact_phase_scan(
        _phase_terms(gdec, params, 0, 1),
        Fraction(1),
        Fraction(0),
        lambda l: 2.0 * math.pi * l,
        epsilon,
        1,
        l_bound,
    )
    return PGSTSearchResult(
        u=0,
        v=1,
        target_epsilon=epsilon,
        l_bound=l_bound,
        achieved=achieved,
        basis=basis,
        best_l=best_l,
        time=time,
        fidelity=fid,
    )


# ---------------------------------------------------------------------------
# orchestration


def _refutation(params: CoronaParams, u: int, v: int, integral: dict):
    """First exact refutation of transfer between base vertices u and v.

    Rules in order: the size bound, the two-vertex-base rules, the gap
    rules, then the periodicity split, each on the integral base supports
    in `integral`.  Returns (basis, vertex whose support is reported,
    witness), or None when no rule fires.
    """
    for w in (u, v):
        holds, witness = periodicity_size_bound(params, integral[w])
        if not holds:
            return "size-bound", w, {"vertex": w, "eigenvalue": witness}
    if params.n1 == 2:
        k2 = k2_corona_no_pst(params.n2, params.r2)
        if k2.verdict == NO_PST:
            return k2.basis, u, {"provenance": k2.provenance, "witness": k2.witness}
    for w in (u, v):
        fired, which, witness = support_gap_refutation(params, integral[w])
        if fired:
            return which, w, {"vertex": w, "witness": witness}
    for w in (u, v):
        per = corona_base_periodicity(params, integral[w], vertex=w)
        if not per.periodic:
            witness = {"vertex": w, "rule": per.basis, "witness": per.witness}
            return "nonperiodic-endpoint", w, witness
    return None


def corona_base_pst_check(g: Graph, h: Graph, u: int, v: int) -> PSTReport:
    """Full transfer decision between two base vertices of a corona.

    Cheap exact refutations run first on the base supports: the size
    bound, the two-vertex-base rules, the gap rules, then the periodicity
    split.  Only if all of those pass (or do not apply) is H decomposed and
    the closed-form spectrum handed to `corona_pst_certify`, which refutes
    a non-integral base support once strong cospectrality holds.  No matrix
    larger than max(n1, n2) is built; the dense corona is a test oracle.
    """
    params = CoronaParams.from_graphs(g, h)
    if u == v or not (0 <= u < params.n1 and 0 <= v < params.n1):
        raise ValueError(f"need two distinct base vertices below {params.n1}")
    gdec = decompose(signless_laplacian(g))
    supports = {w: eigenvalue_support(gdec, w) for w in (u, v)}
    integral = {w: _integral_support(sup) for w, sup in supports.items()}

    if all(ints is not None for ints in integral.values()):
        refuted = _refutation(params, u, v, integral)
        if refuted is not None:
            basis, w, witness = refuted
            return PSTReport(
                u=u,
                v=v,
                verdict=NO_PST,
                basis=basis,
                support=tuple(QuadExt.from_int(k) for k in integral[w]),
                refutation_witness=witness,
            )

    hdec = decompose(signless_laplacian(h))
    return corona_pst_certify(corona_spectrum(gdec, hdec, params), u, v)
