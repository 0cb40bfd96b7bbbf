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

import numpy as np

from .algebraic import (
    DEFAULT_RECOGNITION_TOL,
    AmbiguousMatchError,
    InvalidSupportError,
    QuadExt,
    classify_support,
    is_perfect_square,
    recognize_quadext,
    square_free_part,
)
from .corona_spectra import (
    CoronaParams,
    CoronaSpectrum,
    corona_spectrum,
    corona_transition_element,
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

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "verdict": self.verdict,
            "basis": self.basis,
            "strongly_cospectral": self.strongly_cospectral,
            "support": list(self.support),
            "delta": self.delta,
            "g": self.g,
            "lambda_plus": list(self.lambda_plus),
            "lambda_minus": list(self.lambda_minus),
            "tau0": self.tau0,
            "phase": self.phase,
            "refutation_witness": self.refutation_witness,
        }


@dataclass(frozen=True)
class PeriodicityReport:
    """Whether a vertex returns to itself with fidelity one at some time."""

    vertex: object
    periodic: bool
    case: str
    basis: str
    delta: object = None
    witness: object = None

    def to_json_dict(self) -> dict:
        return {
            "vertex": self.vertex,
            "periodic": self.periodic,
            "case": self.case,
            "basis": self.basis,
            "delta": self.delta,
            "witness": self.witness,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "target_epsilon": self.target_epsilon,
            "l_bound": self.l_bound,
            "achieved": self.achieved,
            "basis": self.basis,
            "best_l": self.best_l,
            "time": self.time,
            "fidelity": self.fidelity,
        }


@dataclass(frozen=True)
class K2CoronaVerdict:
    """Transfer verdict for the two base vertices of a two-vertex base."""

    n2: int
    r2: int
    verdict: str
    basis: str
    provenance: str
    witness: object = None

    def to_json_dict(self) -> dict:
        return {
            "n2": self.n2,
            "r2": self.r2,
            "verdict": self.verdict,
            "basis": self.basis,
            "provenance": self.provenance,
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# periodicity


def _coerce_exact(x, tolerance: float = DEFAULT_RECOGNITION_TOL):
    """QuadExt for ints, QuadExts, and recognizable floats; None otherwise."""
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, np.integer)):
        return QuadExt.from_int(int(x))
    try:
        return recognize_quadext(float(x), tolerance=tolerance)
    except AmbiguousMatchError:
        return None


def is_periodic_vertex(support, vertex=None) -> PeriodicityReport:
    """Decide periodicity from the eigenvalue support alone.

    Periodic iff all support values are integers, or all share the form
    (a + b*sqrt(delta))/2 with a common a and square-free delta.
    """
    if not support:
        raise ValueError("periodicity needs a nonempty support")
    exact = []
    for x in support:
        e = _coerce_exact(x)
        if e is None:
            return PeriodicityReport(
                vertex=vertex,
                periodic=False,
                case=UNDECIDED,
                basis="unrecognized-eigenvalues",
                witness=float(x),
            )
        exact.append(e)
    try:
        _, delta, _ = _common_form(exact)
    except InvalidSupportError as err:
        return PeriodicityReport(
            vertex=vertex,
            periodic=False,
            case="refuted",
            basis="mixed-support-form",
            witness=str(err),
        )
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


def _common_form(exact):
    from .algebraic import common_half_form

    return common_half_form(exact)


def _integral_support(support):
    """Support as a list of plain ints, or None when any value is not integral."""
    out = []
    for x in support:
        if isinstance(x, QuadExt):
            if not x.is_integer:
                return None
            out.append(x.as_integer())
            continue
        xf = float(x)
        r = round(xf)
        if abs(xf - r) > 1e-6:
            return None
        out.append(int(r))
    return out


def corona_base_periodicity(
    params: CoronaParams, base_support, vertex=None
) -> PeriodicityReport:
    """Periodicity of a base vertex of the corona, from base support data.

    The support of (v,0) consists of both members of every pair spawned by
    a base support eigenvalue plus the top pair, so the decision reduces to
    exact conditions on the pair radicands.  Splits on whether 2*r1 + t
    equals s: if not, all radicands must be perfect squares; if so, a
    single square-free delta must make every gap an integer multiple of
    sqrt(delta), which forces delta = square-free part of n2 and then
    delta | n2.
    """
    ints = _integral_support(base_support)
    if ints is None:
        values = _corona_support_values(params, base_support)
        return is_periodic_vertex(values, vertex)

    top = 2 * params.r1
    rest = sorted({th for th in ints if th != top}, reverse=True)

    if params.s == 2 * params.r1 + params.t:
        _, delta_star = square_free_part(params.n2)
        if delta_star != 1:
            if rest:
                x = rest[0] - params.s + params.t
                return PeriodicityReport(
                    vertex=vertex,
                    periodic=False,
                    case="refuted",
                    basis="surd-multiple-violation",
                    witness=x,
                )
            assert params.n2 % delta_star == 0
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
            return PeriodicityReport(
                vertex=vertex,
                periodic=False,
                case="refuted",
                basis="non-square-pair-gap",
                witness=(th, d),
            )
    d_top = top_radicand(params)
    if not is_perfect_square(d_top):
        return PeriodicityReport(
            vertex=vertex,
            periodic=False,
            case="refuted",
            basis="non-square-top-gap",
            witness=(top, d_top),
        )
    return PeriodicityReport(
        vertex=vertex, periodic=True, case="integer-case", basis="integer-support", delta=1
    )


def _corona_support_values(params: CoronaParams, base_support):
    """Both pair members for every support eigenvalue, top pair included."""
    out = []
    top = 2 * params.r1
    s, t = params.s, params.t
    for th in base_support:
        thf = float(th)
        if abs(thf - top) <= 1e-9:
            continue
        d = (thf - s + t) ** 2 + 4 * params.n2
        root = math.sqrt(d)
        out.append((thf + s + t + root) / 2.0)
        out.append((thf + s + t - root) / 2.0)
    d_top = top_radicand(params)
    root, delta = square_free_part(d_top)
    out.append(QuadExt(top + s + t, root, delta))
    out.append(QuadExt(top + s + t, -root, delta))
    return out


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
    analysis is re-run exactly: the two pair radicands x^2 + 4*n2 and
    (x+2)^2 + 4*n2 with x = n2 - 2*r2 - 1 can never both be perfect
    squares, so the endpoint is not even periodic.  Odd composite n2 is
    outside both rules and stays undecided.
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
        x = n2 - 2 * r2 - 1
        d0 = x * x + 4 * n2
        d2 = (x + 2) ** 2 + 4 * n2
        bad = [d for d in (d0, d2) if not is_perfect_square(d)]
        assert bad, "both pair radicands are squares; impossible for odd prime order"
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


def pst_certify(
    dec: SpectralDecomposition,
    u: int,
    v: int,
    tol: float = 1e-8,
    recognition_tol: float = 1e-9,
) -> PSTReport:
    """Decide perfect transfer between u and v from a decomposition.

    Chain: strong cospectrality, exact recognition of the support, the
    common half-integer form with square-free delta, and the parity
    classification against the measured projector signs.  On success the
    minimum time is tau0 = pi/(g*sqrt(delta)) and the arrival amplitude
    sigma * exp(-i*tau0*theta0) is recorded as the phase.
    """
    flag, signs = strong_cospectrality(dec, u, v, tol)
    if not flag:
        return _not_strongly_cospectral(u, v, dec.eigenvalues, signs)
    supported = [(th, sg) for th, sg in zip(dec.eigenvalues, signs) if sg != 0]
    return _certify_support(u, v, supported, recognition_tol)


def corona_pst_certify(
    spectrum: CoronaSpectrum,
    u: int,
    v: int,
    tol: float = 1e-8,
) -> PSTReport:
    """Decide perfect transfer between corona base vertices in closed form.

    Same chain as `pst_certify`, fed by `CoronaSpectrum.base_signs` instead
    of dense corona projectors, so the cost is that of the factor
    decompositions.  Exact values skip recognition.  Float values (from
    non-integral base eigenvalues) are never merged by tolerance: two
    supported values within tol of each other, one of them a float, give
    undecided-numeric.  So tol bounds both the projector entries matched
    by `strong_cospectrality` and the eigenvalue gap below which two
    supported values count as an unresolved coincidence.
    """
    flag, values, signs = spectrum.base_signs(u, v, tol)
    if not flag:
        return _not_strongly_cospectral(u, v, [float(x) for x in values], signs)
    supported = [(x, sg) for x, sg in zip(values, signs) if sg != 0]
    for (x, _), (y, _) in zip(supported, supported[1:]):
        exact = isinstance(x, QuadExt) and isinstance(y, QuadExt)
        if not exact and float(x) - float(y) <= tol:
            return PSTReport(
                u=u,
                v=v,
                verdict=UNDECIDED,
                basis="unresolved-coincidence",
                strongly_cospectral=True,
                support=tuple(float(w) for w, _ in supported),
                refutation_witness=[float(x), float(y)],
            )
    return _certify_support(u, v, supported, DEFAULT_RECOGNITION_TOL)


def _not_strongly_cospectral(u, v, eigenvalues, signs) -> PSTReport:
    return PSTReport(
        u=u,
        v=v,
        verdict=NO_PST,
        basis="not-strongly-cospectral",
        strongly_cospectral=False,
        refutation_witness=[th for th, sg in zip(eigenvalues, signs) if sg == 0],
    )


def _certify_support(u, v, supported, recognition_tol) -> PSTReport:
    """Exact tail shared by both certifiers, on (eigenvalue, sign) pairs.

    Recognition (QuadExt values pass through), the common half-integer
    form, the parity classification against the measured signs, and on
    success tau0 = pi/(g*sqrt(delta)) with arrival amplitude
    sigma * exp(-i*tau0*theta0) as the phase.
    """
    exact = []
    for th, _ in supported:
        e = _coerce_exact(th, recognition_tol)
        if e is None:
            return PSTReport(
                u=u,
                v=v,
                verdict=UNDECIDED,
                basis="unrecognized-eigenvalues",
                strongly_cospectral=True,
                support=tuple(float(w) for w, _ in supported),
                refutation_witness=float(th),
            )
        exact.append(e)

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
    for (th, sg), e in zip(supported, exact):
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


def _chunked_scan(evaluate, times, ls, epsilon, best):
    """Update (best_l, best_time, best_fid, hit) from one chunk of times."""
    fids = np.abs(evaluate(times)) ** 2
    threshold = 1.0 - epsilon
    hits = np.nonzero(fids >= threshold)[0]
    if hits.size:
        k = int(hits[0])
        return int(ls[k]), float(times[k]), float(fids[k]), True
    k = int(np.argmax(fids))
    if best is None or fids[k] > best[2]:
        best = (int(ls[k]), float(times[k]), float(fids[k]))
    return best[0], best[1], best[2], False


def pgst_scan(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    epsilon: float,
    l_bound: int,
    g: int,
    l_start: int = 0,
    chunk: int = SCAN_CHUNK,
):
    """Scan T_l = (4l + 2/g)*pi for l in [l_start, l_bound] on base fidelity.

    Stops at the first l whose fidelity reaches 1 - epsilon; otherwise
    reports the global maximum with ties resolved to the smaller l.
    Returns (best_l, time, fidelity, achieved).
    """
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if l_bound < l_start:
        raise ValueError(f"l_bound {l_bound} below start {l_start}")
    best = None
    for lo in range(l_start, l_bound + 1, chunk):
        ls = np.arange(lo, min(lo + chunk, l_bound + 1))
        times = (4.0 * ls + 2.0 / g) * math.pi
        b_l, b_t, b_f, hit = _chunked_scan(
            lambda ts: corona_transition_element(gdec, params, u, v, ts),
            times,
            ls,
            epsilon,
            best,
        )
        best = (b_l, b_t, b_f)
        if hit:
            return b_l, b_t, b_f, True
    return best[0], best[1], best[2], False


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
    be irrational; a rational one raises ValueError like any other unmet
    precondition.
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
        for th in gdec.eigenvalues[1:]:
            r = round(float(th))
            if abs(float(th) - r) > 1e-6:
                continue
            d = pair_radicand(params, int(r))
            if is_perfect_square(d):
                raise ValueError(
                    f"pair gap sqrt({d}) at base eigenvalue {int(r)} is rational; "
                    "the search guarantee requires every pair gap of a base on "
                    f"{params.n1} >= 3 vertices to be irrational"
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

    Applicability for odd m > 2 splits on R = 4*(m-1)^2 + (2m-1)^2, the
    top radicand over 4: branch one when R is a perfect square, branch two
    when R is irrational with square-free part different from that of
    (m-1)^2 + 1.  Both branches scan T = 2*pi*l for l in [1, l_bound] and
    score candidates purely by fidelity.
    """
    if m <= 2 or m % 2 == 0:
        raise ValueError(f"the cocktail party search needs an odd m greater than 2, got {m}")
    if epsilon <= 0 or epsilon > 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if l_bound < 1:
        raise ValueError(f"l_bound must be at least 1, got {l_bound}")

    r = 4 * (m - 1) ** 2 + (2 * m - 1) ** 2
    c1 = (m - 1) ** 2 + 1
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
    params = CoronaParams(n1=2 * m, n2=1, r1=2 * m - 2, r2=0)
    u, v = 0, 1

    best = None
    for lo in range(1, l_bound + 1, SCAN_CHUNK):
        ls = np.arange(lo, min(lo + SCAN_CHUNK, l_bound + 1))
        times = 2.0 * math.pi * ls
        b_l, b_t, b_f, hit = _chunked_scan(
            lambda ts: corona_transition_element(gdec, params, u, v, ts),
            times,
            ls,
            epsilon,
            best,
        )
        best = (b_l, b_t, b_f)
        if hit:
            break
    else:
        hit = False
    return PGSTSearchResult(
        u=u,
        v=v,
        target_epsilon=epsilon,
        l_bound=l_bound,
        achieved=hit,
        basis=basis,
        best_l=best[0],
        time=best[1],
        fidelity=best[2],
    )


# ---------------------------------------------------------------------------
# orchestration


def corona_base_pst_check(
    g: Graph,
    h: Graph,
    u: int,
    v: int,
    tol: float = 1e-8,
    cluster_tol: float = 1e-7,
) -> PSTReport:
    """Full transfer decision between two base vertices of a corona.

    Cheap exact refutations run first on the base supports: the size
    bound, the two-vertex-base rules, the gap rules, then the periodicity
    split.  Only if all of those pass (or do not apply) is H decomposed and
    the closed-form spectrum handed to `corona_pst_certify`.  No matrix
    larger than max(n1, n2) is built; the dense corona is a test oracle.
    tol is passed on to the certifier, where it also acts as the
    eigenvalue separation threshold for float-valued support.
    """
    params = CoronaParams.from_graphs(g, h)
    if u == v or not (0 <= u < params.n1 and 0 <= v < params.n1):
        raise ValueError(f"need two distinct base vertices below {params.n1}")
    gdec = decompose(signless_laplacian(g), cluster_tol)
    supports = {w: eigenvalue_support(gdec, w) for w in (u, v)}
    integral = {w: _integral_support(sup) for w, sup in supports.items()}

    if all(ints is not None for ints in integral.values()):
        exact = {
            w: tuple(QuadExt.from_int(k) for k in ints)
            for w, ints in integral.items()
        }
        for w in (u, v):
            holds, witness = periodicity_size_bound(params, integral[w])
            if not holds:
                return PSTReport(
                    u=u,
                    v=v,
                    verdict=NO_PST,
                    basis="size-bound",
                    support=exact[w],
                    refutation_witness={"vertex": w, "eigenvalue": witness},
                )
        if params.n1 == 2:
            k2 = k2_corona_no_pst(params.n2, params.r2)
            if k2.verdict == NO_PST:
                return PSTReport(
                    u=u,
                    v=v,
                    verdict=NO_PST,
                    basis=k2.basis,
                    support=exact[u],
                    refutation_witness={
                        "provenance": k2.provenance,
                        "witness": k2.witness,
                    },
                )
        for w in (u, v):
            fired, which, witness = support_gap_refutation(params, integral[w])
            if fired:
                return PSTReport(
                    u=u,
                    v=v,
                    verdict=NO_PST,
                    basis=which,
                    support=exact[w],
                    refutation_witness={"vertex": w, "witness": witness},
                )
        for w in (u, v):
            per = corona_base_periodicity(params, integral[w], vertex=w)
            if per.case != UNDECIDED and not per.periodic:
                return PSTReport(
                    u=u,
                    v=v,
                    verdict=NO_PST,
                    basis="nonperiodic-endpoint",
                    support=exact[w],
                    refutation_witness={
                        "vertex": w,
                        "rule": per.basis,
                        "witness": per.witness,
                    },
                )

    hdec = decompose(signless_laplacian(h), cluster_tol)
    return corona_pst_certify(corona_spectrum(gdec, hdec, params), u, v, tol)
