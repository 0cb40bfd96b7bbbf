"""Decision procedures for walk behavior: periodicity, transfer, time search.

Three layers, ordered by strength:

  refutations    integer rules on a corona's order, degree and base support
                 (the size bound, then non-square pair and top radicands)
                 that rule out periodicity of a base vertex, hence
                 transfer; one private ladder, `_refutation`
  certification  exact eigenvalue-form and parity analysis that proves or
                 disproves perfect transfer and produces the minimum time;
                 between corona base vertices it runs in closed form from
                 G's spectrum and H's order and degree; the dense corona
                 matrix is only a test and CLI oracle
  search         bounded integer scans for times with near-perfect
                 fidelity; when the relevant pair gaps are irrational
                 surds the paper's conditions guarantee that such times
                 exist, not that a bounded scan reaches them

Every verdict carries a `basis` token naming the rule that produced it and
enough witness data to re-check the claim independently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebraic import (
    InternalInvariantError,
    InvalidSupportError,
    QuadExt,
    as_exact,
    classify_support,
    is_perfect_square,
)
from .corona_spectra import (
    CoronaParams,
    _as_int,
    _pair_rows,
    _row_keys,
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
_SCAN_OFFSETS = 256  # a scan chunk covers l = lo + k1*_SCAN_OFFSETS + k0, k1 < _SCAN_BLOCKS
_SCAN_BLOCKS = 128
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
class PGSTSearchResult:
    """Best time found by a bounded scan for near-perfect transfer.

    `note` is the first unmet PGST condition of a `pgst_time_search` that
    fell back to a heuristic scan, and None otherwise.
    """

    u: int
    v: int
    target_epsilon: float
    l_bound: int
    achieved: bool
    basis: str
    best_l: object = None
    time: object = None
    fidelity: object = None
    note: object = None


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
        silent = dec.vanishing(u) & dec.vanishing(v)
        return _not_strongly_cospectral(u, v, dec.eigenvalues, signs, silent)
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


def corona_pst_certify(
    gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int
) -> PSTReport:
    """Decide perfect transfer between corona base vertices in closed form.

    Same chain as `pst_certify`, on G's pair rows and G's strong
    cospectrality, so H enters only through n2 and r2.  Shift columns
    vanish on base vertices, and a pair row of theta has column (w,0) a
    nonzero multiple of F_theta e_w (its value is never s), so it takes
    theta's sign.  Rows of one `_row_keys` value merge: silent rows (both
    columns vanish) drop out, and two live rows with different signs break
    strong cospectrality.  A supported float value comes from a
    non-integral theta in G's support of u, and then (u,0) is not periodic
    (Godsil, "Periodic graphs", 2011): no-PST, with the first such theta as
    witness.  Theta's pair members sum to theta + s + t, so they are not
    integers; as quadratic values (a + b*sqrt(delta))/2 of a periodic
    vertex they would share the top pair's a = 2*r1 + s + t, so
    theta = 2*r1 + e*sqrt(delta), and a rational squared gap then forces
    s = 2*r1 + t, which only the integral base K2 meets.  Any other support
    is exact; a QuadExt is built only for a supported value.
    """
    rows = _pair_rows(gdec, params)
    keys, floats = _row_keys(rows)
    flag, theta_signs = strong_cospectrality(gdec, u, v)
    silent = gdec.vanishing(u) & gdec.vanishing(v)
    groups = {}  # key -> its float, then the base eigenvalue index of each of its rows
    for key, x, row in zip(keys, floats, rows):
        groups.setdefault(key, [x]).append(row[5])
    merged = []  # per value, descending: (its key, its float, its sign, whether silent)
    for key, (x, *idx) in sorted(groups.items(), key=lambda item: item[1][0], reverse=True):
        live = {theta_signs[i] for i in idx if not silent[i]}
        flag = flag and len(live) <= 1
        merged.append((key, x, next(iter(live)) if len(live) == 1 else 0, not live))
    if not flag:
        _, xs, signs, mute = zip(*merged)
        return _not_strongly_cospectral(u, v, xs, signs, mute)
    supported = [(key, sg) for key, _, sg, _ in merged if sg != 0]
    floating = [key for key, _ in supported if not isinstance(key, tuple)]
    if not floating:
        return _certify_support(u, v, [(QuadExt(*key), sg) for key, sg in supported])
    theta = gdec.eigenvalues[groups[floating[0]][1]]
    if _as_int(theta) is not None:
        raise InternalInvariantError(
            f"a float corona value is supported at {u}, but its base eigenvalue "
            f"{theta!r} is integral"
        )
    return PSTReport(
        u=u,
        v=v,
        verdict=NO_PST,
        basis="nonperiodic-endpoint",
        strongly_cospectral=True,
        support=tuple(QuadExt(*key) if isinstance(key, tuple) else key for key, _ in supported),
        refutation_witness={"vertex": u, "rule": "non-integral-base-eigenvalue", "witness": theta},
    )


def _not_strongly_cospectral(u, v, values, signs, silent) -> PSTReport:
    """no-PST, witnessed by the values where the columns differ: sign 0, not silent."""
    return PSTReport(
        u=u,
        v=v,
        verdict=NO_PST,
        basis="not-strongly-cospectral",
        strongly_cospectral=False,
        refutation_witness=[x for x, sg, z in zip(values, signs, silent) if sg == 0 and not z],
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


def _phase_rows(gdec: SpectralDecomposition, params: CoronaParams, u: int, v: int) -> list:
    """The amplitude (u,0) -> (v,0) as exact phase rows, from G's pair rows.

    A base eigenvalue theta puts weight F_theta[u,v]*(1 +/- x/L)/2 on its
    pair members (a +/- L)/2, where a = theta + s + t, x = theta - s + t
    and L = sqrt(D) is the pair gap (the top gap at theta = 2*r1).  A row
    (w_plus, w_minus, p, q, d) is the sum of w*exp(-i*tau*mu) over its
    members mu = (p +/- sqrt(d))/q, held exactly.  An integral theta gives
    one row per pair (q = 2); any other gives one row per member, the
    binary fraction of its float value (d = 0, w_minus = 0).
    """
    s, t = params.s, params.t
    f_uv = gdec.entries(u, v)
    rows = []
    for _, a, _, d, _, idx in _pair_rows(gdec, params)[::2]:
        # x = a - 2*s exactly for an integral theta; a float theta keeps its own bits
        x = a - 2 * s if isinstance(a, int) else gdec.eigenvalues[idx] - s + t
        w_plus, w_minus = (float(f_uv[idx]) * (1 + sign * x / math.sqrt(d)) / 2 for sign in (1, -1))
        if isinstance(a, int):
            rows.append((w_plus, w_minus, a, 2, d))
        else:
            for weight, sign in ((w_plus, 1), (w_minus, -1)):
                ratio = ((a + sign * math.sqrt(d)) / 2.0).as_integer_ratio()
                rows.append((weight, 0.0, *ratio, 0))
    return rows


def _turn_pair(row, n: int, m: int) -> tuple:
    """frac((n/m)*mu) in units of 2^-64 for the row's plus and minus member,
    each within two units, for n >= 0 and m >= 1 coprime."""
    _, _, p, q, d = row
    top, root = (n * p) << _TURN_BITS, math.isqrt(n * n * d << 2 * _TURN_BITS)
    return (top + root) // (m * q) % _TURN, (top - root) // (m * q) % _TURN


def _angles(turns) -> np.ndarray:
    """2*pi*k/2^64 for 64-bit turn counts k, taken as signed."""
    return np.asarray(turns, dtype=np.uint64).view(np.int64) * (2 * math.pi / _TURN)


def _check_base_pair(params: CoronaParams, u: int, v: int) -> None:
    if u == v or not (0 <= u < params.n1 and 0 <= v < params.n1):
        raise ValueError(f"need two distinct base vertices below {params.n1}")


def _check_search_args(epsilon, l_start, l_bound) -> None:
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if l_start < 0:
        raise ValueError(f"l_start must be non-negative, got {l_start}")
    if l_bound < l_start:
        raise ValueError(f"l_bound {l_bound} below start {l_start}")


def pgst_scan(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    epsilon: float,
    l_bound: int,
    grid: tuple,
    l_start: int = 0,
) -> PGSTSearchResult:
    """Scan T_l = 2*pi*(step*l + b/c), l in [l_start, l_bound], on base fidelity.

    `grid` is (step, b, c) with step, c >= 1 and b/c >= 0 reduced:
    `pgst_time_search` scans (2, 1, g), T_l = (4l + 2/g)*pi, and
    `pgst_cocktail` scans (1, 0, 1), T_l = 2*pi*l.  Stops at the first l
    whose fidelity reaches 1 - epsilon; otherwise reports the global
    maximum with ties resolved to the smaller l.  Returns a
    PGSTSearchResult with basis heuristic-search: `achieved` false means
    only that no scanned l reached 1 - epsilon.  Its time is the float
    (2*step*l + 2*b/c)*pi.  An epsilon outside (0, 1], a start below 0 or
    above `l_bound`, any other grid, or u and v not two distinct base
    vertices raises ValueError.

    Of the n scanned l, a chunk from lo on covers lo + k1*K0 + k0 for
    k0 < K0 = min(_SCAN_OFFSETS, n) and k1 < K1 = min(_SCAN_BLOCKS,
    ceil(n/K0)).  Two tables with one entry per `_phase_rows` row come
    once from the plus member's 64-bit turns per step, wrapping mod 2^64:
    the offsets [cos; sin](2*pi*frac(k0*step*mu_plus)) and the block
    rotations exp(-2*pi*i*frac(k1*K0*step*mu_plus)).  The minus member of
    an integral pair reads both as the conjugate, since its turns per step
    are the integer 2*step*p/q minus the plus member's.  Each chunk takes
    one isqrt per row for the exact phases frac((step*lo*c + b)/c * mu),
    reduced since gcd(step*lo*c + b, c) = gcd(b, c) = 1.  The cos and sin
    coefficients (c_plus + c_minus, -i*(c_plus - c_minus)) have the parts
    of z = (c_plus + conj(c_minus), -i*(c_plus - conj(c_minus))); z times
    the block rotations, as one real (2*K1 x 2P) @ (2P x K0) product with
    the offsets, gives the amplitudes in l order.

    Error bound: the fidelity is that at the exact T_l, with every phase
    off by at most 2k units of 2^-64 turns at the k-th l of a chunk, plus
    one rounding of a complex product.  No error carries over from chunk
    to chunk, so it does not grow with l: about 1e-15 when every base
    eigenvalue is integral, at l = 10^12 as at l = 1.  A non-integral
    eigenvalue enters as the float values of its members, whose rounding
    (about 1e-15 relative) then shifts the phase by that much times T_l.
    """
    _check_search_args(epsilon, l_start, l_bound)
    step, b, c = grid
    if step < 1 or c < 1 or b < 0 or math.gcd(b, c) != 1:
        raise ValueError(f"grid (step, b, c) needs step, c >= 1 and b/c >= 0 reduced, got {grid}")
    _check_base_pair(params, u, v)
    rows = _phase_rows(gdec, params, u, v)
    k0n = min(_SCAN_OFFSETS, l_bound - l_start + 1)
    k1n = min(_SCAN_BLOCKS, (l_bound - l_start) // k0n + 1)
    weights = np.array([row[:2] for row in rows]).T
    per_step = np.array([_turn_pair(row, step, 1)[0] for row in rows], dtype=np.uint64)
    angles = _angles(per_step[:, None] * np.arange(k0n, dtype=np.uint64))
    offsets = np.stack([np.cos(angles), np.sin(angles)], axis=1).reshape(-1, k0n)  # z's row order
    block_turns = np.arange(0, k1n * k0n, k0n, dtype=np.uint64)[:, None] * per_step
    blocks = np.exp(-1j * _angles(block_turns))
    amps = np.empty((2 * k1n, k0n))
    fold = np.array([[1, 1], [-1j, 1j]])  # z from (c_plus, conj(c_minus))
    conj = np.array([[-1j], [1j]])
    threshold = 1.0 - epsilon
    best_l, best_fid, achieved = l_start, -1.0, False
    for lo in range(l_start, l_bound + 1, k1n * k0n):
        turns = [_turn_pair(row, step * lo * c + b, c) for row in rows]
        z = fold @ (weights * np.exp(conj * _angles(turns).T))
        coeffs = (z[:, None, :] * blocks).view(np.float64).reshape(2 * k1n, -1)
        np.matmul(coeffs, offsets, out=amps)
        amps *= amps
        amps[:k1n] += amps[k1n:]
        live = amps[:k1n].reshape(-1)[: l_bound + 1 - lo]
        k = int(np.argmax(live))
        if live[k] >= threshold:
            k = int(np.argmax(live >= threshold))
            best_l, best_fid, achieved = lo + k, float(live[k]), True
            break
        if live[k] > best_fid:
            best_l, best_fid = lo + k, float(live[k])
    time = (2.0 * step * best_l + 2.0 * b / c) * math.pi
    basis = "heuristic-search"
    return PGSTSearchResult(u, v, epsilon, l_bound, achieved, basis, best_l, time, best_fid)


def pgst_time_search(
    gdec: SpectralDecomposition,
    params: CoronaParams,
    u: int,
    v: int,
    epsilon: float = DEFAULT_EPSILON,
    l_bound: int = DEFAULT_L_BOUND,
) -> PGSTSearchResult:
    """Near-perfect transfer search between corona base vertices on the
    paper's sufficient conditions for PGST.

    Conditions: the attachment is edgeless; the base pair has certified
    perfect transfer at pi/g with delta = 1; the top pair gap is an
    irrational surd.  For bases on three or more vertices every pair gap
    below the top must also be irrational; on the two-vertex base K2 the
    rational gap n2 + 1 must be a multiple of g.  They guarantee that PGST
    exists along T_l = (4l + 2/g)*pi, not that a scan up to `l_bound`
    reaches 1 - epsilon: the result is `pgst_scan`'s with basis
    irrational-gap-search, and `achieved` false proves nothing.  When a
    condition fails, the result is `pgst_scan`'s as it stands, basis
    heuristic-search, with g = 1 unless the base pair has PST and the first
    unmet condition in `note`.  The base pair is certified once.
    """
    _check_search_args(epsilon, 0, l_bound)
    _check_base_pair(params, u, v)
    base = pst_certify(gdec, u, v)
    note = _unmet_pgst_condition(gdec, params, base)
    g = base.g if base.verdict == PST else 1
    scan = pgst_scan(gdec, params, u, v, epsilon, l_bound, (2, 1, g))
    if note is None:
        return replace(scan, basis="irrational-gap-search")
    return replace(scan, note=note)


def _unmet_pgst_condition(
    gdec: SpectralDecomposition, params: CoronaParams, base: PSTReport
) -> str | None:
    """The first of `pgst_time_search`'s conditions that fails, as text; None when all hold."""
    if params.r2 != 0:
        return f"the guaranteed search needs an edgeless attachment graph, got degree {params.r2}"
    if base.verdict != PST:
        return (
            f"the guaranteed search needs certified base transfer, got {base.verdict} "
            f"({base.basis})"
        )
    if base.delta != 1:
        return f"base transfer time must be a rational multiple of pi, got delta {base.delta}"
    d_top = top_radicand(params)
    if is_perfect_square(d_top):
        return (
            f"the top pair gap sqrt({d_top}) = {math.isqrt(d_top)} is rational; the search "
            "guarantee requires an irrational top gap"
        )
    if params.n1 >= 3:
        integral = [k for k in map(_as_int, gdec.eigenvalues[1:]) if k is not None]
        for theta in integral:
            d = pair_radicand(params, theta)
            if is_perfect_square(d):
                return (
                    f"pair gap sqrt({d}) at base eigenvalue {theta} is rational; "
                    "the search guarantee requires every pair gap of a base on "
                    f"{params.n1} >= 3 vertices to be irrational"
                )
    if params.n1 == 2:
        # K2 base: the theta = 0 gap is n2 + 1, and cos(gap*T_l/2) is +/-1
        # at every l only when g divides it
        gap = math.isqrt(pair_radicand(params, 0))
        if gap % base.g:
            return (
                f"pair gap {gap} at base eigenvalue 0 is not a multiple of g = {base.g}; "
                "the search guarantee on a two-vertex base requires it"
            )
    return None


def pgst_cocktail(
    m: int, epsilon: float = DEFAULT_EPSILON, l_bound: int = DEFAULT_L_BOUND
) -> PGSTSearchResult:
    """Near-perfect transfer search on the cocktail party corona CP:m with
    a single pendant-style vertex per base vertex, between an antipodal
    base pair.

    Applicability for odd m > 2 splits on the top radicand
    R = 4*(4*(m-1)^2 + (2m-1)^2): branch one when R is a perfect square,
    branch two when R is irrational with square-free part different from
    that of the pair radicand 4*((m-1)^2 + 1) at theta = 2m-2, that is,
    when the product of the two radicands is not a square.  Both
    branches scan T = 2*pi*l for l in [1, l_bound] and score candidates
    purely by fidelity; otherwise the basis is hypotheses-not-met and
    nothing is scanned.
    """
    if m <= 2 or m % 2 == 0:
        raise ValueError(f"the cocktail party search needs an odd m greater than 2, got {m}")
    _check_search_args(epsilon, 1, l_bound)

    params = CoronaParams(n1=2 * m, n2=1, r1=2 * m - 2, r2=0)
    r = top_radicand(params)
    c1 = pair_radicand(params, 2 * m - 2)
    if is_perfect_square(r):
        basis = "rational-top-gap"
    elif not is_perfect_square(r * c1):
        basis = "distinct-surd-parts"
    else:
        return PGSTSearchResult(0, 1, epsilon, l_bound, False, "hypotheses-not-met")

    gdec = decompose(signless_laplacian(cocktail_party_graph(m)))
    scan = pgst_scan(gdec, params, 0, 1, epsilon, l_bound, (1, 0, 1), l_start=1)
    return replace(scan, basis=basis)


# ---------------------------------------------------------------------------
# orchestration


def _refutation(params: CoronaParams, u: int, v: int, integral: dict):
    """First exact refutation of transfer between base vertices u and v.

    `integral` maps u and v to their base supports as plain ints.  Each
    rule shows a base vertex is not periodic, hence has no transfer
    (Godsil, "Periodic graphs", 2011): its corona support holds both
    members (a +/- sqrt(D))/2 of each pair, a different a per pair, so it is
    periodic only if every pair radicand D in it is a square.  Tried in
    order, with gap(theta) = |theta - s + t| and top = 2*r1:

      size-bound            n2 >= gap(theta) + 1 for every support theta
                            below the top, n2*(n1 - 1)^2 >= gap(top) + 1;
                            u first, then v
      nonperiodic-endpoint  a non-square pair radicand below the top, then
                            a non-square top radicand; u first, then v

    The size bound is the second rule's cheap first test: x^2 + 4*m is a
    square (|x| + j)^2 only if 4*m = 2*j*|x| + j^2, so j = 2*i and
    m = i*(|x| + i) >= |x| + 1, with m = n2 below the top and
    n2*(n1 - 1)^2 at it.  A support whose radicands are all squares
    passes both rules and goes to the exact certifier.  Returns (basis,
    vertex whose support is reported, witness), or None when no rule
    fires.
    """
    top = 2 * params.r1
    shift = params.t - params.s
    below = {w: [th for th in integral[w] if th != top] for w in (u, v)}
    for w in (u, v):
        for th in below[w]:
            if params.n2 < abs(th + shift) + 1:
                return "size-bound", w, {"vertex": w, "eigenvalue": th}
        if params.n2 * (params.n1 - 1) ** 2 < abs(top + shift) + 1:
            return "size-bound", w, {"vertex": w, "eigenvalue": top}
    for w in (u, v):
        for th in below[w]:
            d = pair_radicand(params, th)
            if not is_perfect_square(d):
                witness = {"vertex": w, "rule": "non-square-pair-gap", "witness": (th, d)}
                return "nonperiodic-endpoint", w, witness
        d = top_radicand(params)
        if not is_perfect_square(d):
            witness = {"vertex": w, "rule": "non-square-top-gap", "witness": (top, d)}
            return "nonperiodic-endpoint", w, witness
    return None


def corona_base_pst_check(g: Graph, h: Graph, u: int, v: int) -> PSTReport:
    """Full transfer decision between two base vertices of a corona.

    Cheap exact refutations (`_refutation`) run first on integral base
    supports.  Only if none fires does G's decomposition go to
    `corona_pst_certify`, which refutes a non-integral base support once
    strong cospectrality holds.  Only G is eigensolved; H gives its order
    and degree.  The dense corona is a test oracle.
    """
    params = CoronaParams.from_graphs(g, h)
    _check_base_pair(params, u, v)
    gdec = decompose(signless_laplacian(g))
    integral = {w: [_as_int(x) for x in eigenvalue_support(gdec, w)] for w in (u, v)}

    if all(None not in ints for ints in integral.values()):
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

    return corona_pst_certify(gdec, params, u, v)
