"""Output checks for the benchmark, computed apart from qwcorona.

Nothing here imports qwcorona.  Spectra come from the families' closed
forms, corona matrices are assembled from edge lists built here, and
fidelities are evaluated with mpmath at 50 digits.  Each check returns None
when the output is right, returns a fault tag when the output shows a known
program fault (the operation is then counted as failed), and raises
CheckError for any other wrong output.
"""
from __future__ import annotations

import json
import math
from functools import lru_cache

import mpmath

REFERENCE_DPS = 50

# decisions that an exact rule settles, as opposed to the dense certifier
REFUTATION_BASES = frozenset(
    {
        "size-bound",
        "even-order-rule",
        "prime-order-rule",
        "close-gap-pair",
        "close-top-ratio",
        "surd-gap-pair",
        "surd-top-ratio",
        "nonperiodic-endpoint",
    }
)

# cyclotomic orders whose 2 + 2cos(2*pi/order) is rational or quadratic
QUADRATIC_ORDERS = frozenset({1, 2, 3, 4, 5, 6, 8, 10, 12})

# tag of the clustering fault in spectra.decompose (see CHANGES.md)
MERGED_CLUSTERS = "merged-clusters"

# a reported fidelity may differ from the 50-digit reference by this much
FIDELITY_TOL = 1e-6
# `achieved` is not judged when the reference sits this close to 1 - epsilon
THRESHOLD_GUARD = 1e-8


class CheckError(AssertionError):
    """A program output disagrees with the independent computation."""


def _fail(msg: str):
    raise CheckError(msg)


# ---------------------------------------------------------------------------
# family data in closed form


def parse_family(spec: str) -> tuple[str, int]:
    head, _, tail = spec.partition(":")
    return head, int(tail)


def regular_params(spec: str) -> tuple[int, int]:
    """(order, degree) of a regular family member."""
    fam, k = parse_family(spec)
    if fam == "K":
        return k, k - 1
    if fam == "C":
        return k, 2
    if fam == "empty":
        return k, 0
    if fam == "CP":
        return 2 * k, 2 * k - 2
    if fam == "HQ":
        return 2**k, k
    if fam == "halved":
        return 2 ** (2 * k - 1), math.comb(2 * k, 2)
    raise ValueError(f"no closed form for {spec!r}")


@lru_cache(maxsize=None)
def integral_q_spectrum(spec: str) -> dict:
    """Signless Laplacian eigenvalue -> multiplicity for integral families."""
    fam, k = parse_family(spec)
    if fam == "K":
        return {2 * (k - 1): 1, k - 2: k - 1} if k > 1 else {0: 1}
    if fam == "CP":
        return {4 * k - 4: 1, 2 * k - 2: k, 2 * k - 4: k - 1}
    if fam == "HQ":
        return {2 * k - 2 * j: math.comb(k, j) for j in range(k + 1)}
    if fam == "halved":
        n = 2 * k
        deg = math.comb(n, 2)
        out = {}
        for j in range(k + 1):
            mult = math.comb(n, j) if j < k else math.comb(n, k) // 2
            out[deg + ((n - 2 * j) ** 2 - n) // 2] = mult
        return out
    if fam == "C" and k in (3, 4, 6):
        out = {}
        for j in range(k):
            val = 2 + 2 * math.cos(2 * math.pi * j / k)
            r = round(val)
            if abs(val - r) > 1e-12:
                raise ValueError(f"C:{k} spectrum is not integral")
            out[r] = out.get(r, 0) + 1
        return out
    raise ValueError(f"{spec!r} has no integral closed-form spectrum")


def corona_shifts(n1: int, n2: int, r2: int) -> tuple[int, int]:
    """The paper's s = n1 + 2*r2 - 1 and t = n2*(n1 - 1)."""
    return n1 + 2 * r2 - 1, n2 * (n1 - 1)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def is_square_free(n: int) -> bool:
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


def square_free_kernel(n: int) -> int:
    """The square-free c with n = s^2 * c."""
    c, p = 1, 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
        if n % p == 0:
            n //= p
            c *= p
        p += 1
    return c * n


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# certify-dense: cycle bases


def check_cycle_decision(n1: int, u: int, v: int, report) -> str | None:
    """A cycle base is not periodic, so no corona over it has PST.  Only
    antipodal base vertices are strongly cospectral: the corona's base-row
    projectors are positive multiples of the cycle's projectors."""
    if report.verdict == "PST":
        _fail(f"C:{n1} corona reported PST between {u} and {v}")
    antipodal = n1 % 2 == 0 and (v - u) % n1 == n1 // 2
    if report.strongly_cospectral is not None and bool(report.strongly_cospectral) == antipodal:
        return None
    if antipodal and report.basis == "not-strongly-cospectral":
        return MERGED_CLUSTERS
    _fail(
        f"C:{n1} corona pair ({u}, {v}): strongly_cospectral "
        f"{report.strongly_cospectral!r}, expected {antipodal}"
    )


# ---------------------------------------------------------------------------
# refute-grid: exact re-derivation of each refutation


def _support_ints(report) -> list[int]:
    out = []
    for x in report.support:
        if x.b != 0 or x.a % 2:
            _fail(f"support value {x} is not an integer")
        out.append(x.a // 2)
    return out


def check_refutation(base: str, att: str, u: int, v: int, report) -> None:
    """Re-derive the violated inequality of a refutation from its witness."""
    n1, r1 = regular_params(base)
    n2, r2 = regular_params(att)
    s, t = corona_shifts(n1, n2, r2)
    spec = integral_q_spectrum(base)
    top = 2 * r1
    below = sorted((th for th in spec if th != top), reverse=True)

    def pair_radicand(th):
        return (th - s + t) ** 2 + 4 * n2

    top_radicand = (top - s + t) ** 2 + 4 * n2 * (n1 - 1) ** 2

    if report.verdict != "no-PST" or report.basis not in REFUTATION_BASES:
        _fail(f"{base}~o{att} ({u},{v}): expected an exact refutation, got "
              f"{report.verdict} / {report.basis}")
    # vertex-transitive bases: every vertex sees the whole spectrum
    if sorted(_support_ints(report)) != sorted(spec):
        _fail(f"{base}~o{att}: support {report.support} is not the spectrum {sorted(spec)}")
    wit = report.refutation_witness
    basis = report.basis

    if basis == "size-bound":
        th = wit["eigenvalue"]
        if wit["vertex"] not in (u, v) or th not in spec:
            _fail(f"size-bound witness {wit} not in the base spectrum")
        if th == top:
            ok = n2 * (n1 - 1) ** 2 < abs(top - s + t) + 1
        else:
            ok = n2 < abs(th - s + t) + 1
        if not ok:
            _fail(f"size-bound witness {wit} satisfies the size inequality")
    elif basis == "even-order-rule":
        if n1 != 2 or n2 % 2:
            _fail(f"even-order rule on n1={n1}, n2={n2}")
    elif basis == "prime-order-rule":
        if n1 != 2 or not (n2 == 1 or (n2 % 2 and is_prime(n2))):
            _fail(f"prime-order rule on n1={n1}, n2={n2}")
        d = wit["witness"]
        if d not in (pair_radicand(0), top_radicand) or is_square(d):
            _fail(f"prime-order witness {d} is not a non-square pair radicand")
    elif basis in ("close-gap-pair", "surd-gap-pair"):
        lam, mu = wit["witness"]
        if lam not in below or mu not in below or wit["vertex"] not in (u, v):
            _fail(f"{basis} witness {wit} not below the top of the spectrum")
        d = abs(lam - s + t) - abs(mu - s + t)
        _check_gap(basis, d, wit)
    elif basis in ("close-top-ratio", "surd-top-ratio"):
        gamma = wit["witness"]
        if gamma not in below or wit["vertex"] not in (u, v):
            _fail(f"{basis} witness {wit} not below the top of the spectrum")
        d = abs(abs(top - s + t) - (n1 - 1) * abs(gamma - s + t))
        _check_gap(basis, d, wit)
    elif basis == "nonperiodic-endpoint":
        rule, w = wit["rule"], wit["witness"]
        if rule == "non-square-pair-gap":
            th, d = w
            if th not in below or d != pair_radicand(th) or is_square(d):
                _fail(f"non-square pair gap witness {w} does not hold")
        elif rule == "non-square-top-gap":
            th, d = w
            if th != top or d != top_radicand or is_square(d):
                _fail(f"non-square top gap witness {w} does not hold")
        elif rule == "surd-multiple-violation":
            delta = square_free_kernel(n2)
            if s != top + t or delta == 1 or not below or w != below[0] - s + t:
                _fail(f"surd-multiple witness {w} does not apply")
            d = pair_radicand(below[0])
            if d % delta == 0 and is_square(d // delta):
                _fail(f"pair gap sqrt({d}) is a multiple of sqrt({delta})")
        else:
            _fail(f"unknown periodicity rule {rule!r}")


def _check_gap(basis: str, d: int, wit) -> None:
    if basis.startswith("close"):
        if not 0 < d < 3:
            _fail(f"{basis} witness {wit}: gap difference {d} not in (0, 3)")
    elif not (d > 0 and (is_square_free(d * d) or (d * d % 4 == 0 and is_square_free(d * d // 4)))):
        _fail(f"{basis} witness {wit}: squared difference {d * d} is not delta or 4*delta")


# ---------------------------------------------------------------------------
# pgst-search: 50-digit fidelity from an independently built corona


def family_edges(spec: str) -> tuple[int, list]:
    fam, k = parse_family(spec)
    if fam == "K":
        return k, [(i, j) for i in range(k) for j in range(i + 1, k)]
    if fam == "empty":
        return k, []
    if fam == "C":
        return k, [(i, (i + 1) % k) for i in range(k)]
    if fam == "CP":
        n = 2 * k
        return n, [(i, j) for i in range(n) for j in range(i + 1, n) if j != i + 1 or i % 2]
    if fam == "HQ":
        n = 2**k
        return n, [(x, x ^ (1 << b)) for x in range(n) for b in range(k) if x < x ^ (1 << b)]
    raise ValueError(f"no edge list for {spec!r}")


def corona_adjacency(base: str, att: str) -> list:
    """Neighbour sets of the vertex complemented corona, built from scratch.

    Base vertex i keeps its base edges and is joined to every vertex of the
    copies attached to the other base vertices.
    """
    n1, g_edges = family_edges(base)
    n2, h_edges = family_edges(att)
    adj = [set() for _ in range(n1 * (1 + n2))]

    def join(a, b):
        adj[a].add(b)
        adj[b].add(a)

    for a, b in g_edges:
        join(a, b)
    for i in range(n1):
        lo = n1 + i * n2
        for a, b in h_edges:
            join(lo + a, lo + b)
        for j in range(n1):
            if j != i:
                for c in range(n2):
                    join(j, lo + c)
    return adj


def equitable_quotient(adj: list, u: int, v: int):
    """Symmetric quotient of Q = D + A on the coarsest equitable partition
    with u and v as singleton cells, by colour refinement."""
    colour = [2] * len(adj)
    colour[u], colour[v] = 0, 1
    while True:
        sigs = [
            (colour[x], tuple(sorted(colour[y] for y in adj[x]))) for x in range(len(adj))
        ]
        relabel = {sig: k for k, sig in enumerate(sorted(set(sigs)))}
        new = [relabel[sig] for sig in sigs]
        if len(relabel) == len(set(colour)):
            break
        colour = new
    cells = len(set(colour))
    counts = [[0] * cells for _ in range(cells)]
    for i in range(cells):
        members = [x for x in range(len(adj)) if colour[x] == i]
        rows = {tuple(sum(1 for y in adj[x] if colour[y] == j) for j in range(cells)) for x in members}
        if len(rows) != 1:
            raise AssertionError("colour refinement left a non-equitable cell")
        counts[i] = list(rows.pop())
    b = mpmath.matrix(cells, cells)
    for i in range(cells):
        for j in range(cells):
            if i == j:
                b[i, i] = sum(counts[i]) + counts[i][i]
            else:
                b[i, j] = mpmath.sqrt(counts[i][j] * counts[j][i])
    return b, colour[u], colour[v]


class FidelityReference:
    """|exp(-i T Q)[u, v]|^2 at 50 digits, one eigensystem per corona and pair."""

    def __init__(self):
        self._systems = {}

    def fidelity(self, base: str, att: str, u: int, v: int, time: float):
        key = (base, att, u, v)
        with mpmath.workdps(REFERENCE_DPS):
            if key not in self._systems:
                b, cu, cv = equitable_quotient(corona_adjacency(base, att), u, v)
                evals, evecs = mpmath.eigsy(b)
                weights = [evecs[cu, k] * evecs[cv, k] for k in range(b.rows)]
                self._systems[key] = (list(evals), weights)
            evals, weights = self._systems[key]
            tm = mpmath.mpf(time)
            amp = mpmath.fsum(w * mpmath.expj(-tm * lam) for lam, w in zip(evals, weights))
            return abs(amp) ** 2


def check_pgst(result, reference: float, epsilon: float, l_bound: int, grid_time) -> float:
    """Return |reported - reference| after checking the search result."""
    if result.l_bound != l_bound or result.target_epsilon != epsilon:
        _fail(f"search echoed l_bound {result.l_bound} / epsilon {result.target_epsilon}")
    if not 0 <= result.best_l <= l_bound:
        _fail(f"best_l {result.best_l} outside [0, {l_bound}]")
    if result.time != grid_time(result.best_l):
        _fail(f"time {result.time!r} is not the grid time {grid_time(result.best_l)!r} "
              f"of l = {result.best_l}")
    err = abs(float(reference) - result.fidelity)
    if err > FIDELITY_TOL:
        _fail(f"fidelity {result.fidelity} at l = {result.best_l}, reference {float(reference)}")
    target = 1 - epsilon
    if abs(reference - target) > THRESHOLD_GUARD and result.achieved != (reference >= target):
        _fail(f"achieved {result.achieved} but reference fidelity {float(reference)} "
              f"against 1 - epsilon = {target}")
    return err


# ---------------------------------------------------------------------------
# cli-spectrum: cycle spectra from the cyclotomic closed form


def check_cycle_spectrum(n: int, code: int, text: str) -> None:
    """Every exact form equals 2 + 2cos(2*pi*k/n) to 1e-30; every eigenvalue
    of cyclotomic order in QUADRATIC_ORDERS is printed in exact form."""
    if code != 0:
        _fail(f"qwc spectrum C:{n} exited {code}")
    out = json.loads(text)
    rows = out["eigenvalues"]
    if out["n"] != n or len(rows) != n // 2 + 1:
        _fail(f"C:{n}: {len(rows)} distinct eigenvalues for n = {out['n']}")
    with mpmath.workdps(REFERENCE_DPS):
        for k, row in enumerate(rows):
            want = 2 + 2 * mpmath.cos(2 * mpmath.pi * k / n)
            mult = 1 if k == 0 or 2 * k == n else 2
            if row["multiplicity"] != mult:
                _fail(f"C:{n} eigenvalue {k}: multiplicity {row['multiplicity']}, expected {mult}")
            order = n // math.gcd(n, k)
            val = row["value"]
            if "approx" in val:
                if order in QUADRATIC_ORDERS:
                    _fail(f"C:{n} eigenvalue {k} of order {order} printed without exact form")
                if abs(val["approx"] - float(want)) > 1e-9:
                    _fail(f"C:{n} eigenvalue {k}: approx {val['approx']} vs {float(want)}")
            else:
                got = (val["a"] + val["b"] * mpmath.sqrt(val["delta"])) / 2
                if abs(got - want) > mpmath.mpf("1e-30"):
                    _fail(f"C:{n} eigenvalue {k}: exact form {val} is not {want}")
