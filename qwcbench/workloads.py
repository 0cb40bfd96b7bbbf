"""The four workloads: how a seed turns into rounds of operations.

Every run repeats whole rounds.  A round has the same slots on every seed,
so its cost and its share of failed operations do not depend on the seed;
the seed picks, per slot, one of several inputs of the same cost class,
the vertex pair, and the order of the round.  The program only sees the
generated inputs.  Operations call qwcorona through module attributes at
call time, so that the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from typing import Callable

import checks

L_BOUND = 10**6


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # key under which the output is counted in the run's verdict tally
    tally: Callable[[object], str]


def _decision_tally(report) -> str:
    return f"{report.verdict}/{report.basis}"


class CertifyDense:
    """corona_base_pst_check on cycle bases C:n, n not in {3, 4, 6}.

    Fixed slots: the N = 1560 corona C:60~oC:25 (the vertex pair is seeded,
    never antipodal); three antipodal pairs hit by the clustering fault in
    spectra.decompose, so they fail on every round; one antipodal pair that
    decompose still separates (it ends in recognition).  Seeded slots: three
    of order N = 840, seven near N = 480 and one of N = 320, each fixing an
    attachment family; the seed picks the cycle length from a band of equal
    cost and a non-antipodal pair.  The round thus has wide groups of
    like-cost operations around its median and its tail percentile.
    """

    name = "certify-dense"
    FIXED = (
        ("C:40", "C:20", 0, 20),
        ("C:30", "C:15", 0, 15),
        ("C:40", "C:5", 0, 20),
        ("C:20", "empty:12", 0, 10),
    )
    # (attachment family, [(n1, n2)] alternatives of one cost class)
    BIG = [(n1, 840 // n1 - 1) for n1 in (24, 28, 30, 35, 40, 42)]
    MID = [(n1, 480 // n1 - 1) for n1 in (20, 24, 30, 32, 40)]
    SEEDED = (
        [("K", BIG), ("empty", BIG), ("K", BIG)]
        + [("K", MID), ("empty", MID), ("C", MID), ("K", MID), ("empty", MID), ("C", MID)]
        + [("CP", [(24, 18), (26, 18), (28, 16), (30, 16), (32, 14), (34, 14)])]
        + [("C", [(n1, 320 // n1 - 1) for n1 in (16, 20, 32, 40)])]
    )

    def __init__(self, qw):
        self.qw = qw

    def _op(self, base, att, u, v) -> Op:
        qw = self.qw
        n1 = checks.regular_params(base)[0]
        return Op(
            label=f"{base}~o{att} ({u},{v})",
            run=lambda: qw.corona_base_pst_check(qw.generate(base), qw.generate(att), u, v),
            check=lambda rep: checks.check_cycle_decision(n1, u, v, rep),
            tally=_decision_tally,
        )

    def _pair(self, rng, n1):
        u = rng.randrange(n1)
        while True:
            v = rng.randrange(n1)
            if v != u and not (n1 % 2 == 0 and (v - u) % n1 == n1 // 2):
                return u, v

    def round(self, rng) -> list:
        ops = [self._op("C:60", "C:25", *self._pair(rng, 60))]
        ops += [self._op(*case) for case in self.FIXED]
        for fam, sizes in self.SEEDED:
            n1, n2 = rng.choice(sizes)
            att = f"CP:{n2 // 2}" if fam == "CP" else f"{fam}:{n2}"
            ops.append(self._op(f"C:{n1}", att, *self._pair(rng, n1)))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> None:
        self.qw.corona_base_pst_check(self.qw.generate("C:10"), self.qw.generate("K:2"), 0, 3)


class RefuteGrid:
    """corona_base_pst_check on integral-spectrum bases, settled by exact rules.

    Each round draws, per base, an attachment and a vertex pair: six draws
    on K:2, five each on K:3 and C:3 (the only bases small enough to pass
    the size bound, so the two-vertex, gap and periodicity rules fire
    there), and two on each other base.  Attachments under which the base
    vertices stay periodic (every pair radicand a square) reach the dense
    certifier and are left out.
    """

    name = "refute-grid"
    BASES = (
        [("K:2", 6), ("K:3", 5), ("C:3", 5)]
        + [(f"K:{n}", 2) for n in range(4, 13)]
        + [(f"CP:{m}", 2) for m in range(2, 9)]
        + [(f"HQ:{d}", 2) for d in range(2, 6)]
        + [("C:4", 2), ("C:6", 2), ("halved:2", 2), ("halved:3", 2)]
    )
    ATTACHMENTS = (
        [f"K:{n}" for n in list(range(1, 13)) + [16, 20, 24, 32, 40, 48, 64]]
        + [f"C:{n}" for n in (3, 4, 5, 6, 8, 10)]
        + [f"empty:{n}" for n in (1, 2, 3, 4, 6, 8)]
        + [f"CP:{m}" for m in (2, 3, 4, 5)]
        + [f"HQ:{d}" for d in (2, 3, 4)]
    )

    def __init__(self, qw):
        self.qw = qw
        self.pool = {base: [a for a in self.ATTACHMENTS if not self._periodic(base, a)]
                     for base, _ in self.BASES}

    @staticmethod
    def _periodic(base, att) -> bool:
        n1, r1 = checks.regular_params(base)
        n2, r2 = checks.regular_params(att)
        s, t = checks.corona_shifts(n1, n2, r2)
        top = 2 * r1
        radicands = [(th - s + t) ** 2 + 4 * n2 for th in checks.integral_q_spectrum(base) if th != top]
        radicands.append((top - s + t) ** 2 + 4 * n2 * (n1 - 1) ** 2)
        return all(checks.is_square(d) for d in radicands)

    def round(self, rng) -> list:
        qw = self.qw
        ops = []
        for base, draws in self.BASES:
            n1 = checks.regular_params(base)[0]
            for _ in range(draws):
                att = rng.choice(self.pool[base])
                u, v = rng.sample(range(n1), 2)
                ops.append(Op(
                    label=f"{base}~o{att} ({u},{v})",
                    run=lambda b=base, a=att, u=u, v=v: qw.corona_base_pst_check(
                        qw.generate(b), qw.generate(a), u, v),
                    check=lambda rep, b=base, a=att, u=u, v=v: checks.check_refutation(b, a, u, v, rep),
                    tally=_decision_tally,
                ))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> None:
        self.qw.corona_base_pst_check(self.qw.generate("K:4"), self.qw.generate("K:2"), 0, 1)


class PgstSearch:
    """pgst_time_search on edgeless-attachment coronas over bases with PST,
    and pgst_cocktail for odd m, with l_bound 10^6.

    The round is a fixed list of searches: thirteen that scan 3*10^5 to
    10^6 times and cost alike, so the median and the tail percentile fall
    inside one group, plus a K:2 search that ends at l = 82 and an
    epsilon = 1e-2 search that ends at l = 268699.  The seed picks one of
    the equivalent antipodal pairs (an automorphism maps each onto the
    others, so the scan is the same) and the order.  Bipartite bases with a one-vertex attachment, and K:2 with
    an even attachment order, are left out: see the FOUND lines in
    CHANGES.md.
    """

    name = "pgst-search"
    # (base, attachment order, epsilon); base "cocktail" means pgst_cocktail(m)
    CASES = (
        ("K:2", 5, 1e-4),
        ("HQ:4", 2, 1e-2),
        ("CP:2", 4, 1e-4),
        ("CP:2", 6, 1e-4),
        ("CP:4", 1, 1e-4),
        ("CP:4", 8, 1e-4),
        ("CP:6", 1, 1e-4),
        ("CP:6", 2, 1e-4),
        ("CP:6", 4, 1e-4),
        ("CP:8", 3, 1e-4),
        ("HQ:3", 3, 1e-4),
        ("HQ:3", 6, 1e-3),
        ("HQ:4", 7, 1e-3),
        ("cocktail", 5, 1e-4),
        ("cocktail", 9, 1e-4),
    )

    def __init__(self, qw):
        self.qw = qw
        self.reference = checks.FidelityReference()
        self.fid_err_max = 0.0

    @staticmethod
    def _pairs(base) -> list:
        fam, k = checks.parse_family(base)
        if fam == "K":
            return [(0, 1), (1, 0)]
        if fam == "CP":
            return [(2 * i, 2 * i + 1) for i in range(k)] + [(2 * i + 1, 2 * i) for i in range(k)]
        mask = 2**k - 1
        return [(x, x ^ mask) for x in range(2**k)]

    def _search(self, base, n2, eps, u, v):
        qw = self.qw
        g = qw.generate(base)
        gdec = qw.decompose(qw.signless_laplacian(g))
        params = qw.CoronaParams.from_graphs(g, qw.generate(f"empty:{n2}"))
        return qw.pgst_time_search(gdec, params, u, v, eps, L_BOUND)

    def _check(self, res, base, att, u, v, eps, grid_time):
        ref = self.reference.fidelity(base, att, u, v, res.time)
        self.fid_err_max = max(self.fid_err_max, checks.check_pgst(res, ref, eps, L_BOUND, grid_time))

    def round(self, rng) -> list:
        ops = []
        for base, n2, eps in self.CASES:
            if base == "cocktail":
                m = n2
                ops.append(Op(
                    label=f"cocktail-corona:{m} eps={eps:g}",
                    run=lambda m=m, eps=eps: self.qw.pgst_cocktail(m, eps, L_BOUND),
                    check=lambda res, m=m, eps=eps: self._check(
                        res, f"CP:{m}", "K:1", 0, 1, eps, lambda l: 2.0 * math.pi * l),
                    tally=lambda res: f"achieved={res.achieved}/{res.basis}",
                ))
                continue
            u, v = rng.choice(self._pairs(base))
            spec = checks.integral_q_spectrum(base)
            top = max(spec)
            g = 0
            for th in spec:
                g = math.gcd(g, top - th)
            ops.append(Op(
                label=f"{base}~oempty:{n2} ({u},{v}) eps={eps:g}",
                run=lambda b=base, n2=n2, eps=eps, u=u, v=v: self._search(b, n2, eps, u, v),
                check=lambda res, b=base, n2=n2, eps=eps, u=u, v=v, g=g: self._check(
                    res, b, f"empty:{n2}", u, v, eps, lambda l: (4.0 * l + 2.0 / g) * math.pi),
                tally=lambda res: f"achieved={res.achieved}/{res.basis}",
            ))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> None:
        qw = self.qw
        g = qw.generate("CP:2")
        gdec = qw.decompose(qw.signless_laplacian(g))
        params = qw.CoronaParams.from_graphs(g, qw.generate("empty:3"))
        qw.pgst_time_search(gdec, params, 0, 1, 1e-2, 1000)


class CliSpectrum:
    """`qwc spectrum C:n` through cli.main, in process.

    One slot per m; the seed picks n = 2m or 2m + 1 (both have m + 1
    distinct eigenvalues) and the order.  Six of the eight slots lie in
    n = 40..61, so the median and the tail percentile fall among operations
    of like cost; C:20 and C:120 mark the ends of the range.  Start-up of a
    fresh `qwc` process is measured by setup_s instead.
    """

    name = "cli-spectrum"
    SLOTS = (10, 20, 22, 24, 26, 28, 30, 60)

    def __init__(self, qw):
        import qwcorona.cli

        self.cli = qwcorona.cli

    def _run(self, n):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["spectrum", f"C:{n}"])
        return code, buf.getvalue()

    def round(self, rng) -> list:
        ops = []
        for m in self.SLOTS:
            n = 2 * m + rng.randrange(2)
            ops.append(Op(
                label=f"qwc spectrum C:{n}",
                run=lambda n=n: self._run(n),
                check=lambda out, n=n: checks.check_cycle_spectrum(n, *out),
                tally=lambda out: f"exit={out[0]}",
            ))
        rng.shuffle(ops)
        return ops

    def warmup(self) -> None:
        self._run(8)


WORKLOADS = {w.name: w for w in (CertifyDense, RefuteGrid, PgstSearch, CliSpectrum)}
