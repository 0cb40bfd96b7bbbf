#!/usr/bin/env python3
"""Self-tests of the benchmark: each output check accepts the program's right
answer and rejects a deliberately wrong one.

    python3 qwcbench/selftest.py

Kept out of the repository's pytest run by its file name; takes seconds.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import qwcorona as qw  # noqa: E402
from checks import CheckError  # noqa: E402


def decide(base, att, u, v):
    return qw.corona_base_pst_check(qw.generate(base), qw.generate(att), u, v)


class CycleDecisionCheck(unittest.TestCase):
    def test_right_answers_pass(self):
        self.assertIsNone(checks.check_cycle_decision(8, 0, 4, decide("C:8", "K:2", 0, 4)))
        self.assertIsNone(checks.check_cycle_decision(8, 0, 3, decide("C:8", "K:2", 0, 3)))

    def test_known_fault_is_tagged(self):
        rep = decide("C:40", "C:5", 0, 20)
        self.assertEqual(checks.check_cycle_decision(40, 0, 20, rep), checks.MERGED_CLUSTERS)

    def test_wrong_answers_rejected(self):
        good = decide("C:8", "K:2", 0, 3)
        with self.assertRaises(CheckError):
            checks.check_cycle_decision(8, 0, 3, dataclasses.replace(good, verdict="PST"))
        with self.assertRaises(CheckError):
            checks.check_cycle_decision(8, 0, 3, dataclasses.replace(good, strongly_cospectral=True))
        anti = decide("C:8", "K:2", 0, 4)
        wrong = dataclasses.replace(anti, strongly_cospectral=False, basis="support-form")
        with self.assertRaises(CheckError):
            checks.check_cycle_decision(8, 0, 4, wrong)


class RefutationCheck(unittest.TestCase):
    CASES = (
        ("K:5", "K:3", "size-bound"),
        ("K:2", "K:4", "even-order-rule"),
        ("K:2", "K:3", "prime-order-rule"),
        ("K:3", "K:5", "close-top-ratio"),
        ("K:3", "CP:3", "nonperiodic-endpoint"),
    )

    def test_every_rule_passes_on_the_program_output(self):
        for base, att, basis in self.CASES:
            rep = decide(base, att, 0, 1)
            self.assertEqual(rep.basis, basis)
            checks.check_refutation(base, att, 0, 1, rep)

    def _rejects(self, base, att, **changes):
        rep = dataclasses.replace(decide(base, att, 0, 1), **changes)
        with self.assertRaises(CheckError):
            checks.check_refutation(base, att, 0, 1, rep)

    def test_wrong_witnesses_rejected(self):
        # K:5~oK:3: eigenvalue 3 of K:5 does not violate the size bound
        self._rejects("K:5", "K:3", refutation_witness={"vertex": 0, "eigenvalue": 8})
        self._rejects("K:2", "K:3", basis="even-order-rule")
        self._rejects("K:2", "K:3", refutation_witness={"provenance": "derived", "witness": 16})
        self._rejects("K:3", "K:5", refutation_witness={"vertex": 0, "witness": 4})
        wit = decide("K:3", "CP:3", 0, 1).refutation_witness
        self._rejects("K:3", "CP:3", refutation_witness={**wit, "witness": (1, 36)})
        self._rejects("K:5", "K:3", verdict="PST")
        self._rejects("K:5", "K:3", support=(qw.QuadExt.from_int(8), qw.QuadExt.from_int(2)))


class PgstCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        g = qw.generate("CP:2")
        gdec = qw.decompose(qw.signless_laplacian(g))
        params = qw.CoronaParams.from_graphs(g, qw.generate("empty:3"))
        cls.res = qw.pgst_time_search(gdec, params, 0, 1, 1e-2, 10**4)
        cls.ref = checks.FidelityReference()
        cls.grid = staticmethod(lambda l: (4.0 * l + 1.0) * math.pi)

    def check(self, res):
        ref = self.ref.fidelity("CP:2", "empty:3", 0, 1, res.time)
        return checks.check_pgst(res, ref, 1e-2, 10**4, self.grid)

    def test_right_answer_passes(self):
        self.assertTrue(self.res.achieved)
        self.assertLess(self.check(self.res), 1e-9)

    def test_wrong_answers_rejected(self):
        r = self.res
        for wrong in (
            dataclasses.replace(r, fidelity=r.fidelity - 1e-3),
            dataclasses.replace(r, achieved=False),
            dataclasses.replace(r, time=r.time + 4 * math.pi),
            dataclasses.replace(r, best_l=r.best_l + 1),
        ):
            with self.assertRaises(CheckError):
                self.check(wrong)

    def test_reference_matches_dense_evolution(self):
        # full corona matrix, numpy eigensystem, a short time where floats suffice
        adj = checks.corona_adjacency("HQ:3", "empty:2")
        a = np.zeros((len(adj), len(adj)))
        for x, nbrs in enumerate(adj):
            a[x, list(nbrs)] = 1
        vals, vecs = np.linalg.eigh(np.diag(a.sum(1)) + a)
        amp = (vecs[0] * vecs[7] * np.exp(-1j * 1.7 * vals)).sum()
        ref = checks.FidelityReference().fidelity("HQ:3", "empty:2", 0, 7, 1.7)
        self.assertAlmostEqual(float(ref), abs(amp) ** 2, places=10)


class CycleSpectrumCheck(unittest.TestCase):
    @staticmethod
    def spectrum(n):
        from qwcorona import cli

        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["spectrum", f"C:{n}"])
        return code, buf.getvalue()

    def test_right_answer_passes(self):
        checks.check_cycle_spectrum(10, *self.spectrum(10))

    def test_wrong_answers_rejected(self):
        code, text = self.spectrum(10)
        out = json.loads(text)
        k = next(i for i, r in enumerate(out["eigenvalues"]) if "delta" in r["value"] and r["value"]["b"])
        variants = []
        bad = json.loads(text)
        bad["eigenvalues"][k]["value"]["b"] += 2
        variants.append(bad)
        bad = json.loads(text)
        bad["eigenvalues"][k]["value"] = {"approx": float(checks.mpmath.mpf(2) + 2 * checks.mpmath.cos(
            2 * checks.mpmath.pi * k / 10))}
        variants.append(bad)
        bad = json.loads(text)
        bad["eigenvalues"][1]["multiplicity"] = 1
        variants.append(bad)
        for wrong in variants:
            with self.assertRaises(CheckError):
                checks.check_cycle_spectrum(10, code, json.dumps(wrong))
        with self.assertRaises(CheckError):
            checks.check_cycle_spectrum(10, 2, text)


class ReferenceData(unittest.TestCase):
    def test_closed_form_spectra_match_numpy(self):
        import workloads

        for base, _ in workloads.RefuteGrid.BASES:
            q = qw.signless_laplacian(qw.generate(base))
            want = sorted(round(x) for x in np.linalg.eigvalsh(q))
            got = sorted(th for th, m in checks.integral_q_spectrum(base).items() for _ in range(m))
            self.assertEqual(got, want, base)
            self.assertEqual(checks.regular_params(base), (q.shape[0], qw.regular_degree(qw.generate(base))))

    def test_corona_edges_match_program(self):
        for base, att in (("CP:3", "empty:2"), ("HQ:2", "K:3"), ("C:5", "CP:2")):
            adj = checks.corona_adjacency(base, att)
            a = qw.vertex_complemented_corona(qw.generate(base), qw.generate(att)).adjacency
            self.assertEqual([set(np.nonzero(row)[0]) for row in a], adj)


class TracerSelfTime(unittest.TestCase):
    def test_nested_spans_do_not_double_count(self):
        from tracer import Tracer

        t = Tracer()
        outer = t.wrap("outer", lambda: inner())
        inner = t.wrap("inner", lambda: sum(range(20000)))
        outer()
        self.assertEqual(t.calls["outer"], 1)
        self.assertEqual(t.calls["inner"], 1)
        self.assertGreater(t.self_s["inner"], 0)
        self.assertLess(t.self_s["outer"], t.self_s["inner"])


if __name__ == "__main__":
    unittest.main()
