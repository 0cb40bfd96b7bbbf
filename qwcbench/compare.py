#!/usr/bin/env python3
"""Diff two benchmark result files, per workload and metric.

    python3 qwcbench/compare.py qwcbench/results/base.json qwcbench/results/new.json

A result file collects runs appended by `run.py --out FILE`.  For every
workload and metric present in either file this prints the median over the
file's runs, the base's quartile spread, the delta and the delta as a share
of the base.  End-to-end metrics are judged against the bound in
BENCHMARK.json: `worse` when the new median is worse by more than the
bound, `unresolved` when the base's own spread is wider than the bound.
Exit status 1 when some end-to-end metric is worse or the failed share of
operations moved.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """workload -> {"metrics": {name: (unit, [values])}, "attempted": n, "failed": n}"""
    out = defaultdict(lambda: {"metrics": {}, "attempted": 0, "failed": 0})
    for run in json.loads(Path(path).read_text())["runs"]:
        entry = out[run["workload"]]
        res = run["result"]
        if run["trace"] == 0:
            entry["attempted"] += res["attempted"]
            entry["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            entry["metrics"].setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text()) if BENCHMARK.exists() else {}
    e2e = {m["name"]: m for m in spec.get("end_to_end", [])}
    status = 0
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload), new.get(workload)
        print(f"== {workload}")
        if b is None or n is None:
            print("   only in " + (argv[1] if b is None else argv[0]))
            continue
        shares = [x["failed"] / x["attempted"] if x["attempted"] else None for x in (b, n)]
        print(f"   failed/attempted: base {b['failed']}/{b['attempted']}, new {n['failed']}/{n['attempted']}")
        if shares[0] != shares[1]:
            status = 1
        print(f"   {'metric':38s} {'unit':6s} {'base':>12s} {'spread':>10s} {'new':>12s} "
              f"{'delta':>12s} {'share':>8s}")
        for name in sorted(set(b["metrics"]) | set(n["metrics"]), key=lambda k: (k not in e2e, k)):
            if name not in b["metrics"] or name not in n["metrics"]:
                print(f"   {name:38s} only in one file")
                continue
            unit, bv = b["metrics"][name]
            _, nv = n["metrics"][name]
            bm, nm = statistics.median(bv), statistics.median(nv)
            delta = nm - bm
            share = delta / bm if bm else 0.0
            note = ""
            meta = e2e.get(name)
            if meta:
                worse = share if meta["better"] == "lower" else -share
                if bm and spread(bv) / bm > meta["bound"]:
                    note = "unresolved"
                elif worse > meta["bound"]:
                    note, status = "worse", 1
                elif worse < -meta["bound"]:
                    note = "better"
            share_text = f"{share:+8.2%}" if bm else "     n/a"
            print(f"   {name:38s} {unit:6s} {bm:12.6g} {spread(bv):10.3g} {nm:12.6g} "
                  f"{delta:+12.4g} {share_text} {note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
