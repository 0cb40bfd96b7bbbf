#!/usr/bin/env python3
"""Run a qwcorona benchmark workload and print its metrics.

    python3 qwcbench/run.py --workload certify-dense --seed 1 --seconds 20 --trace 0
    python3 qwcbench/run.py --workload all --seed 1 --seconds 20

One workload runs in this process, as one closed-loop caller, in whole
rounds, stopping at the round boundary nearest to --seconds of time spent
inside operations.  --trace 0 prints the end-to-end metrics, --trace 1
wraps qwcorona's public functions and prints per-layer metrics instead.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  --out FILE appends the run,
with its round count, verdict tally and sample count, to a result file that
compare.py reads.  `--workload all` runs every workload untraced and
traced, each in its own process, and prints a table.

The program is imported from src/ of the checkout that holds this script;
BLAS is held to one thread.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 3
BLOCK = 64


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append the run to this result file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def prepare(workload_name: str, seed: int, tracer=None):
    """Everything before the first timed operation: import, inputs, warm-up."""
    import qwcorona

    import workloads

    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[workload_name](qwcorona)
    rng = random.Random(seed)
    first = workload.round(rng)
    workload.warmup()
    return qwcorona, workload, rng, first


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to its first operation
    being ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                sys.exit(f"setup probe failed: {line!r}")
    return statistics.median(samples)


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; never below the median: up to 21 samples, the upper median."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, len(xs) // 2)
    return 100.0 * (k + 1) / len(xs), xs[k]


def blocked_tail(per_round: list) -> tuple[float, float]:
    """Median over blocks of consecutive whole rounds, each holding at least
    BLOCK samples, of the block's tail (see `tail`).  A run with fewer than
    2 * BLOCK samples is one block.  Over tens of thousands of samples the
    tail of the whole run would be set by a few pauses of the machine."""
    blocks, cur = [], []
    for lat in per_round:
        cur += lat
        if len(cur) >= BLOCK:
            blocks.append(cur)
            cur = []
    if cur:
        if blocks:
            blocks[-1] += cur
        else:
            blocks.append(cur)
    tails = [tail(b) for b in blocks]
    return statistics.median(p for p, _ in tails), statistics.median(v for _, v in tails)


def run_workload(args) -> int:
    import checks
    from tracer import Tracer, import_times

    tracer = Tracer() if args.trace else None
    qw, workload, rng, ops = prepare(args.workload, args.seed, tracer)
    if tracer is not None:
        tracer.reset()
    setup_s = None if args.trace else measure_setup(args)

    per_round, tally = [], Counter()
    attempted = failed = decisions = refuted = rounds = 0
    correct = True
    busy = 0.0
    while True:
        rounds += 1
        latencies = []
        per_round.append(latencies)
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                busy += time.perf_counter() - t0
                failed += 1
                print(f"{op.label}: raised\n{traceback.format_exc()}", file=sys.stderr)
                continue
            dt = time.perf_counter() - t0
            busy += dt
            latencies.append(dt)
            tally[op.tally(out)] += 1
            if isinstance(out, qw.PSTReport):
                decisions += 1
                refuted += out.basis in checks.REFUTATION_BASES
            try:
                fault = op.check(out)
            except checks.CheckError as err:
                correct = False
                print(f"{op.label}: wrong output: {err}", file=sys.stderr)
                continue
            except Exception:
                # output the checks cannot even read is wrong output too
                correct = False
                print(f"{op.label}: unreadable output\n{traceback.format_exc()}", file=sys.stderr)
                continue
            if fault is not None:
                failed += 1
                tally[f"failed:{fault}"] += 1
        # stop at the round boundary nearest to --seconds of operation time
        if busy + busy / rounds / 2 >= args.seconds:
            break
        ops = workload.round(rng)

    latencies = [x for lat in per_round for x in lat]
    pct, tail_s = blocked_tail(per_round)
    if args.trace:
        metrics = tracer.layer_metrics(attempted)
        metrics["state_transfer.refuted_ratio"] = (refuted / decisions if decisions else 0.0, "ratio")
        metrics["state_transfer.scan_fid_err_max"] = (getattr(workload, "fid_err_max", 0.0), "abs")
        imp, scipy = import_times(sys.executable, child_env())
        metrics["cli.import_ms"] = (imp, "ms")
        metrics["cli.import_scipy_ms"] = (scipy, "ms")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(latencies) / busy, "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    info = {
        "rounds": rounds,
        "samples": len(latencies),
        "busy_s": busy,
        "tail_percentile": pct,
        "tally": dict(sorted(tally.items())),
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        append_result(args.out, {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "info": info, "result": result})
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}")
    print(json.dumps(result))
    return 0


def append_result(path: str, record: dict) -> None:
    p = Path(path)
    data = json.loads(p.read_text()) if p.exists() else {"runs": []}
    data["runs"].append(record)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(data, indent=1) + "\n")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    import workloads

    out = args.out or str(HERE / "results" / "all.json")
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace), "--out", out]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{name} trace {trace}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} (trace {trace}): correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(f"results appended to {out}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qwcorona" / "__init__.py").is_file():
        print(f"error: no qwcorona sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(workloads.WORKLOADS)})",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
