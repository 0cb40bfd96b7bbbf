"""Command-line front end: spectra, corona cross-checks, transfer verdicts.

Output is machine-readable and reproducible: JSON by default (floats
rendered with 12 significant digits, byte-identical across runs), CSV for
grid data.  Exit codes: 0 when a verdict was produced (a negative verdict
included), 2 on parse or precondition errors, 3 when the answer is
undecided-numeric (generic mode only; corona base pairs are decided
exactly), 4 when an internal invariant fails (a bug).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .algebraic import DEFAULT_RECOGNITION_TOL, InternalInvariantError, QuadExt, as_exact
from .corona_spectra import CoronaParams, corona_spectrum
from .graphs import (
    Graph,
    cocktail_party_graph,
    complete_graph,
    generate,
    read_edge_list,
    signless_laplacian,
    vertex_complemented_corona,
)
from .spectra import decompose, fidelity_scan, transition_amplitude
from .state_transfer import (
    DEFAULT_EPSILON,
    DEFAULT_L_BOUND,
    PST,
    UNDECIDED,
    PGSTSearchResult,
    corona_base_pst_check,
    pgst_cocktail,
    pgst_scan,
    pgst_time_search,
    pst_certify,
)

ENV_PREFIX = "QWC_"
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class RunConfig:
    """Numeric policy shared by all commands; flags beat env beats default."""

    tolerance: float = DEFAULT_RECOGNITION_TOL
    l_bound: int = DEFAULT_L_BOUND
    epsilon: float = DEFAULT_EPSILON
    t_max: float = 50.0
    steps: int = 2000
    format: str = "json"

    def __post_init__(self) -> None:
        for field in ("tolerance", "epsilon", "t_max"):
            value = getattr(self, field)
            if value <= 0:
                raise ValueError(f"{field} must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{field} must be finite, got {value}")
        if self.l_bound <= 0 or self.steps <= 0:
            raise ValueError("l_bound and steps must be positive")
        if self.format not in FORMATS:
            raise ValueError(f"format must be json or csv, got {self.format!r}")


def build_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the QWC_<FIELD> variables and the flags of every field.

    A variable whose value casts but fails RunConfig's check is named in
    the error, unless a flag overrides it.
    """
    values = {}
    for field in fields(RunConfig):
        name = ENV_PREFIX + field.name.upper()
        env = os.environ.get(name)
        if env is not None:
            cast = type(field.default)
            try:
                values[field.name] = cast(env)
            except ValueError:
                raise ValueError(
                    f"environment variable {name}={env!r} is not a valid {cast.__name__}"
                ) from None
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
        elif env is not None:
            try:
                RunConfig(**{field.name: values[field.name]})
            except ValueError as err:
                raise ValueError(f"environment variable {name}={env!r}: {err}") from None
    cfg = RunConfig(**values)
    object.__setattr__(cfg, "_explicit_format", "format" in values)
    return cfg


# ---------------------------------------------------------------------------
# spec and address parsing


@dataclass(frozen=True)
class ParsedSpec:
    """A spec as its factors: g alone, or g and h, whose corona `graph` builds on first read."""

    text: str
    g: Graph
    h: Graph = None
    cocktail_m: int = None

    @property
    def is_corona(self) -> bool:
        return self.h is not None

    @property
    def n(self) -> int:
        return self.g.n * (1 + self.h.n) if self.is_corona else self.g.n

    @cached_property
    def graph(self) -> Graph:
        return vertex_complemented_corona(self.g, self.h) if self.is_corona else self.g


def parse_spec(text: str, file_path: str = None) -> ParsedSpec:
    if file_path is not None:
        return ParsedSpec(text=f"file:{file_path}", g=read_edge_list(file_path))
    text = text.strip()
    if not text:
        raise ValueError("empty graph spec")
    if text.startswith("cocktail-corona:"):
        tail = text[len("cocktail-corona:") :]
        try:
            m = int(tail)
        except ValueError:
            raise ValueError(
                f"cannot parse {text!r}: parameter {tail!r} (position "
                f"{len('cocktail-corona:')}) is not an integer"
            ) from None
        return ParsedSpec(text=text, g=cocktail_party_graph(m), h=complete_graph(1), cocktail_m=m)
    if text.startswith("corona(") and text.endswith(")"):
        inner = text[len("corona(") : -1]
        depth = 0
        split_at = -1
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                split_at = i
                break
        if split_at < 0:
            raise ValueError(
                f"cannot parse {text!r}: expected a top-level comma inside corona(...) "
                f"(position {len('corona(')})"
            )
        left = parse_spec(inner[:split_at])
        right = parse_spec(inner[split_at + 1 :])
        return ParsedSpec(text=text, g=left.graph, h=right.graph)
    return ParsedSpec(text=text, g=generate(text))


def parse_address(text: str, spec: ParsedSpec) -> int:
    """Vertex address: a plain index, base:i, or copy:i:j in corona order."""
    text = text.strip()
    if text.startswith("base:") or text.startswith("copy:"):
        if not spec.is_corona:
            raise ValueError(f"address {text!r} needs a corona spec")
        n1, n2 = spec.g.n, spec.h.n
        parts = text.split(":")
        try:
            nums = [int(p) for p in parts[1:]]
        except ValueError:
            raise ValueError(f"malformed vertex address {text!r}") from None
        if parts[0] == "base" and len(nums) == 1:
            i = nums[0]
            if not 0 <= i < n1:
                raise ValueError(f"base index {i} out of range [0, {n1})")
            return i
        if parts[0] == "copy" and len(nums) == 2:
            i, j = nums
            if not 0 <= i < n1:
                raise ValueError(f"base index {i} out of range [0, {n1})")
            if not 0 <= j < n2:
                raise ValueError(f"attachment index {j} out of range [0, {n2})")
            return n1 + i * n2 + j
        raise ValueError(f"malformed vertex address {text!r}")
    try:
        idx = int(text)
    except ValueError:
        raise ValueError(f"malformed vertex address {text!r}") from None
    if not 0 <= idx < spec.n:
        raise ValueError(f"vertex {idx} out of range [0, {spec.n})")
    return idx


# ---------------------------------------------------------------------------
# JSON rendering (deterministic)


def _fmt_float(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0
    return f"{x:.12g}"


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return render_json({"re": obj.real, "im": obj.imag})
    if isinstance(obj, QuadExt):
        return render_json({"a": obj.a, "b": obj.b, "delta": obj.delta})
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray):
        return render_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _value_json(v):
    """Eigenvalue slot: exact quadratic form when available, approx otherwise."""
    if isinstance(v, QuadExt):
        return v
    return {"approx": float(v)}


# ---------------------------------------------------------------------------
# commands


def cmd_spectrum(args, cfg: RunConfig) -> tuple:
    spec = parse_spec(args.spec, args.file)
    dec = decompose(signless_laplacian(spec.graph))
    if cfg.format == "csv":
        lines = ["value,multiplicity"]
        for val, mult in zip(dec.eigenvalues, dec.multiplicities):
            lines.append(f"{_fmt_float(val)},{mult}")
        return "\n".join(lines), 0
    exacts = as_exact(dec.eigenvalues, cfg.tolerance)
    rows = [
        {"value": _value_json(exact if exact is not None else val), "multiplicity": mult}
        for val, exact, mult in zip(dec.eigenvalues, exacts, dec.multiplicities)
    ]
    out = {
        "spec": spec.text,
        "n": spec.n,
        "eigenvalues": rows,
        "warnings": list(dec.warnings),
    }
    if args.projectors:
        out["projectors"] = [p for p in dec.projectors]
    return render_json(out), 0


def cmd_corona_spectrum(args, cfg: RunConfig) -> tuple:
    gspec = parse_spec(args.g_spec)
    hspec = parse_spec(args.h_spec)
    params = CoronaParams.from_graphs(gspec.graph, hspec.graph)
    gdec = decompose(signless_laplacian(gspec.graph))
    hdec = decompose(signless_laplacian(hspec.graph))
    spectrum = corona_spectrum(gdec, hdec, params)

    corona = ParsedSpec(text=f"corona({gspec.text},{hspec.text})", g=gspec.graph, h=hspec.graph)
    oracle = decompose(signless_laplacian(corona.graph))
    closed_sorted = np.sort(
        np.repeat(
            [float(e.value) for e in spectrum.entries],
            [e.multiplicity for e in spectrum.entries],
        )
    )
    oracle_sorted = np.sort(np.repeat(oracle.eigenvalues, oracle.multiplicities))
    max_dev = float(np.max(np.abs(closed_sorted - oracle_sorted)))

    if cfg.format == "csv":
        lines = ["kind,value,origin,multiplicity"]
        for e in spectrum.entries:
            lines.append(
                f"{e.kind},{_fmt_float(float(e.value))},{_fmt_float(e.origin)},{e.multiplicity}"
            )
        lines.append(f"# max_deviation,{_fmt_float(max_dev)}")
        return "\n".join(lines), 0

    entries = []
    for e in spectrum.entries:
        entries.append(
            {
                "kind": e.kind,
                "value": _value_json(e.value),
                "origin": e.origin,
                "multiplicity": e.multiplicity,
                "radicand": e.radicand,
            }
        )
    out = {
        "g": gspec.text,
        "h": hspec.text,
        "params": {**vars(params), "s": params.s, "t": params.t},
        "closed_form": entries,
        "oracle": [
            {"value": v, "multiplicity": m}
            for v, m in zip(oracle.eigenvalues, oracle.multiplicities)
        ],
        "max_deviation": max_dev,
    }
    if args.materialize_projectors:
        out["projectors"] = [spectrum.projector(k) for k in range(len(spectrum.entries))]
    return render_json(out), 0


def cmd_check_pst(args, cfg: RunConfig) -> tuple:
    spec = parse_spec(args.spec, args.file)
    u = parse_address(args.u, spec)
    v = parse_address(args.v, spec)
    if u == v:
        raise ValueError("strong cospectrality needs two distinct vertices")
    mode = "generic"
    report = None
    if spec.is_corona and u < spec.g.n and v < spec.g.n:
        try:
            report = corona_base_pst_check(spec.g, spec.h, u, v)
            mode = "corona-base"
        except ValueError:
            report = None
    if report is None:
        dec = decompose(signless_laplacian(spec.graph))
        report = pst_certify(dec, u, v)
    out = {"spec": spec.text, "mode": mode}
    out.update(vars(report))
    out["support"] = [_value_json(x) for x in report.support]
    out["lambda_plus"] = [_value_json(x) for x in report.lambda_plus]
    out["lambda_minus"] = [_value_json(x) for x in report.lambda_minus]
    code = 3 if report.verdict == UNDECIDED else 0
    return render_json(out), code


def cmd_search_pgst(args, cfg: RunConfig) -> tuple:
    spec = parse_spec(args.spec, args.file)
    note = None
    if spec.cocktail_m is not None:
        given = [parse_address(a, spec) for a in (args.u, args.v) if a is not None]
        if given and given != [0, 1]:
            raise ValueError(
                "the cocktail party search runs between the antipodal base pair 0 1"
            )
        result = pgst_cocktail(spec.cocktail_m, cfg.epsilon, cfg.l_bound)
        mode = "cocktail"
    else:
        if not spec.is_corona:
            raise ValueError("search-pgst needs a corona spec")
        if args.u is None or args.v is None:
            raise ValueError("search-pgst needs two base vertex indices")
        u = _base_index(args.u, spec)
        v = _base_index(args.v, spec)
        params = CoronaParams.from_graphs(spec.g, spec.h)
        gdec = decompose(signless_laplacian(spec.g))
        try:
            result = pgst_time_search(gdec, params, u, v, cfg.epsilon, cfg.l_bound)
            mode = "guaranteed"
        except ValueError as err:
            note = str(err)
            base = pst_certify(gdec, u, v)
            g_par = base.g if base.verdict == PST and base.g else 1
            best_l, time, fid, achieved = pgst_scan(
                gdec, params, u, v, cfg.epsilon, cfg.l_bound, g_par
            )
            result = PGSTSearchResult(
                u=u,
                v=v,
                target_epsilon=cfg.epsilon,
                l_bound=cfg.l_bound,
                achieved=achieved,
                basis="heuristic-search",
                best_l=best_l,
                time=time,
                fidelity=fid,
            )
            mode = "heuristic"
    out = {"spec": spec.text, "mode": mode}
    out.update(vars(result))
    if note is not None:
        out["note"] = note
    return render_json(out), 0


def _base_index(text: str, spec: ParsedSpec) -> int:
    idx = parse_address(text, spec)
    if idx >= spec.g.n:
        raise ValueError("the time search runs between base vertices only")
    return idx


def cmd_fidelity(args, cfg: RunConfig) -> tuple:
    spec = parse_spec(args.spec, args.file)
    u = parse_address(args.u, spec)
    v = parse_address(args.v, spec)
    if args.tau is not None and not math.isfinite(args.tau):
        raise ValueError(f"tau must be finite, got {args.tau}")
    dec = decompose(signless_laplacian(spec.graph))
    if args.tau is not None:
        amp = transition_amplitude(dec, u, v, args.tau)
        out = {
            "spec": spec.text,
            "u": u,
            "v": v,
            "tau": args.tau,
            "amplitude": amp,
            "fidelity": float(abs(amp) ** 2),
        }
        return render_json(out), 0

    if args.grid is not None:
        start, stop, steps = _parse_grid(args.grid)
    else:
        start, stop, steps = 0.0, cfg.t_max, cfg.steps
    scan = fidelity_scan(dec, u, v, stop, steps, start)

    fmt = cfg.format if getattr(cfg, "_explicit_format", False) else "csv"
    if fmt == "csv":
        lines = ["tau,fidelity"]
        for tval, fval in zip(scan.taus, scan.fidelities):
            lines.append(f"{_fmt_float(tval)},{_fmt_float(fval)}")
        return "\n".join(lines), 0
    out = {
        "spec": spec.text,
        "u": u,
        "v": v,
        "taus": scan.taus,
        "fidelities": scan.fidelities,
        "best_tau": scan.best_tau,
        "best_fidelity": scan.best_fidelity,
    }
    return render_json(out), 0


def _parse_grid(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:steps, got {text!r}")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid must be start:stop:steps, got {text!r}") from None
    if not 0 <= start < stop or steps < 2:
        raise ValueError(f"grid needs 0 <= start < stop and steps >= 2, got {text!r}")
    if not math.isfinite(stop):
        raise ValueError(f"grid stop must be finite, got {text!r}")
    return start, stop, steps


# ---------------------------------------------------------------------------
# argument wiring


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for field in fields(RunConfig):
        kind = {"choices": FORMATS} if field.name == "format" else {"type": type(field.default)}
        p.add_argument("--" + field.name.replace("_", "-"), default=None, **kind)
    p.add_argument("--file", default=None, help="read the graph from an edge list file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwc",
        description="Signless Laplacian walk analysis on graphs and their coronas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues with exact forms where possible")
    p.add_argument("spec")
    p.add_argument("--projectors", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("corona-spectrum", help="closed form vs numeric oracle")
    p.add_argument("g_spec")
    p.add_argument("h_spec")
    p.add_argument("--materialize-projectors", action="store_true")
    _add_config_flags(p)

    p = sub.add_parser("check-pst", help="perfect transfer verdict for a vertex pair")
    p.add_argument("spec")
    p.add_argument("u")
    p.add_argument("v")
    _add_config_flags(p)

    p = sub.add_parser("search-pgst", help="bounded search for near-perfect transfer")
    p.add_argument("spec")
    p.add_argument("u", nargs="?", default=None)
    p.add_argument("v", nargs="?", default=None)
    _add_config_flags(p)

    p = sub.add_parser("fidelity", help="amplitude at one time or over a grid")
    p.add_argument("spec")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:steps")
    _add_config_flags(p)

    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up per call, so that the handlers can be replaced at run time
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        cfg = build_config(args)
        payload, code = handler(args, cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InternalInvariantError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 4
    print(payload)
    return code


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)
