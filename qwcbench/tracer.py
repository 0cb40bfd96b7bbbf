"""Per-layer spans around qwcorona's public functions, installed from outside.

`Tracer.install` replaces every public function of the traced modules, in
every qwcorona namespace that holds it, by a wrapper that records a span.
A span's self time is its duration minus the time covered by the spans
opened inside it, so summing self times over a layer's functions never
counts a nested call twice.  Spans are folded into per-function totals as
they close; nothing is written until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import re
import subprocess
import time
from collections import Counter, defaultdict

MODULES = ("graphs", "spectra", "algebraic", "corona_spectra", "state_transfer", "cli")

# layer metric prefix -> functions whose self time and calls it sums
LAYERS = {
    "spectra.decompose": ("spectra.decompose", "spectra.decompose_graph"),
    "corona_spectra.full_q": ("corona_spectra.corona_full_q",),
    "corona_spectra.closed_form": ("corona_spectra.corona_spectrum",),
    "spectra.cospectral": ("spectra.strong_cospectrality", "spectra.eigenvalue_support"),
    "state_transfer.certify": ("state_transfer.pst_certify",),
    "state_transfer.refute": (
        "state_transfer.periodicity_size_bound",
        "state_transfer.support_gap_refutation",
        "state_transfer.k2_corona_no_pst",
        "state_transfer.corona_base_periodicity",
        "state_transfer.is_periodic_vertex",
    ),
    "state_transfer.decide": ("state_transfer.corona_base_pst_check",),
    "graphs.build": (
        "graphs.generate",
        "graphs.vertex_complemented_corona",
        "graphs.signless_laplacian",
    ),
    "algebraic.square_free": ("algebraic.square_free_part",),
    "corona_spectra.transition": ("corona_spectra.corona_transition_element",),
    "state_transfer.scan": ("state_transfer.pgst_scan", "state_transfer.pgst_cocktail"),
    "algebraic.recognize": ("algebraic.recognize_quadext",),
    "cli.parse": (
        "cli.main",
        "cli.build_parser",
        "cli.build_config",
        "cli.parse_spec",
        "cli.parse_address",
    ),
    "cli.render": ("cli.render_json",),
    "cli.handler": (
        "cli.cmd_spectrum",
        "cli.cmd_corona_spectrum",
        "cli.cmd_check_pst",
        "cli.cmd_search_pgst",
        "cli.cmd_fidelity",
    ),
}

# layers whose call count is reported next to their time
COUNTED = ("spectra.decompose", "corona_spectra.full_q", "algebraic.square_free", "algebraic.recognize")


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.decompose_max_n = 0
        self.projector_mb_max = 0.0
        self.transition_points = 0
        self.recognize_hits = 0
        self._open = []  # child time accumulated inside each open span

    def reset(self) -> None:
        self.__init__()

    def _record(self, name, args, result) -> None:
        if name == "spectra.decompose":
            n = result.n
            self.decompose_max_n = max(self.decompose_max_n, n)
            self.projector_mb_max = max(self.projector_mb_max, len(result.projectors) * n * n * 8 / 1e6)
        elif name == "corona_spectra.corona_transition_element":
            self.transition_points += getattr(args[4], "size", 1)
        elif name == "algebraic.recognize_quadext" and result is not None:
            self.recognize_hits += 1

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = self._open.pop()
                self.self_s[name] += dt - inner
                self.calls[name] += 1
                if self._open:
                    self._open[-1] += dt
            self._record(name, args, result)
            return result

        return traced

    def install(self, package: str = "qwcorona") -> None:
        wrapped = {}
        mods = [importlib.import_module(package)]
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            mods.append(mod)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation self time and call counts of every layer."""
        out = {}
        for layer, names in LAYERS.items():
            out[f"{layer}_ms"] = (1e3 * sum(self.self_s[n] for n in names) / ops, "ms")
            if layer in COUNTED:
                out[f"{layer}_calls"] = (sum(self.calls[n] for n in names) / ops, "count")
        out["spectra.decompose_max_n"] = (self.decompose_max_n, "count")
        out["spectra.projector_mb"] = (self.projector_mb_max, "MB")
        out["corona_spectra.transition_points"] = (self.transition_points / ops, "count")
        calls = self.calls["algebraic.recognize_quadext"]
        out["algebraic.recognize_hit_ratio"] = (self.recognize_hits / calls if calls else 0.0, "ratio")
        return out


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")


def import_times(python: str, env: dict, module: str = "qwcorona.cli") -> tuple[float, float]:
    """Cumulative import ms of `module` and of scipy.optimize in a fresh
    interpreter, from `-X importtime`."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    total = scipy = 0.0
    for line in proc.stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative_ms, name = int(m.group(1)) / 1e3, m.group(2)
        if name == module:
            total = cumulative_ms
        elif name == "scipy.optimize" and not scipy:
            scipy = cumulative_ms
    if not total:
        raise RuntimeError(f"importtime output has no line for {module}")
    return total, scipy
