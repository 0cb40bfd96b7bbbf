"""Byte-for-byte pins of `qwc` output: stdout, stderr and the exit code.

Each case in cli_golden.json runs `cli.main` in process with the listed
argv and QWC_* environment and must reproduce the recorded bytes.  The
cases cover every subcommand, JSON and CSV output, base:/copy: addresses,
the guaranteed, heuristic and cocktail PGST searches (a heuristic one for
each unmet condition a named family reaches), and the exits 2 and 3.  Floats are rendered to 12 significant digits, so values at
rounding-noise level (max_deviation, near-zero fidelities) pin the
LAPACK build as well.

A change that alters output on purpose regenerates the file with
`PYTHONPATH=src python tests/test_cli_golden.py` and lists the changed
cases in its change notes.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from qwcorona.cli import ENV_PREFIX, main

GOLDEN = Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text())


def _case_id(case) -> str:
    env = " ".join(f"{k}={v}" for k, v in case.get("env", {}).items())
    return " ".join(filter(None, [env] + case["argv"]))


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_cli_output_is_pinned(case, monkeypatch, capsys):
    for name in list(os.environ):
        if name.startswith(ENV_PREFIX):
            monkeypatch.delenv(name)
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    code = main(case["argv"])
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == (
        case["stdout"],
        case["stderr"],
        case["code"],
    )


def _regenerate() -> None:
    import contextlib
    import io

    for case in CASES:
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith(ENV_PREFIX)}
        os.environ.update(case.get("env", {}))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                case["code"] = main(case["argv"])
        finally:
            for k in case.get("env", {}):
                del os.environ[k]
            os.environ.update(saved)
        case["stdout"], case["stderr"] = out.getvalue(), err.getvalue()
    GOLDEN.write_text(json.dumps(CASES, indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
