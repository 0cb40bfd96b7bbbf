"""Tests for the qwc command line interface."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwcorona
from qwcorona.algebraic import QuadExt
from qwcorona.cli import (
    RunConfig,
    build_config,
    build_parser,
    main,
    parse_address,
    parse_spec,
    render_json,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# =========================================================================
# spec parsing
# =========================================================================


def test_parse_generate_spec():
    spec = parse_spec("K:3")
    assert spec.graph.n == 3
    assert not spec.is_corona
    assert spec.cocktail_m is None


def test_parse_corona_spec():
    spec = parse_spec("corona(K:2,K:1)")
    assert spec.is_corona
    assert spec.g.n == 2 and spec.h.n == 1
    assert spec.graph.n == 4


def test_parse_nested_corona_spec():
    spec = parse_spec("corona(corona(K:2,K:1),K:1)")
    assert spec.g.n == 4
    assert spec.graph.n == 8


def test_parse_cocktail_corona_spec():
    spec = parse_spec("cocktail-corona:3")
    assert spec.cocktail_m == 3
    assert spec.g.n == 6 and spec.h.n == 1
    assert spec.graph.n == 12


def test_parse_spec_strips_whitespace():
    assert parse_spec("  C:4 ").graph.n == 4


def test_parse_spec_errors():
    with pytest.raises(ValueError):
        parse_spec("")
    with pytest.raises(ValueError, match="top-level comma"):
        parse_spec("corona(K:2)")
    with pytest.raises(ValueError, match="is not an integer"):
        parse_spec("cocktail-corona:x")
    with pytest.raises(ValueError):
        parse_spec("mystery:5")


def test_parse_spec_from_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("3\n0 1\n1 2\n")
    spec = parse_spec("ignored", str(p))
    assert spec.graph.n == 3
    assert spec.text == f"file:{p}"


def test_spec_counts_vertices_from_its_factors(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("3\n0 1\n1 2\n")
    specs = [
        parse_spec("C:5"),
        parse_spec("ignored", str(p)),
        parse_spec("corona(C:4,K:2)"),
        parse_spec("corona(corona(K:2,K:1),K:1)"),
        parse_spec("cocktail-corona:3"),
    ]
    for spec in specs:
        assert spec.n == spec.graph.n, spec.text


@pytest.fixture
def corona_builds(monkeypatch):
    """Count the corona adjacencies the CLI builds."""
    from qwcorona import cli

    build = cli.vertex_complemented_corona
    calls = []

    def counted(g, h):
        calls.append((g.n, h.n))
        return build(g, h)

    monkeypatch.setattr(cli, "vertex_complemented_corona", counted)
    return calls


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["check-pst", "corona(C:6,K:1)", "base:0", "base:3"], 0),
        (["check-pst", "corona(C:6,K:1)", "0", "3"], 0),
        (["check-pst", "corona(C:60,C:25)", "base:0", "base:30"], 0),
        (["search-pgst", "cocktail-corona:3", "--l-bound", "100"], 0),
        (["search-pgst", "corona(CP:4,empty:1)", "0", "1", "--l-bound", "100"], 0),
        (["search-pgst", "corona(K:2,K:2)", "0", "1", "--l-bound", "10"], 0),
        (["spectrum", "corona(C:4,K:2)"], 1),
        (["fidelity", "corona(K:2,K:1)", "0", "1", "--tau", "1"], 1),
        (["check-pst", "corona(K:2,K:1)", "copy:0:0", "copy:1:0"], 1),
        (["check-pst", "corona(corona(K:2,K:1),K:1)", "base:0", "base:1"], 2),
        (["corona-spectrum", "C:4", "K:2"], 1),
    ],
)
def test_commands_build_the_corona_only_when_they_read_it(capsys, corona_builds, argv, builds):
    # base pairs and PGST searches decide from the factors; a nested spec
    # builds its inner corona, which is the outer base
    code, _, err = run(capsys, argv)
    assert code in (0, 3), err
    assert len(corona_builds) == builds


@pytest.mark.parametrize(
    "spec, u, v",
    [
        ("corona(C:60,C:25)", "base:0", "base:0"),
        ("corona(C:6,K:1)", "copy:2:0", "copy:2:0"),
        ("corona(C:6,K:1)", "0", "base:0"),
        ("K:2", "1", "1"),
    ],
)
def test_check_pst_rejects_equal_addresses_before_building(capsys, corona_builds, spec, u, v):
    code, out, err = run(capsys, ["check-pst", spec, u, v])
    assert (code, out) == (2, "")
    assert err == "error: strong cospectrality needs two distinct vertices\n"
    assert corona_builds == []


# =========================================================================
# vertex addressing
# =========================================================================


def test_address_plain_index():
    spec = parse_spec("C:4")
    assert parse_address("2", spec) == 2
    with pytest.raises(ValueError, match="out of range"):
        parse_address("4", spec)
    with pytest.raises(ValueError, match="malformed"):
        parse_address("1.5", spec)


def test_address_corona_forms():
    spec = parse_spec("corona(C:4,K:2)")
    assert parse_address("base:3", spec) == 3
    assert parse_address("copy:0:0", spec) == 4
    assert parse_address("copy:2:1", spec) == 4 + 2 * 2 + 1
    with pytest.raises(ValueError, match="out of range"):
        parse_address("base:4", spec)
    with pytest.raises(ValueError, match="out of range"):
        parse_address("copy:0:2", spec)
    with pytest.raises(ValueError, match="malformed"):
        parse_address("copy:1", spec)


def test_address_needs_corona():
    spec = parse_spec("C:4")
    with pytest.raises(ValueError, match="corona spec"):
        parse_address("base:0", spec)


# =========================================================================
# JSON rendering
# =========================================================================


def test_render_scalars():
    assert render_json(None) == "null"
    assert render_json(True) == "true"
    assert render_json(np.bool_(False)) == "false"
    assert render_json(3) == "3"
    assert render_json(np.int64(7)) == "7"
    assert render_json(0.5) == "0.5"
    assert render_json(-0.0) == "0"
    assert render_json(np.float64(2.25)) == "2.25"


def test_render_structures():
    assert render_json(complex(1.5, -2.0)) == '{"re": 1.5, "im": -2}'
    assert render_json(QuadExt(4, 2, 2)) == '{"a": 4, "b": 2, "delta": 2}'
    assert render_json([1, "a b", None]) == '[1, "a b", null]'
    assert render_json({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'
    assert render_json(np.array([1.0, 2.0])) == "[1, 2]"


def test_render_rejects_unknown():
    with pytest.raises(TypeError):
        render_json(object())


def test_rendered_output_is_valid_json():
    obj = {"x": [QuadExt(3, 1, 5), complex(0, 1)], "y": np.array([[1, 2], [3, 4]])}
    parsed = json.loads(render_json(obj))
    assert parsed["x"][0] == {"a": 3, "b": 1, "delta": 5}
    assert parsed["y"] == [[1, 2], [3, 4]]


# =========================================================================
# configuration
# =========================================================================


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.tolerance == 1e-9
    assert cfg.l_bound == 10**6
    assert cfg.format == "json"


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        RunConfig(format="xml")


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("QWC_L_BOUND", "37")
    out = run_json(capsys, ["search-pgst", "cocktail-corona:3"])
    assert out["l_bound"] == 37


def test_flag_beats_env(monkeypatch, capsys):
    monkeypatch.setenv("QWC_L_BOUND", "37")
    out = run_json(capsys, ["search-pgst", "cocktail-corona:3", "--l-bound", "21"])
    assert out["l_bound"] == 21


def test_env_rejects_garbage(monkeypatch):
    monkeypatch.setenv("QWC_EPSILON", "tiny")
    parser = build_parser()
    args = parser.parse_args(["search-pgst", "cocktail-corona:3"])
    with pytest.raises(ValueError, match="QWC_EPSILON"):
        build_config(args)


# the last value casts but fails RunConfig's check
CONFIG_CASES = [
    ("tolerance", "1e-6", "1e-5", "tiny", "QWC_TOLERANCE='tiny'", "0"),
    ("l_bound", "37", "21", "1e6", "QWC_L_BOUND='1e6'", "0"),
    ("epsilon", "0.5", "0.25", "tiny", "QWC_EPSILON='tiny'", "-1"),
    ("t_max", "7.5", "3", "long", "QWC_T_MAX='long'", "0"),
    ("steps", "37", "21", "2.5", "QWC_STEPS='2.5'", "-5"),
    # any string casts; the value check names the field
    ("format", "csv", "json", "xml", "format must be json or csv, got 'xml'", "xml"),
]


@pytest.mark.parametrize(
    "field, env, flag, garbage, error, invalid",
    CONFIG_CASES,
    ids=[case[0] for case in CONFIG_CASES],
)
def test_every_config_field_reads_env_and_flag(
    monkeypatch, field, env, flag, garbage, error, invalid
):
    cast = type(getattr(RunConfig(), field))
    parser = build_parser()
    plain = parser.parse_args(["spectrum", "K:2"])
    flagged = parser.parse_args(["spectrum", "K:2", "--" + field.replace("_", "-"), flag])
    name = "QWC_" + field.upper()
    monkeypatch.setenv(name, env)
    assert getattr(build_config(plain), field) == cast(env)
    assert getattr(build_config(flagged), field) == cast(flag)
    monkeypatch.setenv(name, garbage)
    with pytest.raises(ValueError, match=error):
        build_config(plain)
    # the value check names the variable, unless a flag beats it
    monkeypatch.setenv(name, invalid)
    prefix = f"environment variable {name}={invalid!r}: "
    with pytest.raises(ValueError, match="^" + re.escape(prefix) + ".*" + field):
        build_config(plain)
    assert getattr(build_config(flagged), field) == cast(flag)
    if field != "format":  # argparse's choices reject a bad --format
        monkeypatch.delenv(name)
        bad_flag = parser.parse_args(["spectrum", "K:2", "--" + field.replace("_", "-"), invalid])
        with pytest.raises(ValueError, match=f"^(?!environment).*{field}"):
            build_config(bad_flag)


def test_fidelity_grid_env_format_counts_as_explicit(monkeypatch, capsys):
    monkeypatch.setenv("QWC_FORMAT", "json")
    out = run_json(capsys, ["fidelity", "K:2", "0", "1", "--grid", "0:3.2:64"])
    assert len(out["taus"]) == 64


# =========================================================================
# subcommands end to end
# =========================================================================


def test_spectrum_json(capsys):
    out = run_json(capsys, ["spectrum", "CP:4"])
    assert out["spec"] == "CP:4" and out["n"] == 8
    rows = out["eigenvalues"]
    assert [(r["value"]["a"], r["multiplicity"]) for r in rows] == [
        (24, 1),
        (12, 4),
        (8, 3),
    ]
    assert all(r["value"]["delta"] == 1 for r in rows)
    assert out["warnings"] == []


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, ["spectrum", "K:3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["value,multiplicity", "4,1", "1,2"]


def test_spectrum_projectors_flag(capsys):
    out = run_json(capsys, ["spectrum", "K:2", "--projectors"])
    ps = np.array(out["projectors"])
    assert ps.shape == (2, 2, 2)
    assert np.allclose(ps.sum(axis=0), np.eye(2))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["spectrum", "K:2", "--projectors"], "--projectors"),
        (["corona-spectrum", "K:2", "K:1", "--materialize-projectors"], "--materialize-projectors"),
        (["fidelity", "K:2", "0", "1", "--tau", "1"], "--tau"),
    ],
)
@pytest.mark.parametrize("by_env", [False, True])
def test_projectors_have_no_csv_form(capsys, monkeypatch, argv, flag, by_env):
    # CSV has no place for projector matrices or for one amplitude: the
    # request fails and names the flag, whether the flag or QWC_FORMAT asks
    # for CSV
    if by_env:
        monkeypatch.setenv("QWC_FORMAT", "csv")
    else:
        argv = argv + ["--format", "csv"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert flag in err and "CSV" in err


def test_spectrum_surd_recognition(capsys):
    out = run_json(capsys, ["spectrum", "C:5"])
    vals = [r["value"] for r in out["eigenvalues"]]
    assert vals[0] == {"a": 8, "b": 0, "delta": 1}
    assert vals[1] == {"a": 3, "b": 1, "delta": 5}
    assert vals[2] == {"a": 3, "b": -1, "delta": 5}


def test_corona_spectrum_json(capsys):
    out = run_json(capsys, ["corona-spectrum", "K:2", "K:1"])
    assert out["params"] == {"n1": 2, "n2": 1, "r1": 1, "r2": 0, "s": 1, "t": 1}
    assert out["max_deviation"] < 1e-8
    kinds = sorted(e["kind"] for e in out["closed_form"])
    assert kinds == ["pair-minus", "pair-plus", "top-minus", "top-plus"]
    tops = {e["kind"]: e for e in out["closed_form"]}
    assert tops["top-plus"]["value"] == {"a": 4, "b": 2, "delta": 2}
    assert tops["top-plus"]["radicand"] == 8


def _approx(value) -> float:
    if "approx" in value:
        return value["approx"]
    return (value["a"] + value["b"] * math.sqrt(value["delta"])) / 2


@pytest.mark.parametrize(
    "g_spec, h_spec", [("C:40", "C:20"), ("C:24", "empty:19"), ("C:20", "K:23")]
)
def test_corona_spectrum_oracle_keeps_close_pair_values_apart(capsys, g_spec, h_spec):
    # pair-minus values of distinct base eigenvalues sit ~1e-5 apart here;
    # an oracle clustering scaled by the spectral norm merged them
    out = run_json(capsys, ["corona-spectrum", g_spec, h_spec])
    values = sorted((_approx(e["value"]) for e in out["closed_form"]), reverse=True)
    distinct = 1 + sum(a - b > 1e-9 for a, b in zip(values, values[1:]))
    assert len(out["oracle"]) == distinct
    assert out["max_deviation"] < 1e-9


def test_corona_spectrum_csv(capsys):
    code, out, _ = run(capsys, ["corona-spectrum", "K:2", "K:1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,value,origin,multiplicity"
    assert lines[1] == "pair-plus,2,0,1"
    assert lines[-1].startswith("# max_deviation,")
    assert len(lines) == 6


def test_corona_spectrum_rejects_irregular(capsys):
    # corona(K:2,K:1) is the path 2-0-1-3, degrees 2, 2, 1, 1, as either
    # factor; the message names the factor
    cases = ((["corona(K:2,K:1)", "K:1"], "base"), (["K:3", "corona(K:2,K:1)"], "attachment"))
    for factors, factor in cases:
        code, out, err = run(capsys, ["corona-spectrum", *factors])
        assert (code, out) == (2, ""), factors
        assert err == f"error: {factor} graph: regularity violation at vertex 2: degree 1 != 2\n"


def test_check_pst_positive(capsys):
    out = run_json(capsys, ["check-pst", "CP:4", "0", "1"])
    assert out["verdict"] == "PST"
    assert out["mode"] == "generic"
    assert out["tau0"] == pytest.approx(math.pi / 2)
    assert out["g"] == 2
    assert out["support"] == [
        {"a": 24, "b": 0, "delta": 1},
        {"a": 12, "b": 0, "delta": 1},
        {"a": 8, "b": 0, "delta": 1},
    ]


def test_check_pst_corona_base_mode(capsys):
    out = run_json(capsys, ["check-pst", "corona(C:4,K:1)", "base:0", "base:2"])
    assert out["mode"] == "corona-base"
    assert out["verdict"] == "no-PST"
    assert out["basis"] == "size-bound"
    assert out["refutation_witness"]["eigenvalue"] == 2


def test_check_pst_copy_address_goes_generic(capsys):
    out = run_json(capsys, ["check-pst", "corona(K:2,K:1)", "copy:0:0", "copy:1:0"])
    assert out["mode"] == "generic"
    assert out["u"] == 2 and out["v"] == 3


def test_check_pst_irregular_corona_base_goes_generic(capsys):
    # the base corona(K:2,K:1) is not regular, so the closed form rejects
    # it and the dense decomposition of the whole graph decides
    code, out, _ = run(
        capsys, ["check-pst", "corona(corona(K:2,K:1),K:1)", "base:0", "base:1"]
    )
    assert code == 3
    out = json.loads(out)
    assert out["mode"] == "generic"
    assert out["verdict"] == "undecided-numeric"


def test_check_pst_undecided_exit_code(tmp_path, capsys):
    # a 7-path has unrecognizable surds in its end supports
    p = tmp_path / "p7.txt"
    p.write_text("7\n" + "\n".join(f"{i} {i + 1}" for i in range(6)) + "\n")
    code, out, _ = run(capsys, ["check-pst", "ignored", "0", "6", "--file", str(p)])
    assert code == 3
    assert json.loads(out)["verdict"] == "undecided-numeric"


def test_search_pgst_cocktail(capsys):
    out = run_json(capsys, ["search-pgst", "cocktail-corona:3", "--l-bound", "3000"])
    assert out["mode"] == "cocktail"
    assert out["achieved"] is True
    assert out["best_l"] == 2978
    assert out["fidelity"] > 0.99


def test_search_pgst_cocktail_rejects_other_pairs(capsys):
    for pair in (["0", "2"], ["1", "0"], ["0"], ["base:1", "base:0"]):
        code, _, err = run(capsys, ["search-pgst", "cocktail-corona:3", *pair])
        assert code == 2
        assert err == "error: the cocktail party search runs between the antipodal base pair 0 1\n"


@pytest.mark.parametrize("pair", [["0", "1"], ["base:0", "base:1"], [" 0", "base:1"]])
def test_search_pgst_cocktail_accepts_any_address_of_the_pair(capsys, pair):
    argv = ["search-pgst", "cocktail-corona:3"]
    _, want, _ = run(capsys, argv + ["--l-bound", "3000"])
    code, out, err = run(capsys, argv + pair + ["--l-bound", "3000"])
    assert (code, err) == (0, "")
    assert out == want


def test_search_pgst_guaranteed(capsys):
    out = run_json(
        capsys,
        ["search-pgst", "corona(CP:4,empty:1)", "0", "1", "--l-bound", "40000"],
    )
    assert out["mode"] == "guaranteed"
    assert out["achieved"] is True
    assert out["fidelity"] > 0.99


def test_search_pgst_heuristic_fallback(capsys):
    out = run_json(
        capsys,
        ["search-pgst", "corona(K:2,K:2)", "0", "1", "--l-bound", "10", "--epsilon", "1e-6"],
    )
    assert out["mode"] == "heuristic"
    assert out["achieved"] is False
    assert "note" in out


def test_search_pgst_rational_pair_gap_falls_back(capsys):
    # bipartite base, one-vertex attachment: the theta = 0 pair radicand is 4
    out = run_json(
        capsys, ["search-pgst", "corona(HQ:3,K:1)", "0", "7", "--l-bound", "50"]
    )
    assert out["mode"] == "heuristic"
    assert out["basis"] == "heuristic-search"
    assert "sqrt(4)" in out["note"]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-pst", "CP:4", "0", "1"],
        ["check-pst", "corona(K:2,K:1)", "copy:0:0", "copy:1:0"],
        ["search-pgst", "corona(HQ:3,K:1)", "0", "7", "--l-bound", "50"],
    ],
)
def test_recognition_tolerance_leaves_transfer_decisions_alone(capsys, argv):
    # --tolerance is the eigenvalue-recognition knob of `spectrum`; projector
    # entries are matched to the library's fixed DEFAULT_SUPPORT_TOL
    code, want, _ = run(capsys, argv)
    assert code == 0
    for tolerance in ("1e-20", "1e-3"):
        assert run(capsys, argv + ["--tolerance", tolerance]) == (0, want, "")


def test_python_dash_m_runs_the_cli():
    # antipodal cycle pair: strongly cospectral, and the non-integral cycle
    # eigenvalue in the support refutes periodicity, so no-PST with exit 0
    src = Path(qwcorona.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "qwcorona", "check-pst", "corona(C:30,C:15)", "base:0", "base:15"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["verdict"], out["basis"]) == ("no-PST", "nonperiodic-endpoint")
    assert '"strongly_cospectral": true' in proc.stdout


def test_cli_import_loads_neither_fractions_nor_decimal():
    # the scan's phases are integer fractions of a turn without `Fraction`,
    # so start-up pays for neither module
    src = Path(qwcorona.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, qwcorona.cli; print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_file_is_a_flag_of_the_one_spec_subcommands_only(tmp_path, capsys):
    p = tmp_path / "tri.txt"
    p.write_text("3\n0 1\n1 2\n0 2\n")
    want = run_json(capsys, ["spectrum", "K:3"])["eigenvalues"]
    assert run_json(capsys, ["spectrum", "ignored", "--file", str(p)])["eigenvalues"] == want
    code, out, err = run(capsys, ["search-pgst", "ignored", "0", "1", "--file", str(p)])
    assert (code, out) == (2, "")
    assert err == "error: search-pgst needs a corona spec\n"
    # corona-spectrum reads two specs and no file: the flag is refused, not ignored
    code, out, err = run(capsys, ["corona-spectrum", "K:2", "K:1", "--file", str(p)])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --file" in err


def test_cluster_tolerance_is_not_configurable(monkeypatch, capsys):
    # the clustering threshold is the library's DEFAULT_CLUSTER_TOL; a
    # stray QWC_CLUSTER_TOL is ignored and --cluster-tol is not a flag
    monkeypatch.setenv("QWC_CLUSTER_TOL", "2.5")
    out = run_json(capsys, ["check-pst", "CP:4", "0", "1"])
    assert out["verdict"] == "PST"
    code, _, err = run(capsys, ["check-pst", "CP:4", "0", "1", "--cluster-tol", "2.5"])
    assert code == 2
    assert "--cluster-tol" in err


def test_search_pgst_needs_base_vertices(capsys):
    code, _, err = run(capsys, ["search-pgst", "corona(K:2,K:2)", "copy:0:0", "0"])
    assert code == 2
    code, _, err = run(capsys, ["search-pgst", "K:2", "0", "1"])
    assert code == 2
    assert "corona" in err


def test_fidelity_at_tau(capsys):
    out = run_json(capsys, ["fidelity", "K:2", "0", "1", "--tau", str(math.pi / 2)])
    assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert out["amplitude"]["re"] == pytest.approx(-1.0, abs=1e-12)
    assert out["amplitude"]["im"] == pytest.approx(0.0, abs=1e-12)


def test_fidelity_grid_defaults_to_csv(capsys):
    code, out, _ = run(capsys, ["fidelity", "K:2", "0", "1", "--grid", "0:3.2:64"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,fidelity"
    assert len(lines) == 65


def test_fidelity_grid_json(capsys):
    out = run_json(
        capsys,
        ["fidelity", "K:2", "0", "1", "--grid", "0:3.2:64", "--format", "json"],
    )
    assert out["best_fidelity"] == pytest.approx(1.0, abs=1e-6)
    assert out["best_tau"] == pytest.approx(math.pi / 2, abs=1e-3)
    assert len(out["taus"]) == len(out["fidelities"])


def test_fidelity_offset_grid(capsys):
    out = run_json(
        capsys,
        ["fidelity", "K:2", "0", "1", "--grid", "1:2:10", "--format", "json"],
    )
    assert out["taus"][0] > 1.0
    assert out["taus"][-1] == pytest.approx(2.0)
    assert len(out["taus"]) == 10
    # the K2 peak at pi/2 lies between the grid points 1.5 and 1.6; the
    # refined maximum finds it, as on a grid from 0
    assert out["best_fidelity"] == 1.0
    assert out["best_tau"] == pytest.approx(math.pi / 2, abs=1e-6)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["tolerance", "epsilon", "t_max"])
def test_float_config_rejects_non_finite_values(monkeypatch, capsys, field, value):
    # -inf was already rejected as non-positive and keeps that message
    message = f"{field} must be {'positive' if value == '-inf' else 'finite'}, got {value}"
    argv = ["search-pgst", "cocktail-corona:3", "--l-bound", "10"]
    code, out, err = run(capsys, argv + [f"--{field.replace('_', '-')}={value}"])
    assert (code, out, err) == (2, "", f"error: {message}\n")
    name = "QWC_" + field.upper()
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: environment variable {name}={value!r}: {message}\n")


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--tau", "nan"], "tau must be finite, got nan"),
        (["--tau", "inf"], "tau must be finite, got inf"),
        (["--tau=-inf"], "tau must be finite, got -inf"),
        (["--grid", "nan:1:3", "--format", "json"], "grid needs 0 <= start < stop"),
        (["--grid", "0:nan:3"], "grid needs 0 <= start < stop"),
        (["--grid", "0:inf:3"], "grid stop must be finite, got '0:inf:3'"),
    ],
)
def test_fidelity_rejects_non_finite_times(capsys, flags, error):
    code, out, err = run(capsys, ["fidelity", "K:2", "0", "1", *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + error)


@pytest.mark.parametrize(
    "flags", [["--tau", "1e300"], ["--t-max", "1e300", "--steps", "3"], ["--grid", "0:1e300:3"]]
)
def test_fidelity_refuses_times_beyond_its_accuracy(capsys, flags):
    code, out, err = run(capsys, ["fidelity", "K:2", "0", "1", "--format", "json", *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: time 1e+300 is too large: fidelity error bound")


def test_fidelity_grid_validation(capsys):
    for grid in ("1:1:10", "5:1:10", "0:2:1", "0:2", "a:b:c", "-1:2:10"):
        code, _, err = run(capsys, ["fidelity", "K:2", "0", "1", "--grid", grid])
        assert code == 2, grid
        assert "error:" in err


def test_fidelity_from_file(tmp_path, capsys):
    p = tmp_path / "k2.txt"
    p.write_text("2\n0 1\n")
    out = run_json(
        capsys,
        ["fidelity", "ignored", "0", "1", "--file", str(p), "--tau", str(math.pi / 2)],
    )
    assert out["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_bad_spec_exits_two(capsys):
    code, _, err = run(capsys, ["spectrum", "nope:3"])
    assert code == 2
    assert err.startswith("error:")


def test_missing_subcommand_exits_two(capsys):
    assert run(capsys, [])[0] == 2
    assert run(capsys, ["frobnicate"])[0] == 2


def test_internal_invariant_exits_four(monkeypatch, capsys):
    def broken(args, cfg):
        raise qwcorona.InternalInvariantError("multiplicities sum to 3, expected 4")

    monkeypatch.setattr("qwcorona.cli.cmd_spectrum", broken)
    code, out, err = run(capsys, ["spectrum", "K:2"])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:")


def test_decisions_build_no_dense_projector(monkeypatch, capsys):
    # decisions read projector columns from the eigenvectors; only
    # `spectrum --projectors` asks for a dense eigenprojector
    from qwcorona import spectra

    def refuse(block):
        raise AssertionError("a dense projector was built")

    monkeypatch.setattr(spectra, "_projector", refuse)
    gen = qwcorona.generate
    for base, att, u, v in [("K:2", "K:1", 0, 1), ("CP:3", "K:1", 0, 1), ("C:8", "K:1", 0, 4), ("C:5", "C:5", 0, 1)]:
        qwcorona.corona_base_pst_check(gen(base), gen(att), u, v)
    g = gen("CP:2")
    params = qwcorona.CoronaParams.from_graphs(g, gen("empty:3"))
    gdec = qwcorona.decompose(qwcorona.signless_laplacian(g))
    assert qwcorona.pgst_time_search(gdec, params, 0, 1, 1e-2, 1000).basis == "irrational-gap-search"
    for argv in (
        ["check-pst", "corona(C:6,K:2)", "copy:0:0", "copy:3:0"],
        ["check-pst", "CP:4", "0", "1"],
        ["check-pst", "corona(K:2,K:1)", "base:0", "base:1"],
        ["spectrum", "corona(C:4,K:2)"],
        ["fidelity", "C:6", "0", "3", "--grid", "0:5:20"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)
    with pytest.raises(AssertionError, match="dense projector"):
        main(["spectrum", "K:2", "--projectors"])
