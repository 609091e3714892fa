"""Config parsing, experiment orchestration, serialization and exit codes."""

import math
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import coneyamabe
from coneyamabe import (CurvatureReport, Field, build_mesh, cli, model_dirichlet_data, newton_solve,
                        read_field_table)
from coneyamabe.cli import main
from coneyamabe.config import _SCHEMA, ConfigError, ExperimentConfig, echo_config, parse_config

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

BASE = """
[cone]
n = 3
d = 1
h = 1.0

[experiment]
kind = {kind}
{extra}
"""


def write_cfg(tmp_path, kind, extra="", body=""):
    text = BASE.format(kind=kind, extra=extra) + body
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "curvature"))
    assert (cfg.n, cfg.d, cfg.h) == (3, 1, 1.0)
    assert cfg.kind == "curvature"
    assert cfg.c0 == 1.0 and cfg.c1 == 1.0


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "curvature", body="[mesh]\nbogus = 1\n"))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "curvature", body="[nonsense]\nx = 1\n"))
    # coefficients are constants: a radial profile is no key of the schema
    cfgpath = write_cfg(tmp_path, "solve", body="[coefficients]\nc0_profile = 0.5:1.0, 2.0:2.0\n")
    with pytest.raises(ConfigError, match="unknown key 'c0_profile'"):
        parse_config(cfgpath)
    assert main(["solve", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1


def test_linear_tol_is_an_unknown_key(tmp_path):
    cfgpath = write_cfg(tmp_path, "solve", body="[tolerances]\nlinear_tol = 1e-10\n")
    with pytest.raises(ConfigError):
        parse_config(cfgpath)
    assert main(["solve", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("kind, body, match", [
    ("solve", "[mesh]\nn_radial = 2\n", "n_radial, n_angular >= 4"),
    ("solve", "[mesh]\ngrading = 0.5\n", "grading must be >= 1"),
    ("solve", "[mesh]\nomega_min = 2.0\n", "need 0 < omega_min < theta"),
    ("bogus-kind", "", "unknown experiment kind"),
    # the stabilization certificate needs at least two data values, 1 and 2
    ("dichotomy", "[tolerances]\ndata_max_exponent = 0\n", r"data_max_exponent in \[1, 40\]"),
], ids=["n_radial", "grading", "omega_min", "kind", "data_max_exponent"])
def test_numeric_ranges_validated(tmp_path, kind, body, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(write_cfg(tmp_path, kind, body=body))


CONE = "[cone]\nn = 3\nd = 1\nh = 1.0\n"
SOLVE = BASE.format(kind="solve", extra="")


@pytest.mark.parametrize("text, match", [
    ("n = 3\n" + CONE + "[experiment]\nkind = solve\n", "malformed config"),
    ("[experiment]\nkind = solve\n", r"missing required section \[cone\]"),
    ("[cone]\nd = 1\nh = 1.0\n[experiment]\nkind = solve\n", r"missing \[cone\] n"),
    (CONE + "[experiment]\nmethod = newton\n", r"missing \[experiment\] kind"),
    ("[cone]\nn = 2\nd = 1\nh = 1.0\n[experiment]\nkind = solve\n", "n >= 3"),
    (SOLVE + "[coefficients]\nc0 = -1\n", "c0 must be nonnegative"),
    (SOLVE + "[mesh]\nrho_polar_min = 2.0\nrho_polar_max = 2.0\n",
     "need 0 < rho_polar_min < rho_polar_max"),
    (SOLVE + "[mesh]\nnodes_per_octave = 1\n", "nodes_per_octave must be >= 2"),
    (SOLVE + "[tolerances]\nnonlinear_tol = 0\n", "tolerances must be positive"),
    (BASE.format(kind="solve", extra="method = bogus"), "unknown method 'bogus'"),
    (BASE.format(kind="dichotomy", extra="d_list = 3"), "1 <= d <= n-1, got d=3"),
    (BASE.format(kind="verify-model", extra="mesh_sizes = 32"),
     "mesh_sizes needs at least two sizes"),
    # a mesh no finer than the one before would read as a failed order check
    (BASE.format(kind="verify-model", extra="mesh_sizes = 16,8"),
     r"mesh_sizes needs at least two sizes, strictly increasing, got \[16, 8\]"),
    (BASE.format(kind="verify-model", extra="mesh_sizes = 32,32"),
     "mesh_sizes needs at least two sizes, strictly increasing"),
    # a repeated d would write its dichotomy row and summary keys twice
    (BASE.format(kind="dichotomy", extra="d_list = 2,2"), "d_list entries must be distinct"),
    (BASE.format(kind="dichotomy", extra="truncation_levels = 1"),
     "truncation_levels must be >= 2"),
    (BASE.format(kind="eigen", extra="eigen_denominator = bogus"),
     "eigen_denominator must be one of"),
    (BASE.format(kind="solve", extra="dirichlet = abc"),
     "dirichlet must be 'model' or a nonnegative constant"),
    (BASE.format(kind="solve", extra="dirichlet = -1"),
     "constant dirichlet data must be nonnegative"),
], ids=["unparseable-file", "missing-cone", "missing-n",
        "missing-kind", "n-2", "negative-c0", "rho_polar-range", "nodes_per_octave",
        "nonlinear_tol-zero", "unknown-method", "d_list-out-of-range", "single-mesh-size",
        "mesh_sizes-decreasing", "mesh_sizes-repeated", "d_list-repeated",
        "truncation_levels", "eigen_denominator", "dirichlet-word", "dirichlet-negative"])
def test_config_errors_name_their_cause(tmp_path, text, match):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError, match=match):
        parse_config(str(p))


SMALL_SWEEP = (
    "[mesh]\nn_radial = 16\nn_angular = 12\nnodes_per_octave = 5\n"
    "[tolerances]\ndata_max_exponent = 2\nexhaustion_tol = {}\n"
)


@pytest.mark.parametrize("kind, body", [
    # a non-finite tolerance would switch the stabilization certificate off
    ("dichotomy", SMALL_SWEEP.format("nan")),
    ("dichotomy", SMALL_SWEEP.format("inf")),
    ("solve", "[mesh]\ngrading = nan\n"),
], ids=["exhaustion_tol-nan", "exhaustion_tol-inf", "grading-nan"])
def test_non_finite_values_rejected(tmp_path, kind, body):
    extra = "d_list = 1\ntruncation_levels = 2\nplot = false" if kind == "dichotomy" else ""
    cfgpath = write_cfg(tmp_path, kind, extra=extra, body=body)
    with pytest.raises(ConfigError, match="finite"):
        parse_config(cfgpath)
    assert main([kind, "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("kind, extra, body, shape", [
    ("solve", "", "[mesh]\nn_angular = 12\ngrading = 1000\n", "40x12"),
    # the 8x8 mesh keeps its nodes apart at grading 9, the 128x128 one does not
    ("verify-model", "mesh_sizes = 8,128", "[mesh]\ngrading = 9\n", "128x128"),
], ids=["solve-base-mesh", "verify-model-mesh-sizes"])
def test_a_grading_that_collapses_a_mesh_is_a_config_error(tmp_path, kind, extra, body, shape):
    cfgpath = write_cfg(tmp_path, kind, extra=extra, body=body)
    with pytest.raises(ConfigError, match=f"{shape} mesh with grading .* not strictly increasing"):
        parse_config(cfgpath)
    assert main([kind, "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_plot_accepts_only_boolean_words(tmp_path):
    # configparser's words in any case; any other text is an error, not False
    for word, value in (("On", True), ("YES", True), ("1", True), ("true", True),
                        ("Off", False), ("no", False), ("FALSE", False), ("0", False)):
        assert parse_config(write_cfg(tmp_path, "curvature", extra=f"plot = {word}")).plot is value
    for text in ("ture", "2", "enabled", ""):
        with pytest.raises(ConfigError, match=r"\[experiment\] plot: expected a boolean"):
            parse_config(write_cfg(tmp_path, "curvature", extra=f"plot = {text}"))


@pytest.mark.parametrize("extra", [
    "d_list = 1,x",
    "mesh_sizes = 32,x",
    "d_list = 1,,2",
    "mesh_sizes = 32,64,",
], ids=["d_list", "mesh_sizes", "d_list-empty-entry", "mesh_sizes-trailing-comma"])
def test_malformed_lists_rejected(tmp_path, extra):
    cfgpath = write_cfg(tmp_path, "solve", extra=extra)
    with pytest.raises(ConfigError):
        parse_config(cfgpath)
    assert main(["solve", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1


def test_coefficient_sources_exclusive(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "solve", body="[coefficients]\nc0 = 1\ntarget_R = 2\n"))
    cfg = parse_config(write_cfg(tmp_path, "solve", body="[coefficients]\ntarget_R = 8.0\n"))
    # (n-2)|R|/(4(n-1)) at n=3
    assert cfg.c0 == pytest.approx(8.0 / 8.0)
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "solve", body="[coefficients]\nc1 = 1\ntarget_H = 2\n"))
    cfg = parse_config(write_cfg(tmp_path, "solve", body="[coefficients]\ntarget_H = 8.0\n"))
    # (n-2)|H|/(2(n-1)) at n=3
    assert cfg.c1 == pytest.approx(8.0 / 4.0)
    assert cfg.c0 == 1.0


def test_verify_model_outside_the_complete_regime_is_a_config_error(tmp_path):
    # at d = (n-2)/2 the power solution's c0_* is 0, so there is no exact
    # solution to converge to: the parser refuses the run before main makes
    # the output directory
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("[cone]\nn = 4\nd = 1\nh = 1.0\n[experiment]\nkind = verify-model\n")
    with pytest.raises(ConfigError, match=r"complete regime d > \(n-2\)/2"):
        parse_config(str(cfgpath))
    out = tmp_path / "out"
    assert main(["verify-model", "--config", str(cfgpath), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH_CONFIGS.glob("*.cfg")) + ["targets"])
def test_echo_parses_back_to_the_same_config(tmp_path, name):
    # every config.<key> = <value> line of the summary is in config syntax:
    # the key's own parser reads it, and the values rebuild the config
    if name == "targets":
        body = "[coefficients]\ntarget_R = 6.0\ntarget_H = 2.0\n"
        cfg = parse_config(write_cfg(tmp_path, "solve", body=body))
    else:
        cfg = parse_config(str(BENCH_CONFIGS / name))
    parsers = {key: parse for keys in _SCHEMA.values() for key, parse in keys.items()}
    vals = {}
    for key, text in echo_config(cfg):
        section, key = key.split(".", 1)
        assert section == "config"
        vals[key] = parsers[key](text)
    assert ExperimentConfig(**vals) == cfg


def test_eigen_requires_denominator_choice(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, "eigen"))
    cfg = parse_config(write_cfg(tmp_path, "eigen", extra="eigen_denominator = volume"))
    assert cfg.eigen_denominator == "volume"


# ---------------------------------------------------------------------------
# experiments end to end
# ---------------------------------------------------------------------------


def test_curvature_experiment(tmp_path):
    cfgpath = write_cfg(tmp_path, "curvature")
    out = tmp_path / "out"
    assert main(["curvature", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "curvature.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["R_product"]) == -2.0
    assert float(row["H_model"]) == pytest.approx(-0.7071067811865476, abs=1e-12)
    assert (out / "summary.txt").exists()
    assert "status = ok" in (out / "summary.txt").read_text()


def test_curvature_deterministic_output(tmp_path):
    cfgpath = write_cfg(tmp_path, "curvature")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["curvature", "--config", cfgpath, "--out", str(out1)]) == 0
    assert main(["curvature", "--config", cfgpath, "--out", str(out2)]) == 0
    assert (out1 / "curvature.csv").read_bytes() == (out2 / "curvature.csv").read_bytes()


def test_solve_experiment_and_outputs(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "solve",
        body="[mesh]\nn_radial = 14\nn_angular = 14\nomega_min = 0.25\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    sol = (out / "solution.csv").read_text().splitlines()
    assert sol[0] == "rho_polar,omega,tag,value"
    assert len(sol) == 1 + 14 * 14
    assert (out / "profile.svg").read_text().startswith("<svg")
    summary = (out / "summary.txt").read_text()
    assert "status = ok" in summary


def test_solve_from_cold_start_at_blowup_data(tmp_path):
    # constant blow-up-scale data 2^16, solved by Newton from its default
    # start, zero on the free nodes, whose first step is their linear lift
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text(
        "[cone]\nn = 4\nd = 1\nh = 1.0\n"
        "[mesh]\nn_radial = 12\nn_angular = 12\n"
        "[experiment]\nkind = solve\ndirichlet = 65536\nplot = false\n"
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfgpath), "--out", str(out)]) == 0
    assert "status = ok" in (out / "summary.txt").read_text()


def test_solve_with_monotone_method(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "solve", extra="method = monotone",
        body="[mesh]\nn_radial = 12\nn_angular = 12\nomega_min = 0.3\n"
             "[tolerances]\nnonlinear_tol = 1e-7\nmax_iter = 4000\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0


@pytest.mark.parametrize("method, indicator", [
    ("newton", 0.999901555888),
    ("monotone", 0.999901555625),
])
def test_solve_reports_the_completeness_indicator(tmp_path, method, indicator):
    # min of u * rho^((n-2)/2) over the lowest-rho quartile of free nodes; on
    # the exact model problem u tends to rho^(-(n-2)/2), so it is near 1
    cfgpath = write_cfg(
        tmp_path, "solve", extra=f"method = {method}\nplot = false",
        body=f"[coefficients]\nc0 = 0.25\nc1 = {1.0 / (4.0 * math.sqrt(2.0))!r}\n"
             "[mesh]\nn_radial = 12\nn_angular = 12\nomega_min = 0.3\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    value = float(dict(line.split(" = ", 1) for line in lines)["solve.completeness_indicator"])
    assert value > 0
    assert value == pytest.approx(indicator, rel=1e-12)


def _monotone_data_run(tmp_path, body=""):
    # c0 = c1 = 1 and constant data 2^16 on the 8x8 (3,1) mesh at theta/2:
    # the linear lift lies at about the datum, and the Jacobi sweeps bring
    # the upper branch down from it before its second step
    cfgpath = write_cfg(
        tmp_path, "solve", extra="method = monotone\ndirichlet = 65536\nplot = false",
        body="[mesh]\nn_radial = 8\nn_angular = 8\nomega_min = 0.39269908169872414\n" + body,
    )
    out = tmp_path / "out"
    return main(["solve", "--config", cfgpath, "--out", str(out)]), cfgpath, out


def test_monotone_solve_uses_its_own_iteration_limit(tmp_path):
    # the bracket at data 2^16 needs 14 steps (15 with two sweeps on the
    # lift, 53 with none); without max_iter in the config the method's
    # limit, solver.NEWTON_MAX_ITER, applies and admits them, and a config
    # limit below them fails the run
    code, _, out = _monotone_data_run(tmp_path)
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "solve.iterations = 14" in summary
    assert 14 <= coneyamabe.solver.NEWTON_MAX_ITER
    assert "config.max_iter" not in summary
    code, _, out = _monotone_data_run(tmp_path, body="[tolerances]\nmax_iter = 13\n")
    assert code == 2
    assert "error = NonConvergenceError: monotone bracket did not reach tol 1e-08 within 13 steps" \
        in (out / "summary.txt").read_text()


def _solution_and_newton(cfgpath, out, tol=1e-13):
    """The run's solution.csv values, the summary, and newton_solve's
    solution of the same problem at tol."""
    cfg = parse_config(cfgpath)
    mesh = build_mesh(cfg.domain(), cfg.n_radial, cfg.n_angular, cfg.grading)
    with open(out / "solution.csv") as fh:
        u = read_field_table(fh)[3]
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    return u, summary, newton_solve(cli._build_problem(cfg, mesh), tol=tol).solution.values


def test_monotone_solve_at_large_data_lies_within_tol_of_newton(tmp_path):
    # the shifted chord iteration it replaces stopped here after 2 steps
    # with status ok and residual 1.36e9, its interior at 4e-52 of the
    # solution: the bracket's width is a proven bound on the error
    code, cfgpath, out = _monotone_data_run(tmp_path)
    assert code == 0
    u, summary, ref = _solution_and_newton(cfgpath, out)
    bound = 1e-8 * (1.0 + np.max(ref))
    assert 0.0 <= float(summary["solve.bracket"]) <= bound
    assert np.max(np.abs(u - ref)) <= bound


@pytest.mark.parametrize("data, omega_min", [
    pytest.param(data, omega_min, id=data)
    for data, omega_min in [("1e6", 0.39269908169872414), ("1e9", 0.39269908169872414),
                            ("1e12", 0.39269908169872414), ("1e160", 0.09817477042468103),
                            ("1e200", 0.09817477042468103), ("1e300", 0.09817477042468103)]])
@pytest.mark.parametrize("method", ["newton", "monotone"])
def test_solve_at_large_constant_data_converges_from_the_default_start(tmp_path, method, data,
                                                                       omega_min):
    # the default start's first step lands on the linear lift, about the
    # datum everywhere and far above the solution, from which Newton shed
    # only about 1/p of the excess per step and ran out of its steps from
    # 1e6 on (exit 2) on the 8x8 (3,1) mesh at theta/2.  The Jacobi sweeps
    # on the lift bring it into Newton's basin, for Newton and the
    # bracket's upper branch alike; at theta/8 two sweeps still left
    # 1e160 to 1e300 out of reach, and the sweeps that run on while some
    # node halves bring them in.  The bracket measures its width against
    # the free values, not the data, so its lower branch lies within
    # tol (1 + max free u) of Newton's tight solution
    cfgpath = write_cfg(
        tmp_path, "solve", extra=f"method = {method}\ndirichlet = {data}\nplot = false",
        body=f"[mesh]\nn_radial = 8\nn_angular = 8\nomega_min = {omega_min!r}\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    u, summary, ref = _solution_and_newton(cfgpath, out)
    assert summary["status"] == "ok"
    with open(out / "solution.csv") as fh:
        free = np.isin(read_field_table(fh)[2], ["INTERIOR", "ROBIN_CONE"])
    assert np.max(ref[~free]) == float(data) > 1e3 * np.max(ref[free])
    assert np.max(np.abs(u - ref)) <= 1e-8 * (1.0 + np.max(ref[free]))


def test_verify_model_experiment(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "verify-model", extra="mesh_sizes = 12,24,48",
        body="[mesh]\nomega_min = 0.15\n",
    )
    out = tmp_path / "out"
    assert main(["verify-model", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "errors.csv").read_text().splitlines()
    assert lines[0].startswith("mesh,nodes,err_inf,observed_order")
    orders = [float(line.split(",")[3]) for line in lines[2:]]
    assert all(1.7 <= o <= 2.3 for o in orders)
    assert (out / "convergence.svg").exists()


def test_verify_model_counts_every_factorization(tmp_path, orderings):
    # each mesh's summary count includes the factor of Newton's first step
    # from zero on the free nodes: together they are every SuperLU call,
    # one of them per mesh ordering by minimum degree
    cfgpath = write_cfg(
        tmp_path, "verify-model", extra="mesh_sizes = 12,24,48\nplot = false",
        body="[mesh]\nomega_min = 0.15\n",
    )
    out = tmp_path / "out"
    assert main(["verify-model", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    total = sum(int(summary[f"verify_model.factorizations_{size}"]) for size in (12, 24, 48))
    assert orderings == {"MMD_AT_PLUS_A": 3, "NATURAL": total - 3}


def test_verify_ladder_starts_each_mesh_from_the_coarser_solution(tmp_path):
    # from its default start every mesh of the benchmark ladder takes 4
    # factorizations; the coarser solution resampled onto a finer mesh lies
    # above its solution, so the start's factor carries every step and the
    # fine meshes factor once
    out = tmp_path / "out"
    config = str(BENCH_CONFIGS / "verify_n3_d1.cfg")
    assert main(["verify-model", "--config", config, "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    summary = dict(line.split(" = ", 1) for line in lines)
    assert int(summary["verify_model.factorizations_32"]) == 4
    for size in (64, 128, 256):
        assert int(summary[f"verify_model.factorizations_{size}"]) == 1


def test_verify_model_with_the_monotone_method(tmp_path):
    # each mesh starts from its own bracket [0, cap], nothing is carried over:
    # its upper branch is Newton from the default start, so the first mesh
    # factors as often as the Newton run and the second more often than
    # Newton's coarse-to-fine start; second order, and the errors of the
    # Newton run on the same meshes
    summaries = {}
    for method in ("monotone", "newton"):
        cfgpath = write_cfg(
            tmp_path, "verify-model", extra=f"method = {method}\nmesh_sizes = 12,24\nplot = false",
            body="[mesh]\nomega_min = 0.15\n",
        )
        out = tmp_path / method
        assert main(["verify-model", "--config", cfgpath, "--out", str(out)]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        summaries[method] = dict(line.split(" = ", 1) for line in lines)
    mono, newton = summaries["monotone"], summaries["newton"]
    assert 1.7 <= float(mono["verify_model.order_24"]) <= 2.3
    factorizations = {method: [int(s[f"verify_model.factorizations_{size}"]) for size in (12, 24)]
                      for method, s in summaries.items()}
    assert factorizations["monotone"][0] == factorizations["newton"][0]
    assert factorizations["monotone"][1] > factorizations["newton"][1]
    for size in (12, 24):
        err = float(mono[f"verify_model.err_{size}"])
        assert err == pytest.approx(float(newton[f"verify_model.err_{size}"]), rel=1e-3)


def test_eigen_experiment(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "eigen", extra="eigen_denominator = volume",
        body="[mesh]\nn_radial = 10\nn_angular = 10\n",
    )
    out = tmp_path / "out"
    assert main(["eigen", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "eigen.csv").read_text().splitlines()
    row = lines[1].split(",")
    assert row[0] == "volume"
    assert float(row[1]) > 0  # zero potentials on the interior: positive ground level
    assert abs(float(row[1]) - float(row[2])) <= 1e-8 * (1 + abs(float(row[1])))


def test_kind_mismatch_and_missing_config(tmp_path):
    cfgpath = write_cfg(tmp_path, "curvature")
    assert main(["solve", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
    assert main(["solve", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path)]) == 1
    assert main(["solve", "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # argparse exits 2 on a usage error, which would read as a solver failure
    cfgpath = write_cfg(tmp_path, "curvature")
    out = str(tmp_path / "o")
    assert main(["curvature", "--config", cfgpath, "--out", out, "--threads", "x"]) == 1
    assert main(["bogus", "--config", cfgpath, "--out", out]) == 1
    assert not (tmp_path / "o").exists()
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert main(["--version"]) == 0
    assert main(["curvature", "--help"]) == 0
    assert "usage: coneyamabe curvature" in capsys.readouterr().out


def test_an_out_that_cannot_be_a_directory_is_a_usage_error(tmp_path, capsys):
    cfgpath = write_cfg(tmp_path, "curvature")
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    for out in (taken, taken / "sub"):
        assert main(["curvature", "--config", cfgpath, "--out", str(out)]) == 1
        assert f"usage error: --out {out} cannot be a directory" in capsys.readouterr().err
    assert taken.read_text() == "a file\n"


def _failed_check(tmp_path, kind, extra="", body=""):
    """Run kind through main; return its exit code and the summary's lines as a dict."""
    out = tmp_path / "out"
    code = main([kind, "--config", write_cfg(tmp_path, kind, extra=extra, body=body),
                 "--out", str(out)])
    lines = (out / "summary.txt").read_text().splitlines()
    return code, dict(line.split(" = ", 1) for line in lines)


def test_curvature_cross_check_failure_exits_3(tmp_path, monkeypatch):
    conformal = cli.conformal_rho2_curvatures

    def off(*args):
        conf = conformal(*args)
        return CurvatureReport(scalar=conf.scalar + 1e-9, mean=conf.mean)

    monkeypatch.setattr(cli, "conformal_rho2_curvatures", off)
    code, summary = _failed_check(tmp_path, "curvature")
    assert code == 3
    assert summary["status"] == "check-failed"
    assert summary["error"].startswith("conformal cross-check failed")


def test_verify_model_order_window_failure_exits_3(tmp_path, monkeypatch):
    # a solution offset by a constant has an error that does not fall with h
    solve = cli.solve_problem

    def offset(problem, **kwargs):
        rep = solve(problem, **kwargs)
        rep.solution = Field(problem.mesh, rep.solution.values + 1e-2)
        return rep

    monkeypatch.setattr(cli, "solve_problem", offset)
    code, summary = _failed_check(tmp_path, "verify-model", extra="mesh_sizes = 8,16\nplot = false")
    assert code == 3
    assert summary["status"] == "check-failed"
    assert summary["error"].startswith("observed orders [")
    assert summary["error"].endswith("outside [1.7, 2.3]")


def test_eigen_rayleigh_check_failure_exits_3(tmp_path, monkeypatch):
    rayleigh = cli.rayleigh_quotient
    monkeypatch.setattr(cli, "rayleigh_quotient", lambda op, vec: rayleigh(op, vec) + 1e-3)
    code, summary = _failed_check(
        tmp_path, "eigen", extra="eigen_denominator = volume",
        body="[mesh]\nn_radial = 8\nn_angular = 8\n",
    )
    assert code == 3
    assert summary["status"] == "check-failed"
    assert summary["error"].startswith("Rayleigh quotient of the eigenvector")


def test_a_verdict_against_the_theorem_exits_3_after_writing_its_outputs(tmp_path):
    # (4,1) sits on the threshold d = (n-2)/2 = 1, where the theorem rules
    # out a complete solution, yet eight levels of the desk family read
    # COMPLETE_TYPE, a verdict that depends on the truncation depth
    cfgpath = tmp_path / "run.cfg"
    cfgpath.write_text("[cone]\nn = 4\nd = 1\nh = 1.0\n"
                       "[experiment]\nkind = dichotomy\nd_list = 1\ntruncation_levels = 8\n")
    out = tmp_path / "out"
    assert main(["dichotomy", "--config", str(cfgpath), "--out", str(out)]) == 3
    summary = dict(line.split(" = ", 1)
                   for line in (out / "summary.txt").read_text().splitlines())
    assert summary["dichotomy.d1.verdict"] == "COMPLETE_TYPE"
    assert summary["status"] == "check-failed"
    assert summary["error"] == (
        "d = 1 reads COMPLETE_TYPE, against the theorem's threshold (n-2)/2 = 1")
    lines = (out / "dichotomy.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("4,1,1,8,") and lines[1].endswith(",COMPLETE_TYPE")
    assert (out / "dichotomy_n4_d1.svg").exists()


@pytest.mark.parametrize("verdict, c0, code", [
    ("BOUNDED_TYPE", "1", 3),   # (3,1) is supercritical: 1 > (n-2)/2 = 1/2
    ("COMPLETE_TYPE", "1", 0),
    ("BOUNDED_TYPE", "0", 0),   # c0 = 0 is outside the theorem's hypotheses
])
def test_the_theorem_check_reads_the_verdict_and_the_hypotheses(tmp_path, monkeypatch,
                                                                 verdict, c0, code):
    monkeypatch.setattr(cli, "dichotomy_verdict", lambda levels: coneyamabe.Verdict[verdict])
    code_run, summary = _failed_check(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 2\nplot = false",
        body=f"[coefficients]\nc0 = {c0}\n[mesh]\nn_radial = 12\nn_angular = 12\n"
             "[tolerances]\nexhaustion_tol = 1e9\ndata_max_exponent = 2\n",
    )
    assert code_run == code
    assert summary["dichotomy.d1.verdict"] == verdict
    if code:
        assert summary["error"] == (
            "d = 1 reads BOUNDED_TYPE, against the theorem's threshold (n-2)/2 = 0.5")


@pytest.mark.parametrize("name", [
    "NonConvergenceError", "IndefiniteOperatorError", "NegativeEigenvectorError",
    "OrderingViolationError", "NoStabilizationError", "MonotonicityViolationError",
])
def test_every_solver_error_exits_2_with_a_summary(tmp_path, monkeypatch, name):
    def failing(op, variant):
        raise getattr(coneyamabe, name)("raised inside the run")

    monkeypatch.setattr(cli, "principal_eigen", failing)
    code, summary = _failed_check(
        tmp_path, "eigen", extra="eigen_denominator = volume",
        body="[mesh]\nn_radial = 8\nn_angular = 8\n",
    )
    assert code == 2
    assert summary["status"] == "solver-failed"
    assert summary["error"] == f"{name}: raised inside the run"


def test_a_failed_dichotomy_names_d_and_the_level(tmp_path, monkeypatch):
    # newton_solve fails on the first solve of level 2 (the third mesh) of a
    # 3-level family: the run exits 2, and its error line and summary keys
    # name the dimension, the level and the level's omega_min
    solve, meshes = coneyamabe.solver.newton_solve, []

    def failing(problem, *args, **kwargs):
        if problem.mesh not in meshes:
            meshes.append(problem.mesh)
        if len(meshes) == 3:
            raise coneyamabe.NonConvergenceError("raised inside the run")
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(coneyamabe.solver, "newton_solve", failing)
    code, summary = _failed_check(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 3",
        body="[mesh]\nn_radial = 20\nn_angular = 16\nnodes_per_octave = 6\n"
             "[tolerances]\nexhaustion_tol = 0.05\ndata_max_exponent = 10\n",
    )
    assert code == 2
    assert summary["status"] == "solver-failed"
    omega = meshes[2].domain.omega_min
    assert summary["error"] == ("NonConvergenceError: raised inside the run; "
                                f"at level 2 of 3, omega_min {omega:.6g}; at d = 1")
    assert (summary["failed.d"], summary["failed.level"]) == ("1", "2")


def test_a_refused_eigen_certificate_names_the_mesh(tmp_path, monkeypatch):
    # a single-precision factor whose solves come out negative: the
    # float64 certificate refuses it, and the run exits 2 naming its mesh
    splu = scipy.sparse.linalg.splu

    class NegatedSolve:
        def __init__(self, lu):
            self.perm_r, self.perm_c, self._lu = lu.perm_r, lu.perm_c, lu

        def solve(self, b):
            return -self._lu.solve(b)

    def negated_single(A, **kwargs):
        lu = splu(A, **kwargs)
        return NegatedSolve(lu) if A.dtype == np.float32 else lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", negated_single)
    code, summary = _failed_check(
        tmp_path, "eigen", extra="eigen_denominator = volume",
        body="[mesh]\nn_radial = 12\nn_angular = 10\n",
    )
    assert code == 2
    assert summary["status"] == "solver-failed"
    assert summary["error"].startswith("IndefiniteOperatorError: no positive vector certifies")
    assert summary["failed.mesh"] == "12x10"
    assert "failed.d" not in summary and "failed.level" not in summary


def test_a_failed_verify_model_names_the_mesh(tmp_path, monkeypatch):
    # the ladder fails on its second mesh: the run exits 2 and names it
    solve = cli.solve_problem

    def failing(problem, **kwargs):
        if problem.mesh.n_radial == 24:
            raise coneyamabe.NonConvergenceError("raised inside the run")
        return solve(problem, **kwargs)

    monkeypatch.setattr(cli, "solve_problem", failing)
    code, summary = _failed_check(tmp_path, "verify-model", extra="mesh_sizes = 12,24",
                                  body="[mesh]\nomega_min = 0.15\n")
    assert code == 2
    assert summary["error"] == "NonConvergenceError: raised inside the run"
    assert summary["failed.mesh"] == "24x24"


def test_dichotomy_experiment_small(tmp_path):
    # tiny threshold-free sweep: a single supercritical dimension, shallow levels
    cfgpath = write_cfg(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 3",
        body="[mesh]\nn_radial = 20\nn_angular = 16\nnodes_per_octave = 6\n"
             "[tolerances]\nexhaustion_tol = 0.05\ndata_max_exponent = 10\n",
    )
    out = tmp_path / "out"
    rc = main(["dichotomy", "--config", cfgpath, "--out", str(out)])
    assert rc == 0
    lines = (out / "dichotomy.csv").read_text().splitlines()
    assert lines[0].startswith("n,d,h,levels,alpha")
    assert (out / "dichotomy_n3_d1.svg").exists()
    # no level of this shallow family has an exponent fit: alpha and both
    # completeness indicators are written as nan, and the verdict reads none
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert [row[k] for k in ("alpha", "completeness_last", "completeness_prev")] == ["nan"] * 3
    assert row["verdict"] == "INCONCLUSIVE"
    summary = (out / "summary.txt").read_text().splitlines()
    assert "dichotomy.d1.alpha = nan" in summary
    assert "dichotomy.d1.alpha_r2 = nan" in summary


def test_solver_counters_go_to_the_summary_only(tmp_path):
    # Newton steps, factorizations and their summed fill, the exponent fit's
    # r2 and the closed-form blow-up amplitude K of each dimension are
    # reported in summary.txt; the CSVs carry none of them and stay
    # byte-identical on a rerun
    runs = [
        ("dichotomy", "d_list = 1,2\ntruncation_levels = 3",
         "[mesh]\nn_radial = 16\nn_angular = 12\nnodes_per_octave = 5\n"
         "[tolerances]\nexhaustion_tol = 0.08\ndata_max_exponent = 8\n",
         ["dichotomy.d1.newton_steps", "dichotomy.d1.factorizations",
          "dichotomy.d1.factor_fill", "dichotomy.d2.newton_steps",
          "dichotomy.d2.factorizations", "dichotomy.d2.factor_fill"], [], [1, 2]),
        ("dichotomy", "d_list = 1\ntruncation_levels = 6",
         "[mesh]\nn_radial = 28\nn_angular = 24\nnodes_per_octave = 8\n"
         "[tolerances]\nexhaustion_tol = 0.03\ndata_max_exponent = 13\n",
         ["dichotomy.d1.newton_steps", "dichotomy.d1.factorizations",
          "dichotomy.d1.factor_fill"],
         ["dichotomy.d1.alpha_r2"], [1]),
        ("verify-model", "mesh_sizes = 12,24", "[mesh]\nomega_min = 0.15\n",
         ["verify_model.factorizations_12", "verify_model.factorizations_24",
          "verify_model.factor_fill_12", "verify_model.factor_fill_24"], [], []),
        ("solve", "", "[mesh]\nn_radial = 8\nn_angular = 8\n",
         ["solve.iterations", "solve.factor_fill"], [], []),
    ]
    for k, (kind, extra, body, counters, fits, dims) in enumerate(runs):
        cfgpath = write_cfg(tmp_path, kind, extra=extra, body=body)
        outs = [tmp_path / f"{kind}_{k}_{rerun}" for rerun in range(2)]
        for out in outs:
            assert main([kind, "--config", cfgpath, "--out", str(out)]) == 0
        lines = (outs[0] / "summary.txt").read_text().splitlines()
        summary = dict(line.split(" = ", 1) for line in lines)
        for key in counters:
            assert int(summary[key]) >= 1
        for key in fits:
            assert 0.9 < float(summary[key]) <= 1.0
        for d in dims:
            # (3,1) and (3,2) at c0 = 1: K = (a (d-a))^(a/2) with a = 1/2
            K = float(summary[f"dichotomy.d{d}.blowup_amplitude"])
            assert K == pytest.approx((0.5 * (d - 0.5)) ** 0.25, rel=1e-11)
        csvs = sorted(p.name for p in outs[0].glob("*.csv"))
        assert csvs
        for name in csvs:
            first = (outs[0] / name).read_bytes()
            assert b"factorizations" not in first and b"newton_steps" not in first
            assert b"fill" not in first
            assert b"r2" not in first and b"amplitude" not in first
            assert first == (outs[1] / name).read_bytes()


def test_dichotomy_without_absorption_reports_no_blowup_amplitude(tmp_path):
    # K needs c0 > 0.  With c0 = 0 the interior has no absorption and never
    # settles, but a loose enough exhaustion_tol lets the sweep finish: the
    # amplitude then reads nan instead of failing the run
    cfgpath = write_cfg(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 2\nplot = false",
        body="[coefficients]\nc0 = 0\n[mesh]\nn_radial = 12\nn_angular = 12\n"
             "nodes_per_octave = 4\n[tolerances]\nexhaustion_tol = 1e9\ndata_max_exponent = 4\n",
    )
    out = tmp_path / "out"
    assert main(["dichotomy", "--config", cfgpath, "--out", str(out)]) == 0
    assert "dichotomy.d1.blowup_amplitude = nan" in (out / "summary.txt").read_text().splitlines()


def test_a_one_thread_dichotomy_runs_in_the_calling_thread(tmp_path, monkeypatch):
    # a pool worker would get a malloc arena of its own, so --threads 1
    # runs each dimension on the main thread, without a pool
    cfgpath = write_cfg(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 2\nplot = false",
        body="[coefficients]\nc0 = 0\n[mesh]\nn_radial = 12\nn_angular = 12\n"
             "nodes_per_octave = 4\n[tolerances]\nexhaustion_tol = 1e9\ndata_max_exponent = 4\n",
    )
    ran_on = []
    single = cli._dichotomy_single

    def recorded(cfg, d):
        ran_on.append(threading.current_thread())
        return single(cfg, d)

    monkeypatch.setattr(cli, "_dichotomy_single", recorded)
    assert main(["dichotomy", "--config", cfgpath, "--out", str(tmp_path / "out"),
                 "--threads", "1"]) == 0
    assert ran_on == [threading.main_thread()]


def test_dichotomy_threaded_sweep(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "dichotomy", extra="d_list = 1,2\ntruncation_levels = 3",
        body="[mesh]\nn_radial = 16\nn_angular = 12\nnodes_per_octave = 5\n"
             "[tolerances]\nexhaustion_tol = 0.08\ndata_max_exponent = 8\n",
    )
    # the two dimensions run concurrently, and the table is byte-identical
    # to the one a single thread writes
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        assert main(["dichotomy", "--config", cfgpath, "--out", str(out),
                     "--threads", threads]) == 0
        tables.append((out / "dichotomy.csv").read_bytes())
    assert len(tables[1].splitlines()) == 3  # header + one row per dimension
    assert tables[0] == tables[1]
    # a thread count below one is a usage error, which exits 1 like a config error
    assert main(["dichotomy", "--config", cfgpath, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 1
    assert not (tmp_path / "o").exists()


def test_dichotomy_no_stabilization_exit_code(tmp_path):
    cfgpath = write_cfg(
        tmp_path, "dichotomy", extra="d_list = 1\ntruncation_levels = 2",
        body="[mesh]\nn_radial = 16\nn_angular = 12\nnodes_per_octave = 5\n"
             "[tolerances]\nexhaustion_tol = 1e-9\ndata_max_exponent = 2\n",
    )
    out = tmp_path / "out"
    assert main(["dichotomy", "--config", cfgpath, "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert "status = solver-failed" in summary
    error = next(line for line in summary.splitlines() if line.startswith("error = "))
    # the certificate names the final datum 2^2 and the level's truncation theta/8
    assert error.startswith("error = NoStabilizationError")
    assert "final datum 4 " in error
    assert f"omega_min {math.pi / 32:.6g}" in error


def test_newton_iteration_limit_exits_2(tmp_path):
    # one Newton step cannot converge: the run exits 2 and the summary ends
    # with the status, the error and the run time, in that order
    cfgpath = write_cfg(
        tmp_path, "solve", extra="method = newton\nplot = false",
        body="[mesh]\nn_radial = 12\nn_angular = 12\n[tolerances]\nmax_iter = 1\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 2
    assert not (out / "solution.csv").exists()
    tail = (out / "summary.txt").read_text().splitlines()[-3:]
    assert tail[0] == "status = solver-failed"
    assert tail[1].startswith(
        "error = NonConvergenceError: Newton did not converge in 1 iterations ")
    # the error names the mesh, its truncation and the data maximum of the
    # model data rho^(-1/2) on the Dirichlet nodes
    mesh = build_mesh(parse_config(cfgpath).domain(), 12, 12)
    data_max = max(model_dirichlet_data(mesh).values[mesh.dirichlet_mask])
    assert tail[1].endswith(f" on mesh 12x12, omega_min {mesh.domain.omega_min:.6g}, "
                            f"Dirichlet data max {data_max:.6g}")
    assert tail[2].startswith("seconds = ")


def test_dichotomy_rejects_monotone_method(tmp_path):
    cfgpath = write_cfg(tmp_path, "dichotomy", extra="method = monotone\nd_list = 1")
    with pytest.raises(ConfigError):
        parse_config(cfgpath)
    assert main(["dichotomy", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("c0", ["1e9", "1e13"])
def test_stalled_monotone_solve_fails_loudly(tmp_path, c0):
    # a large c0 puts the solution far below the data, so the bracket
    # closes only after 12 and 13 steps on 8x8 (32 and 42 before the
    # Jacobi sweeps on the lift).  Stopped short of that by max_iter, the
    # run must exit 2, naming where, and never report the open bracket's
    # lower branch
    cfgpath = write_cfg(
        tmp_path, "solve", extra="method = monotone",
        body=f"[coefficients]\nc0 = {c0}\n[mesh]\nn_radial = 8\nn_angular = 8\n"
             "[tolerances]\nmax_iter = 10\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert "status = solver-failed" in summary
    assert "error = NonConvergenceError: monotone bracket did not reach tol 1e-08 within 10 " \
        "steps" in summary
    assert "on mesh 8x8, omega_min 0.0981748, Dirichlet data max 4.51714" in summary
    assert not (out / "solution.csv").exists()


def test_monotone_solve_of_a_linear_problem_at_large_data_converges(tmp_path):
    # with c0 = c1 = 0 and data 1e9 both branches reach the linear
    # solution on the second step, up to increments near 6e-7, the
    # rounding level of values near 1e9; the bracket has closed there and
    # the iteration stops instead of running out of its steps
    cfgpath = write_cfg(
        tmp_path, "solve", extra="method = monotone\ndirichlet = 1e9",
        body="[coefficients]\nc0 = 0\nc1 = 0\n"
             "[mesh]\nn_radial = 8\nn_angular = 8\nomega_min = 0.39269908169872414\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    summary = dict(line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    assert int(summary["solve.iterations"]) < 20
    assert float(summary["solve.final_increment"]) < 16 * np.finfo(float).eps * 1e9


def test_monotone_solve_of_the_default_problem_converges(tmp_path):
    # the default (3,1) problem (c0 = c1 = 1, model data, theta/8) on 8x8:
    # the shifted chord iteration it replaces needed 2031 steps and stopped
    # 1.37e-6 below the solution at tol 1e-8.  The bracket closes within
    # Newton's limit, and its reported lower branch lies within
    # tol * (1 + max u) of Newton's tight solution
    cfgpath = write_cfg(tmp_path, "solve", extra="method = monotone\nplot = false",
                        body="[mesh]\nn_radial = 8\nn_angular = 8\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 0
    u, summary, ref = _solution_and_newton(cfgpath, out)
    assert int(summary["solve.iterations"]) <= coneyamabe.solver.NEWTON_MAX_ITER
    bound = 1e-8 * (1.0 + np.max(ref))
    assert 0.0 <= float(summary["solve.bracket"]) <= bound
    assert np.max(np.abs(u - ref)) <= bound


@pytest.mark.parametrize("method, data, error", [
    pytest.param("monotone", "1e305", "NonConvergenceError: non-finite residual at iteration 1: "
                 "c0 u^p or c1 u^q overflows at the Newton iterate on mesh 8x8", id="monotone"),
    pytest.param("newton", "1e305", "NonConvergenceError: non-finite residual", id="newton"),
    pytest.param("monotone", "1e308", "NonConvergenceError: non-finite residual at iteration 0: "
                 "c0 u^p or c1 u^q overflows at the Newton iterate on mesh 8x8",
                 id="monotone-start"),
    pytest.param("newton", "1e308", "NonConvergenceError: non-finite residual at iteration 0",
                 id="newton-start"),
])
def test_monotone_solve_with_overflowing_data_fails_loudly(tmp_path, method, data, error):
    # at data 1e305 the neighbour sums of the free rows overflow in the
    # Jacobi sweeps on the first iterate, the linear lift: Newton, and the
    # monotone bracket whose upper branch is Newton's iterates, refuse the
    # residual there, before numpy can warn; both exit 2 and name the
    # non-finite value, not an indefinite operator.  At 1e308 the data
    # alone overflow the residual of the start.  Up to 1e300 the sweeps
    # keep every term finite.  Every case runs under the suite's
    # filterwarnings = error, so a numpy warning fails it.
    cfgpath = write_cfg(
        tmp_path, "solve", extra=f"method = {method}\ndirichlet = {data}",
        body="[mesh]\nn_radial = 8\nn_angular = 8\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", cfgpath, "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert "status = solver-failed" in summary
    assert f"error = {error}" in summary


def test_svg_plot_of_a_degenerate_or_empty_series(tmp_path):
    # a single point widens both axis ranges by one unit around it; a
    # series without one finite point writes no file
    cli.write_svg_lines(tmp_path / "point.svg", [([2.0], [3.0], "one")], "t", "x", "y")
    svg = (tmp_path / "point.svg").read_text()
    assert svg.startswith("<svg") and ">1.5</text>" in svg and ">3.5</text>" in svg
    cli.write_svg_lines(tmp_path / "none.svg", [([1.0], [math.nan], "nan")], "t", "x", "y")
    assert not (tmp_path / "none.svg").exists()
