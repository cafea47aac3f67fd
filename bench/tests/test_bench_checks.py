"""The benchmark's output checks accept the program's outputs and reject corrupted ones.

Run from the repository root:

    python3 -m pytest bench/tests
"""

import csv
import json
import os
import shutil
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from monopole_lab import cli, diagonal_system  # noqa: E402
from monopole_lab.diagonal_system import DiagonalState, HalfWaveSolver, random_diagonal_state  # noqa: E402
from monopole_lab.gauge_fields import monopole_residual_via_dual  # noqa: E402
from monopole_lab.grid_spectral import GridSpec  # noqa: E402

DT = 1e-3


def _passed(results, name=None):
    return all(ok for check, ok, _ in results if name is None or check == name)


@pytest.fixture(scope="module")
def evolved():
    grid = GridSpec(32, 2.0 * np.pi, DT)
    solver = HalfWaveSolver(grid)
    state = random_diagonal_state(np.random.default_rng(5), grid, amplitude=0.2, kmax=5.0)
    states = [solver.evolve(state, 10)]
    for _ in range(4):
        states.append(solver.evolve(states[-1], 1))
    return grid, solver, states


def test_lorenz_accepts_the_trajectory(evolved):
    grid, _, states = evolved
    assert _passed(checks.lorenz_on_trajectory(states, DT, grid.length))


def test_lorenz_rejects_a_state_evolved_with_a_wrong_step(evolved):
    grid, solver, states = evolved
    bad = list(states)
    bad[3] = solver.evolve(states[2], 1, h=1.05 * DT)
    assert not _passed(checks.lorenz_on_trajectory(bad, DT, grid.length))


def test_lorenz_rejects_a_wrong_spacing(evolved):
    grid, _, states = evolved
    assert not _passed(checks.lorenz_on_trajectory(states, 2.0 * DT, grid.length))


def _with_mode(state, k_index, amplitude):
    n = state.grid.n_points
    x = np.arange(n)
    wave = np.exp(2j * np.pi * k_index * x / n)[:, None] * np.ones(n)[None, :]
    bump = np.zeros_like(state.u_plus)
    bump[0] = amplitude * wave[:, :, None, None] * np.array([[1j, 0.0], [0.0, -1j]])
    return DiagonalState(state.grid, state.u_plus + bump, state.u_minus, state.v_plus, state.v_minus)


def test_dealias_accepts_the_evolved_state(evolved):
    _, _, states = evolved
    assert _passed(checks.dealias_leak(states[-1]))
    assert _passed(checks.dealias_leak(_with_mode(states[-1], 32 // 3, 1e-3)))


def test_dealias_rejects_content_outside_the_mask(evolved):
    _, _, states = evolved
    assert not _passed(checks.dealias_leak(_with_mode(states[-1], 32 // 3 + 1, 1e-8)))


@pytest.fixture(scope="module")
def residual_run(evolved):
    grid, solver, states = evolved
    final, record = solver.evolve_with_residuals(states[0], 20, sample_every=10, rows=True)
    cfg, dts = solver.config_with_derivatives(final)
    return record, monopole_residual_via_dual(cfg, dts), solver, states


def test_rows_accept_the_last_sample(residual_run):
    record, dual, _, _ = residual_run
    assert _passed(checks.residual_rows_match(record.rows[-1], dual))


def test_rows_reject_a_perturbed_row(residual_run):
    record, dual, _, _ = residual_run
    row = np.array(record.rows[-1])
    row[1] *= 1.0 + 1e-6
    assert not _passed(checks.residual_rows_match(row, dual))


def test_rows_reject_the_residual_of_another_state(residual_run):
    record, _, solver, states = residual_run
    cfg, dts = solver.config_with_derivatives(states[0])
    assert not _passed(checks.residual_rows_match(record.rows[-1], monopole_residual_via_dual(cfg, dts)))


# -- verify sweeps ---------------------------------------------------------------

SWEEP_ARGS = {
    "verify-null": ["null_samples=2000"],
    "verify-cone": [],
    "verify-norms": ["norm_tuples=2"],
    "scaling": [],
    "probe-bilinear": ["probe_samples=2"],
}


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeps")
    for command, extra in SWEEP_ARGS.items():
        assert cli.main([command, "--seed", "4", "--out", str(out / command), *extra]) == 0
    return out


def _all_checks(out):
    return checks.check_null_outputs(out) + checks.check_pass_outputs(out)


def test_sweep_checks_accept_the_program_outputs(sweep_dir):
    results = _all_checks(sweep_dir)
    assert _passed(results), [r for r in results if not r[1]]


def _row(ratio, mag, p):
    return lambda row: (float(row["tau_over_mag"]), float(row["mag"]), float(row["p"])) == (ratio, mag, p)


def _first(row):
    return True


CORRUPTIONS = [
    ("verify-norms", "norms.csv", _first, "c_emb", lambda v, r: v * (1.0 + 1e-6), "c_emb"),
    ("verify-norms", "norms.csv", _first, "lhs", lambda v, r: v * (1.0 + 1e-5), "factorization"),
    ("verify-norms", "norms.csv", _first, "embed_ratio", lambda v, r: 1.01 * float(r["c_emb"]), "embedding_bound"),
    ("verify-null", "null_envelopes.csv", lambda r: r["quantity"] == "c_sym", "value", lambda v, r: 0.5003, "c_sym"),
    ("verify-null", "null_paths.csv", _first, "symbol_norm", lambda v, r: v + 1e-9, "symbol_norm"),
    ("scaling", "scaling.csv", _first, "measured", lambda v, r: v + 1e-6, "scaling_exponent"),
    ("verify-cone", "cone_minus.csv", _first, "split_defect", lambda v, r: 1e-5, "cone_split"),
    ("verify-cone", "cone_plus.csv", _row(2.0, 10.0, 1.5), "closed_form_ratio", lambda v, r: v * (1.0 + 1e-4), "cone_rays"),
    ("verify-cone", "cone_minus.csv", _row(0.5, 0.1, 2.0), "near_closed_form_ratio", lambda v, r: v * (1.0 + 1e-4), "cone_rays"),
    ("verify-cone", "cone_plus.csv", _row(2.0, 1.0, 1.5), "value", lambda v, r: v * (1.0 + 1e-4), "cone_quad"),
    ("verify-cone", "cone_minus.csv", _row(0.5, 1.0, 1.5), "value", lambda v, r: v * (1.0 + 1e-4), "cone_quad"),
    ("probe-bilinear", "probe.csv", _first, "ratio", lambda v, r: v * (1.0 + 1e-9), "probe_ratio"),
]


@pytest.mark.parametrize(
    "command, name, select, column, corrupt, check",
    CORRUPTIONS,
    ids=[f"{c[0]}:{c[3]}->{c[5]}" for c in CORRUPTIONS],
)
def test_sweep_check_rejects_a_corrupted_csv(sweep_dir, tmp_path, command, name, select, column, corrupt, check):
    out = tmp_path / "sweeps"
    shutil.copytree(sweep_dir, out)
    path = out / command / name
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    target = next(row for row in rows if select(row))
    target[column] = repr(corrupt(float(target[column]), target))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    results = _all_checks(out)
    assert any(c == check for c, _, _ in results)
    assert not _passed(results, check)


# -- tracing and the benchmark definition ----------------------------------------


def test_tracer_counts_work_exactly_and_restores_the_program():
    evolve = HalfWaveSolver.evolve
    main = cli.main
    tracer = spans.Tracer()
    tracer.install()
    try:
        grid = GridSpec(16, 2.0 * np.pi, DT)
        state = diagonal_system.random_diagonal_state(np.random.default_rng(0), grid, kmax=2.0)
        diagonal_system.HalfWaveSolver(grid).evolve(state, 3)
    finally:
        tracer.uninstall()
    assert HalfWaveSolver.evolve is evolve and cli.main is main
    metrics = tracer.layer_metrics(0.0)
    assert metrics["diagonal_system.evolve.calls"]["value"] == 1
    assert metrics["diagonal_system.evolve.steps"]["value"] == 3
    # 4 nonlinearities per step, each one inverse and one forward transform
    assert metrics["fft.r2c.calls"]["value"] >= 3 * 4 * 2
    assert metrics["diagonal_system.random_diagonal_state.busy_s"]["value"] > 0.0
    evolve_span = tracer.stats["diagonal_system.evolve"]
    assert 0.0 < evolve_span["self_s"] < evolve_span["busy_s"]


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "op_p50_s", "peak_rss_mb"]
