"""Acceptance gate: one test per quantitative requirement of the library.

Each test prints a single [ACn] line reporting PASS or FAIL with the
measured numbers, then asserts.  Tolerances and wall-time budgets are
part of the requirements, so they are enforced, not just reported.
Run with -s (or read the captured output of failures) to see the lines.
"""

import time

import numpy as np

from monopole_lab import fl_norms, gauge_fields, grid_spectral
from monopole_lab.cone_quadrature import (
    BOUND_RTOL,
    FROZEN_C_MINUS,
    FROZEN_C_PLUS,
    delta_integral_minus,
    delta_integral_plus,
    minus_kernel_sweep,
    mollified_oracle_minus,
    mollified_oracle_plus,
    plus_kernel_sweep,
    sweep_max,
)
from monopole_lab.diagonal_system import (
    HalfWaveSolver,
    random_diagonal_state,
    state_distance,
    state_max_abs,
)
from monopole_lab.fl_norms import (
    NormParams,
    bilinear_sweep,
    homogeneous_factorization_check,
    scaling_check,
)
from monopole_lab.gauge_fields import (
    gauge_transform,
    monopole_residual,
    random_config,
    random_gauge_map,
    sup_norm,
)
from monopole_lab.grid_spectral import (
    ALPHA1,
    ALPHA2,
    BETA,
    GridSpec,
    alpha_dot,
    projection_matrices,
    random_band_limited,
)
from monopole_lab.lie import conjugate
from monopole_lab.null_geometry import approach_defects, null_sweep

from reference_stepper import reference_evolve

# recorded maximum of the bilinear probe ratio sweep (seed 2024, the
# default probe lattice); later runs must stay at or below it
RECORDED_PROBE_BASELINE = 0.267311127656685


def _report(tag, label, ok, detail):
    print(f"\n[{tag}] {label}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    return ok


def _random_frequencies(rng, n_samples):
    mags = 10.0 ** rng.uniform(-2.0, 2.0, size=n_samples)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
    return mags[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)


def _ac1_defects():
    """Defects of the projection identities, the symbol one measured against alpha . xi."""
    rng = np.random.default_rng(101)
    xi = _random_frequencies(rng, 10_000)
    mags = np.hypot(xi[:, 0], xi[:, 1])
    p_plus = projection_matrices(+1, xi)
    p_minus = projection_matrices(-1, xi)
    eye = np.eye(2)
    return {
        "idempotent": max(
            np.max(np.abs(p_plus @ p_plus - p_plus)),
            np.max(np.abs(p_minus @ p_minus - p_minus)),
        ),
        "orthogonal": np.max(np.abs(p_plus @ p_minus)),
        "resolution": np.max(np.abs(p_plus + p_minus - eye)),
        "symbol": np.max(
            np.abs(alpha_dot(xi) - mags[:, None, None] * (p_plus - p_minus))
        ),
        "intertwine": max(
            np.max(np.abs(BETA @ p_plus - p_minus @ BETA)),
            np.max(np.abs(BETA @ p_minus - p_plus @ BETA)),
        ),
    }


def test_ac1_projection_identities():
    started = time.perf_counter()
    defects = _ac1_defects()
    elapsed = time.perf_counter() - started
    worst = max(defects.values())
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(
        "AC1",
        "projection identities on 10^4 random frequencies",
        ok,
        f"max defect {worst:.3e}, wall {elapsed:.2f}s",
    ), defects


def test_ac1_catches_a_scaled_symbol_in_the_projections(monkeypatch):
    # the test module's alpha_dot stays exact; the projections are built
    # from a symbol 1e-9 too large, which the symbol identity sees at |xi| ~ 100
    monkeypatch.setattr(grid_spectral, "alpha_dot", lambda xi: alpha_dot(xi) * (1.0 + 1e-9))
    assert max(_ac1_defects().values()) > 100 * 1e-12


def _ac2_defects():
    """Covariance defects of the residuals under a constant and a varying gauge map."""
    grid = GridSpec(64, 2.0 * np.pi, 1e-3)
    rng = np.random.default_rng(102)
    cfg = random_config(rng, grid, kmax=5)
    dts = random_config(rng, grid, kmax=5)

    def covariance_defect(o, do):
        new_cfg, new_dts = gauge_transform(o, do, cfg, dts)
        before = monopole_residual(cfg, dts)
        after = monopole_residual(new_cfg, new_dts)
        return max(sup_norm(a - conjugate(o, b)) for b, a in zip(before, after))

    theta = 0.7
    o_const = np.broadcast_to(
        np.array(
            [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]],
            dtype=complex,
        ),
        cfg.a0.shape,
    )
    zero = np.zeros_like(cfg.a0)
    return covariance_defect(o_const, (zero, zero)), covariance_defect(*random_gauge_map(rng, grid))


def test_ac2_gauge_covariance_of_residuals():
    started = time.perf_counter()
    const_defect, varying_defect = _ac2_defects()
    elapsed = time.perf_counter() - started
    ok = const_defect <= 1e-12 and varying_defect <= 1e-8 and elapsed < 10.0
    assert _report(
        "AC2",
        "residual covariance under gauge maps on the 64^2 grid",
        ok,
        f"constant {const_defect:.3e}, varying {varying_defect:.3e}, wall {elapsed:.1f}s",
    )


def test_ac2_catches_an_anticommutator_bracket(monkeypatch):
    monkeypatch.setattr(gauge_fields, "bracket", lambda x, y: x @ y + y @ x)
    _, varying_defect = _ac2_defects()
    assert varying_defect > 100 * 1e-8


def test_ac3_lorenz_constraint_propagates():
    started = time.perf_counter()
    grid = GridSpec(64, 2.0 * np.pi, 1e-3)
    solver = HalfWaveSolver(grid)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        state = random_diagonal_state(rng, grid, amplitude=0.2, kmax=5.0)
        _, record = solver.evolve_with_residuals(state, 500, sample_every=10)
        worst = max(worst, float(np.max(record.lorenz)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 120.0
    assert _report(
        "AC3",
        "gauge constraint along 20 random evolutions to T=0.5",
        ok,
        f"sup residual {worst:.3e}, wall {elapsed:.1f}s",
    )


def _ac4_state(n):
    grid = GridSpec(32, 2.0 * np.pi, 1e-3)
    rng = np.random.default_rng(104)
    return random_diagonal_state(rng, grid, n=n, amplitude=0.8, kmax=3)


def _ac4_order(state):
    """Observed order of the stepper from three step sizes, and its two errors."""
    solver = HalfWaveSolver(state.grid)
    t_final = 0.4
    finals = [
        solver.evolve(state, round(t_final / h), h=h) for h in (4e-3, 2e-3, 1e-3)
    ]
    e1 = state_distance(finals[0], finals[1])
    e2 = state_distance(finals[1], finals[2])
    return float(np.log2(e1 / e2)), e1, e2


def _ac4_engine_gap(state):
    """Distance after 50 steps to the reference stepper, relative to the state."""
    reference = reference_evolve(state, 50, state.grid.dt)
    return state_distance(HalfWaveSolver(state.grid).evolve(state, 50), reference) / state_max_abs(state)


def test_ac4_stepper_order_and_engine_agreement():
    state = _ac4_state(2)
    order, e1, e2 = _ac4_order(state)
    engine_gap = _ac4_engine_gap(state)
    ok = order >= 3.8 and engine_gap <= 1e-12
    assert _report(
        "AC4",
        "integrating-factor RK4 order and agreement with the reference stepper",
        ok,
        f"order {order:.3f} (e1 {e1:.2e}, e2 {e2:.2e}), engine gap {engine_gap:.2e}",
    )


def test_ac4_holds_for_su3_pairs():
    # the same engine and the same bounds, on su(3) data
    state = _ac4_state(3)
    order, e1, e2 = _ac4_order(state)
    engine_gap = _ac4_engine_gap(state)
    ok = order >= 3.8 and engine_gap <= 1e-12
    assert _report(
        "AC4",
        "the same for su(3) pairs",
        ok,
        f"order {order:.3f} (e1 {e1:.2e}, e2 {e2:.2e}), engine gap {engine_gap:.2e}",
    )


def test_ac4_su3_order_catches_a_first_order_step(monkeypatch):
    def lawson_euler(self, y, h, n_hat):
        e = self._half_propagator(h)
        k1 = np.empty_like(y)
        for w in range(2):
            self._pack(n_hat, w, k1[w])
        return self._propagate(e, self._propagate(e, y + h * k1))

    monkeypatch.setattr(HalfWaveSolver, "_step", lawson_euler)
    order, _, _ = _ac4_order(_ac4_state(3))
    assert order < 3.8


def test_ac4_su3_gap_catches_a_flipped_structure_constant(flipped_structure_constant):
    assert _ac4_engine_gap(_ac4_state(3)) > 1e-3


def test_ac4_gap_catches_a_dropped_dealias_mask(monkeypatch):
    # the reference stepper masks its nonlinearity, so an unmasked engine drifts from it
    monkeypatch.setattr(HalfWaveSolver, "_dealias", lambda self, n_hat: n_hat)
    assert _ac4_engine_gap(_ac4_state(2)) > 1e-6


def _ac5_worst_defect():
    grid = GridSpec(16, 2.0 * np.pi, 1e-3)
    rng = np.random.default_rng(105)
    worst = 0.0
    for index in range(20):
        params = NormParams.from_eps(float(rng.uniform(0.02, 0.25)))
        width = float(rng.uniform(0.1, 0.25))
        sign = 1 if index % 2 == 0 else -1
        field = random_band_limited(rng, grid, kmax=5.0)
        lhs, rhs, _ = homogeneous_factorization_check(field, width, grid, params, sign)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return worst


def test_ac5_window_times_wave_factorizes():
    started = time.perf_counter()
    worst = _ac5_worst_defect()
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed < 60.0
    assert _report(
        "AC5",
        "norm factorization of windowed waves over 20 random tuples",
        ok,
        f"max relative defect {worst:.3e}, wall {elapsed:.1f}s",
    )


def test_ac5_catches_an_unpadded_time_transform(monkeypatch):
    # without zero padding the tau lattice keeps the window's native
    # spacing pi / T_w, where the offset Riemann sums differ near 1e-5
    monkeypatch.setattr(fl_norms, "_TAU_PAD", 1)
    assert _ac5_worst_defect() > 1e-6


# the exponents are exact up to rounding, which reads about 4e-16
AC6_BOUND = 1e-12


def _ac6_worst_defect():
    grid = GridSpec(16, 2.0 * np.pi, 1e-3)
    rng = np.random.default_rng(106)
    worst = 0.0
    details = []
    for p, s in ((2.0, 1.0), (4.0 / 3.0, 3.0 / 4.0), (8.0 / 7.0, 7.0 / 8.0)):
        field = random_band_limited(rng, grid, kmax=5.0)
        measured = scaling_check(field, grid, 2.0, s, p)
        expected = s + 1.0 - 2.0 / p
        worst = max(worst, abs(measured - expected))
        details.append(f"(p={p:.3g}, s={s:.3g}): {measured:+.6f} vs {expected:+.6f}")
    return worst, details


def test_ac6_scaling_exponents():
    worst, details = _ac6_worst_defect()
    ok = worst <= AC6_BOUND
    assert _report(
        "AC6",
        "dilation exponent of the spatial norm",
        ok,
        f"max defect {worst:.1e}; " + "; ".join(details),
    )


def test_ac6_catches_an_inhomogeneous_weight(monkeypatch):
    # <xi>^s does not dilate like |xi|^s, so the measured exponent drifts
    spatial_weight = fl_norms._spatial_weight
    monkeypatch.setattr(
        fl_norms, "_spatial_weight", lambda grid, s, homogeneous: spatial_weight(grid, s, False)
    )
    worst, _ = _ac6_worst_defect()
    assert worst > 1e-3


def test_ac6_catches_a_weight_exponent_off_by_1e_5(weight_exponent_off_by_1e_5):
    # the measured exponent moves by about 1e-5, which a bound of 1e-3 would let through
    worst, _ = _ac6_worst_defect()
    assert worst > AC6_BOUND


def _ac7_measure():
    """Kernel bounds, their gap to the frozen ones, refinement drift, ray spread, split defect."""
    plus_rows = plus_kernel_sweep(rtol=1e-6)
    minus_rows = minus_kernel_sweep(rtol=1e-6)
    c_plus = sweep_max(plus_rows)
    c_minus = sweep_max(minus_rows)
    frozen_gap = max(abs(c_plus / FROZEN_C_PLUS - 1.0), abs(c_minus / FROZEN_C_MINUS - 1.0))

    # refinement stability: squeeze the adaptive tolerance by 10^2
    c_plus_fine = sweep_max(plus_kernel_sweep(rtol=1e-8))
    c_minus_fine = sweep_max(minus_kernel_sweep(rtol=1e-8))
    drift = max(abs(c_plus_fine / c_plus - 1.0), abs(c_minus_fine / c_minus - 1.0))

    # the measured/closed-form quotient must be constant along each ray
    # {tau = c |xi|} at fixed integrability exponent
    rays = {}
    for row in plus_rows:
        rays.setdefault((row["tau_over_mag"], row["p"]), []).append(
            row["closed_form_ratio"]
        )
    ray_spread = max(max(vals) / min(vals) - 1.0 for vals in rays.values())

    split_defect = max(row["split_defect"] for row in minus_rows)
    return c_plus, c_minus, frozen_gap, drift, ray_spread, split_defect


def test_ac7_cone_kernel_bounds():
    started = time.perf_counter()
    c_plus, c_minus, frozen_gap, drift, ray_spread, split_defect = _ac7_measure()
    elapsed = time.perf_counter() - started
    ok = (
        frozen_gap <= BOUND_RTOL
        and drift <= 0.02
        and ray_spread <= 0.05
        and split_defect <= 1e-4
        and elapsed < 300.0
    )
    assert _report(
        "AC7",
        "restricted cone kernels over the probe lattice",
        ok,
        f"C_I {c_plus:.6f}, C_J {c_minus:.6f} (frozen gap {frozen_gap:.2e}), "
        f"refinement drift {drift:.2e}, ray spread {ray_spread:.2e}, "
        f"split defect {split_defect:.2e}, wall {elapsed:.1f}s",
    )


def test_ac7_catches_a_scaled_quadrature(scaled_quadrature):
    # every kernel moves by 5%, so drift, ray spread and split defect stay put
    _, _, frozen_gap, _, _, _ = _ac7_measure()
    assert frozen_gap > BOUND_RTOL


def _ac8_probe_max():
    rows = bilinear_sweep(
        np.random.default_rng(2024),
        GridSpec(16, 2.0 * np.pi, 1e-3),
        (1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0),
    )
    return max(row["ratio"] for row in rows)


def test_ac8_null_symbol_bound_and_probe_baseline():
    c_sym = null_sweep(np.random.default_rng(108), 100_000)["c_sym"]
    seed_stable = c_sym == null_sweep(np.random.default_rng(108), 100_000)["c_sym"]

    path_rng = np.random.default_rng(1008)
    thetas = 2.0 ** -np.arange(1, 12)
    path_ok = True
    tail = 0.0
    for _ in range(10):
        norms = approach_defects(path_rng.uniform(0.0, 2.0 * np.pi), thetas)
        path_ok = path_ok and bool(np.all(norms <= 0.5 * thetas + 1e-12))
        tail = max(tail, float(norms[-1]))

    probe_max = _ac8_probe_max()
    probe_ok = probe_max <= RECORDED_PROBE_BASELINE * (1.0 + 1e-9)

    # the angle keeps full relative accuracy near 0 and pi, so the
    # envelope stays within rounding of its analytic ceiling 1/2
    ok = c_sym <= 0.5 + 1e-9 and seed_stable and path_ok and probe_ok
    assert _report(
        "AC8",
        "null symbol bound, collinear vanishing, probe baseline",
        ok,
        f"C_sym {c_sym:.12f} (seed stable {seed_stable}), path tail {tail:.2e}, "
        f"probe max {probe_max:.9f} vs baseline {RECORDED_PROBE_BASELINE:.9f}",
    )


def test_ac8_probe_baseline_catches_a_scaled_angle(monkeypatch):
    # a 1% larger angle weight moves only the output norm, so the ratio grows by 1%
    pair_angles = fl_norms._pair_angles
    monkeypatch.setattr(fl_norms, "_pair_angles", lambda eta, zeta: 1.01 * pair_angles(eta, zeta))
    assert _ac8_probe_max() > RECORDED_PROBE_BASELINE * (1.0 + 1e-9)


def _ac9_worst_gap():
    """Largest relative gap of the direct surface integrals to the mollified oracles."""

    def bump(center, width):
        c = np.asarray(center, dtype=float)
        return lambda pts: np.exp(-np.sum((pts - c) ** 2, axis=-1) / width)

    def waved(center, width, k):
        base = bump(center, width)
        return lambda pts: base(pts) * (1.0 + 0.5 * np.sin(k * pts[..., 0]))

    plus_cases = [
        (bump((0.4, 0.9), 0.5), 2.3, (1.0, 0.0)),
        (bump((-0.6, 0.2), 0.8), 1.7, (1.2, 0.0)),
        (bump((0.0, -1.1), 0.6), 3.0, (0.5, 0.5)),
        (waved((0.3, 0.3), 0.7, 1.5), 2.0, (1.0, 0.0)),
        (waved((-0.2, 0.8), 0.9, 0.8), 2.6, (0.0, 1.3)),
    ]
    minus_cases = [
        (bump((0.9, 0.4), 0.3), 0.6, (1.4, 0.0)),
        (bump((1.2, -0.3), 0.5), -0.4, (1.1, 0.0)),
        (bump((0.5, 0.5), 0.4), 0.0, (0.9, 0.6)),
        (waved((0.7, 0.1), 0.5, 1.2), 0.3, (1.0, 0.0)),
        (waved((-0.4, 0.6), 0.6, 0.7), -0.7, (0.0, 1.2)),
    ]
    worst = 0.0
    for f, tau, xi in plus_cases:
        xi = np.asarray(xi)
        direct = delta_integral_plus(f, tau, xi).value
        oracle = mollified_oracle_plus(f, tau, xi)
        worst = max(worst, abs(direct - oracle) / abs(oracle))
    for f, tau, xi in minus_cases:
        xi = np.asarray(xi)
        direct = delta_integral_minus(f, tau, xi).value
        oracle = mollified_oracle_minus(f, tau, xi)
        worst = max(worst, abs(direct - oracle) / abs(oracle))
    return worst


def test_ac9_delta_integrals_match_mollified_oracles():
    worst = _ac9_worst_gap()
    ok = worst <= 1e-2
    assert _report(
        "AC9",
        "restricted integrals vs mollified oracles on 10 integrands",
        ok,
        f"max relative gap {worst:.3e}",
    )


def test_ac9_catches_a_scaled_quadrature(scaled_quadrature):
    assert _ac9_worst_gap() > 1e-2
