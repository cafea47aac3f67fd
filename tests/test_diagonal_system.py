import re

import numpy as np
import pytest
import scipy.fft
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from monopole_lab.diagonal_system import (
    DiagonalState,
    HalfWaveSolver,
    diagonal_split,
    from_uv,
    pair_rhs,
    random_diagonal_state,
    state_distance,
    state_max_abs,
    to_uv,
)
from monopole_lab.errors import DivergedError
from monopole_lab.gauge_fields import (
    MonopoleConfig,
    lorenz_residual,
    monopole_residual,
    random_config,
    sup_norm,
)
from monopole_lab.grid_spectral import (
    GridSpec,
    fft_forward,
    fft_inverse,
    random_band_limited,
)
from monopole_lab.lie import coefficients, dagger, su_basis

from reference_stepper import reference_evolve


def _flow(solver, state, n_steps):
    """The states at n_steps + 1 instants one step apart."""
    for i in range(n_steps + 1):
        if i:
            state = solver.evolve(state, 1)
        yield state


def test_to_uv_round_trip(rng, grid):
    cfg = random_config(rng, grid)
    u, v = to_uv(cfg)
    assert_allclose(u[0], cfg.a0 + cfg.a1, atol=0)
    assert_allclose(v[1], cfg.phi - cfg.a2, atol=0)
    back = from_uv(grid, u, v)
    for a, b in zip(back.fields(), cfg.fields()):
        assert_allclose(a, b, atol=1e-14)


def test_diagonal_split_reconstructs_pairs(rng, grid):
    cfg = random_config(rng, grid)
    u, v = to_uv(cfg)
    state = diagonal_split(grid, u, v)
    assert_allclose(state.u(), u, atol=1e-12)
    assert_allclose(state.v(), v, atol=1e-12)


def test_state_validation(grid):
    n = grid.n_points
    good = np.zeros((2, n, n, 2, 2))
    with pytest.raises(ValueError):
        DiagonalState(grid, good, good, good, np.zeros((2, n, n, 2, 3)))
    with pytest.raises(ValueError):
        DiagonalState(grid, np.zeros((3, n, n, 2, 2)), good, good, good)
    # each component is well formed, but the v pair holds su(3) matrices
    su3 = np.zeros((2, n, n, 3, 3))
    with pytest.raises(ValueError, match="shapes disagree"):
        DiagonalState(grid, good, good, su3, su3)


def test_free_flow_phases_single_mode(grid):
    # cos(x) e3 in the first slot of a pair: on the 2 pi torus the mode
    # xi = (1, 0) is a plus wave of that pair and xi = (-1, 0) a minus wave;
    # one generator means every bracket vanishes, so evolve is the free flow
    n = grid.n_points
    x = grid.length * np.arange(n) / n
    pair = np.zeros((2, n, n, 2, 2), dtype=complex)
    pair[0] = np.cos(x)[:, None, None, None] * su_basis(2)[2]
    state = diagonal_split(grid, pair, pair)
    out = HalfWaveSolver(grid).evolve(state, 30, h=1e-2)
    # u_plus and v_minus turn by e^{+0.3i}, u_minus and v_plus by e^{-0.3i};
    # each component stays on its own mode, so nothing leaks into the others
    for before, after, sign in zip(state.components(), out.components(), (1, -1, -1, 1)):
        before_hat = fft_forward(before, grid)
        assert np.max(np.abs(before_hat)) > 1.0
        assert_allclose(fft_forward(after, grid), np.exp(0.3j * sign) * before_hat, atol=1e-13)


def test_step_equals_free_flow_without_nonlinearity(rng, grid):
    # all fields along one generator: every bracket vanishes identically,
    # so the steps are the exact linear flow
    e3 = su_basis(2)[2]
    coeffs = random_band_limited(rng, grid, kmax=3, shape=(4,))
    a0, a1, a2, phi = (c[..., None, None] * e3 for c in coeffs)
    state = diagonal_split(grid, *to_uv(MonopoleConfig(grid=grid, a0=a0, a1=a1, a2=a2, phi=phi)))
    out = HalfWaveSolver(grid).evolve(state, 25, h=1e-2)
    # mode by mode, u_plus and v_minus turn by e^{+0.25i|xi|}, u_minus and
    # v_plus by e^{-0.25i|xi|}; nothing leaks into other modes or components
    turn = np.exp(0.25j * grid.kabs)[..., None, None]
    for before, after, sign in zip(state.components(), out.components(), (1, -1, -1, 1)):
        before_hat = fft_forward(before, grid)
        assert np.max(np.abs(before_hat)) > 0.1
        assert_allclose(fft_forward(after, grid), turn**sign * before_hat, rtol=0, atol=1e-13)


def test_solver_matches_reference_ode(rng):
    grid = GridSpec(8, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.3, kmax=2)
    solver = HalfWaveSolver(grid)
    u0, v0 = state.u(), state.v()
    shape = u0.shape

    def pack(u, v):
        return np.concatenate([
            np.ascontiguousarray(u).view(np.float64).ravel(),
            np.ascontiguousarray(v).view(np.float64).ravel(),
        ])

    def unpack(yvec):
        half = yvec.size // 2
        u = np.ascontiguousarray(yvec[:half]).view(np.complex128).reshape(shape)
        v = np.ascontiguousarray(yvec[half:]).view(np.complex128).reshape(shape)
        return u, v

    def f(_t, yvec):
        u, v = unpack(yvec)
        du, dv = pair_rhs(grid, u, v)
        return pack(du, dv)

    sol = solve_ivp(f, (0.0, 0.05), pack(u0, v0), method="DOP853",
                    rtol=1e-12, atol=1e-13)
    assert sol.success
    u_ref, v_ref = unpack(sol.y[:, -1])
    final = solver.evolve(state, 50)
    assert np.max(np.abs(final.u() - u_ref)) < 1e-9
    assert np.max(np.abs(final.v() - v_ref)) < 1e-9


def _convergence_order(rng, n):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, n=n, amplitude=0.5, kmax=2)
    solver = HalfWaveSolver(grid)
    t_final = 0.16
    finals = [
        solver.evolve(state, round(t_final / h), h=h)
        for h in (16e-3, 8e-3, 4e-3)
    ]
    e1 = state_distance(finals[0], finals[1])
    e2 = state_distance(finals[1], finals[2])
    return np.log2(e1 / e2)


def test_fourth_order_convergence(rng):
    assert 3.5 < _convergence_order(rng, 2) < 4.5


def test_fourth_order_convergence_su3(rng):
    assert 3.5 < _convergence_order(rng, 3) < 4.5


def test_reversibility(rng, grid):
    state = random_diagonal_state(rng, grid, amplitude=0.3)
    solver = HalfWaveSolver(grid)
    there = solver.evolve(state, 20, h=2e-3)
    back = solver.evolve(there, 20, h=-2e-3)
    assert state_distance(back, state) < 1e-10


def test_su_structure_preserved_along_flow(rng, grid):
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    final = solver.evolve(state, 40, h=2e-3)
    for pair in (final.u(), final.v()):
        assert np.max(np.abs(pair + dagger(pair))) < 1e-11
        assert np.max(np.abs(np.trace(pair, axis1=-2, axis2=-1))) < 1e-11


def test_lorenz_residual_vanishes_along_flow(rng, grid):
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    worst = max(
        sup_norm(lorenz_residual(*solver.config_with_derivatives(s)))
        for s in _flow(solver, state, 10)
    )
    assert worst < 1e-12


def test_monopole_residual_vanishes_for_band_limited_data(rng, grid):
    # products of modes in the lower sixth of the band stay inside the
    # dealias band, so at this instant the rows are solved exactly
    state = random_diagonal_state(rng, grid, amplitude=0.4, kmax=grid.n_points // 6)
    solver = HalfWaveSolver(grid)
    cfg, dts = solver.config_with_derivatives(state)
    assert max(sup_norm(r) for r in monopole_residual(cfg, dts)) < 1e-11



def test_config_with_derivatives_takes_su3_pairs(rng, grid):
    # the bridge reads its rates off the pair_rhs oracle, not the engine,
    # and that oracle takes su(3) pairs as well
    state = random_diagonal_state(rng, grid, n=3, amplitude=0.4, kmax=grid.n_points // 6)
    cfg, dts = HalfWaveSolver(grid).config_with_derivatives(state)
    assert max(sup_norm(r) for r in monopole_residual(cfg, dts)) < 1e-11

def test_monopole_residual_in_band_vanishes_along_flow(rng, grid):
    # the evolved state fills the whole dealias band and raw products then
    # spill past it; what the flow solves exactly is the band-limited part
    # of the rows, which is alias-free under the two-thirds rule
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    worst = 0.0
    for s in _flow(solver, state, 10):
        rows = np.stack(monopole_residual(*solver.config_with_derivatives(s)))
        in_band = fft_forward(rows, grid) * grid.dealias_mask[..., None, None]
        worst = max(worst, float(np.max(np.abs(in_band))))
    assert worst < 1e-11


def test_rhs_matches_finite_difference_in_time(rng):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    exact = pair_rhs(grid, state.u(), state.v())[0]

    def fd_error(h):
        plus = solver.evolve(state, 1, h=h)
        minus = solver.evolve(state, 1, h=-h)
        fd = (plus.u() - minus.u()) / (2 * h)
        return np.max(np.abs(fd - exact))

    order = np.log2(fd_error(2e-2) / fd_error(1e-2))
    assert 1.8 < order < 2.3


def test_evolve_raises_on_divergence(rng, grid):
    # one step of this data reaches a coefficient near 1e22, far past the
    # solver's limit of 1e6
    state = random_diagonal_state(rng, grid, amplitude=1e4)
    with pytest.raises(DivergedError, match="step 1, t=0.001"):
        HalfWaveSolver(grid).evolve(state, 1)


def test_picard_iterates_converge_to_evolution(rng):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.08, kmax=2)
    solver = HalfWaveSolver(grid)
    t_final, m = 0.2, 64
    iters = solver.picard_iterates(state, t_final, m, 5)
    dists = [state_distance(a, b) for a, b in zip(iters[1:], iters[:-1])]
    for d0, d1 in zip(dists, dists[1:]):
        assert d1 < 0.5 * d0
    reference = solver.evolve(state, m, h=t_final / m)
    assert state_distance(iters[-1], reference) < 1e-6


def _reference_gap(rng, n):
    """Distance after 20 steps between the engine and the reference stepper,
    and the largest entry of the random su(n) state they start from."""
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, n=n, amplitude=0.4)
    engine = HalfWaveSolver(grid).evolve(state, 20)
    return state_distance(engine, reference_evolve(state, 20, grid.dt)), state_max_abs(state)


def test_evolve_matches_reference_stepper(rng):
    gap, scale = _reference_gap(rng, 2)
    assert gap < 1e-12 * scale


def test_evolve_matches_reference_stepper_su3(rng):
    gap, scale = _reference_gap(rng, 3)
    assert gap < 1e-12 * scale


def test_one_solver_follows_the_rank_of_each_state(rng, grid):
    # each rank's basis and bracket table are built once and kept, and the
    # solver holds nothing else that depends on the rank, so alternating
    # ranks match fresh solvers exactly
    su2 = random_diagonal_state(rng, grid, n=2, amplitude=0.4)
    su3 = random_diagonal_state(rng, grid, n=3, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    for state in (su2, su3, su2):
        assert state_distance(solver.evolve(state, 3), HalfWaveSolver(grid).evolve(state, 3)) == 0.0


def test_one_solver_serves_interleaved_streams_of_two_ranks(rng, grid):
    # an su(2) and an su(3) stream resumed in turn on one solver yield, at
    # every sample, the spectra and pairs of each stream alone on a fresh solver
    states = [random_diagonal_state(rng, grid, n=n, amplitude=0.4) for n in (2, 3)]
    alone = []
    for state in states:
        solver = HalfWaveSolver(grid)
        alone.append([(spectra.copy(), solver.pairs(spectra)) for _, spectra, _ in solver.samples(state, 4, 2)])
    solver = HalfWaveSolver(grid)
    streams = [solver.samples(state, 4, 2) for state in states]
    for k in range(3):
        for stream, expected in zip(streams, alone):
            _, spectra, _ = next(stream)
            assert np.array_equal(spectra, expected[k][0])
            for got, want in zip(solver.pairs(spectra), expected[k][1], strict=True):
                assert np.array_equal(got, want)
    assert [next(stream, None) for stream in streams] == [None, None]


def test_reference_gap_catches_a_flipped_propagator_sign(rng, monkeypatch):
    # the agreement leg of AC4 can fail: flip the off-diagonal sign of the
    # exact linear propagator and the gap to the reference opens
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    square_phase = HalfWaveSolver._square_phase

    def flipped(self, h):
        e = square_phase(self, h)
        e[0, 1] *= -1.0
        e[1, 0] *= -1.0
        return e

    monkeypatch.setattr(HalfWaveSolver, "_square_phase", flipped)
    engine = HalfWaveSolver(grid).evolve(state, 20)
    assert state_distance(engine, reference_evolve(state, 20, grid.dt)) > 1e-3


def test_fast_engine_rejects_inconsistent_states(rng):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    n = grid.n_points
    j = np.arange(n)
    x, y = np.meshgrid(2 * np.pi * j / n, 2 * np.pi * j / n, indexing="ij")

    def added(plus_extra, minus_extra):
        u_plus, u_minus = state.u_plus.copy(), state.u_minus.copy()
        u_plus[0] += plus_extra
        u_minus[0] += minus_extra
        return DiagonalState(grid, u_plus, u_minus, state.v_plus, state.v_minus)

    # the mode kx = N/2, ky = 0, shared as the half-spectrum R shares it
    e1, _, e3 = su_basis(2)
    nyquist = 0.05 * (-1.0) ** j[:, None, None, None] * e3
    hermitian = 0.1 * np.cos(y)[..., None, None] * (1j * e1)
    trace = 0.1 * np.cos(x)[..., None, None] * (1j * np.eye(2))
    # a complex multiple of one generator, whose brackets vanish
    zero = np.zeros((2, n, n, 2, 2), dtype=complex)
    bump_hat = zero.copy()
    bump_hat[0, 1, 0] = e3
    # one non-finite entry, in a plus and in a minus component
    lone = np.zeros((n, n, 2, 2), dtype=bool)
    lone[3, 4, 0, 1] = True
    # each state with the test that refuses it; the Nyquist, Hermitian and
    # trace states pass every other test of the gate
    refused = [
        (DiagonalState(grid, state.u_minus, state.u_plus, state.v_plus, state.v_minus),
         "plus projection"),
        (added(nyquist, nyquist), "Nyquist"),
        (added(0.0, hermitian), "anti-Hermitian and traceless"),
        (added(0.0, trace), "anti-Hermitian and traceless"),
        (DiagonalState(grid, fft_inverse(bump_hat, grid), zero, zero, zero),
         "anti-Hermitian and traceless"),
        (added(0.0, np.where(lone, np.nan, 0.0)), "finite"),
        (added(np.where(lone, np.inf, 0.0), 0.0), "finite"),
    ]
    solver = HalfWaveSolver(grid)
    entries = (
        lambda s: solver.evolve(s, 3),
        lambda s: solver.evolve_with_residuals(s, 3),
    )
    for bad, test in refused:
        for entry in entries:
            with pytest.raises(ValueError, match=re.escape(f"{test} test failed")):
                entry(bad)


def test_evolve_zero_steps_returns_the_state(rng):
    grid = GridSpec(32, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    assert state_distance(solver.evolve(state, 0), state) < 1e-14 * state_max_abs(state)


def test_round_trips_do_not_accumulate_nyquist_rounding():
    # the entry zeroes the Nyquist rounding it has tested; carried through
    # the exit instead, 200 round trips grow it to about 7e-15 of the state
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(np.random.default_rng(0), grid, amplitude=0.2, kmax=5)
    solver = HalfWaveSolver(grid)
    for _ in range(200):
        state = solver.evolve(state, 0)
    nyq = grid.n_points // 2
    worst = 0.0
    for pair in (state.u(), state.v()):
        c_hat = scipy.fft.fft2(coefficients(pair, su_basis(2)), axes=(1, 2), norm="ortho")
        worst = max(worst, np.max(np.abs(c_hat[:, nyq])), np.max(np.abs(c_hat[:, :, nyq])))
    assert worst <= 1e-15 * state_max_abs(state)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda solver, s: solver.evolve(s, -3), "n_steps must be at least 0, got -3"),
        (lambda solver, s: solver.evolve_with_residuals(s, -1), "n_steps must be at least 0, got -1"),
        (lambda solver, s: solver.evolve_with_residuals(s, 3, sample_every=0),
         "sample_every must be at least 1, got 0"),
        (lambda solver, s: solver.evolve_with_residuals(s, 3, sample_every=-2),
         "sample_every must be at least 1, got -2"),
    ],
    ids=["evolve-negative-steps", "residuals-negative-steps", "sample-every-zero", "sample-every-negative"],
)
def test_evolve_refuses_unusable_counts(rng, grid, call, message):
    state = random_diagonal_state(rng, grid, amplitude=0.2)
    with pytest.raises(ValueError, match=message):
        call(HalfWaveSolver(grid), state)


def test_fast_engine_exit_matches_diagonal_split(rng):
    grid = GridSpec(32, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    final = HalfWaveSolver(grid).evolve(state, 5)
    oracle = diagonal_split(grid, final.u(), final.v())
    assert state_distance(final, oracle) < 1e-14 * state_max_abs(final)


def test_fft_workers_from_scipy_do_not_change_the_evolution(rng, grid32):
    state = random_diagonal_state(rng, grid32, amplitude=0.4)
    solver = HalfWaveSolver(grid32)
    default = solver.evolve(state, 3)
    with scipy.fft.set_workers(2):
        threaded = solver.evolve(state, 3)
    assert state_distance(threaded, default) == 0.0


def _record_and_operator_rows(state, n_steps):
    """evolve_with_residuals' record and final state, the final state of
    single evolve steps, and the Lorenz and row sups of the residual
    operators on those steps' pair_rhs rates."""
    solver = HalfWaveSolver(state.grid)
    final, record = solver.evolve_with_residuals(state, n_steps, rows=True)
    lorenz_ref, rows_ref = [], []
    for s in _flow(solver, state, n_steps):
        cfg, dts = solver.config_with_derivatives(s)
        lorenz_ref.append(sup_norm(lorenz_residual(cfg, dts)))
        rows_ref.append([sup_norm(r) for r in monopole_residual(cfg, dts)])
    return record, final, s, np.array(lorenz_ref), np.array(rows_ref)


def _rate_gap(state, h=1e-2):
    """Largest gap on u and v between the engine's central difference in time,
    (evolve(h) - evolve(-h)) / 2h, and the pair_rhs rates, relative to the
    largest of those rates."""
    solver = HalfWaveSolver(state.grid)
    ahead, behind = solver.evolve(state, 1, h=h), solver.evolve(state, 1, h=-h)
    du, dv = pair_rhs(state.grid, state.u(), state.v())
    gap = max(
        np.max(np.abs((ahead.u() - behind.u()) / (2 * h) - du)),
        np.max(np.abs((ahead.v() - behind.v()) / (2 * h) - dv)),
    )
    return gap / max(np.max(np.abs(du)), np.max(np.abs(dv)))


def _check_residual_record_against_operators(rng, n):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, n=n, amplitude=0.4)
    record, final, stepped, lorenz_ref, rows_ref = _record_and_operator_rows(state, 8)
    # the engine's rates are the oracle's to the O(h^2) of the difference
    assert _rate_gap(state) < 1e-3
    assert state_distance(final, stepped) < 1e-13
    assert record.times.shape == (9,)
    assert record.rows.shape == (9, 3)
    # the gauge constraint cancels identically in both accountings
    assert np.max(record.lorenz) < 1e-12
    assert np.max(lorenz_ref) < 1e-12
    # the rows are what dealiasing drops, well above rounding here; the
    # record reads them off the product spectra and agrees with the operators
    assert np.max(rows_ref) > 1e-6
    assert_allclose(record.rows, rows_ref, rtol=1e-6, atol=1e-13)


def test_residual_record_matches_operator_evaluation(rng):
    _check_residual_record_against_operators(rng, 2)


def test_residual_record_matches_operator_evaluation_su3(rng):
    _check_residual_record_against_operators(rng, 3)


def test_residual_record_departs_from_the_operators_with_a_wrong_bracket(rng, flipped_structure_constant):
    # flip one structure constant of the engine: its rates leave the
    # pair_rhs oracle's, and the gap to the reference stepper opens, in su(2)
    # and in su(3); the record's rows are Frobenius norms, which in su(2)
    # cannot see the sign of one bracket component, so they are not compared
    for n in (2, 3):
        grid = GridSpec(16, 2 * np.pi, 1e-3)
        state = random_diagonal_state(rng, grid, n=n, amplitude=0.4)
        assert _rate_gap(state) > 0.1
        gap, scale = _reference_gap(rng, n)
        assert gap > 1e-3 * scale


def test_residual_record_sampling_matches_every_step(rng):
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.3)
    solver = HalfWaveSolver(grid)
    every_final, every = solver.evolve_with_residuals(state, 6, rows=True)
    final, sampled = solver.evolve_with_residuals(state, 6, sample_every=3, rows=True)
    assert_allclose(sampled.times, [0.0, 3e-3, 6e-3], atol=1e-15)
    assert_allclose(sampled.times, every.times[::3], atol=0)
    assert_allclose(sampled.lorenz, every.lorenz[::3], rtol=1e-13, atol=0)
    assert_allclose(sampled.rows, every.rows[::3], rtol=1e-13, atol=0)
    # a sampled step and an unsampled one run the same code
    assert state_distance(final, every_final) == 0.0


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda solver, state: solver.evolve(state, 10), 40),
        (lambda solver, state: solver.evolve(state, 0), 0),
        (lambda solver, state: solver.evolve_with_residuals(state, 20, sample_every=10), 81),
        (lambda solver, state: solver.evolve_with_residuals(state, 7, sample_every=3, rows=True), 29),
    ],
    ids=["evolve-10", "evolve-0", "residuals-20-every-10", "residuals-7-every-3"],
)
def test_a_sample_shares_its_products_with_the_step_that_follows(rng, grid, product_count, call, expected):
    # four nonlinearities a step, of which a sampled instant's products are
    # the first; the residuals at the last instant, which no step follows,
    # cost one more
    call(HalfWaveSolver(grid), random_diagonal_state(rng, grid))
    assert len(product_count) == expected


def test_samples_yield_read_only_spectra_at_the_sampled_steps(rng, grid):
    seen = []
    for step, spectra, products in HalfWaveSolver(grid).samples(random_diagonal_state(rng, grid), 7, 3):
        seen.append((step, products is None))
        with pytest.raises(ValueError, match="read-only"):
            spectra[...] = 0.0
    assert seen == [(0, False), (3, False), (6, False), (7, True)]


def test_yielded_products_stay_as_they_were_yielded(rng, grid):
    # the step that follows a sample reads its products as k1 and writes
    # nothing into them, so a consumer may keep them past its loop body
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    kept = []
    for _, _, products in HalfWaveSolver(grid).samples(state, 4, 2):
        if products is not None:
            with pytest.raises(ValueError, match="read-only"):
                products[...] = 0.0
            kept.append((products, products.copy()))
    assert len(kept) == 2
    for products, at_yield in kept:
        assert np.array_equal(products, at_yield)
