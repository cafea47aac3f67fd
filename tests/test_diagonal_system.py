import re
import tracemalloc

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
    projection_matrices,
    random_band_limited,
)
from monopole_lab.lie import coefficients, dagger, from_coefficients, su_basis

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
    # a state built from any halves keeps their sums and splits those again
    swapped = DiagonalState(grid, state.u_minus, state.u_plus, state.v_plus, state.v_minus)
    assert_allclose(swapped.u(), u, atol=1e-12)
    for a, b in zip(swapped.components(), state.components()):
        assert_allclose(a, b, atol=1e-12)


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


def _interleaved_streams_match_streams_alone(grid, runs):
    """Streams of samples(state, 4, 2, h) for each (state, h) of runs, resumed
    in turn on one solver, yield at every sample the spectra and pairs of
    each stream alone on a fresh solver."""
    alone = []
    for state, h in runs:
        solver = HalfWaveSolver(grid)
        alone.append([(spectra.copy(), solver.pairs(spectra)) for _, spectra, _ in solver.samples(state, 4, 2, h)])
    solver = HalfWaveSolver(grid)
    streams = [solver.samples(state, 4, 2, h) for state, h in runs]
    for k in range(3):
        for stream, expected in zip(streams, alone):
            _, spectra, _ = next(stream)
            assert np.array_equal(spectra, expected[k][0])
            for got, want in zip(solver.pairs(spectra), expected[k][1], strict=True):
                assert np.array_equal(got, want)
    assert [next(stream, None) for stream in streams] == [None] * len(runs)


def test_one_solver_serves_interleaved_streams_of_two_ranks(rng, grid):
    states = [random_diagonal_state(rng, grid, n=n, amplitude=0.4) for n in (2, 3)]
    _interleaved_streams_match_streams_alone(grid, [(state, None) for state in states])


def test_one_solver_serves_interleaved_streams_of_two_step_sizes(rng, grid):
    # step doubling: each stream steps with its own half-step table, whatever
    # the other stream's step size
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    _interleaved_streams_match_streams_alone(grid, [(state, grid.dt), (state, 2 * grid.dt)])


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
        (added(nyquist, nyquist), "Nyquist"),
        (added(0.0, hermitian), "anti-Hermitian and traceless"),
        (added(0.0, trace), "anti-Hermitian and traceless"),
        (DiagonalState(grid, fft_inverse(bump_hat, grid), zero, zero, zero),
         "anti-Hermitian and traceless"),
        (added(0.0, np.where(lone, np.nan, 0.0)), "finite"),
        (added(np.where(lone, np.inf, 0.0), 0.0), "finite"),
    ]
    solver = HalfWaveSolver(grid)
    # samples refuses at its call, before the generator is advanced
    entries = (
        lambda s: solver.evolve(s, 3),
        lambda s: solver.evolve_with_residuals(s, 3),
        lambda s: solver.samples(s, 3),
        lambda s: solver.picard_iterates(s, 1e-3, 2, 1),
    )
    for bad, test in refused:
        for entry in entries:
            with pytest.raises(ValueError, match=re.escape(f"{test} test failed")):
                entry(bad)
    # states from another grid size and from another torus side, each built
    # by a caller and made by the engine, whose carried spectra must not
    # skip the grid test
    wrong_grid = []
    for other, message in (
        (GridSpec(32, 2 * np.pi, 1e-3), "grid test failed: the state has 32 points per side, the solver 16"),
        (GridSpec(16, 4 * np.pi, 1e-3),
         f"grid test failed: the state's torus side is {4 * np.pi!r}, the solver's {2 * np.pi!r}"),
    ):
        built = random_diagonal_state(rng, other, amplitude=0.4)
        wrong_grid += [(built, message), (HalfWaveSolver(other).evolve(built, 1), message)]
    for bad, message in wrong_grid:
        for entry in entries:
            with pytest.raises(ValueError, match=re.escape(message)):
                entry(bad)


def test_evolve_zero_steps_returns_the_state(rng):
    grid = GridSpec(32, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    assert state_distance(solver.evolve(state, 0), state) < 1e-14 * state_max_abs(state)


def test_round_trips_do_not_accumulate_nyquist_rounding():
    # the entry zeroes the Nyquist rounding it has tested; carried through
    # the exit instead, 200 round trips grow it to about 7e-15 of the state.
    # Each round rebuilds the state from its components, which carries no
    # spectra, so every entry runs its tests
    grid = GridSpec(16, 2 * np.pi, 1e-3)
    state = random_diagonal_state(np.random.default_rng(0), grid, amplitude=0.2, kmax=5)
    solver = HalfWaveSolver(grid)
    for _ in range(200):
        state = solver.evolve(DiagonalState(grid, *state.components()), 0)
    nyq = grid.n_points // 2
    worst = 0.0
    for pair in (state.u(), state.v()):
        c_hat = scipy.fft.fft2(coefficients(pair, su_basis(2)), axes=(1, 2), norm="ortho")
        worst = max(worst, np.max(np.abs(c_hat[:, nyq])), np.max(np.abs(c_hat[:, :, nyq])))
    assert worst <= 1e-15 * state_max_abs(state)


@pytest.mark.parametrize("n_points, rank", [(32, 2), (32, 3), (128, 2)])
def test_chained_evolves_equal_one_long_evolve(n_points, rank):
    # an engine-made state hands its spectra back to the entry, so a chain
    # of evolves makes no round trip through physical space
    grid = GridSpec(n_points, 2 * np.pi, 1e-3)
    state = random_diagonal_state(np.random.default_rng(5), grid, n=rank, amplitude=0.3, kmax=5)
    solver = HalfWaveSolver(grid)
    chained = solver.evolve(solver.evolve(state, 3), 4)
    long = solver.evolve(state, 7)
    for a, b in zip(chained.components(), long.components()):
        assert np.array_equal(a, b)


def test_engine_made_states_cannot_drift_from_their_spectra(rng, grid):
    solver = HalfWaveSolver(grid)
    made = solver.evolve(random_diagonal_state(rng, grid, amplitude=0.4), 2)
    # the pairs the spectra stand for, and the half waves derived from them
    for array in (made.u(), made.v(), *made.components()):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 0.0
    for name in ("u_plus", "_u", "_spectra", "grid"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(made, name, None)


def test_a_step_holds_three_stage_buffers(rng, grid32):
    # three y-sized stage buffers and the products' temporaries peak at
    # 6.85 y (N=32, su(2)); a fourth stage buffer reads 7.85 y
    solver = HalfWaveSolver(grid32)
    y = solver._to_coeffs(random_diagonal_state(rng, grid32, amplitude=0.3))
    products = solver._products(y)
    e = solver._phases(0.5 * grid32.dt)
    solver._step(y.copy(), grid32.dt, e, products)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver._step(y, grid32.dt, e, products)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 7.25 * y.nbytes


def test_states_hold_their_two_pairs_and_no_half_waves(rng, grid32):
    # in units of one pair (N=32, su(2)): evolve(made, 0) keeps the two
    # pairs and the spectra's copy (2.80) and peaks at 4.69 with the entry's
    # copy of the spectra and the exit's coefficient fields;
    # random_diagonal_state keeps its two pairs (2.00) and peaks at 5.78.
    # States that store four half waves read 4.81 and 6.32, 4.01 and 10.16
    solver = HalfWaveSolver(grid32)
    made = solver.evolve(random_diagonal_state(rng, grid32, amplitude=0.3), 1)
    pair = made.u().nbytes

    def allocated(call):
        """Memory that call() keeps and its peak, in pairs, after a first call."""
        call()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = call()  # noqa: F841, held while the memory is read
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return held / pair, peak / pair

    held, peak = allocated(lambda: solver.evolve(made, 0))
    assert held < 2.05 + made._spectra.nbytes / pair
    assert peak < 5.0
    held, peak = allocated(lambda: random_diagonal_state(rng, grid32, amplitude=0.3))
    assert held < 2.05
    assert peak < 6.5


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda solver, s: solver.evolve(s, -3), "n_steps must be at least 0, got -3"),
        (lambda solver, s: solver.evolve_with_residuals(s, -1), "n_steps must be at least 0, got -1"),
        (lambda solver, s: solver.evolve_with_residuals(s, 3, sample_every=0),
         "sample_every must be at least 1, got 0"),
        (lambda solver, s: solver.evolve_with_residuals(s, 3, sample_every=-2),
         "sample_every must be at least 1, got -2"),
        (lambda solver, s: solver.evolve(s, 2.5), "n_steps must be a whole number, got 2.5"),
        (lambda solver, s: list(solver.samples(s, 4, 1.5)), "sample_every must be a whole number, got 1.5"),
        # samples refuses at its call, before the generator is advanced
        (lambda solver, s: solver.samples(s, -1), "n_steps must be at least 0, got -1"),
        (lambda solver, s: solver.samples(s, 4, 0), "sample_every must be at least 1, got 0"),
        (lambda solver, s: solver.picard_iterates(s, 1e-3, 0, 1), "n_steps must be at least 1, got 0"),
        (lambda solver, s: solver.picard_iterates(s, 1e-3, 2, -1), "n_iterations must be at least 0, got -1"),
        # a non-finite step or end time is refused, not blamed on the data
        (lambda solver, s: solver.evolve(s, 2, h=np.nan), "h must be finite, got nan"),
        (lambda solver, s: solver.evolve(s, 2, h=np.inf), "h must be finite, got inf"),
        (lambda solver, s: solver.samples(s, 2, h=-np.inf), "h must be finite, got -inf"),
        (lambda solver, s: solver.picard_iterates(s, np.nan, 4, 1), "t_final must be finite, got nan"),
        (lambda solver, s: solver.picard_iterates(s, np.inf, 4, 1), "t_final must be finite, got inf"),
        # a bool or a complex is not a step, an end time or a count
        (lambda solver, s: solver.evolve(s, 2, h=1e-3 + 1e-3j), r"h must be a real number, got \(0.001\+0.001j\)"),
        (lambda solver, s: solver.evolve(s, 2, h=True), "h must be a real number, got True"),
        (lambda solver, s: solver.samples(s, 2, h=np.True_), "h must be a real number, got np.True_"),
        (lambda solver, s: solver.picard_iterates(s, 1e-3 + 0j, 2, 1), r"t_final must be a real number, got \(0.001\+0j\)"),
        (lambda solver, s: solver.picard_iterates(s, True, 2, 1), "t_final must be a real number, got True"),
        (lambda solver, s: solver.evolve(s, True), "n_steps must be a whole number, got True"),
        (lambda solver, s: solver.samples(s, 4, True), "sample_every must be a whole number, got True"),
        # an end time that is not after the start, whatever the iteration count
        (lambda solver, s: solver.picard_iterates(s, 0.0, 4, 1), "t_final must be positive, got 0.0"),
        (lambda solver, s: solver.picard_iterates(s, -1e-3, 4, 0), "t_final must be positive, got -0.001"),
        # the same rule as every other count and real number of the package
        (lambda solver, s: solver.evolve(s, np.True_), "n_steps must be a whole number, got np.True_"),
        (lambda solver, s: solver.evolve(s, 2 + 0j), r"n_steps must be a whole number, got \(2\+0j\)"),
        (lambda solver, s: solver.evolve(s, np.nan), "n_steps must be a whole number, got nan"),
        (lambda solver, s: solver.evolve(s, np.inf), "n_steps must be a whole number, got inf"),
        (lambda solver, s: solver.picard_iterates(s, 1e-3, 2, 2.5), "n_iterations must be a whole number, got 2.5"),
        (lambda solver, s: solver.picard_iterates(s, np.True_, 2, 1), "t_final must be a real number, got np.True_"),
    ],
    ids=[
        "evolve-negative-steps", "residuals-negative-steps", "sample-every-zero", "sample-every-negative",
        "evolve-fractional-steps", "samples-fractional-every", "samples-negative-steps",
        "samples-every-zero", "picard-zero-steps", "picard-negative-iterations",
        "evolve-nan-step", "evolve-infinite-step", "samples-minus-infinite-step",
        "picard-nan-end", "picard-infinite-end",
        "evolve-complex-step", "evolve-bool-step", "samples-numpy-bool-step", "picard-complex-end",
        "picard-bool-end", "evolve-bool-steps", "samples-bool-every", "picard-zero-end",
        "picard-negative-end", "evolve-numpy-bool-steps", "evolve-complex-steps", "evolve-nan-steps",
        "evolve-infinite-steps", "picard-fractional-iterations", "picard-numpy-bool-end",
    ],
)
def test_evolve_refuses_unusable_counts(rng, grid, call, message):
    state = random_diagonal_state(rng, grid, amplitude=0.2)
    with pytest.raises(ValueError, match=message):
        call(HalfWaveSolver(grid), state)


def test_fast_engine_exit_matches_diagonal_split(rng):
    # the exit builds no half waves: its state derives them as diagonal_split
    # does, with grid_spectral.apply_projection, and they must be the split
    # (c + i R c) / 2 by the engine's own symbol table, R = -i _alpha_hat
    grid = GridSpec(32, 2 * np.pi, 1e-3)
    state = random_diagonal_state(rng, grid, amplitude=0.4)
    solver = HalfWaveSolver(grid)
    final = solver.evolve(state, 5)
    assert state_distance(final, diagonal_split(grid, final.u(), final.v())) == 0.0
    basis = su_basis(2)
    for pair, plus in ((final.u(), final.u_plus), (final.v(), final.v_plus)):
        c = np.moveaxis(coefficients(pair, basis), -1, 1)
        r_hat = -1j * np.einsum("ijxy,jaxy->iaxy", solver._alpha_hat, scipy.fft.rfft2(c))
        r = scipy.fft.irfft2(r_hat, s=c.shape[-2:])
        oracle = from_coefficients(np.moveaxis(0.5 * (c + 1j * r), 1, -1), basis)
        assert np.max(np.abs(plus - oracle)) < 1e-14 * state_max_abs(final)


@pytest.mark.parametrize("n", [16, 256])
def test_the_symbol_table_and_the_propagator_match_the_projections(n):
    # one table alpha . xi / |xi| serves the split and the propagator; at
    # every half-spectrum mode, xi = 0 included, it must be 2 P+ - I, and
    # E(h) must be e^{ih|xi|} P+ + e^{-ih|xi|} P-
    grid = GridSpec(n, 2 * np.pi, 1e-3)
    solver = HalfWaveSolver(grid)
    half = np.s_[:, : n // 2 + 1]
    xi = np.stack([grid.kx[half], grid.ky[half]], axis=-1)
    plus, minus = projection_matrices(+1, xi), projection_matrices(-1, xi)
    per_mode = lambda table: np.moveaxis(table, (0, 1), (-2, -1))
    assert np.max(np.abs(per_mode(solver._alpha_hat) - (2 * plus - np.eye(2)))) <= 1e-14
    mag = grid.kabs[half][..., None, None]
    for h in (0.5 * grid.dt, -0.37, 2.0):
        oracle = np.exp(1j * h * mag) * plus + np.exp(-1j * h * mag) * minus
        assert np.max(np.abs(per_mode(solver._square_phase(h)) - oracle)) <= 1e-14


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
