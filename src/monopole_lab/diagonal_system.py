"""First-order evolution of the monopole system in characteristic variables.

The four fields are repackaged as two pairs
    u = (a0 + a1, phi + a2),   v = (a0 - a1, phi - a2),
which turns the evolution rows plus the gauge constraint into
    dt u = +alpha . grad u + N(u, v),   dt v = -alpha . grad v + N(v, u),
with (alpha . grad w)_1 = d1 w_1 + d2 w_2, (alpha . grad w)_2 = d2 w_1 - d1 w_2
and the bilinear term N(w, z) = (([w1, z1] + [w2, z2]) / 2, [w2, w1]).
Splitting each pair with the wave projections diagonalizes the symbol:
    dt u_pm = pm i|D| u_pm + P_pm N(u, v),
    dt v_pm = mp i|D| v_pm + P_pm N(v, u).

The solver advances the system with an integrating-factor RK4 step: the
linear half waves are propagated exactly by unimodular phases and only
the projected, dealiased nonlinearity is integrated.  A Duhamel
fixed-point iteration on the same time grid is provided as an
independent cross-check of the time stepper.

One engine implements the step, for su(n) pairs of any rank n read off
each array it is given.  The solver holds only its grid's half-spectrum
tables (the wavenumbers, |xi| and the one table _alpha_hat of the wave
symbol alpha . xi / |xi|) and, per rank, the basis and its structure
constants, and nothing per step size, so one solver serves any rank, any
step size and several sample streams at once.  It evolves the unsplit
pairs in the coefficients of the orthonormal su_basis(n): physical
fields are real d-vectors c, d = n^2 - 1, the bracket is
[x, y]_c = f_abc x_a y_b with the structure constants f of that basis,
and the transforms are half-spectrum.  Entry and exit stay in that
basis and build no half waves: a DiagonalState holds the pairs, and derives
their half waves P_pm u on each read with grid_spectral.apply_projection,
the package's only split.
The entry first tests that a state has the solver's points per side and
side length, then accepts only pairs with finite entries that equal the
basis sum of their coefficients (anti-Hermitian and traceless) and have
empty Nyquist lines; every stepping operation enters there and raises
ValueError, naming the failed test, for any other state.  The entry
zeroes the Nyquist rounding it has tested, so round trips do not add it
up.  The exit builds the pairs as the basis sums of their coefficients.
A state that the exit builds is read-only and carries its spectra, which
the entry takes back after the grid test, so chained evolutions add no
rounding.
The exact linear propagator is the per-mode 2 x 2 matrix
    exp(pm i h alpha . xi) = cos(h|xi|) pm i sin(h|xi|) alpha . xihat
acting on the pair index, which _square_phase builds from _alpha_hat;
tests hold that table to 2 P_+ - I of grid_spectral's projections, so the
propagator e^{ih|xi|} P_+ + e^{-ih|xi|} P_- and the split cannot disagree
in a sign.  Since E(h) = E(h/2)^2 a step applies
only the half-step one, four times.  Projection commutes with every
stage, so the step agrees to rounding with a projected IF-RK4 on the
matrix pairs; tests enforce this.

One loop, the generator that HalfWaveSolver.samples returns, steps the
engine and yields read-only spectra and products at sampled instants, and
pairs turns the spectra into u and v; evolve, evolve_with_residuals and the
CLI's simulate consume it, and nothing else calls the step.  Each stream
builds its own half-step table E(h/2) once, with _phases, which also gives
the Duhamel iteration its flows.  samples refuses at its call, before the
generator is advanced, a state that fails the entry, entry spectra past the
divergence limit, and counts and a step size that the package's one rule
for numbers, errors.require_count and errors.require_real, refuses;
picard_iterates refuses the same counts and an end time that is not a
positive real number.

The step runs in two lanes, one per pair, that meet only where the pairs
couple: inside each nonlinearity, lane w transforms pair w back and takes
its own bracket and one cross term, and each lane transforms half of the
products forward; between nonlinearities each lane propagates and updates
its own pair.  On grids of _THREADED_MIN_POINTS = 128 points per side and
more the v lane runs on the lane thread, one per process, while the u lane
runs on the caller's thread; below that both run on the caller's thread, u
first.  The lane is a module-level ThreadPoolExecutor, which starts its
thread on the first threaded step, and a forked child gets an executor of
its own.  The lanes write disjoint slices, so both schedules give the same
bits.  Entry and exit stay serial, since on two lanes their basis sums
contend with OpenBLAS's own threads, and every FFT runs on scipy's default
of one worker.

Residuals are read off the engine's own rates.  On them the Lorenz
constraint is an identity, and each of the three evolution rows reduces
to the part of its bracket term that the two-thirds rule drops, so the
recorded rows monitor resolution, not the stepper.  A sample takes them
from the undealiased product spectra of its stage-one nonlinearity.

Layout: public arrays keep the grid axes in front, (2, N, N, n, n) per
component.  Internally the coefficient spectra have shape
(2, 2, d, N, N//2+1), for (u, v), the pair index and the coefficient,
so the transforms act on contiguous memory.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .errors import DivergedError, require_count, require_real
from .gauge_fields import MonopoleConfig, random_config
from .grid_spectral import apply_projection, fft_forward, fft_inverse
from .lie import bracket, coefficients, from_coefficients, structure_constants, su_basis

# a step whose largest coefficient exceeds this raises DivergedError
_DIVERGENCE_LIMIT = 1e6

# grids with at least this many points per side run the v lane of the step
# on the lane thread; below it a hand-off (about 40 us) costs more than the
# second core saves, and su(3)'s bracket loop holds the interpreter lock
_THREADED_MIN_POINTS = 128

# The lane thread: one per process whatever the number of solvers and
# streams.  The executor starts it on its first task, the first threaded
# step, so importing the package and building a solver start no thread.
_lane = ThreadPoolExecutor(1, thread_name_prefix="monopole-lab-lane")


def _new_lane():
    """A forked child has no lane thread: it gets an executor of its own."""
    global _lane
    _lane = ThreadPoolExecutor(1, thread_name_prefix="monopole-lab-lane")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lane)


def engine_threads(grid):
    """Threads the HalfWaveSolver step runs on for this grid: 2 from 128 points per side, else 1."""
    return 2 if grid.n_points >= _THREADED_MIN_POINTS else 1


class DiagonalState:
    """The su(n)-valued pairs u and v, physical-space samples of shape (2, N, N, n, n).

    Its half waves u_plus, u_minus, v_plus and v_minus are derived on each
    read: P+ of a pair by grid_spectral.apply_projection, and P- as the
    rest.  The constructor keeps only the sums u_plus + u_minus and
    v_plus + v_minus of the halves it is given.  A state that
    HalfWaveSolver returns carries the coefficient spectra it was built
    from, which the solver's entry takes back after the grid test alone.
    Arrays and attributes are read-only.
    """

    def __init__(self, grid, u_plus, u_minus, v_plus, v_minus):
        up, um, vp, vm = _pair_fields(grid, u_plus=u_plus, u_minus=u_minus, v_plus=v_plus, v_minus=v_minus)
        self.__dict__.update(vars(self._of_pairs(grid, up + um, vp + vm)))

    @classmethod
    def _of_pairs(cls, grid, u, v, spectra=None):
        """The state of the pairs u and v, kept as they are: the engine's and diagonal_split's path."""
        state = cls.__new__(cls)
        for array in (u, v, spectra):
            if array is not None:
                array.setflags(write=False)
        state.__dict__.update(grid=grid, _u=u, _v=v, _spectra=spectra)
        return state

    def __setattr__(self, name, value):
        raise AttributeError(f"a DiagonalState is read-only: cannot set {name}")

    def _split(self, pair):
        plus = fft_inverse(apply_projection(+1, fft_forward(pair, self.grid), self.grid), self.grid)
        minus = pair - plus
        plus.setflags(write=False)
        minus.setflags(write=False)
        return plus, minus

    u_plus = property(lambda self: self._split(self._u)[0])
    u_minus = property(lambda self: self._split(self._u)[1])
    v_plus = property(lambda self: self._split(self._v)[0])
    v_minus = property(lambda self: self._split(self._v)[1])

    def components(self):
        return (*self._split(self._u), *self._split(self._v))

    def u(self):
        return self._u

    def v(self):
        return self._v


def _pair_fields(grid, **fields):
    """The fields as complex arrays, each of shape (2, N, N, n, n) on grid and all of one shape."""
    n = grid.n_points
    arrays = []
    for name, f in fields.items():
        f = np.asarray(f, dtype=np.complex128)
        if f.ndim != 5 or f.shape[:3] != (2, n, n) or f.shape[-1] != f.shape[-2]:
            raise ValueError(f"{name} must have shape (2, N, N, n, n), got {f.shape}")
        arrays.append(f)
    shapes = {f.shape for f in arrays}
    if len(shapes) != 1:
        raise ValueError(f"component shapes disagree: {shapes}")
    return arrays


@dataclass
class ResidualRecord:
    """Sup norms of the constraint residuals sampled along an evolution."""

    times: np.ndarray
    lorenz: np.ndarray
    rows: np.ndarray = None


def state_max_abs(state):
    """The largest entry of the four components; nan if any entry is nan."""
    return float(np.max([np.max(np.abs(c)) for c in state.components()]))


def state_distance(a, b):
    """The largest entry of the four components' differences; nan if any entry is nan."""
    return float(np.max([np.max(np.abs(x - y)) for x, y in zip(a.components(), b.components())]))


def to_uv(cfg):
    """Characteristic pairs (u, v) of a configuration, each (2, N, N, n, n)."""
    u = np.stack([cfg.a0 + cfg.a1, cfg.phi + cfg.a2])
    v = np.stack([cfg.a0 - cfg.a1, cfg.phi - cfg.a2])
    return u, v


def from_uv(grid, u, v):
    """Invert to_uv; accepts any pair arrays of shape (2, N, N, n, n)."""
    return MonopoleConfig(
        grid=grid,
        a0=0.5 * (u[0] + v[0]),
        a1=0.5 * (u[0] - v[0]),
        a2=0.5 * (u[1] - v[1]),
        phi=0.5 * (u[1] + v[1]),
    )


def pair_nonlinearity(u, v):
    """N(u, v) and N(v, u) evaluated pointwise, no dealiasing."""
    c_uv = 0.5 * (bracket(u[0], v[0]) + bracket(u[1], v[1]))
    n_u = np.stack([c_uv, bracket(u[1], u[0])])
    n_v = np.stack([-c_uv, bracket(v[1], v[0])])
    return n_u, n_v


def pair_rhs(grid, u, v):
    """Time derivatives (dt u, dt v) of the undiagonalized pair system.

    The gradient terms are spectral and the bilinear terms are dealiased,
    matching what the projected right-hand side sums to.
    """
    uhat = fft_forward(u, grid)
    vhat = fft_forward(v, grid)
    n_u, n_v = pair_nonlinearity(u, v)
    nu_hat = fft_forward(n_u, grid)
    nv_hat = fft_forward(n_v, grid)
    kx = grid.kx[..., None, None]
    ky = grid.ky[..., None, None]
    keep = grid.dealias_mask[..., None, None]
    du_hat = np.stack([
        1j * (kx * uhat[0] + ky * uhat[1]) + keep * nu_hat[0],
        1j * (ky * uhat[0] - kx * uhat[1]) + keep * nu_hat[1],
    ])
    dv_hat = np.stack([
        -1j * (kx * vhat[0] + ky * vhat[1]) + keep * nv_hat[0],
        -1j * (ky * vhat[0] - kx * vhat[1]) + keep * nv_hat[1],
    ])
    du = fft_inverse(du_hat, grid)
    dv = fft_inverse(dv_hat, grid)
    return du, dv


def diagonal_split(grid, u, v):
    """The state of copies of the pairs u and v; its half waves are P+ of each pair and the rest (P+ + P- = I)."""
    return DiagonalState._of_pairs(grid, *(f.copy() for f in _pair_fields(grid, u=u, v=v)))


def random_diagonal_state(rng, grid, n=2, amplitude=0.25, kmax=None):
    """Random band-limited initial data: the state of the pairs of random_config."""
    cfg = random_config(rng, grid, n=n, amplitude=amplitude, kmax=kmax)
    return DiagonalState._of_pairs(grid, *to_uv(cfg))


def _bracket(table, x, y, out):
    """out = [x, y] over the leading coefficient axis: each entry (a, b, c, f)
    of the table adds f (x_a y_b - x_b y_a) to out_c, and the first entry
    of each c writes out_c.  An su(n) table has an entry for every c."""
    term, other = np.empty((2, *out.shape[1:]))
    written = set()
    for a, b, c, f in table:
        t = term if c in written else out[c]
        np.multiply(x[a], y[b], out=t)
        np.multiply(x[b], y[a], out=other)
        t -= other
        t *= f
        if c in written:
            out[c] += t
        written.add(c)


def _require(test, what, defect, tol):
    """The engine's entry refuses a state whose defect in one test exceeds tol."""
    if defect > tol:
        raise ValueError(f"{test} test failed: {what} is off by {defect:.3g} (tolerance {tol:.3g})")


def _check_finite(y, step, h):
    peak = float(np.max(np.abs(y)))
    if not np.isfinite(peak) or peak > _DIVERGENCE_LIMIT:
        w, i, a = np.unravel_index(np.argmax(np.abs(y)), y.shape)[:3]
        where = f"the {'uv'[w]} pair, component {i}, basis coefficient {a} (max coefficient {peak:.3g})"
        raise DivergedError(step, h, where)


class HalfWaveSolver:
    """Integrating-factor RK4 for the projected characteristic system of su(n) pairs."""

    def __init__(self, grid):
        self.grid = grid
        # half-spectrum tables
        nh = grid.n_points // 2 + 1
        self._kx_r = grid.kx[:, :nh]
        self._ky_r = grid.ky[:, :nh]
        self._mag_r = grid.kabs[:, :nh]
        # alpha . xi / |xi| = [[xi1, xi2], [xi2, -xi1]] / |xi| per mode, zero at xi = 0
        a = self._alpha_hat = np.zeros((2, 2, *self._mag_r.shape))
        np.divide(self._kx_r, self._mag_r, out=a[0, 0], where=self._mag_r != 0.0)
        np.divide(self._ky_r, self._mag_r, out=a[0, 1], where=self._mag_r != 0.0)
        a[1, 0] = a[0, 1]
        np.negative(a[0, 0], out=a[1, 1])
        self._lie_tables = {}
        self._threaded = engine_threads(grid) == 2

    def _lie(self, d):
        """su_basis(n) for d = n^2 - 1 coefficients and its nonzero f_abc with a < b, built once per rank."""
        if d not in self._lie_tables:
            basis = su_basis(math.isqrt(d + 1))
            f = structure_constants(basis)
            table = [(a, b, c, f[a, b, c]) for a, b, c in np.argwhere(np.abs(f) > 1e-12) if a < b]
            self._lie_tables[d] = basis, table
        return self._lie_tables[d]

    # entry and exit ------------------------------------------------------------

    def _to_coeffs(self, state):
        """Coefficient spectra of (u, v), shape (2, 2, d, N, N//2+1).

        The state must have the solver's points per side and side length, and
        hold finite su(n) pairs that are the sums of their su_basis
        coefficients (no Hermitian or trace part), with empty Nyquist lines,
        whose sign convention is not shared by the half-spectrum transforms,
        each tested at 1e-12 of the pairs' largest entry, one pair at a time;
        a ValueError names the test that failed.  Nyquist rounding that
        passes is zeroed.  Past the grid test, a state that _to_state made
        enters as its spectra.
        """
        m, n = state.grid.n_points, self.grid.n_points
        if m != n:
            raise ValueError(f"grid test failed: the state has {m} points per side, the solver {n}")
        if state.grid.length != self.grid.length:
            raise ValueError(
                f"grid test failed: the state's torus side is {state.grid.length!r}, the solver's {self.grid.length!r}"
            )
        if state._spectra is not None:
            return state._spectra.copy()
        pairs = state.u(), state.v()
        peak = float(np.max([np.max(np.abs(pair)) for pair in pairs]))
        if not np.isfinite(peak):
            raise ValueError(f"finite test failed: the state's largest entry is {peak}")
        basis = self._lie(pairs[0].shape[-1] ** 2 - 1)[0]
        tol = 1e-12 * max(peak, 1e-30)
        nyq = n // 2
        y = np.empty((2, 2, len(basis), *self._mag_r.shape), dtype=np.complex128)
        for w, (name, pair) in enumerate(zip("uv", pairs)):
            c = coefficients(pair, basis)
            defect = float(np.max(np.abs(pair - from_coefficients(c, basis))))
            _require("anti-Hermitian and traceless", f"the {name} pair", defect, tol)
            y[w] = _fft.rfft2(np.moveaxis(c, -1, 1), axes=(-2, -1), norm="ortho")
            nyquist = np.concatenate([y[w, ..., nyq, :], y[w, ..., nyq]], axis=-1)
            _require("Nyquist", f"the Nyquist lines of the {name} pair", float(np.max(np.abs(nyquist))), tol)
            y[w, ..., nyq, :] = 0.0
            y[w, ..., nyq] = 0.0
        return y

    def _fields(self, spec, overwrite=False):
        """Physical fields of half spectra on the last two axes: the engine's one inverse transform.

        Bitwise irfft2 with norm="ortho", without its full-size temporary:
        the unscaled inverse along axis -2, then irfft along -1, which
        applies the factor 1/N in the last pass as irfft2 does.  With
        overwrite the first pass may write into spec.
        """
        half = _fft.ifft(spec, axis=-2, norm="forward", overwrite_x=overwrite)
        return _fft.irfft(half, n=self.grid.n_points, axis=-1, norm="backward", overwrite_x=True)

    def _matrices(self, c):
        """The basis sums of pair coefficients c, (2, d, N, N), with grid axes in front."""
        return from_coefficients(np.moveaxis(c, 1, -1), self._lie(c.shape[1])[0])

    def _to_state(self, y):
        """A read-only state of the pairs of y, carrying a copy of y."""
        return DiagonalState._of_pairs(self.grid, *self.pairs(y), y.copy())

    # stepping ------------------------------------------------------------------

    def _phases(self, t):
        """exp(+-i t alpha . xi) for u and v, shape (2, 2, 2, N, N//2+1); reversed, exp(-+i t alpha . xi)."""
        return np.stack([self._square_phase(t), self._square_phase(-t)])

    def _square_phase(self, h):
        """exp(i h alpha . xi) = cos(h|xi|) I + i sin(h|xi|) _alpha_hat on the half-spectrum grid."""
        cos = np.cos(h * self._mag_r)
        e = self._alpha_hat * (1j * np.sin(h * self._mag_r))
        e[0, 0] += cos
        e[1, 1] += cos
        return e

    def _propagate(self, e, y, out=None):
        """Apply the per-mode 2 x 2 propagators e[..., i, j, :, :] to the pair index j of y, over any leading axes."""
        out = np.empty_like(y) if out is None else out
        tmp = np.empty_like(y[..., 0, :, :, :])
        for i in range(2):
            np.multiply(e[..., i, 0, None, :, :], y[..., 0, :, :, :], out=out[..., i, :, :, :])
            np.multiply(e[..., i, 1, None, :, :], y[..., 1, :, :, :], out=tmp)
            out[..., i, :, :, :] += tmp
        return out

    def _lanes(self, lane):
        """Run lane(0) for u and lane(1) for v, and return when both are done.

        On a threaded grid lane(1) runs on the lane thread while lane(0)
        runs here, and an error of either lane is raised once both have
        finished; otherwise they run here one after the other.  Each lane
        writes only its own slices, so both schedules give the same bits.
        A lane never calls _lanes.
        """
        if not self._threaded:
            lane(0)
            lane(1)
            return
        other = _lane.submit(lane, 1)
        try:
            lane(0)
        finally:
            other.exception()  # waits for the v lane, whatever the u lane did
        other.result()

    def _products(self, y, overwrite=False):
        """Spectra of the brackets ([u0, v0] + [u1, v1]) / 2, [u1, u0] and [v1, v0].

        Shape (3, d, N, N//2+1), not dealiased.  The first row of N(v, u)
        is minus that of N(u, v), so it is not transformed again.  Lane w
        transforms pair w back (into y[w] itself with overwrite), then
        takes its own bracket and the cross term [u_w, v_w]; the u lane
        sums the cross terms into the first row, and each lane transforms
        half of the 3d product fields forward.
        """
        d, n = y.shape[2], self.grid.n_points
        table = self._lie(d)[1]
        fields = [None, None]
        prod = np.empty((3, d, n, n))
        cross = np.empty((d, n, n))
        n_hat = np.empty((3, d, n, n // 2 + 1), dtype=np.complex128)
        # the first row, which the u lane sums, lies in its half
        halves = (slice(None, 3 * d // 2), slice(3 * d // 2, None))

        def inverse(w):
            fields[w] = self._fields(y[w], overwrite)

        def brackets(w):
            _bracket(table, fields[w][1], fields[w][0], prod[1 + w])
            _bracket(table, fields[0][w], fields[1][w], cross if w else prod[0])

        def forward(w):
            if w == 0:
                prod[0] += cross
                prod[0] *= 0.5
            part = halves[w]
            n_hat.reshape(3 * d, n, -1)[part] = _fft.rfft2(
                prod.reshape(3 * d, n, n)[part], axes=(-2, -1), norm="ortho"
            )

        self._lanes(inverse)
        self._lanes(brackets)
        self._lanes(forward)
        return n_hat

    def _dealias(self, n_hat):
        """Two-thirds rule as in grid.dealias_mask, in place: zero the slabs
        with |k_index| > N/3 along either axis."""
        n = self.grid.n_points
        cut = n // 3
        n_hat[..., cut + 1 : n - cut, :] = 0.0
        n_hat[..., cut + 1 :] = 0.0
        return n_hat

    def _pack(self, n_hat, w, out):
        """Dealiased N(u, v) (w = 0) or N(v, u) (w = 1) of the _products n_hat, into out; n_hat is only read."""
        if w == 0:
            out[0] = n_hat[0]
        else:
            np.negative(n_hat[0], out=out[0])
        out[1] = n_hat[1 + w]
        return self._dealias(out)

    def _step(self, y, h, e, n_hat):
        """IF-RK4 in the co-moving frame with only the half-step propagator E.

        With E(h) = E(h/2)^2 and a = E y the step reads
            k2 = N(a + h/2 E k1),  k3 = N(a + h/2 k2),  k4 = N(E (a + h k3)),
            y' = E (a + h/6 E k1 + h/3 (k2 + k3)) + h/6 k4,
        and each stage is added into the sum once known; y' overwrites y.
        e is the stream's E(h/2), _phases(h / 2), and n_hat, the _products
        of y that k1 is packed from; both are only read.  Between
        nonlinearities lane w updates pair w alone.  Each stage argument is
        built in k over the stage before it, the last in a, which no later
        stage reads, and is transformed in place.
        """
        a, acc, k = (np.empty_like(y) for _ in range(3))

        def first(w):
            self._propagate(e[w], y[w], a[w])
            self._propagate(e[w], self._pack(n_hat, w, k[w]), acc[w])
            np.multiply(acc[w], 0.5 * h, out=k[w])
            k[w] += a[w]
            acc[w] *= h / 6.0
            acc[w] += a[w]

        def middle(w, scale):
            k_w = self._pack(n_hat, w, k[w])  # k2 or k3
            k_w *= h / 3.0
            acc[w] += k_w
            k_w *= scale  # h/2 k2 or h k3
            k_w += a[w]

        def third(w):
            middle(w, 3.0)
            self._propagate(e[w], k[w], a[w])

        def last(w):
            k_w = self._pack(n_hat, w, k[w])  # k4
            self._propagate(e[w], acc[w], y[w])
            k_w *= h / 6.0
            y[w] += k_w

        self._lanes(first)
        n_hat = self._products(k, overwrite=True)  # k2
        self._lanes(lambda w: middle(w, 1.5))
        n_hat = self._products(k, overwrite=True)  # k3
        self._lanes(third)
        n_hat = self._products(a, overwrite=True)  # k4, of E (a + h k3)
        self._lanes(last)
        return y

    # rates and residuals -------------------------------------------------------

    def _lorenz_sup(self, y, n0):
        """Gauge residual on the first rows of the engine's rates, whose bracket term n0 is dealiased."""
        kx, ky = self._kx_r, self._ky_r
        res_hat = 0.5 * (
            (1j * (kx * y[0, 0] + ky * y[0, 1]) + n0) + (-1j * (kx * y[1, 0] + ky * y[1, 1]) - n0)
            - 1j * kx * (y[0, 0] - y[1, 0])
            - 1j * ky * (y[0, 1] - y[1, 1])
        )
        res = self._fields(res_hat)
        # Frobenius norm: the basis is orthonormal
        return float(np.max(np.sqrt(np.sum(res * res, axis=0))))

    def _row_sups(self, drop):
        """Sup norms of the three evolution-row residuals on the engine's rates.

        On those rates the gradient terms cancel and each row is, up to
        sign, what the two-thirds rule drops from its bracket term:
        ([u1, u0] + [v1, v0]) / 2 for phi, ([u0, v0] + [u1, v1]) / 2 for a1 and
        ([u1, u0] - [v1, v0]) / 2 for a2.  drop is that part of the _products.
        """
        rows_hat = np.stack([0.5 * (drop[1] + drop[2]), drop[0], 0.5 * (drop[1] - drop[2])])
        rows = self._fields(rows_hat)
        # Frobenius norm: the basis is orthonormal
        return np.max(np.sqrt(np.sum(rows * rows, axis=1)), axis=(-2, -1))

    # public operations --------------------------------------------------------

    def config_with_derivatives(self, state):
        """Bridge to the residual operators: fields plus evolution rates.

        The rates come from the pair_rhs oracle, not from the engine, so a
        residual evaluated here checks the engine independently.
        """
        u, v = state.u(), state.v()
        rates = pair_rhs(self.grid, u, v)
        return from_uv(self.grid, u, v), from_uv(self.grid, *rates)

    def samples(self, state, n_steps, sample_every=1, h=None):
        """Advance n_steps steps of size h (default grid.dt), yielding (step, spectra, products).

        It yields at step 0, every sample_every-th step and the last step.
        spectra are a read-only view of the coefficient spectra of (u, v),
        which later steps overwrite and pairs turns into u and v; products,
        read-only too, are their undealiased _products, which the step reads
        as its k1, or None at the last step.  Kept past the loop body,
        products hold their memory.  The counts, the entry and the step-0
        divergence limit are checked here, at the call, and the returned
        generator steps.
        """
        require_count("n_steps", n_steps, 0)
        require_count("sample_every", sample_every, 1)
        h = self.grid.dt if h is None else h
        require_real("h", h, positive=False)
        y = self._to_coeffs(state)
        _check_finite(y, 0, h)
        return self._stepping(y, n_steps, sample_every, h)

    def _stepping(self, y, n_steps, sample_every, h):
        """The loop of samples, from the checked entry spectra y; the stream builds its own E(h/2)."""
        e = self._phases(0.5 * h)
        for i in range(n_steps):
            products = self._products(y)
            if i % sample_every == 0:
                yield i, np.broadcast_to(y, y.shape), np.broadcast_to(products, products.shape)
            y = self._step(y, h, e, products)
            _check_finite(y, i + 1, h)
        yield n_steps, np.broadcast_to(y, y.shape), None

    def pairs(self, spectra):
        """The pairs (u, v), each (2, N, N, n, n), of the coefficient spectra that samples yields."""
        return tuple(self._matrices(c) for c in self._fields(spectra))

    def evolve(self, state, n_steps, h=None):
        """Advance n_steps IF-RK4 steps of size h (default grid.dt), sampling the two ends only."""
        for _, y, products in self.samples(state, n_steps, n_steps or 1, h):
            del products  # not kept through the steps that follow
        return self._to_state(y)

    def evolve_with_residuals(self, state, n_steps, sample_every=1, rows=False):
        """Advance while recording residual sup norms from the evolution rates.

        Returns (final_state, ResidualRecord).  The gauge constraint
        residual is recorded at every sampled instant; with rows=True the
        three evolution-row residuals, which on these rates are the parts
        of the brackets that dealiasing drops, are recorded as well.
        """
        times, lorenz_vals, row_vals = [], [], []
        for i, y, n_hat in self.samples(state, n_steps, sample_every):
            n_hat = self._products(y) if n_hat is None else n_hat
            kept = self._dealias(n_hat.copy())
            times.append(i * self.grid.dt)
            lorenz_vals.append(self._lorenz_sup(y, kept[0]))
            if rows:  # the dropped part, in place of the kept one
                row_vals.append(self._row_sups(np.subtract(n_hat, kept, out=kept)))
            del n_hat, kept  # not kept through the steps that follow
        record = ResidualRecord(
            times=np.array(times),
            lorenz=np.array(lorenz_vals),
            rows=np.array(row_vals) if rows else None,
        )
        return self._to_state(y), record

    # Duhamel iteration -------------------------------------------------------

    def picard_iterates(self, state, t_final, n_steps, n_iterations):
        """Fixed-point iterates of the Duhamel form at time t_final.

        Iterate zero is the free flow; each pass integrates
        E(-t_j) N(E(t_j) z_j) of the previous iterate z with a cumulative
        Simpson rule in the co-moving frame.  Returns the list of end states.
        """
        # imported on use: scipy.integrate also loads scipy.optimize, .sparse and .linalg
        from scipy.integrate import cumulative_simpson

        require_count("n_steps", n_steps, 1)
        require_count("n_iterations", n_iterations, 0)
        require_real("t_final", t_final, positive=True)
        y0 = self._to_coeffs(state)
        times = np.linspace(0.0, t_final, n_steps + 1)
        flows = [self._phases(t) for t in times]
        z = np.broadcast_to(y0, (n_steps + 1, *y0.shape)).copy()
        iterates = [self._to_state(self._propagate(flows[-1], z[-1]))]
        for _ in range(n_iterations):
            g = np.empty_like(z)
            for j, e in enumerate(flows):
                k = self._propagate(e, z[j])
                n_hat = self._products(k)
                for w in range(2):
                    self._pack(n_hat, w, k[w])
                self._propagate(e[::-1], k, g[j])
            # cumulative_simpson is real-only, so integrate the parts
            integral = (
                cumulative_simpson(g.real, x=times, axis=0, initial=0.0)
                + 1j * cumulative_simpson(g.imag, x=times, axis=0, initial=0.0)
            )
            z = y0[None] + integral
            iterates.append(self._to_state(self._propagate(flows[-1], z[-1])))
        return iterates
