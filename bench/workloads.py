"""The benchmark's workloads: inputs made from the seed, the timed operation, the checks.

A workload runs whole rounds of equal operations.  prepare() is the
set-up (grid and solver tables, initial data); op() is one timed
operation; check_op() and check_run() verify the outputs outside the
timed region and return ``(name, passed, detail)`` triples.  An op that
raises counts as failed and its output is not checked.
"""

import contextlib
import io
import os

import numpy as np

import checks

# called through their modules, so that a traced pass sees every call
from monopole_lab import cli, diagonal_system, gauge_fields, grid_spectral

# the CLI's defaults for the random initial data and the time step
AMPLITUDE = 0.2
KMAX = 5.0
DT = 1e-3
LENGTH = 2.0 * np.pi


class OperationFailed(Exception):
    """The program reported a failure for one operation."""


def _trajectory_checks(solver, state):
    """Lorenz constraint on five consecutive evolved states, and the dealiasing band."""
    states = [state]
    for _ in range(4):
        states.append(solver.evolve(states[-1], 1))
    return checks.lorenz_on_trajectory(states, DT, LENGTH) + checks.dealias_leak(state)


class EvolveN256:
    """The simulate loop on a 256^2 grid: one op is one sample_every chunk plus its sample."""

    name = "evolve-n256"
    round = ("chunk",)
    round_s = 2.2
    N = 256
    SAMPLE_EVERY = 10

    def __init__(self, seed, out_dir):
        self.seed = seed

    def prepare(self):
        self.grid = grid_spectral.GridSpec(self.N, LENGTH, DT)
        rng = np.random.default_rng(self.seed)
        self.state = diagonal_system.random_diagonal_state(rng, self.grid, amplitude=AMPLITUDE, kmax=KMAX)
        self.solver = diagonal_system.HalfWaveSolver(self.grid)

    def op(self, kind):
        self.state = self.solver.evolve(self.state, self.SAMPLE_EVERY)
        return float(np.max(np.abs(self.state.u()))), float(np.max(np.abs(self.state.v())))

    def check_op(self, kind, output):
        return []

    def check_run(self):
        return _trajectory_checks(self.solver, self.state)


class ResidualsN64:
    """The residuals command at its defaults on a 64^2 grid, fresh random data per op."""

    name = "residuals-n64"
    round = ("residuals",)
    round_s = 2.1
    N = 64
    STEPS = 200
    SAMPLE_EVERY = 10

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.final = None

    def prepare(self):
        self.grid = grid_spectral.GridSpec(self.N, LENGTH, DT)
        self.rng = np.random.default_rng(self.seed)
        self.solver = diagonal_system.HalfWaveSolver(self.grid)

    def op(self, kind):
        state = diagonal_system.random_diagonal_state(self.rng, self.grid, amplitude=AMPLITUDE, kmax=KMAX)
        return self.solver.evolve_with_residuals(state, self.STEPS, sample_every=self.SAMPLE_EVERY, rows=True)

    def check_op(self, kind, output):
        final, record = output
        self.final = final
        cfg, dts = self.solver.config_with_derivatives(final)
        return checks.residual_rows_match(record.rows[-1], gauge_fields.monopole_residual_via_dual(cfg, dts))

    def check_run(self):
        if self.final is None:
            return []
        return _trajectory_checks(self.solver, self.final)


class VerifySweeps:
    """cli.main over the verification commands, with their CSVs written.

    A round is one pass over the seeded commands, then verify-null at
    NULL_SEED.  verify-null fails on roughly one seed in six (the
    arccos angle loses digits at small angles, so C_sym reads above 1/2);
    run at a seed that does not depend on the benchmark's seed it fails
    every time, so it is counted as a failed op in every round and the
    null layer stays measured.
    """

    name = "verify-sweeps"
    round = ("pass", "null")
    round_s = 3.0
    PASS_COMMANDS = ("verify-cone", "verify-norms", "scaling", "probe-bilinear")
    # norm_tuples trimmed from 20 so that a 25 s run holds several rounds
    PASS_OVERRIDES = ("norm_tuples=5",)
    NULL_SEED = 31

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = os.path.join(out_dir, self.name)

    def prepare(self):
        self.rng = np.random.default_rng(self.seed)

    def _main(self, command, seed, overrides=()):
        argv = [command, "--seed", str(seed), "--out", os.path.join(self.out, command), *overrides]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            status = cli.main(argv)
        if status != 0:
            raise OperationFailed(f"{command} --seed {seed} exited {status}: {printed.getvalue().strip()}")

    def op(self, kind):
        if kind == "null":
            self._main("verify-null", self.NULL_SEED)
            return kind
        seed = int(self.rng.integers(2**31))
        for command in self.PASS_COMMANDS:
            self._main(command, seed, self.PASS_OVERRIDES)
        return kind

    def check_op(self, kind, output):
        if kind == "null":
            return checks.check_null_outputs(self.out)
        return checks.check_pass_outputs(self.out)

    def check_run(self):
        return []


WORKLOADS = {w.name: w for w in (EvolveN256, ResidualsN64, VerifySweeps)}
