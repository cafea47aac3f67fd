"""The engine's two lanes: u on the caller's thread, v on the lane thread from 128 points per side.

Both schedules do the same arithmetic on disjoint slices, so they agree
bit for bit; the lane thread is one per process, made on the first
threaded step, and survives a failing lane and a fork.
"""

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft

import monopole_lab
from monopole_lab import diagonal_system
from monopole_lab.diagonal_system import HalfWaveSolver, random_diagonal_state, state_distance
from monopole_lab.grid_spectral import GridSpec


def _threaded_case(n=2, seed=7):
    grid = GridSpec(128, 2 * np.pi, 1e-3)
    return grid, random_diagonal_state(np.random.default_rng(seed), grid, n=n, amplitude=0.4, kmax=5)


def _bits(*arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _run_child(script):
    src = os.path.dirname(os.path.dirname(os.path.abspath(monopole_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=240)


@pytest.mark.parametrize("n", [2, 3], ids=["su2", "su3"])
def test_threaded_schedule_matches_inline_bitwise(n, monkeypatch):
    grid, state = _threaded_case(n)
    solver = HalfWaveSolver(grid)
    assert solver._threaded

    def run():
        final, record = solver.evolve_with_residuals(state, 3, sample_every=2, rows=True)
        return _bits(*final.components(), record.lorenz, record.rows)

    threaded = run()
    monkeypatch.setattr(solver, "_threaded", False)
    assert run() == threaded


def test_threaded_picard_iterates_match_inline_bitwise(monkeypatch):
    grid, state = _threaded_case()
    solver = HalfWaveSolver(grid)

    def run():
        return _bits(*(c for s in solver.picard_iterates(state, 2e-3, 2, 1) for c in s.components()))

    threaded = run()
    monkeypatch.setattr(solver, "_threaded", False)
    assert run() == threaded


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_fields_match_irfft2_bitwise(n):
    grid = GridSpec(n, 2 * np.pi, 1e-3)
    rng = np.random.default_rng(n)
    shape = (2, 3, n, n // 2 + 1)
    spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = scipy.fft.irfft2(spec, s=(n, n), axes=(-2, -1), norm="ortho")
    solver = HalfWaveSolver(grid)
    kept = spec.copy()
    assert _bits(solver._fields(spec)) == _bits(expected)
    assert _bits(spec) == _bits(kept)
    assert _bits(solver._fields(spec, overwrite=True)) == _bits(expected)


def test_one_lane_thread_per_process_made_on_the_first_threaded_step():
    # a fresh interpreter, since an earlier test may have made the lane already
    done = _run_child(
        """
import json, threading
import numpy as np
counts = [threading.active_count()]
from monopole_lab.diagonal_system import HalfWaveSolver, random_diagonal_state
from monopole_lab.grid_spectral import GridSpec
counts.append(threading.active_count())
def case(n):
    grid = GridSpec(n, 2 * np.pi, 1e-3)
    return grid, random_diagonal_state(np.random.default_rng(0), grid, amplitude=0.2, kmax=5)
grid, state = case(64)
solver = HalfWaveSolver(grid)
counts.append(threading.active_count())
solver.evolve(state, 2)
counts.append(threading.active_count())
grid, state = case(128)
solver = HalfWaveSolver(grid)
counts.append(threading.active_count())
solver.evolve(state, 1)
counts.append(threading.active_count())
HalfWaveSolver(grid).evolve(state, 1)
for _ in solver.samples(state, 2, 1):
    pass
counts.append(threading.active_count())
print(json.dumps(counts))
"""
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout)
    base = counts[0]
    assert counts == [base] * 5 + [base + 1] * 2


def test_a_failing_lane_raises_after_both_lanes_finish(monkeypatch):
    grid, state = _threaded_case()
    clean = HalfWaveSolver(grid).evolve(state, 1)
    bracket = diagonal_system._bracket
    caller = threading.current_thread()
    u_lane = []

    def failing_off_the_caller(table, x, y, out):
        if threading.current_thread() is not caller:
            raise RuntimeError("the v lane failed")
        time.sleep(0.1)  # the v lane fails long before this lane is done
        bracket(table, x, y, out)
        u_lane.append(None)

    monkeypatch.setattr(diagonal_system, "_bracket", failing_off_the_caller)
    solver = HalfWaveSolver(grid)
    with pytest.raises(RuntimeError, match="the v lane failed"):
        solver.evolve(state, 1)
    # the u lane's two brackets were taken before the error reached here
    assert len(u_lane) == 2
    monkeypatch.setattr(diagonal_system, "_bracket", bracket)
    assert state_distance(solver.evolve(state, 1), clean) == 0.0


def test_a_forked_child_steps_on_a_lane_of_its_own():
    # the child inherits the lane's executor but not its thread; without a
    # new lane its first threaded step would wait forever
    done = _run_child(
        """
import os, signal, sys, time
import numpy as np
from monopole_lab.diagonal_system import HalfWaveSolver, random_diagonal_state, state_distance
from monopole_lab.grid_spectral import GridSpec
grid = GridSpec(128, 2 * np.pi, 1e-3)
state = random_diagonal_state(np.random.default_rng(0), grid, amplitude=0.2, kmax=5)
solver = HalfWaveSolver(grid)
before = solver.evolve(state, 1)
pid = os.fork()
if pid == 0:
    os._exit(0 if state_distance(solver.evolve(state, 1), before) == 0.0 else 3)
deadline = time.monotonic() + 60.0
while time.monotonic() < deadline:
    finished, status = os.waitpid(pid, os.WNOHANG)
    if finished:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the child's threaded step did not finish within 60 s")
"""
    )
    assert done.returncode == 0, done.stderr
