import ast
import csv
import math
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import monopole_lab
from monopole_lab import cli, diagonal_system, null_geometry
from monopole_lab.cli import (
    COMMANDS,
    SCHEMA,
    UsageError,
    build_config,
    load_config,
    main,
    parse_overrides,
)
from monopole_lab.diagonal_system import HalfWaveSolver, random_diagonal_state
from monopole_lab.grid_spectral import GridSpec
from record_outputs import RECORDED_CASES, RECORDED_DIR, run_case

# a recorded number must agree to this relative tolerance plus an absolute
# floor for rounding-level cells, such as residuals' lorenz (about 5e-16)
RECORDED_RTOL = 1e-12
RECORDED_ATOL = 1e-14


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test that runs longer than 60 s, so that a run that never ends cannot hang the suite.

    The handler raises pytest's Failed, a BaseException. A TimeoutError would be an
    OSError, which cli.run turns into exit status 2, so a hang during a write would
    pass as a refusal.
    """

    def expire(signum, frame):
        pytest.fail("deadline expired: the test ran longer than it may")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_refused(capsys, args, message, out):
    # an exception that escapes main fails the test
    assert main(args) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(out.rglob("manifest.txt"))


def _assert_usage_error(tmp_path, capsys, args, message):
    # a refused run leaves none of the directories it would have made
    _assert_refused(capsys, [*args, "--out", str(tmp_path / "new" / "run")], message, tmp_path)
    assert not (tmp_path / "new").exists()


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_manifest(path):
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, raw = line.partition(" = ")
        values[key] = raw
    return values


def test_defaults_cover_every_command():
    for command in COMMANDS:
        config = build_config(command)
        assert config.command == command
        assert dict(config.items())["n"] == SCHEMA["n"][1]


def _bounds_text(parser, bounds):
    """The values a SCHEMA row's bounds admit, as the README's key table writes them."""
    if parser is str:
        return "—"
    if parser is int:
        (low, high), positive = (bounds["low"], bounds.get("high", math.inf)), False
    else:
        (low, high), positive = bounds.get("bounds", (-math.inf, math.inf)), bounds["positive"]
    show = str if parser is int else "{:g}".format
    left = "(0" if positive and low <= 0 else f"[{show(low)}"
    right = "∞)" if high == math.inf else f"{show(high)}]"
    return f"{left}, {right}"


def test_the_readme_key_table_matches_the_schema():
    # the table is the documentation of every key, so it may not drift from the code
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| key "))
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    assert [row[0].strip("`") for row in rows] == list(SCHEMA)
    for (key, default, bounds, meaning, _), (parser, value, description, limits) in zip(rows, SCHEMA.values()):
        assert default == str(value), key
        assert bounds == _bounds_text(parser, limits), key
        assert meaning == description, key


def test_load_config_parses_comments_and_blank_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# grid\nn = 16\n\nsteps=12  # inline comment\namplitude = 0.05\n",
        encoding="utf-8",
    )
    values = load_config(str(path))
    assert values == {"n": "16", "steps": "12", "amplitude": "0.05"}
    config = build_config("simulate", file_values=values)
    assert config.n == 16 and config.steps == 12 and config.amplitude == 0.05


def test_empty_config_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("", encoding="utf-8")
    config = build_config("simulate", file_values=load_config(str(path)))
    assert dict(config.items()) == dict(build_config("simulate").items())


def test_missing_config_file_is_usage_error():
    with pytest.raises(UsageError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_empty_config_path_is_usage_error(tmp_path, capsys):
    _assert_usage_error(tmp_path, capsys, ["simulate", "--config", ""], "config file not found: ''")


def test_unreadable_config_file_is_usage_error(tmp_path):
    with pytest.raises(UsageError, match="cannot read config file"):
        load_config(str(tmp_path))
    path = tmp_path / "latin1.cfg"
    path.write_bytes("amplitude = 0.2  # \xb5\n".encode("latin-1"))
    with pytest.raises(UsageError, match="cannot read config file"):
        load_config(str(path))


def test_config_line_without_equals_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("steps\n", encoding="utf-8")
    with pytest.raises(UsageError, match="expected key = value"):
        load_config(str(path))


def test_unknown_key_rejected_with_valid_key_list():
    with pytest.raises(UsageError) as err:
        build_config("simulate", overrides={"bogus": "3"})
    message = str(err.value)
    assert "bogus" in message
    for key in SCHEMA:
        assert key in message


def test_override_precedence_flags_beat_file_beat_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 5\nsteps = 30\n", encoding="utf-8")
    config = build_config(
        "simulate",
        file_values=load_config(str(path)),
        overrides={"steps": "40"},
        seed=9,
    )
    assert config.seed == 9
    assert config.steps == 40


def test_parse_overrides_requires_equals():
    with pytest.raises(UsageError, match="key=value"):
        parse_overrides(["steps"])


def test_unusable_values_exit_2(tmp_path, capsys):
    _assert_usage_error(tmp_path, capsys, ["simulate", "n=7"], "power of two")
    _assert_usage_error(tmp_path, capsys, ["simulate", "steps=soon"], "invalid value")
    _assert_usage_error(tmp_path, capsys, ["simulate", "bogus=1"], "valid keys")
    args = ["probe-bilinear", "n=64", "n_active=5000", "probe_samples=1"]
    _assert_usage_error(tmp_path, capsys, args, "cap is 4096")
    # lengths whose mode spacing overflows or underflows in the norms
    for command, length in (
        ("verify-norms", "1e-300"), ("scaling", "1e-300"), ("probe-bilinear", "1e-300"),
        ("verify-norms", "1e300"), ("scaling", "1e300"),
    ):
        _assert_usage_error(tmp_path, capsys, [command, f"length={length}"], "length must lie in [1e-06, 1e+06]")
    # random data so large that the engine's entry would overflow
    for command in ("simulate", "residuals"):
        for amplitude in ("1e308", "-1e308", "3e306"):
            args = [command, f"amplitude={amplitude}", "steps=3"]
            _assert_usage_error(tmp_path, capsys, args, "amplitude must lie in [-1e+300, 1e+300]")
    # time lattices that cannot hold the widest window or resolve the narrowest,
    # and a t_window whose powers overflow
    for args, message in (
        (["verify-norms", "length=0.25"], "time lattice too coarse"),
        (["verify-norms", "t_window=0.5"], "t_window must be at least 1.0"),
        (["verify-norms", "t_window=0.75"], "t_window must be at least 1.0"),
        (["verify-norms", "t_window=16"], "time lattice too coarse"),
        (["verify-norms", "--seed", "1", "t_window=12"], "time lattice too coarse"),
        (["verify-norms", "n_t=32"], "time lattice too coarse"),
        (["verify-norms", "t_window=1e-300"], "t_window must lie in [1e-06, 1e+06]"),
        (["probe-bilinear", "n=16", "probe_samples=1", "n_active=16", "t_window=1e-300"],
         "t_window must lie in [1e-06, 1e+06]"),
    ):
        _assert_usage_error(tmp_path, capsys, args, message)


@pytest.mark.parametrize("setting", ["t_window=1.0", "t_window=8", "length=0.3", "n_t=64"])
def test_verify_norms_runs_at_the_edges_of_the_time_lattice_rule(tmp_path, setting):
    assert main(["verify-norms", "--out", str(tmp_path), "norm_tuples=3", setting]) == 0


def _run_child(args):
    # a fresh interpreter, for the tests whose point is a fresh process; the
    # deadline's exception makes subprocess.run kill the child
    src = os.path.dirname(os.path.dirname(os.path.abspath(monopole_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_importing_the_cli_leaves_scipy_integrate_unloaded():
    # scipy.integrate loads scipy.optimize, .sparse and .linalg, about half
    # of every CLI start; only two test oracles need it
    done = _run_child(["-c", "import monopole_lab.cli, sys; sys.exit('scipy.integrate' in sys.modules)"])
    assert done.returncode == 0, done.stderr


def test_the_module_exits_with_process_status_2(tmp_path):
    # the only test of the module's sys.exit(main())
    done = _run_child(["-m", "monopole_lab.cli", "simulate", "sample_every=0", "--out", str(tmp_path / "run")])
    assert done.returncode == 2
    assert "sample_every must be at least 1" in done.stderr
    assert "Traceback" not in done.stderr


def test_the_deadline_ends_a_run_that_never_ends(tmp_path, monkeypatch):
    # a runner that never returns stands in for a computation that never ends
    def endless(config, grid, rng):
        while True:
            time.sleep(1.0)

    monkeypatch.setitem(cli._RUNNERS, "simulate", endless)
    signal.alarm(2)
    with pytest.raises(pytest.fail.Exception, match="deadline expired"):
        main(["simulate", "--out", str(tmp_path), "n=16"])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "out_args, out",
    [
        (["--out", "taken"], "taken"),
        (["out=taken"], "taken"),
        (["--out", "taken/below"], "taken/below"),
        (["--out", ""], ""),
    ],
    ids=["existing-file", "existing-file-override", "below-a-file", "empty"],
)
def test_unusable_output_directory_exits_2(tmp_path, capsys, monkeypatch, out_args, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("", encoding="utf-8")
    _assert_refused(capsys, ["simulate", "n=16", *out_args], f"cannot use output directory {out!r}", tmp_path)
    assert (tmp_path / "taken").read_text(encoding="utf-8") == ""


def test_unwritable_csv_path_exits_2(tmp_path, capsys):
    # the run does its work, then finds a directory where its CSV goes
    (tmp_path / "simulate.csv").mkdir()
    _assert_refused(
        capsys,
        ["simulate", "n=16", "steps=10", "--out", str(tmp_path)],
        f"cannot write {str(tmp_path / 'simulate.csv')!r}",
        tmp_path,
    )


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "sample_every=0"], "sample_every must be at least 1"),
        (["simulate", "steps=-5"], "steps must be at least 0"),
        (["residuals", "sample_every=0"], "sample_every must be at least 1"),
        (["verify-norms", "n_t=0"], "n_t must be at least 1"),
        (["verify-null", "null_samples=0"], "null_samples must be at least 1"),
        # below kmax = 1 only the mean mode is kept and the random fields are constant
        (["scaling", "kmax=-1"], "kmax must be at least 1"),
        (["verify-norms", "kmax=-1", "norm_tuples=1"], "kmax must be at least 1"),
        (["verify-norms", "t_window=0"], "t_window must be positive"),
        (["verify-norms", "t_window=-2"], "t_window must be positive"),
        (["probe-bilinear", "t_window=0"], "t_window must be positive"),
        (["residuals", "lorenz_tol=-1"], "lorenz_tol must be positive"),
        (["verify-cone", "rtol=-1"], "rtol must be positive"),
        # every float key refuses inf and nan
        (["simulate", "length=inf"], "length must be finite, got inf"),
        (["simulate", "kmax=nan"], "kmax must be finite, got nan"),
        (["scaling", "length=inf"], "length must be finite, got inf"),
        (["probe-bilinear", "t_window=inf"], "t_window must be finite, got inf"),
    ],
    ids=["simulate-sample_every", "simulate-steps", "residuals-sample_every",
         "verify-norms-n_t", "verify-null-null_samples", "scaling-kmax",
         "verify-norms-kmax", "verify-norms-t_window-zero",
         "verify-norms-t_window-negative", "probe-bilinear-t_window",
         "residuals-lorenz_tol", "verify-cone-rtol", "simulate-length-inf",
         "simulate-kmax-nan", "scaling-length-inf", "probe-bilinear-t_window-inf"],
)
def test_values_below_their_bound_exit_2(tmp_path, capsys, args, message):
    _assert_usage_error(tmp_path, capsys, [*args, "n=16"], message)


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "n=1267650600228229401496703205376"], "n must be at most 16777216"),
        (["verify-null", "null_samples=100000000000000000000"], "null_samples must be at most 10000000000000000"),
        (["verify-null", "null_samples=4611686018427387904"], "null_samples must be at most 10000000000000000"),
        (["probe-bilinear", "probe_n_t=100000000000000000000"], "probe_n_t must be at most 1000000000000"),
        (["probe-bilinear", "probe_n_t=4611686018427387904"], "probe_n_t must be at most 1000000000000"),
        (["verify-norms", "n_t=100000000000000000000"], "n_t must be at most 10000000000000000"),
    ],
    ids=["simulate-n", "verify-null-null_samples-1e20", "verify-null-null_samples-2**62",
         "probe-bilinear-probe_n_t-1e20", "probe-bilinear-probe_n_t-2**62", "verify-norms-n_t"],
)
def test_values_above_their_bound_exit_2(tmp_path, capsys, args, message):
    # past these bounds numpy refuses the array's shape with a ValueError;
    # at them, test_a_configuration_too_large_for_memory_exits_2 shows the
    # memory refusal.  A size below a bound may fit and is not run here
    _assert_usage_error(tmp_path, capsys, args, message)


def test_probe_more_active_modes_than_band_slots_exits_2(tmp_path, capsys):
    # the default quarter band has 9 x 17 x 17 slots; placing more modes by
    # rejection used to never end
    _assert_usage_error(
        tmp_path, capsys, ["probe-bilinear", "n_active=3000", "probe_samples=1"],
        "n_active=3000 exceeds the 2601 slots",
    )


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "n=16777216"],
        ["residuals", "n=16777216"],
        ["scaling", "n=16777216"],
        ["verify-null", "null_samples=10000000000000000"],
        ["verify-norms", "n_t=10000000000000000", "norm_tuples=1"],
        ["probe-bilinear", "probe_n_t=1000000000000"],
    ],
    ids=lambda args: args[0],
)
def test_a_configuration_too_large_for_memory_exits_2(tmp_path, capsys, args):
    # each run asks for one array larger than the 128 TiB user address space,
    # which is refused at once; never use a size that could fit, since the
    # kernel may kill such a run, here the whole suite, instead
    _assert_usage_error(tmp_path, capsys, args, f"{args[0]} does not fit in memory: Unable to allocate")


@pytest.mark.parametrize("command", ["simulate", "residuals"])
def test_a_blow_up_names_its_step_in_the_run_and_its_component(tmp_path, capsys, command):
    # both step in the solver's one sampled loop, which counts the steps
    # from the start of the run
    assert main([command, "--out", str(tmp_path), "amplitude=350", "sample_every=2"]) == 1
    printed = capsys.readouterr().out
    assert "solution blew up at step 5, t=0.005: the v pair, component 1, basis coefficient 2" in printed
    # the blow-up is charged to the evolution, not to a check of its output
    assert f"[{command}] finite_evolution: FAIL (solution blew up at step 5" in printed
    assert "lorenz_constraint" not in printed


@pytest.mark.parametrize("command", ["simulate", "residuals"])
def test_data_past_the_divergence_limit_fail_at_step_0_without_a_warning(tmp_path, capsys, command):
    # the entry spectra are checked against the limit before any step, so
    # no arithmetic overflows and the message names the real coefficient
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--out", str(tmp_path), "amplitude=1e300", "steps=3"]) == 1
    printed = capsys.readouterr().out
    assert f"[{command}] finite_evolution: FAIL (solution blew up at step 0, t=0:" in printed
    assert "(max coefficient 1.07e+301)" in printed


@pytest.mark.parametrize("command", ["simulate", "residuals"])
def test_a_step_above_its_bound_exits_2_before_any_arithmetic(tmp_path, capsys, command):
    # dt=1e50 printed overflow warnings from inside the first step before
    # finite_evolution failed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        args = [command, "n=16", "steps=3", "dt=1e50"]
        _assert_usage_error(tmp_path, capsys, args, "dt must be at most 1e+06, got 1e+50")


@pytest.mark.parametrize("n", [16, 256])
def test_a_step_at_its_bound_ends_without_a_warning(tmp_path, capsys, n):
    # the largest data that pass step 0, just under the divergence limit,
    # blow up at step 1 without any arithmetic overflowing on the way
    grid = GridSpec(n, 2 * np.pi, 1e-3)
    state = random_diagonal_state(np.random.default_rng(0), grid, amplitude=1.0, kmax=5.0)
    peak = float(np.max(np.abs(HalfWaveSolver(grid)._to_coeffs(state))))
    amplitude = 0.999 * diagonal_system._DIVERGENCE_LIMIT / peak
    args = ["simulate", f"n={n}", "steps=3", "dt=1e6", f"amplitude={amplitude!r}", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 1
    assert "finite_evolution: FAIL (solution blew up at step 1, t=1e+06" in capsys.readouterr().out


def test_simulate_and_residuals_report_the_same_final_pairs(tmp_path, capsys):
    details = []
    for command in ("simulate", "residuals"):
        assert main([command, "--out", str(tmp_path / command)]) == 0
        printed = capsys.readouterr().out
        details.append(printed.split(f"[{command}] finite_evolution: ")[1].splitlines()[0])
    assert details == ["PASS (max |u|, |v| = 7.651153e-01)"] * 2


@pytest.mark.parametrize("command", ["simulate", "residuals"])
def test_data_on_the_nyquist_lines_exits_2(tmp_path, capsys, command):
    # n=8 is a valid grid, but the default kmax=5 reaches its Nyquist
    # lines, which the solver's entry refuses
    _assert_usage_error(tmp_path, capsys, [command, "n=8"], "kmax must be below n/2 = 4")
    # an output directory that existed before the run stays
    _assert_refused(capsys, [command, "n=8", "--out", str(tmp_path)], "kmax must be below n/2 = 4", tmp_path)
    assert tmp_path.is_dir()
    # the runner refuses before an unusable --out is looked at, and the file stays
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    _assert_refused(capsys, [command, "n=8", "--out", str(taken)], "kmax must be below n/2 = 4", tmp_path)
    assert taken.read_text(encoding="utf-8") == ""


def test_unknown_flag_exits_2(tmp_path, capsys):
    _assert_usage_error(tmp_path, capsys, ["simulate", "--sed", "3"], "unrecognized")


def test_simulate_writes_artifacts_and_zero_data_stays_zero(tmp_path, capsys):
    out = tmp_path / "run"
    status = main(
        [
            "simulate",
            "--out",
            str(out),
            "--seed",
            "4",
            "n=16",
            "steps=10",
            "sample_every=5",
            "amplitude=0.0",
        ]
    )
    assert status == 0
    assert "finite_evolution: PASS" in capsys.readouterr().out
    rows = read_csv(out / "simulate.csv")
    assert rows[0] == ["step", "time", "max_abs_u", "max_abs_v"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["command"] == "simulate"
    assert manifest["status"] == "0"
    assert manifest["check_finite_evolution"].startswith("PASS")
    ast.parse((out / "plot.py").read_text(encoding="utf-8"))


def test_simulate_rows_match_chained_evolve_calls(tmp_path, product_count):
    # the last row, at step 25, lies off the sampling grid
    args = ["--seed", "0", "n=16", "steps=25", "sample_every=10", "amplitude=0.2", "kmax=5"]
    assert main(["simulate", "--out", str(tmp_path), *args]) == 0
    # four nonlinearities a step, of which a sampled instant's products are the first
    assert len(product_count) == 100
    rows = read_csv(tmp_path / "simulate.csv")[1:]
    assert [int(row[0]) for row in rows] == [0, 10, 20, 25]
    grid = GridSpec(16, 2.0 * np.pi, 1e-3)
    solver = HalfWaveSolver(grid)
    state = random_diagonal_state(np.random.default_rng(0), grid, amplitude=0.2, kmax=5.0)
    previous = 0
    for row in rows:
        state = solver.evolve(state, int(row[0]) - previous)
        previous = int(row[0])
        for column, pair in ((2, state.u()), (3, state.v())):
            expected = float(np.max(np.abs(pair)))
            assert abs(float(row[column]) - expected) <= 1e-14 * expected


def test_identical_config_and_seed_reproduce_identical_bytes(tmp_path):
    args = ["residuals", "--seed", "11", "n=16", "steps=10", "sample_every=5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "residuals.csv").read_bytes() == (out_b / "residuals.csv").read_bytes()


def _recorded_mismatches(args, out):
    """Cells of the CSVs in out that differ from the recorded ones for this config.

    Headers and text must match exactly, numbers within RECORDED_RTOL
    relative plus RECORDED_ATOL absolute.
    """
    recorded = RECORDED_DIR / args[0]
    names = sorted(path.name for path in recorded.glob("*.csv"))
    written = sorted(path.name for path in out.glob("*.csv"))
    if names != written:
        return [f"CSV files {written} against recorded {names}"]
    mismatches = []
    for name in names:
        got, want = read_csv(out / name), read_csv(recorded / name)
        if len(got) != len(want) or got[:1] != want[:1]:
            mismatches.append(f"{name}: header or row count differs")
            continue
        for r, (row, expected) in enumerate(zip(got[1:], want[1:]), start=1):
            if len(row) != len(expected):
                mismatches.append(f"{name} row {r}: {len(row)} cells against {len(expected)}")
                continue
            for column, cell, cell_want in zip(want[0], row, expected):
                if cell == cell_want:
                    continue
                try:
                    gap, scale = abs(float(cell) - float(cell_want)), abs(float(cell_want))
                except ValueError:  # text
                    gap, scale = np.inf, 0.0
                if not gap <= RECORDED_RTOL * scale + RECORDED_ATOL:
                    mismatches.append(f"{name} row {r} {column}: {cell} against recorded {cell_want}")
    return mismatches


@pytest.mark.parametrize("args", RECORDED_CASES, ids=lambda args: args[0])
def test_every_command_reruns_to_identical_csv_bytes(tmp_path, args):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_case(args, out_a) == 0
    assert run_case(args, out_b) == 0
    names = sorted(path.name for path in out_a.glob("*.csv"))
    assert names and names == sorted(path.name for path in out_b.glob("*.csv"))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # tests/record_outputs.py re-records these after an intended move
    assert _recorded_mismatches(args, out_a) == []


def test_residuals_csv_columns_and_constraint_check(tmp_path):
    out = tmp_path / "run"
    assert main(["residuals", "--out", str(out), "n=16", "steps=10"]) == 0
    rows = read_csv(out / "residuals.csv")
    assert rows[0] == ["time", "lorenz", "row_phi", "row_a1", "row_a2"]
    assert all(float(row[1]) <= 1e-8 for row in rows[1:])


def test_verify_null_small_sweep(tmp_path):
    # seed 31 at the default null_samples draws nearly collinear pairs, on
    # which an angle that loses digits near 0 overshoots the symbol bound
    for seed, extra in (("0", ["null_samples=2000"]), ("31", [])):
        out = tmp_path / f"seed{seed}"
        assert main(["verify-null", "--out", str(out), "--seed", seed, *extra]) == 0
        env = dict(read_csv(out / "null_envelopes.csv")[1:])
        assert float(env["c_sym"]) <= 0.5 + 1e-9
        paths = read_csv(out / "null_paths.csv")
        assert paths[0] == ["path", "base_angle", "theta", "symbol_norm"]
        assert len(paths) == 1 + 10 * 11


def test_verify_null_fails_with_a_clamped_arccos_angle(tmp_path, monkeypatch):
    def clamped_arccos_angle(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        norms = np.hypot(a[..., 0], a[..., 1]) * np.hypot(b[..., 0], b[..., 1])
        return np.arccos(np.clip(np.sum(a * b, axis=-1) / norms, -1.0, 1.0))

    monkeypatch.setattr(null_geometry, "angle", clamped_arccos_angle)
    assert main(["verify-null", "--out", str(tmp_path / "run"), "--seed", "31"]) == 1


def test_verify_cone_default_run(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["verify-cone", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "plus_kernel_bound: PASS" in printed
    assert "minus_kernel_bound: PASS" in printed
    plus = read_csv(out / "cone_plus.csv")
    assert plus[0][0] == "tau_over_mag"
    values = [float(row[3]) for row in plus[1:]]
    assert all(v > 0 for v in values)
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["status"] == "0"


def test_cone_minus_csv_reports_quadrature_effort(tmp_path):
    out = tmp_path / "run"
    assert main(["verify-cone", "--out", str(out)]) == 0
    header, *rows = read_csv(out / "cone_minus.csv")
    assert header[-2:] == ["quadrature_points", "est_error"]
    for row in rows:
        # the near, far and unrestricted quadratures each start at 2048 points
        assert int(row[-2]) >= 3 * 2048
        assert 0.0 <= float(row[-1]) < np.inf


def test_verify_cone_fails_with_a_scaled_quadrature(tmp_path, capsys, scaled_quadrature):
    assert main(["verify-cone", "--out", str(tmp_path / "run")]) == 1
    printed = capsys.readouterr().out
    assert "plus_kernel_bound: FAIL" in printed
    assert "minus_kernel_bound: FAIL" in printed


def test_verify_norms_small_run(tmp_path):
    out = tmp_path / "run"
    assert main(["verify-norms", "--out", str(out), "--seed", "2", "n=16", "norm_tuples=3"]) == 0
    rows = read_csv(out / "norms.csv")
    assert rows[0][:4] == ["tuple", "p", "s", "b"]
    assert all(float(row[8]) <= 1e-6 for row in rows[1:])


def test_scaling_run_matches_expected_exponents(tmp_path):
    out = tmp_path / "run"
    assert main(["scaling", "--out", str(out), "n=16"]) == 0
    rows = read_csv(out / "scaling.csv")
    assert len(rows) == 7
    assert all(abs(float(row[5])) <= 1e-12 for row in rows[1:])


def test_scaling_fails_a_weight_exponent_off_by_1e_5(tmp_path, capsys, weight_exponent_off_by_1e_5):
    # the measured exponents move by about 1e-5, far above the check's 1e-12
    # and the recorded outputs' tolerance
    args = next(args for args in RECORDED_CASES if args[0] == "scaling")
    assert run_case(args, tmp_path) == 1
    assert "[scaling] scaling_exponent: FAIL (max exponent defect 1.000e-05)" in capsys.readouterr().out
    assert any(m.startswith("scaling.csv") for m in _recorded_mismatches(args, tmp_path))


def test_probe_bilinear_small_run(tmp_path):
    out = tmp_path / "run"
    status = main(
        ["probe-bilinear", "--out", str(out), "--seed", "3", "n=16", "probe_samples=2", "n_active=16"]
    )
    assert status == 0
    rows = read_csv(out / "probe.csv")
    assert rows[0] == ["eps", "p", "sign", "sample", "lhs", "rhs", "ratio"]
    assert len(rows) == 1 + 3 * 2 * 2
    assert all(float(row[6]) > 0 for row in rows[1:])


@pytest.mark.parametrize("command", ["simulate", "residuals"])
@pytest.mark.parametrize("n, threads", [(32, "1"), (128, "2")])
def test_engine_manifests_record_the_step_threads(tmp_path, command, n, threads):
    assert main([command, "--out", str(tmp_path), f"n={n}", "steps=2"]) == 0
    assert read_manifest(tmp_path / "manifest.txt")["engine_threads"] == threads


def test_manifest_records_versions_and_config_echo(tmp_path):
    out = tmp_path / "run"
    assert main(["scaling", "--out", str(out), "--seed", "6", "n=16"]) == 0
    manifest = read_manifest(out / "manifest.txt")
    for key in ("package_version", "numpy_version", "scipy_version", "python_version"):
        assert manifest[key]
    assert manifest["seed"] == "6"
    assert float(manifest["wall_time_s"]) >= 0.0
    assert manifest["check_scaling_exponent"].startswith("PASS")
