import ast
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import monopole_lab
from monopole_lab import null_geometry
from monopole_lab.cli import (
    COMMANDS,
    SCHEMA,
    UsageError,
    build_config,
    load_config,
    main,
    parse_overrides,
)


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
    assert main(["simulate", "--out", str(tmp_path / "a"), "n=7"]) == 2
    assert "power of two" in capsys.readouterr().err
    assert main(["simulate", "--out", str(tmp_path / "b"), "steps=soon"]) == 2
    assert "invalid value" in capsys.readouterr().err
    assert main(["simulate", "--out", str(tmp_path / "c"), "bogus=1"]) == 2
    assert "valid keys" in capsys.readouterr().err
    args = ["probe-bilinear", "--out", str(tmp_path / "d"), "n=64", "n_active=5000", "probe_samples=1"]
    assert main(args) == 2
    assert "cap is 4096" in capsys.readouterr().err


def _assert_usage_error_in_child(tmp_path, args, message):
    # in a child process under a timeout, so that a run that never ends
    # fails the test instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(monopole_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "monopole_lab.cli", *args, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "manifest.txt").exists()


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
def test_values_below_their_bound_exit_2(tmp_path, args, message):
    _assert_usage_error_in_child(tmp_path, [*args, "n=16"], message)


def test_probe_more_active_modes_than_band_slots_exits_2(tmp_path):
    # the default quarter band has 9 x 17 x 17 slots; placing more modes by
    # rejection used to never end
    _assert_usage_error_in_child(
        tmp_path, ["probe-bilinear", "n_active=3000", "probe_samples=1"],
        "n_active=3000 exceeds the 2601 slots",
    )



@pytest.mark.parametrize("command", ["simulate", "residuals"])
def test_data_on_the_nyquist_lines_exits_2(tmp_path, command):
    # n=8 is a valid grid, but the default kmax=5 reaches its Nyquist
    # lines, which the solver's entry refuses
    _assert_usage_error_in_child(tmp_path, [command, "n=8"], "kmax must be below n/2 = 4")

def test_unknown_flag_exits_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path), "--sed", "3"]) == 2
    assert "unrecognized" in capsys.readouterr().err


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


def test_identical_config_and_seed_reproduce_identical_bytes(tmp_path):
    args = ["residuals", "--seed", "11", "n=16", "steps=10", "sample_every=5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "residuals.csv").read_bytes() == (out_b / "residuals.csv").read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "n=16", "steps=10", "sample_every=5"],
        ["verify-null", "null_samples=2000"],
        ["verify-cone", "rtol=1e-3"],
        ["verify-norms", "n=16", "norm_tuples=2", "n_t=64"],
        ["scaling", "n=16"],
        ["probe-bilinear", "n=16", "probe_samples=2", "n_active=16"],
    ],
    ids=lambda args: args[0],
)
def test_every_command_reruns_to_identical_csv_bytes(tmp_path, args):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--seed", "11", "--out", str(out_a)]) == 0
    assert main([*args, "--seed", "11", "--out", str(out_b)]) == 0
    names = sorted(path.name for path in out_a.glob("*.csv"))
    assert names and names == sorted(path.name for path in out_b.glob("*.csv"))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


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
    assert all(abs(float(row[5])) <= 1e-3 for row in rows[1:])


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


def test_manifest_records_versions_and_config_echo(tmp_path):
    out = tmp_path / "run"
    assert main(["scaling", "--out", str(out), "--seed", "6", "n=16"]) == 0
    manifest = read_manifest(out / "manifest.txt")
    for key in ("package_version", "numpy_version", "scipy_version", "python_version"):
        assert manifest[key]
    assert manifest["seed"] == "6"
    assert float(manifest["wall_time_s"]) >= 0.0
    assert manifest["check_scaling_exponent"].startswith("PASS")
