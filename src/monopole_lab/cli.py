"""Batch driver for simulations and verification sweeps.

Configuration is a flat ``key = value`` text file with # comments.  CLI
``key=value`` arguments override file entries, and the dedicated flags
--seed and --out override both.  Each command's runner computes its
checks and its tables, one ``(header, rows)`` per CSV name, and writes
nothing; ``run`` alone, once the runner is done, creates the output
directory and writes the CSVs, a manifest echoing the resolved
configuration together with library versions and wall time, and a plot
script that consumes the CSVs.  A refused run thus makes no directory.  CSV
files are comma separated, UTF-8, LF line endings, with floats printed
via repr so identical (config, seed) pairs reproduce identical bytes.

Exit status 0 means every check of the run passed, 1 means a numerical
check failed, 2 means the configuration was unusable.
"""

import argparse
import csv
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from .cone_quadrature import (
    BOUND_RTOL,
    FROZEN_C_MINUS,
    FROZEN_C_PLUS,
    minus_kernel_sweep,
    plus_kernel_sweep,
    sweep_max,
)
from .diagonal_system import HalfWaveSolver, engine_threads, random_diagonal_state
from .errors import DivergedError
from .fl_norms import (
    NormParams,
    bilinear_sweep,
    check_active_modes,
    embedding_check,
    embedding_constant,
    homogeneous_factorization_check,
    scaling_check,
)
from .grid_spectral import GridSpec, random_band_limited
from .null_geometry import approach_defects, null_sweep

# key -> (parser, default, description, lower bound or None); one flat
# namespace for all commands
SCHEMA = {
    "n": (int, 32, "grid points per side, power of two", None),
    "length": (float, 2.0 * np.pi, "torus side length", None),
    "dt": (float, 1e-3, "time step", None),
    "seed": (int, 0, "random generator seed", 0),
    "out": (str, "runs", "output directory", None),
    "steps": (int, 200, "evolution steps", 0),
    "sample_every": (int, 10, "steps between recorded samples", 1),
    "amplitude": (float, 0.2, "amplitude of random initial data", None),
    "kmax": (float, 5.0, "band limit of random data", 1),
    "lorenz_tol": (float, 1e-8, "gauge constraint threshold", None),
    "null_samples": (int, 100000, "frequency pairs in the null sweep", 1),
    "rtol": (float, 1e-6, "cone quadrature tolerance", None),
    "norm_tuples": (int, 20, "factorization tuples to test", 1),
    "probe_samples": (int, 25, "bilinear probes per (eps, sign)", 1),
    "n_active": (int, 96, "active modes per probe factor", 1),
    "probe_n_t": (int, 16, "time lattice size of probe data", 1),
    "n_t": (int, 256, "time samples of windowed waves", 1),
    "t_window": (float, 2.0, "half width of the time window", None),
}


# narrowest and widest gaussian window that verify-norms draws
_WINDOW_WIDTHS = (0.1, 0.25)


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit status 2."""


class RunConfig:
    """Resolved flat configuration for one command."""

    def __init__(self, command, values):
        if command not in COMMANDS:
            raise UsageError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
        self.command = command
        for key, (_, default, _, _) in SCHEMA.items():
            setattr(self, key, values.get(key, default))

    def items(self):
        return [(key, getattr(self, key)) for key in SCHEMA]


def load_config(path):
    """Flat key = value file with # comments; returns raw string values."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path!r}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read config file {path!r}: {err}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        values[key] = raw
    return values


def _coerce(key, raw):
    if key not in SCHEMA:
        raise UsageError(
            f"unknown config key {key!r}; valid keys: {', '.join(sorted(SCHEMA))}"
        )
    parser, _, _, minimum = SCHEMA[key]
    value = raw
    if isinstance(raw, str):
        try:
            value = parser(raw)
        except ValueError:
            raise UsageError(f"invalid value for {key}: {raw!r}") from None
    if parser is float and not math.isfinite(value):
        raise UsageError(f"{key} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise UsageError(f"{key} must be at least {minimum}, got {value!r}")
    if key in ("lorenz_tol", "rtol", "t_window") and not value > 0.0:
        raise UsageError(f"{key} must be positive, got {value!r}")
    # far outside this range the norms' powers of 2 pi / length or pi / t_window overflow
    if key in ("length", "t_window") and not 1e-6 <= value <= 1e6:
        raise UsageError(f"{key} must lie in [1e-6, 1e6], got {value!r}")
    return value


def parse_overrides(pairs):
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"override must look like key=value, got {pair!r}")
        key, raw = (part.strip() for part in pair.split("=", 1))
        values[key] = raw
    return values


def build_config(command, file_values=None, overrides=None, seed=None, out=None):
    """Merge defaults < config file < key=value overrides < explicit flags."""
    merged = {}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            merged[key] = _coerce(key, raw)
    if seed is not None:
        merged["seed"] = _coerce("seed", int(seed))
    if out is not None:
        merged["out"] = str(out)
    return RunConfig(command, merged)


def _format_cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(value) for value in row])


def _dict_table(rows):
    """(header, rows) of dict rows, in the key order of the first row."""
    header = list(rows[0]) if rows else []
    return header, [[row[key] for key in header] for row in rows]


PLOT_TEMPLATE = '''"""Generated plot script; reads the run's CSVs and saves PNGs."""

import csv
import os

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))

for name in {csv_names!r}:
    with open(os.path.join(HERE, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    if not data:
        continue
    columns = list(zip(*data))
    try:
        x = [float(v) for v in columns[0]]
    except ValueError:
        x = list(range(len(data)))
    fig, ax = plt.subplots()
    for label, column in zip(header[1:], columns[1:]):
        try:
            ax.plot(x, [float(v) for v in column], label=label)
        except ValueError:
            continue
    ax.set_xlabel(header[0])
    ax.legend(fontsize="small")
    fig.savefig(os.path.join(HERE, name.replace(".csv", ".png")), dpi=120)
    plt.close(fig)
'''


def _write_plot_script(out_dir, csv_names):
    path = os.path.join(out_dir, "plot.py")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(PLOT_TEMPLATE.format(csv_names=list(csv_names)))


def _grid_from(config):
    try:
        return GridSpec(config.n, config.length, config.dt)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _initial_state(config, grid, rng):
    """Random su(2) data for the solver, which refuses data on the Nyquist lines."""
    if config.kmax >= grid.n_points // 2:
        raise UsageError(
            f"kmax must be below n/2 = {grid.n_points // 2}, got {config.kmax!r}: "
            "the solver refuses data on the Nyquist lines"
        )
    return random_diagonal_state(rng, grid, amplitude=config.amplitude, kmax=config.kmax)


def _run_simulate(config, grid, rng):
    solver = HalfWaveSolver(grid)
    samples = solver.samples(_initial_state(config, grid, rng), config.steps, config.sample_every)
    rows = []
    try:
        for step, spectra, products in samples:
            del products  # not kept through the steps that follow
            u, v = solver.pairs(spectra)
            rows.append((step, step * grid.dt, float(np.max(np.abs(u))), float(np.max(np.abs(v)))))
        checks = [("finite_evolution", True, f"max |u|, |v| = {max(rows[-1][2:]):.6e}")]
    except DivergedError as err:
        checks = [("finite_evolution", False, str(err))]
    return checks, {"simulate.csv": (("step", "time", "max_abs_u", "max_abs_v"), rows)}


def _run_residuals(config, grid, rng):
    state = _initial_state(config, grid, rng)
    header = ("time", "lorenz", "row_phi", "row_a1", "row_a2")
    try:
        state, record = HalfWaveSolver(grid).evolve_with_residuals(
            state, config.steps, sample_every=config.sample_every, rows=True
        )
    except DivergedError as err:
        return [("finite_evolution", False, str(err))], {"residuals.csv": (header, [])}
    worst = float(np.max(record.lorenz))
    peak = max(float(np.max(np.abs(pair))) for pair in (state.u(), state.v()))
    checks = [
        ("finite_evolution", True, f"max |u|, |v| = {peak:.6e}"),
        (
            "lorenz_constraint",
            worst <= config.lorenz_tol,
            f"max residual {worst:.3e} vs tolerance {config.lorenz_tol:.1e}",
        ),
    ]
    rows = [(t, lor, *row) for t, lor, row in zip(record.times, record.lorenz, record.rows)]
    return checks, {"residuals.csv": (header, rows)}


def _run_verify_null(config, grid, rng):
    env = null_sweep(rng, config.null_samples)
    thetas = 2.0 ** -np.arange(1, 12)
    path_rows = []
    worst_defect = 0.0
    for index in range(10):
        base = rng.uniform(0.0, 2.0 * np.pi)
        norms = approach_defects(base, thetas)
        worst_defect = max(worst_defect, float(np.max(norms / thetas)))
        path_rows.extend(
            (index, base, theta, norm) for theta, norm in zip(thetas, norms)
        )
    checks = [
        (
            "symbol_bound",
            np.isfinite(env["c_sym"]) and env["c_sym"] <= 0.5 + 1e-9,
            f"C_sym = {env['c_sym']:.9f}",
        ),
        (
            "angle_comparisons",
            all(np.isfinite(v) for v in env.values())
            and 1.0 <= env["ratio_minus_min"]
            and env["ratio_plus_max"] <= 2.25,
            f"plus in [{env['ratio_plus_min']:.4f}, {env['ratio_plus_max']:.4f}], "
            f"minus in [{env['ratio_minus_min']:.4f}, {env['ratio_minus_max']:.4f}]",
        ),
        (
            "collinear_vanishing",
            worst_defect <= 0.5 + 1e-6,
            f"max symbol_norm/theta = {worst_defect:.6f}",
        ),
    ]
    return checks, {
        "null_envelopes.csv": (("quantity", "value"), sorted(env.items())),
        "null_paths.csv": (("path", "base_angle", "theta", "symbol_norm"), path_rows),
    }


def _run_verify_cone(config, grid, rng):
    plus_rows = plus_kernel_sweep(rtol=config.rtol)
    minus_rows = minus_kernel_sweep(rtol=config.rtol)
    checks = [
        (
            f"{kind}_kernel_bound",
            abs(bound / frozen - 1.0) <= BOUND_RTOL,
            f"{label} = {bound:.9f} vs frozen {frozen:.9f}, rtol {BOUND_RTOL:.0e}",
        )
        for kind, label, bound, frozen in (
            ("plus", "C_I", sweep_max(plus_rows), FROZEN_C_PLUS),
            ("minus", "C_J", sweep_max(minus_rows), FROZEN_C_MINUS),
        )
    ]
    split = max(row["split_defect"] for row in minus_rows)
    checks.append(("near_far_split", split <= 1e-6, f"max split defect {split:.3e}"))
    return checks, {"cone_plus.csv": _dict_table(plus_rows), "cone_minus.csv": _dict_table(minus_rows)}


def _check_time_lattice(config):
    """Refuse a time lattice that cannot hold the widest window or resolve the narrowest.

    A gaussian of width w falls below e^-8 at 4 w, and its transform at 4 / w.
    """
    narrow, wide = _WINDOW_WIDTHS
    if config.t_window < 4.0 * wide:
        raise UsageError(
            f"t_window must be at least {4.0 * wide} (window width {wide}), got {config.t_window!r}"
        )
    edge = 2.0 * math.pi / config.length * min(config.kmax, config.n / 2) * math.sqrt(2.0)
    nyquist = math.pi * config.n_t / (2.0 * config.t_window)
    if edge + 4.0 / narrow > nyquist:
        raise UsageError(
            f"time lattice too coarse: band edge {edge:.4g} plus window spread {4.0 / narrow:.4g} "
            f"exceeds the tau Nyquist frequency pi n_t / (2 t_window) = {nyquist:.4g}"
        )


def _run_verify_norms(config, grid, rng):
    _check_time_lattice(config)
    rows = []
    worst_defect = 0.0
    worst_embed = 0.0
    for index in range(config.norm_tuples):
        params = NormParams.from_eps(float(rng.uniform(0.02, 0.25)))
        width = float(rng.uniform(*_WINDOW_WIDTHS))
        sign = 1 if rng.uniform() < 0.5 else -1
        field = random_band_limited(rng, grid, config.kmax, shape=())
        lhs, rhs, sample = homogeneous_factorization_check(
            field, width, grid, params, sign, t_window=config.t_window, n_t=config.n_t
        )
        defect = abs(lhs - rhs) / rhs
        worst_defect = max(worst_defect, defect)
        ratio = embedding_check(sample, grid, params, lhs)
        c_emb = embedding_constant(params.b, params.p)
        worst_embed = max(worst_embed, ratio / c_emb)
        rows.append(
            (index, params.p, params.s, params.b, width, sign, lhs, rhs, defect, ratio, c_emb)
        )
    checks = [
        (
            "factorization_identity",
            worst_defect <= 1e-6,
            f"max relative defect {worst_defect:.3e}",
        ),
        ("embedding_bound", worst_embed <= 1.0, f"max embed_ratio / c_emb {worst_embed:.6f}"),
    ]
    header = ("tuple", "p", "s", "b", "width", "sign", "lhs", "rhs", "defect", "embed_ratio", "c_emb")
    return checks, {"norms.csv": (header, rows)}


def _run_scaling(config, grid, rng):
    rows = []
    worst = 0.0
    for p, s in ((2.0, 1.0), (4.0 / 3.0, 3.0 / 4.0), (8.0 / 7.0, 7.0 / 8.0)):
        field = random_band_limited(rng, grid, config.kmax, shape=())
        for lam in (2.0, 4.0):
            measured = scaling_check(field, grid, lam, s, p)
            expected = s + 1.0 - 2.0 / p
            worst = max(worst, abs(measured - expected))
            rows.append((p, s, lam, measured, expected, measured - expected))
    checks = [("scaling_exponent", worst <= 1e-12, f"max exponent defect {worst:.3e}")]
    return checks, {"scaling.csv": (("p", "s", "lam", "measured", "expected", "defect"), rows)}


def _run_probe_bilinear(config, grid, rng):
    try:
        check_active_modes(grid, config.probe_n_t, config.n_active)
    except ValueError as err:
        raise UsageError(str(err)) from None
    rows = bilinear_sweep(
        rng,
        grid,
        (1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0),
        n_samples=config.probe_samples,
        n_active=config.n_active,
        n_t=config.probe_n_t,
        t_window=config.t_window,
    )
    ratios = np.array([row["ratio"] for row in rows])
    checks = [
        (
            "probe_ratios",
            bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0.0)),
            f"max ratio {ratios.max():.6f} over {ratios.size} probes",
        )
    ]
    return checks, {"probe.csv": _dict_table(rows)}


_RUNNERS = {
    "simulate": _run_simulate,
    "residuals": _run_residuals,
    "verify-null": _run_verify_null,
    "verify-cone": _run_verify_cone,
    "verify-norms": _run_verify_norms,
    "scaling": _run_scaling,
    "probe-bilinear": _run_probe_bilinear,
}
COMMANDS = tuple(_RUNNERS)


def _write_manifest(out_dir, config, grid, checks, wall_time, status):
    from . import __version__

    path = os.path.join(out_dir, "manifest.txt")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"command = {config.command}\n")
        for key, value in config.items():
            fh.write(f"{key} = {_format_cell(value)}\n")
        fh.write(f"package_version = {__version__}\n")
        fh.write(f"numpy_version = {np.__version__}\n")
        fh.write(f"scipy_version = {scipy.__version__}\n")
        fh.write(f"python_version = {platform.python_version()}\n")
        fh.write(f"wall_time_s = {wall_time:.3f}\n")
        if config.command in ("simulate", "residuals"):
            fh.write(f"engine_threads = {engine_threads(grid)}\n")
        for name, passed, detail in checks:
            fh.write(f"check_{name} = {'PASS' if passed else 'FAIL'} ({detail})\n")
        fh.write(f"status = {status}\n")


def run(config):
    """Execute one command; returns the exit status and writes artifacts.

    The runner computes first and the output directory is made after it,
    so a refused run makes none and an unusable --out is reported last.
    """
    started = time.perf_counter()
    grid = _grid_from(config)
    rng = np.random.default_rng(config.seed)
    try:
        checks, tables = _RUNNERS[config.command](config, grid, rng)
    except MemoryError as err:
        raise UsageError(f"{config.command} does not fit in memory: {err}") from None
    out_dir = config.out
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot use output directory {out_dir!r}: {err.strerror}") from None
    status = 0 if all(passed for _, passed, _ in checks) else 1
    try:
        for name, (header, rows) in tables.items():
            _write_csv(os.path.join(out_dir, name), header, rows)
        _write_plot_script(out_dir, tables)
        _write_manifest(out_dir, config, grid, checks, time.perf_counter() - started, status)
    except OSError as err:
        raise UsageError(f"cannot write {err.filename or out_dir!r}: {err.strerror}") from None
    for name, passed, detail in checks:
        print(f"[{config.command}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="monopole-lab",
        description="Simulation and verification sweeps for the planar gauge system.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, help="override the seed")
    parser.add_argument("--out", help="override the output directory")
    # key=value overrides may appear anywhere after the command, so the
    # leftovers of parse_known_args play the role of a positional list
    args, overrides = parser.parse_known_args(argv)
    try:
        for item in overrides:
            if item.startswith("-"):
                raise UsageError(f"unrecognized argument {item!r}")
        file_values = load_config(args.config) if args.config is not None else {}
        config = build_config(
            args.command,
            file_values=file_values,
            overrides=parse_overrides(overrides),
            seed=args.seed,
            out=args.out,
        )
        return run(config)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
