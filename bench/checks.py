"""Output checks of the benchmark workloads, computed apart from the program.

Every check returns a list of ``(name, passed, detail)`` triples.  The
quantities are recomputed here with numpy/scipy from the raw outputs (the
evolved fields, the CSV columns), or are properties the method must have
(a 4th-order constraint on the trajectory, an empty dealiasing band,
scale invariance along rays), never a stored copy of earlier output.
"""

import csv
import math
import os

import numpy as np
from scipy.integrate import quad

LORENZ_TOL = 1e-8
DEALIAS_LEAK_TOL = 1e-10
ROWS_RTOL = 1e-8
FACTORIZATION_TOL = 1e-6
C_EMB_RTOL = 1e-8
# small angles lose a few digits in the program's theta, so the angle
# bounds carry a 1e-6 relative slack
ANGLE_SLACK = 1e-6
SYMBOL_ATOL = 1e-12
SCALING_TOL = 1e-9
RAY_RTOL = 1e-5
CONE_QUAD_RTOL = 1e-5
SPLIT_TOL = 1e-6
PROBE_RTOL = 1e-12

# (tau/|xi|, |xi|, p) of the sweep rows recomputed by adaptive quadrature
PLUS_QUAD_PROBES = ((1.1, 1.0, 1.5), (2.0, 1.0, 1.5), (10.0, 1.0, 1.5))
MINUS_QUAD_PROBES = ((-0.5, 1.0, 1.5), (0.0, 1.0, 1.5), (0.5, 1.0, 1.5), (0.9, 1.0, 1.5))


def _sup_frobenius(field):
    """Largest pointwise Frobenius norm of a (N, N, n, n) field."""
    return float(np.max(np.sqrt(np.sum(np.abs(field) ** 2, axis=(-2, -1)))))


def _wavenumbers(n, length):
    return 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)


def _fields(pair_u, pair_v):
    """(a0, a1, a2) from the characteristic pairs u = (a0+a1, phi+a2), v = (a0-a1, phi-a2)."""
    return 0.5 * (pair_u[0] + pair_v[0]), 0.5 * (pair_u[0] - pair_v[0]), 0.5 * (pair_u[1] - pair_v[1])


def lorenz_on_trajectory(states, h, length):
    """dt a0 - d1 a1 - d2 a2 at the middle of five states spaced h apart.

    dt a0 comes from the 5-point central stencil, the divergence from a
    spectral derivative taken here; the residual is 4th order in h, so a
    wrong step or a broken stepper shows far above LORENZ_TOL.
    """
    if len(states) != 5:
        raise ValueError(f"need 5 consecutive states, got {len(states)}")
    a0 = [_fields(s.u(), s.v())[0] for s in states]
    dt_a0 = (a0[0] - 8.0 * a0[1] + 8.0 * a0[3] - a0[4]) / (12.0 * h)
    _, a1, a2 = _fields(states[2].u(), states[2].v())
    k = _wavenumbers(a1.shape[0], length)
    d1a1 = np.fft.ifft2(1j * k[:, None, None, None] * np.fft.fft2(a1, axes=(0, 1)), axes=(0, 1))
    d2a2 = np.fft.ifft2(1j * k[None, :, None, None] * np.fft.fft2(a2, axes=(0, 1)), axes=(0, 1))
    worst = _sup_frobenius(dt_a0 - d1a1 - d2a2)
    return [("lorenz_trajectory", worst <= LORENZ_TOL, f"max residual {worst:.3e} vs {LORENZ_TOL:.0e}")]


def dealias_leak(state):
    """Spectral content outside the 2/3 mask relative to the content inside it.

    Band-limited data, exact linear phases and a masked nonlinearity keep
    every mode with |k_index| > N/3 at rounding level.
    """
    worst = 0.0
    for pair in (state.u(), state.v()):
        n = pair.shape[1]
        hat = np.abs(np.fft.fft2(pair, axes=(1, 2)))
        keep_1d = np.abs(np.rint(np.fft.fftfreq(n) * n)) <= n // 3
        keep = np.logical_and.outer(keep_1d, keep_1d)
        inside = float(np.max(hat[:, keep]))
        outside = float(np.max(hat[:, ~keep]))
        worst = max(worst, outside / inside)
    return [("dealias_band", worst <= DEALIAS_LEAK_TOL, f"outside/inside {worst:.3e} vs {DEALIAS_LEAK_TOL:.0e}")]


def residual_rows_match(last_row, dual_residuals):
    """The last sampled evolution-row residuals against the F - *D phi oracle."""
    dual = np.array([_sup_frobenius(r) for r in dual_residuals])
    row = np.asarray(last_row, dtype=float)
    scale = float(np.max(np.abs(dual)))
    diff = float(np.max(np.abs(row - dual)))
    ok = row.shape == dual.shape and diff <= ROWS_RTOL * scale
    return [("residual_rows", bool(ok), f"max |row - dual| {diff:.3e} vs {ROWS_RTOL:.0e} * {scale:.3e}")]


# -- verify sweeps --------------------------------------------------------------


def embedding_constant_quad(b, p):
    """(integral of <sigma>^{-pb} over the line)^{1/p} by adaptive quadrature."""
    value, _ = quad(lambda s: (1.0 + s * s) ** (-0.5 * p * b), -np.inf, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value ** (1.0 / p)


def check_norms(rows):
    worst_defect, worst_c, embed_ok = 0.0, 0.0, True
    for row in rows:
        defect = abs(row["lhs"] - row["rhs"]) / row["rhs"]
        worst_defect = max(worst_defect, defect, row["defect"])
        c_emb = embedding_constant_quad(row["b"], row["p"])
        worst_c = max(worst_c, abs(row["c_emb"] - c_emb) / c_emb)
        embed_ok = embed_ok and 0.0 <= row["embed_ratio"] <= c_emb
    return [
        ("factorization", bool(rows) and worst_defect <= FACTORIZATION_TOL, f"max |lhs - rhs| / rhs {worst_defect:.3e}"),
        ("c_emb", bool(rows) and worst_c <= C_EMB_RTOL, f"max relative c_emb defect {worst_c:.3e}"),
        ("embedding_bound", bool(rows) and embed_ok, "embed_ratio within [0, c_emb]"),
    ]


def check_null(envelope_rows, path_rows):
    """C_sym <= 1/2 and, on each collinear path, symbol_norm = sin(theta/2) <= theta/2.

    P(-, zeta) and P(+, eta) are rank-one projections whose ranges meet at
    half the angle between zeta and eta, so the norm of their product is
    |sin(theta/2)| in closed form.
    """
    c_sym = [row["value"] for row in envelope_rows if row.get("quantity") == "c_sym"]
    worst_gap, bound_ok = 0.0, bool(path_rows)
    for row in path_rows:
        theta, norm = row["theta"], row["symbol_norm"]
        worst_gap = max(worst_gap, abs(norm - abs(math.sin(0.5 * theta))))
        bound_ok = bound_ok and norm <= 0.5 * theta * (1.0 + ANGLE_SLACK)
    return [
        ("c_sym", len(c_sym) == 1 and c_sym[0] <= 0.5 * (1.0 + ANGLE_SLACK), f"C_sym = {c_sym}"),
        ("symbol_norm", bound_ok and worst_gap <= SYMBOL_ATOL, f"max |norm - sin(theta/2)| {worst_gap:.3e}"),
    ]


def check_scaling(rows):
    worst = max((abs(row["measured"] - (row["s"] + 1.0 - 2.0 / row["p"])) for row in rows), default=math.inf)
    return [("scaling_exponent", worst <= SCALING_TOL, f"max |measured - (s + 1 - 2/p)| {worst:.3e}")]


def _ray_spread(rows, key):
    rays = {}
    for row in rows:
        rays.setdefault((row["tau_over_mag"], row["p"]), []).append(row[key])
    return max((max(v) - min(v)) / abs(np.mean(v)) for v in rays.values())


def _plus_surface_integral(tau, mag, p):
    """Ellipse |eta| + |xi - eta| = tau with xi = (mag, 0), by arc length.

    eta = (mag/2 + A cos t, B sin t) and the delta contributes ds / |grad g|.
    """
    a_semi = 0.5 * tau
    b_semi = math.sqrt(a_semi**2 - (0.5 * mag) ** 2)

    def integrand(t):
        x, y = 0.5 * mag + a_semi * math.cos(t), b_semi * math.sin(t)
        r1, r2 = math.hypot(x, y), math.hypot(x - mag, y)
        grad = math.hypot(x / r1 + (x - mag) / r2, y / r1 + y / r2)
        ds = math.hypot(a_semi * math.sin(t), b_semi * math.cos(t))
        return ds / (grad * r1 * r2 ** (1.0 + 0.5 * p))

    value, _ = quad(integrand, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=1e-11, limit=400)
    return value


def _minus_surface_integral(tau, mag, p):
    """Branch |eta| - |xi - eta| = tau with xi = (mag, 0), parametrised by y."""
    a, c = 0.5 * tau, 0.5 * mag
    b = math.sqrt(c * c - a * a)

    def integrand(y):
        root = math.sqrt(1.0 + (y / b) ** 2)
        x = c + a * root
        r1, r2 = math.hypot(x, y), math.hypot(x - mag, y)
        grad = math.hypot(x / r1 - (x - mag) / r2, y / r1 - y / r2)
        ds = math.hypot(1.0, a * y / (b * b * root))
        return ds / (grad * (r1 * r2) ** (1.0 + 0.5 * p))

    value = 0.0
    for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)):
        part, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=400)
        value += part
    return value


def _find(rows, ratio, mag, p):
    hits = [r for r in rows if (r["tau_over_mag"], r["mag"], r["p"]) == (ratio, mag, p)]
    return hits[0] if len(hits) == 1 else None


def check_cone(plus_rows, minus_rows):
    split = max((row["split_defect"] for row in minus_rows), default=math.inf)
    ray = max(_ray_spread(plus_rows, "closed_form_ratio"), _ray_spread(minus_rows, "near_closed_form_ratio"))
    worst, missing = 0.0, 0
    for ratio, mag, p in PLUS_QUAD_PROBES:
        row = _find(plus_rows, ratio, mag, p)
        if row is None:
            missing += 1
            continue
        tau = ratio * mag
        expected = mag * (tau - mag) ** (0.5 * p) * _plus_surface_integral(tau, mag, p)
        worst = max(worst, abs(row["value"] - expected) / expected)
    for ratio, mag, p in MINUS_QUAD_PROBES:
        row = _find(minus_rows, ratio, mag, p)
        if row is None:
            missing += 1
            continue
        tau = ratio * mag
        prefactor = mag ** (1.0 + 0.5 * p) * abs(mag - abs(tau)) ** (0.5 * p)
        expected = prefactor * _minus_surface_integral(tau, mag, p)
        worst = max(worst, abs(row["value"] - expected) / expected)
    return [
        ("cone_split", split <= SPLIT_TOL, f"max split defect {split:.3e}"),
        ("cone_rays", ray <= RAY_RTOL, f"max relative spread along a ray {ray:.3e}"),
        ("cone_quad", missing == 0 and worst <= CONE_QUAD_RTOL, f"max relative gap to quad {worst:.3e}, {missing} probes missing"),
    ]


def check_probe(rows):
    ok = bool(rows)
    worst = 0.0
    for row in rows:
        ok = ok and row["lhs"] > 0.0 and row["rhs"] > 0.0 and math.isfinite(row["ratio"])
        if ok:
            worst = max(worst, abs(row["ratio"] - row["lhs"] / row["rhs"]) / row["ratio"])
    return [("probe_ratio", ok and worst <= PROBE_RTOL, f"max |ratio - lhs/rhs| / ratio {worst:.3e}")]


def _rows(out_dir, command, name):
    """Rows of one CSV of a command, numeric columns as float; the quantity column stays text."""
    with open(os.path.join(out_dir, command, name), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = float(value)
            except ValueError:
                parsed[key] = value
        out.append(parsed)
    return out


def check_null_outputs(out_dir):
    """Checks of a verify-null run, from the CSVs under out_dir/verify-null/."""
    return check_null(
        _rows(out_dir, "verify-null", "null_envelopes.csv"), _rows(out_dir, "verify-null", "null_paths.csv")
    )


def check_pass_outputs(out_dir):
    """Checks of one pass over the other sweeps, from the CSVs under out_dir/<command>/."""
    return (
        check_cone(_rows(out_dir, "verify-cone", "cone_plus.csv"), _rows(out_dir, "verify-cone", "cone_minus.csv"))
        + check_norms(_rows(out_dir, "verify-norms", "norms.csv"))
        + check_scaling(_rows(out_dir, "scaling", "scaling.csv"))
        + check_probe(_rows(out_dir, "probe-bilinear", "probe.csv"))
    )
