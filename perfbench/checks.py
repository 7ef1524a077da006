"""Correctness checks on the benchmark's outputs, computed apart from the program.

Every check returns a dict ``{name: (ok, measured value)}``.  The basis, the
Gauss-Legendre rule, the decay rates and the initial energy are rebuilt here
from their closed forms with numpy/scipy only; the checks read the program's
outputs (coefficients, node series, reports, written files) and nothing else.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import quad


def eigenvalue(j: int, l: float) -> float:
    return (math.pi * j / (2.0 * l)) ** 2


def basis_slopes(x: np.ndarray, modes: int, l: float) -> np.ndarray:
    """Derivatives e_j'(x) of the Neumann cosine eigenfunctions, shape (len(x), modes+1).

    e_j = cos(k_j x + pi j / 2) / sqrt(l) with k_j = pi j / (2 l); e_0' = 0.
    """
    k = math.pi * np.arange(modes + 1) / (2.0 * l)
    return -k * np.sin(np.outer(x, k) + 0.5 * math.pi * np.arange(modes + 1)) / math.sqrt(l)


def gauss_rule(nodes: int, l: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return l * x, l * w


def _energy_monotone(E: np.ndarray) -> tuple[bool, float]:
    rise = float(np.max(np.diff(E))) if E.size > 1 else 0.0
    return rise <= 1e-12 * abs(float(E[0])), rise


def _mass_drift(c0: np.ndarray) -> tuple[bool, float]:
    drift = float(np.max(np.abs(c0 - c0[0])) / abs(c0[0]))
    return drift <= 1e-10, drift


def check_flat_film(result, l: float, delta: float) -> dict:
    """Criterion 7: relaxation to the flat state, mass kept, energy not rising."""
    final = result.coeffs[-1]
    dev = final.copy()
    dev[0] -= result.coeffs[0][0]
    u_resid = float(np.sqrt(np.sum(dev ** 2)))
    modes = final.size - 1
    x, w = gauss_rule(8 * (modes + 1), l)
    Ex = basis_slopes(x, modes, l)
    ux = Ex @ final
    d = Ex.T @ (w * (ux / np.sqrt(1.0 + ux * ux) + delta * ux))
    p_resid = float(np.sqrt(np.sum(d ** 2)))
    return {
        "u_residual": (u_resid <= 1e-5, u_resid),
        "p_residual": (p_resid <= 1e-5, p_resid),
        "mass_drift": _mass_drift(result.coeffs[:, 0]),
        "energy_monotone": _energy_monotone(result.nodes.energy),
    }


def check_decay(result, coeffs: list, mu: float, delta: float, l: float) -> dict:
    """Criterion 3: constant-mobility modes decay as c_j exp(-mu (1+delta) lam_j^2 t)."""
    out = {}
    times = result.snapshot_times
    worst = 0.0
    for j in (1, 2, 3):
        rate = mu * (1.0 + delta) * eigenvalue(j, l) ** 2
        t_j = math.log(10.0) / rate
        i = int(np.argmin(np.abs(times - t_j)))
        expect = coeffs[j] * math.exp(-rate * times[i])
        worst = max(worst, abs(result.coeffs[i][j] - expect) / abs(expect))
    out["decay_amplitudes"] = (worst <= 1e-6, worst)
    out["mass_drift"] = _mass_drift(result.coeffs[:, 0])
    return out


def droplet_energy(floor: float, amp: float, power: int, delta: float, l: float) -> float:
    """E(0) = int sqrt(1 + u0'^2) + (delta/2) u0'^2 of the droplet, by adaptive quadrature."""
    del floor  # the constant floor does not enter the slope
    k = math.pi / (2.0 * l)

    def slope(x):
        th = k * x
        return -amp * 2 * power * math.cos(th) ** (2 * power - 1) * math.sin(th) * k

    val, _ = quad(lambda x: math.sqrt(1.0 + slope(x) ** 2) + 0.5 * delta * slope(x) ** 2,
                  -l, l, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def check_eps_sweep(report: dict, values: tuple, E0: float, sup_u0: float) -> dict:
    """Criteria 5 and 2 on the sweep: nonnegativity at the smallest epsilon, E(0) kept."""
    members = report["members"]
    out = {"members_complete": (len(members) == len(values), float(len(members)))}
    worst = max((abs(m["maxima"]["energy_max"] - E0) / E0 for m in members), default=math.inf)
    out["energy_max_vs_E0"] = (worst <= 1e-6, worst)
    smallest = int(np.argmin(values))
    min_u = members[smallest]["maxima"]["min_u"] if len(members) == len(values) else -math.inf
    out["nonnegative_smallest_eps"] = (min_u >= -1e-8 * sup_u0, min_u)
    return out


def check_dense_artifacts(outdir: Path, snapshots: int, initial_mass: float,
                          modes: int, oversample: int, l: float) -> dict:
    """Recompute mass and int Q from every written snapshot with our own rule."""
    x_ref, w = gauss_rule(oversample * (modes + 1), l)
    series = np.loadtxt(outdir / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    header = (outdir / "series.csv").read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    es = series[:, header.index("energy_surface")]
    energy = es + series[:, header.index("energy_delta")]
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    names = summary["snapshots"]
    files_ok = (len(names) == snapshots and series.shape[0] == snapshots
                and all((outdir / f"snap_{i}.csv").is_file() for i in range(snapshots)))
    out = {"snapshot_count": (files_ok, float(len(names)))}
    mass_err = q_err = x_err = 0.0
    count = min(snapshots, series.shape[0])
    for i in range(count):
        path = outdir / f"snap_{i}.csv"
        if not path.is_file():
            mass_err = q_err = math.inf
            break
        snap = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if snap.shape != (x_ref.size, 6):
            x_err = math.inf
            break
        x_err = max(x_err, float(np.max(np.abs(snap[:, 0] - x_ref))))
        mass_err = max(mass_err, abs(float(np.dot(w, snap[:, 1])) - initial_mass) / abs(initial_mass))
        q_err = max(q_err, abs(float(np.dot(w, snap[:, 5])) - es[i]) / abs(es[i]))
    out["grid_nodes"] = (x_err <= 1e-14 * l, x_err)
    out["mass_from_snapshots"] = (mass_err <= 1e-10, mass_err)
    out["surface_energy_from_snapshots"] = (q_err <= 1e-12, q_err)
    out["energy_monotone"] = _energy_monotone(energy)
    return out
