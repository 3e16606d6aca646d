"""Trajectory diagnostics: zig-zag energy, rate-bound curves, slope fits,
and the scalar lower-bound probe.
"""

from __future__ import annotations

import math

import numpy as np

from .tableau import ConfigError, _check_c

__all__ = [
    "zigzag_energy",
    "check_zigzag_settings",
    "zigzag_protocol",
    "continuous_bound",
    "schedule_bound",
    "slope_fit",
    "lower_bound_probe",
]


def zigzag_energy(points) -> float:
    """Mean orthogonal deviation of step directions from the window direction.

    Given W+1 consecutive iterates, let d_bar be the net displacement and
    d_i the per-step directions. The energy is
    (1/(W-1)) * sum over interior steps of ||(I - d_bar d_bar^T / ||d_bar||^2) d_i||,
    i.e. the mean length of each direction's component orthogonal to d_bar.
    The projector normalizes by the squared norm so that it is idempotent.
    Zero iff every step is parallel to the net direction; a stalled window
    (d_bar = 0) is defined to have energy 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 3:
        raise ValueError("zigzag energy needs at least 3 points (W >= 2)")
    W = pts.shape[0] - 1
    d_bar = pts[-1] - pts[0]
    nn = float(d_bar @ d_bar)
    if nn == 0.0:
        return 0.0
    total = 0.0
    for i in range(1, W):
        d = pts[i + 1] - pts[i]
        ortho = d - (d @ d_bar) / nn * d_bar
        total += math.sqrt(ortho @ ortho)
    return total / (W - 1)


def check_zigzag_settings(W: int, T: float, steps: float) -> int:
    """The number of W-step windows in round(steps) steps, T/delta or fewer if the run stops first.

    Raises ConfigError unless W >= 2, the time span T > 0 is finite and one window fits.
    """
    if W < 2:
        raise ConfigError("window size W must be >= 2")
    if not 0 < T < math.inf:  # false for nan too
        raise ConfigError(f"time span T must be positive and finite, got {T}")
    n = round(steps)
    if n < W:
        raise ConfigError(f"a run of {n} steps over T = {T:g} is shorter than one window W = {W}")
    return n // W


def zigzag_protocol(traj, W: int, T: float) -> np.ndarray:
    """Windowed zig-zag measurement: the per-window energies, whose mean is the energy.

    The first T/delta steps are divided into consecutive non-overlapping
    windows of W steps each (anchored at k = 0); each window contributes one
    zigzag_energy value. A bad W or T, or a trajectory shorter than one
    window, raises ConfigError.
    """
    n_windows = check_zigzag_settings(W, T, min(T / traj.delta, len(traj) - 1))
    return np.array([zigzag_energy(traj.x[w * W : w * W + W + 1]) for w in range(n_windows)])


def continuous_bound(c: float, t: float) -> float:
    """Normalized error bound (c/(c+t))^c of the continuous flow.

    Raises ConfigError unless c >= 1 and t >= 0, both finite.
    """
    _check_c(c)
    if not 0 <= t < math.inf:  # false for nan too
        raise ConfigError(f"time must be >= 0 and finite, got {t}")
    return (c / (c + t)) ** c


def schedule_bound(gamma, t: float) -> float:
    """Normalized error bound exp(-integral of gamma over [0, t]).

    For gamma(t) = c/(c+t) this equals continuous_bound(c, t). Raises
    ValueError unless t >= 0 is finite.
    """
    if not 0 <= t < math.inf:  # false for nan too
        raise ValueError(f"time t must be >= 0 and finite, got {t}")
    from scipy.integrate import quad  # only fwflow bound needs it, and it loads slowly
    integral, _ = quad(gamma, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
    if not np.isfinite(integral):
        raise ValueError("schedule integral is non-finite")
    return float(np.exp(-integral))


def slope_fit(traj, f_star: float, k_min: int) -> float:
    """Least-squares slope of log(f - f*) against log k over k >= k_min.

    A slope near -p indicates O(1/k^p) decay of the objective error.
    """
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    ks, fs = traj.k, traj.f
    mask = (ks >= k_min) & (fs > f_star)
    if mask.sum() < 10:
        raise ValueError("fewer than 10 usable points for the slope fit")
    logk = np.log(ks[mask].astype(float))
    logh = np.log(fs[mask] - f_star)
    slope, _ = np.polyfit(logk, logh, 1)
    return float(slope)


def lower_bound_probe(traj, anchor_ks) -> list:
    """Tail-suprema probe k * sup_{k' >= k} |x^(k')| at each anchor k.

    Values bounded away from zero across growing anchors certify that the
    iterates decay no faster than 1/k.
    """
    xs, ks = traj.x, traj.k
    if xs.ndim != 2 or xs.shape[1] != 1:
        raise ValueError("lower-bound probe requires a scalar trajectory")
    absx = np.abs(xs[:, 0])
    # running suffix maximum: tail_sup[i] = max(absx[i:])
    tail_sup = np.maximum.accumulate(absx[::-1])[::-1]
    out = []
    for k in anchor_ks:
        idx = np.searchsorted(ks, k)
        if idx >= ks.shape[0] or ks[idx] != k:
            raise ValueError(f"anchor {k} is outside the trajectory range")
        out.append(float(k * tail_sup[idx]))
    return out
