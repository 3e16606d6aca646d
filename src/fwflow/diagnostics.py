"""Trajectory diagnostics: zig-zag energy, rate-bound curves, slope fits,
and the scalar lower-bound probe.
"""

from __future__ import annotations

import math

import numpy as np

from .tableau import ConfigError, _number

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
    nn = float(d_bar.dot(d_bar))
    if nn == 0.0:
        return 0.0
    total = 0.0
    for i in range(1, W):
        d = pts[i + 1] - pts[i]
        ortho = d - d.dot(d_bar) / nn * d_bar
        total += math.sqrt(ortho.dot(ortho))
    return total / (W - 1)


def check_zigzag_settings(W: int, T: float, steps: float = math.inf, delta: float = 1.0) -> tuple:
    """(int W, the number of W-step windows in a run of round(min(T / delta, steps)) steps).

    Raises ConfigError unless the integer W >= 2, the time span T > 0 is finite and one window fits.
    """
    W, T = _number(int, W, "window size W", 2), _number(float, T, "time span T", positive=True)
    if not (steps := min(T / delta, steps)) < math.inf:  # T / delta can overflow
        raise ConfigError(f"time span T = {T:g} makes T / delta = {steps} steps, must be finite")
    n = round(steps)
    if n < W:
        raise ConfigError(f"a run of {n} steps over T = {T:g} is shorter than one window W = {W}")
    return W, n // W


def zigzag_protocol(traj, W: int, T: float) -> np.ndarray:
    """Windowed zig-zag measurement: the per-window energies, whose mean is the energy.

    The first T/delta steps are divided into consecutive non-overlapping
    windows of W steps each (anchored at k = 0); each window contributes one
    zigzag_energy value. A bad W or T, or a trajectory shorter than one
    window, raises ConfigError.
    """
    W, n_windows = check_zigzag_settings(W, T, len(traj) - 1, traj.delta)
    return np.array([zigzag_energy(traj.x[w * W : w * W + W + 1]) for w in range(n_windows)])


def continuous_bound(c: float, t):
    """Normalized error bound (c/(c+t))^c of the continuous flow at t, or a list at each time in t.

    Raises ConfigError unless c >= 1 and each time t >= 0, all finite numbers (a scalar by _number).
    """
    c = _number(float, c, "schedule constant c", 1)
    cells = t if isinstance(t, np.ndarray) else np.array(t, dtype=object)  # a ragged row is a cell
    if cells.ndim == 0:
        return (c / (c + _number(float, t, "time", 0))) ** c
    times = cells.ravel()
    if cells is not t:  # a sequence, cell by cell, as numpy reads True as 1.0 among numbers
        for bad in (u for u in times.tolist()
                    if type(u) is bool or not isinstance(u, (int, float, np.number))):
            raise ConfigError(f"time must be a number, got {bad!r}")
        times = np.array(times.tolist())  # the checked numbers as numpy reads them
    if times.dtype.kind not in "iuf":  # once per call: a bool, str, None or other object
        bad = next((u for u in times.tolist() if type(u) not in (int, float)), t)
        raise ConfigError(f"time must be a number, got {bad!r}")
    times = times.astype(float, copy=False).tolist()  # Python floats: numpy's ** moves bits
    for bad in (u for u in times if not 0 <= u < math.inf):  # true for nan too
        raise ConfigError(f"time must be >= 0 and finite, got {bad}")
    return [(c / (c + u)) ** c for u in times]


def schedule_bound(gamma, t: float) -> float:
    """Normalized error bound exp(-integral of gamma over [0, t]).

    For gamma(t) = c/(c+t) this equals continuous_bound(c, t). Raises
    ValueError unless t >= 0 is finite and the integral is finite and converges.
    """
    t = _number(float, t, "time t", 0)
    from scipy.integrate import quad  # only fwflow bound needs it, and it loads slowly
    # full_output returns quad's warning as a fourth item instead of issuing it
    integral, _, _, *trouble = quad(gamma, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200,
                                    full_output=1)
    if trouble or not np.isfinite(integral):
        raise ValueError(f"schedule integral to t = {t} is non-finite or did not converge")
    return float(np.exp(-integral))


def slope_fit(traj, f_star: float, k_min: int) -> float:
    """Least-squares slope of log(f - f*) against log k over k >= k_min.

    A slope near -p indicates O(1/k^p) decay of the objective error.
    """
    k_min = _number(int, k_min, "k_min", 1)
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
