"""Iteration schemes: Frank-Wolfe, flow discretization, Runge-Kutta multistep,
line-search and momentum variants, plus the driver loop.

Every update is the mix x + coefficient * (target - x), written once in
``_mix``. FW, the flow and the Runge-Kutta methods are one ``step``: a
tableau's stage loop ``_stages`` run from time t with the one schedule rule
``tableau._gammas``. The flow is the Euler tableau from t = 0, FW is the flow
at delta = 1, and ``run`` takes their one-stage step as a single ``_mix``,
bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import _check_vector
from .tableau import ConfigError, Tableau, _check_c, _gammas, validate

__all__ = [
    "StepSchedule",
    "Trajectory",
    "step",
    "check_settings",
    "run",
]

FEASIBILITY_TOL = 1e-9


@dataclass(frozen=True)
class StepSchedule:
    """Mixing-coefficient family gamma(k) = c/(c+k), at an index or a flow time k."""

    c: float = 2.0
    delta: float = 1.0

    def __post_init__(self):
        _check_c(self.c)
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("discretization unit delta must be in (0, 1]")

    def gamma(self, k: float) -> float:
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        return self.c / (self.c + k)


@dataclass
class Trajectory:
    """A run stored as columns: row k holds iterate x^(k), its objective value f,
    FW gap and feasibility violation. Index k and flow time t = k * delta are derived.
    """

    x: np.ndarray
    f: np.ndarray
    gap: np.ndarray
    violation: np.ndarray
    delta: float = 1.0

    def __len__(self):
        return self.f.shape[0]

    def __getitem__(self, i):
        """Row i as an object with fields k, t, x, f, gap and violation."""
        k = range(len(self))[i]
        return SimpleNamespace(k=k, t=k * self.delta, x=self.x[k], f=float(self.f[k]),
                               gap=float(self.gap[k]), violation=float(self.violation[k]))

    @property
    def k(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def t(self) -> np.ndarray:
        return self.k * self.delta

    def to_csv(self, target) -> None:
        """Write iter,t,f,gap,feas_violation rows with 17 significant digits."""
        is_path = isinstance(target, str) or hasattr(target, "__fspath__")
        with open(target, "w", newline="\n") if is_path else nullcontext(target) as fh:
            fh.write("iter,t,f,gap,feas_violation\n")
            rows = zip(self.f.tolist(), self.gap.tolist(), self.violation.tolist())
            for k, (f, gap, v) in enumerate(rows):
                fh.write(f"{k},{k * self.delta:.17g},{f:.17g},{gap:.17g},{v:.17g}\n")


def _mix(x, s, coef):
    """The one update rule: move x toward s by the fraction coef."""
    return x + coef * (s - x)


def _stages(obj, fset, x, t: Tableau, coef):
    """Run the stages of tableau t from x; return x_next.

    Stage i evaluates the LMO at xbar_i = x + sum_j A_ij xi_j and sets
    xi_i = coef(i, xbar_i, d_i) * d_i with d_i = s_i - xbar_i; the step is
    x + sum_i beta_i xi_i.
    """
    A, beta, xi = t.A.tolist(), t.beta.tolist(), []  # float * array rounds as np.float64 * array
    for i in range(t.q):
        xb = x.copy()
        for j in range(i):
            if A[i][j] != 0.0:
                xb = xb + A[i][j] * xi[j]
        s = fset.lmo(obj.gradient(xb))
        d = s - xb
        xi.append(coef(i, xb, d) * d)
    incr = beta[0] * xi[0]
    for i in range(1, t.q):
        incr = incr + beta[i] * xi[i]
    return x + incr


def step(obj, fset, x, t: float, sched: StepSchedule, tableau: Tableau) -> np.ndarray:
    """One step of tableau from x at time t >= 0, of length sched.delta; returns x_next.

    Stage i of ``_stages`` scales its direction by delta c/(c + t + omega_i delta).
    The Euler tableau at t = k * delta is the flow's step, and at delta = 1 FW's;
    ``run`` starts rk at t = 1. Feasibility is not checked, since an RK step may
    start outside the set.
    """
    validate(tableau)
    if not 0 <= t < np.inf:  # false for nan too
        raise ValueError(f"step time t must be >= 0 and finite, got {t}")
    x = _check_vector(fset.dim, x, "iterate")
    gammas = _gammas(tableau, sched.c, t, sched.delta)
    return _stages(obj, fset, x, tableau, lambda i, xb, d: gammas[i])


def _descent_gamma(obj, x, d, k: int) -> float:
    """Monotone step length used by the +linesearch solver variants.

    gamma_bar is the largest gamma in [0, 1] with f(x + gamma d) <= f(x) + 1e-14:
    probing doubles from 2/(2+k) up to 1, then 60 bisection steps pin the
    sublevel boundary. Returns the midpoint gamma_bar / 2 of [0, gamma_bar]
    (the exact minimizer when f is quadratic along d; never increases f for
    convex f), or the full step 1 when gamma_bar clips at 1.
    """
    bound = obj.value(x) + 1e-14
    lo, hi = 0.0, min(2.0 / (2.0 + k), 1.0)
    while obj.value(x + hi * d) <= bound:
        if hi >= 1.0:
            return 1.0
        lo, hi = hi, min(1.0, 2.0 * hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if obj.value(x + mid * d) <= bound:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo


METHODS = ("fw", "flow", "rk", "rk+linesearch", "fw+linesearch", "fw+momentum")


def check_settings(method: str, sched: StepSchedule, max_iter: int, stop_gap: float = 0.0,
                   tableau: Tableau | None = None) -> None:
    """Raise ConfigError unless run() takes these settings; a tableau is not validated here."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    if np.isnan(stop_gap):
        raise ConfigError("stop_gap must be a number, got nan")
    if sched.delta != 1.0 and method not in ("flow", "rk"):
        raise ConfigError(f"method {method!r} takes no step delta; delta must be 1")
    if method.startswith("rk") and tableau is None:
        raise ConfigError(f"method {method!r} requires a tableau")
    if not method.startswith("rk") and tableau is not None:
        raise ConfigError(f"method {method!r} takes no tableau; only rk and rk+linesearch do")


def run(
    obj,
    fset,
    x0,
    method: str,
    sched: StepSchedule,
    max_iter: int,
    stop_gap: float = 0.0,
    tableau: Tableau | None = None,
) -> Trajectory:
    """Drive one solver over max_iter steps, recording every iterate.

    rk steps from time t = 1; everything else starts at t = 0 (index k = 0).
    Stops early once the gap g . (x - s) <= stop_gap (stop_gap = 0 disables the check).
    Feasibility is monitored (recorded per step), never enforced. Before the
    first step, bad settings (check_settings), a bad tableau and an
    infeasible x0 raise ConfigError.
    """
    check_settings(method, sched, max_iter, stop_gap, tableau)
    if tableau is not None:
        validate(tableau)
    x = np.asarray(x0, dtype=float).copy()
    if fset.violation(x) > FEASIBILITY_TOL:
        raise ConfigError("x0 is outside the feasible set")

    m = np.zeros_like(x)  # momentum buffer
    xs = np.empty((max_iter + 1,) + x.shape)
    fs, gaps, viols = np.empty((3, max_iter + 1))

    for j in range(max_iter + 1):
        g = obj.gradient(x)
        s = fset.lmo(g)
        gap = float(g @ (x - s))
        xs[j] = x
        fs[j] = obj.value(x)
        gaps[j] = gap
        viols[j] = fset.violation(x)
        if j == max_iter or (stop_gap > 0.0 and gap <= stop_gap):
            break

        if method in ("fw", "flow"):  # fw is the flow at delta = 1
            x = _mix(x, s, sched.delta * sched.gamma(j * sched.delta))
        elif method == "fw+linesearch":
            x = _mix(x, s, _descent_gamma(obj, x, s - x, j))
        elif method == "fw+momentum":  # the LMO sees the gradient average, d = 2/(j+2)
            d = 2.0 / (j + 2.0)
            m = (1.0 - d) * m + d * g
            x = _mix(x, fset.lmo(m), sched.gamma(j))
        elif method == "rk":
            x = step(obj, fset, x, 1 + j * sched.delta, sched, tableau)
        else:  # rk+linesearch: each stage takes the longer of gamma_tilde_i and a descent step
            gammas = _gammas(tableau, sched.c, j + 1)
            rule = lambda i, xb, d: max(gammas[i], _descent_gamma(obj, xb, d, j))  # noqa: E731
            x = _stages(obj, fset, x, tableau, rule)
    n = j + 1  # rows recorded; fewer than max_iter + 1 when stop_gap ended the run
    return Trajectory(xs[:n], fs[:n], gaps[:n], viols[:n], delta=sched.delta)
