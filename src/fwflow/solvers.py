"""Iteration schemes: Frank-Wolfe, flow discretization, Runge-Kutta multistep,
line-search and momentum variants, plus the driver loop.

FW, the flow and the Runge-Kutta methods are one ``step``: a tableau's stage
loop ``_stages`` run from time t with the one schedule rule ``tableau._gammas``.
The flow is the Euler tableau from t = 0, and FW is the flow at delta = 1.
``run`` takes their one-stage step, and fw+linesearch's and fw+momentum's, as one update
x - coef * (x - s) sharing x - s with the gap: line search sets coef, and momentum s. By IEEE
sign symmetry that is x + coef * (s - x) bit for bit, but that an entry at -0 with atom entry -0
stays -0. Per-step ``ndarray.dot`` and ``np.add.reduce`` are ``@`` and ``.sum()`` undispatched,
but ``.dot`` of two one-entry arrays can give -0 where ``@`` gave +0 (run's gap adds +0.0).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import _check_vector, contains
from .tableau import ConfigError, Tableau, _gammas, _number, validate

__all__ = [
    "StepSchedule",
    "Trajectory",
    "step",
    "check_settings",
    "run",
]

# run() reserves its whole record, max_iter + 1 rows of an iterate and 3 floats, before the
# first step, so check_settings caps its bytes; the largest preset or workload needs ~25 MB
MAX_RECORD_BYTES = 2**30
_CHUNK_ROWS = 1024  # rows per % pass of _format_rows; 4,096 raised box-rk's peak memory


@dataclass(frozen=True)
class StepSchedule:
    """Mixing-coefficient family gamma(k) = c/(c+k), at an index or a flow time k."""

    c: float = 2.0
    delta: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "c", _number(float, self.c, "schedule constant c", 1))
        object.__setattr__(self, "delta", _number(float, self.delta, "discretization unit delta"))
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError("discretization unit delta must be in (0, 1]")

    def gamma(self, k: float) -> float:
        if not 0 <= k < math.inf:  # false for nan too
            raise ValueError(f"iteration index must be >= 0 and finite, got {k}")
        return self.c / (self.c + k)


@dataclass
class Trajectory:
    """A run stored as columns: row k holds iterate x^(k), its objective value f,
    FW gap and feasibility violation. Index k and flow time t = k * delta are derived.
    f and violation are None for a run that ``run(audit=False)`` did not audit.
    """

    x: np.ndarray
    f: np.ndarray | None
    gap: np.ndarray
    violation: np.ndarray | None
    delta: float = 1.0

    def __len__(self):
        return self.x.shape[0]

    def __getitem__(self, i):
        """Row i as an object with fields k, t, x, f, gap and violation (None if unaudited)."""
        k = range(len(self))[i]
        f, v = (None, None) if self.f is None else (float(self.f[k]), float(self.violation[k]))
        return SimpleNamespace(k=k, t=k * self.delta, x=self.x[k], f=f, gap=float(self.gap[k]),
                               violation=v)

    @property
    def k(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def t(self) -> np.ndarray:
        return self.k * self.delta

    def to_csv(self, target) -> None:
        """Write iter,t,f,gap,feas_violation rows with 17 significant digits, a chunk at a time."""
        if self.f is None:
            raise ValueError("an unaudited trajectory has no f or violation column to write")
        is_path = isinstance(target, str) or hasattr(target, "__fspath__")
        with open(target, "w", newline="\n") if is_path else nullcontext(target) as fh:
            fh.write("iter,t,f,gap,feas_violation\n")
            fh.writelines(_format_rows("%d,%.17g,%.17g,%.17g,%.17g\n", self.k, self.t, self.f,
                                       self.gap, self.violation))


def _format_rows(fmt: str, *columns):
    """Yield fmt % row over the rows of equal-length numpy columns, one % per _CHUNK_ROWS rows."""
    for i in range(0, len(columns[0]), _CHUNK_ROWS):
        cells = [col[i:i + _CHUNK_ROWS].tolist() for col in columns]  # Python ints and floats
        yield (fmt * len(cells[0])) % tuple([v for row in zip(*cells) for v in row])


def _stages(obj, fset, x, t: Tableau, coef):
    """Run the stages of tableau t from x; return x_next.

    Stage i evaluates the LMO at xbar_i = x + sum_j A_ij xi_j and sets
    xi_i = coef(i, xbar_i, d_i) * d_i with d_i = s_i - xbar_i; the step is
    x + sum_i beta_i xi_i.
    """
    xi = []
    for i, terms in enumerate(t._stage_terms):
        xb = x  # never written in place: each update below makes a new array
        for j, a in terms:
            xb = xb + a * xi[j]
        s = fset.lmo(obj.gradient(xb))
        d = s - xb
        xi.append(coef(i, xb, d) * d)
    beta = t._beta
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


def _descent_gamma(obj, x, d) -> float:
    """Monotone step length of the +linesearch variants: min(1, gamma_bar / 2), with gamma_bar
    the largest gamma in [0, 2] with f(x + gamma d) <= f(x) + 1e-14, pinned by 60 bisection
    rounds unless it is 2. That is the exact minimizer along d, clipped to [0, 1], when f is
    quadratic along d, and raises a convex f by at most 1e-14. f is evaluated up to x + 2d,
    outside the feasible set; every shipped objective is defined on all of R^n.
    """
    bound = obj.value(x) + 1e-14
    if obj.value(x + 2.0 * d) <= bound:
        return 1.0
    lo, hi = 0.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if obj.value(x + mid * d) <= bound:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo


METHODS = ("fw", "flow", "rk", "rk+linesearch", "fw+linesearch", "fw+momentum")


def check_settings(method: str, sched: StepSchedule, max_iter: int, size: int,
                   stop_gap: float = 0.0, tableau: Tableau | None = None) -> int:
    """Raise ConfigError unless run() takes these settings for iterates of size entries;
    a tableau is not validated here. Returns max_iter read as an int."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    max_iter = _number(int, max_iter, "max_iter", 1)
    if max_iter >= (rows := MAX_RECORD_BYTES // (8 * (size + 3))):  # (max_iter + 1) rows
        raise ConfigError(f"max_iter must be < {rows} for {size}-entry iterates, whose record "
                          f"would exceed {MAX_RECORD_BYTES} bytes")
    if np.isnan(stop_gap):
        raise ConfigError("stop_gap must be a number, got nan")
    if sched.delta != 1.0 and method not in ("flow", "rk"):
        raise ConfigError(f"method {method!r} takes no step delta; delta must be 1")
    if method.startswith("rk") and tableau is None:
        raise ConfigError(f"method {method!r} requires a tableau")
    if not method.startswith("rk") and tableau is not None:
        raise ConfigError(f"method {method!r} takes no tableau; only rk and rk+linesearch do")
    return max_iter


def run(
    obj,
    fset,
    x0,
    method: str,
    sched: StepSchedule,
    max_iter: int,
    stop_gap: float = 0.0,
    tableau: Tableau | None = None,
    audit: bool = True,
) -> Trajectory:
    """Drive one solver over max_iter steps, recording every iterate.

    x0 is flattened row-major, as every oracle flattens its input; rk steps from time
    t = 1, and everything else starts at t = 0 (index k = 0).
    Stops early once the gap g . (x - s) <= stop_gap (stop_gap = 0 disables the check).
    Feasibility is monitored (recorded per step), never enforced. Before the
    first step, bad settings (check_settings), a bad tableau and an
    infeasible x0 raise ConfigError. With audit=False, f and violation are None, never evaluated.
    """
    x = np.array(x0, dtype=float).ravel()
    max_iter = check_settings(method, sched, max_iter, x.size, stop_gap, tableau)
    if tableau is not None:
        validate(tableau)
    if not contains(fset, x):
        raise ConfigError("x0 is outside the feasible set")

    m = np.zeros_like(x)  # momentum buffer
    xs = np.empty((max_iter + 1,) + x.shape)
    fs, gaps, viols = np.empty((3, max_iter + 1))

    for j in range(max_iter + 1):
        g = obj.gradient(x)
        s = fset.lmo(g)
        d = x - s  # first in the product, so that a gradient given as a list still works
        gap = float(d.dot(g)) + 0.0  # -0 to +0, as @ gives for one-entry d and g
        xs[j] = x
        gaps[j] = gap
        if audit:
            fs[j], viols[j] = obj.value(x), fset.violation(x)
        if j == max_iter or (stop_gap > 0.0 and gap <= stop_gap):
            break

        if method == "rk":
            x = step(obj, fset, x, 1 + j * sched.delta, sched, tableau)
        elif method == "rk+linesearch":  # each stage steps by max(gamma_tilde_i, descent step)
            gammas = _gammas(tableau, sched.c, j + 1)
            rule = lambda i, xb, d: max(gammas[i], _descent_gamma(obj, xb, d))  # noqa: E731
            x = _stages(obj, fset, x, tableau, rule)
        else:  # fw (the flow at delta = 1), flow and the FW variants: one atom, one coefficient
            if method == "fw+momentum":  # the atom answers the gradient average, w = 2/(j+2)
                w = 2.0 / (j + 2.0)
                m = (1.0 - w) * m + w * g
                d = x - fset.lmo(m)
            coef = (_descent_gamma(obj, x, s - x) if method == "fw+linesearch"
                    else sched.delta * sched.gamma(j * sched.delta))
            x = x - coef * d  # x + coef (s - x), bit for bit but for -0 entries (module doc)
    n = j + 1  # rows recorded; fewer than max_iter + 1 when stop_gap ended the run
    fs, viols = (fs[:n], viols[:n]) if audit else (None, None)
    return Trajectory(xs[:n], fs, gaps[:n], viols, delta=sched.delta)
