"""Explicit Runge-Kutta tableaus, feasibility certificates, and rate constants.

A tableau (A, beta, omega) with q stages parametrizes a multistep mixing
scheme. The feasibility certificate z = q Gamma (I + A^T Gamma)^(-1) beta
(with Gamma = diag(c / (c + k + omega_i))) guarantees the iterates stay in
the feasible set whenever 0 <= z <= 1 componentwise for every k >= 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigError",
    "Tableau",
    "Certificate",
    "RateConstants",
    "validate",
    "builtin",
    "builtin_names",
    "certificate",
    "certificate_decay",
    "rate_constants",
]


class ConfigError(ValueError):
    """Invalid configuration: a bad schedule, tableau or solver setting."""


def _number(kind, value, key: str, least=None, positive=False):
    """kind(value) for a number or numeric string (not a boolean), integral if kind is int, in
    [least, inf) if least is given and in (0, inf) if positive; else a ConfigError naming key.
    An int, or an integer string when kind is int, is read exactly."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        if kind is int and isinstance(value, str) and value.strip().lstrip("+-").isdigit():
            value = int(value)  # exactly: float() drops bits past 2**53; "5.0" is still read
        number = kind(value) if isinstance(value, (int, np.integer)) else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if kind is int and number % 1:  # a fractional part, or nan for nan and inf
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    number = kind(number)
    if positive and not 0 < number < math.inf:  # false for nan too
        raise ConfigError(f"{key} must be positive and finite, got {number}")
    if least is not None and not least <= number < math.inf:
        finite = " and finite" if kind is float else ""  # an int is always finite
        raise ConfigError(f"{key} must be >= {least}{finite}, got {number}")
    return number


@dataclass(frozen=True, eq=False)
class Tableau:
    """Explicit Runge-Kutta tableau: stage matrix A, weights beta, offsets omega.

    Each entry is read by _number, the rule of every setting, into read-only copies, so a
    tableau is checked once, when it is built: an invalid one raises ConfigError. Tableaus
    compare and hash by identity, as array fields have no single truth value.
    """

    A: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    name: str = ""
    # set by __post_init__: per stage, the nonzero (j, A_ij) pairs; beta and omega;
    # all as Python floats, since float * array rounds as np.float64 * array
    _stage_terms: tuple = field(init=False, repr=False)
    _beta: list = field(init=False, repr=False)
    _omega: list = field(init=False, repr=False)

    def __post_init__(self):
        for key, shape in (("A", np.atleast_2d), ("beta", np.ravel), ("omega", np.ravel)):
            given, what = getattr(self, key), f"tableau {key}"
            try:  # an object array: a ragged row is one entry, which is not a number
                cells = np.asarray(given, dtype=object)
            except ValueError:  # sub-arrays of unequal shapes: a sequence, which _number refuses
                _number(float, given, what)
            entries = shape(np.reshape([_number(float, v, what) for v in cells.flat], cells.shape))
            entries.setflags(write=False)
            object.__setattr__(self, key, entries)
        if (rows := self.A.shape[0]) != self.q:
            raise ConfigError(f"tableau beta length {self.q} differs from A's row count {rows}")
        if self.A.shape != (self.q, self.q) or self.omega.shape[0] != self.q:
            raise ConfigError("shape mismatch: A must be q x q and omega length q")
        for key, values in (("A", self.A), ("beta", self.beta), ("omega", self.omega)):
            if not np.isfinite(values).all():
                at = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
                raise ConfigError(f"tableau entry {key}{list(at)} is {values[at]}, must be finite")
        if abs(float(self.beta.sum()) - 1.0) > 1e-12:  # numpy's pairwise order, not a Python sum
            raise ConfigError(f"beta sum is {self.beta.sum()!r}, must be 1")
        if np.triu(self.A).any():
            raise ConfigError("A is not strictly lower triangular")
        if self.omega[0] != 0.0:
            raise ConfigError("omega[0] must be 0")
        if self.omega.min() < 0.0 or self.omega.max() > 1.0:
            raise ConfigError("omega entries must lie in [0, 1]")
        terms = tuple(tuple((j, a) for j, a in enumerate(row[:i]) if a != 0.0)
                      for i, row in enumerate(self.A.tolist()))
        object.__setattr__(self, "_stage_terms", terms)
        object.__setattr__(self, "_beta", self.beta.tolist())
        object.__setattr__(self, "_omega", self.omega.tolist())

    @property
    def q(self) -> int:
        return self.beta.shape[0]

    @classmethod
    def from_json(cls, text: str, name: str = "") -> "Tableau":
        """Build a tableau from a JSON document {"A": [[..]], "beta": [..], "omega": [..]}.

        Raises ConfigError when the document is not an object or lacks a key, and, as
        Tableau(...) does, when an entry is not a number (a JSON boolean is not) or the
        tableau is invalid.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("tableau JSON must be an object with keys A, beta and omega")
        for key in ("A", "beta", "omega"):
            if key not in doc:
                raise ConfigError(f"tableau JSON lacks the key {key!r}")
        return cls(doc["A"], doc["beta"], doc["omega"], name=name)


def validate(t: Tableau) -> None:
    """Raise ConfigError unless t is a Tableau, which was checked when it was built."""
    if not isinstance(t, Tableau):
        raise ConfigError(f"expected a Tableau, got {type(t).__name__}")


_BUILTINS = {
    "euler": Tableau(A=[[0.0]], beta=[1.0], omega=[0.0], name="euler"),
    "midpoint": Tableau(
        A=[[0.0, 0.0], [0.5, 0.0]],
        beta=[0.0, 1.0],
        omega=[0.0, 0.5],
        name="midpoint",
    ),
    "rk4": Tableau(
        A=[
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        beta=[1 / 6, 1 / 3, 1 / 3, 1 / 6],
        omega=[0.0, 0.5, 0.5, 1.0],
        name="rk4",
    ),
    "rk38": Tableau(
        A=[
            [0.0, 0.0, 0.0, 0.0],
            [1 / 3, 0.0, 0.0, 0.0],
            [-1 / 3, 1.0, 0.0, 0.0],
            [1.0, -1.0, 1.0, 0.0],
        ],
        beta=[1 / 8, 3 / 8, 3 / 8, 1 / 8],
        omega=[0.0, 1 / 3, 2 / 3, 1.0],
        name="rk38",
    ),
    "rk5": Tableau(
        A=[
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1 / 8, 1 / 8, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1 / 2, 1.0, 0.0, 0.0, 0.0],
            [3 / 16, 0.0, 0.0, 9 / 16, 0.0, 0.0],
            [-3 / 7, 2 / 7, 12 / 7, -12 / 7, 8 / 7, 0.0],
        ],
        beta=[7 / 90, 0.0, 32 / 90, 12 / 90, 32 / 90, 7 / 90],
        omega=[0.0, 1 / 4, 1 / 4, 1 / 2, 3 / 4, 1.0],
        name="rk5",
    ),
}


def builtin_names():
    return tuple(_BUILTINS)


def builtin(name: str) -> Tableau:
    """Return a built-in tableau: euler, midpoint, rk4, rk38, or rk5."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ConfigError(f"unknown tableau {name!r}; choose from {sorted(_BUILTINS)}") from None


@dataclass(frozen=True)
class Certificate:
    """Feasibility certificate z at one iteration k and constant c, and whether 0 <= z <= 1."""

    z: np.ndarray
    in_unit_interval: bool


def _gammas(t: Tableau, c: float, time: float, delta: float = 1.0) -> list:
    """The one schedule rule: a step at time scales stage i by delta c/(c + time + omega_i delta).

    At delta = 1 and time = k this is c/(c + k + omega_i); for euler it is the
    flow's delta * gamma(time). The grouping is part of the rule, since
    (delta c)/(c + time) is not bit-equal to delta (c/(c + time)).
    """
    return [delta * (c / (c + time + w * delta)) for w in t._omega]


def _solve_mixing(t: Tableau, gammas: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back substitution for (I + A^T Gamma) y = rhs: y_i = rhs_i - sum_{j>i} A_ji gamma_j y_j."""
    y = np.array(rhs, dtype=float)
    for i in reversed(range(t.q - 1)):
        terms = [t.A[j, i] * gammas[j] * y[j] for j in range(i + 1, t.q)]
        y[i] = rhs[i] - np.add.accumulate(terms)[-1]  # summed in order of ascending j
    return y


def certificate(t: Tableau, c: float, k: int) -> Certificate:
    """Compute z = q Gamma (I + A^T Gamma)^(-1) beta for one iteration index."""
    validate(t)
    c, k = _number(float, c, "schedule constant c", 1), _number(int, k, "certificate index k", 1)
    gammas = np.array(_gammas(t, c, k))
    y = _solve_mixing(t, gammas, t.beta)
    z = t.q * gammas * y
    inside = bool(np.all(z >= 0.0) and np.all(z <= 1.0))
    return Certificate(z=z, in_unit_interval=inside)


def certificate_decay(t: Tableau, c: float, k_max: int) -> np.ndarray:
    """Return ||z^(k)||_inf for k = 1..k_max."""
    k_max = _number(int, k_max, "k_max", 2)
    return np.array(
        [float(np.max(np.abs(certificate(t, c, k).z))) for k in range(1, k_max + 1)]
    )


@dataclass(frozen=True)
class RateConstants:
    """Constants of the one-step decrease bound and of the O(1/k) rate curve h0 / (k + 1)."""

    p_max: float
    D2: float
    D3: float
    D4: float
    h0: float


def rate_constants(t: Tableau, c: float, L: float, diam: float, h_x0: float = 0.0) -> RateConstants:
    """Rate constants of the worst-case O(1/k) convergence bound.

    p_max is the 2,inf-norm (max column 2-norm) of P^(1) = Gamma (I + A^T Gamma)^(-1)
    at k = 1; then D2 = q p_max diam, D3 = (q max|A|) D2, and
    D4 = (L D2^2 + 2 L D2 D3 + 2 D3) / 2. The rate curve h0/(k+1) starts from
    h0 = max(h_x0, D4 c^2 / (c - 1)), which needs c > 1.
    """
    validate(t)
    c = _number(float, c, "schedule constant c", 1)
    if c == 1:
        raise ValueError("rate constants require c > 1")
    L, diam = _number(float, L, "L", positive=True), _number(float, diam, "diam", 0)
    if not math.isfinite(h_x0 := _number(float, h_x0, "h_x0")):
        raise ConfigError(f"h_x0 must be finite, got {h_x0}")
    gammas = np.array(_gammas(t, c, 1))
    Minv = _solve_mixing(t, gammas, np.eye(t.q))
    P = gammas[:, None] * Minv
    p_max = float(np.max(np.linalg.norm(P, axis=0)))
    max_abs_A = float(np.max(np.abs(t.A)))
    c1 = t.q * p_max
    c2 = t.q * max_abs_A
    D2 = c1 * diam
    D3 = c2 * c1 * diam
    D4 = (L * D2**2 + 2.0 * L * D2 * D3 + 2.0 * D3) / 2.0
    h0 = max(h_x0, D4 * c * c / (c - 1.0))
    return RateConstants(p_max=p_max, D2=D2, D3=D3, D4=D4, h0=h0)
