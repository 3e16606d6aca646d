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


@dataclass(frozen=True, eq=False)
class Tableau:
    """Explicit Runge-Kutta tableau: stage matrix A, weights beta, offsets omega.

    The arrays are read-only copies, so a tableau is checked once, when it is
    built: ``validate`` reports that verdict. Tableaus compare and hash by
    identity, as array fields have no single truth value.
    """

    A: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    name: str = ""
    # set by __post_init__: the first invariant fault, or None
    _fault: str | None = field(init=False, repr=False)
    # set for a valid tableau: per stage, the nonzero (j, A_ij) pairs; beta and omega;
    # all as Python floats, since float * array rounds as np.float64 * array
    _stage_terms: tuple = field(init=False, repr=False)
    _beta: list = field(init=False, repr=False)
    _omega: list = field(init=False, repr=False)

    def __post_init__(self):
        for key, shape in (("A", np.atleast_2d), ("beta", np.ravel), ("omega", np.ravel)):
            entries = shape(np.asarray(getattr(self, key), dtype=float)).copy()
            entries.setflags(write=False)
            object.__setattr__(self, key, entries)
        try:
            _check_invariants(self)
            fault = None
        except ConfigError as e:
            fault = str(e)
        object.__setattr__(self, "_fault", fault)
        if fault is None:
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

        Raises ConfigError when the document is not an object, lacks a key, or
        holds a key whose value is not a (rectangular) array of numbers.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigError("tableau JSON must be an object with keys A, beta and omega")
        entries = {}
        for key in ("A", "beta", "omega"):
            if key not in doc:
                raise ConfigError(f"tableau JSON lacks the key {key!r}")
            try:
                entries[key] = np.asarray(doc[key], dtype=float)
            except (TypeError, ValueError) as e:
                raise ConfigError(f"tableau JSON key {key!r} must hold numbers: {e}") from None
        return cls(**entries, name=name)


def validate(t: Tableau) -> None:
    """Raise ConfigError naming the first violated tableau invariant, found when t was built."""
    if t._fault is not None:
        raise ConfigError(t._fault)


def _check_invariants(t: Tableau) -> None:
    """Raise ConfigError naming the first violated tableau invariant."""
    q = t.q
    if t.A.shape != (q, q) or t.omega.shape[0] != q:
        raise ConfigError("shape mismatch: A must be q x q and omega length q")
    for name, values in (("A", t.A), ("beta", t.beta), ("omega", t.omega)):
        if not np.isfinite(values).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
            raise ConfigError(f"tableau entry {name}{list(at)} is {values[at]}, must be finite")
    if abs(float(t.beta.sum()) - 1.0) > 1e-12:  # numpy's pairwise order, not a Python sum
        raise ConfigError(f"beta sum is {t.beta.sum()!r}, must be 1")
    if np.triu(t.A).any():
        raise ConfigError("A is not strictly lower triangular")
    if t.omega[0] != 0.0:
        raise ConfigError("omega[0] must be 0")
    if t.omega.min() < 0.0 or t.omega.max() > 1.0:
        raise ConfigError("omega entries must lie in [0, 1]")


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


def _check_c(c: float) -> None:  # the one check of every schedule constant c
    if not 1 <= c < math.inf:  # false for nan too
        raise ConfigError(f"schedule constant c must be >= 1 and finite, got {c}")


def _gammas(t: Tableau, c: float, time: float, delta: float = 1.0) -> list:
    """The one schedule rule: a step at time scales stage i by delta c/(c + time + omega_i delta).

    At delta = 1 and time = k this is c/(c + k + omega_i); for euler it is the
    flow's delta * gamma(time). The grouping is part of the rule, since
    (delta c)/(c + time) is not bit-equal to delta (c/(c + time)).
    """
    return [delta * (c / (c + time + w * delta)) for w in t._omega]


def _solve_mixing(t: Tableau, gammas: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + A^T Gamma) y = rhs; the system is unit upper triangular."""
    from scipy.linalg import solve_triangular  # only certificates and rate constants need it

    M = np.eye(t.q) + t.A.T * gammas[None, :]
    return solve_triangular(M, rhs, lower=False, unit_diagonal=True)


def certificate(t: Tableau, c: float, k: int) -> Certificate:
    """Compute z = q Gamma (I + A^T Gamma)^(-1) beta for one iteration index."""
    validate(t)
    _check_c(c)
    if k < 1:
        raise ValueError("certificate is defined for k >= 1")
    gammas = np.array(_gammas(t, c, k))
    y = _solve_mixing(t, gammas, t.beta)
    z = t.q * gammas * y
    inside = bool(np.all(z >= 0.0) and np.all(z <= 1.0))
    return Certificate(z=z, in_unit_interval=inside)


def certificate_decay(t: Tableau, c: float, k_max: int) -> np.ndarray:
    """Return ||z^(k)||_inf for k = 1..k_max."""
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
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
    _check_c(c)
    if c == 1:
        raise ValueError("rate constants require c > 1")
    if not (0 < L < math.inf and 0 <= diam < math.inf and math.isfinite(h_x0)):  # false for nan
        raise ValueError(f"L > 0, diam >= 0 and h_x0 must all be finite, got {L}, {diam}, {h_x0}")
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
    return RateConstants(
        p_max=p_max,
        D2=D2,
        D3=D3,
        D4=D4,
        h0=h0,
    )
