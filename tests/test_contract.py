"""The construction contract of every feasible set, objective, problem builder and tableau.

Each constructor either refuses its input with a ValueError (ConfigError is one) whose message
names the argument at fault, or builds an object with an int dim >= 1 whose oracles take the
zero point of that dim, without a warning, and give finite results; a tableau that builds has
a finite certificate. A tableau entry or a seed is read by the one number rule, so its refusal
is a ConfigError, and so is the refusal of a boolean given for any argument. The table breaks
one argument per call and keeps the others at a valid default.
"""

import math
import pickle
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fwflow.diagnostics import check_zigzag_settings, continuous_bound, schedule_bound
from fwflow.geometry import Box, L1Ball, NuclearBall, VertexHull
from fwflow.objectives import (
    LeastSquares,
    LogisticLoss,
    MatrixHuber,
    QuadraticDistance,
    ScalarHuber,
    check_gradient,
)
from fwflow.problems import (
    Problem,
    lowrank_huber,
    scalar_box,
    scalar_huber,
    sensing_least_squares,
    sensing_logistic,
    triangle,
)
from fwflow.solvers import StepSchedule
from fwflow.tableau import (
    ConfigError,
    Tableau,
    builtin,
    certificate,
    certificate_decay,
    rate_constants,
)

_NON_FINITE = [math.nan, math.inf, -math.inf]
# large finite magnitudes are left out: overflow is a question of numerics, not of the contract
_ENTRIES = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_NON_FINITE))
# scalars: numbers, and what the one number rule refuses or reads as the CLI does
_SCALARS = st.one_of(st.sampled_from([0.0, -1.0, *_NON_FINITE, True, np.True_, "1.5", "x", None]),
                     st.floats(-10.0, 10.0))
_SIZES = st.sampled_from([0, -1, -3, 0.5, 2.5, *_NON_FINITE, True, 1, 2, 2.0, 3])
_VECTORS = st.one_of(
    st.sampled_from([[], np.empty(0), 0.0, np.zeros((2, 2)), np.zeros((1, 2, 2))]),
    hnp.arrays(float, st.tuples(st.integers(1, 4)), elements=_ENTRIES),
)
_MATRICES = st.one_of(
    st.sampled_from([[], [[]], np.empty((0, 2)), np.zeros((2, 0)), [1.0, 2.0],
                     np.zeros((2, 2, 2)), [[0.0, 0.0], [1.0]], 0.0]),
    hnp.arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 3)), elements=_ENTRIES),
)
_LABELS = st.one_of(_VECTORS, st.lists(st.sampled_from([-1.0, 1.0, 0.0]), min_size=3, max_size=3))
_INDICES = st.one_of(
    st.sampled_from([[], [0.5], [1.9], [-1], [4], [math.nan], [math.inf], [[1, 2]]]),
    st.lists(st.integers(0, 3), min_size=2, max_size=2),
)
# seeds: refused ones, Python ints, and numpy ints, which are read exactly
_SEEDS = st.one_of(
    st.sampled_from([-1, 2.5, math.nan, math.inf, True, np.int32(-1), np.int64(2**62 + 1)]),
    st.integers(0, 3),
    st.integers(0, 3).map(np.int64),
)
# tableau entries: numbers, numeric strings, and what is not a number, a row included
_TABLEAU_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([*_NON_FINITE, True, False, "x", "0.5", None, [0.0]]),
)
_TABLEAU_ARRAYS = st.one_of(
    _TABLEAU_ENTRIES,  # a scalar
    st.lists(_TABLEAU_ENTRIES, max_size=3),
    st.lists(st.lists(_TABLEAU_ENTRIES, max_size=3), max_size=3),  # ragged when lengths differ
)
_TABLEAU_A = st.one_of(_TABLEAU_ARRAYS, _TABLEAU_ENTRIES.map(lambda a: [[0.0, 0.0], [a, 0.0]]))
_TABLEAU_BETA = st.one_of(_TABLEAU_ARRAYS, st.floats(0.0, 1.0).map(lambda b: [1.0 - b, b]))
_TABLEAU_OMEGA = st.one_of(_TABLEAU_ARRAYS, _TABLEAU_ENTRIES.map(lambda w: [0.0, w]))
# arguments whose refusal is a ConfigError
_CONFIG_ARGUMENTS = {"A", "beta", "omega", "seed"}

# constructor: {argument: (valid default, strategy of inputs, names its message may give)}
_TABLE = [
    (VertexHull, {"vertices": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], _MATRICES, ("vertices",))}),
    (Box, {"lower": (-1.0, _SCALARS, ("lower",)), "upper": (1.0, _SCALARS, ("upper",)),
           "dim": (2, _SIZES, ("dim",))}),
    (L1Ball, {"radius": (1.0, _SCALARS, ("radius",)), "dim": (2, _SIZES, ("dim",))}),
    (NuclearBall, {"radius": (1.0, _SCALARS, ("radius",)), "rows": (2, _SIZES, ("rows",)),
                   "cols": (3, _SIZES, ("cols",))}),
    (QuadraticDistance, {"target": ([0.5, -1.0], _VECTORS, ("target",))}),
    (ScalarHuber, {"eps": (0.1, _SCALARS, ("eps",))}),
    (LeastSquares, {"design": (np.ones((3, 2)), _MATRICES, ("design", "response")),
                    "response": ([1.0, 0.0, -1.0], _VECTORS, ("response",))}),
    (LogisticLoss, {"features": (np.ones((3, 2)), _MATRICES, ("features", "labels")),
                    "labels": ([1.0, -1.0, 1.0], _LABELS, ("labels",))}),
    (MatrixHuber, {"index": ([1, 3], _INDICES, ("index", "values")),
                   "values": ([0.5, -1.0], _VECTORS, ("values",)),
                   "rows": (2, _SIZES, ("rows", "index")), "cols": (2, _SIZES, ("cols", "index")),
                   "delta": (1.0, _SCALARS, ("delta",))}),
    (lowrank_huber, {name: (3, _SIZES, ("users", "items", "rank"))
                     for name in ("users", "items", "rank")}),
    (lowrank_huber, {"seed": (0, _SEEDS, ("seed",))}),
    (sensing_least_squares, {"seed": (0, _SEEDS, ("seed",))}),
    (sensing_logistic, {"seed": (0, _SEEDS, ("seed",))}),
    (Tableau, {"A": ([[0.0, 0.0], [0.5, 0.0]], _TABLEAU_A, ("A",)),
               "beta": ([0.0, 1.0], _TABLEAU_BETA, ("beta",)),
               "omega": ([0.0, 0.5], _TABLEAU_OMEGA, ("omega",))}),
    (triangle, {}),
    (scalar_box, {}),
    (scalar_huber, {}),
]


def _broken(build, args, name):
    """(build, keyword arguments, names) with argument name drawn and the others at default."""
    defaults = {key: default for key, (default, _, _) in args.items()}
    _, inputs, names = args[name]
    return inputs.map(lambda value: (build, {**defaults, name: value}, names))


_CALLS = st.one_of(
    *[_broken(build, args, name) for build, args in _TABLE for name in args],
    *[st.just((build, {}, ())) for build, args in _TABLE if not args],
)


def _parts(built):
    return (built.objective, built.feasible_set) if isinstance(built, Problem) else (built,)


def _assert_works_at_zero(part):
    assert type(part.dim) is int and part.dim >= 1, f"{type(part).__name__} dim {part.dim!r}"
    x = np.zeros(part.dim)
    if hasattr(part, "lmo"):
        assert np.isfinite(part.lmo(x)).all() and math.isfinite(part.violation(x))
    else:
        assert math.isfinite(part.value(x)) and np.isfinite(part.gradient(x)).all()


# objectives that used to build with no coordinate or a negative dimension, whose value([])
# returned a number, and a set whose lmo returned an infinite atom
@example(call=(QuadraticDistance, {"target": []}, ("target",)))
@example(call=(LeastSquares, {"design": np.zeros((2, 0)), "response": [1.0, 2.0]}, ("design",)))
@example(call=(MatrixHuber, {"index": [], "values": [], "rows": 0, "cols": 3}, ("rows", "index")))
@example(call=(MatrixHuber, {"index": [], "values": [], "rows": -1, "cols": 3}, ("rows", "index")))
@example(call=(L1Ball, {"radius": math.inf, "dim": 2}, ("radius",)))
# sizes that reached numpy unchecked, a 1 x 1 problem refused for its empty MatrixHuber index,
# and a ragged target flattened by numpy before it was checked
@example(call=(lowrank_huber, {"users": 2.5, "items": 3, "rank": 2}, ("users",)))
@example(call=(lowrank_huber, {"users": 1, "items": 1, "rank": 1}, ("users", "items")))
@example(call=(QuadraticDistance, {"target": [[1.0], [1.0, 2.0]]}, ("target",)))
# a ragged or non-numeric tableau refused by numpy, not by name, and seeds that reached numpy
@example(call=(Tableau, {"A": [[0.0], [0.5, 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]},
               ("A",)))
@example(call=(Tableau, {"A": "x", "beta": [0.0, 1.0], "omega": [0.0, 0.5]}, ("A",)))
@example(call=(Tableau, {"A": [np.zeros((2, 2)), np.zeros((2, 3))], "beta": [0.0, 1.0],
                         "omega": [0.0, 0.5]}, ("A",)))
@example(call=(lowrank_huber, {"seed": -1}, ("seed",)))
@example(call=(sensing_logistic, {"seed": 2.5}, ("seed",)))
@example(call=(sensing_least_squares, {"seed": math.nan}, ("seed",)))
@example(call=(sensing_logistic, {"seed": True}, ("seed",)))
# a boolean radius that built, and scalars that raised a bare TypeError
@example(call=(L1Ball, {"radius": True, "dim": 2}, ("radius",)))
@example(call=(L1Ball, {"radius": "x", "dim": 2}, ("radius",)))
@example(call=(ScalarHuber, {"eps": None}, ("eps",)))
@settings(derandomize=True, max_examples=500, deadline=None)
@given(call=_CALLS)
def test_every_constructor_refuses_or_builds_a_working_object(call):
    build, kwargs, names = call
    boolean = any(isinstance(value, (bool, np.bool_)) for value in kwargs.values())
    by_rule = boolean or _CONFIG_ARGUMENTS & set(kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            built = build(**kwargs)
        except ValueError as err:
            assert any(name in str(err) for name in names), f"{build.__name__}: {err}"
            assert isinstance(err, ConfigError) or not by_rule, repr(err)
            return
        assert not boolean, f"{build.__name__} built from a boolean: {kwargs}"
        if isinstance(built, Tableau):
            assert np.isfinite(certificate(built, 2.0, 1).z).all()
            return
        for part in _parts(built):
            _assert_works_at_zero(part)



# library function: (callable, {scalar argument: valid value})
_FUNCTIONS = {
    "StepSchedule": (StepSchedule, {"c": 2.0, "delta": 1.0}),
    "certificate": (partial(certificate, builtin("rk4")), {"c": 2.0, "k": 1}),
    "certificate_decay": (partial(certificate_decay, builtin("rk4"), 2.0), {"k_max": 3}),
    "rate_constants": (partial(rate_constants, builtin("rk4")),
                       {"c": 2.0, "L": 1.0, "diam": 2.0, "h_x0": 0.0}),
    "continuous_bound": (partial(continuous_bound, t=1.0), {"c": 2.0}),
    "schedule_bound": (partial(schedule_bound, StepSchedule().gamma), {"t": 1.0}),
    "check_zigzag_settings": (partial(check_zigzag_settings, steps=10), {"W": 2, "T": 10.0}),
    "check_gradient": (partial(check_gradient, QuadraticDistance([0.0]), [1.0]), {"h": 1e-5}),
}
_SCALAR_ARGUMENTS = [(name, key) for name, (_, valid) in _FUNCTIONS.items() for key in valid]


def _outcome(function, kwargs):
    """function(**kwargs) pickled, so bit for bit, or the message of the ValueError it raised."""
    try:
        return pickle.dumps(function(**kwargs))
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("name, key", _SCALAR_ARGUMENTS,
                         ids=[f"{name}-{key}" for name, key in _SCALAR_ARGUMENTS])
def test_scalar_arguments_are_read_by_the_number_rule(name, key):
    # a boolean, a non-number and None are refused by name, and "2" is read as 2 is
    function, valid = _FUNCTIONS[name]
    for value in (True, "x", None):
        message = rf"\b{key} must be a number, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            function(**{**valid, key: value})
    assert _outcome(function, {**valid, key: "2"}) == _outcome(function, {**valid, key: 2})
