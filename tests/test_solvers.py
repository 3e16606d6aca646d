import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwflow import solvers
from fwflow.diagnostics import lower_bound_probe, slope_fit
from fwflow.geometry import FEASIBILITY_TOL, Box, NuclearBall, VertexHull, contains
from fwflow.objectives import QuadraticDistance
from fwflow.problems import (
    lowrank_huber,
    scalar_box,
    scalar_huber,
    sensing_least_squares,
    sensing_logistic,
    triangle,
)
from fwflow.solvers import (
    MAX_RECORD_BYTES,
    METHODS,
    StepSchedule,
    Trajectory,
    _descent_gamma,
    run,
    step,
)
from fwflow.tableau import ConfigError, builtin, builtin_names, validate

BOX = Box(-1.0, 1.0, dim=1)
HALF_SQUARE = QuadraticDistance(target=[0.0])  # f(x) = x^2/2 in 1-D
EULER = builtin("euler")


def _reference_fw_step(obj, fset, x, k, sched):
    """One vanilla Frank-Wolfe step, x + gamma(k) (s - x), from a feasible x."""
    x = np.asarray(x, dtype=float)
    if fset.violation(x) > 1e-9:
        raise ValueError("iterate is outside the feasible set")
    return x + sched.gamma(k) * (fset.lmo(obj.gradient(x)) - x)


def _reference_flow_step(obj, fset, x, t, sched):
    """Euler step of the flow, x + delta gamma(t) (s - x), from a feasible x."""
    x = np.asarray(x, dtype=float)
    if fset.violation(x) > 1e-9:
        raise ValueError("iterate is outside the feasible set")
    return x + sched.delta * sched.gamma(t) * (fset.lmo(obj.gradient(x)) - x)


def _reference_rk_step(obj, fset, x, time, sched, t):
    """The RK stage loop written out; returns (x_next, xi, xbar) so tests can see the stages.

    Stage i evaluates the LMO at xbar_i = x + sum_j A_ij xi_j and sets
    xi_i = gamma_tilde_i (s_i - xbar_i) with the one schedule rule
    gamma_tilde_i = delta (c/(c + time + omega_i delta)); at delta = 1 and
    time = k this is c/(c+k+omega_i).
    """
    gamma_tilde = sched.delta * (sched.c / (sched.c + time + t.omega * sched.delta))
    x = np.asarray(x, dtype=float)
    xi, xbar = [], []
    for i in range(t.q):
        xb = x.copy()
        for j in range(i):
            if t.A[i, j] != 0.0:
                xb = xb + t.A[i, j] * xi[j]
        xi.append(gamma_tilde[i] * (fset.lmo(obj.gradient(xb)) - xb))
        xbar.append(xb)
    incr = t.beta[0] * xi[0]
    for i in range(1, t.q):
        incr = incr + t.beta[i] * xi[i]
    return x + incr, xi, xbar


def _reference_momentum_step(obj, fset, x, m, k, sched):
    """One momentum FW step: the LMO sees m = (1 - d) m + d grad(x) with d = 2/(k+2).

    Returns (x + gamma(k) (lmo(m) - x), m).
    """
    x = np.asarray(x, dtype=float)
    d = 2.0 / (k + 2.0)
    m = (1.0 - d) * m + d * obj.gradient(x)
    return x + sched.gamma(k) * (fset.lmo(m) - x), m


class TestSchedule:
    def test_gamma_values(self):
        assert StepSchedule(c=2.0).gamma(0) == 1.0
        assert StepSchedule(c=2.0).gamma(2) == 0.5
        assert StepSchedule(c=1.0).gamma(9) == pytest.approx(0.1)
        # a flow time t = k * delta gives the same coefficient as the index k
        assert StepSchedule(c=2.5).gamma(7.0) == StepSchedule(c=2.5).gamma(7)

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            StepSchedule(c=0.5)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            StepSchedule(delta=0.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_c(self, c):
        with pytest.raises(ConfigError, match="must be >= 1 and finite"):
            StepSchedule(c=c)

    @pytest.mark.parametrize("k", [-1, -0.5, np.nan, np.inf, -np.inf])
    def test_gamma_rejects_negative_or_non_finite_index(self, k):
        with pytest.raises(ValueError, match=f"iteration index must be >= 0 and finite, got {k}"):
            StepSchedule(c=2.0).gamma(k)

    def test_gamma_at_zero_and_large_index(self):
        assert StepSchedule(c=2.0).gamma(0.0) == 1.0
        assert StepSchedule(c=2.0).gamma(1e300) == 2.0 / (2.0 + 1e300)


class TestSteps:
    def test_fw_step_hand_value(self):
        # s = -sign(0.3) = -1, gamma = 2/3 at k=1
        x1 = step(HALF_SQUARE, BOX, [0.3], 1, StepSchedule(c=2.0), EULER)
        assert x1[0] == pytest.approx(-0.5667, abs=1e-4)

    def test_fw_fixed_point(self):
        # target outside the box: at x=1 the LMO returns 1 = x, step is a no-op
        obj = QuadraticDistance(target=[2.0])
        x1 = step(obj, BOX, [1.0], 3, StepSchedule(c=2.0), EULER)
        assert x1[0] == 1.0

    def test_flow_step_hand_value(self):
        x1 = step(HALF_SQUARE, BOX, [0.3], 1.0, StepSchedule(c=2.0, delta=0.1), EULER)
        assert x1[0] == pytest.approx(0.3 + 0.1 * (2 / 3) * (-1.3))

    def test_flow_unit_delta_matches_fw(self):
        sched = StepSchedule(c=2.0, delta=1.0)
        for k in range(5):
            a = _reference_fw_step(HALF_SQUARE, BOX, [0.3], k, sched)
            b = step(HALF_SQUARE, BOX, [0.3], float(k), sched, EULER)
            assert a[0] == b[0]

    def test_rk_euler_matches_fw(self):
        sched = StepSchedule(c=2.0)
        x_fw = _reference_fw_step(HALF_SQUARE, BOX, [0.3], 1, sched)
        x_rk = step(HALF_SQUARE, BOX, [0.3], 1, sched, EULER)
        assert x_fw[0] == x_rk[0]

    def test_rk_midpoint_hand_value(self):
        args = (HALF_SQUARE, BOX, [0.3], 1, StepSchedule(c=2.0), builtin("midpoint"))
        x1, xi, xbar = _reference_rk_step(*args)
        assert np.array_equal(x1, step(*args))
        assert xi[0][0] == pytest.approx(-0.8667, abs=1e-4)
        assert xbar[1][0] == pytest.approx(-0.1333, abs=1e-4)
        assert x1[0] == pytest.approx(0.9476, abs=1e-4)

    def test_step_requires_finite_time_at_least_0(self):
        for t in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="step time t must be >= 0 and finite"):
                step(HALF_SQUARE, BOX, [0.3], t, StepSchedule(), builtin("rk4"))

    def test_step_rejects_non_finite_iterate(self):
        with pytest.raises(ValueError, match="iterate has non-finite entries"):
            step(HALF_SQUARE, BOX, [np.nan], 1, StepSchedule(), EULER)

    def test_rk_stage_boundedness(self):
        from fwflow.tableau import rate_constants

        p = triangle()
        sched = StepSchedule(c=2.0)
        for name in ("midpoint", "rk4", "rk38", "rk5"):
            t = builtin(name)
            rc = rate_constants(t, 2.0, p.objective.smoothness, p.feasible_set.diameter())
            x = p.x0.copy()
            for k in range(1, 30):
                cap = sched.gamma(1) * t.q * rc.p_max * p.feasible_set.diameter()
                args = (p.objective, p.feasible_set, x, k, sched, t)
                x, xi, _ = _reference_rk_step(*args)
                assert np.array_equal(x, step(*args))
                for xi_i in xi:
                    assert np.linalg.norm(xi_i) <= cap + 1e-9


@pytest.mark.parametrize("builder", [scalar_box, triangle, sensing_logistic])
@pytest.mark.parametrize("name", builtin_names())
def test_rk_step_matches_reference(builder, name):
    # the reference reads A, beta and gamma_tilde as numpy scalars; step reads floats
    p, t, sched = builder(), builtin(name), StepSchedule(c=2.0)
    x = np.asarray(p.x0, dtype=float)
    for k in range(1, 201):
        args = (p.objective, p.feasible_set, x, k, sched, t)
        x = step(*args)
        assert np.array_equal(x, _reference_rk_step(*args)[0])


class TestGap:
    """The gap grad(x) . (x - s) that run() records in row 0 and writes to the CSV."""

    @staticmethod
    def gap(obj, fset, x):
        return run(obj, fset, x, "fw", StepSchedule(), 1).gap[0]

    def test_zero_at_minimizer(self):
        assert self.gap(HALF_SQUARE, BOX, [0.0]) == 0.0

    def test_hand_value(self):
        assert self.gap(HALF_SQUARE, BOX, [0.3]) == pytest.approx(0.39)

    def test_upper_bounds_suboptimality(self):
        p = triangle()
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            x = w @ p.feasible_set.vertices
            gap = self.gap(p.objective, p.feasible_set, x)
            assert gap >= p.objective.value(x) - p.f_star - 1e-12


def _vec(*v):
    return np.array(v, dtype=float)


class TestLineSearch:
    """The descent step of the +linesearch solvers."""

    def test_steps_to_the_exact_minimizer(self):
        # f = (x - 0.2)^2/2 from x=1 along d=-1: f(1-g) <= f(1) iff g <= 1.6, so the step is
        # the midpoint 0.8 of the sublevel interval, the exact minimizer
        obj = QuadraticDistance(target=[0.2])
        assert _descent_gamma(obj, _vec(1.0), _vec(-1.0)) == pytest.approx(0.8, abs=1e-12)

    def test_ascent_direction_falls_back(self):
        # along an ascent direction the sublevel boundary is at 0: no uphill step
        obj = QuadraticDistance(target=[0.0])
        g = _descent_gamma(obj, _vec(1.0), _vec(1.0))
        assert g == pytest.approx(0.0, abs=1e-13)

    def test_zero_direction(self):
        obj = QuadraticDistance(target=[0.0])
        assert _descent_gamma(obj, _vec(0.5), _vec(0.0)) == 1.0

    def test_sublevel_boundary(self):
        # f = x^2/2 from x=1 along d=-1: f(1-g) <= f(1) iff g <= 2, so the step is the
        # full step 1, the exact minimizer
        obj = QuadraticDistance(target=[0.0])
        assert _descent_gamma(obj, _vec(1.0), _vec(-1.0)) == 1.0
        # from x=1 along d=-4: f(1-4g) <= f(1) iff g <= 0.5; the midpoint 0.25
        # of the sublevel interval is the exact minimizer
        g = _descent_gamma(obj, _vec(1.0), _vec(-4.0))
        assert g == pytest.approx(0.25, abs=1e-12)


def _reference_descent_gamma(obj, x, d) -> float:
    """The line search as it stands, kept verbatim: min(1, gamma_bar / 2) by bisection on [0, 2]."""
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


class _RecordedValue:
    """An objective's value function that records the bytes of every point it is called at."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def value(self, x):
        self.calls.append(np.asarray(x, dtype=float).tobytes())
        return self.f(x)


def _logsumexp(z):
    top = z.max()
    return float(top + np.log(np.exp(z - top).sum()))


_COORD = st.floats(-10.0, 10.0, allow_nan=False)
_WEIGHT = st.floats(0.01, 10.0)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(("quadratic", "logsumexp", "abs")),
    dim=st.integers(1, 4),
    zero_direction=st.booleans(),
    data=st.data(),
)
def test_descent_gamma_matches_reference(kind, dim, zero_direction, data):
    def vector(elements):
        return np.array(data.draw(st.lists(elements, min_size=dim, max_size=dim)))

    x, center = vector(_COORD), vector(_COORD)
    d = np.zeros(dim) if zero_direction else vector(_COORD)
    if kind == "quadratic":
        w = vector(_WEIGHT)
        f = lambda y: float(0.5 * (w * (y - center) ** 2).sum())  # noqa: E731
    elif kind == "logsumexp":
        f = lambda y: _logsumexp(y - center)  # noqa: E731
    else:
        f = lambda y: float(np.abs(y - center).sum())  # noqa: E731
    new, ref = _RecordedValue(f), _RecordedValue(f)
    got, want = _descent_gamma(new, x, d), _reference_descent_gamma(ref, x, d)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert new.calls == ref.calls


@settings(derandomize=True, max_examples=400, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_descent_gamma_is_the_clipped_minimizer_on_quadratics(dim, data):
    # f = sum w (y - center)^2 / 2 along d is quadratic with slope g = grad f . d and
    # curvature h = d'Hd, so the exact step is min(1, max(0, -g / h)). The slack 1e-14 and
    # the rounding of f, up to ~1e-12 at these ranges, move the sublevel boundary by about
    # their size over |g|, so a direction with a slope below 0.05 has no 1e-10 answer
    def vector(elements):
        return np.array(data.draw(st.lists(elements, min_size=dim, max_size=dim)))

    x, center, d, w = vector(_COORD), vector(_COORD), vector(_COORD), vector(_WEIGHT)
    g, h = float(w * (x - center) @ d), float(w * d @ d)
    assume(abs(g) >= 0.05)
    obj = _RecordedValue(lambda y: float(0.5 * (w * (y - center) ** 2).sum()))
    gamma = _descent_gamma(obj, x, d)
    assert abs(gamma - min(1.0, max(0.0, -g / h))) <= 1e-10
    assert len(obj.calls) <= 62


@pytest.mark.parametrize("builder", [scalar_box, scalar_huber])
def test_fw_linesearch_settles_on_the_scalar_problems(builder):
    # from x0 = 1 the first step along d = s - x0 = -2 is 1/2 up to the slack, which lands
    # on x* = 0, and no later step leaves it by more than the slack allows
    p = builder()
    traj = run(p.objective, p.feasible_set, p.x0, "fw+linesearch", StepSchedule(c=2.0), 300)
    assert np.all(traj.f[1:] <= 1e-14)


class TestMomentum:
    def test_first_step_matches_fw(self):
        # at k = 0 the average weighs the gradient by d = 1, so the LMO sees what fw's sees
        fw, mom = (run(HALF_SQUARE, BOX, [0.3], method, StepSchedule(c=2.0), 1)
                   for method in ("fw", "fw+momentum"))
        assert mom.x[1][0] == fw.x[1][0]


class TestRun:
    def test_record_count(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 10)
        assert len(traj) == 11
        assert traj[0].k == 0 and traj[-1].k == 10
        np.testing.assert_allclose(traj.k, np.arange(11))

    @pytest.mark.parametrize("method", ["fw", "rk"])
    @pytest.mark.parametrize(
        "builder, shape",
        [(scalar_box, (1, 1)), (triangle, (2, 1)), (triangle, (1, 2)), (lowrank_huber, (20, 15))],
        ids=["scalar_box-1x1", "triangle-2x1", "triangle-1x2", "lowrank_huber-20x15"],
    )
    def test_x0_of_any_shape_runs_as_the_flat_x0(self, builder, shape, method):
        # every oracle flattens its input, and so does run(): NuclearBall's points are
        # matrices flattened row-major, so lowrank_huber's 20x15 start is its 300-vector
        p = builder()
        tab = builtin("rk4") if method == "rk" else None

        def csv(x0):
            traj = run(p.objective, p.feasible_set, x0, method, StepSchedule(), 3, tableau=tab)
            buf = io.StringIO()
            traj.to_csv(buf)
            return traj, buf.getvalue()

        flat, want = csv(p.x0)
        traj, got = csv(p.x0.reshape(shape))
        assert got == want
        assert traj.x.shape == (4, p.x0.size) and traj.x.tobytes() == flat.x.tobytes()

    def test_max_iter_boundary(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 0)

    @pytest.mark.parametrize(
        "max_iter, message",
        [(0, "max_iter must be >= 1, got 0"), (2.5, "max_iter must be an integer, got 2.5"),
         (math.nan, "max_iter must be an integer, got nan"),
         (True, "max_iter must be a number, got True")],
        ids=["0", "fractional", "nan", "boolean"],
    )
    def test_max_iter_read_as_an_integer(self, monkeypatch, max_iter, message):
        # a fractional or nan max_iter used to pass check_settings and fail in np.empty
        p = triangle()
        monkeypatch.setattr(solvers.np, "empty", lambda *a, **k: pytest.fail("allocated"))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            solvers.check_settings("fw", StepSchedule(), max_iter, 2)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), max_iter)

    def test_whole_float_max_iter_runs_as_int(self):
        p = triangle()
        want = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 5)
        got = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 5.0)
        assert got.x.tobytes() == want.x.tobytes() and got.f.tobytes() == want.f.tobytes()

    @pytest.mark.parametrize("max_iter", [MAX_RECORD_BYTES // 40, 10**302],
                             ids=["cap-plus-1", "1e302"])
    def test_max_iter_above_cap_rejected_before_allocating(self, monkeypatch, max_iter):
        # run() reserves every row before its first step, so the cap must be checked before
        # np.empty: 10**302 rows cannot be allocated, and a record one row over the cap could
        # be. A row of triangle()'s record is 2 + 3 floats, 40 bytes
        p = triangle()
        monkeypatch.setattr(solvers.np, "empty", lambda *a, **k: pytest.fail("allocated"))
        obj = _Counting(p.objective, "gradient", "value")
        fset = _Counting(p.feasible_set, "lmo", "violation")
        rows = MAX_RECORD_BYTES // 40
        with pytest.raises(ConfigError, match=f"^max_iter must be < {rows} for 2-entry iterates"):
            run(obj, fset, p.x0, "fw", StepSchedule(), max_iter)
        assert obj.calls == {"gradient": 0, "value": 0} and fset.calls == {"lmo": 0, "violation": 0}
        solvers.check_settings("fw", StepSchedule(), rows - 1, 2)  # the cap itself is allowed

    @pytest.mark.parametrize("size", [1, 2, 100, 300, 30_000, MAX_RECORD_BYTES // 8 - 3])
    def test_record_cap_counts_bytes(self, size):
        # (max_iter + 1) rows of size + 3 floats must fit in MAX_RECORD_BYTES
        def fits(max_iter):
            return (max_iter + 1) * (size + 3) * 8 <= MAX_RECORD_BYTES

        most = MAX_RECORD_BYTES // (8 * (size + 3)) - 1
        assert fits(most) and not fits(most + 1)
        if most >= 1:
            solvers.check_settings("fw", StepSchedule(), most, size)
        with pytest.raises(ConfigError, match=f"^max_iter must be < {most + 1} for {size}-entry"):
            solvers.check_settings("fw", StepSchedule(), most + 1, size)

    @pytest.mark.parametrize(
        "method, delta, max_iter, size",
        [("flow", 0.001, 50_000, 2), ("flow", 0.01, 30_000, 100), ("fw", 1.0, 100, 30_000)],
        ids=["fig1", "logistic-zigzag", "lowrank-nuclear"],
    )
    def test_record_cap_admits_largest_runs(self, method, delta, max_iter, size):
        # fig1's longest flow, and the largest records of the benchmark's workloads
        solvers.check_settings(method, StepSchedule(delta=delta), max_iter, size)

    def test_infeasible_start(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, [5.0, 5.0], "fw", StepSchedule(), 5)

    @pytest.mark.parametrize(
        "slack, inside",
        [(FEASIBILITY_TOL, True), (float(np.nextafter(FEASIBILITY_TOL, 1.0)), False)],
        ids=["at-tol", "above-tol"],
    )
    def test_start_checked_as_contains_does(self, slack, inside):
        # one tolerance and one rule, violation <= FEASIBILITY_TOL, read with one violation call
        fset = _FixedSlack(slack)
        assert contains(fset, [0.5]) is inside
        fset.calls = 0
        if inside:
            run(HALF_SQUARE, fset, [0.5], "fw", StepSchedule(), 1)
            assert fset.calls == 3  # x0, then one per recorded row
        else:
            with pytest.raises(ConfigError, match="^x0 is outside the feasible set$"):
                run(HALF_SQUARE, fset, [0.5], "fw", StepSchedule(), 1)
            assert fset.calls == 1

    def test_unknown_method(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, p.x0, "newton", StepSchedule(), 5)

    def test_rk_needs_tableau(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, p.x0, "rk", StepSchedule(), 5)

    def test_nan_stop_gap_rejected(self):
        # a nan stop_gap would silently turn the stop test off
        p = triangle()
        with pytest.raises(ConfigError, match="stop_gap must be a number, got nan"):
            run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 5, stop_gap=np.nan)

    def test_stop_gap(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 10000, stop_gap=1e-3)
        assert len(traj) < 10001
        assert traj.gap[-1] <= 1e-3
        # stop_gap trims every column to the recorded rows
        n = len(traj)
        assert traj.x.shape == (n, 2)
        assert traj.f.shape == traj.gap.shape == traj.violation.shape == (n,)
        assert traj.k.shape == traj.t.shape == (n,) and traj[-1].k == n - 1

    def test_fw_iterates_feasible(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 200)
        assert traj.violation.max() <= 1e-9

    def test_linesearch_monotone(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "fw+linesearch", StepSchedule(), 300)
        assert np.all(np.diff(traj.f) <= 1e-14)

    def test_momentum_beats_vanilla(self):
        p = triangle()
        sched = StepSchedule(c=2.0)
        f_fw = run(p.objective, p.feasible_set, p.x0, "fw", sched, 500).f[-1]
        f_m = run(p.objective, p.feasible_set, p.x0, "fw+momentum", sched, 500).f[-1]
        assert f_m < f_fw

    def test_flow_time_axis(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "flow", StepSchedule(delta=0.1), 20)
        assert traj[5].t == pytest.approx(0.5)


class TestTrajectoryCSV:
    def test_header_and_shape(self):
        p = scalar_box()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 3)
        buf = io.StringIO()
        traj.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "iter,t,f,gap,feas_violation"
        assert len(lines) == 5

    def test_round_trip_precision(self, tmp_path):
        p = scalar_box()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 5)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        got = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got[:, 2], traj.f)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    c=st.floats(1.0, 5.0),
    delta=st.floats(0.01, 1.0),
    target=st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
    weights=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
    steps=st.integers(1, 20),
)
def test_run_matches_public_steps(c, delta, target, weights, steps):
    # the references write each rule out; rk runs from t = 1 with the drawn delta
    hull = VertexHull([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    obj = QuadraticDistance(target=target)
    x0 = np.array(weights) / sum(weights) @ hull.vertices

    def same_path(method, step, sched, tableau=None):
        xs, x = [x0], x0
        for k in range(steps):
            x = step(x, k, sched)
            xs.append(x)
        traj = run(obj, hull, x0, method, sched, steps, tableau=tableau)
        # each row's gap and value, written out with @ and .sum()
        gaps, fs = [], []
        for x in xs:
            g = x - obj.target
            s = hull.vertices[int((hull.vertices @ g).argmin())]
            gaps.append(float(g @ (x - s)))
            fs.append(0.5 * float(((x - obj.target) ** 2).sum()))
        return (traj.x.tobytes() == np.array(xs).tobytes()
                and traj.gap.tobytes() == np.array(gaps).tobytes()
                and traj.f.tobytes() == np.array(fs).tobytes())

    sched = StepSchedule(c=c)
    assert same_path("fw", lambda x, k, s: _reference_fw_step(obj, hull, x, k, s), sched)
    flow = StepSchedule(c=c, delta=delta)
    assert same_path(
        "flow", lambda x, k, s: _reference_flow_step(obj, hull, x, k * s.delta, s), flow
    )
    for name in builtin_names():
        t = builtin(name)

        def rk(x, k, s):
            return _reference_rk_step(obj, hull, x, 1 + k * s.delta, s, t)[0]

        assert same_path("rk", rk, flow, t)
    m = [np.zeros(2)]

    def momentum(x, k, s):
        x, m[0] = _reference_momentum_step(obj, hull, x, m[0], k, s)
        return x

    assert same_path("fw+momentum", momentum, sched)

    def linesearch(x, k, s):
        atom = hull.lmo(obj.gradient(x))
        return x + _reference_descent_gamma(obj, x, atom - x) * (atom - x)

    assert same_path("fw+linesearch", linesearch, sched)


def test_run_gap_at_its_own_atom_is_positive_zero():
    # from x1 on, x is the vertex its LMO returns, so each gap is +0 * g with g = -1: that
    # product of one-entry arrays is -0 by ndarray.dot, where @ summed it from +0 to +0
    traj = run(QuadraticDistance([2.0]), BOX, [0.0], "fw", StepSchedule(), 5)
    assert traj.x[1:].tolist() == [[1.0]] * 5
    assert not traj.gap[1:].any() and not np.signbit(traj.gap).any()


def test_fw_update_keeps_negative_zero_on_a_negative_zero_atom():
    # x - coef * (x - s) is x + coef * (s - x) bit for bit but where x and s are both -0:
    # x - s is +0 there, and -0 - coef * (+0) is -0, where -0 + coef * (+0) gave +0
    hull = VertexHull([[-0.0, -0.0], [1.0, 0.0], [0.0, 1.0]])
    traj = run(QuadraticDistance([-0.5, -0.5]), hull, [-0.0, -0.0], "fw", StepSchedule(), 3)
    assert not traj.x.any() and np.signbit(traj.x).all()


class _FixedSlack:
    """BOX, except that every violation reads slack; calls counts them."""

    dim = 1

    def __init__(self, slack):
        self.slack, self.calls = slack, 0

    def lmo(self, gradient):
        return BOX.lmo(gradient)

    def violation(self, point):
        self.calls += 1
        return self.slack


class _Counting:
    """Forwards every attribute of an objective or set, counting calls of the named methods."""

    def __init__(self, wrapped, *names):
        self._wrapped, self.calls = wrapped, dict.fromkeys(names, 0)

    def __getattr__(self, name):
        attr = getattr(self._wrapped, name)
        if name not in self.calls:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)

        return counted


@pytest.mark.parametrize("method, name", [("fw", None), ("flow", None), ("fw+momentum", None),
                                          ("fw+linesearch", None)]
                         + [(method, name) for method in ("rk", "rk+linesearch")
                            for name in builtin_names()])
def test_run_oracle_counts(monkeypatch, method, name):
    # run() over n steps: one gradient and LMO call per record, plus q per rk step and
    # one more LMO per momentum step; one value per record, and as many more as a line
    # search needs; x0's violation check plus one per record; one tableau validation
    # per run plus one per rk step
    p, n = triangle(), 12
    obj = _Counting(p.objective, "gradient", "value")
    fset = _Counting(p.feasible_set, "lmo", "violation")
    validated = []
    monkeypatch.setattr(solvers, "validate", lambda t: validated.append(t) or validate(t))
    t = builtin(name) if name else None
    sched = StepSchedule(c=2.0, delta=0.1 if method == "flow" else 1.0)
    run(obj, fset, p.x0, method, sched, n, tableau=t)
    calls = (t.q + 1) * n + 1 if t else n + 1
    values = obj.calls["value"] if method.endswith("linesearch") else n + 1
    assert obj.calls == {"gradient": calls, "value": values}
    lmos = calls + n if method == "fw+momentum" else calls
    assert fset.calls == {"lmo": lmos, "violation": n + 2}
    assert len(validated) == {"rk": n + 1, "rk+linesearch": 1}.get(method, 0)


def _order_problem():
    """QuadraticDistance to an 8 x 6 rank-3 target plus noise, over the radius-5 nuclear ball.

    At this size the LMO is a dense SVD, and the gradient's top two singular
    values stay apart along the path, so the LMO is smooth where the flow runs.
    """
    rng = np.random.default_rng(0)
    U = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    V = np.linalg.qr(rng.standard_normal((6, 3)))[0]
    target = U @ np.diag([20.0, 8.0, 3.0]) @ V.T + 0.05 * rng.standard_normal((8, 6))
    return QuadraticDistance(target), NuclearBall(5.0, 8, 6)


@pytest.mark.parametrize("name, order", [("euler", 1), ("midpoint", 2), ("rk4", 4),
                                         ("rk38", 4), ("rk5", 5)])
def test_rk_truncation_error_order(name, order):
    # the paper's O(delta^p) claim: self-convergence orders log2(e_i / e_(i+1)) with
    # e_i = |x_T(delta_i) - x_T(delta_(i+1))| at T = 2 over delta = 1/4 ... 1/32
    obj, ball = _order_problem()
    ends = [run(obj, ball, np.zeros(48), "rk", StepSchedule(c=2.0, delta=2.0 / n), n,
                tableau=builtin(name)).x[-1] for n in (8, 16, 32, 64)]
    errs = [np.linalg.norm(a - b) for a, b in zip(ends, ends[1:])]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(abs(p - order) <= 0.3 for p in orders), orders


@pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
def test_triangle_fw_is_one_dimensional_from_step_1(c, request):
    # why acceptance criterion 5 reads a 1/k^2 slope: gamma(0) = 1 puts x1 on the bottom
    # edge, where the top vertex never wins the LMO again (an exact tie goes to the lowest
    # index), so the run is 1-D FW on [-1, 1] toward 0.2, whose distance to x* keeps its 1/k
    # floor while f - f* = |x - x*|^2 / 2 falls like 1/k^2
    p = triangle()
    sched = StepSchedule(c=c)
    n = 10_000
    # at c = 2 these are criterion 5's runs, made once per session by conftest.triangle_runs
    runs = request.getfixturevalue("triangle_runs")[1] if c == 2.0 else {}
    x = runs["fw"].x if runs else run(p.objective, p.feasible_set, p.x0, "fw", sched, n).x
    assert np.all(x[1:, 1] == 0.0)
    assert x[1][0] == 0.9999999999999999  # -0.4 + 1.4 in floats, one ulp below s0 = 1
    y, ys = x[1][0], []
    for k in range(1, n):
        y = y + sched.gamma(k) * ((-1.0 if y >= 0.2 else 1.0) - y)
        ys.append(y)
    assert np.array(ys).tobytes() == x[2:, 0].tobytes()
    if c == 2.0:
        # the contrast: criterion 5's rk runs (at its c) start at t = 1, where every
        # gamma_i < 1, so they never land on the bottom edge
        for name in builtin_names():
            x = runs[name].x
            assert np.all(x[1:, 1] != 0.0) and 0.1 <= np.abs(x[1:, 1]).max() <= 0.19, name


class _LmoCounter:
    """A feasible set whose every violation audit records the LMO calls made before it."""

    def __init__(self, fset):
        self.fset, self.dim, self.calls, self.at_audit = fset, fset.dim, 0, []

    def lmo(self, gradient):
        self.calls += 1
        return self.fset.lmo(gradient)

    def violation(self, point):
        self.at_audit.append(self.calls)
        return self.fset.violation(point)


@pytest.mark.parametrize("c", [2.0, 4.0])
def test_simplex_fw_meets_the_slope_band(c):
    # criterion 5's band where f - f* is linear in the distance to x*: Jaggi's (ICML 2013)
    # instance f = |x|^2 / 2 on the unit simplex in dimension n = 200 from e1, f* = 1/(2n).
    # A step keeps sum x = 1 and adds at most one atom per stage LMO, and a point with
    # sum x = 1 and s nonzero entries has |x|^2 >= 1/s. So row k of a q-stage method has at
    # most qk + 1 atoms and f - f* >= 1/(2(qk + 1)) - 1/(2n), and the same holds in the m
    # LMO calls made before it: the paper's 1/k worst case, for every tableau
    n = 200
    x0 = np.zeros(n)
    x0[0] = 1.0
    obj, simplex, f_star = QuadraticDistance(np.zeros(n)), VertexHull(np.eye(n)), 1 / (2 * n)
    traj = run(obj, simplex, x0, "fw", StepSchedule(c=c), 100)
    assert np.all(traj.f - f_star >= 1 / (2 * (traj.k + 1)) - f_star - 1e-15)
    assert -1.3 <= slope_fit(traj, f_star, k_min=10) <= -0.7
    for name in (None, *builtin_names()):
        t, counter = builtin(name) if name else None, _LmoCounter(simplex)
        traj = run(obj, counter, x0, "rk" if t else "fw", StepSchedule(c=c), 30, tableau=t)
        q = t.q if t else 1
        m = np.array(counter.at_audit[1:]) - 1  # audit 0 checks x0; row k's own gap LMO is last
        assert np.all(np.count_nonzero(traj.x, axis=1) <= q * traj.k + 1), name
        assert np.all(traj.f - f_star >= 1 / (2 * (q * traj.k + 1)) - f_star - 1e-15), name
        assert np.all(traj.f - f_star >= 1 / (2 * (m + 1)) - f_star - 1e-15), name
        assert -1.3 <= slope_fit(traj, f_star, k_min=10) <= -0.7, name


class _StageRecorder:
    """A feasible set that records every LMO vertex, as an exact integer on the scalar box."""

    def __init__(self, fset):
        self.fset, self.dim, self.vertices = fset, fset.dim, []

    def lmo(self, gradient):
        s = self.fset.lmo(gradient)
        self.vertices.append(int(s[0]))
        return s

    def violation(self, point):
        return self.fset.violation(point)


def _exact(entries: np.ndarray) -> np.ndarray:
    """A tableau's float entries as fractions with denominators <= 100, checked bit for bit."""
    fractions = [Fraction(v).limit_denominator(100) for v in entries.ravel().tolist()]
    assert [float(v) for v in fractions] == entries.ravel().tolist()
    return np.array(fractions, dtype=object).reshape(entries.shape)


def _stage_sums(name, c):
    """A 1,040-step rk run on scalar_box(): per step k = 1000..1039 the stage LMO signs s,
    and exactly S1 = sum beta_i s_i and S2 = sum beta_i omega_i s_i / c + sum beta_i (A s)_i;
    then the probe k sup_{k' >= k} |x| at anchors 100 and 1000."""
    t = builtin(name)
    A, beta, omega = _exact(t.A), _exact(t.beta), _exact(t.omega)
    p = scalar_box()
    fset = _StageRecorder(p.feasible_set)
    traj = run(p.objective, fset, p.x0, "rk", StepSchedule(c=float(c)), 1040, tableau=t)
    sums = []
    for k in range(1000, 1040):  # each step records the gap's LMO, then one per stage
        s = np.array(fset.vertices[k * (t.q + 1) + 1:(k + 1) * (t.q + 1)], dtype=object)
        S2 = sum(beta * omega * s) / c + sum(beta * (A @ s))
        sums.append((tuple(s), sum(beta * s), S2))
    return sums, lower_bound_probe(traj, [100, 1000])


@pytest.mark.parametrize("c", [1, Fraction(3, 2), 2, 4], ids=str)
def test_stage_sign_patterns_on_the_scalar_box(c):
    # criterion 6's mechanism: near x* = 0 the stage signs settle, and the drift of a
    # step, gamma S1 - gamma^2 S2 + O(gamma^3), is cancelled to first order by rk4 and
    # rk38, and to second order only by rk38
    runs = {name: _stage_sums(name, c) for name in ("midpoint", "rk4", "rk38", "rk5")}
    (rk4, _), (rk38, _), (rk5, _) = runs["rk4"], runs["rk38"], runs["rk5"]
    pattern = (-1, 1, -1, 1)
    assert {s for s, _, _ in rk4} == {pattern}
    # rk38 settles on the negated pattern at c = 3/2, which leaves S1 = S2 = 0
    assert {s for s, _, _ in rk38} in ({pattern}, {tuple(-v for v in pattern)})
    assert {(S1, S2) for _, S1, S2 in rk38} == {(0, 0)}
    assert {(S1, S2) for _, S1, S2 in rk4} == {(0, Fraction(1, 6 * c) - Fraction(1, 6))}
    first = (-1, -1, -1, 1, -1, 1)
    second = tuple(-v for v in first)
    assert [s for s, _, _ in rk5] in ([first, second] * 20, [second, first] * 20)
    assert {(s, S1) for s, S1, _ in rk5} == {(first, Fraction(-26, 45)),
                                             (second, Fraction(26, 45))}
    assert {abs(S1) for _, S1, _ in runs["midpoint"][0]} == {1}
    # the regime: with S1 = S2 = 0 the drift is O(gamma^3), so for c > 1 |x| escapes the
    # 1/k floor and the probe falls by more than half over a decade; else it holds the floor
    for name, (sums, (probe_100, probe_1000)) in runs.items():
        if c > 1 and {(S1, S2) for _, S1, S2 in sums} == {(0, 0)}:
            assert name == "rk38" and probe_1000 / probe_100 < 0.5
        else:
            assert probe_1000 / probe_100 > 0.5 and probe_1000 >= 0.05


# SHA-256 of to_csv on triangle() with StepSchedule(c=2), 200 steps, delta 0.1
# for flow and rk4 for both rk methods. Any change to the arithmetic of an
# update rule moves its digest.
PINNED_CSV_SHA256 = {
    "fw": "3afbf3a2267272b9f6cf5d56ec4172bf4ce980e0e3e7984b9441acd975b54a17",
    "flow": "3a84f03b7915a6153f71de6de712fa8956e40478e8aea20ac7a3dd7071359b24",
    "rk": "d2c2450d524bcb98726e7b99107446e251cd3e8cac502b9683d7bc2e8611dc91",
    "rk+linesearch": "cd433a8ba8610ea9674053ea5f52f6eca98bc8f65048373411f71ada615b579c",
    "fw+linesearch": "f14edcce3045c665d0b54a515805454b163efd660e2e6a4d615e64f5f92c18d5",
    "fw+momentum": "d7848689df40e4658d54aa07333c93d20d317d6c0bfb85eee7666faf44ae53be",
}


@pytest.mark.parametrize("method", METHODS)
def test_run_csv_digest_pinned(method):
    p = triangle()
    sched = StepSchedule(c=2.0, delta=0.1 if method == "flow" else 1.0)
    tab = builtin("rk4") if method.startswith("rk") else None
    traj = run(p.objective, p.feasible_set, p.x0, method, sched, 200, tableau=tab)
    buf = io.StringIO()
    traj.to_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED_CSV_SHA256[method]


# SHA-256 of to_csv on the seed-0 dense sensing problems with StepSchedule(c=2),
# 50 steps: (builder, method, tableau) -> digest. These pin the dense
# objectives' value and gradient bits along whole runs, including the many
# off-iterate points that the line search probes.
PINNED_DENSE_CSV_SHA256 = {
    (sensing_logistic, "fw", None):
        "adfa63fefe2596d09419eb1173c807489552f668fc2189f8a520408cd60d1553",
    (sensing_logistic, "rk", "rk4"):
        "dc89959aae095fa00cde25c341954a5501961bd0b6cf75ceff9b278a5169ae49",
    (sensing_logistic, "rk", "midpoint"):
        "dbf76b6babeee13d2b3fe259281a817e40437f834a5c883d1bf81e4af26ecacd",
    (sensing_logistic, "fw+linesearch", None):
        "839b7a92fa733e64594d2f793238613e76050cd549adc69550a2dc1ddbbfbd3e",
    (sensing_logistic, "fw+momentum", None):
        "57e0bc4fc8823ceaa99895b0167a07b32ccfaa7b86b9e729feb05b68d41c748a",
    (sensing_least_squares, "fw", None):
        "8560b341eda05ef5541127fb8dbffc964be031448f09d24089ee5f04fb356d99",
    (sensing_least_squares, "rk", "midpoint"):
        "edc99470bb8f316c82960d24b984212fa10bc20d953e60ca3a20a6f3c8a6313d",
    (sensing_least_squares, "rk+linesearch", "midpoint"):
        "ac2590c498dda570b07b49ec41bf96233ef1b1643820945e0fd977656da564c0",
}


@pytest.mark.parametrize(
    "builder, method, tab",
    list(PINNED_DENSE_CSV_SHA256),
    ids=[f"{b.__name__}-{m}-{t or 'none'}" for b, m, t in PINNED_DENSE_CSV_SHA256],
)
def test_dense_run_csv_digest_pinned(builder, method, tab):
    p = builder(seed=0)
    tableau = builtin(tab) if tab else None
    traj = run(p.objective, p.feasible_set, p.x0, method, StepSchedule(c=2.0), 50, tableau=tableau)
    buf = io.StringIO()
    traj.to_csv(buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED_DENSE_CSV_SHA256[builder, method, tab]


# SHA-256 of to_csv on lowrank_huber(users=200, items=150, rank=5, seed=0) with
# StepSchedule(c=2): fw for 20 steps, and rk with midpoint for 10. These pin the nuclear
# LMO's power iteration and the SVD audit at the size perfbench's lowrank-nuclear runs.
# BLAS splits a matrix-vector product of this size across threads, which moves its last
# bits, so the runs take place in a fresh interpreter with one BLAS thread, as perfbench's.
PINNED_NUCLEAR_CSV_SHA256 = {
    "fw": "b65133ea07353c1afce6fc613974af78a126c6245e03adb02f4c8ffaa5b79604",
    "rk": "a41b064750d66b8d33a8b394c531f9c60f10aa5107d2b4bdfdb9b6c0e2b75fb6",
}

_NUCLEAR_PROBE = """
import hashlib, io, json
from fwflow.problems import lowrank_huber
from fwflow.solvers import StepSchedule, run
from fwflow.tableau import builtin
p = lowrank_huber(users=200, items=150, rank=5, seed=0)
digests = {}
for method, tableau, n in (("fw", None, 20), ("rk", builtin("midpoint"), 10)):
    traj = run(p.objective, p.feasible_set, p.x0, method, StepSchedule(c=2.0), n, tableau=tableau)
    buf = io.StringIO()
    traj.to_csv(buf)
    digests[method] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(digests))
"""


def test_nuclear_run_csv_digest_pinned():
    one_thread = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")}
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NUCLEAR_PROBE],
        env={**os.environ, **one_thread, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(proc.stdout) == PINNED_NUCLEAR_CSV_SHA256
