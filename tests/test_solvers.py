import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwflow import solvers
from fwflow.geometry import Box, NuclearBall, VertexHull
from fwflow.objectives import QuadraticDistance
from fwflow.problems import scalar_box, sensing_least_squares, sensing_logistic, triangle
from fwflow.solvers import (
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

    def test_clips_to_one(self):
        obj = QuadraticDistance(target=[0.2])
        assert _descent_gamma(obj, _vec(1.0), _vec(-1.0), 1000) == 1.0

    def test_ascent_direction_falls_back(self):
        # probing falls back below 2/(2+k) to the sublevel boundary at 0: no uphill step
        obj = QuadraticDistance(target=[0.0])
        g = _descent_gamma(obj, _vec(1.0), _vec(1.0), 8)
        assert g == pytest.approx(0.0, abs=1e-13)

    def test_zero_direction(self):
        obj = QuadraticDistance(target=[0.0])
        assert _descent_gamma(obj, _vec(0.5), _vec(0.0), 3) == 1.0

    def test_sublevel_boundary(self):
        # f = x^2/2 from x=1 along d=-1: f(1-g) <= f(1) iff g <= 2, so the step clips
        obj = QuadraticDistance(target=[0.0])
        assert _descent_gamma(obj, _vec(1.0), _vec(-1.0), 1000) == 1.0
        # from x=1 along d=-4: f(1-4g) <= f(1) iff g <= 0.5; the midpoint 0.25
        # of the sublevel interval is the exact minimizer
        g = _descent_gamma(obj, _vec(1.0), _vec(-4.0), 1000)
        assert g == pytest.approx(0.25, abs=1e-12)


def _reference_sublevel_max(obj, x, d, k: int, slack: float = 1e-14):
    """Largest gamma in [0, 1] keeping f(x + gamma d) <= f(x) + slack.

    Exponential probing doubles from 2/(2+k) up to 1, then 60 bisection steps
    pin the sublevel boundary. Returns (gamma_bar, hit_upper_clip).
    """
    fx = obj.value(x)

    def ok(g):
        return obj.value(x + g * d) <= fx + slack

    g = min(2.0 / (2.0 + k), 1.0)
    if not ok(g):
        lo, hi = 0.0, g
    else:
        lo = g
        while lo < 1.0:
            g = min(1.0, 2.0 * g)
            if ok(g):
                lo = g
            else:
                break
        if lo >= 1.0:
            return 1.0, True
        hi = g
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo, False


def _reference_descent_gamma(obj, x, d, k: int) -> float:
    """The earlier two-function line search, kept verbatim with _reference_sublevel_max."""
    gamma_bar, clipped = _reference_sublevel_max(obj, x, d, k)
    return gamma_bar if clipped else 0.5 * gamma_bar


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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(("quadratic", "logsumexp", "abs")),
    dim=st.integers(1, 4),
    zero_direction=st.booleans(),
    k=st.integers(0, 2000),
    data=st.data(),
)
def test_descent_gamma_matches_reference(kind, dim, zero_direction, k, data):
    def vector(elements):
        return np.array(data.draw(st.lists(elements, min_size=dim, max_size=dim)))

    x, center = vector(_COORD), vector(_COORD)
    d = np.zeros(dim) if zero_direction else vector(_COORD)
    if kind == "quadratic":
        w = vector(st.floats(0.01, 10.0))
        f = lambda y: float(0.5 * (w * (y - center) ** 2).sum())  # noqa: E731
    elif kind == "logsumexp":
        f = lambda y: _logsumexp(y - center)  # noqa: E731
    else:
        f = lambda y: float(np.abs(y - center).sum())  # noqa: E731
    new, ref = _RecordedValue(f), _RecordedValue(f)
    got, want = _descent_gamma(new, x, d, k), _reference_descent_gamma(ref, x, d, k)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert new.calls == ref.calls


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

    def test_max_iter_boundary(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 0)

    def test_infeasible_start(self):
        p = triangle()
        with pytest.raises(ValueError):
            run(p.objective, p.feasible_set, [5.0, 5.0], "fw", StepSchedule(), 5)

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
        return traj.x.tobytes() == np.array(xs).tobytes()

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


# SHA-256 of to_csv on triangle() with StepSchedule(c=2), 200 steps, delta 0.1
# for flow and rk4 for both rk methods. Any change to the arithmetic of an
# update rule moves its digest.
PINNED_CSV_SHA256 = {
    "fw": "3afbf3a2267272b9f6cf5d56ec4172bf4ce980e0e3e7984b9441acd975b54a17",
    "flow": "3a84f03b7915a6153f71de6de712fa8956e40478e8aea20ac7a3dd7071359b24",
    "rk": "d2c2450d524bcb98726e7b99107446e251cd3e8cac502b9683d7bc2e8611dc91",
    "rk+linesearch": "cd433a8ba8610ea9674053ea5f52f6eca98bc8f65048373411f71ada615b579c",
    "fw+linesearch": "d0cd6e853ad2d07912ac9ddc700dde1e50be87f1f7536bac107f324b318509a0",
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
        "4f11ab2c80f325b462e1ba0c1ca723f3f3649a354881a076fd58aaf581c5ef1d",
    (sensing_logistic, "fw+momentum", None):
        "57e0bc4fc8823ceaa99895b0167a07b32ccfaa7b86b9e729feb05b68d41c748a",
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
