import hashlib
import io

import numpy as np
import pytest

from fwflow.geometry import Box
from fwflow.objectives import QuadraticDistance
from fwflow.problems import scalar_box, triangle
from fwflow.solvers import (
    METHODS,
    StepSchedule,
    Trajectory,
    _descent_gamma,
    flow_step,
    fw_gap,
    fw_step,
    momentum_step,
    rk_step,
    run,
)
from fwflow.tableau import builtin

BOX = Box(-1.0, 1.0, dim=1)
HALF_SQUARE = QuadraticDistance(target=[0.0])  # f(x) = x^2/2 in 1-D


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


class TestSteps:
    def test_fw_step_hand_value(self):
        # s = -sign(0.3) = -1, gamma = 2/3 at k=1
        x1 = fw_step(HALF_SQUARE, BOX, [0.3], 1, StepSchedule(c=2.0))
        assert x1[0] == pytest.approx(-0.5667, abs=1e-4)

    def test_fw_fixed_point(self):
        # target outside the box: at x=1 the LMO returns 1 = x, step is a no-op
        obj = QuadraticDistance(target=[2.0])
        x1 = fw_step(obj, BOX, [1.0], 3, StepSchedule(c=2.0))
        assert x1[0] == 1.0

    def test_fw_infeasible_input(self):
        with pytest.raises(ValueError):
            fw_step(HALF_SQUARE, BOX, [2.0], 0, StepSchedule())

    def test_flow_step_hand_value(self):
        x1 = flow_step(HALF_SQUARE, BOX, [0.3], 1.0, StepSchedule(c=2.0, delta=0.1))
        assert x1[0] == pytest.approx(0.3 + 0.1 * (2 / 3) * (-1.3))

    def test_flow_unit_delta_matches_fw(self):
        sched = StepSchedule(c=2.0, delta=1.0)
        for k in range(5):
            a = fw_step(HALF_SQUARE, BOX, [0.3], k, sched)
            b = flow_step(HALF_SQUARE, BOX, [0.3], float(k), sched)
            assert a[0] == b[0]

    def test_rk_euler_matches_fw(self):
        sched = StepSchedule(c=2.0)
        x_fw = fw_step(HALF_SQUARE, BOX, [0.3], 1, sched)
        x_rk, _ = rk_step(HALF_SQUARE, BOX, [0.3], 1, sched, builtin("euler"))
        assert x_fw[0] == x_rk[0]

    def test_rk_midpoint_hand_value(self):
        x1, state = rk_step(HALF_SQUARE, BOX, [0.3], 1, StepSchedule(c=2.0), builtin("midpoint"))
        assert state.xi[0][0] == pytest.approx(-0.8667, abs=1e-4)
        assert state.xbar[1][0] == pytest.approx(-0.1333, abs=1e-4)
        assert x1[0] == pytest.approx(0.9476, abs=1e-4)

    def test_rk_requires_k_positive(self):
        with pytest.raises(ValueError):
            rk_step(HALF_SQUARE, BOX, [0.3], 0, StepSchedule(), builtin("rk4"))

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
                x, state = rk_step(p.objective, p.feasible_set, x, k, sched, t)
                for xi in state.xi:
                    assert np.linalg.norm(xi) <= cap + 1e-9


class TestGap:
    def test_zero_at_minimizer(self):
        assert fw_gap(HALF_SQUARE, BOX, [0.0]) == 0.0

    def test_hand_value(self):
        assert fw_gap(HALF_SQUARE, BOX, [0.3]) == pytest.approx(0.39)

    def test_upper_bounds_suboptimality(self):
        p = triangle()
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            x = w @ p.feasible_set.vertices
            gap = fw_gap(p.objective, p.feasible_set, x)
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


class TestMomentum:
    def test_first_step_matches_fw(self):
        sched = StepSchedule(c=2.0)
        x_fw = fw_step(HALF_SQUARE, BOX, [0.3], 0, sched)
        x_m, m = momentum_step(HALF_SQUARE, BOX, [0.3], [0.0], 0, sched)
        assert x_m[0] == x_fw[0]
        assert m[0] == pytest.approx(0.3)

    def test_stationary_average(self):
        g = HALF_SQUARE.gradient([0.3])
        _, m = momentum_step(HALF_SQUARE, BOX, [0.3], g, 5, StepSchedule())
        assert m[0] == pytest.approx(g[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            momentum_step(HALF_SQUARE, BOX, [0.3], [0.0, 0.0], 0, StepSchedule())


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
