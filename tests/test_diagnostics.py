import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fwflow.diagnostics import (
    check_zigzag_settings,
    continuous_bound,
    lower_bound_probe,
    schedule_bound,
    slope_fit,
    zigzag_energy,
    zigzag_protocol,
)
from fwflow.problems import scalar_box, triangle
from fwflow.solvers import StepSchedule, Trajectory, run
from fwflow.tableau import ConfigError


def _synthetic_traj(xs, delta=1.0):
    n = len(xs)
    x = np.array(xs, dtype=float)
    return Trajectory(x=x, f=np.zeros(n), gap=np.zeros(n), violation=np.zeros(n), delta=delta)


class TestZigzagEnergy:
    def test_collinear_is_zero(self):
        pts = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        assert zigzag_energy(pts) == 0.0

    def test_alternating_is_one(self):
        pts = [(0, 0), (1, 1), (2, 0), (3, 1), (4, 0)]
        assert zigzag_energy(pts) == pytest.approx(1.0)

    def test_stalled_window(self):
        pts = [(0.5, 0.5)] * 5
        assert zigzag_energy(pts) == 0.0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            zigzag_energy([(0, 0), (1, 0)])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((6, 3))
        # random orthogonal matrix via QR
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        assert zigzag_energy(pts @ Q.T) == pytest.approx(zigzag_energy(pts))


class TestZigzagProtocol:
    def test_straight_line(self):
        xs = [(k, 0.0) for k in range(21)]
        per_window = zigzag_protocol(_synthetic_traj(xs), W=5, T=20.0)
        assert per_window.mean() == 0.0
        assert len(per_window) == 4

    def test_window_count(self):
        xs = [(float(k), 0.0) for k in range(101)]
        assert len(zigzag_protocol(_synthetic_traj(xs), W=20, T=100.0)) == 5

    def test_too_short(self):
        xs = [(0.0,), (1.0,), (2.0,)]
        message = "a run of 2 steps over T = 3 is shorter than one window W = 5"
        with pytest.raises(ConfigError, match=message):
            zigzag_protocol(_synthetic_traj(xs), W=5, T=3.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            zigzag_protocol(_synthetic_traj([(0.0,)] * 10), W=1, T=9.0)


class TestBounds:
    def test_continuous_values(self):
        assert continuous_bound(1.0, 0.0) == 1.0
        assert continuous_bound(2.0, 2.0) == pytest.approx(0.25)
        assert continuous_bound(4.0, 96.0) == pytest.approx(2.56e-6)

    @pytest.mark.parametrize("c", [3.0, 4.0])
    def test_continuous_list_is_the_scalar_bounds_bit_for_bit(self, c):
        # times of fig1's finest flow run, where numpy's ** would move thousands of bits
        times = (np.arange(50001) * 0.001).tolist() + [0, 7, 1e300]
        got = continuous_bound(c, times)
        assert type(got) is list and len(got) == len(times)
        want = [continuous_bound(c, t) for t in times]
        assert np.array_equal(np.array(got).view(np.int64), np.array(want).view(np.int64))
        assert want == [(c / (c + t)) ** c for t in times]  # Python's float **, not numpy's
        assert type(continuous_bound(c, 1.5)) is float and continuous_bound(c, []) == []

    @pytest.mark.parametrize("sequence", [tuple, np.array], ids=["tuple", "ndarray"])
    def test_continuous_takes_any_sequence_of_times_as_a_list(self, sequence):
        times = (np.arange(5001) * 0.01).tolist() + [7.0, 1e300]
        got = continuous_bound(3.0, sequence(times))
        assert type(got) is list and all(type(bound) is float for bound in got)
        want = np.array(continuous_bound(3.0, times)).view(np.int64)
        assert np.array_equal(np.array(got).view(np.int64), want)

    @pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("good", [[], [0.0, 2.5, 1e6]])
    def test_continuous_list_rejects_a_bad_time_as_the_scalar_call(self, good, bad):
        with pytest.raises(ConfigError) as scalar:
            continuous_bound(2.0, bad)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(scalar.value))}$"):
            continuous_bound(2.0, [*good, bad, -2.0, 3.0])  # the first bad time is named

    def test_continuous_list_checks_c_first(self):
        with pytest.raises(ConfigError, match="^schedule constant c must be >= 1 and finite, "):
            continuous_bound(0.5, [math.nan])

    def test_schedule_constant_gamma(self):
        assert schedule_bound(lambda t: 0.5, 3.0) == pytest.approx(np.exp(-1.5))

    def test_schedule_matches_continuous(self):
        for c in (1.0, 2.0, 4.0):
            for t in (1.0, 10.0, 100.0):
                sb = schedule_bound(lambda tau, c=c: c / (c + tau), t)
                assert sb == pytest.approx(continuous_bound(c, t), abs=1e-8)

    def test_schedule_inverse_square(self):
        # integral of 1/(1+t)^2 over [0, T] -> 1, so the bound -> exp(-1)
        sb = schedule_bound(lambda t: 1.0 / (1.0 + t) ** 2, 1e6)
        assert sb == pytest.approx(np.exp(-1.0), abs=1e-4)

    @pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf"), -float("inf")])
    def test_schedule_rejects_negative_or_non_finite_time(self, t):
        with pytest.raises(ValueError, match=f"time t must be >= 0 and finite, got {t}"):
            schedule_bound(StepSchedule(c=2.0).gamma, t)

    @pytest.mark.parametrize("c", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("t", [0.0, 1.0, 50.0, 1e6, 1e20])
    def test_schedule_converged_value_is_quad_unchanged(self, c, t):
        # quad's result where it converges without a warning, bit for bit
        gamma = StepSchedule(c=c).gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            integral, _ = quad(gamma, 0.0, t, epsabs=1e-10, epsrel=1e-10, limit=200)
            assert schedule_bound(gamma, t) == float(np.exp(-integral))
        assert schedule_bound(gamma, t) == pytest.approx(continuous_bound(c, t), rel=1e-13)


@pytest.mark.parametrize(
    "call, error, message",
    [
        *[(lambda t=t: continuous_bound(2.0, t), ConfigError,
           f"time must be >= 0 and finite, got {t}") for t in (-1.0, math.nan, math.inf)],
        (lambda: slope_fit(_synthetic_traj([[1.0]] * 20), 0.0, 0), ConfigError,
         "k_min must be >= 1, got 0"),
        (lambda: check_zigzag_settings(5, 1e308, math.inf), ConfigError,
         "time span T = 1e+308 makes T / delta = inf steps, must be finite"),
        # quad reaches its subdivision limit without converging
        *[(lambda t=t: schedule_bound(StepSchedule(c=2.0).gamma, t), ValueError,
           f"schedule integral to t = {t} is non-finite or did not converge")
          for t in (1e100, 1e300)],
    ],
    ids=["continuous-t-negative", "continuous-t-nan", "continuous-t-inf", "slope-k_min-0",
         "zigzag-steps-inf", "schedule-t-1e100", "schedule-t-1e300"],
)
def test_rejected_with_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = [(0.0,)] * 101
        traj = _synthetic_traj(xs)
        traj.f[:] = 1.0 / np.maximum(traj.k, 1)
        assert slope_fit(traj, 0.0, k_min=1) == pytest.approx(-1.0, abs=1e-6)

    def test_continuous_bound_samples(self):
        # (c/(c+t))^c only settles into the t^-c power law once t >> c, so
        # the fit window starts at t = 100
        xs = [(0.0,)] * 10001
        traj = _synthetic_traj(xs)
        traj.f[:] = [continuous_bound(3.0, float(max(k, 1))) for k in traj.k.tolist()]
        assert slope_fit(traj, 0.0, k_min=100) == pytest.approx(-3.0, abs=0.05)

    def test_too_few_points(self):
        xs = [(0.0,)] * 12
        traj = _synthetic_traj(xs)
        traj.f[:] = 1.0
        with pytest.raises(ValueError):
            slope_fit(traj, 1.0, k_min=1)  # all f == f*, nothing usable


class TestLowerBoundProbe:
    def test_one_over_k(self):
        xs = [(1.0 / max(k, 1),) for k in range(0, 2001)]
        traj = _synthetic_traj(xs)
        vals = lower_bound_probe(traj, [10, 100, 1000])
        np.testing.assert_allclose(vals, [1.0, 1.0, 1.0])

    def test_one_over_k_squared(self):
        xs = [(1.0 / max(k, 1) ** 2,) for k in range(0, 2001)]
        vals = lower_bound_probe(_synthetic_traj(xs), [10, 100, 1000])
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.01

    def test_requires_scalar(self):
        p = triangle()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(), 20)
        with pytest.raises(ValueError):
            lower_bound_probe(traj, [10])

    def test_anchor_out_of_range(self):
        xs = [(1.0,)] * 10
        with pytest.raises(ValueError):
            lower_bound_probe(_synthetic_traj(xs), [100])

    def test_scalar_box_fw(self):
        p = scalar_box()
        traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(c=2.0), 10000)
        vals = lower_bound_probe(traj, [10, 100, 1000])
        assert all(v >= 0.1 for v in vals)
