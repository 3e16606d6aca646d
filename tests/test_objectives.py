import numpy as np
import pytest
from scipy.special import expit

import fwflow.objectives
from fwflow.objectives import (
    LeastSquares,
    LogisticLoss,
    MatrixHuber,
    QuadraticDistance,
    ScalarHuber,
    check_gradient,
)
from fwflow.problems import Problem, sensing_logistic, triangle
from fwflow.solvers import StepSchedule, run
from fwflow.tableau import builtin


def _all_objectives(rng):
    A = rng.standard_normal((30, 8))
    b = rng.standard_normal(30)
    y = np.where(rng.standard_normal(30) >= 0, 1.0, -1.0)
    # observed entries (0, 0), (1, 2) and (2, 1) of a 3 x 3 matrix, at flat index 3 i + j
    index, values = [0, 5, 7], [1.5, -0.3, 0.7]
    return [
        QuadraticDistance(target=rng.standard_normal(8)),
        ScalarHuber(eps=0.1),
        LeastSquares(A, b),
        LogisticLoss(A, y),
        MatrixHuber(index, values, 3, 3, delta=1.0),
    ]


class TestValues:
    def test_quadratic_minimum(self):
        obj = QuadraticDistance(target=[0.2, 0.0])
        assert obj.value([0.2, 0.0]) == 0.0

    def test_huber_linear_branch(self):
        # eps*|x| - eps^2/2 = 0.1 - 0.005
        assert ScalarHuber(0.1).value([1.0]) == pytest.approx(0.095)

    def test_logistic_at_zero(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 4))
        y = np.where(rng.standard_normal(10) >= 0, 1.0, -1.0)
        assert LogisticLoss(A, y).value(np.zeros(4)) == pytest.approx(np.log(2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticDistance(target=[0.0, 0.0]).value([1.0])


class TestGradients:
    def test_quadratic_at_target(self):
        obj = QuadraticDistance(target=[1.0, -2.0])
        np.testing.assert_allclose(obj.gradient([1.0, -2.0]), [0.0, 0.0])

    def test_huber_quadratic_branch(self):
        assert ScalarHuber(0.1).gradient([0.05])[0] == pytest.approx(0.05)

    def test_huber_linear_branch(self):
        assert ScalarHuber(0.1).gradient([-3.0])[0] == pytest.approx(-0.1)

    def test_finite_differences_everywhere(self):
        rng = np.random.default_rng(17)
        for obj in _all_objectives(rng):
            for _ in range(20):
                x = rng.standard_normal(obj.dim)
                if isinstance(obj, ScalarHuber):
                    # keep the probe off the kink
                    x = np.where(np.abs(np.abs(x) - obj.eps) < 1e-3, x + 0.01, x)
                assert check_gradient(obj, x) <= 1e-5


class TestProperties:
    def test_convexity_probe(self):
        rng = np.random.default_rng(23)
        for obj in _all_objectives(rng):
            for _ in range(10):
                x = rng.standard_normal(obj.dim)
                y = rng.standard_normal(obj.dim)
                mid = obj.value(0.5 * x + 0.5 * y)
                assert mid <= 0.5 * obj.value(x) + 0.5 * obj.value(y) + 1e-12

    def test_smoothness_probe(self):
        rng = np.random.default_rng(29)
        for obj in _all_objectives(rng):
            L = obj.smoothness
            for _ in range(10):
                x = rng.standard_normal(obj.dim)
                y = rng.standard_normal(obj.dim)
                lhs = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
                assert lhs <= L * np.linalg.norm(x - y) + 1e-10


class TestConstruction:
    def test_huber_eps_positive(self):
        with pytest.raises(ValueError):
            ScalarHuber(0.0)

    def test_logistic_label_domain(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.ones((2, 2)), [0.0, 1.0])

    def test_least_squares_shape(self):
        with pytest.raises(ValueError):
            LeastSquares(np.ones((3, 2)), np.ones(4))

    def test_matrix_huber_index_bounds(self):
        with pytest.raises(ValueError):
            MatrixHuber([15], [1.0], 3, 3)  # entry (5, 0)

    def test_matrix_huber_lengths_match(self):
        with pytest.raises(ValueError, match="lengths differ"):
            MatrixHuber([0, 1], [1.0], 3, 3)

    def test_check_gradient_needs_positive_h(self):
        with pytest.raises(ValueError):
            check_gradient(QuadraticDistance(target=[0.0]), [1.0], h=0.0)


def _dense_data(cls):
    rng = np.random.default_rng(31)
    A = rng.standard_normal((40, 6))
    b = rng.standard_normal(40)
    return A, (b if cls is LeastSquares else np.where(b >= 0.0, 1.0, -1.0))


def _reference(cls, data, x):
    """Value and gradient of a dense objective by the direct formulas, nothing cached."""
    A, v = data
    if cls is LeastSquares:
        r = A @ x - v
        return {"value": 0.5 * float(r @ r), "gradient": A.T @ r}
    margins = v * (A @ x)
    return {
        "value": float(np.logaddexp(0.0, -margins).mean()),
        "gradient": -(A.T @ (v * expit(-margins))) / A.shape[0],
    }


def _assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cls", [LeastSquares, LogisticLoss])
class TestDenseCache:
    def test_interleaved_calls_match_fresh_instance(self, cls):
        data = _dense_data(cls)
        flipped = tuple(a[::-1].copy() for a in data)
        obj, other = cls(*data), cls(*flipped)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(6)
        signed_zeros = [np.zeros(6), -np.zeros(6), np.array([0.0, -0.0, 1.0, -0.0, 0.0, 2.0])]
        steps = [("gradient", x), ("value", x), ("gradient", x), ("value", x + 1.0)]
        steps += [(name, z) for z in signed_zeros for name in ("value", "gradient", "value")]
        steps += [("gradient", x), ("value", list(x)), ("gradient", x.reshape(2, 3))]
        for name, point in steps:
            want = getattr(cls(*data), name)(np.copy(point))
            _assert_bits(want, _reference(cls, data, np.ravel(point))[name])
            _assert_bits(getattr(obj, name)(point), want)
            # a second instance at the same point keeps its own product
            _assert_bits(getattr(other, name)(point), getattr(cls(*flipped), name)(point))

    def test_point_mutated_in_place(self, cls):
        data = _dense_data(cls)
        obj = cls(*data)
        x = np.linspace(-1.0, 1.0, 6)
        obj.gradient(x)
        obj.value(x)
        x[2] += 0.5
        _assert_bits(obj.value(x), cls(*data).value(x.copy()))
        _assert_bits(obj.gradient(x), cls(*data).gradient(x.copy()))

    def test_caller_writes_into_returned_gradient(self, cls):
        data = _dense_data(cls)
        obj = cls(*data)
        x = np.linspace(-1.0, 1.0, 6)
        g = obj.gradient(x)
        g[:] = 7.0
        _assert_bits(obj.gradient(x), cls(*data).gradient(x))
        _assert_bits(obj.value(x), cls(*data).value(x))

    def test_smoothness_lazy_and_equal_to_eager_formula(self, cls):
        data = _dense_data(cls)
        obj = cls(*data)
        assert "smoothness" not in vars(obj)
        A = data[0]
        if cls is LeastSquares:
            eager = float(np.linalg.norm(A, 2) ** 2)
        else:
            m = A.shape[0]
            eager = float(np.linalg.norm(A, 2) ** 2) / (4.0 * m)
        _assert_bits(obj.smoothness, eager)
        assert "smoothness" in vars(obj)


@pytest.mark.parametrize(
    "method, tab, per_step", [("fw", None, 1), ("rk", "rk4", 4), ("rk", "midpoint", 2)]
)
def test_logistic_expit_calls_per_run(monkeypatch, method, tab, per_step):
    # N steps record N+1 gradients; RK stage 1 (xbar_1 = x) reuses the recorded one, so
    # q-stage RK adds q-1 per step, and value reuses the margins without calling expit
    calls = []

    def counting_expit(z):
        calls.append(None)
        return expit(z)

    monkeypatch.setattr(fwflow.objectives, "expit", counting_expit)
    p = sensing_logistic(seed=0)
    n = 12
    tableau = builtin(tab) if tab else None
    run(p.objective, p.feasible_set, p.x0, method, StepSchedule(c=2.0), n, tableau=tableau)
    assert len(calls) == per_step * n + 1


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuadraticDistance([1.0, 2.0]),
        lambda: triangle().feasible_set,
        lambda: Problem("p", QuadraticDistance([0.0]), None, x0=[1.0]),
    ],
    ids=["QuadraticDistance", "VertexHull", "Problem"],
)
def test_array_fields_compare_and_hash_by_identity(make):
    # array fields have no single truth value, so these compare and hash as objects
    one, copy = make(), make()
    assert one == one and one != copy and not one == copy
    table = {one: "one", copy: "copy"}
    assert table[one] == "one" and table[copy] == "copy"
