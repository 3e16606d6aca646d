import numpy as np
import pytest

from fwflow.objectives import (
    LeastSquares,
    LogisticLoss,
    MatrixHuber,
    QuadraticDistance,
    ScalarHuber,
    check_gradient,
)


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
