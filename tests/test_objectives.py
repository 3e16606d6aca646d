import hashlib
import io
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from fwflow.objectives import (
    LeastSquares,
    LogisticLoss,
    MatrixHuber,
    QuadraticDistance,
    ScalarHuber,
    _check_x,
    check_gradient,
)
from fwflow.diagnostics import zigzag_energy
from fwflow.geometry import Box, L1Ball, VertexHull
from fwflow.problems import Problem, scalar_huber, sensing_logistic, triangle
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


def _shape(what, shape):
    return f"{what} must be a nonempty array of shape ({shape}), None for any length"


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
        with pytest.raises(ValueError, match=r"^MatrixHuber values must be .* of shape \(2,\)"):
            MatrixHuber([0, 1], [1.0], 3, 3)

    def test_check_gradient_needs_positive_h(self):
        with pytest.raises(ValueError):
            check_gradient(QuadraticDistance(target=[0.0]), [1.0], h=0.0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: LogisticLoss(np.ones((3, 2)), [1.0, -1.0]), _shape("LogisticLoss labels", "3,")),
            (lambda: LogisticLoss(np.zeros((0, 3)), []), _shape("LogisticLoss features", "None, None")),
            (lambda: LogisticLoss([[np.nan]], [1.0]), "LogisticLoss features has non-finite entries"),
            *[(lambda delta=delta: MatrixHuber([0], [1.0], 3, 3, delta=delta),
               f"MatrixHuber delta must be positive and finite, got {delta}")
              for delta in (0.0, np.nan, np.inf)],
            *[(lambda eps=eps: ScalarHuber(eps),
               f"ScalarHuber eps must be positive and finite, got {eps}")
              for eps in (0.0, np.nan, np.inf)],
            (lambda: QuadraticDistance([]), _shape("QuadraticDistance target", "None,")),
            (lambda: QuadraticDistance([np.nan]), "QuadraticDistance target has non-finite entries"),
            (lambda: LeastSquares(np.zeros((2, 0)), [1.0, 2.0]),
             _shape("LeastSquares design", "None, None")),
            (lambda: LeastSquares([1.0, 2.0], [1.0, 2.0]), _shape("LeastSquares design", "None, None")),
            (lambda: LeastSquares([[np.inf]], [1.0]), "LeastSquares design has non-finite entries"),
            (lambda: LeastSquares([[1.0]], [-np.inf]), "LeastSquares response has non-finite entries"),
            (lambda: MatrixHuber([0], [np.nan], 1, 1), "MatrixHuber values has non-finite entries"),
            (lambda: MatrixHuber([], [], 2, 2), _shape("MatrixHuber index", "None,")),
            (lambda: MatrixHuber([0], [1.0], -1, -3),
             "MatrixHuber rows must be >= 1, got -1"),
            (lambda: MatrixHuber([0], [1.0], 2, 2.5),
             "MatrixHuber cols must be an integer, got 2.5"),
            *[(lambda i=i: MatrixHuber([i], [1.0], 2, 2),
               "MatrixHuber index entries must be whole numbers in [0, rows * cols)")
              for i in (0.5, 1.9, -1, 4)],
        ],
        ids=["logistic-rows", "logistic-no-sample", "logistic-nan", "matrix-huber-delta-0",
             "matrix-huber-delta-nan", "matrix-huber-delta-inf", "scalar-huber-eps-0",
             "scalar-huber-eps-nan", "scalar-huber-eps-inf", "quadratic-empty", "quadratic-nan",
             "least-squares-no-column", "least-squares-1-axis", "least-squares-design-inf",
             "least-squares-response-inf", "matrix-huber-values-nan", "matrix-huber-no-entry",
             "matrix-huber-rows-negative", "matrix-huber-cols-fractional",
             "matrix-huber-index-half", "matrix-huber-index-1.9", "matrix-huber-index-negative",
             "matrix-huber-index-past-end"],
    )
    def test_rejected_with_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_matrix_huber_whole_float_sizes(self):
        obj = MatrixHuber([3.0], [1.0], 2.0, 2.0)
        assert (obj.rows, obj.cols, obj.dim) == (2, 2, 4) and type(obj.dim) is int
        np.testing.assert_array_equal(obj.gradient(np.zeros(4)), [0.0, 0.0, 0.0, -1.0])


def _loop_check_gradient(obj, x, h=1e-5):
    """check_gradient as a Python loop with a running max(), the reference on finite inputs."""
    x = np.asarray(x, dtype=float).ravel()
    g = obj.gradient(x)
    worst = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
        err = abs(g[i] - fd) / max(1.0, abs(g[i]))
        worst = max(worst, err)
    return worst


def _criterion_11_objectives(rng):
    """The objectives of acceptance criterion 11, drawn from rng in its order."""
    A = rng.standard_normal((40, 6))
    y = np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)
    return [
        QuadraticDistance(target=rng.standard_normal(6)),
        ScalarHuber(eps=0.1),
        LeastSquares(A, rng.standard_normal(40)),
        LogisticLoss(A, y),
        MatrixHuber([1, 6], [0.5, -1.0], 3, 3),
    ]


class _NoCoordinate:
    """f = 0 on the zero-dimensional space, which no fwflow objective builds on."""

    dim = 0

    def value(self, x):
        return 0.0

    def gradient(self, x):
        return np.array(x, dtype=float)


class _NaNGradient:
    """f(x) = 0.5 ||x||^2 in 3 dimensions, whose gradient has a NaN entry at index i."""

    dim = 3

    def __init__(self, i):
        self.i = i

    def value(self, x):
        return 0.5 * float(x @ x)

    def gradient(self, x):
        g = np.array(x, dtype=float)
        g[self.i] = np.nan
        return g


class TestCheckGradient:
    @pytest.mark.parametrize(
        "seed, objectives",
        [(17, _all_objectives), (101, _criterion_11_objectives)],
        ids=["TestGradients", "criterion-11"],
    )
    def test_equals_loop_reference(self, seed, objectives):
        # the points and objectives of TestGradients and criterion 11, bit for bit
        rng = np.random.default_rng(seed)
        for obj in objectives(rng):
            for _ in range(20):
                x = rng.standard_normal(obj.dim)
                if isinstance(obj, ScalarHuber):
                    x = np.where(np.abs(np.abs(x) - obj.eps) < 1e-3, x + 0.01, x)
                got = check_gradient(obj, x)
                assert type(got) is float
                _assert_bits(got, _loop_check_gradient(obj, x))

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_nan_gradient_entry_gives_nan(self, i):
        # the loop's running max() drops a NaN error, at any index
        assert not np.isnan(_loop_check_gradient(_NaNGradient(i), [0.5, -1.0, 2.0]))
        assert np.isnan(check_gradient(_NaNGradient(i), [0.5, -1.0, 2.0]))

    @pytest.mark.parametrize("h", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_step_not_positive_and_finite(self, h):
        message = f"finite-difference step h must be positive and finite, got {h}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_gradient(QuadraticDistance(target=[0.0]), [1.0], h=h)

    def test_empty_point(self):
        assert check_gradient(_NoCoordinate(), []) == 0.0


def test_scalar_huber_problem():
    p = scalar_huber()
    assert p.name == "scalar_huber" and p.f_star == 0.0
    assert isinstance(p.objective, ScalarHuber) and p.objective.eps == 0.1
    assert p.feasible_set == Box(-1.0, 1.0, dim=1)
    np.testing.assert_array_equal(p.x0, [1.0])
    traj = run(p.objective, p.feasible_set, p.x0, "fw", StepSchedule(c=2.0), 50)
    assert traj.f[0] == pytest.approx(0.095) and 0.0 <= traj.f[-1] < traj.f[0]
    assert traj.violation.max() == 0.0


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


def _frozen_zigzag_energy(points):
    """diagnostics.zigzag_energy as written with @, before its products were ndarray.dot."""
    pts = np.asarray(points, dtype=float)
    d_bar = pts[-1] - pts[0]
    nn = float(d_bar @ d_bar)
    if nn == 0.0:
        return 0.0
    total = 0.0
    for i in range(1, pts.shape[0] - 1):
        d = pts[i + 1] - pts[i]
        ortho = d - (d @ d_bar) / nn * d_bar
        total += math.sqrt(ortho @ ortho)
    return total / (pts.shape[0] - 2)


def _frozen_huber_value(index, values, delta, x):
    """MatrixHuber.value as written with .sum(), before its sum was np.add.reduce."""
    a = np.abs(x[index] - values)
    m = np.minimum(a, delta)
    return float(np.where(a < delta, 0.5 * m * m, delta * a - 0.5 * delta**2).sum())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(m=st.sampled_from([1, 2, 3, 5, 8, 9, 64, 129, 300]),
       n=st.sampled_from([1, 2, 3, 8, 9, 33, 100]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
def test_rewritten_oracles_match_their_matmul_and_sum_forms(m, n, scale, seed):
    # ndarray.dot and np.add.reduce make the BLAS calls and pairwise sums of @ and .sum(),
    # so every per-step oracle keeps its bits; some entries are signed zeros
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = scale * rng.standard_normal(shape)
        a[rng.random(shape) < 0.1] = 0.0
        a[rng.random(shape) < 0.1] = -0.0
        return a

    A, b, x, target = draw(m, n), draw(m), draw(n), draw(n)
    signs = np.where(b >= 0.0, 1.0, -1.0)
    for cls, v in ((LeastSquares, b), (LogisticLoss, signs)):
        want = _reference(cls, (A, v), x)
        obj = cls(A, v)
        _assert_bits(obj.value(x), want["value"])
        if A.size == 1:  # .dot multiplies one-entry arrays, and a -0 product stays -0
            _assert_bits(obj.gradient(x) + 0.0, want["gradient"] + 0.0)
        else:
            _assert_bits(obj.gradient(x), want["gradient"])
    _assert_bits(QuadraticDistance(target).value(x), 0.5 * float(((x - target) ** 2).sum()))
    index = rng.integers(0, n, size=m)
    delta = float(rng.choice([1e-3, 1.0, 1e3]))
    _assert_bits(MatrixHuber(index, b, 1, n, delta).value(x),
                 _frozen_huber_value(index, b, delta, x))
    _assert_bits(VertexHull(A).lmo(x), A[int((A @ x).argmin())])
    radius = float(np.abs(x).sum()) * rng.choice([0.5, 1.0, 2.0])
    if radius > 0.0:
        _assert_bits(L1Ball(radius, n).violation(x), max(0.0, float(np.abs(x).sum() - radius)))
    if m >= 3:
        _assert_bits(zigzag_energy(A), _frozen_zigzag_energy(A))


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

    p = sensing_logistic(seed=0)
    monkeypatch.setattr(p.objective, "_expit", counting_expit)  # the routine the loss calls
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


@dataclass(frozen=True)
class _FrozenScalarHuber:
    """ScalarHuber as it was written before it became MatrixHuber's one-entry case."""

    eps: float

    dim = 1
    smoothness = 1.0

    def value(self, x) -> float:
        v = float(_check_x(1, x)[0])
        if abs(v) < self.eps:
            return 0.5 * v * v
        return self.eps * abs(v) - 0.5 * self.eps**2

    def gradient(self, x) -> np.ndarray:
        v = float(_check_x(1, x)[0])
        if abs(v) < self.eps:
            return np.array([v])
        return np.array([self.eps if v > 0 else -self.eps])


class TestScalarHuberIsMatrixHuber:
    def test_one_entry_case(self):
        obj = ScalarHuber(eps=0.1)
        assert isinstance(obj, MatrixHuber) and obj.eps == 0.1 and obj.delta == 0.1
        assert obj.dim == 1 and obj.smoothness == 1.0
        assert "value" not in vars(ScalarHuber) and "gradient" not in vars(ScalarHuber)
        assert obj == obj and obj != ScalarHuber(eps=0.1)  # compares by identity

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.floats(-3.0, 3.0))
    @example(0.1)  # the kinks, on the linear side since |r| < delta is the quadratic one
    @example(-0.1)
    @example(0.0)
    @example(5e-324)  # whose square underflows
    def test_matches_frozen_reference(self, v):
        # value bit for bit; gradient by ==, since the sign of a zero gradient may differ
        new, old = ScalarHuber(0.1), _FrozenScalarHuber(0.1)
        _assert_bits(new.value([v]), old.value([v]))
        got, want = new.gradient([v]), old.gradient([v])
        assert got.dtype == want.dtype and got.shape == want.shape and got[0] == want[0]

    def test_gradient_at_negative_zero_is_positive_zero(self):
        # np.add.at sums into a zero array, and 0.0 + (-0.0) = 0.0; the frozen copy kept -0.0
        assert np.signbit(_FrozenScalarHuber(0.1).gradient([-0.0])[0])
        assert not np.signbit(ScalarHuber(0.1).gradient([-0.0])[0])

    def test_large_residual_value_does_not_overflow(self):
        # the quadratic branch squares min(|r|, delta), so a residual whose square
        # overflows raises no RuntimeWarning (an error under this suite) on the linear side
        assert ScalarHuber(0.1).value([1e200]) == 1e199 == _FrozenScalarHuber(0.1).value([1e200])

    def test_gradient_at_nan_is_nan(self):
        # the residual is clipped, which keeps a nan; the frozen copy returned -eps
        assert _FrozenScalarHuber(0.1).gradient([np.nan])[0] == -0.1
        assert np.isnan(ScalarHuber(0.1).gradient([np.nan])[0])


# SHA-256 of to_csv on scalar_huber() with StepSchedule(c=2), 300 steps: (method,
# tableau) -> digest, delta 0.1 for flow and rk, computed while ScalarHuber had its own
# value and gradient; the two +linesearch digests since the search bisects [0, 2]
PINNED_HUBER_CSV_SHA256 = {
    ("fw", None): "df2eda6e6bf89149430891b27160e63d54b112e9b86f080cea7f225e26129c31",
    ("flow", None): "a98d9546dc19272c119664647bdfc080938c29d9519f5dcf1dc96f6b58e489db",
    ("fw+linesearch", None): "4d446dcc34b130e89edef1c2e163b7df3eb360efd4fb0bff4700e044a072d5d3",
    ("fw+momentum", None): "db4ac7d842eeb1a44c513f1b8889899be4d0d1308db2118d68edc25cf3984a24",
    ("rk", "rk4"): "192a975b896f5e634ac8dd4e5be1f3d1861266796a268cf2b9b9230930473e78",
    ("rk", "rk5"): "4ed29ba5063b32989d9dcd07e3188ac51774f4fc4b0c0778004c495c2638e36c",
    ("rk+linesearch", "rk4"): "45d56714dbe02f19c4fbb22e8a6a5e8946f8e3827ee3cd0793cefe9484bc1064",
}


@pytest.mark.parametrize(
    "method, tab", list(PINNED_HUBER_CSV_SHA256),
    ids=[f"{m}-{t or 'none'}" for m, t in PINNED_HUBER_CSV_SHA256],
)
def test_scalar_huber_run_csv_digest_pinned(method, tab):
    p = scalar_huber()
    sched = StepSchedule(c=2.0, delta=0.1 if method in ("flow", "rk") else 1.0)
    tableau = builtin(tab) if tab else None
    traj = run(p.objective, p.feasible_set, p.x0, method, sched, 300, tableau=tableau)
    buf = io.StringIO()
    traj.to_csv(buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == PINNED_HUBER_CSV_SHA256[method, tab]
