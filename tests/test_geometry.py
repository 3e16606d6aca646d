import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from fwflow.geometry import Box, L1Ball, NuclearBall, VertexHull, contains

TRIANGLE = VertexHull([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class TestLMO:
    def test_box_scalar(self):
        assert Box(-1.0, 1.0, dim=1).lmo([0.5]) == pytest.approx([-1.0])

    def test_hull_unique_vertex(self):
        np.testing.assert_allclose(TRIANGLE.lmo([1.0, 0.0]), [-1.0, 0.0])

    def test_l1ball_picks_largest_coordinate(self):
        s = L1Ball(1000.0, dim=3).lmo([3.0, -7.0, 1.0])
        np.testing.assert_allclose(s, [0.0, 1000.0, 0.0])

    def test_nuclear_ball_diag_gradient(self):
        # exact SVD oracle: gradient diag(3, 1) has top pair (e1, e1)
        s = NuclearBall(2.0, 2, 2).lmo([3.0, 0.0, 0.0, 1.0])
        np.testing.assert_allclose(s.reshape(2, 2), [[-2.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_nuclear_ball_zero_gradient(self):
        # every atom is optimal for G = 0; the LMO returns -radius e1 e1^T
        expected = np.zeros((2, 3))
        expected[0, 0] = -2.5
        np.testing.assert_array_equal(NuclearBall(2.5, 2, 3).lmo(np.zeros(6)), expected.ravel())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            TRIANGLE.lmo([1.0, 0.0, 0.0])

    def test_non_finite_gradient(self):
        with pytest.raises(ValueError):
            Box(-1.0, 1.0, dim=2).lmo([np.nan, 0.0])

    def test_box_sign_zero_convention(self):
        # sign(0) = +1 picks the lower face
        np.testing.assert_allclose(Box(-1.0, 1.0, dim=2).lmo([0.0, -1.0]), [-1.0, 1.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for fset in (TRIANGLE, Box(-1.0, 1.0, dim=4), L1Ball(5.0, dim=4)):
            for _ in range(10):
                g = rng.standard_normal(fset.dim)
                np.testing.assert_array_equal(fset.lmo(g), fset.lmo(7.3 * g))

    def test_lmo_optimality_over_vertices(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.standard_normal(2)
            s = TRIANGLE.lmo(g)
            assert g @ s <= (TRIANGLE.vertices @ g).min() + 1e-12

    def test_lmo_output_is_member(self):
        rng = np.random.default_rng(7)
        sets = [
            TRIANGLE,
            Box(-2.0, 3.0, dim=5),
            L1Ball(4.0, dim=5),
            NuclearBall(3.0, 3, 4),
        ]
        for fset in sets:
            for _ in range(5):
                g = rng.standard_normal(fset.dim)
                assert contains(fset, fset.lmo(g), tol=1e-9)


def test_box_integer_bounds_give_float_atoms():
    rng = np.random.default_rng(5)
    for g in [np.zeros(3), [1.0, -2.0, -0.0], *rng.standard_normal((5, 3))]:
        atom = Box(-1, 1, dim=3).lmo(g)
        assert atom.dtype == np.float64
        np.testing.assert_array_equal(atom, Box(-1.0, 1.0, dim=3).lmo(g))


def _reference_box_violation(box, x):
    """The box slack as two elementwise reductions, the independent side of the test."""
    x = np.asarray(x, dtype=float).ravel()
    over = max(0.0, float((x - box.upper).max()))
    under = max(0.0, float((box.lower - x).max()))
    return max(over, under)


def test_box_violation_bit_identical_to_reference():
    inf, nan = np.inf, np.nan
    points = [
        [-0.0, 0.0, 0.5], [1.0, -1.0, -0.0], [np.nextafter(1.0, 2.0), 0.0, -1.0],
        [1e308, -1e308, 0.0], [5.0, -7.0, 0.3],
        *np.random.default_rng(2).standard_normal((20, 3)) * 1e6,
    ]
    non_finite = [[inf, 0.0, 0.0], [-inf, 0.0, 0.0], [inf, -inf, 0.3],
                  [nan, 0.0, 0.0], [nan, 2.0, -3.0], [-5.0, nan, inf]]
    boxes = [Box(-1.0, 1.0, dim=3), Box(-1, 0, dim=3), Box(-0.0, 1e-3, dim=3), Box(0.25, 3, dim=3)]
    for box in boxes:
        for x in points:
            assert box.violation(x).hex() == _reference_box_violation(box, x).hex()
        for x in non_finite:
            with pytest.raises(ValueError, match="^point has non-finite entries$"):
                box.violation(x)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_box_violation_matches_numpy_reductions(dim, data):
    # violation reads the point as a Python list; the numpy max/min reductions it replaced
    # must give the same float, bit for bit, signed zeros and points on a face included
    lower = data.draw(st.sampled_from([-1.0, -0.0, 0.0, 0.25, -1e3]))
    upper = lower + data.draw(st.sampled_from([1e-3, 1.0, 2.0]))
    box = Box(lower, upper, dim=dim)
    entry = (st.floats(-1e4, 1e4) | st.sampled_from([0.0, -0.0, box.lower, box.upper])
             | st.sampled_from([np.nextafter(box.lower, -np.inf), np.nextafter(box.upper, np.inf)]))
    x = np.array(data.draw(st.lists(entry, min_size=dim, max_size=dim)))
    old = max(0.0, float(x.max()) - box.upper, box.lower - float(x.min()))
    assert box.violation(x).hex() == old.hex()


class TestContains:
    def test_triangle_interior(self):
        assert contains(TRIANGLE, [0.0, 0.5], tol=1e-9)

    def test_triangle_outside(self):
        assert not contains(TRIANGLE, [2.0, 0.0], tol=1e-9)

    def test_l1_boundary(self):
        assert contains(L1Ball(1.0, dim=2), [0.5, 0.5], tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            contains(TRIANGLE, [0.0, 0.0], tol=-1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative, got nan"):
            contains(Box(-1.0, 1.0), [0.0], tol=float("nan"))

    def test_infinite_tol_accepts_any_finite_point(self):
        assert contains(Box(-1.0, 1.0), [0.0], tol=float("inf"))
        assert contains(TRIANGLE, [2.0, 0.0], tol=float("inf"))

    def test_nuclear_violation(self):
        fset = NuclearBall(1.0, 2, 2)
        x = np.eye(2).ravel()  # nuclear norm 2
        assert fset.violation(x) == pytest.approx(1.0)


class TestDiameter:
    def test_triangle(self):
        assert TRIANGLE.diameter() == pytest.approx(2.0)

    def test_box(self):
        assert Box(-1.0, 1.0, dim=1).diameter() == pytest.approx(2.0)

    def test_l1(self):
        assert L1Ball(1000.0, dim=100).diameter() == pytest.approx(2000.0)

    def test_hull_matches_brute_force(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((8, 3))
        hull = VertexHull(v)
        brute = max(
            np.linalg.norm(v[i] - v[j]) for i in range(len(v)) for j in range(len(v))
        )
        assert hull.diameter() == pytest.approx(brute)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(1, 50), dim=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 127, 128, 129, 257]),
           scale=st.sampled_from([1e-150, 1.0, 1e150]), seed=st.integers(0, 2**32 - 1))
    def test_hull_matches_all_pairs_formula(self, n, dim, scale, seed):
        # a row at a time, each pair goes through the subtraction, square and pairwise sum of
        # the n x n x dim array of differences that diameter built before, so the float holds
        v = scale * np.random.default_rng(seed).standard_normal((n, dim))
        diffs = v[:, None, :] - v[None, :, :]
        old = float(np.sqrt((diffs**2).sum(axis=2).max()))
        assert VertexHull(v).diameter().hex() == old.hex()

    def test_hull_memory_grows_with_vertices_times_dim(self):
        # all pairwise differences of the 300-vertex simplex took 413 MiB
        hull = VertexHull(np.eye(300))
        tracemalloc.start()
        try:
            assert hull.diameter() == math.sqrt(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


_HULL_SHAPE = "VertexHull vertices must be a nonempty array of shape (None, None), None for any length"


class TestConstruction:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: VertexHull(np.empty((0, 2))), _HULL_SHAPE),
            (lambda: VertexHull([]), _HULL_SHAPE),
            (lambda: VertexHull([[]]), _HULL_SHAPE),
            (lambda: VertexHull(np.zeros((3, 0))), _HULL_SHAPE),
            (lambda: VertexHull(np.zeros((2, 2, 2))), _HULL_SHAPE),
            (lambda: VertexHull([1.0, 2.0]), _HULL_SHAPE),
            (lambda: VertexHull([[0.0, 0.0], [1.0]]), _HULL_SHAPE),
            (lambda: Box(-1.0, 1.0, dim=0), "Box dimension must be >= 1, got 0"),
            (lambda: Box(-1.0, 1.0, dim=2.5), "Box dimension must be an integer, got 2.5"),
            (lambda: Box(-math.inf, 1.0), "Box requires finite lower < upper"),
            (lambda: Box(-1.0, math.inf), "Box requires finite lower < upper"),
            (lambda: L1Ball(1.0, dim=0), "L1Ball dimension must be >= 1, got 0"),
            (lambda: L1Ball(1.0, dim=2.5), "L1Ball dimension must be an integer, got 2.5"),
            (lambda: L1Ball(1.0, dim=math.nan), "L1Ball dimension must be an integer, got nan"),
            (lambda: L1Ball(math.inf, 2), "L1Ball radius must be positive and finite, got inf"),
            (lambda: NuclearBall(0.0, 2, 2),
             "NuclearBall radius must be positive and finite, got 0.0"),
            (lambda: NuclearBall(np.nan, 2, 2),
             "NuclearBall radius must be positive and finite, got nan"),
            (lambda: NuclearBall(math.inf, 2, 2),
             "NuclearBall radius must be positive and finite, got inf"),
            (lambda: NuclearBall(1.0, 0, 2), "NuclearBall rows must be >= 1, got 0"),
            (lambda: NuclearBall(1.0, 2, 0), "NuclearBall cols must be >= 1, got 0"),
            (lambda: NuclearBall(1.0, -1, 2), "NuclearBall rows must be >= 1, got -1"),
            (lambda: NuclearBall(1.0, 2, 1.5), "NuclearBall cols must be an integer, got 1.5"),
        ],
        ids=["hull-no-vertex", "hull-empty-list", "hull-no-coordinate", "hull-dim-0",
             "hull-3-axes", "hull-1-axis", "hull-ragged", "box-dim-0", "box-dim-fractional",
             "box-lower-inf", "box-upper-inf", "l1-dim-0", "l1-dim-fractional", "l1-dim-nan",
             "l1-radius-inf", "nuclear-radius-0", "nuclear-radius-nan", "nuclear-radius-inf",
             "nuclear-rows-0", "nuclear-cols-0", "nuclear-rows-negative",
             "nuclear-cols-fractional"],
    )
    def test_rejected_with_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("fset", [Box(-1.0, 1.0, dim=2.0), L1Ball(1.0, dim=2.0),
                                      NuclearBall(1.0, 2.0, 1)], ids=["box", "l1", "nuclear"])
    def test_whole_float_sizes_build_int_dims(self, fset):
        # a whole-number float size is read as its int, so the oracles take dim entries
        assert type(fset.dim) is int and fset.dim == 2
        assert fset.lmo([1.0, 0.0]).shape == (2,) and fset.violation([0.0, 0.0]) == 0.0

    def test_box_requires_order(self):
        with pytest.raises(ValueError):
            Box(1.0, -1.0, dim=1)

    def test_l1_radius_positive(self):
        with pytest.raises(ValueError):
            L1Ball(0.0, dim=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hull_vertices_finite(self, bad):
        # rejected when built, not on a later lmo or violation call
        with pytest.raises(ValueError, match="^VertexHull vertices has non-finite entries$"):
            VertexHull([[0.0, 0.0], [1.0, bad]])


_LMO_SETS = {
    "hull": TRIANGLE,
    "box": Box(-1.0, 1.0, dim=2),
    "l1": L1Ball(3.0, dim=2),
    "nuclear": NuclearBall(2.0, 1, 2),
}


@pytest.mark.parametrize("name", _LMO_SETS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lmo_rejects_non_finite_gradient(name, bad):
    for g in ([bad, 0.0], [1.0, bad], [bad, bad]):
        with pytest.raises(ValueError, match="^gradient has non-finite entries$"):
            _LMO_SETS[name].lmo(g)


@pytest.mark.parametrize("name", _LMO_SETS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_violation_rejects_non_finite_point(name, bad):
    # a non-finite point has no slack to report, so contains must not call it feasible
    fset = _LMO_SETS[name]
    for point in ([bad, 0.0], [0.0, bad], [bad, bad]):
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            fset.violation(point)
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            contains(fset, point)


@pytest.mark.parametrize("name", _LMO_SETS)
def test_violation_rejects_wrong_dimension(name):
    for point in ([0.0], [0.0, 0.0, 0.0]):
        message = f"^point dimension {len(point)} does not match set dimension 2$"
        with pytest.raises(ValueError, match=message):
            _LMO_SETS[name].violation(point)


@pytest.mark.parametrize(
    "g, atoms",
    [
        # the entries are finite even though their sum or sum of squares overflows
        ([1e308, 1e308], {"hull": [-1.0, 0.0], "box": [-1.0, -1.0], "l1": [-3.0, 0.0]}),
        ([1e308, -1e308], {"hull": [-1.0, 0.0], "box": [-1.0, 1.0], "l1": [-3.0, 0.0]}),
        ([-1e308, -1e308], {"hull": [1.0, 0.0], "box": [1.0, 1.0], "l1": [3.0, 0.0]}),
    ],
)
def test_lmo_accepts_finite_gradient_that_overflows(g, atoms):
    for name, atom in atoms.items():
        assert np.array_equal(_LMO_SETS[name].lmo(g), atom)
    # the nuclear atom is -radius * g / |g| for a 1 x 2 gradient
    expected = -2.0 * np.sign(g) / np.sqrt(2.0)
    np.testing.assert_allclose(_LMO_SETS["nuclear"].lmo(g), expected, rtol=1e-15)


def test_power_iteration_matches_svd():
    # force the power-iteration path with a 12x12 gradient
    rng = np.random.default_rng(5)
    G = rng.standard_normal((12, 12))
    fset = NuclearBall(1.0, 12, 12)
    s = fset.lmo(G.ravel()).reshape(12, 12)
    U, _, Vt = np.linalg.svd(G)
    expected = -np.outer(U[:, 0], Vt[0])
    # singular vectors are sign-ambiguous; compare the rank-one products.
    # The Rayleigh-quotient stopping rule (tol 1e-10) leaves ~1e-5 error in
    # the vectors themselves when the top two singular values are close.
    err = min(np.abs(s - expected).max(), np.abs(s + expected).max())
    assert err < 1e-4


# Reference oracles for the bit-identity tests below: the earlier per-call
# implementations, kept verbatim apart from the round counter. The current
# ones reuse the power iteration's G^T (G v) and a prebuilt NNLS matrix, and
# must return the same bits.


def _reference_top_singular_pair(G, max_iter=1000, tol=1e-10):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(G.shape[1])
    v /= np.linalg.norm(v)
    rayleigh = 0.0
    rounds = 0
    for _ in range(max_iter):
        rounds += 1
        w = G.T @ (G @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        v = w / norm
        new_rayleigh = float(v @ (G.T @ (G @ v)))
        if abs(new_rayleigh - rayleigh) <= tol * max(1.0, new_rayleigh):
            rayleigh = new_rayleigh
            break
        rayleigh = new_rayleigh
    Gv = G @ v
    u = Gv / np.linalg.norm(Gv)
    return u, v, rounds


def _reference_hull_violation(vertices, x):
    system = np.vstack([vertices.T, np.ones(vertices.shape[0])])
    target = np.concatenate([x, [1.0]])
    _, resid = nnls(system, target)
    return float(resid)


def _close_gap_gradient(rows, cols, ratio):
    # U diag(sigma) V^T with sigma_1 / sigma_2 = ratio
    rng = np.random.default_rng(2)
    U, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    V, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    sigma = np.concatenate([[ratio, 1.0], np.linspace(0.9, 0.1, cols - 2)])
    return U @ np.diag(sigma) @ V.T


@pytest.mark.parametrize(
    "G, cap",
    [
        (np.random.default_rng(0).standard_normal((30, 20)), False),
        (np.random.default_rng(1).standard_normal((200, 150)), False),
        # wider than tall, so each of the round's two products runs on the other shape
        (np.random.default_rng(3).standard_normal((150, 200)), False),
        (_close_gap_gradient(40, 30, 1.001), True),
    ],
    ids=["30x20", "200x150", "150x200", "gap-1.001-cap"],
)
def test_power_iteration_bit_identical_to_reference(G, cap):
    rows, cols = G.shape
    radius = 2.5
    u, v, rounds = _reference_top_singular_pair(G)
    assert (rounds == NuclearBall._power_max_iter) == cap
    expected = (-radius * np.outer(u, v)).ravel()
    fset = NuclearBall(radius, rows, cols)
    for _ in range(2):  # repeated calls are bit-identical too
        assert np.array_equal(fset.lmo(G.ravel()), expected)


def test_hull_violation_bit_identical_to_reference():
    rng = np.random.default_rng(4)
    points = [
        [0.0, 0.5],  # inside
        [0.2, 0.1],
        [-1.0, 0.0],  # vertex
        [0.5, 0.5],  # on an edge
        [0.0, 0.0],
        [2.0, 0.0],  # outside
        [0.3, -0.4],
        [-5.0, 7.0],
    ]
    for p in points:
        assert TRIANGLE.violation(p) == _reference_hull_violation(TRIANGLE.vertices, np.array(p))
    hull = VertexHull(rng.standard_normal((5, 3)))
    for scale in (0.1, 1.0, 3.0):
        for _ in range(20):
            p = scale * rng.standard_normal(3)
            assert hull.violation(p) == _reference_hull_violation(hull.vertices, p)


def _outcome(f, *args):
    """f(*args) as a float's hex digits, or the type and message of what it raised."""
    try:
        return float(f(*args)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    dim=st.integers(1, 4),
    where=st.sampled_from(("inside", "vertex", "segment", "outside")),
    data=st.data(),
)
def test_hull_violation_matches_public_nnls(n, dim, where, data):
    # violation calls scipy's compiled NNLS core directly; a scipy whose core or
    # its signature differs from the public nnls the reference goes through fails here
    coord = st.floats(-10.0, 10.0, allow_nan=False)

    def draw(elements, size):
        return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

    vertices = np.array([draw(coord, dim) for _ in range(n)])
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    t = data.draw(st.floats(0.0, 1.0))
    if where == "vertex":
        point = vertices[i]
    elif where == "segment":  # between two vertices, on the boundary when they span an edge
        point = t * vertices[i] + (1.0 - t) * vertices[j]
    else:
        weights = draw(st.floats(0.01, 1.0), n)
        point = weights @ vertices / weights.sum()
        if where == "outside":
            point = point + draw(coord, dim)
    hull = VertexHull(vertices)
    assert _outcome(hull.violation, point) == _outcome(_reference_hull_violation, vertices, point)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hull_violation_rejects_non_finite_point(bad):
    for point in ([bad, 0.0], [0.0, bad]):
        with pytest.raises(ValueError, match="^point has non-finite entries$"):
            TRIANGLE.violation(point)
        # the public nnls rejects it too, with its own message
        with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
            _reference_hull_violation(TRIANGLE.vertices, np.array(point))


def test_hull_violation_wrong_dimension():
    for point in ([0.0], [0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]):
        message = f"^point dimension {len(point)} does not match set dimension 2$"
        with pytest.raises(ValueError, match=message):
            TRIANGLE.violation(point)
