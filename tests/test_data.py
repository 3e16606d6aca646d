import numpy as np
import pytest

from fwflow.data import gen_lowrank, gen_sensing
from fwflow.objectives import MatrixHuber
from fwflow.problems import lowrank_huber


class TestGenSensing:
    def test_sparsity_count(self):
        _, _, true_x = gen_sensing(500, 100, 0.1, seed=0)
        assert np.count_nonzero(true_x) == 10

    def test_full_support(self):
        _, _, true_x = gen_sensing(20, 10, 1.0, seed=0)
        assert np.count_nonzero(true_x) == 10

    def test_determinism(self):
        a = gen_sensing(50, 20, 0.2, noise_sd=0.1, seed=42)
        b = gen_sensing(50, 20, 0.2, noise_sd=0.1, seed=42)
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)

    def test_noise_envelope(self):
        A, b, true_x = gen_sensing(400, 50, 0.1, noise_sd=0.5, seed=7)
        resid = np.linalg.norm(b - A @ true_x)
        assert resid <= 4 * 0.5 * np.sqrt(400)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            gen_sensing(10, 10, 0.0)


@pytest.mark.parametrize(
    "generate, message",
    [
        (lambda: gen_sensing(0, 5, 0.5), "m and n must be >= 1"),
        (lambda: gen_sensing(5, 0, 0.5), "m and n must be >= 1"),
        (lambda: gen_sensing(5, 5, 0.5, noise_sd=-0.1), "noise_sd must be nonnegative"),
        (lambda: gen_lowrank(6, 5, 2, 0.0), r"observed_fraction must be in \(0, 1\]"),
        (lambda: gen_lowrank(6, 5, 2, 1.5), r"observed_fraction must be in \(0, 1\]"),
        (lambda: gen_lowrank(6, 5, 2, 0.5, noise_sd=-0.1), "noise_sd must be nonnegative"),
    ],
    ids=["sensing-m-0", "sensing-n-0", "sensing-noise-negative", "lowrank-fraction-0",
         "lowrank-fraction-above-1", "lowrank-noise-negative"],
)
def test_rejected_with_message(generate, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate()


class TestGenLowrank:
    def test_full_observation(self):
        index, values = gen_lowrank(6, 5, 2, observed_fraction=1.0, seed=0)
        np.testing.assert_array_equal(index, np.arange(30))
        assert values.shape == (30,)

    def test_index_ascending_without_duplicates(self):
        index, _ = gen_lowrank(8, 8, 2, 0.4, seed=3)
        assert np.all(np.diff(index) > 0)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            gen_lowrank(6, 5, 0, observed_fraction=0.5)
        with pytest.raises(ValueError):
            gen_lowrank(6, 5, 6, observed_fraction=0.5)

    def test_determinism(self):
        a = gen_lowrank(8, 8, 2, 0.4, noise_sd=0.1, seed=3)
        b = gen_lowrank(8, 8, 2, 0.4, noise_sd=0.1, seed=3)
        for x, y in zip(a, b, strict=True):
            np.testing.assert_array_equal(x, y)


def _reference_lowrank(users, items, rank, observed_fraction, noise_sd, seed):
    """The earlier per-entry generator loop and MatrixHuber index build, kept verbatim.

    Returns the (index, values) arrays that MatrixHuber built from its entry list.
    """
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((users, rank))
    V = rng.standard_normal((items, rank))
    M = U @ V.T
    total = users * items
    n_obs = int(round(observed_fraction * total))
    flat = rng.choice(total, size=n_obs, replace=False)
    entries = []
    for f in sorted(flat):
        i, j = divmod(int(f), items)
        v = M[i, j]
        if noise_sd > 0:
            v += noise_sd * rng.standard_normal()
        entries.append((i, j, float(v)))
    idx = np.array([i * items + j for i, j, _ in entries], dtype=int)
    vals = np.array([v for _, _, v in entries], dtype=float)
    return idx, vals


@pytest.mark.parametrize(
    "users, items, rank, observed_fraction, noise_sd, seed",
    [
        (200, 150, 5, 0.5, 0.0, 0),
        (200, 150, 5, 0.5, 0.1, 0),
        (20, 15, 2, 0.5, 0.1, 0),
        (7, 3, 1, 1.0, 0.3, 5),
    ],
    ids=["200x150-noise-0", "200x150-noise-0.1", "20x15", "7x3-full"],
)
def test_lowrank_bit_identical_to_reference(users, items, rank, observed_fraction, noise_sd, seed):
    index, values = gen_lowrank(users, items, rank, observed_fraction, noise_sd, seed)
    objs = [MatrixHuber(index, values, users, items)]
    if (observed_fraction, noise_sd) == (0.5, 0.1):  # the data settings lowrank_huber fixes
        objs.append(lowrank_huber(users, items, rank, seed=seed).objective)
    idx, vals = _reference_lowrank(users, items, rank, observed_fraction, noise_sd, seed)
    for obj in objs:
        assert np.array_equal(obj._idx, idx) and obj._idx.dtype == idx.dtype
        assert np.array_equal(obj._vals, vals)
