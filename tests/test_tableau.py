import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwflow.tableau import (
    ConfigError,
    Tableau,
    builtin,
    builtin_names,
    certificate,
    certificate_decay,
    rate_constants,
    validate,
)


_SHAPE = "shape mismatch: A must be q x q and omega length q"
_OMEGA_RANGE = r"omega entries must lie in \[0, 1\]"


class TestValidate:
    def test_builtins_are_valid(self):
        for name in builtin_names():
            validate(builtin(name))

    @pytest.mark.parametrize(
        "A, beta, omega, message",
        [
            ([[0.0, 0.0], [1.0, 0.0]], [1.0], [0.0], _SHAPE),
            ([[0.0]], [1.0], [0.0, 0.5], _SHAPE),
            ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 1.5], _OMEGA_RANGE),
            ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, -0.5], _OMEGA_RANGE),
        ],
        ids=["A-larger-than-beta", "omega-longer", "omega-above-1", "omega-negative"],
    )
    def test_rejected_with_message(self, A, beta, omega, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            validate(Tableau(A=A, beta=beta, omega=omega))

    def test_beta_sum(self):
        t = Tableau(A=[[0.0, 0.0], [0.5, 0.0]], beta=[0.0, 0.5], omega=[0.0, 0.5])
        with pytest.raises(ValueError, match="beta sum"):
            validate(t)

    def test_strictly_lower_triangular(self):
        A = builtin("rk4").A.copy()
        A[0, 1] = 1.0
        t = Tableau(A=A, beta=builtin("rk4").beta, omega=builtin("rk4").omega)
        with pytest.raises(ValueError, match="strictly lower triangular"):
            validate(t)

    def test_omega_first_entry(self):
        t = Tableau(A=[[0.0, 0.0], [0.5, 0.0]], beta=[0.0, 1.0], omega=[0.1, 0.5])
        with pytest.raises(ValueError, match="omega"):
            validate(t)


def _reference_validate(t: Tableau) -> None:
    """validate's checks as numpy reductions: the independent side of the property below."""
    q = t.q
    if t.A.shape != (q, q) or t.omega.shape[0] != q:
        raise ConfigError("shape mismatch: A must be q x q and omega length q")
    for name, entries in (("A", t.A), ("beta", t.beta), ("omega", t.omega)):
        if not np.isfinite(entries).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(entries))[0])
            raise ConfigError(f"tableau entry {name}{list(at)} is {entries[at]}, must be finite")
    if abs(float(t.beta.sum()) - 1.0) > 1e-12:
        raise ConfigError(f"beta sum is {t.beta.sum()!r}, must be 1")
    if np.triu(t.A).any():
        raise ConfigError("A is not strictly lower triangular")
    if t.omega[0] != 0.0:
        raise ConfigError("omega[0] must be 0")
    if t.omega.min() < 0.0 or t.omega.max() > 1.0:
        raise ConfigError("omega entries must lie in [0, 1]")


_FAULTS = ("none", "beta-sum", "non-finite", "upper-entry", "signed-zero-upper", "omega-first",
           "omega-range", "shape")


@st.composite
def _tableaus(draw, fault):
    """A valid tableau with q in 1..6, then the named fault injected."""
    q = draw(st.integers(1, 6))
    entry = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
    A = np.zeros((q, q))
    for i in range(q):
        for j in range(i):
            A[i, j] = draw(entry)
    beta = draw(st.lists(st.floats(-1.0, 1.0), min_size=q - 1, max_size=q - 1))
    beta.append(1.0 - float(np.sum(beta)))
    omega = [0.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=q - 1, max_size=q - 1))
    arrays = {"A": A, "beta": np.array(beta), "omega": np.array(omega)}
    if fault == "non-finite":
        name = draw(st.sampled_from(["A", "beta", "omega"]))
        at = tuple(draw(st.integers(0, n - 1)) for n in arrays[name].shape)
        arrays[name][at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif fault in ("upper-entry", "signed-zero-upper"):
        i = draw(st.integers(0, q - 1))
        j = draw(st.integers(i, q - 1))
        A[i, j] = -0.0 if fault == "signed-zero-upper" else draw(st.floats(-2.0, 2.0))
    elif fault == "beta-sum":
        arrays["beta"][-1] += draw(st.integers(8, 14)) * draw(st.sampled_from([1e-13, -1e-13]))
    elif fault == "omega-first":
        arrays["omega"][0] = draw(st.floats(-1.0, 2.0))
    elif fault == "omega-range":
        at = draw(st.integers(0, q - 1))
        arrays["omega"][at] = draw(st.floats(-1.0, -1e-300) | st.floats(1.0, 3.0, exclude_min=True))
    elif fault == "shape":  # A gains a column, or beta (so q) or omega an entry
        name = draw(st.sampled_from(["A", "beta", "omega"]))
        arrays[name] = np.hstack([arrays[name], np.zeros((q, 1)) if name == "A" else [0.0]])
    return Tableau(**arrays)


def _outcome(check, t: Tableau):
    try:
        check(t)
    except ConfigError as e:
        return str(e)
    return None


@pytest.mark.parametrize("fault", _FAULTS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_validate_matches_reference(fault, data):
    t = data.draw(_tableaus(fault))
    # the verdict is found once, when t is built; every call reports the same one
    assert _outcome(validate, t) == _outcome(validate, t) == _outcome(_reference_validate, t)


class TestReadOnly:
    @pytest.mark.parametrize("key, at", [("A", (1, 0)), ("beta", (0,)), ("omega", (1,))])
    def test_builtin_arrays_reject_writes(self, key, at):
        entries = getattr(builtin("rk4"), key)
        before = entries[at]
        with pytest.raises(ValueError, match="read-only"):
            entries[at] = 0.7
        assert getattr(builtin("rk4"), key)[at] == before

    def test_caller_arrays_stay_writable_and_unchanged(self):
        A, beta, omega = np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([0.0, 1.0]), np.zeros(2)
        t = Tableau(A=A, beta=beta, omega=omega)
        for given, kept in ((A, t.A), (beta, t.beta), (omega, t.omega)):
            assert given.flags.writeable and not kept.flags.writeable
            np.testing.assert_array_equal(given, kept)
        A[1, 0] = 0.7  # a later write to the caller's array leaves the tableau as built
        assert t.A[1, 0] == 0.5
        np.testing.assert_array_equal(A, [[0.0, 0.0], [0.7, 0.0]])


class TestIdentity:
    def test_equal_to_itself_and_not_to_a_copy(self):
        t = builtin("rk4")
        copy = Tableau(A=t.A, beta=t.beta, omega=t.omega, name="rk4")
        assert t == t and builtin("rk4") == t
        assert t != copy and not t == copy

    def test_works_as_dict_key(self):
        t = builtin("rk4")
        copy = Tableau(A=t.A, beta=t.beta, omega=t.omega, name="rk4")
        table = {t: "builtin", copy: "copy"}
        assert table[builtin("rk4")] == "builtin" and table[copy] == "copy"
        assert len({builtin(name) for name in builtin_names() * 2}) == len(builtin_names())


class TestBuiltins:
    def test_midpoint_values(self):
        t = builtin("midpoint")
        np.testing.assert_allclose(t.A, [[0.0, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(t.beta, [0.0, 1.0])
        np.testing.assert_allclose(t.omega, [0.0, 0.5])

    def test_rk38_beta(self):
        np.testing.assert_allclose(builtin("rk38").beta, [1 / 8, 3 / 8, 3 / 8, 1 / 8])

    def test_euler_is_single_stage(self):
        t = builtin("euler")
        assert t.q == 1
        assert t.A[0, 0] == 0.0 and t.beta[0] == 1.0 and t.omega[0] == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("heun")

    def test_json_round_trip(self):
        t = builtin("rk4")
        doc = {"A": t.A.tolist(), "beta": t.beta.tolist(), "omega": t.omega.tolist()}
        t2 = Tableau.from_json(json.dumps(doc), name="rk4")
        np.testing.assert_array_equal(t.A, t2.A)
        np.testing.assert_array_equal(t.beta, t2.beta)
        np.testing.assert_array_equal(t.omega, t2.omega)


class TestCertificate:
    def test_euler_closed_form(self):
        for c in (1.0, 2.0, 5.0):
            for k in (1, 3, 10, 100):
                z = certificate(builtin("euler"), c, k).z
                assert z[0] == pytest.approx(c / (c + k), abs=1e-15)

    def test_midpoint_k1(self):
        cert = certificate(builtin("midpoint"), 2.0, 1)
        np.testing.assert_allclose(cert.z, [-0.3810, 1.1429], atol=5e-4)
        assert not cert.in_unit_interval

    def test_midpoint_k2(self):
        cert = certificate(builtin("midpoint"), 2.0, 2)
        np.testing.assert_allclose(cert.z, [-0.2222, 0.8889], atol=5e-4)

    def test_rk4_k1(self):
        cert = certificate(builtin("rk4"), 2.0, 1)
        np.testing.assert_allclose(cert.z, [0.2449, 0.5986, 0.5714, 0.3333], atol=5e-4)
        assert cert.in_unit_interval

    def test_requires_k_at_least_one(self):
        with pytest.raises(ValueError):
            certificate(builtin("rk4"), 2.0, 0)

    @pytest.mark.parametrize("k", [0, -1, 1.5, float("nan"), float("inf")])
    def test_requires_integer_k_at_least_one(self, k):
        message = f"^certificate is defined for integer k >= 1, got {k}$"
        with pytest.raises(ValueError, match=message):
            certificate(builtin("rk4"), 2.0, k)

    def test_integral_float_k(self):
        np.testing.assert_array_equal(certificate(builtin("rk4"), 2.0, 3.0).z,
                                      certificate(builtin("rk4"), 2.0, 3).z)

    def test_decay_values(self):
        d = certificate_decay(builtin("midpoint"), 2.0, 2)
        np.testing.assert_allclose(d, [1.1429, 0.8889], atol=5e-4)
        assert d[1] < d[0]

    @pytest.mark.parametrize("k_max", [1, 0])
    def test_decay_needs_two_indices(self, k_max):
        with pytest.raises(ValueError, match="^k_max must be >= 2$"):
            certificate_decay(builtin("midpoint"), 2.0, k_max)

    def test_decay_non_increasing_all_builtins(self):
        for name in builtin_names():
            d = certificate_decay(builtin(name), 2.0, 50)
            assert np.all(np.diff(d) <= 1e-12)


class TestRateConstants:
    def test_euler_hand_values(self):
        rc = rate_constants(builtin("euler"), c=2.0, L=1.0, diam=2.0, h_x0=0.0)
        assert rc.p_max == pytest.approx(2 / 3)
        assert rc.D2 == pytest.approx(4 / 3)
        assert rc.D3 == pytest.approx(0.0)
        assert rc.D4 == pytest.approx(8 / 9)
        assert rc.h0 == pytest.approx(32 / 9)

    def test_degenerate_diameter(self):
        rc = rate_constants(builtin("rk4"), c=2.0, L=1.0, diam=0.0)
        assert rc.D2 == rc.D3 == rc.D4 == 0.0

    def test_midpoint_against_direct_inverse(self):
        t = builtin("midpoint")
        c = 2.0
        gam = c / (c + 1 + t.omega)
        M = np.eye(2) + t.A.T @ np.diag(gam)
        P = np.diag(gam) @ np.linalg.inv(M)
        p_max = np.linalg.norm(P, axis=0).max()
        rc = rate_constants(t, c=c, L=1.0, diam=2.0)
        assert rc.p_max == pytest.approx(p_max)
        assert rc.D2 > 0 and rc.D3 > 0 and rc.D4 > 0

    def test_d4_lower_bound(self):
        L = 1.0
        for name in builtin_names():
            rc = rate_constants(builtin(name), c=2.0, L=L, diam=2.0)
            assert rc.D4 >= L * rc.D2**2 / 2 - 1e-12

    def test_requires_c_above_one(self):
        with pytest.raises(ValueError):
            rate_constants(builtin("euler"), c=1.0, L=1.0, diam=2.0)

    @pytest.mark.parametrize("c", [np.nan, np.inf, 0.5])
    def test_rejects_c_outside_schedule_range(self, c):
        with pytest.raises(ConfigError, match="schedule constant c must be >= 1 and finite"):
            rate_constants(builtin("euler"), c=c, L=1.0, diam=2.0)

    @pytest.mark.parametrize(
        "L, diam, h_x0",
        [(np.nan, 2.0, 0.0), (1.0, np.inf, 0.0), (1.0, 2.0, np.nan), (np.inf, 2.0, 0.0),
         (1.0, np.nan, 0.0), (1.0, 2.0, np.inf), (0.0, 2.0, 0.0), (1.0, -1.0, 0.0)],
    )
    def test_rejects_non_finite_constants(self, L, diam, h_x0):
        # L = nan would drop the D4 term from h0, and h_x0 = nan would make h0 nan, a bound
        # that no h0/(k+1) check can fail
        with pytest.raises(ValueError, match="L > 0, diam >= 0 and h_x0 must all be finite"):
            rate_constants(builtin("rk4"), c=2.0, L=L, diam=diam, h_x0=h_x0)

    def test_bound_curve(self):
        rc = rate_constants(builtin("euler"), c=2.0, L=1.0, diam=2.0, h_x0=10.0)
        assert rc.h0 == 10.0
