import hashlib
import json
from dataclasses import astuple
from fractions import Fraction

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
            ([[0.0, 0.0], [1.0, 0.0]], [1.0], [0.0],
             "tableau beta length 1 differs from A's row count 2"),
            ([[0.0]], [1.0], [0.0, 0.5], _SHAPE),
            ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, 1.5], _OMEGA_RANGE),
            ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0], [0.0, -0.5], _OMEGA_RANGE),
        ],
        ids=["A-larger-than-beta", "omega-longer", "omega-above-1", "omega-negative"],
    )
    def test_rejected_with_message(self, A, beta, omega, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            Tableau(A=A, beta=beta, omega=omega)

    def test_beta_sum(self):
        with pytest.raises(ConfigError, match="beta sum"):
            Tableau(A=[[0.0, 0.0], [0.5, 0.0]], beta=[0.0, 0.5], omega=[0.0, 0.5])

    def test_strictly_lower_triangular(self):
        A = builtin("rk4").A.copy()
        A[0, 1] = 1.0
        with pytest.raises(ConfigError, match="strictly lower triangular"):
            Tableau(A=A, beta=builtin("rk4").beta, omega=builtin("rk4").omega)

    def test_omega_first_entry(self):
        with pytest.raises(ConfigError, match="omega"):
            Tableau(A=[[0.0, 0.0], [0.5, 0.0]], beta=[0.0, 1.0], omega=[0.1, 0.5])

    @pytest.mark.parametrize(
        "call, kind",
        [
            (lambda: validate(None), "NoneType"),
            (lambda: certificate("rk4", 2.0, 1), "str"),
            (lambda: rate_constants({"name": "rk4"}, c=2.0, L=1.0, diam=2.0), "dict"),
        ],
        ids=["validate-none", "certificate-name", "rate_constants-dict"],
    )
    def test_rejects_what_is_not_a_tableau(self, call, kind):
        with pytest.raises(ConfigError, match=f"^expected a Tableau, got {kind}$"):
            call()


def _reference_validate(A: np.ndarray, beta: np.ndarray, omega: np.ndarray) -> None:
    """The tableau checks as numpy reductions: the independent side of the property below."""
    q = beta.shape[0]
    if A.shape[0] != q:
        raise ConfigError(f"tableau beta length {q} differs from A's row count {A.shape[0]}")
    if A.shape != (q, q) or omega.shape[0] != q:
        raise ConfigError("shape mismatch: A must be q x q and omega length q")
    for name, entries in (("A", A), ("beta", beta), ("omega", omega)):
        if not np.isfinite(entries).all():
            at = tuple(int(i) for i in np.argwhere(~np.isfinite(entries))[0])
            raise ConfigError(f"tableau entry {name}{list(at)} is {entries[at]}, must be finite")
    if abs(float(beta.sum()) - 1.0) > 1e-12:
        raise ConfigError(f"beta sum is {beta.sum()!r}, must be 1")
    if np.triu(A).any():
        raise ConfigError("A is not strictly lower triangular")
    if omega[0] != 0.0:
        raise ConfigError("omega[0] must be 0")
    if omega.min() < 0.0 or omega.max() > 1.0:
        raise ConfigError("omega entries must lie in [0, 1]")


_FAULTS = ("none", "beta-sum", "non-finite", "upper-entry", "signed-zero-upper", "omega-first",
           "omega-range", "shape")


@st.composite
def _tableau_arrays(draw, fault):
    """The arrays of a valid tableau with q in 1..6, then the named fault injected."""
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
    return arrays


def _outcome(check, *args):
    try:
        check(*args)
    except ConfigError as e:
        return str(e)
    return None


@pytest.mark.parametrize("fault", _FAULTS)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(data=st.data())
def test_validate_matches_reference(fault, data):
    # a tableau is checked when it is built: building it raises the reference's message,
    # and a tableau that is built passes validate
    arrays = data.draw(_tableau_arrays(fault))
    expected = _outcome(_reference_validate, arrays["A"], arrays["beta"], arrays["omega"])
    assert _outcome(lambda: validate(Tableau(**arrays))) == expected


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

    def test_json_numeric_strings(self):
        doc = {"A": [["0", 0], ["0.5", "0"]], "beta": [0, "1"], "omega": [0, "0.5"]}
        t = Tableau.from_json(json.dumps(doc))
        for key in ("A", "beta", "omega"):
            np.testing.assert_array_equal(getattr(t, key), getattr(builtin("midpoint"), key))

    @pytest.mark.parametrize("doc, key", [
        ('{"A": [[false]], "beta": [true], "omega": [false]}', "A"),
        ('{"A": [[0, 0], [0.5, 0]], "beta": [0, true], "omega": [0, 0.5]}', "beta"),
        ('{"A": [[0]], "beta": [1], "omega": false}', "omega"),
    ])
    def test_json_rejects_booleans(self, doc, key):
        with pytest.raises(ConfigError, match=f"^tableau {key} must be a number, got (False|True)$"):
            Tableau.from_json(doc)


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
        rule = "be >= 1" if k in (0, -1) else "be an integer"
        message = f"^certificate index k must {rule}, got {k}$"
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
        with pytest.raises(ConfigError, match=f"^k_max must be >= 2, got {k_max}$"):
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
        "L, diam, h_x0, message",
        [(np.nan, 2.0, 0.0, "L must be positive and finite, got nan"),
         (1.0, np.inf, 0.0, "diam must be >= 0 and finite, got inf"),
         (1.0, 2.0, np.nan, "h_x0 must be finite, got nan"),
         (np.inf, 2.0, 0.0, "L must be positive and finite, got inf"),
         (1.0, np.nan, 0.0, "diam must be >= 0 and finite, got nan"),
         (1.0, 2.0, np.inf, "h_x0 must be finite, got inf"),
         (0.0, 2.0, 0.0, "L must be positive and finite, got 0.0"),
         (1.0, -1.0, 0.0, "diam must be >= 0 and finite, got -1.0")],
        ids=["nan-2.0-0.0", "1.0-inf-0.0", "1.0-2.0-nan", "inf-2.0-0.0", "1.0-nan-0.0",
             "1.0-2.0-inf", "0.0-2.0-0.0", "1.0--1.0-0.0"],
    )
    def test_rejects_non_finite_constants(self, L, diam, h_x0, message):
        # L = nan would drop the D4 term from h0, and h_x0 = nan would make h0 nan, a bound
        # that no h0/(k+1) check can fail
        with pytest.raises(ConfigError, match=f"^{message}$"):
            rate_constants(builtin("rk4"), c=2.0, L=L, diam=diam, h_x0=h_x0)

    def test_bound_curve(self):
        rc = rate_constants(builtin("euler"), c=2.0, L=1.0, diam=2.0, h_x0=10.0)
        assert rc.h0 == 10.0


# SHA-256 of the bytes of certificate(t, c, k).z over k = 1..1000, recorded while
# _solve_mixing solved its system with LAPACK (scipy.linalg.solve_triangular)
PINNED_Z_SHA256 = {
    ("euler", 1.0): "e9b3a04c0a1b61fbf38412200d4ac27e7a73d2ba4576076870c2967a2894b325",
    ("euler", 1.5): "a45727aab843a7126bcd8f3c1a89b11cb44cd96e68bf450675b540349a20b6e6",
    ("euler", 2.0): "52af6262f6fbf5097939ab1c6a80e312eccb3d9440633362269b1d416f554de2",
    ("euler", 4.0): "7d5b71a50ba1d0b4d685f53cd4876541e9d96030729813217a7437787446f0ad",
    ("midpoint", 1.0): "a4490d7cdc7b65e23f9b0f318e3824433c2697a164c751de4d80a87a8cd8feb8",
    ("midpoint", 1.5): "546c511da7c261ab1da3fc6d6552bb1cd9cf97fb6b389d1811a858597be44c86",
    ("midpoint", 2.0): "f9f93bd97b36182ffe7718ae9f717eeff45c8256b7d636591d29c524ca72c5da",
    ("midpoint", 4.0): "01c5e0f26dd29c6673fd6a7295ba2b9e78817a69755b2fdbdd9dbe0c7b9a44d5",
    ("rk4", 1.0): "fbe402dbbb376de641e1b986ae8d7d0bddd1f0d8f254102eb24c3a1df69d3c93",
    ("rk4", 1.5): "db415ba4e44fb571229df059f018d1ad0989001653d1296a0f4a265e6c452f9a",
    ("rk4", 2.0): "b030116d2be9ebb9ce0d96d347b0b5cd8689c7b3052b4681afdcb4becbdb9abe",
    ("rk4", 4.0): "86046602539ab6312758c2ef7657d46d83dc08bdfb0849ca48db5167b431ee04",
    ("rk38", 1.0): "d7439f6ef4dea58ef435de9db1c4f32f41f9e9181359eb4041bea8b72b88481a",
    ("rk38", 1.5): "7a28f2434be2b380ab53816792791a1aed5cfaef260703cfc4c7c1063c491cb1",
    ("rk38", 2.0): "dca2d09e4b80a2f5968e5f87ba2104a440f6d61ff8038e55a5e38f2a3d426995",
    ("rk38", 4.0): "2e17e81adc54aaacec7dbb284e1b46c4e6724e1a49e38a806260a3a69e28d30c",
}

# rate_constants(t, c, L=1, diam=1) as (p_max, D2, D3, D4, h0), recorded with the z pins
PINNED_RATE_CONSTANTS = {
    ("euler", 1.5): (0.6, 0.6, 0.0, 0.18, 0.81),
    ("euler", 2.0): (0.6666666666666666, 0.6666666666666666, 0.0, 0.2222222222222222,
                     0.8888888888888888),
    ("euler", 4.0): (0.8, 0.8, 0.0, 0.32000000000000006, 1.706666666666667),
    ("midpoint", 1.5): (0.6, 1.2, 1.2, 3.3600000000000003, 15.120000000000003),
    ("midpoint", 2.0): (0.6666666666666666, 1.3333333333333333, 1.3333333333333333, 4.0,
                        16.0),
    ("midpoint", 4.0): (0.8, 1.6, 1.6, 5.440000000000001, 29.01333333333334),
    ("rk4", 1.5): (0.6, 2.4, 9.6, 35.519999999999996, 159.83999999999997),
    ("rk4", 2.0): (0.6666666666666666, 2.6666666666666665, 10.666666666666666,
                   42.666666666666664, 170.66666666666666),
    ("rk4", 4.0): (0.8459200619225319, 3.3836802476901275, 13.53472099076051,
                   65.05653507449796, 346.9681870639891),
    ("rk38", 1.5): (0.6852966948503812, 2.741186779401525, 10.9647471176061,
                    44.77821943565177, 201.50198746043296),
    ("rk38", 2.0): (0.8867455794540839, 3.5469823178163358, 14.187929271265343,
                    70.8028053043232, 283.2112212172928),
    ("rk38", 4.0): (1.4761059883656351, 5.9044239534625405, 23.617695813850162,
                    180.49769581385013, 962.6543776738673),
}


@pytest.mark.parametrize("name, c", list(PINNED_Z_SHA256))
def test_certificate_bits_pinned(name, c):
    t, digest = builtin(name), hashlib.sha256()
    for k in range(1, 1001):
        digest.update(certificate(t, c, k).z.tobytes())
    assert digest.hexdigest() == PINNED_Z_SHA256[name, c]


@pytest.mark.parametrize("name, c", list(PINNED_RATE_CONSTANTS))
def test_rate_constants_bits_pinned(name, c):
    assert astuple(rate_constants(builtin(name), c, L=1.0, diam=1.0)) == (
        PINNED_RATE_CONSTANTS[name, c]
    )


@pytest.mark.parametrize("c", [1, 2, 4])
def test_rk5_certificate_near_exact(c):
    # rk5's z2 cancels to about 0, so its float bits depend on the order of the sums; it
    # stays within 1e-15 of z evaluated exactly from the same float entries
    t = builtin("rk5")
    A, beta, omega = ([Fraction(v) for v in a] for a in (t.A.T.ravel(), t.beta, t.omega))
    q = t.q
    for k in range(1, 201):
        gammas = [Fraction(c) / (c + k + w) for w in omega]
        y = list(beta)
        for i in reversed(range(q)):
            y[i] -= sum(A[i * q + j] * gammas[j] * y[j] for j in range(i + 1, q))
        exact = [q * g * v for g, v in zip(gammas, y)]
        z = certificate(t, float(c), k).z
        assert max(abs(Fraction(v) - e) for v, e in zip(z.tolist(), exact)) <= 1e-15, k
