"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every numeric tolerance below is part of the acceptance contract; none of
them are tuned to the implementation.
"""

import io
import time

import numpy as np
import pytest

from fwflow import diagnostics, problems
from fwflow.cli import main as cli_main
from fwflow.geometry import contains
from fwflow.objectives import (
    LeastSquares,
    LogisticLoss,
    MatrixHuber,
    QuadraticDistance,
    ScalarHuber,
    check_gradient,
)
from fwflow.solvers import StepSchedule, flow_step, fw_step, rk_step, run
from fwflow.tableau import builtin, builtin_names, certificate, certificate_decay, rate_constants

RK_NAMES = ("midpoint", "rk4", "rk38", "rk5")

PRINTED_Z = {
    # z^(1) rows at c = 2
    ("midpoint", 1): [-0.3810, 1.1429],
    ("rk4", 1): [0.2449, 0.5986, 0.5714, 0.3333],
    ("rk38", 1): [0.1758, 0.6409, 0.6818, 0.2500],
    ("rk5", 1): [0.1821, 0.0068, 0.8416, 0.3657, 0.9956, 0.2333],
    ("midpoint", 2): [-0.2222, 0.8889],
}


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared trajectories (module-scoped so expensive runs happen once)


@pytest.fixture(scope="module")
def triangle_runs():
    """10^4-iteration triangle runs: fw plus every builtin tableau."""
    p = problems.triangle()
    sched = StepSchedule(c=2.0)
    out = {"fw": run(p.objective, p.feasible_set, p.x0, "fw", sched, 10000)}
    for name in builtin_names():
        out[name] = run(
            p.objective, p.feasible_set, p.x0, "rk", sched, 10000, tableau=builtin(name)
        )
    return p, out


@pytest.fixture(scope="module")
def scalar_runs():
    """10^4-iteration scalar-box runs: fw plus every builtin tableau."""
    p = problems.scalar_box()
    sched = StepSchedule(c=2.0)
    out = {"fw": run(p.objective, p.feasible_set, p.x0, "fw", sched, 10000)}
    for name in builtin_names():
        out[name] = run(
            p.objective, p.feasible_set, p.x0, "rk", sched, 10000, tableau=builtin(name)
        )
    return p, out


@pytest.fixture(scope="module")
def zigzag_energies():
    """Zig-zag energies on the logistic sensing problem across deltas and W."""
    energies = {}
    p = problems.sensing_logistic(seed=0)
    for delta in (1.0, 0.1, 0.01):
        sched = StepSchedule(c=2.0, delta=delta)
        traj = run(
            p.objective, p.feasible_set, p.x0, "flow", sched, int(round(100.0 / delta))
        )
        for W in (5, 20):
            energies[("fw", delta, W)] = diagnostics.zigzag_protocol(traj, W, 100.0).mean()
    sched = StepSchedule(c=2.0, delta=1.0)
    for name in ("midpoint", "rk4"):
        traj = run(p.objective, p.feasible_set, p.x0, "rk", sched, 100, tableau=builtin(name))
        energies[(name, 1.0, 5)] = diagnostics.zigzag_protocol(traj, 5, 100.0).mean()
    return energies


# ---------------------------------------------------------------------------


def test_criterion_01_certificate_fidelity():
    t0 = time.perf_counter()
    worst = 0.0
    for (name, k), expected in PRINTED_Z.items():
        z = certificate(builtin(name), 2.0, k).z
        worst = max(worst, float(np.max(np.abs(z - np.array(expected)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 5e-4 and elapsed < 1.0
    assert _report(1, "certificate fidelity", ok, f"max err {worst:.2e}, {elapsed:.3f}s")


def test_criterion_02_certificate_decay():
    ok = True
    for name in builtin_names():
        d = certificate_decay(builtin(name), 2.0, 200)
        if not np.all(np.diff(d) <= 1e-12):
            ok = False
    assert _report(2, "certificate decay", ok, "k=1..200, all builtins, c=2")


def test_criterion_03_consistency():
    sched = StepSchedule(c=2.0, delta=1.0)
    euler = builtin("euler")
    ok = True
    for p in (problems.triangle(), problems.scalar_box()):
        x_fw = p.x0.copy()
        x_fl = p.x0.copy()
        x_rk = p.x0.copy()
        for k in range(1000):
            x_fw = fw_step(p.objective, p.feasible_set, x_fw, k, sched)
            x_fl = flow_step(p.objective, p.feasible_set, x_fl, float(k), sched)
            x_rk = rk_step(p.objective, p.feasible_set, x_rk, k + 1, sched, euler)
            if not (np.array_equal(x_fw, x_fl)):
                ok = False
                break
        # rk uses schedule index k+1 by construction, so compare it against a
        # fw run driven at the same indices
        x_fw2 = p.x0.copy()
        x_rk2 = p.x0.copy()
        fw_iterates = [x_fw2]
        for k in range(1, 1001):
            x_fw2 = fw_step(p.objective, p.feasible_set, x_fw2, k, sched)
            x_rk2 = rk_step(p.objective, p.feasible_set, x_rk2, k, sched, euler)
            fw_iterates.append(x_fw2)
            if not np.array_equal(x_fw2, x_rk2):
                ok = False
                break
        # the same identities on the run() path that writes every CSV
        csvs = []
        for method in ("fw", "flow"):
            buf = io.StringIO()
            run(p.objective, p.feasible_set, p.x0, method, sched, 1000).to_csv(buf)
            csvs.append(buf.getvalue())
        xs_rk = run(p.objective, p.feasible_set, p.x0, "rk", sched, 1000, tableau=euler).x
        if csvs[0] != csvs[1] or not np.array_equal(xs_rk, np.array(fw_iterates)):
            ok = False
    assert _report(
        3, "consistency fw/flow/rk(euler)", ok, "bit-identical steps and run() paths, 1000 steps"
    )


def test_criterion_04_continuous_rate_bound():
    t0 = time.perf_counter()
    p = problems.triangle()
    h0 = p.objective.value(p.x0) - p.f_star
    ok = True
    worst_ratio = 0.0
    for c in (2.0, 4.0):
        sched = StepSchedule(c=c, delta=0.001)
        traj = run(p.objective, p.feasible_set, p.x0, "flow", sched, 50000)
        for t, f in zip(traj.t.tolist(), traj.f.tolist()):
            bound = diagnostics.continuous_bound(c, t)
            norm_err = (f - p.f_star) / h0
            if bound > 0:
                worst_ratio = max(worst_ratio, norm_err / bound)
        if worst_ratio > 1.05:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _report(
        4, "continuous-rate bound", ok, f"worst ratio {worst_ratio:.4f}, {elapsed:.1f}s"
    )


def test_criterion_05_upper_rate(triangle_runs):
    p, runs = triangle_runs
    L = p.objective.smoothness
    diam = p.feasible_set.diameter()
    h_x0 = p.objective.value(p.x0) - p.f_star
    bound_ok = True
    for name in builtin_names():
        rc = rate_constants(builtin(name), 2.0, L, diam, h_x0)
        traj = runs[name]
        errs = traj.f - p.f_star
        bounds = rc.h0 / (traj.k + 1.0)
        if not np.all(errs <= bounds + 1e-12):
            bound_ok = False
    slope = diagnostics.slope_fit(runs["fw"], p.f_star, k_min=100)
    slope_ok = -1.3 <= slope <= -0.7
    ok = bound_ok and slope_ok
    _report(
        5,
        "upper rate",
        ok,
        f"h0/(k+1) bound {'holds' if bound_ok else 'violated'}; fw slope {slope:.3f} "
        f"(required [-1.3, -0.7])",
    )
    assert ok


def test_criterion_06_lower_rate(scalar_runs):
    t0 = time.perf_counter()
    p, runs = scalar_runs
    anchors = [10, 100, 1000]
    ok = True
    details = []
    for name, traj in runs.items():
        vals = diagnostics.lower_bound_probe(traj, anchors)
        good = all(v >= 0.05 for v in vals)
        details.append(f"{name}: min probe {min(vals):.3f}")
        if not good:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(6, "lower rate", ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert ok


def test_criterion_07_zigzag_delta_scaling(zigzag_energies):
    ok = True
    details = []
    for W in (5, 20):
        r1 = zigzag_energies[("fw", 1.0, W)] / zigzag_energies[("fw", 0.1, W)]
        r2 = zigzag_energies[("fw", 0.1, W)] / zigzag_energies[("fw", 0.01, W)]
        details.append(f"W={W}: ratios {r1:.1f}, {r2:.1f}")
        if not (5.0 <= r1 <= 20.0 and 5.0 <= r2 <= 20.0):
            ok = False
    assert _report(7, "zig-zag delta scaling", ok, "; ".join(details))


def test_criterion_08_zigzag_multistep_reduction(zigzag_energies):
    e_fw = zigzag_energies[("fw", 1.0, 5)]
    e_mid = zigzag_energies[("midpoint", 1.0, 5)]
    e_rk4 = zigzag_energies[("rk4", 1.0, 5)]
    ok = e_rk4 < e_mid < e_fw
    assert _report(
        8,
        "zig-zag multistep reduction",
        ok,
        f"rk4 {e_rk4:.3f} < midpoint {e_mid:.3f} < fw {e_fw:.3f}",
    )


def test_criterion_09_feasibility(triangle_runs):
    p, runs = triangle_runs
    fw_max = runs["fw"].violation.max()
    fw_ok = fw_max <= 1e-9
    cap = 0.05 * p.feasible_set.diameter()
    worst_rk = max(runs[name].violation.max() for name in builtin_names())
    rk_ok = worst_rk < cap
    ok = fw_ok and rk_ok
    assert _report(
        9, "feasibility", ok, f"fw max {fw_max:.1e}; rk max {worst_rk:.3e} < {cap}"
    )


def test_criterion_10_variant_sanity():
    p = problems.triangle()
    sched = StepSchedule(c=2.0)
    ls = run(p.objective, p.feasible_set, p.x0, "fw+linesearch", sched, 2000)
    mono = bool(np.all(np.diff(ls.f) <= 1e-14))

    def first_hit(traj, tol):
        errs = traj.f - p.f_star
        hits = np.nonzero(errs <= tol)[0]
        return int(traj.k[hits[0]]) if hits.size else None

    rk_ls = run(
        p.objective, p.feasible_set, p.x0, "rk+linesearch", sched, 2000, tableau=builtin("rk4")
    )
    k_rk = first_hit(rk_ls, 1e-8)
    k_fw = first_hit(ls, 1e-8)
    faster = k_rk is not None and (k_fw is None or k_rk < k_fw)

    mom = run(p.objective, p.feasible_set, p.x0, "fw+momentum", sched, 10000)
    k_mom = first_hit(mom, 1e-4)
    mom_ok = k_mom is not None

    ok = mono and faster and mom_ok
    assert _report(
        10,
        "variant sanity",
        ok,
        f"linesearch monotone={mono}; rk4+ls hits 1e-8 at k={k_rk} vs fw+ls {k_fw}; "
        f"momentum hits 1e-4 at k={k_mom}",
    )


def test_criterion_11_numerics_hygiene():
    rng = np.random.default_rng(101)
    A = rng.standard_normal((40, 6))
    y = np.where(rng.standard_normal(40) >= 0, 1.0, -1.0)
    objs = [
        QuadraticDistance(target=rng.standard_normal(6)),
        ScalarHuber(eps=0.1),
        LeastSquares(A, rng.standard_normal(40)),
        LogisticLoss(A, y),
        MatrixHuber([1, 6], [0.5, -1.0], 3, 3),  # entries (0, 1) and (2, 0)
    ]
    worst_grad = 0.0
    for obj in objs:
        for _ in range(20):
            x = rng.standard_normal(obj.dim)
            if isinstance(obj, ScalarHuber):
                x = np.where(np.abs(np.abs(x) - obj.eps) < 1e-3, x + 0.01, x)
            worst_grad = max(worst_grad, check_gradient(obj, x))
    worst_bound = 0.0
    for c in (1.0, 2.0, 4.0):
        for t in (1.0, 10.0, 100.0):
            sb = diagnostics.schedule_bound(lambda tau, c=c: c / (c + tau), t)
            worst_bound = max(worst_bound, abs(sb - diagnostics.continuous_bound(c, t)))
    ok = worst_grad <= 1e-5 and worst_bound <= 1e-8
    assert _report(
        11, "numerics hygiene", ok, f"grad err {worst_grad:.1e}; bound err {worst_bound:.1e}"
    )


def test_criterion_12_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli_main(["preset", "fig3", "--output-dir", str(out)])
        assert rc == 0
        rc = cli_main(["preset", "sensing", "--output-dir", str(out)])
        assert rc == 0
    ok = True
    files_a = sorted(f.name for f in out_a.iterdir())
    for name in files_a:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            ok = False
    assert _report(12, "determinism", ok, f"{len(files_a)} CSVs byte-compared")
