"""The four benchmark workloads.

Each workload has two sizes. ``full`` is the size named for the workload (the
``fig1`` and ``lower-bound`` presets, 100 nuclear-ball steps, ``zigzag`` at
T=300); the traced run executes it once, so its call counts are the ones the
layer table cites. ``timed`` is the same mix of calls at a shorter horizon,
small enough that one timed run repeats it a few dozen times and can report a
median and a tail.

A workload is driven the way a user drives it: the CLI workloads call
``fwflow.cli.main`` with a sweep config or command line, the library workload
calls ``fwflow.solvers.run``. Names are looked up on the module at call time,
so the tracer's wrappers are seen.

``prepare`` is the set-up a user pays before the first solver call (configs,
problem data) and is timed as part of ``setup_s``. ``expect`` describes the
trajectory CSVs for the output check; it is benchmark-side work, never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

SIZES = ("timed", "full")
DEFAULT_SEED = 0
HELDOUT_SEED = 1  # confirm claims on this seed; it is never used while tuning


def _cli(argv):
    import fwflow.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = fwflow.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fwflow {' '.join(map(str, argv))} exited with {code}")


def _write_sweep(work: Path, name: str, configs) -> Path:
    path = work / f"{name}.json"
    path.write_text(json.dumps(configs, indent=1))
    return path


def _traj(method, c, max_iter, problem, tableau=None):
    return {
        "method": method,
        "c": float(c),
        "max_iter": int(max_iter),
        "problem": problem,
        "tableau": tableau,
    }


class Workload:
    name = ""
    seeded = True  # False: the workload's inputs do not depend on the seed
    kernel = "interp"  # the calibrate.py kernel whose work resembles this workload's

    def prepare(self, seed: int, size: str, work: Path) -> dict:
        raise NotImplementedError

    def run(self, ctx: dict, out: Path) -> None:
        raise NotImplementedError

    def expect(self, ctx: dict) -> dict:
        """Trajectory CSV name -> how it was made (see checks.Guarantees)."""
        raise NotImplementedError


class HullFlow(Workload):
    """The fig1 preset: fw and the flow at three deltas on the triangle hull."""

    name = "hull-flow"
    seeded = False
    scale = {"timed": 1 / 25, "full": 1.0}

    def configs(self, size):
        s = self.scale[size]
        cfgs = []
        for c in (1.0, 2.0, 4.0):
            cfgs.append(
                {
                    "problem": "triangle",
                    "method": "fw",
                    "c": c,
                    "max_iter": int(round(500 * s)),
                    "output": f"fig1_fw_c{c:g}",
                    "diagnostics": {"bound_compare": {}},
                }
            )
            for delta in (0.1, 0.01, 0.001):
                cfgs.append(
                    {
                        "problem": "triangle",
                        "method": "flow",
                        "c": c,
                        "delta": delta,
                        "max_iter": int(round(50.0 * s / delta)),
                        "output": f"fig1_flow_c{c:g}_d{delta:g}",
                        "diagnostics": {"bound_compare": {}},
                    }
                )
        return cfgs

    def prepare(self, seed, size, work):
        cfgs = self.configs(size)
        return {"configs": cfgs, "sweep": _write_sweep(work, self.name, cfgs)}

    def run(self, ctx, out):
        _cli(["sweep", "--config", ctx["sweep"], "--output-dir", out])

    def expect(self, ctx):
        return {
            f"{c['output']}.csv": _traj(c["method"], c["c"], c["max_iter"], "triangle")
            for c in ctx["configs"]
        }


class BoxRK(Workload):
    """The lower-bound preset: fw and every non-Euler tableau on the 1-D box."""

    name = "box-rk"
    seeded = False
    max_iter = {"timed": 400, "full": 10_000}

    def configs(self, size):
        from fwflow.tableau import builtin_names

        n = self.max_iter[size]
        anchors = [a for a in (10, 100, 1000) if a <= n]
        methods = [("fw", None)] + [("rk", t) for t in builtin_names() if t != "euler"]
        return [
            {
                "problem": "scalar_box",
                "method": method,
                "c": 2.0,
                "max_iter": n,
                "tableau": tab,
                "output": f"lower_bound_{tab or 'fw'}",
                "diagnostics": {"lower_bound": {"anchors": anchors}},
            }
            for method, tab in methods
        ]

    def prepare(self, seed, size, work):
        cfgs = self.configs(size)
        return {"configs": cfgs, "sweep": _write_sweep(work, self.name, cfgs)}

    def run(self, ctx, out):
        _cli(["sweep", "--config", ctx["sweep"], "--output-dir", out])

    def expect(self, ctx):
        return {
            f"{c['output']}.csv": _traj(
                c["method"], c["c"], c["max_iter"], "scalar_box", c["tableau"]
            )
            for c in ctx["configs"]
        }


class LowrankNuclear(Workload):
    """Library fw on a 200x150 rank-5 nuclear-ball Huber problem.

    The problem is generated at the default seed whatever the run's seed: the
    power iteration's step count depends on the spectrum, so the cost of the
    same 20 steps varies by a CV of about 0.2 across seeds, more than any
    bound could absorb. An LMO call costs about three times as much near step
    100 as in the first 20 steps, so the timed size runs 40 steps: shorter
    prefixes under-weight the LMO against ``violation``, and longer ones
    leave too few passes in a run for a tail.
    """

    name = "lowrank-nuclear"
    seeded = False
    kernel = "blas"
    steps = {"timed": 40, "full": 100}

    def prepare(self, seed, size, work):
        import fwflow.problems

        problem = fwflow.problems.lowrank_huber(
            users=200, items=150, rank=5, seed=DEFAULT_SEED
        )
        return {"problem": problem, "steps": self.steps[size]}

    def run(self, ctx, out):
        import fwflow.solvers as solvers

        p = ctx["problem"]
        traj = solvers.run(
            p.objective, p.feasible_set, p.x0, "fw", solvers.StepSchedule(c=2.0), ctx["steps"]
        )
        traj.to_csv(out / "lowrank_fw.csv")

    def expect(self, ctx):
        return {"lowrank_fw.csv": _traj("fw", 2.0, ctx["steps"], "lowrank")}


class LogisticZigzag(Workload):
    """fwflow zigzag on the logistic sensing problem plus fig2-bottom and sensing sweeps."""

    name = "logistic-zigzag"
    kernel = "dense"
    horizon = {"timed": 20, "full": 300}
    sensing_iter = {"timed": 50, "full": 500}

    def configs(self, seed, size):
        cfgs = []
        for method, tab in (("fw", None), ("midpoint", "midpoint"), ("rk4", "rk4")):
            cfgs.append(
                {
                    "problem": "logistic",
                    "method": "fw" if tab is None else "rk",
                    "c": 2.0,
                    "max_iter": 100,
                    "seed": seed,
                    "tableau": tab,
                    "output": f"fig2_bottom_{method}",
                    "diagnostics": {"zigzag": {"W": [5], "T": 100.0}},
                }
            )
        for method, tab in (("fw", None), ("rk", "midpoint"), ("rk", "rk4")):
            cfgs.append(
                {
                    "problem": "sensing",
                    "method": method,
                    "c": 2.0,
                    "max_iter": self.sensing_iter[size],
                    "seed": seed,
                    "tableau": tab,
                    "output": f"sensing_{tab or 'fw'}",
                }
            )
        return cfgs

    def prepare(self, seed, size, work):
        cfgs = self.configs(seed, size)
        return {
            "configs": cfgs,
            "sweep": _write_sweep(work, self.name, cfgs),
            "seed": seed,
            "T": self.horizon[size],
        }

    def run(self, ctx, out):
        _cli(
            [
                "zigzag",
                "--problem",
                "logistic",
                "--seed",
                ctx["seed"],
                "--T",
                ctx["T"],
                "--output",
                "zigzag_logistic.csv",
                "--output-dir",
                out,
            ]
        )
        _cli(["sweep", "--config", ctx["sweep"], "--output-dir", out])

    def expect(self, ctx):
        return {
            f"{c['output']}.csv": _traj(
                c["method"], c["c"], c["max_iter"], c["problem"], c["tableau"]
            )
            for c in ctx["configs"]
        }


WORKLOADS = {w.name: w for w in (HullFlow(), BoxRK(), LowrankNuclear(), LogisticZigzag())}
