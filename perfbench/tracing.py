"""Per-layer spans recorded from outside the package.

``Tracer.install()`` replaces the public functions of each fwflow layer with
thin wrappers, everywhere a caller looks them up: on the class for feasible
sets and objectives, on every fwflow module that imported a function by name
(``cli.run_solver``, ``solvers.validate``, ``problems.gen_lowrank``), and in
``problems.BUILDERS``. ``uninstall()`` puts every original back. The package
source is never edited.

Each wrapper opens a span. A span's self time is its duration minus the time
covered by the spans it caused, so self times add up to the traced wall time
spent inside the package.
"""

from __future__ import annotations

import os
import sys
import time

# (span name, home module, function name) for module-level functions
_FUNCTION_SPANS = (
    ("cli.main", "fwflow.cli", "main"),
    ("solvers.run", "fwflow.solvers", "run"),
    ("tableau.validate", "fwflow.tableau", "validate"),
    ("diagnostics.zigzag_protocol", "fwflow.diagnostics", "zigzag_protocol"),
    ("diagnostics.continuous_bound", "fwflow.diagnostics", "continuous_bound"),
    ("data.gen_sensing", "fwflow.data", "gen_sensing"),
    ("data.gen_lowrank", "fwflow.data", "gen_lowrank"),
)

# (span name, home module, method name): wrapped on every class of the home
# module that defines the method
_METHOD_SPANS = (
    ("geometry.lmo", "fwflow.geometry", "lmo"),
    ("geometry.violation", "fwflow.geometry", "violation"),
    ("objectives.gradient", "fwflow.objectives", "gradient"),
    ("objectives.value", "fwflow.objectives", "value"),
    ("solvers.to_csv", "fwflow.solvers", "to_csv"),
)

SPAN_NAMES = tuple(s[0] for s in _FUNCTION_SPANS) + tuple(s[0] for s in _METHOD_SPANS) + (
    "problems.build",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(".calls") or metric == "solvers.steps":
        return "count"
    for suffix, u in (("_us", "us"), ("_s", "s"), ("_per_step", "calls/step"), ("_bytes", "B")):
        if metric.endswith(suffix):
            return u
    raise KeyError(metric)


def _fwflow_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("fwflow") and m]


class Tracer:
    """Call counts and self times per span name, plus a few work counters."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.lmo_us = []  # duration of every LMO call, in microseconds
        self.steps = 0  # solver steps over all run() calls
        self.traj_x_bytes = 0  # records x dim x 8 over all run() results
        self.csv_bytes = 0  # bytes written by Trajectory.to_csv
        self._child = []  # time covered by child spans, one entry per open span
        self._patches = []  # (owner, attribute, original, is_dict)

    # -- span bookkeeping ---------------------------------------------------

    def _wrap(self, name, fn, after=None):
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        def span(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                calls[name] += 1
                self_s[name] += dt - inner
                if child:
                    child[-1] += dt
            if after is not None:
                after(dt, args, out)
            return out

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        return span

    def _after_lmo(self, dt, args, out):
        self.lmo_us.append(dt * 1e6)

    def _after_run(self, dt, args, traj):
        n = len(traj)
        self.steps += max(n - 1, 0)
        if n:
            self.traj_x_bytes += n * traj[0].x.size * 8

    def _after_to_csv(self, dt, args, out):
        target = args[1]
        if isinstance(target, str) or hasattr(target, "__fspath__"):
            self.csv_bytes += os.path.getsize(target)

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper, is_dict=False):
        original = owner[attr] if is_dict else owner.__dict__[attr]
        self._patches.append((owner, attr, original, is_dict))
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer function at each place a caller can look it up."""
        import fwflow.cli  # noqa: F401  (makes every layer module importable below)
        import fwflow.problems

        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _fwflow_modules()
        after = {
            "geometry.lmo": self._after_lmo,
            "solvers.run": self._after_run,
            "solvers.to_csv": self._after_to_csv,
        }
        for name, modname, attr in _FUNCTION_SPANS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, after.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for name, modname, method in _METHOD_SPANS:
            home = sys.modules[modname]
            for cls in vars(home).values():
                if isinstance(cls, type) and cls.__module__ == modname and method in cls.__dict__:
                    wrapper = self._wrap(name, cls.__dict__[method], after.get(name))
                    self._patch(cls, method, wrapper)
        # problem builders: the BUILDERS table and the module-level names the
        # presets call directly (fig2-* call problems.sensing_logistic)
        probs = fwflow.problems
        wrapped = {}
        for key, builder in list(probs.BUILDERS.items()):
            wrapped[builder] = self._wrap("problems.build", builder)
            self._patch(probs.BUILDERS, key, wrapped[builder], is_dict=True)
        for key, value in list(vars(probs).items()):
            if callable(value) and value in wrapped:
                self._patch(probs, key, wrapped[value])
        return self

    def uninstall(self):
        for owner, attr, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer metric values, keyed by the names in BENCHMARK.json."""
        import numpy as np

        c, s = self.calls, self.self_s
        out = {}
        for name in (
            "geometry.lmo",
            "geometry.violation",
            "objectives.gradient",
            "objectives.value",
            "tableau.validate",
            "solvers.run",
            "diagnostics.zigzag_protocol",
            "diagnostics.continuous_bound",
        ):
            out[f"{name}.calls"] = c[name]
            out[f"{name}.self_s"] = s[name]
        lmo = np.asarray(self.lmo_us) if self.lmo_us else np.zeros(1)
        out["geometry.lmo.p50_us"] = float(np.percentile(lmo, 50))
        out["geometry.lmo.p99_us"] = float(np.percentile(lmo, 99))
        steps = self.steps
        out["solvers.steps"] = steps
        out["solvers.lmo_per_step"] = c["geometry.lmo"] / steps if steps else 0.0
        out["solvers.gradient_per_step"] = c["objectives.gradient"] / steps if steps else 0.0
        out["solvers.to_csv.self_s"] = s["solvers.to_csv"]
        out["solvers.csv_bytes"] = self.csv_bytes
        out["solvers.traj_x_bytes"] = self.traj_x_bytes
        out["data.gen_sensing.self_s"] = s["data.gen_sensing"]
        out["data.gen_lowrank.self_s"] = s["data.gen_lowrank"]
        out["problems.build.self_s"] = s["problems.build"]
        out["cli.self_s"] = s["cli.main"]
        return out


def self_check(work) -> list:
    """Failures of the tracer against analytic counts and byte identity.

    Tiny fw and rk4 runs must show N+1 gradient/LMO/value calls for fw,
    (q+1)N+1 gradient/LMO calls for a q-stage tableau, N+2 violation calls
    (x0 plus one per record) and N+1 validate calls for rk. A traced preset
    that reaches the solver through ``cli.run_solver`` and builds its problem
    through ``problems.sensing_logistic`` must be counted in full, and tracing
    must not change a byte the CLI writes.
    """
    import contextlib
    import hashlib
    import io
    from pathlib import Path

    import fwflow.cli as cli
    import fwflow.problems as problems
    import fwflow.solvers as solvers
    from fwflow.tableau import builtin

    fails = []

    def expect(tr, label, want):
        for name, n in want.items():
            if tr.calls[name] != n:
                fails.append(f"self-check {label}: {name} counted {tr.calls[name]}, expected {n}")

    p = problems.triangle()
    n = 12
    for tab in (None, "rk4"):
        t = builtin(tab) if tab else None
        tr = Tracer()
        with tr:
            solvers.run(p.objective, p.feasible_set, p.x0, "rk" if t else "fw",
                        solvers.StepSchedule(c=2.0), n, tableau=t)
        calls = (t.q + 1) * n + 1 if t else n + 1
        expect(
            tr,
            tab or "fw",
            {
                "objectives.gradient": calls,
                "geometry.lmo": calls,
                "objectives.value": n + 1,
                "geometry.violation": n + 2,
                "tableau.validate": n + 1 if t else 0,
                "solvers.run": 1,
            },
        )
        if tr.steps != n:
            fails.append(f"self-check {tab or 'fw'}: {tr.steps} steps, expected {n}")

    # fw + midpoint + rk4 over 100 steps: 101 + (100*2 + 101) + (100*4 + 101) LMO calls
    commands = (
        ("preset", ["preset", "fig2-bottom"],
         {"geometry.lmo": 903, "problems.build": 1, "solvers.run": 3,
          "diagnostics.zigzag_protocol": 3, "cli.main": 1}),
        ("run", ["run", "--method", "rk", "--tableau", "rk4", "--max-iter", "10"],
         {"geometry.lmo": 51, "problems.build": 1, "solvers.run": 1, "solvers.to_csv": 1,
          "cli.main": 1}),
    )
    for label, argv, want in commands:
        written = []
        for tr in (None, Tracer()):
            out = Path(work) / f"{label}_{len(written)}"
            with contextlib.redirect_stdout(io.StringIO()), (tr or contextlib.nullcontext()):
                code = cli.main(argv + ["--output-dir", str(out)])
            if code != 0:
                fails.append(f"self-check {label}: exit code {code}")
            written.append(
                {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.glob("*.csv")}
            )
        expect(tr, label, want)
        if not written[0] or written[0] != written[1]:
            fails.append(f"self-check {label}: traced and untraced CSV bytes differ")
    return fails
