import pytest

from fwflow import problems
from fwflow.solvers import StepSchedule, run
from fwflow.tableau import builtin, builtin_names


@pytest.fixture(autouse=True)
def _no_output_dir_override(monkeypatch):
    """Unset FWFLOW_OUTPUT_DIR, which would redirect every CSV a test writes; a test may set it."""
    monkeypatch.delenv("FWFLOW_OUTPUT_DIR", raising=False)


@pytest.fixture(scope="session")
def triangle_runs():
    """10^4-iteration triangle runs at c = 2: fw plus every builtin tableau."""
    p = problems.triangle()
    sched = StepSchedule(c=2.0)
    out = {"fw": run(p.objective, p.feasible_set, p.x0, "fw", sched, 10000)}
    for name in builtin_names():
        out[name] = run(
            p.objective, p.feasible_set, p.x0, "rk", sched, 10000, tableau=builtin(name)
        )
    return p, out
