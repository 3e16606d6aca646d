"""Each CLI call loads only the scipy modules its run calls.

Every case runs in a fresh interpreter, since this test session has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# imports fwflow, runs fwflow.cli.main on each argv given as JSON, and prints the exit
# codes, the SHA-256 of what the runs printed, and every scipy module then loaded
_PROBE = """
import contextlib, hashlib, io, json, sys
import fwflow, fwflow.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [fwflow.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


# computes every builtin's certificate and rate constants, as the benchmark's output
# check does, and prints every scipy module then loaded
_TABLEAU_PROBE = """
import json, sys
from fwflow.tableau import builtin, builtin_names, certificate, rate_constants
for name in builtin_names():
    certificate(builtin(name), 2.0, 1)
    rate_constants(builtin(name), 2.0, L=1.0, diam=1.0)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _python(tmp_path, code, *args):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _loaded(tmp_path, *argvs):
    report = _python(tmp_path, _PROBE, json.dumps(argvs))
    assert report["codes"] == [0] * len(argvs)
    return report


def test_import_loads_no_scipy(tmp_path):
    assert _loaded(tmp_path)["scipy"] == []


def test_box_rk_and_lowrank_runs_load_no_scipy(tmp_path):
    out = ["--output-dir", str(tmp_path)]
    report = _loaded(
        tmp_path,
        ["run", "--problem", "scalar_box", "--method", "rk", "--tableau", "rk4",
         "--max-iter", "10", *out],
        ["run", "--problem", "scalar_huber", "--max-iter", "10", *out],
        ["run", "--problem", "lowrank", "--max-iter", "3", *out],
    )
    assert "scipy" not in report["scipy"]


def test_hull_run_loads_scipy_optimize(tmp_path):
    report = _loaded(tmp_path, ["run", "--problem", "triangle", "--max-iter", "3",
                                "--output-dir", str(tmp_path)])
    assert "scipy.optimize" in report["scipy"]


def test_logistic_run_loads_scipy_special_only(tmp_path):
    report = _loaded(tmp_path, ["run", "--problem", "logistic", "--max-iter", "3",
                                "--output-dir", str(tmp_path)])
    assert "scipy.special" in report["scipy"]
    assert "scipy.optimize" not in report["scipy"]
    assert "scipy.linalg" not in report["scipy"]


def test_bound_and_certify_print_as_before(tmp_path):
    # SHA-256 of what each command printed while every scipy import was at module level
    bound = _loaded(tmp_path, ["bound", "--points", "3"])
    assert bound["stdout_sha256"] == (
        "c39df371b02cebec65d2b7e63fd2fe873ebcf76b8daa09833978404ca0f68399"
    )
    assert "scipy.integrate" in bound["scipy"]
    certify = _loaded(tmp_path, ["certify", "rk4"])
    assert certify["stdout_sha256"] == (
        "b27f8324db213a05af1fda966ab0a655b66ecceef8a0107f5b4a67844afe51b7"
    )
    assert certify["scipy"] == []


def test_certificates_and_rate_constants_load_no_scipy(tmp_path):
    assert _python(tmp_path, _TABLEAU_PROBE) == []
