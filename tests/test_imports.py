"""Each CLI call loads only the scipy modules its run calls.

Every case runs in a fresh interpreter, since this test session has loaded scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.special

from fwflow.geometry import _compiled
from fwflow.problems import sensing_logistic, triangle

SRC = Path(__file__).resolve().parents[1] / "src"

# imports fwflow, runs fwflow.cli.main on each argv given as JSON, and prints the exit
# codes, the SHA-256 of what the runs printed, every scipy module then loaded, and the peak
# resident memory in KiB (ru_maxrss) after the import and again after the runs. On Linux a
# process that exec starts takes its launcher's peak, here the test session's, as its own
# ru_maxrss, so the probe forks first and works in the child, whose peak is its own
_PROBE = """
import os, sys
if os.fork():
    sys.exit(os.waitstatus_to_exitcode(os.wait()[1]))
import contextlib, hashlib, io, json, resource
import fwflow, fwflow.cli
rss_import = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [fwflow.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "codes": codes,
    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "rss_kib": [rss_import, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss],
}))
"""

# builds a hull and a logistic loss, and imports the scipy packages whose compiled functions
# they hold, in the order given; prints whether each holds the very object its package hands
# out, and whether both compiled modules are still in sys.modules under their package
_SAME_KERNEL_PROBE = """
import json, sys
def build():
    from fwflow.problems import sensing_logistic, triangle
    return triangle().feasible_set, sensing_logistic(0).objective
if sys.argv[1] == "packages-first":
    import scipy.optimize, scipy.special
hull, loss = build()
import scipy.optimize, scipy.special
print(json.dumps([hull._nnls is scipy.optimize._slsqplib.nnls,
                  loss._expit is scipy.special.expit,
                  "scipy.optimize._slsqplib" in sys.modules,
                  "scipy.special._special_ufuncs" in sys.modules]))
"""

# the scipy packages that importing scipy.optimize or scipy.special for one function loads
_SCIPY_PACKAGES = ("scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse")


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


def _hull_and_logistic_runs(tmp_path):
    out = ["--output-dir", str(tmp_path)]
    return _loaded(tmp_path, ["run", "--problem", "triangle", "--max-iter", "3", *out],
                   ["run", "--problem", "logistic", "--max-iter", "3", *out])


def test_hull_run_loads_scipy_optimize(tmp_path):
    # only scipy.optimize's compiled nnls module, from its file, and no scipy package
    loaded = _loaded(tmp_path, ["run", "--problem", "triangle", "--max-iter", "3",
                                "--output-dir", str(tmp_path)])["scipy"]
    assert "scipy" in loaded
    assert not [m for m in loaded if m.startswith(_SCIPY_PACKAGES)]
    assert triangle().feasible_set._nnls.__module__ == "scipy.optimize._slsqplib"


def test_logistic_run_loads_scipy_special_only(tmp_path):
    # only scipy.special's compiled expit module, from its file, and no scipy package
    loaded = _loaded(tmp_path, ["run", "--problem", "logistic", "--max-iter", "3",
                                "--output-dir", str(tmp_path)])["scipy"]
    assert "scipy" in loaded
    assert not [m for m in loaded if m.startswith(_SCIPY_PACKAGES)]
    assert sensing_logistic(0).objective._expit is scipy.special.expit


def test_hull_and_logistic_runs_keep_resident_memory_small(tmp_path):
    # importing scipy.optimize and scipy.special for nnls and expit grew it by about 45 MB
    before, after = _hull_and_logistic_runs(tmp_path)["rss_kib"]
    assert after - before < 20 * 1024


@pytest.mark.parametrize("order", ["packages-first", "packages-later"])
def test_packages_hand_out_the_kernels_fwflow_holds(tmp_path, order):
    assert _python(tmp_path, _SAME_KERNEL_PROBE, order) == [True] * 4


def test_compiled_module_that_is_not_there_names_the_scipy_requirement():
    with pytest.raises(ImportError, match=r"scipy >= 1\.17.*scipy\.optimize\._no_such_module"):
        _compiled("scipy.optimize._no_such_module", "nnls")


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
