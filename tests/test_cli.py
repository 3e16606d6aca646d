import hashlib
import json

import numpy as np
import pytest

from fwflow.cli import main


def test_run_writes_trajectory(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--problem",
            "triangle",
            "--method",
            "fw",
            "--max-iter",
            "20",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = tmp_path / "triangle_fw.csv"
    assert out.exists()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "iter,t,f,gap,feas_violation"
    assert len(lines) == 22


def test_certify_midpoint(capsys):
    rc = main(["certify", "midpoint", "--c", "2", "--k-max", "2"])
    assert rc == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[1].startswith("1,-0.3810,1.1429")
    assert out[2].startswith("2,-0.2222,0.8889")


def test_certify_euler(capsys):
    rc = main(["certify", "euler", "--c", "2", "--k-max", "3"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    vals = [float(r.split(",")[1]) for r in rows]
    np.testing.assert_allclose(vals, [2 / 3, 0.5, 0.4], atol=5e-5)


def test_unknown_tableau_exits_2(capsys):
    assert main(["certify", "heun"]) == 2


def test_certify_c_below_1_exits_2(capsys):
    assert main(["certify", "rk4", "--c", "0.5"]) == 2


def test_unknown_preset_exits_2(tmp_path):
    assert main(["preset", "nope", "--output-dir", str(tmp_path)]) == 2


def test_invalid_method_exits_2(tmp_path):
    rc = main(
        ["run", "--problem", "triangle", "--method", "newton", "--output-dir", str(tmp_path)]
    )
    assert rc == 2


def test_bound_consistency(tmp_path):
    rc = main(
        [
            "bound",
            "--c",
            "2",
            "--t-max",
            "10",
            "--points",
            "5",
            "--output",
            "bound.csv",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    rows = np.loadtxt(tmp_path / "bound.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], rows[:, 2], atol=1e-8)


def test_sweep(tmp_path):
    cfg = [
        {"problem": "scalar_box", "method": "fw", "max_iter": 10, "output": "a"},
        {"problem": "scalar_box", "method": "rk", "tableau": "rk4", "max_iter": 10, "output": "b"},
    ]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "a.csv").exists() and (tmp_path / "b.csv").exists()


def test_output_dir_env_override(tmp_path, monkeypatch):
    other = tmp_path / "redirected"
    monkeypatch.setenv("FWFLOW_OUTPUT_DIR", str(other))
    rc = main(
        [
            "run",
            "--problem",
            "scalar_box",
            "--max-iter",
            "5",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (other / "scalar_box_fw.csv").exists()
    assert not (tmp_path / "scalar_box_fw.csv").exists()


def test_tableau_file(tmp_path):
    tab = {"A": [[0.0, 0.0], [0.5, 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
    tp = tmp_path / "mid.json"
    tp.write_text(json.dumps(tab))
    rc = main(
        [
            "run",
            "--problem",
            "scalar_box",
            "--method",
            "rk",
            "--tableau-file",
            str(tp),
            "--max-iter",
            "10",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0


def test_preset_fig3_manifest(tmp_path):
    rc = main(["preset", "fig3", "--output-dir", str(tmp_path)])
    assert rc == 0
    for stem in ("fig3_fw", "fig3_fw_linesearch", "fig3_rk_linesearch", "fig3_fw_momentum"):
        assert (tmp_path / f"{stem}.csv").exists()


def test_zigzag_table_shape(tmp_path):
    rc = main(
        [
            "zigzag",
            "--problem",
            "logistic",
            "--deltas",
            "1,0.5",
            "--windows",
            "5",
            "--T",
            "20",
            "--output",
            "z.csv",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "z.csv").read_text().strip().split("\n")
    assert lines[0] == "method,delta,W,energy"
    assert len(lines) == 3


BETA_SUM_1_1 = {"A": [[0.0, 0.0], [0.5, 0.0]], "beta": [0.1, 1.0], "omega": [0.0, 0.5]}
NAN_IN_A = {"A": [[0.0, 0.0], [float("nan"), 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
OVERFLOWS = {"A": [[0.0, 0.0], [1e308, 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
NO_OMEGA = {"A": [[0]], "beta": [1]}


@pytest.mark.parametrize(
    "argv, tableau, code, message",
    [
        (["--c", "0.5"], None, 2, "error: schedule constant c must be >= 1"),
        (["--delta", "0"], None, 2, "error: discretization unit delta"),
        (["--method", "rk"], BETA_SUM_1_1, 2, "error: beta sum is"),
        (["--method", "rk"], NAN_IN_A, 2, "error: tableau entry A[1, 0] is nan"),
        (["--method", "rk"], NO_OMEGA, 2, "error: tableau JSON lacks the key 'omega'"),
        (["--method", "rk"], [[0.0]], 2, "error: tableau JSON must be an object"),
        pytest.param(
            ["--problem", "scalar_box", "--method", "rk", "--max-iter", "5"],
            OVERFLOWS,
            1,
            "runtime error: gradient has non-finite entries",
            # the iterate overflows on purpose, so numpy's overflow warnings are expected
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
    ],
    ids=[
        "c-below-1",
        "delta-0",
        "beta-sum",
        "nan-tableau",
        "tableau-no-omega",
        "tableau-not-object",
        "overflow-mid-run",
    ],
)
def test_exit_code_contract(tmp_path, capsys, argv, tableau, code, message):
    # 2: rejected before the first step; 1: failed while iterating
    if tableau is not None:
        path = tmp_path / "tableau.json"
        path.write_text(json.dumps(tableau))
        argv = argv + ["--tableau-file", str(path)]
    assert main(["run", *argv, "--output-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--c", "0.5"], "error: schedule constant c must be >= 1"),
        (["zigzag", "--windows", "1"], "error: window size W must be >= 2"),
    ],
    ids=["bound-c-below-1", "zigzag-window-1"],
)
def test_diagnostic_settings_exit_2(tmp_path, capsys, argv, message):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(message)


def test_diagnostic_precondition_checked_before_run(tmp_path, capsys):
    # the slope fit needs f*, which sensing lacks: reject before any step runs
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{"problem": "sensing", "diagnostics": {"slope": {}}}]))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: slope diagnostic needs")
    assert not list(out.glob("*.csv"))


# SHA-256 of each diagnostic CSV that a run configuration can write
@pytest.mark.parametrize(
    "cfg, suffix, digest",
    [
        (
            {"problem": "triangle", "method": "flow", "delta": 0.1, "max_iter": 100,
             "diagnostics": {"bound_compare": {}}},
            "bound",
            "6dd26e3b3349887e55c90a6310adc79052e6313dc81ff40c7a0f8ec11f5bb457",
        ),
        (
            {"problem": "scalar_box", "method": "rk", "tableau": "rk4", "max_iter": 1000,
             "diagnostics": {"lower_bound": {}}},
            "lower_bound",
            "57599076eaf8f97b2b62894fef43a4db3c663194672ca54738c59ceab8c4253f",
        ),
        (
            {"problem": "logistic", "method": "fw", "diagnostics": {"zigzag": {"W": [5]}}},
            "zigzag",
            "2db408633c9dfd479d465effe56ec6f1310b0d29b632aebcd23132dc909d084a",
        ),
        (
            {"problem": "triangle", "method": "fw", "max_iter": 500, "diagnostics": {"slope": {}}},
            "slope",
            "32272b993468a8839712e42304ac1449e19b4291cdd1821f18e961e768d1bec5",
        ),
    ],
    ids=["bound", "lower_bound", "zigzag", "slope"],
)
def test_diagnostic_csv_digest_pinned(tmp_path, cfg, suffix, digest):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps([{**cfg, "output": "d"}]))
    assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / f"d_{suffix}.csv").read_bytes()).hexdigest() == digest
