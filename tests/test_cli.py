import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwflow.tableau
from fwflow import cli, geometry, problems
from fwflow.cli import _PRESETS, _SETTINGS, _parse, _zigzag_table, build_parser, main


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


def test_certify_prints_each_row_before_the_next_certificate(monkeypatch):
    # rows stream: row k is written before certificate(t, c, k + 1) is computed
    events, certificate = [], fwflow.tableau.certificate

    def recorded_certificate(t, c, k):
        events.append(("certificate", k))
        return certificate(t, c, k)

    class RecordedOut(io.StringIO):
        def write(self, text):
            if text != "\n":  # print writes the line, then its end
                events.append(("write", text.split(",")[0]))
            return super().write(text)

    monkeypatch.setattr(fwflow.tableau, "certificate", recorded_certificate)
    with contextlib.redirect_stdout(RecordedOut()):
        assert main(["certify", "rk4", "--c", "2", "--k-max", "3"]) == 0
    assert events == [("write", "k"), ("certificate", 1), ("write", "1"), ("certificate", 2),
                      ("write", "2"), ("certificate", 3), ("write", "3")]


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


@pytest.mark.parametrize("output", [[], ["--output", "bound.csv"]], ids=["stdout", "file"])
def test_bound_prints_nothing_when_a_row_fails(tmp_path, capsys, output):
    # rows 0 and 1 are t = 0 and 5e307; the schedule integral to 5e307 does not converge
    argv = ["bound", "--t-max", "1e308", "--points", "2", *output, "--output-dir", str(tmp_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("runtime error: schedule integral to t = 5e+307 ")
    assert list(tmp_path.iterdir()) == []


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


# SHA-256 of each CSV that `fwflow preset fig3` writes
PINNED_FIG3_SHA256 = {
    "fig3_fw": "f30228e136e344951705c4434ee4df5f1ca9817c95b77980c8566c5dfa6c05c5",
    "fig3_fw_linesearch": "a3793ce422f65e2f8d3a63cb5e4f6b0910f0307209494d23f8824957ab49c680",
    "fig3_rk_linesearch": "529b39a2c0ffde74ce8b929003053c4057c6d63291930b9529966266aae7c871",
    "fig3_fw_momentum": "889c60e1d891fcdfff774d2c2c0a6985b3952f18b07b1141ee07b29e4f104e7d",
}


def test_preset_fig3_manifest(tmp_path):
    rc = main(["preset", "fig3", "--output-dir", str(tmp_path)])
    assert rc == 0
    for stem, digest in PINNED_FIG3_SHA256.items():
        assert hashlib.sha256((tmp_path / f"{stem}.csv").read_bytes()).hexdigest() == digest, stem


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


def test_zigzag_rows_labelled_by_tableau(tmp_path):
    s = _parse(_SETTINGS["zigzag"], {"problem": "triangle", "windows": [5], "T": 20.0}, "zigzag")
    runs = [(0.5, None), (1.0, None), (1.0, "midpoint")]
    path = _zigzag_table(tmp_path / "z.csv", s, runs)
    labels = [row.split(",")[0] for row in path.read_text().strip().split("\n")[1:]]
    assert labels == ["fw", "fw", "midpoint"]


def test_presets_hold_only_data():
    assert json.loads(json.dumps(_PRESETS)) == _PRESETS


@pytest.mark.parametrize(
    "argv, doc, builds",
    [
        (["preset", "fig2-bottom"], None, ["logistic"]),
        (["zigzag", "--deltas", "1,0.5", "--T", "20"], None, ["logistic"]),
        (
            ["sweep"],
            [{"problem": problem, "method": method, "tableau": tab, "max_iter": 5,
              "output": f"{problem}_{method}"}
             for problem in ("logistic", "sensing")
             for method, tab in (("fw", None), ("rk", "rk4"))],
            ["logistic", "sensing"],
        ),
    ],
    ids=["preset-fig2-bottom", "zigzag", "sweep-logistic-sensing"],
)
def test_command_builds_each_problem_once(tmp_path, monkeypatch, capsys, argv, doc, builds):
    built = []
    for name, builder in problems.BUILDERS.items():
        def counted(*args, name=name, builder=builder, **kwargs):
            built.append(name)
            return builder(*args, **kwargs)
        monkeypatch.setitem(problems.BUILDERS, name, counted)
    if doc is not None:
        (tmp_path / "sweep.json").write_text(json.dumps(doc))
        argv = [*argv, "--config", str(tmp_path / "sweep.json")]
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
    assert built == builds


@pytest.mark.parametrize(
    "argv, lmos, runs",
    [
        # fw + midpoint + rk4 over 100 steps: 101 + (100*2 + 101) + (100*4 + 101)
        (["preset", "fig2-bottom"], 903, 3),
        # rk4 over 10 steps: 4 stages per step plus one gap call per record, 5*10 + 1
        (["run", "--method", "rk", "--tableau", "rk4", "--max-iter", "10"], 51, 1),
    ],
    ids=["preset-fig2-bottom", "run-rk4"],
)
def test_cli_call_counts(tmp_path, monkeypatch, capsys, argv, lmos, runs):
    # the counts that the benchmark tracer's self-check asserts for its two CLI probes,
    # counted here by wrappers of this test's own
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in vars(geometry).values():
        if isinstance(cls, type) and cls.__module__ == geometry.__name__ and "lmo" in vars(cls):
            monkeypatch.setattr(cls, "lmo", counted("lmo", vars(cls)["lmo"]))
    monkeypatch.setattr(cli, "run_solver", counted("run", cli.run_solver))
    for name, builder in problems.BUILDERS.items():
        monkeypatch.setitem(problems.BUILDERS, name, counted("build", builder))
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert calls == {"lmo": lmos, "run": runs, "build": 1}


# SHA-256 of each zig-zag energy table the CLI writes
@pytest.mark.parametrize(
    "argv, name, digest",
    [
        (
            ["preset", "fig2-top"],
            "fig2_top_zigzag.csv",
            "8f12f6a78b8caac98f677b43dac8fb7a964d10d02b6de970fd43963306b69e1b",
        ),
        (
            ["preset", "fig2-bottom"],
            "fig2_bottom_zigzag.csv",
            "8efe19a4c115b736b0acdff7185a1d1c1cf2d8d64cb022a7a15596084a1939de",
        ),
        (
            ["zigzag", "--problem", "logistic", "--T", "50"],
            "zigzag.csv",
            "5c142d96ab61dbf6155ec919f7a954302bb6ccfbbc050f2167e2294bb13aeb4e",
        ),
    ],
    ids=["fig2-top", "fig2-bottom", "zigzag-logistic-T50"],
)
def test_zigzag_table_digest_pinned(tmp_path, capsys, argv, name, digest):
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_run_flags_are_the_config_keys():
    # one flag per setting in _SETTINGS, with no default or type of its own: _parse owns both
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("run", "certify", "bound", "zigzag"):
        flags = [a for a in sub.choices[command]._actions if a.dest not in ("help", "output_dir")]
        table = _SETTINGS[command]
        assert [a.dest for a in flags] == [k for k, v in table.items() if isinstance(v, tuple)]
        assert all(a.default is argparse.SUPPRESS and a.type is None for a in flags)


def test_zigzag_has_no_method_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zigzag", "--method", "rk4", "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


BETA_SUM_1_1 = {"A": [[0.0, 0.0], [0.5, 0.0]], "beta": [0.1, 1.0], "omega": [0.0, 0.5]}
NAN_IN_A = {"A": [[0.0, 0.0], [float("nan"), 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
OVERFLOWS = {"A": [[0.0, 0.0], [1e308, 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
NO_OMEGA = {"A": [[0]], "beta": [1]}
NON_NUMERIC = {"A": "x", "beta": [1], "omega": [0]}
RAGGED_A = {"A": [[0.0], [0.5, 0.0]], "beta": [0.0, 1.0], "omega": [0.0, 0.5]}
BOOLEAN_EULER = {"A": [[False]], "beta": [True], "omega": [False]}  # euler, spelled in booleans
EULER_DOC = {"A": [[0]], "beta": [1], "omega": [0]}
BOTH_TABLEAUS = "error: give a tableau name or a tableau file, not both"
NOT_NUMBERS = "error: tableau A must be a number, got"


def _sweep_entry_with(**settings):
    return [{"problem": "triangle", "max_iter": 5, **settings}]


def _after_valid_entry(entry):
    """A sweep whose first entry is valid and would write a.csv, and whose second is entry."""
    return [{"problem": "triangle", "max_iter": 3, "output": "a"}, {"max_iter": 5, **entry}]


# second sweep entries, by test id, that only the library rejects, not the settings table
_LIBRARY_REJECTED_ENTRIES = {
    "c-below-1": ({"c": 0.5}, "error: schedule constant c must be >= 1"),
    "unknown-method": ({"method": "bogus"}, "error: unknown method 'bogus'"),
    "unknown-problem": ({"problem": "bogus"}, "error: unknown problem 'bogus'"),
    "unknown-tableau": ({"method": "rk", "tableau": "bogus"}, "error: unknown tableau"),
    "fw-with-delta": ({"delta": 0.5}, "error: method 'fw' takes no step delta"),
    "rk-without-tableau": ({"method": "rk"}, "error: method 'rk' requires a tableau"),
    "max_iter-0": ({"max_iter": 0}, "error: max_iter must be >= 1"),
    # 26,843,546 rows of 2 + 3 floats are over the 1 GiB record cap, and 300 entries a row
    # put a lowrank run of 9,999,999 steps at 22.6 GiB
    "max_iter-above-cap": ({"max_iter": 26_843_545},
                           "error: max_iter must be < 26843545 for 2-entry iterates"),
    "lowrank-record-above-cap": ({"problem": "lowrank", "max_iter": 9_999_999},
                                 "error: max_iter must be < 442962 for 300-entry iterates"),
    "zigzag-window-past-max_iter": (
        {"problem": "logistic", "diagnostics": {"zigzag": {"W": [20]}}},
        "error: a run of 5 steps over T = 100 is shorter than one window W = 20",
    ),
}


@pytest.mark.parametrize(
    "argv, doc, code, message",
    [
        (["run", "--c", "0.5"], None, 2, "error: schedule constant c must be >= 1"),
        (["run", "--delta", "0"], None, 2, "error: discretization unit delta"),
        (["run", "--method", "rk"], BETA_SUM_1_1, 2, "error: beta sum is"),
        (["run", "--method", "rk"], NAN_IN_A, 2, "error: tableau entry A[1, 0] is nan"),
        (["run", "--method", "rk"], NO_OMEGA, 2, "error: tableau JSON lacks the key 'omega'"),
        (["run", "--method", "rk"], [[0.0]], 2, "error: tableau JSON must be an object"),
        (["run", "--method", "rk"], NON_NUMERIC, 2, f"{NOT_NUMBERS} 'x'\n"),
        (["run", "--method", "rk"], RAGGED_A, 2, f"{NOT_NUMBERS} [0.0]\n"),
        (["run", "--method", "rk"], BOOLEAN_EULER, 2, f"{NOT_NUMBERS} False\n"),
        (["certify"], BOOLEAN_EULER, 2, f"{NOT_NUMBERS} False\n"),
        pytest.param(
            ["run", "--problem", "scalar_box", "--method", "rk", "--max-iter", "5"],
            OVERFLOWS,
            1,
            "runtime error: gradient has non-finite entries",
            # the iterate overflows on purpose, so numpy's overflow warnings are expected
            marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"),
        ),
        (["run", "--method", "bogus"], None, 2, "error: unknown method 'bogus'"),
        (["run", "--delta", "0.1"], None, 2, "error: method 'fw' takes no step delta"),
        (["run", "--tableau", "rk4"], None, 2, "error: method 'fw' takes no tableau"),
        (["run", "--max-iter", "x"], None, 2, "error: max_iter must be a number, got 'x'"),
        (["run", "--c", "x"], None, 2, "error: c must be a number, got 'x'"),
        (["zigzag", "--deltas", "a"], None, 2, "error: --deltas must be a number, got 'a'"),
        (["zigzag", "--windows", "5,a"], None, 2, "error: --windows must be a number, got 'a'"),
        *[
            (["sweep"], _sweep_entry_with(**{key: "x"}), 2, f"error: {key} must be a number")
            for key in ("max_iter", "c", "delta", "seed", "stop_gap")
        ],
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"W": [5, "x"]}}),
            2,
            "error: W must be a number, got 'x'",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"T": "x"}}),
            2,
            "error: T must be a number, got 'x'",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"lower_bound": {"anchors": [10, "x"]}}),
            2,
            "error: anchors must be a number, got 'x'",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"slope": {"k_min": "x"}}),
            2,
            "error: k_min must be a number, got 'x'",
        ),
        (["sweep"], [1], 2, "error: sweep config must be a JSON list of run configuration"),
        (
            ["sweep"],
            _sweep_entry_with(method="fw+momentum", tableau="rk4"),
            2,
            "error: method 'fw+momentum' takes no tableau",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics=[1]),
            2,
            "error: diagnostics must be a JSON object",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"slope": {"k_min": 0}}),
            2,
            "error: k_min must be >= 1",
        ),
        *[
            (
                ["sweep"],
                _sweep_entry_with(
                    problem="scalar_box", diagnostics={"lower_bound": {"anchors": [a]}}
                ),
                2,
                "error: lower_bound anchors must be in [0, max_iter] = [0, 5]",
            )
            for a in (6, -1)
        ],
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"lower_bound": {"anchors": [1]}}),
            2,
            "error: lower_bound diagnostic needs a problem with a scalar x0",
        ),
        (
            # a shortfall only the run reveals: stop_gap ends it before the anchor
            ["sweep"],
            _sweep_entry_with(
                problem="scalar_box", stop_gap=10.0, diagnostics={"lower_bound": {"anchors": [5]}}
            ),
            1,
            "runtime error: anchor 5 is outside the trajectory range",
        ),
        *[
            (["sweep"], _sweep_entry_with(**{key: value}), 2, f"error: {key} must be a string")
            for key, value in (("problem", []), ("tableau", 5), ("output", ["a"]))
        ],
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": 5}),
            2,
            "error: zigzag must be a JSON object, got 5",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"W": 5}}),
            2,
            "error: W must be a JSON list, got 5",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"lower_bound": {"anchors": 10}}),
            2,
            "error: anchors must be a JSON list, got 10",
        ),
        (
            ["sweep"],
            _sweep_entry_with(max_iters=5),
            2,
            "error: unknown key 'max_iters' in run configuration",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostic={"zigzag": {}}),
            2,
            "error: unknown key 'diagnostic' in run configuration",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zig_zag": {}}),
            2,
            "error: unknown key 'zig_zag' in diagnostics",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"w": [5]}}),
            2,
            "error: unknown key 'w' in zigzag",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"bound_compare": {"c": 2}}),
            2,
            "error: unknown key 'c' in bound_compare",
        ),
        (["run", "--max-iter", "5.7"], None, 2, "error: max_iter must be an integer, got '5.7'"),
        (
            ["zigzag", "--windows", "5,7.5"],
            None,
            2,
            "error: --windows must be an integer, got '7.5'",
        ),
        (
            ["sweep"],
            _sweep_entry_with(max_iter=5.7),
            2,
            "error: max_iter must be an integer, got 5.7",
        ),
        (["sweep"], _sweep_entry_with(max_iter="5.7"), 2, "error: max_iter must be an integer"),
        (["sweep"], _sweep_entry_with(seed=1.9), 2, "error: seed must be an integer, got 1.9"),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"W": [5, 2.5]}}),
            2,
            "error: W must be an integer, got 2.5",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"slope": {"k_min": 1.5}}),
            2,
            "error: k_min must be an integer, got 1.5",
        ),
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"lower_bound": {"anchors": [10, 10.5]}}),
            2,
            "error: anchors must be an integer, got 10.5",
        ),
        *[
            (
                ["sweep"],
                _sweep_entry_with(**{key: True}),
                2,
                f"error: {key} must be a number, got True",
            )
            for key in ("max_iter", "c", "delta", "seed", "stop_gap")
        ],
        (
            ["sweep"],
            _sweep_entry_with(diagnostics={"zigzag": {"T": False}}),
            2,
            "error: T must be a number, got False",
        ),
        (["run", "--c", "nan"], None, 2, "error: schedule constant c must be >= 1 and finite"),
        (["run", "--c", "inf"], None, 2, "error: schedule constant c must be >= 1 and finite"),
        (["run", "--stop-gap", "nan"], None, 2, "error: stop_gap must be a number, got nan"),
        (  # json writes the float nan as the token NaN, which the sweep parser reads back
            ["sweep"],
            _sweep_entry_with(stop_gap=float("nan")),
            2,
            "error: stop_gap must be a number, got nan",
        ),
        (["zigzag", "--T", "inf"], None, 2, "error: time span T must be positive and finite"),
        (
            ["sweep"],
            _sweep_entry_with(problem="logistic", diagnostics={"zigzag": {"T": float("inf")}}),
            2,
            "error: time span T must be positive and finite",
        ),
        (["bound", "--t-max", "nan"], None, 2, "error: --t-max must be >= 0 and finite, got nan"),
        (["bound", "--t-max", "inf"], None, 2, "error: --t-max must be >= 0 and finite, got inf"),
        (["bound", "--t-max", "-1"], None, 2, "error: --t-max must be >= 0 and finite, got -1.0"),
        (["run", "--problem", "sensing", "--seed", "-1"], None, 2, "error: seed must be >= 0"),
        (["sweep"], _sweep_entry_with(seed=-3), 2, "error: seed must be >= 0"),
        (["zigzag", "--seed", "-1"], None, 2, "error: --seed must be >= 0"),
        (["zigzag", "--T", "x"], None, 2, "error: --T must be a number, got 'x'"),
        (  # every entry is parsed before the first runs
            ["sweep"],
            [{"problem": "triangle", "max_iter": 3, "output": "a"},
             {"problem": "triangle", "seed": -3}],
            2,
            "error: seed must be >= 0",
        ),
        (
            ["run", "--method", "rk+linesearch", "--tableau", "rk4", "--delta", "0.5"],
            None,
            2,
            "error: method 'rk+linesearch' takes no step delta",
        ),
        # every entry is checked against every library rule before the first runs
        *[
            (["sweep"], _after_valid_entry(entry), 2, message)
            for entry, message in _LIBRARY_REJECTED_ENTRIES.values()
        ],
        (
            ["zigzag", "--T", "0.4"],
            None,
            2,
            "error: a run of 0 steps over T = 0.4 is shorter than one window W = 5",
        ),
        (
            ["zigzag", "--T", "3", "--deltas", "1", "--windows", "5"],
            None,
            2,
            "error: a run of 3 steps over T = 3 is shorter than one window W = 5",
        ),
        (["run", "--method", "rk", "--tableau", "rk4"], EULER_DOC, 2, BOTH_TABLEAUS),
        (  # the conflict is found before the file is read
            ["sweep"],
            _after_valid_entry({"method": "rk", "tableau": "rk4", "tableau_file": "e.json"}),
            2,
            BOTH_TABLEAUS,
        ),
        (["certify", "rk4"], EULER_DOC, 2, BOTH_TABLEAUS),
        (["certify"], None, 2, "error: certify needs a tableau name or --tableau-file"),
        (  # slope_fit needs 10 points k >= k_min, and the default k_min is 100
            ["sweep"],
            [{"problem": "triangle", "max_iter": 50, "output": "a", "diagnostics": {"slope": {}}}],
            2,
            "error: slope k_min = 100 leaves fewer than 10 of max_iter = 50 steps to fit",
        ),
        # each delta is checked before a step count round(T / delta) is derived from it
        *[
            (["zigzag", "--deltas", delta], None, 2,
             "error: discretization unit delta must be in (0, 1]")
            for delta in ("0", "-1", "2", "nan")
        ],
        # T / delta overflows to inf, at the one delta or at the shorter of two
        *[
            (["zigzag", "--T", "1e308", "--deltas", deltas], None, 2,
             "error: time span T = 1e+308 makes T / delta = inf steps, must be finite")
            for deltas in ("1e-300", "1,1e-300")
        ],
        # round(T / delta) = 1e302 steps is finite but over the record cap, so not even the
        # delta = 1 run starts
        (["zigzag", "--T", "100", "--deltas", "1,1e-300"], None, 2,
         "error: max_iter must be < 1303084 for 100-entry iterates"),
        (  # both runs would write triangle_fw.csv, so neither starts
            ["sweep"],
            [{"c": 1, "max_iter": 5}, {"c": 2, "max_iter": 5}],
            2,
            "error: two runs would write 'triangle_fw.csv' in ",
        ),
        (  # the first run's zigzag table and the second run's CSV are one file
            ["sweep"],
            [{"problem": "logistic", "max_iter": 10, "output": "a", "diagnostics": {"zigzag": {}}},
             {"problem": "logistic", "max_iter": 10, "output": "a_zigzag"}],
            2,
            "error: two runs would write 'a_zigzag.csv' in ",
        ),
        (  # two spellings of one path
            ["sweep"],
            [{"max_iter": 5, "output": "a"}, {"max_iter": 5, "output": "./a"}],
            2,
            "error: two runs would write 'a.csv' in ",
        ),
    ],
    ids=[
        "c-below-1",
        "delta-0",
        "beta-sum",
        "nan-tableau",
        "tableau-no-omega",
        "tableau-not-object",
        "tableau-non-numeric",
        "tableau-ragged",
        "tableau-boolean",
        "certify-tableau-boolean",
        "overflow-mid-run",
        "unknown-method",
        "delta-without-flow",
        "tableau-without-rk",
        "run-max_iter-not-number",
        "run-c-not-number",
        "zigzag-delta-not-number",
        "zigzag-window-not-number",
        "sweep-max_iter-not-number",
        "sweep-c-not-number",
        "sweep-delta-not-number",
        "sweep-seed-not-number",
        "sweep-stop_gap-not-number",
        "sweep-zigzag-W-not-number",
        "sweep-zigzag-T-not-number",
        "sweep-anchors-not-number",
        "sweep-k_min-not-number",
        "sweep-entry-not-object",
        "sweep-tableau-without-rk",
        "sweep-diagnostics-not-object",
        "sweep-k_min-below-1",
        "sweep-anchor-past-max_iter",
        "sweep-anchor-negative",
        "sweep-lower_bound-not-scalar",
        "sweep-anchor-past-early-stop",
        "sweep-problem-not-string",
        "sweep-tableau-not-string",
        "sweep-output-not-string",
        "sweep-zigzag-not-object",
        "sweep-zigzag-W-not-list",
        "sweep-anchors-not-list",
        "sweep-unknown-key",
        "sweep-unknown-key-diagnostic",
        "sweep-unknown-diagnostic",
        "sweep-zigzag-unknown-key",
        "sweep-bound_compare-unknown-key",
        "run-max_iter-fractional",
        "zigzag-window-fractional",
        "sweep-max_iter-fractional",
        "sweep-max_iter-fractional-string",
        "sweep-seed-fractional",
        "sweep-zigzag-W-fractional",
        "sweep-k_min-fractional",
        "sweep-anchors-fractional",
        "sweep-max_iter-bool",
        "sweep-c-bool",
        "sweep-delta-bool",
        "sweep-seed-bool",
        "sweep-stop_gap-bool",
        "sweep-zigzag-T-bool",
        "run-c-nan",
        "run-c-inf",
        "run-stop-gap-nan",
        "sweep-stop_gap-nan",
        "zigzag-T-inf",
        "sweep-zigzag-T-inf",
        "bound-t_max-nan",
        "bound-t_max-inf",
        "bound-t_max-negative",
        "run-seed-negative",
        "sweep-seed-negative",
        "zigzag-seed-negative",
        "zigzag-T-not-number",
        "sweep-later-entry-bad",
        "rk_linesearch-delta",
        *[f"sweep-later-entry-{name}" for name in _LIBRARY_REJECTED_ENTRIES],
        "zigzag-T-below-one-step",
        "zigzag-T-shorter-than-window",
        "run-tableau-and-file",
        "sweep-later-entry-tableau-and-file",
        "certify-tableau-and-file",
        "certify-no-tableau",
        "sweep-slope-too-few-steps",
        *[f"zigzag-delta-{name}" for name in ("0", "negative", "above-1", "nan")],
        "zigzag-steps-overflow",
        "zigzag-steps-overflow-second-delta",
        "zigzag-steps-above-cap",
        "sweep-shared-stem",
        "sweep-diagnostic-file-is-a-run-file",
        "sweep-one-file-two-spellings",
    ],
)
def test_exit_code_contract(tmp_path, capsys, argv, doc, code, message):
    # 2: rejected before the first step, printing nothing and leaving no output directory;
    # 1: failed while iterating
    if doc is not None:  # a tableau file for run and certify, the configuration list for sweep
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--config" if argv[0] == "sweep" else "--tableau-file", str(path)]
    out = tmp_path / "out"
    if argv[0] != "certify":  # certify prints to stdout and takes no output directory
        argv = [*argv, "--output-dir", str(out)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    if code == 2:
        assert captured.out == "" and not out.exists()


# a JSON boolean in beta or omega; one in A is BOOLEAN_EULER
_BOOLEAN_BETA = json.loads('{"A": [[0, 0], [0.5, 0]], "beta": [0, true], "omega": [0, 0.5]}')
_BOOLEAN_OMEGA = json.loads('{"A": [[0]], "beta": [1], "omega": false}')


@pytest.mark.parametrize(
    "doc",
    [BOOLEAN_EULER, _BOOLEAN_BETA, _BOOLEAN_OMEGA, NON_NUMERIC, RAGGED_A, NAN_IN_A],
    ids=["boolean-A", "boolean-beta", "boolean-omega", "non-numeric", "ragged", "nan"],
)
def test_tableau_file_and_constructor_refuse_alike(doc):
    # one construction path: from_json hands its document to Tableau(...), which reads each entry
    with pytest.raises(fwflow.tableau.ConfigError) as built:
        fwflow.tableau.Tableau(**doc)
    with pytest.raises(fwflow.tableau.ConfigError) as read:
        fwflow.tableau.Tableau.from_json(json.dumps(doc))
    assert str(read.value) == str(built.value)


@pytest.mark.parametrize(
    "entry, message",
    [
        (  # stop_gap ends the run after 7 rows, too few for the fit
            {"problem": "triangle", "max_iter": 500, "stop_gap": 1e-3,
             "diagnostics": {"slope": {}}},
            "runtime error: fewer than 10 usable points for the slope fit",
        ),
        (  # stop_gap ends the run after the first row, before anchor 5
            {"problem": "scalar_box", "max_iter": 5, "stop_gap": 10.0,
             "diagnostics": {"lower_bound": {"anchors": [5]}}},
            "runtime error: anchor 5 is outside the trajectory range",
        ),
    ],
    ids=["slope", "lower_bound"],
)
def test_failed_diagnostic_writes_none_of_its_runs_files(tmp_path, capsys, entry, message):
    doc = [{**entry, "output": "a"}, {"problem": "triangle", "max_iter": 5, "output": "b"}]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--output-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == "" and not out.exists()


def test_output_names_a_subdirectory(tmp_path, capsys):
    # a run's CSV and its diagnostics' CSVs go into the subdirectory that output names
    out = tmp_path / "out"
    assert main(["run", "--max-iter", "5", "--output", "sub/a", "--output-dir", str(out)]) == 0
    doc = [{"problem": "logistic", "max_iter": 10, "output": "sub/b",
            "diagnostics": {"zigzag": {}}}]
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(path), "--output-dir", str(out)]) == 0
    written = [out / "sub" / name for name in ("a.csv", "b.csv", "b_zigzag.csv")]
    assert capsys.readouterr().out.split() == [str(p) for p in written]
    assert all(p.is_file() for p in written)


def test_rk_takes_delta(tmp_path, capsys):
    # rk steps from t = 1 by delta; the t column is k * delta, as for every method
    argv = ["run", "--method", "rk", "--tableau", "rk4", "--delta", "0.5", "--max-iter", "4"]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "triangle_rk.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0", "0.5", "1", "1.5", "2"]


@pytest.mark.parametrize("max_iter", [5, 5.0, "5", "5.0"])
def test_integer_setting_takes_integral_spellings(tmp_path, max_iter):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(_sweep_entry_with(max_iter=max_iter, output="a")))
    assert main(["sweep", "--config", str(config), "--output-dir", str(tmp_path)]) == 0
    assert main(["run", "--max-iter", str(max_iter), "--output", "b",
                 "--output-dir", str(tmp_path)]) == 0
    for stem in "ab":
        assert len((tmp_path / f"{stem}.csv").read_text().splitlines()) == 1 + 6


def test_integer_string_read_exactly(tmp_path, monkeypatch, capsys):
    # 2**53 + 1 has no float: read through float, "9007199254740993" was the seed 2**53
    number = fwflow.tableau._number
    assert number(int, "9007199254740993", "seed", 0) == 2**53 + 1
    assert [number(int, s, "seed") for s in ("5.0", "1e3", " 7 ")] == [5, 1000, 7]
    seeds = []
    monkeypatch.setitem(problems.BUILDERS, "sensing",
                        lambda seed: seeds.append(seed) or problems.triangle())
    assert main(["run", "--problem", "sensing", "--seed", "9007199254740993", "--max-iter", "1",
                 "--output-dir", str(tmp_path)]) == 0
    assert seeds == [2**53 + 1] and type(seeds[0]) is int


def _table_settings(table, section=()):
    """(section path, key, entry) for every setting and section of a _SETTINGS table."""
    for key, entry in table.items():
        yield section, key, entry
        if isinstance(entry, dict):
            yield from _table_settings(entry, section + (key,))


def _rejected_values(entry):
    """JSON values of the wrong kind, fractional, boolean or below the least value."""
    if isinstance(entry, dict):
        return [5, [1], "x", None]
    kind, default, *least = entry
    if kind is str:
        return [5, ["a"], True]
    if isinstance(kind, list):
        return [5, "5", ["x"], [True]] + ([[2.5]] if kind[0] is int else [])
    fractional = [2.5, "2.5"] if kind is int else []
    return ["x", [1], None, True, False] + fractional + [bound - 1 for bound in least]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    setting=st.sampled_from(list(_table_settings(_SETTINGS["run"]))),
    pick=st.integers(min_value=0),
    max_iter=st.sampled_from([5, 5.0, "5", "5.0"]),
)
def test_sweep_entry_rejects_each_bad_setting(setting, pick, max_iter):
    # one bad value anywhere in a valid entry: exit 2 naming its key, before any output
    section, key, entry = setting
    values = _rejected_values(entry)
    change = {key: values[pick % len(values)]}
    for name in reversed(section):
        change = {name: change}
    valid = {"problem": "triangle", "max_iter": max_iter}
    with tempfile.TemporaryDirectory() as tmp:
        config, out, err = Path(tmp) / "sweep.json", Path(tmp) / "out", io.StringIO()
        for cfg, code in (({**valid, **change}, 2), (valid, 0)):
            config.write_text(json.dumps([cfg]))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert main(["sweep", "--config", str(config), "--output-dir", str(out)]) == code
            assert out.exists() == (code == 0)
        assert err.getvalue().startswith(f"error: {key} must be ")
        assert len((out / "triangle_fw.csv").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--c", "0.5"], "error: schedule constant c must be >= 1"),
        (["zigzag", "--windows", "1"], "error: window size W must be >= 2"),
        (["zigzag", "--T", "-1"], "error: time span T must be positive"),
    ],
    ids=["bound-c-below-1", "zigzag-window-1", "zigzag-T-negative"],
)
def test_diagnostic_settings_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out), "--output", "o.csv"]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--points", "0"], "error: --points must be >= 1"),
        (["bound", "--points", "-1"], "error: --points must be >= 1"),
        (["certify", "rk4", "--k-max", "0"], "error: --k-max must be >= 1"),
        *[
            (["certify", "rk4", "--c", c], "error: schedule constant c must be >= 1 and finite")
            for c in ("0.5", "nan", "inf")
        ],
    ],
    ids=[
        "bound-points-0",
        "bound-points-negative",
        "certify-k-max-0",
        "certify-c-below-1",
        "certify-c-nan",
        "certify-c-inf",
    ],
)
def test_count_below_1_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert captured.out == ""  # not even a header


def test_diagnostic_precondition_checked_before_run(tmp_path, capsys):
    # reject before any step runs, so no CSV is written
    cases = [
        # the slope fit needs f*, which sensing lacks
        ({"problem": "sensing", "diagnostics": {"slope": {}}}, "error: slope diagnostic needs"),
        (
            {"problem": "logistic", "diagnostics": {"zigzag": {"W": [1]}}},
            "error: window size W must be >= 2",
        ),
    ]
    for i, (cfg, message) in enumerate(cases):
        cfg_path = tmp_path / f"sweep{i}.json"
        cfg_path.write_text(json.dumps([cfg]))
        out = tmp_path / f"out{i}"
        assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
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
