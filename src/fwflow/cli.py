"""Command-line experiment runner.

Subcommands: run, sweep, certify, bound, zigzag, preset. Every output is a
CSV (one series per file); no plotting. The FWFLOW_OUTPUT_DIR environment
variable overrides any output directory given on the command line, so
batch jobs can be redirected without editing configs.

Exit codes: 0 success, 2 invalid configuration, 1 runtime failure such as a
numerical error while the solver iterates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import diagnostics, problems, tableau as tableau_mod
from .solvers import StepSchedule, _format_rows, check_settings, run as run_solver
from .tableau import ConfigError, _number

# Every setting, per subcommand (a sweep entry or preset job is a "run"): key ->
# (kind, default) or (kind, default, least value). A kind [int] or [float] is a
# list, comma-separated on the command line; a dict is a section, a JSON object
# of its own keys. A range that a library ConfigError enforces is not restated.
_SETTINGS = {
    "run": {
        "problem": (str, "triangle"), "method": (str, "fw"), "c": (float, 2.0),
        "delta": (float, 1.0), "tableau": (str, None), "tableau_file": (str, None),
        "max_iter": (int, 1000), "stop_gap": (float, 0.0), "seed": (int, 0, 0),
        "output": (str, None),
        "diagnostics": {"zigzag": {"W": ([int], [5]), "T": (float, 100.0)},
                        "slope": {"k_min": (int, 100, 1)}, "bound_compare": {},
                        "lower_bound": {"anchors": ([int], [10, 100, 1000])}},
    },
    "certify": {"tableau": (str, None), "tableau_file": (str, None), "c": (float, 2.0),
                "k_max": (int, 10, 1)},
    "bound": {"c": (float, 2.0), "t_max": (float, 50.0, 0), "points": (int, 100, 1),
              "output": (str, None)},
    "zigzag": {"problem": (str, "logistic"), "c": (float, 2.0),
               "deltas": ([float], [1.0, 0.1, 0.01]), "windows": ([int], [5, 20]),
               "T": (float, 100.0), "seed": (int, 0, 0), "output": (str, None)},
}


def _out_dir(path_arg: str) -> Path:
    return Path(os.environ.get("FWFLOW_OUTPUT_DIR") or path_arg)


def _of_kind(value, kind, key: str):
    """value, which must be a kind: str, list or dict; else a ConfigError."""
    if not isinstance(value, kind):
        names = {str: "a string", list: "a JSON list", dict: "a JSON object"}
        raise ConfigError(f"{key} must be {names[kind]}, got {value!r}")
    return value


def _parse(table: dict, cfg: dict, where: str, flags: bool = False) -> dict:
    """cfg's settings checked by table, a _SETTINGS entry; a message names a key, or its flag.

    A setting left out takes its default, a section left out stays out, and a
    str setting whose default is None may be null.
    """
    for key in cfg:
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in {where}; choose from {sorted(table)}")
    settings = {}
    for key, entry in table.items():
        name = "--" + key.replace("_", "-") if flags else key
        if isinstance(entry, dict):
            if key in cfg:
                settings[key] = _parse(entry, _of_kind(cfg[key], dict, name), key)
            continue
        kind, default, *least = entry
        value = cfg.get(key, default)
        if isinstance(kind, list):
            value = [_number(kind[0], v, name, *least) for v in _of_kind(value, list, name)]
        elif kind is not str:
            value = _number(kind, value, name, *least)
        elif value is not None or default is not None:
            _of_kind(value, str, name)
        settings[key] = value
    return settings


def _flag_settings(args) -> dict:
    """The settings of args.command from its flags; messages name the flag, but run's the key."""
    table = _SETTINGS[args.command]
    given = {key: value.split(",") if isinstance(table[key][0], list) else value
             for key, value in vars(args).items() if key in table}
    return _parse(table, given, args.command, flags=args.command != "run")


def _build_problem(name: str, seed: int):
    if name not in problems.BUILDERS:
        raise ConfigError(f"unknown problem {name!r}; choose from {sorted(problems.BUILDERS)}")
    builder = problems.BUILDERS[name]
    if name in ("sensing", "logistic", "lowrank"):
        return builder(seed=seed)
    return builder()


def _load_tableau(name: str | None, path: str | None):
    if name is not None and path is not None:
        raise ConfigError("give a tableau name or a tableau file, not both")
    if path is not None:
        return tableau_mod.Tableau.from_json(Path(path).read_text(), name=Path(path).stem)
    return None if name is None else tableau_mod.builtin(name)


def _write_rows(path: Path, lines) -> Path:
    """Stream lines, each ending in a newline, to the file path, with LF line ends as to_csv."""
    path.parent.mkdir(parents=True, exist_ok=True)  # only once the settings are checked
    with open(path, "w", newline="\n") as fh:
        fh.writelines(lines)
    return path


_ZIGZAG_HEADER = "method,delta,W,energy\n"
# a run writes <stem>.csv, then each diagnostic's table to <stem>_<suffix>.csv in this order
_SUFFIXES = dict(zigzag="zigzag", slope="slope", lower_bound="lower_bound", bound_compare="bound")


def _zigzag_rows(traj, label: str, windows, T: float) -> list:
    """Lines of the _ZIGZAG_HEADER table for one trajectory, one per window W."""
    return [
        f"{label},{traj.delta:.17g},{W},{diagnostics.zigzag_protocol(traj, W, T).mean():.17g}\n"
        for W in windows
    ]


def _plan(s: dict, built: dict) -> tuple:
    """Check what _parse cannot in one run's settings s; return (problem, sched, tableau, files).

    built maps each (problem, seed) that the command has built to its problem.
    """
    key = (s["problem"], s["seed"])
    problem = built[key] = built[key] if key in built else _build_problem(*key)
    method, max_iter = s["method"], s["max_iter"]
    sched = StepSchedule(c=s["c"], delta=s["delta"])
    tab = _load_tableau(s["tableau"], s["tableau_file"])
    check_settings(method, sched, max_iter, problem.x0.size, s["stop_gap"], tab)
    diag = s.get("diagnostics", {})
    anchors = diag.get("lower_bound", {}).get("anchors", ())
    for W in diag.get("zigzag", {}).get("W", ()):
        T = diag["zigzag"]["T"]
        diagnostics.check_zigzag_settings(W, T, min(T / sched.delta, max_iter))
    if "lower_bound" in diag and np.shape(problem.x0) != (1,):
        raise ConfigError("lower_bound diagnostic needs a problem with a scalar x0")
    if "lower_bound" in diag and not all(0 <= a <= max_iter for a in anchors):
        raise ConfigError(f"lower_bound anchors must be in [0, max_iter] = [0, {max_iter}]")
    for name in ("slope", "bound_compare"):
        if name in diag and problem.f_star is None:
            raise ConfigError(f"{name} diagnostic needs a problem with known optimum")
    if "slope" in diag and max_iter - diag["slope"]["k_min"] + 1 < 10:  # slope_fit needs 10 points
        raise ConfigError(f"slope k_min = {diag['slope']['k_min']} leaves fewer than 10 of "
                          f"max_iter = {max_iter} steps to fit")
    stem = s["output"] or f"{problem.name}_{method.replace('+', '_')}"
    return problem, sched, tab, [f"{stem}.csv"] + [f"{stem}_{suffix}.csv" for name, suffix
                                                   in _SUFFIXES.items() if name in diag]


def _plans(settings: list) -> list:
    """(s, problem, sched, tableau, files) for every run's settings s, each checked by _plan."""
    built = {}  # one problem per (problem, seed), made for this call only
    return [(s, *_plan(s, built)) for s in settings]


def _trajectories(plans: list):
    """Run each of _plans' plans in turn: yield (s, problem, sched, files, traj)."""
    for s, problem, sched, tab, files in plans:
        yield s, problem, sched, files, run_solver(
            problem.objective, problem.feasible_set, problem.x0, s["method"], sched,
            s["max_iter"], stop_gap=s["stop_gap"], tableau=tab)


def _runs(settings: list, out_dir: Path):
    """Run every run's settings in turn, yielding each path it writes.

    A run's diagnostics are all computed before any of its files is written, so a
    diagnostic that fails leaves none of that run's files behind. No two runs write one file.
    """
    plans = _plans(settings)
    paths = [(out_dir / name).resolve() for *_, files in plans for name in files]
    if shared := [path for path in paths if paths.count(path) > 1]:
        raise ConfigError(f"two runs would write {shared[0].name!r} in {shared[0].parent}")
    for s, problem, sched, files, traj in _trajectories(plans):
        diag, tables = s.get("diagnostics", {}), {}  # diagnostic -> lines of its table
        if "zigzag" in diag:
            rows = _zigzag_rows(traj, s["method"], diag["zigzag"]["W"], diag["zigzag"]["T"])
            tables["zigzag"] = [_ZIGZAG_HEADER] + rows
        if "slope" in diag:
            k_min = diag["slope"]["k_min"]
            slope = diagnostics.slope_fit(traj, problem.f_star, k_min)
            tables["slope"] = ["k_min,slope\n", f"{k_min},{slope:.17g}\n"]
        if "lower_bound" in diag:
            anchors = diag["lower_bound"]["anchors"]
            vals = diagnostics.lower_bound_probe(traj, anchors)
            rows = ["anchor,probe\n"] + [f"{a},{v:.17g}\n" for a, v in zip(anchors, vals)]
            tables["lower_bound"] = rows
        if "bound_compare" in diag:  # the bounds now; their lines as the file is written
            h0 = float(traj.f[0]) - problem.f_star  # row 0 holds f(x0)
            bounds = np.array(diagnostics.continuous_bound(sched.c, traj.t))
            tables["bound_compare"] = chain(["t,normalized_error,bound\n"], _format_rows(
                "%.17g,%.17g,%.17g\n", traj.t, (traj.f - problem.f_star) / h0, bounds))
        csv, *table_paths = (out_dir / name for name in files)
        csv.parent.mkdir(parents=True, exist_ok=True)
        traj.to_csv(csv)
        yield csv
        for path, rows in zip(table_paths, (tables[n] for n in _SUFFIXES if n in tables)):
            yield _write_rows(path, rows)


def _cmd_run(args) -> int:
    """fwflow run, one entry set by its flags, and fwflow sweep, a JSON list of entries."""
    if args.command == "run":
        entries = [_flag_settings(args)]
    else:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, list) or not all(isinstance(cfg, dict) for cfg in doc):
            raise ConfigError("sweep config must be a JSON list of run configuration objects")
        entries = [_parse(_SETTINGS["run"], cfg, "run configuration") for cfg in doc]
    for p in _runs(entries, _out_dir(args.output_dir)):
        print(p)
    return 0


def _cmd_certify(args) -> int:
    s = _flag_settings(args)
    t = _load_tableau(s["tableau"], s["tableau_file"])
    if t is None:
        raise ConfigError("certify needs a tableau name or --tableau-file")
    StepSchedule(c=s["c"])  # before the header, so a bad c prints nothing; then no row fails
    print("k," + ",".join(f"z{i + 1}" for i in range(t.q)) + ",z_inf")
    for k in range(1, s["k_max"] + 1):
        z = tableau_mod.certificate(t, s["c"], k).z
        zs = ",".join(f"{v:.4f}" for v in z)
        print(f"{k},{zs},{np.max(np.abs(z)):.4f}")
    return 0


def _cmd_bound(args) -> int:
    s = _flag_settings(args)
    sched = StepSchedule(c=s["c"])
    lines = ["t,continuous_bound,schedule_bound\n"]  # every row, before any is output
    for i in range(s["points"] + 1):
        t = s["t_max"] * i / s["points"]
        cb = diagnostics.continuous_bound(sched.c, t)
        sb = diagnostics.schedule_bound(sched.gamma, t)
        lines.append(f"{t:.17g},{cb:.17g},{sb:.17g}\n")
    if s["output"]:
        print(_write_rows(_out_dir(args.output_dir) / s["output"], lines))
    else:
        sys.stdout.writelines(lines)
    return 0


def _zigzag_table(path: Path, s: dict, runs) -> Path:
    """Write to one CSV the zig-zag energy of each run over each window W of s, zigzag settings.

    runs holds (delta, tableau name or None) pairs: rk with a tableau, the flow
    without one (fw at delta = 1). Each run covers time T in round(T / delta)
    steps, and its rows are labelled with the tableau's name, or fw without one.
    """
    for delta, _ in runs:  # c and each delta, before a step count is derived from them
        StepSchedule(c=s["c"], delta=delta)
    for W in s["windows"]:  # each run's step count, the longest step's (the fewest) first
        for delta in sorted((d for d, _ in runs), reverse=True):
            diagnostics.check_zigzag_settings(W, s["T"], s["T"] / delta)
    entries = [
        _parse(_SETTINGS["run"], {"problem": s["problem"], "seed": s["seed"], "c": s["c"],
                                  "method": "rk" if tab else "flow", "delta": delta,
                                  "tableau": tab, "max_iter": round(s["T"] / delta)},
               "run configuration")
        for delta, tab in runs
    ]
    rows = [_ZIGZAG_HEADER]
    for e, *_, traj in _trajectories(_plans(entries)):
        rows += _zigzag_rows(traj, e["tableau"] or "fw", s["windows"], s["T"])
    return _write_rows(path, rows)


def _cmd_zigzag(args) -> int:
    s = _flag_settings(args)
    path = _out_dir(args.output_dir) / (s["output"] or "zigzag.csv")
    print(_zigzag_table(path, s, [(delta, None) for delta in s["deltas"]]))
    return 0


# ---------------------------------------------------------------------------
# presets: each is a list of jobs, all plain data. A dict is a run configuration,
# whose left-out settings take their _SETTINGS defaults; a list [output, runs,
# windows] is a _zigzag_table with the zigzag command's other defaults.

_PRESETS = {
    # continuous flow vs discrete FW on the triangle, several c and delta
    "fig1": [
        {
            "method": "fw" if delta is None else "flow",
            "c": c,
            "delta": delta or 1.0,
            "max_iter": 500 if delta is None else int(round(50.0 / delta)),
            "output": f"fig1_fw_c{c:g}" if delta is None else f"fig1_flow_c{c:g}_d{delta:g}",
            "diagnostics": {"bound_compare": {}},
        }
        for c in (1.0, 2.0, 4.0)
        for delta in (None, 0.1, 0.01, 0.001)
    ],
    # zig-zag energy of the flow at delta in {1, 0.1, 0.01}, W in {5, 20}
    "fig2-top": [["fig2_top_zigzag.csv", [[1.0, None], [0.1, None], [0.01, None]], [5, 20]]],
    # zig-zag energy of fw vs midpoint vs rk4 at delta = 1, W = 5
    "fig2-bottom": [
        ["fig2_bottom_zigzag.csv", [[1.0, None], [1.0, "midpoint"], [1.0, "rk4"]], [5]]
    ],
    # triangle problem: plain, line-search, and momentum variants
    "fig3": [
        {
            "method": method,
            "tableau": "rk4" if method.startswith("rk") else None,
            "output": f"fig3_{method.replace('+', '_')}",
        }
        for method in ("fw", "fw+linesearch", "rk+linesearch", "fw+momentum")
    ],
    # scalar-box tail-suprema probe: fw and every builtin tableau but euler (= fw)
    "lower-bound": [
        {
            "problem": "scalar_box",
            "method": "fw" if tab is None else "rk",
            "max_iter": 10000,
            "tableau": tab,
            "output": f"lower_bound_{tab or 'fw'}",
            "diagnostics": {"lower_bound": {}},
        }
        for tab in [None] + [n for n in tableau_mod.builtin_names() if n != "euler"]
    ],
    # convergence of fw / midpoint / rk4 on the l1 least-squares sensing problem
    "sensing": [
        {
            "problem": "sensing",
            "method": "fw" if tab is None else "rk",
            "max_iter": 500,
            "tableau": tab,
            "output": f"sensing_{tab or 'fw'}",
        }
        for tab in (None, "midpoint", "rk4")
    ],
}


def _cmd_preset(args) -> int:
    if args.name not in _PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; choose from {sorted(_PRESETS)}")
    out_dir, jobs = _out_dir(args.output_dir), _PRESETS[args.name]
    list(_runs([_parse(_SETTINGS["run"], job, "run configuration")
                for job in jobs if isinstance(job, dict)], out_dir))
    for output, runs, windows in (job for job in jobs if isinstance(job, list)):
        s = _parse(_SETTINGS["zigzag"], {"windows": windows}, "zigzag")
        _zigzag_table(out_dir / output, s, runs)
    print(out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, func, summary, positional=None, output_dir=True):
        p = sub.add_parser(command, help=summary)
        for key, entry in _SETTINGS.get(command, {}).items():
            if isinstance(entry, tuple):  # _parse holds every default and kind
                flag = key if key == positional else "--" + key.replace("_", "-")
                p.add_argument(flag, nargs="?" if key == positional else None,
                               default=argparse.SUPPRESS)
        if output_dir:
            p.add_argument("--output-dir", default=".", help="directory for CSV outputs")
        p.set_defaults(func=func)
        return p

    add("run", _cmd_run, "run one solver configuration")
    add("sweep", _cmd_run, "run a JSON list of configurations").add_argument(
        "--config", required=True)
    add("certify", _cmd_certify, "print feasibility certificates z^(k)", positional="tableau",
        output_dir=False)
    add("bound", _cmd_bound, "tabulate the continuous-rate bound")
    add("zigzag", _cmd_zigzag, "zig-zag energy of the flow over deltas, rows labelled fw")
    add("preset", _cmd_preset, f"run a named preset: {', '.join(_PRESETS)}").add_argument(
        "name")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"runtime error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
