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
from pathlib import Path

import numpy as np

from . import diagnostics, problems, tableau as tableau_mod
from .solvers import StepSchedule, run as run_solver
from .tableau import ConfigError

_CONFIG_KEYS = ("problem", "method", "c", "delta", "tableau", "tableau_file", "max_iter",
                "stop_gap", "seed", "output", "diagnostics")
_DIAGNOSTIC_KEYS = {"zigzag": ("W", "T"), "slope": ("k_min",), "lower_bound": ("anchors",),
                    "bound_compare": ()}


def _out_dir(path_arg: str) -> Path:
    return Path(os.environ.get("FWFLOW_OUTPUT_DIR") or path_arg)


def _number(kind, value, key: str):
    """kind(value) for a number or numeric string, integral if kind is int; else a ConfigError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value) if isinstance(value, int) else float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if kind is int and number % 1:  # a fractional part, or nan for nan and inf
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return kind(number)


def _json(cfg: dict, key: str, kind: type, default=None):
    """cfg.get(key, default), which must be a kind, or null if default is None."""
    value = cfg.get(key, default)
    if not isinstance(value, kind) and (value is not None or default is not None):
        names = {str: "a string", list: "a JSON list", dict: "a JSON object"}
        raise ConfigError(f"{key} must be {names[kind]}, got {value!r}")
    return value


def _known_keys(cfg: dict, keys, where: str) -> dict:
    """cfg, which must hold no key outside keys."""
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}; choose from {sorted(keys)}")
    return cfg


def _build_problem(name: str, seed: int):
    if name not in problems.BUILDERS:
        raise ConfigError(f"unknown problem {name!r}; choose from {sorted(problems.BUILDERS)}")
    builder = problems.BUILDERS[name]
    if name in ("sensing", "logistic", "lowrank"):
        return builder(seed=seed)
    return builder()


def _load_tableau(name: str | None, path: str | None):
    if path is not None:
        text = Path(path).read_text()
        t = tableau_mod.Tableau.from_json(text, name=Path(path).stem)
        tableau_mod.validate(t)
        return t
    return None if name is None else tableau_mod.builtin(name)


def _write_rows(path: Path, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)  # only once the settings are checked
    path.write_text("\n".join(rows) + "\n")
    return path


_ZIGZAG_HEADER = "method,delta,W,energy"


def _zigzag_rows(traj, label: str, windows, T: float) -> list:
    """Rows of the _ZIGZAG_HEADER table for one trajectory, one per window W."""
    return [
        f"{label},{traj.delta:.17g},{W},{diagnostics.zigzag_protocol(traj, W, T).mean():.17g}"
        for W in windows
    ]


def _run_config(cfg: dict, out_dir: Path) -> list:
    """Check every setting of one run configuration, run it, return the written paths."""
    _known_keys(cfg, _CONFIG_KEYS, "run configuration")
    seed = _number(int, cfg.get("seed", 0), "seed")
    problem = _build_problem(_json(cfg, "problem", str, "triangle"), seed)
    method = _json(cfg, "method", str, "fw")
    c = _number(float, cfg.get("c", 2.0), "c")
    sched = StepSchedule(c=c, delta=_number(float, cfg.get("delta", 1.0), "delta"))
    tab = _load_tableau(_json(cfg, "tableau", str), _json(cfg, "tableau_file", str))
    max_iter = _number(int, cfg.get("max_iter", 1000), "max_iter")
    stop_gap = _number(float, cfg.get("stop_gap", 0.0), "stop_gap")
    stem = _json(cfg, "output", str) or f"{problem.name}_{method.replace('+', '_')}"
    diag = _known_keys(_json(cfg, "diagnostics", dict, {}), _DIAGNOSTIC_KEYS, "diagnostics")
    zigzag, slope, lower, _ = (
        _known_keys(_json(diag, name, dict, {}), keys, name)
        for name, keys in _DIAGNOSTIC_KEYS.items()
    )
    windows = [_number(int, W, "W") for W in _json(zigzag, "W", list, [5])]
    T = _number(float, zigzag.get("T", 100.0), "T")
    for W in windows:
        diagnostics.check_zigzag_settings(W, T)
    k_min = _number(int, slope.get("k_min", 100), "k_min")
    if k_min < 1:
        raise ConfigError("k_min must be >= 1")
    anchors = [_number(int, a, "anchors") for a in _json(lower, "anchors", list, [10, 100, 1000])]
    if "lower_bound" in diag and np.shape(problem.x0) != (1,):
        raise ConfigError("lower_bound diagnostic needs a problem with a scalar x0")
    if "lower_bound" in diag and not all(0 <= a <= max_iter for a in anchors):
        raise ConfigError(f"lower_bound anchors must be in [0, max_iter] = [0, {max_iter}]")
    for name in ("slope", "bound_compare"):
        if name in diag and problem.f_star is None:
            raise ConfigError(f"{name} diagnostic needs a problem with known optimum")
    traj = run_solver(problem.objective, problem.feasible_set, problem.x0, method, sched,
                      max_iter, stop_gap=stop_gap, tableau=tab)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / f"{stem}.csv"]
    traj.to_csv(written[0])

    if "zigzag" in diag:
        rows = _zigzag_rows(traj, method, windows, T)
        written.append(_write_rows(out_dir / f"{stem}_zigzag.csv", [_ZIGZAG_HEADER] + rows))
    if "slope" in diag:
        s = diagnostics.slope_fit(traj, problem.f_star, k_min)
        rows = ["k_min,slope", f"{k_min},{s:.17g}"]
        written.append(_write_rows(out_dir / f"{stem}_slope.csv", rows))
    if "lower_bound" in diag:
        vals = diagnostics.lower_bound_probe(traj, anchors)
        rows = ["anchor,probe"] + [f"{a},{v:.17g}" for a, v in zip(anchors, vals)]
        written.append(_write_rows(out_dir / f"{stem}_lower_bound.csv", rows))
    if "bound_compare" in diag:
        h0 = problem.objective.value(problem.x0) - problem.f_star
        rows = ["t,normalized_error,bound"]
        for t, f in zip(traj.t.tolist(), traj.f.tolist()):
            norm_err = (f - problem.f_star) / h0
            rows.append(
                f"{t:.17g},{norm_err:.17g},{diagnostics.continuous_bound(sched.c, t):.17g}"
            )
        written.append(_write_rows(out_dir / f"{stem}_bound.csv", rows))
    return written


def _cmd_run(args) -> int:
    cfg = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS}
    for p in _run_config(cfg, _out_dir(args.output_dir)):
        print(p)
    return 0


def _cmd_sweep(args) -> int:
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, list) or not all(isinstance(cfg, dict) for cfg in doc):
        raise ConfigError("sweep config must be a JSON list of run configuration objects")
    out_dir = _out_dir(args.output_dir)
    for cfg in doc:
        for p in _run_config(cfg, out_dir):
            print(p)
    return 0


def _cmd_certify(args) -> int:
    t = _load_tableau(args.tableau, args.tableau_file)
    if t is None:
        raise ConfigError("certify needs a tableau name or --tableau-file")
    if args.k_max < 1:
        raise ConfigError("--k-max must be >= 1")
    print("k," + ",".join(f"z{i + 1}" for i in range(t.q)) + ",z_inf")
    for k in range(1, args.k_max + 1):
        cert = tableau_mod.certificate(t, args.c, k)
        zs = ",".join(f"{v:.4f}" for v in cert.z)
        print(f"{k},{zs},{np.max(np.abs(cert.z)):.4f}")
    return 0


def _cmd_bound(args) -> int:
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    sched = StepSchedule(c=args.c)
    lines = ["t,continuous_bound,schedule_bound"]
    for i in range(args.points + 1):
        t = args.t_max * i / args.points
        cb = diagnostics.continuous_bound(sched.c, t)
        sb = diagnostics.schedule_bound(sched.gamma, t)
        lines.append(f"{t:.17g},{cb:.17g},{sb:.17g}")
    if args.output:
        print(_write_rows(_out_dir(args.output_dir) / args.output, lines))
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _zigzag_table(path: Path, problem, runs, windows, T: float) -> Path:
    """Write the zig-zag energy of each run over each window W to one CSV.

    runs holds (schedule, tableau) pairs: rk with a tableau, the flow without
    one (fw at delta = 1). Each run covers time T, in round(T / delta) steps,
    and its rows are labelled with the tableau's name, or fw without one.
    """
    for W in windows:
        diagnostics.check_zigzag_settings(W, T)
    rows = [_ZIGZAG_HEADER]
    for sched, tab in runs:
        traj = run_solver(problem.objective, problem.feasible_set, problem.x0,
                          "rk" if tab else "flow", sched, int(round(T / sched.delta)),
                          tableau=tab)
        rows += _zigzag_rows(traj, tab.name if tab else "fw", windows, T)
    return _write_rows(path, rows)


def _cmd_zigzag(args) -> int:
    out_dir = _out_dir(args.output_dir)
    deltas = [_number(float, d, "--deltas") for d in args.deltas.split(",")]
    windows = [_number(int, w, "--windows") for w in args.windows.split(",")]
    runs = [(StepSchedule(c=args.c, delta=d), None) for d in deltas]
    problem = _build_problem(args.problem, args.seed)
    print(_zigzag_table(out_dir / (args.output or "zigzag.csv"), problem, runs, windows, args.T))
    return 0


# ---------------------------------------------------------------------------
# presets: each is a list of jobs. A dict is a _run_config configuration; a
# tuple (output, runs, windows) is a _zigzag_table on the seed-0 logistic
# problem over T = 100.

_PRESETS = {
    # continuous flow vs discrete FW on the triangle, several c and delta
    "fig1": [
        {
            "problem": "triangle",
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
    "fig2-top": [
        (
            "fig2_top_zigzag.csv",
            [(StepSchedule(c=2.0, delta=d), None) for d in (1.0, 0.1, 0.01)],
            (5, 20),
        )
    ],
    # zig-zag energy of fw vs midpoint vs rk4 at delta = 1, W = 5
    "fig2-bottom": [
        (
            "fig2_bottom_zigzag.csv",
            [
                (StepSchedule(c=2.0), None),
                (StepSchedule(c=2.0), tableau_mod.builtin("midpoint")),
                (StepSchedule(c=2.0), tableau_mod.builtin("rk4")),
            ],
            (5,),
        )
    ],
    # triangle problem: plain, line-search, and momentum variants
    "fig3": [
        {
            "problem": "triangle",
            "method": method,
            "c": 2.0,
            "max_iter": 1000,
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
            "c": 2.0,
            "max_iter": 10000,
            "tableau": tab,
            "output": f"lower_bound_{tab or 'fw'}",
            "diagnostics": {"lower_bound": {"anchors": [10, 100, 1000]}},
        }
        for tab in [None] + [n for n in tableau_mod.builtin_names() if n != "euler"]
    ],
    # convergence of fw / midpoint / rk4 on the l1 least-squares sensing problem
    "sensing": [
        {
            "problem": "sensing",
            "method": "fw" if tab is None else "rk",
            "c": 2.0,
            "max_iter": 500,
            "seed": 0,
            "tableau": tab,
            "output": f"sensing_{tab or 'fw'}",
        }
        for tab in (None, "midpoint", "rk4")
    ],
}
PRESET_NAMES = tuple(_PRESETS)


def _cmd_preset(args) -> int:
    if args.name not in _PRESETS:
        raise ConfigError(f"unknown preset {args.name!r}; choose from {sorted(_PRESETS)}")
    out_dir = _out_dir(args.output_dir)
    for job in _PRESETS[args.name]:
        if isinstance(job, dict):
            _run_config(job, out_dir)
        else:
            output, runs, windows = job
            _zigzag_table(out_dir / output, _build_problem("logistic", 0), runs, windows, 100.0)
    print(out_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fwflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output-dir", default=".", help="directory for CSV outputs")

    p = sub.add_parser("run", help="run one solver configuration")
    for key in _CONFIG_KEYS:  # _run_config holds every default and parses every value
        if key != "diagnostics":
            p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS)
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a JSON list of configurations")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("certify", help="print feasibility certificates z^(k)")
    p.add_argument("tableau", nargs="?", default=None)
    p.add_argument("--tableau-file", default=None)
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--k-max", type=int, default=10)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bound", help="tabulate the continuous-rate bound")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--t-max", type=float, default=50.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--output", default=None)
    common(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("zigzag", help="zig-zag energy of the flow over deltas, rows labelled fw")
    p.add_argument("--problem", default="logistic")
    p.add_argument("--c", type=float, default=2.0)
    p.add_argument("--deltas", default="1,0.1,0.01")
    p.add_argument("--windows", default="5,20")
    p.add_argument("--T", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    common(p)
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("preset", help=f"run a named preset: {', '.join(PRESET_NAMES)}")
    p.add_argument("name")
    common(p)
    p.set_defaults(func=_cmd_preset)

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
