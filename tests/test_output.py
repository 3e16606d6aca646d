"""Long CSVs are formatted a chunk of rows at a time and streamed to disk. These tests hold
their bytes to the per-row writers they replaced, copied below as references, across chunk
boundaries and every %.17g edge case, and pin one preset file that spans many chunks."""

import hashlib
import io
import json

import numpy as np
import pytest

from fwflow import cli, solvers
from fwflow.cli import _PRESETS, main
from fwflow.solvers import Trajectory

CHUNK = solvers._CHUNK_ROWS
EDGES = [-0.0, 5e-324, 1e300, np.inf, np.nan, -1e300, -5e-324, -np.inf]


def _to_csv_reference(traj) -> str:
    """Trajectory.to_csv as one f-string and one write per row."""
    out = io.StringIO()
    out.write("iter,t,f,gap,feas_violation\n")
    rows = zip(traj.f.tolist(), traj.gap.tolist(), traj.violation.tolist())
    for k, (f, gap, v) in enumerate(rows):
        out.write(f"{k},{k * traj.delta:.17g},{f:.17g},{gap:.17g},{v:.17g}\n")
    return out.getvalue()


def _continuous_bound_reference(c: float, t: float) -> float:
    """diagnostics.continuous_bound at one valid time."""
    return (c / (c + t)) ** c


def _bound_compare_reference(traj, f_star: float, c: float) -> str:
    """The bound_compare table as the CLI wrote it, one row and one bound call at a time."""
    h0 = (fs := traj.f.tolist())[0] - f_star  # row 0 holds f(x0)
    rows = ["t,normalized_error,bound"]
    for t, f in zip(traj.t.tolist(), fs):
        norm_err = (f - f_star) / h0
        cb = _continuous_bound_reference(c, t)
        rows.append(f"{t:.17g},{norm_err:.17g},{cb:.17g}")
    return "\n".join(rows) + "\n"


def _edge_trajectory(n: int, delta: float, seed: int) -> Trajectory:
    """n rows whose f, gap and violation columns hold values across the whole float range,
    with every EDGES value near the start and on both sides of each chunk boundary."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-320, 300, (3, n))
    for j, col in enumerate(cols):
        for i, value in enumerate(EDGES):
            for start in range(1, n, CHUNK):
                col[(start + i + j) % n] = value
            col[(CHUNK - 1 - i - j) % n] = value
    cols[0][0] = 3.0  # f(x0) - f* = 3 is the bound table's finite, nonzero h0
    return Trajectory(np.zeros((n, 2)), *cols, delta=delta)


ROWS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("target", ["path", "str", "stringio"])
def test_to_csv_matches_the_per_row_writer(tmp_path, n, target):
    traj = _edge_trajectory(n, 0.1, seed=n)
    if target == "stringio":
        buf = io.StringIO()
        traj.to_csv(buf)
        got = buf.getvalue()
    else:
        path = tmp_path / "traj.csv"
        traj.to_csv(path if target == "path" else str(path))
        got = path.read_bytes().decode()
    assert got == _to_csv_reference(traj)


@pytest.mark.parametrize("n", ROWS)
@pytest.mark.parametrize("c", [1.0, 2.0, 3.0, 4.0])
def test_bound_compare_matches_the_per_row_writer(tmp_path, monkeypatch, n, c):
    delta = 0.001 if c >= 3 else 0.1  # at c = 3 and 4, numpy's ** would move bound bits here
    traj = _edge_trajectory(n, delta, seed=int(n * c))
    monkeypatch.setattr(cli, "run_solver", lambda *args, **kwargs: traj)
    cfg = {"problem": "triangle", "method": "flow", "c": c, "delta": delta, "max_iter": n,
           "output": "e", "diagnostics": {"bound_compare": {}}}
    written = list(cli._runs([cli._parse(cli._SETTINGS["run"], cfg, "run")], tmp_path))
    assert [p.name for p in written] == ["e.csv", "e_bound.csv"]
    assert (tmp_path / "e.csv").read_bytes().decode() == _to_csv_reference(traj)
    want = _bound_compare_reference(traj, 0.0, c)  # the triangle's f* is 0
    assert (tmp_path / "e_bound.csv").read_bytes().decode() == want


# SHA-256 of the 50,001-row flow run of `fwflow preset fig1` at c = 4 and delta = 0.001, and
# of its bound table, as the per-row writers wrote them
PINNED_FIG1_SHA256 = {
    "fig1_flow_c4_d0.001.csv":
        "eb1a3a761ebc2ef6450d67566a75e5678eeba0db143d35033863b2302a289ecc",
    "fig1_flow_c4_d0.001_bound.csv":
        "7c1ff19a44a5a389245f3a27f443f13708f456698a0ee21385c565243fdc03aa",
}


def test_fig1_longest_flow_digest_pinned(tmp_path, capsys):
    [job] = [job for job in _PRESETS["fig1"] if job["output"] == "fig1_flow_c4_d0.001"]
    (tmp_path / "sweep.json").write_text(json.dumps([job]))
    assert main(["sweep", "--config", str(tmp_path / "sweep.json"),
                 "--output-dir", str(tmp_path / "out")]) == 0
    for name, digest in PINNED_FIG1_SHA256.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
