"""Output check: committed references and the paper's guarantees.

Every CSV a pass writes is checked three ways:

- against the committed reference for the workload, size and seed, when one
  exists (``refs/<workload>.json``): its SHA-256 digest, and every column at a
  fixed set of rows within RTOL/ATOL. A digest that differs while the values
  hold is a deliberate change in numerics; it lowers ``cli.csv_identical``
  and is not a failure. Values that differ are a failure.
- against the paper's guarantees, on every seed: finite values, the right
  number of rows, feasibility (max ``feas_violation`` <= FEAS_TOL) for fw, the
  flow and every rk run whose tableau is certified (z^(k) in [0, 1]) for all
  its steps, and f - f* <= h0/(k+1) wherever f* is known and c > 1. At an
  iterate known to be feasible the FW gap is >= 0 (the LMO minimizes over a
  set holding the iterate) and, where f* is known, bounds f - f* from above.
- against the first pass of the same run: passes over the same inputs must
  write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"
RTOL = 1e-9
ATOL = 1e-12
FEAS_TOL = 1e-9  # the package's own FEASIBILITY_TOL
BOUND_SLACK = 1e-12  # as in the README's h0/(k+1) example
GAP_RTOL = 1e-9  # rounding allowed in the FW gap, relative to max(1, |f|)
N_CHECKPOINTS = 20
TRAJ_HEADER = ["iter", "t", "f", "gap", "feas_violation"]


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path: Path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[_cell(v) for v in line.split(",")] for line in lines[1:]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(out: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out.glob("*.csv"))}


def checkpoint_rows(n: int) -> list:
    """About N_CHECKPOINTS row indices, dense early and sparse late, plus the last."""
    if n <= N_CHECKPOINTS:
        return list(range(n))
    rows = {0, n - 1}
    ratio = (n - 1) ** (1.0 / (N_CHECKPOINTS - 2))
    x = 1.0
    while len(rows) < N_CHECKPOINTS and x < n - 1:
        rows.add(int(round(x)))
        x *= ratio
    return sorted(rows)


def snapshot(path: Path) -> dict:
    """Reference entry for one CSV: digest, shape and checkpoint rows."""
    header, rows = read_table(path)
    return {
        "sha256": sha256(path),
        "header": header,
        "rows": len(rows),
        "checkpoints": {str(i): rows[i] for i in checkpoint_rows(len(rows))},
    }


def load_refs(workload: str, size: str, seed) -> dict | None:
    path = REFS_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(f"{size}/{seed}")


def ref_key_seed(seeded: bool, seed: int):
    return seed if seeded else "any"


def _close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    return a == b


def compare_to_ref(name: str, path: Path, ref: dict) -> list:
    header, rows = read_table(path)
    if header != ref["header"] or len(rows) != ref["rows"]:
        return [f"{name}: shape {header} x {len(rows)} != reference {ref['header']} x {ref['rows']}"]
    for i, want in ref["checkpoints"].items():
        got = rows[int(i)]
        if len(got) != len(want) or not all(_close(g, w) for g, w in zip(got, want)):
            return [f"{name}: row {i} is {got}, reference {want}"]
    return []


class Guarantees:
    """Per-trajectory facts the output check needs, computed once per run.

    Build it before any tracer is installed: certificates call
    ``tableau.validate``.
    """

    def __init__(self, expect: dict):
        from fwflow import problems
        from fwflow.tableau import builtin, certificate, rate_constants

        self.expect = expect
        self.feasible = {}
        self.f_star = {}  # name -> optimal value, where known
        self.bound = {}  # name -> h0 of the h0/(k+1) bound
        first_bad = {}  # (tableau, c) -> first k whose certificate leaves [0, 1]
        known = {"triangle": problems.triangle, "scalar_box": problems.scalar_box}
        for name, e in expect.items():
            tab, c, n = e["tableau"], e["c"], e["max_iter"]
            if e["method"] in ("fw", "flow"):
                self.feasible[name] = True  # convex combinations, coefficient <= 1
            else:
                key = (tab, c)
                k = first_bad.get(key, 1)
                t = builtin(tab)
                while k <= n and certificate(t, c, k).in_unit_interval:
                    k += 1
                first_bad[key] = k
                self.feasible[name] = k > n
            if e["problem"] not in known:
                continue
            p = known[e["problem"]]()
            self.f_star[name] = p.f_star
            if c > 1 and e["method"] in ("fw", "rk"):
                h_x0 = p.objective.value(p.x0) - p.f_star
                rc = rate_constants(
                    builtin(tab or "euler"),
                    c,
                    p.objective.smoothness,
                    p.feasible_set.diameter(),
                    h_x0,
                )
                self.bound[name] = rc.h0

    def check(self, name: str, path: Path) -> list:
        """Every failure of one CSV against finiteness and the guarantees."""
        header, rows = read_table(path)
        for row in rows:
            for v in row:
                if isinstance(v, float) and not math.isfinite(v):
                    return [f"{name}: non-finite value in row {row}"]
        e = self.expect.get(name)
        if e is None:
            return []
        if header != TRAJ_HEADER:
            return [f"{name}: header {header}"]
        if len(rows) != e["max_iter"] + 1:
            return [f"{name}: {len(rows)} rows, expected {e['max_iter'] + 1}"]
        fails = []
        f_star = self.f_star.get(name)
        if self.feasible[name]:
            worst = max(r[4] for r in rows)
            if worst > FEAS_TOL:
                fails.append(f"{name}: certified run left the set, violation {worst:.3g}")
            for k, _, f, gap, _ in rows:
                slack = GAP_RTOL * max(1.0, abs(f))
                if gap < -slack or (f_star is not None and f - f_star > gap + slack):
                    fails.append(f"{name}: FW gap {gap:.3g} with f = {f:.17g} at k={k:g}")
                    break
        if name in self.bound:
            h0 = self.bound[name]
            for k, _, f, _, _ in rows:
                if f - f_star > h0 / (k + 1) + BOUND_SLACK:
                    fails.append(f"{name}: f - f* = {f - f_star:.3g} > h0/(k+1) at k={k:g}")
                    break
        return fails


def check_outputs(out: Path, guarantees: Guarantees, refs: dict | None):
    """Check one pass's CSVs. Returns (failures, identical, compared, digests)."""
    found = digests(out)
    fails = [f"missing output {n}" for n in guarantees.expect if n not in found]
    if refs is not None:
        fails += [f"missing output {n}" for n in refs if n not in found]
        fails += [f"unexpected output {n}" for n in found if n not in refs]
    identical = compared = 0
    for name, digest in found.items():
        path = out / name
        try:
            fails += guarantees.check(name, path)
            if refs is not None and name in refs:
                compared += 1
                identical += digest == refs[name]["sha256"]
                fails += compare_to_ref(name, path, refs[name])
        except (ValueError, IndexError, TypeError) as e:  # a malformed CSV
            fails.append(f"{name}: unreadable, {type(e).__name__}: {e}")
    return fails, identical, compared, found
