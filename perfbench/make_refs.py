#!/usr/bin/env python3
"""Write the output-check references, refs/<workload>.json.

    python3 perfbench/make_refs.py [WORKLOAD ...]

For each workload and size it runs one pass at the default and the held-out
seed (once, for workloads whose inputs ignore the seed), checks the outputs
against the paper's guarantees, and records each CSV's digest and checkpoint
rows. At the default seed it also confirms that the full-size outputs are
the shipped presets' outputs: ``fig1`` and ``lower-bound`` byte for byte,
``sensing`` byte for byte, and the ``fig2-bottom`` energies value for value.

Regenerate only when outputs change on purpose, and say which in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from workloads import DEFAULT_SEED, HELDOUT_SEED, SIZES, WORKLOADS

# workload -> preset whose full-size outputs it must reproduce at the default seed
PRESETS = {"hull-flow": "fig1", "box-rk": "lower-bound", "logistic-zigzag": "sensing"}


def preset_mismatches(workload, out, work):
    import fwflow.cli

    fails = []
    for preset in [PRESETS.get(workload.name)] + (
        ["fig2-bottom"] if workload.name == "logistic-zigzag" else []
    ):
        if preset is None:
            continue
        pdir = work / f"preset_{preset}"
        if fwflow.cli.main(["preset", preset, "--output-dir", str(pdir)]) != 0:
            return [f"preset {preset} failed"]
        if preset == "fig2-bottom":
            # one file with a row per method; the sweep writes one file per method
            _, rows = checks.read_table(pdir / "fig2_bottom_zigzag.csv")
            for row in rows:
                _, mine = checks.read_table(out / f"fig2_bottom_{row[0]}_zigzag.csv")
                if mine[0][1:] != row[1:]:
                    fails.append(f"fig2-bottom {row[0]}: {mine[0][1:]} != {row[1:]}")
            continue
        for name, digest in checks.digests(pdir).items():
            if not (out / name).exists() or checks.sha256(out / name) != digest:
                fails.append(f"preset {preset}: {name} differs")
    return fails


def main(names):
    run.import_program()
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            workload = WORKLOADS[name]
            doc = {}
            seeds = (DEFAULT_SEED, HELDOUT_SEED) if workload.seeded else (DEFAULT_SEED,)
            for size in SIZES:
                for seed in seeds:
                    work = run.WORK / f"{name}_{size}_{seed}"
                    work.mkdir(parents=True)
                    ctx = workload.prepare(seed, size, work)
                    _, _, err = run.one_pass(workload, ctx, work / "out")
                    if err:
                        raise SystemExit(f"{name} {size} seed {seed}: {err}")
                    g = checks.Guarantees(workload.expect(ctx))
                    fails = checks.check_outputs(work / "out", g, None)[0]
                    if size == "full" and seed == DEFAULT_SEED:
                        fails += preset_mismatches(workload, work / "out", work)
                    if fails:
                        raise SystemExit(f"{name} {size} seed {seed}: " + "; ".join(fails))
                    key = f"{size}/{checks.ref_key_seed(workload.seeded, seed)}"
                    doc[key] = {
                        p.name: checks.snapshot(p) for p in sorted((work / "out").glob("*.csv"))
                    }
                    print(f"{name} {key}: {len(doc[key])} CSVs", flush=True)
            checks.REFS_DIR.mkdir(exist_ok=True)
            path = checks.REFS_DIR / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
