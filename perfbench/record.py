"""Record the reference result of every benchmark point.

    python3 perfbench/record.py [workload ...]

Runs each named workload (default: all) once per seed of the pool,
untraced, and rewrites those workloads' entries of
``perfbench/references.json``.  The flow engine is RNG-free, so its one
reference is stored under ``"*"`` and serves every seed.  Re-record
only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import SEED_POOL, WORKLOADS, pool_seed, run_point  # noqa: E402


def main(names: list[str]) -> None:
    path = HERE / "references.json"
    references = json.loads(path.read_text()) if path.exists() else {}
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        if workload.engine == "flow":
            seeds = {"*": 1}
        else:
            seeds = {str(s): s for s in (pool_seed(0, k)
                                         for k in range(SEED_POOL))}
        table = {}
        for key, seed in seeds.items():
            table[key] = run_point(workload, workload.spec(seed)).record
            print(f"{name} seed {key}: recorded", flush=True)
        references[name] = table
    # one record per line, so a re-recording diffs seed by seed
    lines = []
    for name in sorted(references):
        rows = [f"  {json.dumps(key)}: {json.dumps(rec, sort_keys=True)}"
                for key, rec in sorted(references[name].items())]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
