"""Record the sha256 of each op's two artifacts into perfbench/digests.json.

    python3 perfbench/record_digests.py

Every op is checked by the benchmark's gates before its digests are kept.
Record only from a tree whose artifacts are known good: afterwards the
benchmark fails any op of a recorded seed whose bytes differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from helper import Helper  # noqa: E402

# The default seed 0 is recorded for more ops than one 20 s run makes on the
# seed tree, so that faster trees stay covered; seeds 1-10 for about one run.
DEEP = {"cli_p1": 36, "cli_p2": 9, "stream_harness": 24}
SHALLOW = {"cli_p1": 15, "cli_p2": 3, "stream_harness": 8}


def record(wl, seed: int, ops: int, workdir: str, helper) -> list[list[str]]:
    out = []
    for i in range(ops):
        res = workloads.run_op(wl, seed, i, workdir, helper)
        if res.problems:
            raise SystemExit(f"{wl.name} seed {seed} op {i} failed: {res.problems}")
        out.append(list(res.digests))
        shutil.rmtree(Path(workdir) / f"op{i}", ignore_errors=True)
    return out


def main() -> int:
    plan = []
    for name, wl in workloads.SMOKE.items():
        plan.append((f"smoke/{name}", wl, 0, len(wl.sigmas)))
    for name, wl in workloads.WORKLOADS.items():
        plan.append((name, wl, 0, DEEP[name]))
        plan.extend((name, wl, seed, SHALLOW[name]) for seed in range(1, 11))
    digests: dict = {}
    (HERE / "_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="digests-", dir=HERE / "_out")
    try:
        with Helper() as helper:
            for key, wl, seed, ops in plan:
                workloads.warm_up(wl)
                digests.setdefault(key, {})[str(seed)] = record(wl, seed, ops, workdir, helper)
                print(f"{key} seed {seed}: {ops} ops", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
