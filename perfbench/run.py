"""permlab benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload cli_p1 --seed 0 --seconds 25 --trace 0

The next operation starts only when the previous one has finished; no
threads are used. Every operation's outputs are checked (see workloads.py)
and, for seeds with recorded digests, compared byte for byte with
digests.json. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, measured with no wrappers installed: set-up
seconds, peak RSS, and each stage's time in units of a reference loop timed
around the same ops. With ``--trace 1`` they are the per-layer ones from
tracing.py. ``--smoke`` runs the same code at tiny sizes.
perfbench/README.md describes every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("stage1_rel", "ref"),
    ("stage2_rel", "ref"),
    ("peak_rss_mb", "MB"),
]
WALL = [
    ("stage1_s.p50", "s"),
    ("stage2_s.p50", "s"),
    ("elems_per_s", "1/s"),
    ("ref_s.p50", "s"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cli_p1", "cli_p2", "stream_harness"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25, help="measure for this long (at least one op)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, minimal op count")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be non-negative")
    return args


def digest_key(args) -> str:
    return f"smoke/{args.workload}" if args.smoke else args.workload


def recorded_digests(args) -> list:
    with open(DIGESTS) as fh:
        return json.load(fh).get(digest_key(args), {}).get(str(args.seed), [])


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to its being ready to time
    the first op: importing permlab plus the untimed warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return ready


class Runner:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, workloads, helper, wl, seed, workdir, expected):
        self.workloads = workloads
        self.helper = helper
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.expected = expected      # op index -> [graph/bipartite sha, stream sha]
        self.attempted = 0
        self.failed = 0

    def attempt(self, i):
        """The op's result, or None when it raised or failed a gate."""
        self.attempted += 1
        # each op starts from the same heap state, as a fresh CLI process would
        gc.collect()
        try:
            res = self.workloads.run_op(self.wl, self.seed, i, self.workdir, self.helper)
        except (Exception, SystemExit):
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            shutil.rmtree(Path(self.workdir) / f"op{i}", ignore_errors=True)
        want = self.expected.get(i)
        if want is not None and list(res.digests) != list(want):
            res.problems.append(f"artifact digests {list(res.digests)} differ from recorded {want}")
        if res.problems:
            print(f"op {i} failed: {res.problems}", file=sys.stderr)
            self.failed += 1
            return None
        return res


def run_cycles(runner, seconds):
    """Whole sigma rotations until the time is up, at least one. Returns the
    rotations whose ops all passed, each a list of (result, ref_s); ref_s is
    the mean of the reference times measured just before and after the op."""
    cycle = len(runner.wl.sigmas)
    done, refs = [], [runner.helper.reference()]
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        for _ in range(cycle):
            done.append(runner.attempt(len(done)))
            refs.append(runner.helper.reference())
    ops = [(res, (refs[i] + refs[i + 1]) / 2) for i, res in enumerate(done)]
    rotations = [ops[k:k + cycle] for k in range(0, len(ops), cycle)]
    return [rot for rot in rotations if all(res is not None for res, _ in rot)]


def end_to_end(rotations, setup):
    """The gated metrics, and the same figures in wall-clock seconds.

    A stage's metric is its total time over the run in units of the reference
    time measured around the same ops, which cancels the host's speed
    swings; a sum is steadier than a median here (see README.md)."""
    ops = [op for rot in rotations for op in rot]
    ref = sum(r for _, r in ops)
    gated = {
        "setup_s": statistics.median(setup),
        "stage1_rel": sum(res.stage1_s for res, _ in ops) / ref,
        "stage2_rel": sum(res.stage2_s for res, _ in ops) / ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = {
        "stage1_s.p50": statistics.median(res.stage1_s for res, _ in ops),
        "stage2_s.p50": statistics.median(res.stage2_s for res, _ in ops),
        "elems_per_s": sum(res.elements for res, _ in ops)
        / sum(res.stage1_s + res.stage2_s for res, _ in ops),
        "ref_s.p50": statistics.median(r for _, r in ops),
    }
    return gated, wall


def run_traced(runner, seconds, tracing, trace_path):
    """The first sigma rotation, alternately untraced and traced, until the
    time is up (at least one pair). The ops are the same every pass, so the
    per-layer counts repeat exactly; traced ops must write the same bytes."""
    ops = range(len(runner.wl.sigmas))
    tracer = tracing.Tracer()
    untraced_s = 0.0
    traced = []
    start = time.perf_counter()
    try:
        while not traced or time.perf_counter() - start < seconds:
            for i in ops:
                res = runner.attempt(i)
                if res is None:
                    return None, 0
                runner.expected.setdefault(i, res.digests)
                untraced_s += res.op_s
            with tracer.installed():
                for i in ops:
                    tracer.op = i
                    res = runner.attempt(i)
                    if res is None:
                        return None, 0
                    traced.append(res)
    finally:
        tracer.write(trace_path)
    return tracer.layer_metrics(traced, untraced_s), len(traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permlab" / "__init__.py").is_file():
        print(f"error: permlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from helper import Helper

    wl = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[args.workload]
    workloads.warm_up(wl)
    if args.probe:
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    seconds = 0 if args.smoke else args.seconds
    expected = dict(enumerate(recorded_digests(args)))
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        with Helper() as helper:
            runner = Runner(workloads, helper, wl, args.seed, workdir, expected)
            if args.trace:
                import tracing

                names, wall = tracing.PER_LAYER, {}
                trace_path = OUT / f"trace-{digest_key(args).replace('/', '-')}-seed{args.seed}.jsonl"
                metrics, measured = run_traced(runner, seconds, tracing, trace_path)
            else:
                names = END_TO_END
                rotations = run_cycles(runner, seconds)
                measured = sum(map(len, rotations))
                metrics, wall = end_to_end(rotations, setup) if rotations else (None, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        metrics = {name: 0.0 for name, _ in names}
    for name, unit in names:
        print(f"{name:<42} {metrics[name]:>16.6g} {unit:<6} ops={measured}")
    print(f"{'fail_ratio':<42} {runner.failed / runner.attempted:>16.6g} {'ratio':<6} ops={runner.attempted}")
    for name, unit in WALL if wall else ():
        print(f"{name:<42} {wall[name]:>16.6g} {unit:<6} ops={measured} (wall clock, not gated)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
