"""Workload definitions, one closed-loop operation each, and the output gates.

Operation code reaches every permlab function through its module attribute
(``cli.main``, ``gen.gen_general``, ``streams.run_passes``...), so the traced
run's wrappers see those calls. The gates run outside the timed calls: the
matching check of generated graphs in helper.py's child process, the rest
here with references captured at import, before any wrapper is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

from permlab import cli, gen, matching, streams
from permlab.gen import default_params
from permlab.matching import sigma_cross, sigma_eq
from permlab.perms import identity
from permlab.seeds import rng_for

_dump_stream = streams.dump_stream


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "cli" or "stream"
    m: int
    b: int
    k: int
    p: int
    sigmas: tuple[str, ...]    # op i uses sigmas[i % len(sigmas)]

    @property
    def params(self):
        return default_params(self.m, self.b, k=self.k, p=self.p)


# Sizes and reasons are in perfbench/README.md. The smoke variants keep each
# workload's code path at the smallest size that still runs it.
WORKLOADS = {
    "cli_p1": Workload("cli_p1", "cli", 128, 4, 2, 1, ("id", "cross", "random")),
    "cli_p2": Workload("cli_p2", "cli", 16, 4, 2, 2, ("id", "cross", "random")),
    "stream_harness": Workload("stream_harness", "stream", 8, 2, 2, 1, ("id", "cross")),
}
SMOKE = {
    "cli_p1": Workload("cli_p1", "cli", 8, 2, 2, 1, ("id", "cross", "random")),
    "cli_p2": Workload("cli_p2", "cli", 4, 2, 2, 2, ("id", "cross", "random")),
    "stream_harness": Workload("stream_harness", "stream", 4, 2, 2, 1, ("id", "cross")),
}


def op_seed(seed: int, wl: Workload, i: int, label: str) -> int:
    """32-bit seed of op i, derived from the workload seed alone."""
    text = f"{seed}/{wl.name}/{i}/{label}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


@dataclass
class OpResult:
    stage1_s: float            # cli: `permlab gen`; stream: both run_passes calls
    stage2_s: float            # cli: `permlab verify`; stream: partitioned_replay
    op_s: float                # the whole operation, input building included
    elements: int              # cli: generated edges; stream: elements processed
    digests: tuple[str, str]   # sha256 of the op's two artifacts
    artifact_bytes: int        # bytes the CLI wrote (0 when the CLI is not used)
    final_edges: int           # edges of the graph the op generated
    problems: list[str] = field(default_factory=list)


def warm_up(wl: Workload) -> None:
    """Fill the generator's per-(m, b) network and layer-plan caches."""
    gen.gen_general(identity(wl.m), wl.params, rng_for(0, "perfbench/warm-up"))


def run_op(wl: Workload, seed: int, i: int, workdir: str, helper) -> OpResult:
    """helper is a helper.Helper; only cli ops use it."""
    if wl.kind == "cli":
        return _cli_op(wl, seed, i, workdir, helper)
    return _stream_op(wl, seed, i)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def _cli_op(wl: Workload, seed: int, i: int, workdir: str, helper) -> OpResult:
    spec = wl.sigmas[i % len(wl.sigmas)]
    if spec == "random":
        spec = f"random:{op_seed(seed, wl, i, 'sigma')}"
    out = os.path.join(workdir, f"op{i}")
    graph_path = os.path.join(out, "graph.json")
    stream_path = os.path.join(out, "stream.txt")
    rc_gen, _, gen_s = _cli([
        "gen", spec, "--m", str(wl.m), "--b", str(wl.b), "--k", str(wl.k),
        "--p", str(wl.p), "--seed", str(op_seed(seed, wl, i, "gen")),
        "--shuffle-seed", str(op_seed(seed, wl, i, "shuffle")), "--out", out,
    ])
    # manifest.json is left out: verify does not recognise it yet
    rc_ver, report, verify_s = _cli(["verify", graph_path, stream_path])

    problems = []
    if rc_gen != 0 or rc_ver != 0:
        problems.append(f"exit codes gen={rc_gen} verify={rc_ver}")
    rep = json.loads(report)
    if rep["violations"] or rep["clean"] != 2:
        problems.append(f"verify report: {rep}")
    with open(stream_path) as fh:
        fh.readline()
        edges = int(fh.readline().split()[1])
    if spec in ("id", "cross"):
        problems += helper.dichotomy(graph_path, spec, wl.m, wl.b, wl.k, wl.p)
    return OpResult(
        gen_s, verify_s, gen_s + verify_s, edges,
        (_file_sha(graph_path), _file_sha(stream_path)),
        os.path.getsize(graph_path) + os.path.getsize(stream_path), edges, problems,
    )


def _stream_op(wl: Workload, seed: int, i: int) -> OpResult:
    spec = wl.sigmas[i % len(wl.sigmas)]
    sigma = sigma_eq(wl.m) if spec == "id" else sigma_cross(wl.m)
    t0 = time.perf_counter()
    g = gen.gen_general(sigma, wl.params, rng_for(op_seed(seed, wl, i, "gen"), "gen"))
    bip = matching.instance_to_stream(matching.bipartite_of(g, wl.m))
    tagged = streams.graph_to_stream(g, shuffle_seed=op_seed(seed, wl, i, "shuffle"))
    t1 = time.perf_counter()
    greedy = streams.run_passes(streams.GreedyMatching(), bip, 1)
    aug = streams.run_passes(streams.AugmentingMatching(), bip, 2)
    t2 = time.perf_counter()
    replay = streams.partitioned_replay(tagged, streams.GreedyMatching(), 1)
    replay_aug = streams.partitioned_replay(tagged, streams.AugmentingMatching(), 2)
    t3 = time.perf_counter()

    problems = []
    problems += _check_matching("greedy", greedy.output, bip.edges)
    problems += _check_matching("augmenting", aug.output, bip.edges)
    problems += _check_matching("replay", replay.output, tagged.edges)
    problems += _check_matching("augmenting replay", replay_aug.output, tagged.edges)
    for got, base in ((aug, greedy), (replay_aug, replay)):
        if len(got.output) < len(base.output):
            problems.append(f"augmenting {len(got.output)} < greedy {len(base.output)}")
    bip_bytes = _dump_stream(bip).encode()
    tagged_bytes = _dump_stream(tagged).encode()
    return OpResult(
        t2 - t1, t3 - t2, t3 - t0,
        greedy.elements_seen + aug.elements_seen + 3 * len(tagged),
        (_sha(bip_bytes), _sha(tagged_bytes)),
        0, len(g.edges), problems,
    )


def _check_matching(label: str, pairs, edges) -> list[str]:
    """A valid matching of the stream's edges, which it takes as unordered
    pairs, that no stream edge extends. Augmenting keeps every matched vertex
    matched, so it stays maximal too."""
    edge_set = {frozenset(e) for e in edges}
    used: set[int] = set()
    for u, v in pairs:
        if frozenset((u, v)) not in edge_set:
            return [f"{label}: pair ({u},{v}) is not a stream edge"]
        if u in used or v in used:
            return [f"{label}: vertex of ({u},{v}) matched twice"]
        used.update((u, v))
    free = next(((u, v) for u, v in edges if u not in used and v not in used), None)
    if free is not None:
        return [f"{label}: edge {free} has both endpoints free (not maximal)"]
    return []
