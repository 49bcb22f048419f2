"""Spans around calls into permlab's layers, recorded from the benchmark side.

Each wrapper replaces a name where its caller looks it up (``permlab.cli.gen_general``
for the CLI's call, ``permlab.gen.gen_general`` for the recursive ones, a class
attribute for methods), records one span per call with its parent span, and
restores the original on exit. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

from permlab import blocks, cli, gen, graphs, matching, streams


def _edges(g):
    return {"edges": len(g.edges)}


def _copied(g):
    return {"edges_copied": len(g.edges)}


def _bipartite(inst):
    return {"edges": inst.edge_count}


def _certified(res):
    return {"certified": int(res.certified)}


def _run(res):
    return {"elements": res.elements_seen, "max_state_bits": res.max_state_bits}


def _serialized(data):
    return {"bytes": len(data)}


def _handoffs(rep):
    return {"handoffs": rep.handoffs}


# (owner, attribute, span name, counters of the result). perms, rs/seeds and
# dists are left out; perfbench/README.md says why.
LAYERS = [
    (cli, "cmd_gen", "cli.gen", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "gen_general", "gen.gen_general", None),
    (gen, "gen_general", "gen.gen_general", None),
    (gen, "decompose", "sortnet.decompose", None),
    (gen, "sample_core", "hph.core", None),
    (gen, "recompute_gamma_star", "hph.core", None),
    (gen, "force_gamma", "hph.core", None),
    (gen, "multi_block", "blocks.multi_block", None),
    (gen, "p_multi_block_sample", "blocks.p_multi_block_sample", None),
    (graphs.GroupLayeredGraph, "expand", "graphs.expand", _edges),
    (gen, "concat_all", "graphs.concat_all", _copied),
    (blocks, "concat_all", "graphs.concat_all", _copied),
    (graphs.LayeredGraph, "to_json", "graphs.to_json", None),
    (graphs.LayeredGraph, "from_json", "graphs.from_json", None),
    (cli, "extract_permutation", "graphs.extract_permutation", None),
    (cli, "bipartite_of", "matching.bipartite_of", _bipartite),
    (matching, "bipartite_of", "matching.bipartite_of", _bipartite),
    (cli, "max_matching", "matching.max_matching", _certified),
    (cli, "graph_to_stream", "streams.graph_to_stream", None),
    (streams, "graph_to_stream", "streams.graph_to_stream", None),
    (cli, "dump_stream", "streams.dump_stream", None),
    (streams, "parse_stream", "streams.parse_stream", None),
    (streams, "run_passes", "streams.run_passes", _run),
    (streams.GreedyMatching, "serialize", "streams.serialize", _serialized),
    (streams, "partitioned_replay", "streams.partitioned_replay", _handoffs),
]

# Per-layer metrics, in BENCHMARK.json's order. Sums are per operation,
# averaged over whole sigma rotations so that deterministic counts repeat.
PER_LAYER = [
    ("sortnet.decompose.calls", "count"),
    ("sortnet.decompose.self_s", "s"),
    ("hph.core.self_s", "s"),
    ("blocks.multi_block.self_s", "s"),
    ("blocks.p_multi_block_sample.self_s", "s"),
    ("graphs.expand.self_s", "s"),
    ("graphs.expand.edges", "count"),
    ("gen.gen_general.calls", "count"),
    ("gen.gen_general.self_s", "s"),
    ("gen.gen_general.max_level", "count"),
    ("graphs.concat_all.self_s", "s"),
    ("graphs.concat_all.edges_copied", "count"),
    ("graphs.concat_all.copy_ratio", "ratio"),
    ("graphs.extract_permutation.self_s", "s"),
    ("matching.bipartite_of.self_s", "s"),
    ("matching.bipartite_of.edges", "count"),
    ("matching.max_matching.self_s", "s"),
    ("matching.max_matching.certified_ratio", "ratio"),
    ("graphs.to_json.self_s", "s"),
    ("graphs.from_json.self_s", "s"),
    ("streams.graph_to_stream.self_s", "s"),
    ("streams.dump_stream.self_s", "s"),
    ("streams.parse_stream.self_s", "s"),
    ("cli.gen.self_s", "s"),
    ("cli.verify.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("streams.run_passes.self_s", "s"),
    ("streams.run_passes.elements", "count"),
    ("streams.run_passes.max_state_bits", "bits"),
    ("streams.serialize.calls", "count"),
    ("streams.serialize.bytes", "bytes"),
    ("streams.serialize.share", "ratio"),
    ("streams.partitioned_replay.self_s", "s"),
    ("streams.partitioned_replay.handoffs", "count"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]

# span fields
ID, PARENT, NAME, OP, START, END, COUNTS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1              # index of the operation being traced

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self.stack[-1] if self.stack else None, name, self.op,
                    time.perf_counter(), 0.0, None]
            self.spans.append(span)
            self.stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[COUNTS] = count(out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in LAYERS:
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, orig.__func__, count)))
                else:
                    setattr(owner, attr, self.wrap(name, orig, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "op", "start", "end", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, ops, untraced_s: float) -> dict[str, float]:
        """ops are the traced operations' results; untraced_s is the wall time
        of the same operations run without wrappers."""
        n = len(ops)
        dur = [s[END] - s[START] for s in self.spans]
        child = [0.0] * len(self.spans)
        level = [0] * len(self.spans)
        for s in self.spans:
            p = s[PARENT]
            if p is not None:
                child[p] += dur[s[ID]]
            level[s[ID]] = (level[p] if p is not None else 0) + (s[NAME] == "gen.gen_general")
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        for s in self.spans:
            name = s[NAME]
            calls[name] += 1
            self_s[name] += dur[s[ID]] - child[s[ID]]
            for key, val in (s[COUNTS] or {}).items():
                if key == "max_state_bits":
                    counts[f"{name}.{key}"] = max(counts[f"{name}.{key}"], val)
                else:
                    counts[f"{name}.{key}"] += val
        serialize_in_passes = sum(
            dur[s[ID]] for s in self.spans
            if s[NAME] == "streams.serialize" and s[PARENT] is not None
            and self.spans[s[PARENT]][NAME] == "streams.run_passes"
        )
        passes_s = sum(dur[s[ID]] for s in self.spans if s[NAME] == "streams.run_passes")
        traced_s = sum(op.op_s for op in ops)
        final_edges = sum(op.final_edges for op in ops)
        mm_calls = calls["matching.max_matching"]

        out = {}
        for metric, _ in PER_LAYER:
            layer, _, what = metric.rpartition(".")
            if what == "self_s":
                out[metric] = self_s[layer] / n
            elif what == "calls":
                out[metric] = calls[layer] / n
            elif metric in counts and what != "max_state_bits":
                out[metric] = counts[metric] / n
        out["streams.run_passes.max_state_bits"] = counts["streams.run_passes.max_state_bits"]
        out["gen.gen_general.max_level"] = max(level, default=0)
        out["graphs.concat_all.copy_ratio"] = counts["graphs.concat_all.edges_copied"] / final_edges
        out["matching.max_matching.certified_ratio"] = (
            counts["matching.max_matching.certified"] / mm_calls if mm_calls else 0.0
        )
        out["cli.artifact_bytes"] = sum(op.artifact_bytes for op in ops) / n
        out["streams.serialize.share"] = serialize_in_passes / passes_s if passes_s else 0.0
        out["trace.overhead"] = traced_s / untraced_s
        out["trace.coverage"] = sum(self_s.values()) / traced_s
        for metric, _ in PER_LAYER:
            out.setdefault(metric, 0.0)
        return out
