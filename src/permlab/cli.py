"""Batch front door: generate instances, verify artifacts, run analyses.

Exit codes: 0 clean, 1 verification failure, 2 usage error. Every command
is driven by one 64-bit --seed; internal consumers derive their own
streams via the labeled scheme in seeds.py, and manifests carry no
timestamps, so reruns with the same arguments are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from itertools import chain
from typing import Iterable

import numpy as np

from . import __version__, dists
from .codec import json_int
from .gen import default_params, gen_general, header_layout, layout, vertex_count
from .graphs import ExtractionError, LayeredGraph, extract_permutation
from .hph import parse_instance, referee_answer
from .matching import (BipartiteInstance, bipartite_of, dichotomy_size, instance_to_stream, max_matching,
                       sigma_cross, sigma_eq)
from .perms import parse_perm, random_perm
from .rs import parse_rs, validate_rs
from .seeds import rng_for
from .sortnet import build_sort_network, depth_bound
# dump_stream is not used here, but perfbench/tracing.py looks the name up on this module
from .streams import FullMemory, advantage_estimate, dump_stream, graph_to_stream, parse_stream, stream_text

OUT_ENV = "PERMLAB_OUT"


@dataclass
class RunManifest:
    command: str
    params: dict
    seed: int
    version: str
    outputs: dict[str, str]   # file name -> sha256 of contents

    def dump(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"


def _write(path: str, pieces: Iterable[bytes]) -> str:
    """Write the pieces to path in order; the sha256 of what was written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in pieces:
            fh.write(piece)
            digest.update(piece)
    return digest.hexdigest()


def _resolve_out(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _sigma_from_spec(spec: str, m: int, seed: int):
    if spec == "id":
        return sigma_eq(m)
    if spec == "cross":
        return sigma_cross(m)
    if spec.startswith("random:"):
        return random_perm(m, rng_for(int(spec.split(":", 1)[1]), "sigma"))
    if spec == "random":
        return random_perm(m, rng_for(seed, "sigma"))
    sigma = parse_perm(spec.replace(",", " "))
    if len(sigma) != m:
        raise ValueError(f"sigma acts on [{len(sigma)}] but m={m}")
    return sigma


def cmd_gen(args) -> int:
    try:
        params = default_params(args.m, args.b, k=args.k, p=args.p)
        sigma = _sigma_from_spec(args.sigma, args.m, args.seed)
        vertex_count(params, general=True)
        if args.shuffle_seed is not None and args.shuffle_seed < 0:
            # random.Random seeds with |seed|: -3 would write the stream of 3
            raise ValueError(f"--shuffle-seed must be >= 0, got {args.shuffle_seed}")
        out = _resolve_out(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    doc = {
        "kind": "permgraph",
        "m": args.m,
        "b": args.b,
        "k": args.k,
        "p": args.p,
        "sigma": list(sigma),
        "graph": None,
    }
    # the graph's bytes go where json.dumps writes its value: "b", the one
    # key that sorts before "graph", holds an int, so the first null is it
    head, tail = json.dumps(doc, sort_keys=True).encode().split(b"null", 1)
    try:
        g = gen_general(sigma, params, rng_for(args.seed, "gen"))
        outputs = {"graph.json": _write(os.path.join(out, "graph.json"),
                                        chain([head], g.json_chunks(), [tail, b"\n"]))}
        stream = graph_to_stream(g, shuffle_seed=args.shuffle_seed)
        del g  # the graph's columns go before the stream's text is formatted
        outputs["stream.txt"] = _write(os.path.join(out, "stream.txt"), stream_text(stream))
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}", file=sys.stderr)
        return 1
    manifest = RunManifest(
        command="gen",
        params={
            "m": args.m, "b": args.b, "k": args.k, "p": args.p,
            "sigma": args.sigma, "shuffle_seed": args.shuffle_seed,
        },
        seed=args.seed,
        version=__version__,
        outputs=outputs,
    )
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        fh.write(manifest.dump())
    print(json.dumps({"written": sorted([*outputs, "manifest.json"]), "out": out}))
    return 0


def _verify_permgraph(doc: dict, g: LayeredGraph) -> tuple[list[str], BipartiteInstance | None, int | None]:
    """Check a permgraph document, read without its graph, against the graph:
    the problems found, then the matching instance and the size that
    max_matching must certify on it, or None, None when the dichotomy says
    nothing. The instance holds no reference to the graph."""
    m, b, k, p = (json_int(doc[key], key) for key in ("m", "b", "k", "p"))
    sigma = tuple(json_int(x, "sigma") for x in doc["sigma"])
    if len(sigma) != m:
        return [f"sigma acts on [{len(sigma)}] but m={m}"], None, None
    try:
        g.validate()
    except (TypeError, ValueError) as err:
        return [f"invalid graph: {err}"], None, None
    expected = header_layout(doc, len(g.edges))
    problems = [] if expected is None else expected.problems(g)
    try:
        got = extract_permutation(g, m, validated=True)
        if got != sigma:
            problems.append(f"extracted {got}, expected {sigma}")
    except (ExtractionError, ValueError) as err:
        return problems + [f"extraction failed: {err}"], None, None
    if expected is None:  # too few edges for the params, or params over the vertex cap, where layout raises
        problems = layout(default_params(m, b, k=k, p=p)).problems(g) + problems
    want_size = dichotomy_size(sigma, g.vertex_count)
    if want_size is None:
        return problems, None, None
    return problems, bipartite_of(g, m), want_size


def _verify_matching(inst: BipartiteInstance, want_size: int) -> list[str]:
    res = max_matching(inst)
    problems = [] if res.certified else ["matching certificate failed"]
    if res.size != want_size:
        problems.append(f"max matching {res.size}, expected {want_size}")
    return problems


def _verify_manifest(manifest: RunManifest, folder: str) -> list[str]:
    """Hash again each output the manifest lists, in its folder."""
    if not isinstance(manifest.outputs, dict):
        return ["manifest outputs must map file names to sha256 digests"]
    problems = []
    for name, want in sorted(manifest.outputs.items()):
        if name in ("", ".", "..") or os.path.basename(name) != name:
            problems.append(f"output {name!r} is not a file name")
            continue
        digest = hashlib.sha256()
        try:
            with open(os.path.join(folder, name), "rb") as fh:
                while block := fh.read(1 << 20):
                    digest.update(block)
        except FileNotFoundError:
            problems.append(f"{name}: missing")
            continue
        if digest.hexdigest() != want:
            problems.append(f"{name}: sha256 {digest.hexdigest()}, manifest says {want}")
    return problems


def _verify_file(path: str) -> list[str]:
    with open(path, "rb") as fh:
        data = fh.read()
    stripped = data.lstrip()
    if stripped.startswith(b"{"):
        if data.rfind(b'"permgraph"') >= 0:  # sorted keys put "kind" after the graph
            g, doc = LayeredGraph.from_json(data)
            del data, stripped  # free the file's bytes before the matching runs
            if doc.get("kind") != "permgraph":
                return [f"unrecognized JSON document in {path}"]
            problems, inst, want_size = _verify_permgraph(doc, g)
            del g  # and the graph: no reference to it is left while the oracle runs
            return problems + ([] if inst is None else _verify_matching(inst, want_size))
        doc = json.loads(data)
        if doc.keys() == {field.name for field in fields(RunManifest)}:
            return _verify_manifest(RunManifest(**doc), os.path.dirname(path))
        schema = doc.get("schema")
        if isinstance(schema, str) and schema.startswith("multi-hph"):
            inst = parse_instance(data.decode())
            answer = referee_answer(inst)
            if answer != inst.answer:
                return [f"referee answered {answer}, instance says {inst.answer}"]
            return []
        return [f"unrecognized JSON document in {path}"]
    if stripped.startswith(b"PHSTREAM"):
        parse_stream(data)
        return []
    # otherwise treat as an RS family file
    try:
        g = parse_rs(data.decode())
    except ValueError as err:
        return [str(err)]
    report = validate_rs(g)
    return [report] if report else []


def cmd_verify(args) -> int:
    results = {}
    clean = 0
    for path in args.files:
        try:
            problems = _verify_file(path)
        except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as err:
            problems = [f"unreadable: {err}"]   # RecursionError: JSON nested past the interpreter's limit
        except MemoryError as err:
            problems = [f"out of memory: {str(err) or 'allocation failed'}"]
        results[path] = problems
        if not problems:
            clean += 1
    report = {
        "files": len(args.files),
        "clean": clean,
        "violations": {p: probs for p, probs in results.items() if probs},
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0 if clean == len(args.files) else 1


def _kv_args(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _check_trials(trials: int, least: int) -> None:
    if trials < least:
        raise ValueError(f"trials must be at least {least}, got {trials}")


def _analyze_decay(seed, b, g, trials):
    _check_trials(trials, 0)
    rng = rng_for(seed, "analyze/decay")
    rows = []
    for eps in (0.25, 1 / 9, 1 / 16):
        rep = dists.concat_decay_check([dists.parity_biased(b, eps)] * g)
        rows.append({
            "family": "parity", "b": b, "g": g, "eps": eps,
            "lhs": rep.lhs, "bound": rep.bound,
            "tight": abs(rep.lhs - rep.bound) <= 1e-12, "holds": rep.holds,
        })
    for i in range(trials):
        rep = dists.concat_decay_check([dists.random_dist(b, rng) for _ in range(g)])
        rows.append({
            "family": f"random:{i}", "b": b, "g": g, "eps": "",
            "lhs": rep.lhs, "bound": rep.bound, "tight": False, "holds": rep.holds,
        })
    return rows


def _analyze_fourier(seed, b, trials):
    _check_trials(trials, 1)
    rng = rng_for(seed, "analyze/fourier")
    irr = dists.build_irreps(b)
    dims = [ir.dim for ir in irr.irreps]
    rows = [{
        "check": "dimension_sum", "b": b,
        "value": sum(d * d for d in dims),
        "holds": sum(d * d for d in dims) == math.factorial(b),
    }]
    ok_round = ok_conv = ok_plan = 0
    for _ in range(trials):
        f = dists.random_dist(b, rng)
        g2 = dists.random_dist(b, rng)
        back = dists.inverse_fourier(dists.fourier(f, irr), irr)
        ok_round += int(np.allclose(back.probs, f.probs, atol=1e-9))
        ok_conv += int(dists.convolution_theorem_check(f, g2, irr))
        ok_plan += int(dists.plancherel_check(f, g2, irr))
    for name, ok in (("roundtrip", ok_round), ("convolution", ok_conv), ("plancherel", ok_plan)):
        rows.append({"check": name, "b": b, "value": ok, "holds": ok == trials})
    return rows


def _analyze_pinsker(seed, b, trials):
    _check_trials(trials, 1)
    rng = rng_for(seed, "analyze/pinsker")
    rows = []
    holds = 0
    worst = None
    for _ in range(trials):
        mu = dists.random_dist(b, rng)
        nu = dists.random_dist(b, rng)
        rep = dists.strengthened_pinsker_check(mu, nu)
        holds += int(rep.holds)
        slack = rep.lhs - rep.rhs
        if worst is None or slack < worst:
            worst = slack
    rows.append({"check": "strengthened_pinsker", "b": b, "trials": trials,
                 "holds": holds == trials, "min_slack": worst})
    return rows


def _analyze_advantage(seed, m, b, k, p, trials):
    params = default_params(m, b, k=k, p=p)
    rng = rng_for(seed, "analyze/advantage")

    def sampler(sigma):
        def sample(r):
            g = gen_general(sigma, params, r)
            return instance_to_stream(bipartite_of(g, m))

        return sample

    perfect = dichotomy_size(sigma_eq(m), vertex_count(params, general=True))
    rep = advantage_estimate(
        sampler(sigma_eq(m)),
        sampler(sigma_cross(m)),
        FullMemory,
        lambda size: 0 if size == perfect else 1,
        trials,
        p,
        rng,
    )
    return [{"check": "full_memory_advantage", "m": m, "b": b, "k": k, "p": p,
             "trials": trials, "accuracy": rep.accuracy,
             "ci_low": rep.ci_low, "ci_high": rep.ci_high}]


def _analyze_depth(seed, m, b):
    net = build_sort_network(m, b)
    return [{"m": m, "b": b, "depth": net.depth, "bound": depth_bound(m, b),
             "holds": net.depth <= depth_bound(m, b)}]


# each analysis with the settings it takes and their defaults
ANALYZES = {
    "decay": (_analyze_decay, {"b": 3, "g": 3, "trials": 100}),
    "fourier": (_analyze_fourier, {"b": 4, "trials": 20}),
    "pinsker": (_analyze_pinsker, {"b": 3, "trials": 200}),
    "advantage": (_analyze_advantage, {"m": 4, "b": 2, "k": 2, "p": 1, "trials": 30}),
    "depth": (_analyze_depth, {"m": 64, "b": 4}),
}


def cmd_analyze(args) -> int:
    analysis, defaults = ANALYZES[args.kind]
    settings = dict(defaults)
    try:
        for key, val in _kv_args(args.params).items():
            if key not in defaults:
                raise ValueError(f"analyze {args.kind} takes no setting {key!r}, "
                                 f"only {', '.join(defaults)}")
            settings[key] = int(val)
        rows = analysis(args.seed, **settings)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "csv":
        buf = io.StringIO()
        keys = sorted({k for row in rows for k in row})
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"analyze_{args.kind}.{args.format}")
        with open(path, "w") as fh:
            fh.write(text)
        print(json.dumps({"written": path}))
    else:
        sys.stdout.write(text)
    failed = any(row.get("holds") is False for row in rows)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permlab",
        description="generate, verify, and analyze permutation-hiding graph instances",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a hiding graph and write artifacts")
    g.add_argument("sigma", help="id | cross | random | random:<seed> | comma list")
    g.add_argument("--m", type=int, default=8)
    g.add_argument("--b", type=int, default=2)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--p", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--shuffle-seed", type=int, default=None)
    g.add_argument("--out", default=None, help=f"output dir (default ${OUT_ENV} or .)")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="validate generated artifacts")
    v.add_argument("files", nargs="+")
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("analyze", help="numeric sweeps and tables")
    a.add_argument("kind", choices=sorted(ANALYZES))
    a.add_argument("params", nargs="*", help="key=value settings")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--trials", type=int, default=None)
    a.add_argument("--out", default=None)
    a.add_argument("--format", choices=("json", "csv"), default="json")
    a.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trials", None) is not None:
        args.params = [*args.params, f"trials={args.trials}"]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
