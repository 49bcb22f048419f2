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
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, dists
from .gen import default_params, gen_general, vertex_count
from .graphs import LayeredGraph, extract_permutation
from .hph import parse_instance, referee_answer
from .matching import bipartite_of, max_matching, sigma_cross, sigma_eq
from .perms import format_perm, parse_perm, random_perm
from .rs import parse_rs, validate_rs
from .seeds import rng_for
from .sortnet import build_sort_network, depth_bound
from .streams import dump_stream, graph_to_stream

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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    g = gen_general(sigma, params, rng_for(args.seed, "gen"))
    stream = graph_to_stream(g, shuffle_seed=args.shuffle_seed)
    doc = {
        "kind": "permgraph",
        "m": args.m,
        "b": args.b,
        "k": args.k,
        "p": args.p,
        "sigma": list(sigma),
        "graph": json.loads(g.to_json()),
    }
    graph_bytes = (json.dumps(doc, sort_keys=True) + "\n").encode()
    stream_bytes = dump_stream(stream).encode()
    out = _resolve_out(args)
    outputs = {}
    for name, data in (("graph.json", graph_bytes), ("stream.txt", stream_bytes)):
        with open(os.path.join(out, name), "wb") as fh:
            fh.write(data)
        outputs[name] = _digest(data)
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


def _verify_permgraph(doc: dict) -> list[str]:
    problems = []
    g = LayeredGraph.from_json(json.dumps(doc["graph"]))
    m = doc["m"]
    sigma = tuple(doc["sigma"])
    try:
        got = extract_permutation(g, m)
        if got != sigma:
            problems.append(f"extracted {got}, expected {sigma}")
    except Exception as err:
        problems.append(f"extraction failed: {err}")
        return problems
    want = vertex_count(default_params(m, doc["b"], k=doc["k"], p=doc["p"]), general=True)
    if g.vertex_count != want:
        problems.append(f"vertex count {g.vertex_count}, expected {want}")
    if sigma in (sigma_eq(m), sigma_cross(m)):
        res = max_matching(bipartite_of(g, m))
        if not res.certified:
            problems.append("matching certificate failed")
        n = g.vertex_count
        want_size = n + m // 2 if sigma == sigma_eq(m) else n
        if res.size != want_size:
            problems.append(f"max matching {res.size}, expected {want_size}")
    return problems


def _verify_file(path: str) -> list[str]:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if doc.get("kind") == "permgraph":
            return _verify_permgraph(doc)
        if doc.get("schema", "").startswith("multi-hph"):
            inst = parse_instance(text)
            answer = referee_answer(inst)
            if answer != inst.answer:
                return [f"referee answered {answer}, instance says {inst.answer}"]
            return []
        return [f"unrecognized JSON document in {path}"]
    if stripped.startswith("PHSTREAM"):
        from .streams import parse_stream

        parse_stream(text)
        return []
    # otherwise treat as an RS family file
    try:
        g = parse_rs(text)
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
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
            problems = [f"unreadable: {err}"]
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


def _analyze_decay(kv, seed):
    b = int(kv.get("b", 3))
    g = int(kv.get("g", 3))
    trials = int(kv.get("trials", 100))
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


def _analyze_fourier(kv, seed):
    b = int(kv.get("b", 4))
    trials = int(kv.get("trials", 20))
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


def _analyze_pinsker(kv, seed):
    b = int(kv.get("b", 3))
    trials = int(kv.get("trials", 200))
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


def _analyze_advantage(kv, seed):
    from .streams import FullMemory, advantage_estimate

    m = int(kv.get("m", 4))
    b = int(kv.get("b", 2))
    k = int(kv.get("k", 2))
    p = int(kv.get("p", 1))
    trials = int(kv.get("trials", 30))
    params = default_params(m, b, k=k, p=p)
    rng = rng_for(seed, "analyze/advantage")

    def sampler(sigma):
        def sample(r):
            from .matching import instance_to_stream

            g = gen_general(sigma, params, r)
            return instance_to_stream(bipartite_of(g, m))

        return sample

    n = vertex_count(params, general=True)
    rep = advantage_estimate(
        sampler(sigma_eq(m)),
        sampler(sigma_cross(m)),
        FullMemory,
        lambda size: 0 if size == n + m // 2 else 1,
        trials,
        p,
        rng,
    )
    return [{"check": "full_memory_advantage", "m": m, "b": b, "k": k, "p": p,
             "trials": trials, "accuracy": rep.accuracy,
             "ci_low": rep.ci_low, "ci_high": rep.ci_high}]


def _analyze_depth(kv, seed):
    m = int(kv.get("m", 64))
    b = int(kv.get("b", 4))
    net = build_sort_network(m, b)
    return [{"m": m, "b": b, "depth": net.depth, "bound": depth_bound(m, b),
             "holds": net.depth <= depth_bound(m, b)}]


ANALYZES = {
    "decay": _analyze_decay,
    "fourier": _analyze_fourier,
    "pinsker": _analyze_pinsker,
    "advantage": _analyze_advantage,
    "depth": _analyze_depth,
}


def cmd_analyze(args) -> int:
    try:
        rows = ANALYZES[args.kind](_kv_args(args.params), args.seed)
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
