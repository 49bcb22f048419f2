"""Acceptance suite: twelve numbered criteria, one test and one pass/fail
line each. Tolerances are pinned in the asserts; timed criteria check their
wall-clock budget."""

import itertools
import math
import random
import time

import numpy as np
import pytest

from permlab import dists
from permlab.gen import default_params, gen_general, gen_simple, vertex_count
from permlab.graphs import extract_permutation
from permlab.hph import sample_instance, referee_answer, zero_info_guess
from permlab.matching import (
    bipartite_of,
    dichotomy_size,
    instance_to_stream,
    max_matching,
    sigma_cross,
    sigma_eq,
)
from permlab.perms import (
    all_perms,
    compose,
    is_perm,
    is_simple,
    lehmer_rank,
    lex_partition,
    random_perm,
    random_simple,
)
from permlab.seeds import rng_for
from permlab.sortnet import build_sort_network, decompose, depth_bound
from permlab.streams import (
    FullMemory,
    GreedyMatching,
    advantage_estimate,
    run_passes,
)
from test_columnar import instance_of

SEED = 20260822


def ok(num, text):
    print(f"criterion {num:2d}: PASS - {text}")


@pytest.fixture(scope="module")
def simple_batch():
    out = {}
    rng = rng_for(SEED, "c1")
    start = time.monotonic()
    for label, m, b, p, count in (("p1", 16, 4, 1, 200), ("p2", 8, 2, 2, 50)):
        params = default_params(m, b, k=2, p=p)
        P = lex_partition(m, b)
        exact = counts = 0
        for _ in range(count):
            rho = random_simple(P, rng)
            g = gen_simple(rho, P, params, rng)
            exact += int(extract_permutation(g, m) == rho)
            counts += int(g.vertex_count == vertex_count(params, general=False))
        out[label] = {"exact": exact, "counts": counts, "n": count,
                      "params": params}
    out["elapsed"] = time.monotonic() - start
    return out


@pytest.fixture(scope="module")
def general_batch():
    out = {}
    rng = rng_for(SEED, "c2")
    start = time.monotonic()
    for label, m, b, p, count in (("p1", 16, 4, 1, 100), ("p2", 8, 2, 2, 20)):
        params = default_params(m, b, k=2, p=p)
        exact = counts = 0
        for _ in range(count):
            sigma = random_perm(m, rng)
            g = gen_general(sigma, params, rng)
            exact += int(extract_permutation(g, m) == sigma)
            counts += int(g.vertex_count == vertex_count(params, general=True))
        out[label] = {"exact": exact, "counts": counts, "n": count}
    out["elapsed"] = time.monotonic() - start
    return out


def test_c01_simple_soundness(simple_batch):
    for label in ("p1", "p2"):
        batch = simple_batch[label]
        assert batch["exact"] == batch["n"], f"{label}: {batch}"
    assert simple_batch["elapsed"] < 60
    ok(1, "extraction inverts gen_simple on 200 four-group and 50 two-pass samples")


def test_c02_general_soundness(general_batch):
    for label in ("p1", "p2"):
        batch = general_batch[label]
        assert batch["exact"] == batch["n"], f"{label}: {batch}"
    assert general_batch["elapsed"] < 120
    ok(2, "extraction inverts gen_general on 100 one-pass and 20 two-pass samples")


def test_c03_vertex_accounting(simple_batch, general_batch):
    for source in (simple_batch, general_batch):
        for label in ("p1", "p2"):
            batch = source[label]
            assert batch["counts"] == batch["n"], f"{label}: {batch}"
    params = simple_batch["p1"]["params"]
    n_rs = 2 * params.m // params.b
    assert vertex_count(params, general=False) == 6 * params.k * n_rs * params.b + 2 * params.m
    ok(3, "measured vertex counts equal the closed forms on every batch")


def test_c04_matching_dichotomy():
    start = time.monotonic()
    rng = rng_for(SEED, "c4")
    for m in (4, 8):
        for p in (1, 2):
            params = default_params(m, 2, k=2, p=p)
            n = vertex_count(params, general=True)
            assert dichotomy_size(sigma_eq(m), n) == n + m // 2
            assert dichotomy_size(sigma_cross(m), n) == n
            for sigma in (sigma_eq(m), sigma_cross(m)):
                for _ in range(20):
                    res = max_matching(bipartite_of(gen_general(sigma, params, rng), m))
                    assert res.certified
                    assert res.size == dichotomy_size(sigma, n)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    ok(4, "max matching splits n+m/2 vs n exactly, 20+20 samples at four scales")


def test_c05_sorting_network():
    start = time.monotonic()
    # (a) exhaustive 0-1 correctness at m=12, both group sizes
    for b in (2, 4):
        net = build_sort_network(12, b)
        for mask in range(1 << 12):
            vals = [(mask >> i) & 1 for i in range(12)]
            assert net.apply(vals) == sorted(vals)
    # (b) decompose-recompose on 1000 random permutations of [64]
    rng = rng_for(SEED, "c5")
    for _ in range(1000):
        sigma = random_perm(64, rng)
        dec = decompose(sigma, 4)
        assert dec.recompose() == sigma
        for P, gamma in zip(dec.partitions, dec.gammas):
            assert is_simple(gamma, P)
    # (c) measured depth within the quadratic bound everywhere tested
    for m, b in ((12, 2), (12, 4), (64, 4), (16, 4), (8, 2), (9, 3), (16, 2), (27, 3)):
        assert build_sort_network(m, b).depth <= depth_bound(m, b)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    ok(5, "0-1 exhaustive, 1000 exact decompositions, depth bound everywhere")


def test_c06_parity_tightness():
    eps_menu = (0.25, 1 / 9, 1 / 16)
    for b in (2, 3, 4):
        fact = math.factorial(b)
        u = dists.uniform(b)
        for g in (1, 2, 3, 4):
            for eps_tuple in itertools.product(eps_menu, repeat=g):
                acc = dists.parity_biased(b, eps_tuple[0])
                for eps in eps_tuple[1:]:
                    acc = dists.convolve(acc, dists.parity_biased(b, eps))
                lhs = fact * dists.l2_sq(acc, u)
                assert abs(lhs - math.prod(eps_tuple)) <= 1e-12
    ok(6, "parity-family convolutions meet the product bound with equality")


def test_c07_decay_inequality():
    rng = rng_for(SEED, "c7")
    for _ in range(1000):
        rep = dists.concat_decay_check([dists.random_dist(3, rng) for _ in range(3)])
        assert rep.lhs <= rep.bound + 1e-12
    ok(7, "concatenation decay holds on 1000 random triples")


def test_c08_fourier_suite():
    start = time.monotonic()
    rng = rng_for(SEED, "c8")
    for b in (2, 3, 4, 5):
        irr = dists.build_irreps(b)
        fact = math.factorial(b)
        assert sum(ir.dim**2 for ir in irr.irreps) == fact
        perms = all_perms(b)
        for _ in range(100):
            s1 = perms[rng.randrange(fact)]
            s2 = perms[rng.randrange(fact)]
            for ir in irr.irreps:
                m1 = ir.mats[lehmer_rank(s1)]
                m2 = ir.mats[lehmer_rank(s2)]
                assert np.allclose(
                    ir.mats[lehmer_rank(compose(s1, s2))], m1 @ m2, atol=1e-9
                )
        for _ in range(100):
            f = dists.random_dist(b, rng)
            g = dists.random_dist(b, rng)
            back = dists.inverse_fourier(dists.fourier(f, irr), irr)
            assert np.allclose(back.probs, f.probs, atol=1e-9)
            assert dists.convolution_theorem_check(f, g, irr)
            assert dists.plancherel_check(f, g, irr)
    elapsed = time.monotonic() - start
    assert elapsed < 120
    ok(8, "dimension sums exact; transform identities within 1e-9 up to b=5")


def test_c09_pinsker():
    rng = rng_for(SEED, "c9")
    for _ in range(1000):
        mu = dists.random_dist(3, rng)
        nu = dists.random_dist(3, rng)
        rep = dists.strengthened_pinsker_check(mu, nu)
        assert rep.lhs >= rep.rhs - 1e-12
        assert dists.kl(mu, nu) >= 2 * dists.tvd(mu, nu) ** 2 - 1e-12
    ok(9, "plain and strengthened lower bounds hold on 1000 pairs")


def test_c10_hph_roundtrip():
    targets = (((1, 2), (1, 2)), ((2, 1), (2, 1)))
    rng = rng_for(SEED, "c10")
    for _ in range(10**4):
        inst = sample_instance(4, 2, 2, 2, targets, rng)
        assert referee_answer(inst) == inst.answer
    # exhaustive tiny family
    tiny_targets = (((1, 2),), ((2, 1),))
    perms2 = all_perms(2)
    from permlab.hph import MultiHPHInstance, force_gamma, recompute_gamma_star

    for s1, s2 in itertools.product(perms2, repeat=2):
        sigmas = (((s1, s2),),)
        for cell in (1, 2):
            for answer in ("yes", "no"):
                gstar = recompute_gamma_star(sigmas, (1,), ((cell,),))
                target = tiny_targets[0] if answer == "yes" else tiny_targets[1]
                inst = MultiHPHInstance(
                    2, 1, 2, 1, sigmas, (1,), ((cell,),),
                    force_gamma(gstar, target), tiny_targets, answer,
                )
                assert referee_answer(inst) == answer
    # zero-information referee is a coin flip
    hits = 0
    trials = 10**4
    for _ in range(trials):
        inst = sample_instance(4, 2, 2, 2, targets, rng)
        if zero_info_guess(inst, rng) == inst.answer:
            hits += 1
    acc = hits / trials
    assert abs(acc - 0.5) <= 3 * 0.5 / math.sqrt(trials), acc
    ok(10, "referee exact on 10^4 + exhaustive family; blind referee at chance")


def test_c11_harness_sanity():
    m, b = 4, 2
    params = default_params(m, b, k=2, p=1)
    n = vertex_count(params, general=True)
    rng = rng_for(SEED, "c11")

    def sampler(sigma):
        def sample(r):
            return instance_to_stream(bipartite_of(gen_general(sigma, params, r), m))

        return sample

    rep = advantage_estimate(
        sampler(sigma_eq(m)), sampler(sigma_cross(m)), FullMemory,
        lambda size: 0 if size == n + m // 2 else 1, 60, 1, rng,
    )
    assert rep.accuracy == 1.0
    null = advantage_estimate(
        sampler(sigma_eq(m)), sampler(sigma_eq(m)), FullMemory,
        lambda size: 0 if size == n + m // 2 else 1, 60, 1, rng,
    )
    assert abs(null.accuracy - 0.5) <= 3 * 0.5 / math.sqrt(60)
    # greedy is 2-approximate against the exact oracle
    for _ in range(100):
        side = rng.randrange(2, 8)
        adj = [
            sorted(rng.sample(range(side), rng.randrange(0, side + 1)))
            for _ in range(side)
        ]
        inst = instance_of(adj)
        opt = max_matching(inst).size
        got = len(run_passes(GreedyMatching(), instance_to_stream(inst), 1).output)
        assert 2 * got >= opt
    ok(11, "full-memory separates the pair at 1.0, null at chance, greedy 2-approx")


def test_c12_determinism(tmp_path):
    from permlab.cli import main

    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main([
            "gen", "random", "--m", "8", "--b", "2", "--k", "2", "--p", "2",
            "--seed", "424242", "--out", str(out),
        ]) == 0
        outs.append(out)
    for name in ("graph.json", "stream.txt", "manifest.json"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    sigma = random_perm(8, rng_for(77, "x"))
    g1 = gen_general(sigma, default_params(8, 2, k=2, p=2), rng_for(77, "g"))
    g2 = gen_general(sigma, default_params(8, 2, k=2, p=2), rng_for(77, "g"))
    assert g1.edges.tolist() == g2.edges.tolist() and g1.tags == g2.tags
    ok(12, "same seed twice gives byte-identical artifacts and equal graphs")
