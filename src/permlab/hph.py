"""The hidden-permutation communication game: sampling and the referee oracle.

k players each hold a t x r matrix of permutations on [b]. The referee holds a
row index per player, a hypermatching M (k rows of r/2 distinct column
indices), and a shift vector Gamma. Hyperedge a determines the hidden
composition gamma_star_a; the instance is built so that gamma_star_a o Gamma_a
hits the target tuple selected by the stored yes/no answer.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .blocks import Hypermatching, PermMatrix, check_hypermatching, check_perm_matrix
from .codec import json_int
from .perms import (
    PermVector,
    all_perms,
    compose,
    inverse,
    lehmer_rank,
    lehmer_unrank,
)
from .seeds import randbelow_many

Targets = tuple[PermVector, PermVector]  # (yes tuple, no tuple), each length r/2

ENUMERATION_CAP = 10**6  # cell assignments zero_info_guess may enumerate


@dataclass(frozen=True)
class MultiHPHInstance:
    r: int
    t: int
    b: int
    k: int
    sigmas: tuple[PermMatrix, ...]   # one matrix per player
    L: tuple[int, ...]               # row index per player, in [t]
    M: Hypermatching
    gamma: PermVector                # referee shift, length r/2
    targets: Targets
    answer: str                      # "yes" or "no"
    seed: int | None = None


def sample_core(
    r: int, t: int, b: int, k: int, rng: random.Random
) -> tuple[tuple[PermMatrix, ...], tuple[int, ...], Hypermatching]:
    """Player matrices, row indices, and hypermatching, all uniform.

    Draw order is fixed (matrices, then rows, then matching) so that seeded
    samples line up across callers.
    """
    if r % 2:
        raise ValueError("r must be even")
    sig, L, M = cores_from_draws(randbelow_many(core_bounds(r, t, b, k), rng)[None], r, t, b, k)
    sigmas = tuple(tuple(tuple(map(tuple, row)) for row in mat) for mat in sig[0].tolist())
    return sigmas, tuple(L[0].tolist()), tuple(map(tuple, M[0].tolist()))


def core_bounds(r: int, t: int, b: int, k: int) -> np.ndarray:
    """The bounds of sample_core's draws, in its order: each entry of the k
    matrices is random.shuffle of [b], which draws below b, b-1, ..., 2;
    each row index is randrange(1, t + 1), one draw below t; each
    hypermatching row is random.sample(range(1, r + 1), r // 2), which
    draws below r, r-1, ..., r/2 + 1 (its pool method, the one it takes
    whenever it picks half of at most setsize items, so for every even r)."""
    return np.concatenate((np.tile(np.arange(b, 1, -1), k * t * r), np.full(k, t),
                           np.tile(np.arange(r, r // 2, -1), k)))


def cores_from_draws(draws: np.ndarray, r: int, t: int, b: int, k: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sample_core's results for each row of draws (core_bounds' draws):
    matrices (n, k, t, r, b), row indices (n, k) and hypermatching rows
    (n, k, r/2), built by the shuffle's b - 1 swap steps and the pool
    method's r/2 steps over all of them at once."""
    n, e = len(draws), k * t * r
    steps = draws[:, :e * (b - 1)].reshape(n * e, b - 1)
    perms = np.tile(np.arange(1, b + 1), (n * e, 1))
    rows = np.arange(n * e)
    for s, i in enumerate(range(b - 1, 0, -1)):   # step i swaps entry i with a drawn j <= i
        j = steps[:, s]
        held = perms[:, i].copy()
        perms[:, i] = perms[rows, j]
        perms[rows, j] = held
    L = draws[:, e * (b - 1):e * (b - 1) + k] + 1
    picks = draws[:, e * (b - 1) + k:].reshape(n * k, r // 2)
    pool = np.tile(np.arange(1, r + 1), (n * k, 1))
    M = np.empty_like(picks)
    rows = np.arange(n * k)
    for i in range(r // 2):   # take the drawn entry, move the pool's last live one there
        j = picks[:, i]
        M[:, i] = pool[rows, j]
        pool[rows, j] = pool[:, r - i - 1]
    return perms.reshape(n, k, t, r, b), L, M.reshape(n, k, r // 2)


def recompute_gamma_star(
    sigmas: tuple[PermMatrix, ...], L: tuple[int, ...], M: Hypermatching
) -> PermVector:
    """gamma_star_a = sigma^(1)[L1][M[1][a]] o ... o sigma^(k)[Lk][M[k][a]]."""
    k = len(sigmas)
    half = len(M[0])
    out = []
    for a in range(half):
        g = sigmas[0][L[0] - 1][M[0][a] - 1]
        for i in range(1, k):
            g = compose(g, sigmas[i][L[i] - 1][M[i][a] - 1])
        out.append(g)
    return tuple(out)


def force_gamma(gamma_star: PermVector, target: PermVector) -> PermVector:
    """The unique shift with gamma_star_a o Gamma_a = target_a for every a."""
    return tuple(compose(inverse(g), t) for g, t in zip(gamma_star, target))


def sample_instance(
    r: int,
    t: int,
    b: int,
    k: int,
    targets: Targets,
    rng: random.Random,
    seed: int | None = None,
) -> MultiHPHInstance:
    if len(targets[0]) != r // 2 or len(targets[1]) != r // 2:
        raise ValueError("targets must hold r/2 permutations each")
    sigmas, L, M = sample_core(r, t, b, k, rng)
    answer = "yes" if rng.randrange(2) == 0 else "no"
    gstar = recompute_gamma_star(sigmas, L, M)
    gamma = force_gamma(gstar, targets[0] if answer == "yes" else targets[1])
    return MultiHPHInstance(r, t, b, k, sigmas, L, M, gamma, targets, answer, seed)


def referee_answer(inst: MultiHPHInstance) -> str:
    """Recompute the hidden composition with full information and compare."""
    gstar = recompute_gamma_star(inst.sigmas, inst.L, inst.M)
    shifted = tuple(compose(g, c) for g, c in zip(gstar, inst.gamma))
    hit_yes = shifted == tuple(inst.targets[0])
    hit_no = shifted == tuple(inst.targets[1])
    if hit_yes and hit_no:
        return "ambiguous"
    if hit_yes:
        return "yes"
    if hit_no:
        return "no"
    raise ValueError("shifted composition matches neither target (corrupt instance)")


def zero_info_guess(inst: MultiHPHInstance, rng: random.Random) -> str:
    """Best guess from (L, M, Gamma, targets) alone, Sigma unseen.

    Enumerates the relevant matrix cells per hyperedge (they are independent
    and uniform) to count assignments consistent with each answer, then picks
    the larger posterior, flipping a coin on ties.
    """
    b, k = inst.b, inst.k
    half = len(inst.gamma)
    perms = all_perms(b)
    if len(perms) ** k * half > ENUMERATION_CAP:
        raise ValueError("enumeration over the relevant cells exceeds the cap")
    log_yes = 0.0
    log_no = 0.0
    for a in range(half):
        need_yes = compose(inst.targets[0][a], inverse(inst.gamma[a]))
        need_no = compose(inst.targets[1][a], inverse(inst.gamma[a]))
        c_yes = c_no = 0
        for combo in product(perms, repeat=k):
            g = combo[0]
            for x in combo[1:]:
                g = compose(g, x)
            if g == need_yes:
                c_yes += 1
            if g == need_no:
                c_no += 1
        if c_yes == 0 or c_no == 0:
            return "yes" if c_yes else "no"
        log_yes += math.log(c_yes)
        log_no += math.log(c_no)
    if abs(log_yes - log_no) < 1e-12:
        return "yes" if rng.randrange(2) == 0 else "no"
    return "yes" if log_yes > log_no else "no"


# ---------------------------------------------------------------------------
# serialization: permutations stored as Lehmer ranks

SCHEMA = "multi-hph-1"


def dump_instance(inst: MultiHPHInstance) -> str:
    def rank_vec(v):
        return [lehmer_rank(p) for p in v]

    payload = {
        "schema": SCHEMA,
        "r": inst.r,
        "t": inst.t,
        "b": inst.b,
        "k": inst.k,
        "sigmas": [[rank_vec(row) for row in mat] for mat in inst.sigmas],
        "L": list(inst.L),
        "M": [list(row) for row in inst.M],
        "gamma": rank_vec(inst.gamma),
        "targets": {"yes": rank_vec(inst.targets[0]), "no": rank_vec(inst.targets[1])},
        "answer": inst.answer,
        "seed": inst.seed,
    }
    return json.dumps(payload)


def parse_instance(text: str) -> MultiHPHInstance:
    """Read dump_instance's text. Raises ValueError for a size, row index,
    column index, rank or seed that is not a JSON integer, a rank outside
    [0, b!), a matrix or hypermatching of the wrong shape, a row index outside
    [1, t], or a shift or target vector that does not hold r/2 permutations."""
    d = json.loads(text)
    if d.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {d.get('schema')!r}")
    r, t, b, k = (json_int(d[key], key) for key in ("r", "t", "b", "k"))
    seed = None if d.get("seed") is None else json_int(d["seed"], "seed")

    def unrank_vec(v):
        return tuple(lehmer_unrank(json_int(x, "rank"), b) for x in v)

    sigmas = tuple(
        tuple(unrank_vec(row) for row in mat) for mat in d["sigmas"]
    )
    if len(sigmas) != k:
        raise ValueError(f"sigmas must hold {k} matrices, one per player")
    for mat in sigmas:
        check_perm_matrix(mat, t, r, b)
    L = tuple(json_int(x, "L") for x in d["L"])
    if len(L) != k or any(not 1 <= x <= t for x in L):
        raise ValueError(f"L must hold {k} row indices in [1, {t}]")
    M = tuple(tuple(json_int(x, "M") for x in row) for row in d["M"])
    check_hypermatching(M, k, r)
    gamma = unrank_vec(d["gamma"])
    targets = (unrank_vec(d["targets"]["yes"]), unrank_vec(d["targets"]["no"]))
    if any(len(v) != r // 2 for v in (gamma, *targets)):
        raise ValueError(f"gamma and the targets must hold r/2 = {r // 2} permutations each")
    return MultiHPHInstance(r, t, b, k, sigmas, L, M, gamma, targets, d["answer"], seed)
