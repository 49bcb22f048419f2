"""The communication core drawn by one random call per draw, as the sampler
drew it before it decoded its draws in bulk: the reference that the bulk
decoder and gen's array fill are checked against."""

import random

from permlab.perms import random_perm


def random_perm_matrix(t, r, b, rng: random.Random):
    return tuple(tuple(random_perm(b, rng) for _ in range(r)) for _ in range(t))


def ref_sample_core(r, t, b, k, rng: random.Random):
    """Player matrices (one random.shuffle per entry), row indices
    (randrange), hypermatching rows (random.sample), in that order."""
    sigmas = tuple(random_perm_matrix(t, r, b, rng) for _ in range(k))
    L = tuple(rng.randrange(1, t + 1) for _ in range(k))
    M = tuple(tuple(rng.sample(range(1, r + 1), r // 2)) for _ in range(k))
    return sigmas, L, M
