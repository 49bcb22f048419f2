"""Distributions over S_b: distances, convolution, decay, and Fourier analysis.

Distributions are dense length-b! vectors indexed by Lehmer rank. KL is in
nats. Convolution follows the package's composition convention: convolving
nu1 with nu2 is the law of compose(s1, s2) with s1 ~ nu1 and s2 ~ nu2.

Irreducible representations are real orthogonal, one per partition of b,
with basis vectors indexed by standard Young tableaux; adjacent
transpositions act through signed axial distances and everything else is
reached by multiplying those out. All identities used (homomorphism,
transform roundtrip, convolution theorem, Plancherel) are verified
numerically in the tests, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .perms import Perm, all_perms, compose, lehmer_rank

NON_FOURIER_CAP = 8
FOURIER_CAP = 6
CONVOLVE_CAP = 6  # the rank table is quadratic in b!, so this is tighter
ATOL_EXACT = 1e-12
ATOL_ORTHO = 1e-9


@dataclass(frozen=True)
class DistSb:
    b: int
    probs: np.ndarray

    def __post_init__(self):
        fact = math.factorial(self.b)
        if self.b > NON_FOURIER_CAP:
            raise ValueError(f"b={self.b} above the dense cap {NON_FOURIER_CAP}")
        if self.probs.shape != (fact,):
            raise ValueError(f"need a length-{fact} vector")
        if self.probs.min() < -ATOL_EXACT:
            raise ValueError("negative probability")
        if abs(float(self.probs.sum()) - 1.0) > 1e-10:
            raise ValueError("probabilities must sum to 1")

    def prob(self, sigma: Perm) -> float:
        return float(self.probs[lehmer_rank(sigma)])


def uniform(b: int) -> DistSb:
    fact = math.factorial(b)
    return DistSb(b, np.full(fact, 1.0 / fact))


def point_mass(sigma: Perm) -> DistSb:
    b = len(sigma)
    v = np.zeros(math.factorial(b))
    v[lehmer_rank(sigma)] = 1.0
    return DistSb(b, v)


def from_probs(b: int, probs) -> DistSb:
    return DistSb(b, np.asarray(probs, dtype=float))


def random_dist(b: int, rng) -> DistSb:
    fact = math.factorial(b)
    v = np.array([rng.random() for _ in range(fact)]) + 1e-9
    return DistSb(b, v / v.sum())


# ---------------------------------------------------------------------------
# distances

def _check_pair(mu: DistSb, nu: DistSb) -> None:
    if mu.b != nu.b:
        raise ValueError(f"mismatched b: {mu.b} vs {nu.b}")


def tvd(mu: DistSb, nu: DistSb) -> float:
    _check_pair(mu, nu)
    return 0.5 * float(np.abs(mu.probs - nu.probs).sum())


def kl(mu: DistSb, nu: DistSb) -> float:
    """KL divergence in nats; +inf when mu puts mass outside nu's support."""
    _check_pair(mu, nu)
    p, q = mu.probs, nu.probs
    if np.any((p > 0) & (q <= 0)):
        return math.inf
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def l2_sq(mu: DistSb, nu: DistSb) -> float:
    _check_pair(mu, nu)
    return float(np.sum((mu.probs - nu.probs) ** 2))


@dataclass(frozen=True)
class PinskerReport:
    a_set: tuple[int, ...]   # Lehmer ranks with mu > 2 nu
    b_set: tuple[int, ...]
    lhs: float               # KL in nats
    rhs: float
    holds: bool


def strengthened_pinsker_check(mu: DistSb, nu: DistSb) -> PinskerReport:
    """kl >= (1 - ln 2) * (sum_A |mu - nu| + sum_B (mu - nu)^2 / nu) with
    A the atoms where mu > 2 nu."""
    _check_pair(mu, nu)
    p, q = mu.probs, nu.probs
    lhs = kl(mu, nu)
    in_a = p > 2 * q
    a_set = tuple(int(i) for i in np.nonzero(in_a)[0])
    b_set = tuple(int(i) for i in np.nonzero(~in_a)[0])
    term_a = float(np.abs(p[in_a] - q[in_a]).sum())
    qb = q[~in_a]
    pb = p[~in_a]
    safe = qb > 0
    term_b = float(np.sum((pb[safe] - qb[safe]) ** 2 / qb[safe]))
    rhs = (1 - math.log(2)) * (term_a + term_b)
    holds = lhs >= rhs - ATOL_EXACT
    return PinskerReport(a_set, b_set, lhs, rhs, holds)


# ---------------------------------------------------------------------------
# convolution and decay

@lru_cache(maxsize=8)
def _compose_ranks(b: int) -> np.ndarray:
    if b > CONVOLVE_CAP:
        raise ValueError(f"convolution table capped at b={CONVOLVE_CAP}")
    perms = all_perms(b)
    fact = len(perms)
    table = np.empty((fact, fact), dtype=np.int32)
    for i, pi in enumerate(perms):
        for j, pj in enumerate(perms):
            table[i, j] = lehmer_rank(compose(pi, pj))
    return table


def convolve(nu1: DistSb, nu2: DistSb) -> DistSb:
    _check_pair(nu1, nu2)
    table = _compose_ranks(nu1.b)
    out = np.zeros_like(nu1.probs)
    np.add.at(out, table, np.outer(nu1.probs, nu2.probs))
    return DistSb(nu1.b, out)


def parity_biased(b: int, eps: float) -> DistSb:
    """(1 + sqrt(eps))/b! on even permutations, (1 - sqrt(eps))/b! on odd.
    Raises ValueError for b < 2, where S_b has no odd permutation to take
    the excess, and for eps outside [0, 1]."""
    if b < 2:
        raise ValueError(f"parity_biased needs b >= 2, got b={b}")
    if not 0 <= eps <= 1:
        raise ValueError(f"parity_biased needs eps in [0, 1], got eps={eps}")
    fact = math.factorial(b)
    root = math.sqrt(eps)
    v = np.empty(fact)
    for i, p in enumerate(all_perms(b)):
        inv = sum(1 for x in range(b) for y in range(x + 1, b) if p[x] > p[y])
        v[i] = (1 + root if inv % 2 == 0 else 1 - root) / fact
    return DistSb(b, v)


@dataclass(frozen=True)
class DecayReport:
    eps: tuple[float, ...]   # b! * squared l2 distance from uniform, per factor
    lhs: float               # the same quantity for the full convolution
    bound: float             # product of the eps
    holds: bool


def concat_decay_check(nus) -> DecayReport:
    nus = list(nus)
    if not nus:
        raise ValueError("need at least one distribution")
    b = nus[0].b
    u = uniform(b)
    fact = math.factorial(b)
    eps = tuple(fact * l2_sq(nu, u) for nu in nus)
    acc = nus[0]
    for nu in nus[1:]:
        acc = convolve(acc, nu)
    lhs = fact * l2_sq(acc, u)
    bound = math.prod(eps)
    return DecayReport(eps, lhs, bound, holds=lhs <= bound + ATOL_EXACT)


# ---------------------------------------------------------------------------
# irreducible representations (real orthogonal, Young tableaux basis)

@dataclass(frozen=True)
class Irrep:
    shape: tuple[int, ...]
    dim: int
    mats: np.ndarray   # (b!, dim, dim), indexed by Lehmer rank


@dataclass(frozen=True)
class IrrepSet:
    b: int
    irreps: tuple[Irrep, ...]


def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _tableaux(shape: tuple[int, ...]) -> list[dict[int, tuple[int, int]]]:
    """Standard fillings as value -> (row, col), generated in a fixed order."""
    cells = [(r, c) for r, rl in enumerate(shape) for c in range(rl)]
    n = len(cells)
    out: list[dict[int, tuple[int, int]]] = []
    filling: dict[tuple[int, int], int] = {}

    def place(v: int) -> None:
        if v > n:
            out.append({val: cell for cell, val in filling.items()})
            return
        for cell in cells:
            if cell in filling:
                continue
            r, c = cell
            if r > 0 and (r - 1, c) not in filling:
                continue
            if c > 0 and (r, c - 1) not in filling:
                continue
            filling[cell] = v
            place(v + 1)
            del filling[cell]

    place(1)
    return out


def _adjacent_matrices(shape: tuple[int, ...], b: int) -> tuple[int, list[np.ndarray]]:
    tabs = _tableaux(shape)
    d = len(tabs)
    index = {tuple(sorted(t.items())): i for i, t in enumerate(tabs)}
    gens = []
    for k in range(1, b):
        mat = np.zeros((d, d))
        for a, t in enumerate(tabs):
            r1, c1 = t[k]
            r2, c2 = t[k + 1]
            dist = (c2 - r2) - (c1 - r1)  # signed axial distance
            mat[a, a] += 1.0 / dist
            swapped = dict(t)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            key = tuple(sorted(swapped.items()))
            if key in index:
                mat[a, index[key]] += math.sqrt(1 - 1.0 / dist**2)
        gens.append(mat)
    return d, gens


def build_irreps(b: int) -> IrrepSet:
    if b > FOURIER_CAP:
        raise ValueError(f"b={b} above the Fourier cap {FOURIER_CAP}")
    perms = all_perms(b)
    rank_of = {p: i for i, p in enumerate(perms)}
    # BFS over S_b by right-multiplication with adjacent transpositions
    order: list[Perm] = [perms[0]]
    parent: dict[Perm, tuple[Perm, int]] = {}
    seen = {perms[0]}
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for k in range(1, b):
            nxt = list(cur)
            nxt[k - 1], nxt[k] = nxt[k], nxt[k - 1]
            nxt = tuple(nxt)
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (cur, k)
                order.append(nxt)
    irreps = []
    for shape in _partitions(b):
        d, gens = _adjacent_matrices(shape, b)
        mats = np.zeros((len(perms), d, d))
        mats[rank_of[perms[0]]] = np.eye(d)
        for p in order[1:]:
            prev, k = parent[p]
            mats[rank_of[p]] = mats[rank_of[prev]] @ gens[k - 1]
        irreps.append(Irrep(shape, d, mats))
    return IrrepSet(b, tuple(irreps))


def fourier(f: DistSb, irreps: IrrepSet):
    """Coefficient matrix per irrep: fhat(rho) = sum_sigma f(sigma) rho(sigma)."""
    if f.b != irreps.b:
        raise ValueError("b mismatch")
    return {ir.shape: np.tensordot(f.probs, ir.mats, axes=1) for ir in irreps.irreps}


def inverse_fourier(coeffs, irreps: IrrepSet) -> DistSb:
    fact = math.factorial(irreps.b)
    vals = np.zeros(fact)
    for ir in irreps.irreps:
        fhat = coeffs[ir.shape]
        vals += ir.dim * np.einsum("ij,nij->n", fhat, ir.mats)
    return DistSb(irreps.b, vals / fact)


def convolution_theorem_check(nu1: DistSb, nu2: DistSb, irreps: IrrepSet) -> bool:
    """fhat of the convolution equals fhat(nu1) @ fhat(nu2) per irrep."""
    left = fourier(convolve(nu1, nu2), irreps)
    f1 = fourier(nu1, irreps)
    f2 = fourier(nu2, irreps)
    return all(
        np.allclose(left[ir.shape], f1[ir.shape] @ f2[ir.shape], atol=ATOL_ORTHO)
        for ir in irreps.irreps
    )


def plancherel_check(nu1: DistSb, nu2: DistSb, irreps: IrrepSet) -> bool:
    """sum (nu1 - nu2)^2 = (1/b!) sum_rho d_rho ||fhat1 - fhat2||_F^2."""
    diff = float(np.sum((nu1.probs - nu2.probs) ** 2))
    f1 = fourier(nu1, irreps)
    f2 = fourier(nu2, irreps)
    rhs = sum(
        ir.dim * float(np.sum((f1[ir.shape] - f2[ir.shape]) ** 2))
        for ir in irreps.irreps
    ) / math.factorial(irreps.b)
    return abs(diff - rhs) <= ATOL_ORTHO
