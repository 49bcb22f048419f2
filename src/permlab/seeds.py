"""Splittable seeding: every consumer derives its own 64-bit seed from the
single run seed and a label, via sha256(f"{seed}/{label}") truncated to the
first 8 bytes. Labels are plain strings, so the derivation is documented,
stable, and collision-resistant for any practical label set.

shuffled_range is the exact numpy form of a seeded shuffle: the order
random.Random(seed).shuffle leaves, computed without its swap loop."""

from __future__ import annotations

import hashlib
import random

import numpy as np


def derive(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(derive(seed, label))


def shuffled_range(n: int, seed: int) -> np.ndarray:
    """The list random.Random(seed).shuffle leaves of list(range(n)), equal
    element for element, as an int32 array; n must be below 2**31.

    shuffle runs step i = n-1, ..., 1, swapping positions i and j[i], where
    j[i] = _randbelow(i + 1) takes 32-bit Mersenne Twister words until one,
    shifted down to (i + 1).bit_length() bits, is below i + 1. The words are
    read in bulk (getrandbits of a multiple of 32 bits is the next words,
    least significant first), the draws are decided in vectorised windows,
    and the swaps are then resolved by grouping and pointer jumping (Shun et
    al., SODA 2015). The generator is private to the call and discarded
    after it, so it does not matter that the last window reads words past
    the last draw."""
    if not 0 <= n < 1 << 31:
        raise ValueError(f"shuffled_range needs 0 <= n < 2**31, got {n}")
    return _apply_swaps(_swap_targets(n, random.Random(seed)))


def _swap_targets(n: int, rng: random.Random) -> np.ndarray:
    """j[i] = rng._randbelow(i + 1) for i = n-1 down to 1, drawn in that
    order as shuffle draws them, and j[0] = 0."""
    j = np.zeros(n, dtype=np.int32)
    words = np.empty(0, dtype="<u4")   # read from rng, not yet used by a draw
    b = n   # the bound of the next draw: step b - 1 draws below b
    while b > 1:
        k = b.bit_length()
        # About 16 sqrt(b) words, which leaves about w**2 / 2**(k+1) of them
        # (64 or 128) undecided below. A power of two keeps the sizes of the
        # temporaries few, so numpy's cache of small freed blocks stays small.
        w = 1 << (4 + k // 2)
        if len(words) < w:
            more = w - len(words)
            fresh = np.frombuffer(rng.getrandbits(32 * more).to_bytes(4 * more, "little"), dtype="<u4")
            words = np.concatenate((words, fresh))
        r = (words[:w] >> (32 - k)).astype(np.int64)
        # Word t meets a bound between b - t (every earlier word accepted)
        # and b, so it is accepted for sure below b - t and rejected for sure
        # at b or above; the words in between are decided in order.
        accept = r < b - np.arange(w)
        sure, undecided = accept.tobytes(), (~accept & (r < b)).tobytes()
        t = undecided.find(1)
        seen = before = 0   # words accepted before position seen
        while t >= 0:
            before += sure.count(1, seen, t)
            if r[t] < b - before:
                accept[t] = True
                before += 1
            seen = t + 1
            t = undecided.find(1, seen)
        # Only the draws left at this bit length are taken; the words after
        # the last of them are read again with the next one.
        room = b - (1 << (k - 1)) + 1
        taken = np.flatnonzero(accept)[:room]
        used = taken[-1] + 1 if len(taken) == room else w
        words = words[used:]
        j[b - len(taken):b] = r[taken][::-1]
        b -= len(taken)
    return j


def _apply_swaps(j: np.ndarray) -> np.ndarray:
    """range(n) after swapping positions i and j[i] for i = n-1 down to 1.

    Position i ends with what position j[i] held when step i ran: what the
    last earlier-run step with target j[i] carried there, or j[i] itself if
    there is none. A step carries what its own position held when it ran,
    which follows the same rule; j[0] = 0 stands for position 0 as a step."""
    n = len(j)
    # steps grouped by target, ascending within a group (a stable sort), so
    # the step after another in its group is the one that ran just before it
    step = _stable_order(j)
    target = j[step]
    opens = np.empty(n, dtype=bool)   # a group starts here
    opens[:1] = True
    np.not_equal(target[1:], target[:-1], out=opens[1:])
    prior = np.full(n, -1, dtype=np.int32)
    np.copyto(prior[:-1], step[1:], where=~opens[1:])
    start = np.flatnonzero(opens)
    del opens
    # held[s]: what position s held when step s ran. It is s if no step
    # wrote there before, else what the last such writer held, so held
    # starts as that writer and pointer jumping reads it off the root. The
    # first step of a group is the last writer unless it is the target
    # itself, which runs after the rest of its group.
    writer = np.where(step == target, prior, step)
    np.copyto(writer, target, where=writer < 0)
    held = np.arange(n, dtype=np.int32)
    held[target[start]] = writer[start]
    del start, writer
    while True:   # pointer jumping to the roots, which hold themselves
        up = held[held]
        if np.array_equal(up, held):
            break
        held = up
    del up
    vals = held[prior]   # prior -1 reads held[-1]; those entries are replaced
    del held
    np.copyto(vals, target, where=prior < 0)
    del prior, target
    out = np.empty(n, dtype=np.int32)
    out[step] = vals
    return out


def _stable_order(j: np.ndarray) -> np.ndarray:
    """np.argsort(j, kind="stable") as int32, for int32 j in [0, 2**31).
    numpy sorts 16-bit keys stably by radix sort, so this sorts by the low
    half, then stably by the high half (one pass while n <= 2**16)."""
    low = np.argsort(j.astype(np.uint16), kind="stable").astype(np.int32)
    if len(j) <= 1 << 16:
        return low
    high = np.argsort((j >> 16).astype(np.uint16)[low], kind="stable").astype(np.int32)
    return low[high]
