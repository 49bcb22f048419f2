"""Splittable seeding: every consumer derives its own 64-bit seed from the
single run seed and a label, via sha256(f"{seed}/{label}") truncated to the
first 8 bytes. Labels are plain strings, so the derivation is documented,
stable, and collision-resistant for any practical label set.

shuffled_range is the exact numpy form of a seeded shuffle: the order
random.Random(seed).shuffle leaves, computed without its swap loop.
randbelow_many is the same for a list of bounded draws: what a caller's
generator gives for rng._randbelow(n) at each n in turn, decided from bulk
Mersenne Twister words, after which the generator is where those calls
leave it."""

from __future__ import annotations

import hashlib
import random

import numpy as np

from .graphs import in_blocks, path_roots, take_in_blocks


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
    and the swaps are then resolved by pointer jumping (Shun et al., SODA
    2015) over the steps grouped by target, which one in-place sort of the
    distinct int64 keys (target << 32) | step gives. The generator is
    private to the call and discarded after it, so it does not matter that
    the last window reads words past the last draw."""
    if not 0 <= n < 1 << 31:
        raise ValueError(f"shuffled_range needs 0 <= n < 2**31, got {n}")
    return _apply_swaps(n, random.Random(seed))


def _swap_targets(rng: random.Random, j: np.ndarray) -> None:
    """Fill j with j[i] = rng._randbelow(i + 1) for i = n-1 down to 1,
    drawn in that order as shuffle draws them, and j[0] = 0."""
    n = len(j)
    j[:1] = 0
    words = np.empty(0, dtype="<u4")   # read from rng, not yet used by a draw
    b = n   # the bound of the next draw: step b - 1 draws below b
    while b > 1:
        k = b.bit_length()
        # About 16 sqrt(b) words, which leaves about w**2 / 2**(k+1) of them
        # (64 or 128) undecided below. A power of two keeps the sizes of the
        # temporaries few, so numpy's cache of small freed blocks stays small.
        w = 1 << (4 + k // 2)
        if len(words) < w:
            words = np.concatenate((words, _words(rng, w - len(words))))
        r = (words[:w] >> (32 - k)).astype(np.int64)
        # Word t meets a bound between b - t (every earlier word accepted)
        # and b, so it is accepted for sure below b - t and rejected for sure
        # at b or above; the words in between are decided in order.
        accept = r < b - np.arange(w)
        und = np.flatnonzero(~accept & (r < b))
        # word t is accepted when below b less every word accepted before it:
        # the sure ones, counted at once, and the undecided ones taken so far
        taken: list[int] = []
        for t, word, limit in zip(und.tolist(), r[und].tolist(), (b - np.cumsum(accept)[und]).tolist()):
            if word < limit - len(taken):
                taken.append(t)
        accept[taken] = True
        # Only the draws left at this bit length are taken; the words after
        # the last of them are read again with the next one.
        room = b - (1 << (k - 1)) + 1
        taken = np.flatnonzero(accept)[:room]
        used = taken[-1] + 1 if len(taken) == room else w
        words = words[used:]
        j[b - len(taken):b] = r[taken][::-1]
        b -= len(taken)


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The next n 32-bit words of rng. getrandbits of a multiple of 32 bits
    is the next words, least significant first."""
    return np.frombuffer(rng.getrandbits(32 * n).to_bytes(4 * n, "little"), dtype="<u4")


def randbelow_many(bounds, rng: random.Random) -> np.ndarray:
    """[rng._randbelow(n) for n in bounds] as an int64 array, every n in
    [1, 2**32), leaving rng in the state those calls leave it in.

    _randbelow(n) takes 32-bit words until one, shifted down to
    n.bit_length() bits, is below n; that is, until a word is below the
    limit n << (32 - n.bit_length()), which is at least 2**31. So a word
    below 2**31 is taken by whichever draw reads it, and a draw whose n is
    a power of two (limit 2**31) takes exactly the next such word: runs of
    those draws are read off the list of low words. Only the other draws
    look at the high words between, one draw at a time. The words are read
    from a copy of rng's state, and rng then skips exactly the words used."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if len(bounds) and not (bounds.min() >= 1 and bounds.max() < 1 << 32):
        raise ValueError("randbelow_many needs bounds in [1, 2**32)")
    bits = np.frexp(bounds)[1]   # n.bit_length(), exact below 2**53
    limit = bounds << (32 - bits)
    other = np.flatnonzero(limit != 1 << 31)
    runs = np.diff(other, prepend=-1) - 1   # power-of-two draws before each other draw
    accept = limit / 2.0**32
    # the expected number of words, and eight standard deviations more
    n = int(np.sum(1 / accept) + 8 * np.sqrt(np.sum((1 - accept) / accept**2))) + 64
    copy = random.Random()
    copy.setstate(rng.getstate())
    words = _words(copy, n)
    while True:
        low = np.flatnonzero(words < 1 << 31)
        try:
            high = _high_words_taken(words, low, runs, limit[other])
            if len(low) >= len(bounds) - len(high):
                break
        except IndexError:
            pass
        words = np.concatenate((words, _words(copy, len(words))))   # too few: read as many again
    taken = np.zeros(len(words), dtype=bool)
    taken[low[:len(bounds) - len(high)]] = True
    taken[high] = True
    at = np.flatnonzero(taken)
    if len(at):
        rng.getrandbits(32 * (int(at[-1]) + 1))
    return words[at].astype(np.int64) >> (32 - bits)


def _high_words_taken(words: np.ndarray, low: np.ndarray, runs: np.ndarray, limits: np.ndarray) -> list[int]:
    """The positions of the words at or above 2**31 that draws take. Draw
    i of the non-power-of-two draws follows runs[i] power-of-two draws and
    takes the first word below limits[i]; the words below 2**31 sit at
    low. IndexError if the words run out."""
    words, low = memoryview(words), memoryview(low)
    pos = j = 0   # the next word to read; low[j] is the next low word
    taken = []
    for run, limit in zip(runs.tolist(), limits.tolist()):
        if run:
            j += run
            pos = low[j - 1] + 1
        nxt = low[j]
        while pos < nxt and words[pos] >= limit:
            pos += 1
        if pos == nxt:
            j += 1
        else:
            taken.append(pos)
        pos += 1
    return taken


def _apply_swaps(n: int, rng: random.Random) -> np.ndarray:
    """range(n) after swapping positions i and j[i] for i = n-1 down to 1,
    with the swap targets j that _swap_targets draws from rng.

    Position i ends with what position j[i] held when step i ran: what the
    last earlier-run step with target j[i] carried there, or j[i] itself if
    there is none. A step carries what its own position held when it ran,
    which follows the same rule; j[0] = 0 stands for position 0 as a step."""
    # steps grouped by target, ascending within a group, so the step after
    # another in its group is the one that ran just before it: one sort of
    # the distinct keys (target << 32) | step, read back as their halves;
    # the targets are drawn straight into their halves
    key = np.empty(n, dtype="<i8")
    halves = key.view("<i4").reshape(n, 2)
    _swap_targets(rng, halves[:, 1])
    halves[:, 0] = np.arange(n, dtype=np.int32)
    key.sort()
    step, target = halves[:, 0].copy(), halves[:, 1].copy()
    del key, halves
    opens = np.empty(n, dtype=bool)   # a group starts here
    opens[:1] = True
    np.not_equal(target[1:], target[:-1], out=opens[1:])
    prior = np.full(n, -1, dtype=np.int32)
    np.copyto(prior[:-1], step[1:], where=~opens[1:])
    held = _first_writers(step, target, prior, opens)
    del opens
    held = path_roots(held)   # what each writer held; writers ran before, so no pointer is on a cycle
    vals = take_in_blocks(held, prior, np.empty(n, dtype=np.int32))   # prior -1 reads held[0]: replaced
    del held
    np.copyto(vals, target, where=prior < 0)
    del prior, target
    out = np.empty(n, dtype=np.int32)
    out[step] = vals
    return out


def _first_writers(step: np.ndarray, target: np.ndarray, prior: np.ndarray, opens: np.ndarray) -> np.ndarray:
    """held[s], what position s held when step s ran, as pointer jumping
    starts it: s if no step wrote there before, else the last such writer,
    whose own held value is then read off the root. The first step of each
    group (the sorted positions where opens is set) is the last writer to
    its target unless it is the target itself, which runs after the rest of
    its group (prior gives the step after it). The group starts are found a
    block at a time, so their positions are never held whole."""
    held = np.arange(len(step), dtype=np.int32)
    lo = 0
    for (block,) in in_blocks(opens):
        at = np.flatnonzero(block)
        at += lo
        lo += len(block)
        s, t, p = step[at], target[at], prior[at]
        writer = np.where(s == t, p, s)
        held[t] = np.where(writer < 0, t, writer)
    return held
