import itertools
import json
import random

import pytest

from permlab.hph import (
    MultiHPHInstance,
    dump_instance,
    force_gamma,
    parse_instance,
    recompute_gamma_star,
    referee_answer,
    sample_core,
    sample_instance,
    zero_info_guess,
)
from permlab.perms import all_perms, compose
from reference_draws import ref_sample_core


def _targets(r, b):
    half = r // 2
    yes = tuple([tuple(range(1, b + 1))] * half)
    no = tuple([tuple(range(b, 0, -1))] * half)
    return (yes, no)


def test_sample_instance_consistent():
    rng = random.Random(0)
    for _ in range(50):
        inst = sample_instance(4, 2, 2, 2, _targets(4, 2), rng)
        gstar = recompute_gamma_star(inst.sigmas, inst.L, inst.M)
        want = inst.targets[0] if inst.answer == "yes" else inst.targets[1]
        shifted = tuple(compose(g, s) for g, s in zip(gstar, inst.gamma))
        assert shifted == want
        assert referee_answer(inst) == inst.answer


def test_force_gamma_inverts():
    rng = random.Random(1)
    perms = all_perms(3)
    for _ in range(30):
        gstar = tuple(perms[rng.randrange(6)] for _ in range(3))
        target = tuple(perms[rng.randrange(6)] for _ in range(3))
        gamma = force_gamma(gstar, target)
        assert tuple(compose(g, w) for g, w in zip(gstar, gamma)) == target


def test_exhaustive_tiny_family():
    # r=2, t=1, k=1, b=2: every matrix, row pick, and matching cell
    perms2 = all_perms(2)
    targets = (((1, 2),), ((2, 1),))
    for s1, s2 in itertools.product(perms2, repeat=2):
        sigmas = (((s1, s2),),)
        L = (1,)
        for cell in (1, 2):
            M = ((cell,),)
            gstar = recompute_gamma_star(sigmas, L, M)
            assert gstar == (sigmas[0][0][cell - 1],)
            for answer in ("yes", "no"):
                target = targets[0] if answer == "yes" else targets[1]
                gamma = force_gamma(gstar, target)
                inst = MultiHPHInstance(
                    2, 1, 2, 1, sigmas, L, M, gamma, targets, answer
                )
                assert referee_answer(inst) == answer


def test_ambiguous_when_targets_equal():
    rng = random.Random(2)
    same = (((1, 2), (1, 2)), ((1, 2), (1, 2)))
    inst = sample_instance(4, 2, 2, 2, same, rng)
    assert referee_answer(inst) == "ambiguous"


def test_corrupt_instance_raises():
    rng = random.Random(3)
    inst = sample_instance(4, 2, 2, 2, _targets(4, 2), rng)
    # flipping only the first shift leaves the composition matching neither
    # target: slot 0 disagrees with the forced one, slot 1 with the other
    bad_gamma = (compose(inst.gamma[0], (2, 1)), inst.gamma[1])
    corrupt = MultiHPHInstance(
        inst.r, inst.t, inst.b, inst.k, inst.sigmas, inst.L, inst.M,
        bad_gamma, inst.targets, inst.answer,
    )
    with pytest.raises(ValueError, match="neither"):
        referee_answer(corrupt)


def test_sampling_deterministic():
    a = sample_instance(4, 2, 2, 2, _targets(4, 2), random.Random(42), seed=42)
    b = sample_instance(4, 2, 2, 2, _targets(4, 2), random.Random(42), seed=42)
    assert a == b


def test_draw_order_fixed():
    # core draws do not depend on what the caller does afterwards
    r1 = random.Random(7)
    core1 = sample_core(4, 3, 2, 2, r1)
    r2 = random.Random(7)
    core2 = sample_core(4, 3, 2, 2, r2)
    assert core1 == core2


@pytest.mark.parametrize("r, t, b, k", [(4, 1, 2, 2), (4, 3, 2, 2), (8, 2, 2, 3), (6, 3, 3, 2), (16, 1, 4, 2),
                                        (2, 1, 2, 1), (12, 2, 5, 3), (10, 4, 6, 2), (1024, 1, 2, 1)])
def test_sample_core_matches_the_list_draws(r, t, b, k):
    # one random call per draw, as the core was drawn before it was decoded in bulk
    for seed in range(4):
        got, want = random.Random(seed), random.Random(seed)
        assert sample_core(r, t, b, k, got) == ref_sample_core(r, t, b, k, want)
        assert got.getstate() == want.getstate()


def ref_sample_instance(r, t, b, k, targets, rng):
    sigmas, L, M = ref_sample_core(r, t, b, k, rng)
    answer = "yes" if rng.randrange(2) == 0 else "no"
    gamma = force_gamma(recompute_gamma_star(sigmas, L, M), targets[0] if answer == "yes" else targets[1])
    return MultiHPHInstance(r, t, b, k, sigmas, L, M, gamma, targets, answer, None)


@pytest.mark.parametrize("r, t, b, k", [(4, 2, 2, 2), (6, 3, 3, 2), (8, 1, 4, 3), (2, 1, 2, 1)])
def test_sample_instance_matches_the_list_draws(r, t, b, k):
    for seed in range(6):
        got = sample_instance(r, t, b, k, _targets(r, b), random.Random(seed))
        assert got == ref_sample_instance(r, t, b, k, _targets(r, b), random.Random(seed))


def test_hypermatching_rows_are_valid():
    rng = random.Random(5)
    for _ in range(20):
        _, _, M = sample_core(8, 2, 2, 3, rng)
        for row in M:
            assert len(row) == 4
            assert len(set(row)) == 4
            assert all(1 <= x <= 8 for x in row)


def test_serialization_roundtrip():
    rng = random.Random(6)
    for _ in range(25):
        inst = sample_instance(4, 2, 2, 2, _targets(4, 2), rng, seed=99)
        text = dump_instance(inst)
        assert parse_instance(text) == inst
    big = sample_instance(6, 3, 3, 2, _targets(6, 3), rng)
    assert parse_instance(dump_instance(big)) == big


def test_parse_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        parse_instance("{}")


MALFORMED = {
    "row index past t": lambda d: d.update(L=[2, 1]),
    "row index 0": lambda d: d.update(L=[0, 1]),
    "one row index short": lambda d: d.update(L=[1]),
    "gamma cut to 1 entry": lambda d: d.update(gamma=d["gamma"][:1]),
    "yes target cut to 1 entry": lambda d: d["targets"].update(yes=d["targets"]["yes"][:1]),
    "no target cut to 1 entry": lambda d: d["targets"].update(no=d["targets"]["no"][:1]),
    "one matrix short": lambda d: d.update(sigmas=d["sigmas"][:1]),
    "rank b!": lambda d: d.update(gamma=[2, 0]),
    "rank -1": lambda d: d["sigmas"][0][0].__setitem__(0, -1),
    "row indices true": lambda d: d.update(L=[True, True]),
    "row index 1.0": lambda d: d.update(L=[1.0, 1]),
    "t true": lambda d: d.update(t=True),
    "k 2.0": lambda d: d.update(k=2.0),
    "column index true": lambda d: d["M"][0].__setitem__(0, True),
    "rank false": lambda d: d.update(gamma=[False, 0]),
    "matrix rank true": lambda d: d["sigmas"][0][0].__setitem__(0, True),
    "target rank 0.0": lambda d: d["targets"]["yes"].__setitem__(0, 0.0),
    "seed true": lambda d: d.update(seed=True),
}


@pytest.mark.parametrize("mutate", list(MALFORMED.values()), ids=list(MALFORMED))
def test_parse_rejects_malformed_instances(mutate):
    # r=4, t=1, b=2, k=2
    d = json.loads(dump_instance(sample_instance(4, 1, 2, 2, _targets(4, 2), random.Random(9))))
    parse_instance(json.dumps(d))
    mutate(d)
    with pytest.raises(ValueError):
        parse_instance(json.dumps(d))


def test_zero_info_guess_runs_and_is_fair_in_the_small():
    rng = random.Random(8)
    hits = 0
    trials = 400
    for _ in range(trials):
        inst = sample_instance(2, 1, 2, 1, (((1, 2),), ((2, 1),)), rng)
        if zero_info_guess(inst, rng) == inst.answer:
            hits += 1
    # 3.5 sigma guard band around 1/2 at 400 trials
    assert abs(hits / trials - 0.5) < 3.5 * 0.5 / trials**0.5


def test_gamma_star_composes_in_order():
    # k=2: gamma_star = sigma1 then sigma2 applied, i.e. compose(s1, s2)
    s1 = (2, 3, 1)
    s2 = (1, 3, 2)
    sigmas = (((s1,),), ((s2,),))
    out = recompute_gamma_star(sigmas, (1, 1), ((1,), (1,)))
    assert out == (compose(s1, s2),)
    assert out != (compose(s2, s1),) or compose(s1, s2) == compose(s2, s1)
