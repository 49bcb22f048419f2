import math
import random

import numpy as np
import pytest

from permlab import dists as D
from permlab.perms import all_perms, compose, lehmer_rank


def test_uniform_and_point_mass():
    u = D.uniform(3)
    assert u.probs.shape == (6,)
    assert np.allclose(u.probs, 1 / 6)
    pm = D.point_mass((2, 3, 1))
    assert pm.prob((2, 3, 1)) == 1.0
    assert pm.probs.sum() == 1.0


def test_distances_hand_values():
    mu = D.from_probs(2, [0.75, 0.25])
    u = D.uniform(2)
    assert D.tvd(mu, u) == pytest.approx(0.25, abs=1e-15)
    assert D.l2_sq(mu, u) == pytest.approx(0.125, abs=1e-15)
    assert D.kl(mu, u) == pytest.approx(
        0.75 * math.log(1.5) + 0.25 * math.log(0.5), abs=1e-12
    )


def test_kl_support_violation_is_inf():
    assert D.kl(D.point_mass((2, 1)), D.point_mass((1, 2))) == math.inf
    assert D.kl(D.point_mass((1, 2)), D.uniform(2)) < math.inf


def test_validation():
    with pytest.raises(ValueError):
        D.from_probs(2, [0.7, 0.2])
    with pytest.raises(ValueError):
        D.from_probs(2, [1.2, -0.2])
    with pytest.raises(ValueError):
        D.tvd(D.uniform(2), D.uniform(3))


def test_convolution_of_point_masses_is_composition():
    perms = all_perms(3)
    for s1 in perms:
        for s2 in perms:
            conv = D.convolve(D.point_mass(s1), D.point_mass(s2))
            assert conv.prob(compose(s1, s2)) == pytest.approx(1.0)


def test_convolution_against_double_loop():
    rng = random.Random(0)
    nu1 = D.random_dist(3, rng)
    nu2 = D.random_dist(3, rng)
    conv = D.convolve(nu1, nu2)
    perms = all_perms(3)
    brute = np.zeros(6)
    for s1 in perms:
        for s2 in perms:
            brute[lehmer_rank(compose(s1, s2))] += nu1.prob(s1) * nu2.prob(s2)
    assert np.allclose(conv.probs, brute, atol=1e-14)


def test_parity_family_values():
    nu = D.parity_biased(2, 0.25)
    assert np.allclose(nu.probs, [0.75, 0.25])
    conv = D.convolve(nu, nu)
    assert np.allclose(conv.probs, [0.625, 0.375])


def test_parity_family_refuses_b_below_two_and_eps_outside_unit():
    for b in (1, 0):
        with pytest.raises(ValueError, match=f"^parity_biased needs b >= 2, got b={b}$"):
            D.parity_biased(b, 0.25)
    for eps in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"^parity_biased needs eps in \[0, 1\], got eps="):
            D.parity_biased(3, eps)
    for eps in (0.0, 1.0):
        assert D.parity_biased(2, eps).probs.sum() == pytest.approx(1)


def test_parity_tightness_exact():
    for b in (2, 3, 4):
        for eps in (0.25, 1 / 9, 1 / 16):
            for g in (2, 3, 4):
                rep = D.concat_decay_check([D.parity_biased(b, eps)] * g)
                assert rep.holds
                assert abs(rep.lhs - rep.bound) <= 1e-12
                assert rep.bound == pytest.approx(eps**g, abs=1e-12)


def test_decay_inequality_random():
    rng = random.Random(1)
    for _ in range(300):
        nus = [D.random_dist(3, rng) for _ in range(3)]
        rep = D.concat_decay_check(nus)
        assert rep.holds
        assert len(rep.eps) == 3
        assert all(e >= 0 for e in rep.eps)


def test_decay_single_factor_is_identity_bound():
    rng = random.Random(2)
    nu = D.random_dist(3, rng)
    rep = D.concat_decay_check([nu])
    assert rep.lhs == pytest.approx(rep.bound, abs=1e-12)


def test_strengthened_pinsker_random():
    rng = random.Random(3)
    for _ in range(300):
        mu = D.random_dist(3, rng)
        nu = D.random_dist(3, rng)
        rep = D.strengthened_pinsker_check(mu, nu)
        assert rep.holds
        assert set(rep.a_set) | set(rep.b_set) == set(range(6))
        assert not set(rep.a_set) & set(rep.b_set)
        # classical pinsker for free
        assert D.kl(mu, nu) >= 2 * D.tvd(mu, nu) ** 2 - 1e-12


def test_pinsker_sets_split_correctly():
    mu = D.from_probs(2, [0.9, 0.1])
    nu = D.from_probs(2, [0.3, 0.7])
    rep = D.strengthened_pinsker_check(mu, nu)
    assert rep.a_set == (0,) and rep.b_set == (1,)
    assert rep.holds


def test_irrep_dimension_sums():
    for b in (2, 3, 4, 5):
        irr = D.build_irreps(b)
        dims = [ir.dim for ir in irr.irreps]
        assert sum(d * d for d in dims) == math.factorial(b)
    assert sorted(ir.dim for ir in D.build_irreps(3).irreps) == [1, 1, 2]


def test_irreps_orthogonal_and_homomorphic():
    for b in (3, 4):
        irr = D.build_irreps(b)
        perms = all_perms(b)
        rng = random.Random(b)
        for _ in range(40):
            s1 = perms[rng.randrange(len(perms))]
            s2 = perms[rng.randrange(len(perms))]
            for ir in irr.irreps:
                m1 = ir.mats[lehmer_rank(s1)]
                assert np.allclose(m1 @ m1.T, np.eye(ir.dim), atol=1e-9)
                assert np.allclose(
                    ir.mats[lehmer_rank(compose(s1, s2))],
                    m1 @ ir.mats[lehmer_rank(s2)],
                    atol=1e-9,
                )


def test_fourier_roundtrip():
    rng = random.Random(5)
    for b in (2, 3, 4):
        irr = D.build_irreps(b)
        for _ in range(20):
            f = D.random_dist(b, rng)
            back = D.inverse_fourier(D.fourier(f, irr), irr)
            assert np.allclose(back.probs, f.probs, atol=1e-9)


def test_fourier_of_uniform_kills_nontrivial_irreps():
    irr = D.build_irreps(3)
    coeffs = D.fourier(D.uniform(3), irr)
    for ir in irr.irreps:
        if ir.shape == (3,):
            assert np.allclose(coeffs[ir.shape], [[1.0]])
        else:
            assert np.allclose(coeffs[ir.shape], 0.0, atol=1e-12)


def test_convolution_theorem():
    rng = random.Random(6)
    for b in (2, 3, 4):
        irr = D.build_irreps(b)
        for _ in range(10):
            assert D.convolution_theorem_check(
                D.random_dist(b, rng), D.random_dist(b, rng), irr
            )


def test_plancherel():
    rng = random.Random(7)
    for b in (2, 3, 4):
        irr = D.build_irreps(b)
        for _ in range(10):
            assert D.plancherel_check(
                D.random_dist(b, rng), D.random_dist(b, rng), irr
            )


def test_caps():
    with pytest.raises(ValueError):
        D.build_irreps(7)
    with pytest.raises(ValueError):
        D.uniform(9)
