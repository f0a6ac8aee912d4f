import numpy as np
import pytest

import tropmeas as tm
from tropmeas.measures import FunctionOnSpace
from tropmeas.monad import (
    flatten,
    flatten_via_evaluation,
    lift_function,
    map_unit,
    sample_flatten_preimage,
    unit,
)
from tropmeas.spaces import lift


@pytest.fixture
def setting():
    sp = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    nu1 = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    nu2 = tm.dirac(sp, "b")
    lifted = lift(sp, [nu1, nu2])
    M = tm.make_measure(lifted, [(0, 0.0), (1, -2.0)])
    return sp, nu1, nu2, lifted, M


def test_lift_function_examples(setting):
    sp, nu1, nu2, lifted, _ = setting
    phi = FunctionOnSpace(sp, (1.0, 5.0))
    bar = lift_function(phi, lifted)
    assert bar.values[0] == 4.0  # evaluate(nu1, phi)
    assert bar.values[1] == 5.0  # Dirac evaluation
    const = FunctionOnSpace(sp, (3.0, 3.0))
    assert lift_function(const, lifted).values == (3.0, 3.0)


def test_flatten_worked_example(setting):
    sp, _, _, _, M = setting
    out = flatten(M)
    assert out == tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])


def test_flatten_of_unit_is_identity(setting):
    sp, nu1, _, _, _ = setting
    assert flatten(unit(nu1)) == nu1
    mu = tm.make_measure(sp, [("a", -0.5), ("b", 0.0)])
    assert flatten(unit(mu)) == mu


def test_flatten_support_is_union_of_inner_supports(setting):
    sp, nu1, nu2, lifted, M = setting
    assert set(flatten(M).atoms) == set(nu1.atoms) | set(nu2.atoms)


def test_flatten_rejects_base_level_measures(setting):
    sp, nu1, _, _, _ = setting
    with pytest.raises(tm.SpaceMismatchError):
        flatten(nu1)


def test_flatten_definitional_worked(setting):
    sp, _, _, _, M = setting
    phi = FunctionOnSpace(sp, (1.0, 5.0))
    assert flatten_via_evaluation(M, phi) == 4.0
    assert tm.evaluate(flatten(M), phi) == 4.0


def test_flatten_definitional_on_dirac(setting):
    sp, nu1, _, _, _ = setting
    phi = FunctionOnSpace(sp, (2.0, -3.0))
    assert flatten_via_evaluation(unit(nu1), phi) == tm.evaluate(nu1, phi)


def test_flatten_matches_definitional_random():
    rng = np.random.default_rng(21)
    for _ in range(300):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        pool = [tm.gen_measure(sp, 3, rng) for _ in range(int(rng.integers(2, 6)))]
        lifted = lift(sp, pool)
        M = tm.gen_measure(lifted, 3, rng)
        phi = FunctionOnSpace(sp, tuple(rng.uniform(-10, 10, len(sp))))
        lhs = tm.evaluate(flatten(M), phi)
        rhs = flatten_via_evaluation(M, phi)
        assert abs(lhs - rhs) <= 1e-12


def test_flatten_matches_definitional_on_bump_functions():
    rng = np.random.default_rng(22)
    for _ in range(50):
        sp = tm.gen_space(4, rng)
        pool = [tm.gen_measure(sp, 3, rng) for _ in range(3)]
        lifted = lift(sp, pool)
        M = tm.gen_measure(lifted, 3, rng)
        k = 5.0 * sp.truncation_diam
        for i in range(len(sp)):
            bump = FunctionOnSpace(sp, tuple(0.0 if j == i else -k for j in range(len(sp))))
            assert abs(tm.evaluate(flatten(M), bump) - flatten_via_evaluation(M, bump)) <= 1e-12


def test_unit_examples(setting):
    sp, _, _, _, _ = setting
    d = unit(tm.dirac(sp, "a"))
    assert d.support_size == 1
    assert d.weights == (0.0,)
    # the single atom is the point representing the Dirac at a
    assert d.ground.points[d.atoms[0]] == tm.dirac(sp, "a")


def test_unit_with_prebuilt_space(setting):
    sp, nu1, nu2, lifted, _ = setting
    d = unit(nu1, lifted)
    assert d.ground is lifted
    assert d.atoms == (0,)


def test_map_unit_examples(setting):
    sp, _, _, _, _ = setting
    mu = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    lifted_mu = map_unit(mu)
    assert lifted_mu.support_size == 2
    assert lifted_mu.weights == (0.0, -1.0)
    assert all(p.support_size == 1 for p in lifted_mu.ground.points)
    assert flatten(lifted_mu) == mu
    d = map_unit(tm.dirac(sp, "a"))
    assert d.support_size == 1 and d.weights == (0.0,)


def test_map_unit_flatten_roundtrip_random(lookups):
    rng = np.random.default_rng(23)
    for _ in range(200):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        mu = tm.gen_measure(sp, 4, rng)
        del lookups[:]
        lifted_mu = map_unit(mu)
        # Dirac i is point i, and the builder's dedupe is the only lookup
        assert lifted_mu.ground.points == tuple(tm.dirac(sp, a) for a in mu.atoms)
        assert lookups == list(lifted_mu.ground.points)
        assert flatten(lifted_mu) == mu
        del lookups[:]
        assert flatten(unit(mu)) == mu
        assert lookups == [mu]


def test_preimage_single_group_is_unit(setting):
    sp, nu1, _, _, _ = setting
    M = sample_flatten_preimage(nu1, 1, np.random.default_rng(0))
    assert M == unit(nu1, M.ground)
    assert flatten(M) == nu1


def test_preimage_worked_two_groups():
    sp = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    mu = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    M = sample_flatten_preimage(mu, 2, np.random.default_rng(1))
    # groups are singletons either way: atoms are the two Diracs with the
    # original weights on the outside
    assert M.support_size == 2
    assert sorted(M.weights) == [-1.0, 0.0]
    assert {p.support_size for p in M.ground.points} == {1}
    assert flatten(M) == mu


def test_preimage_invalid_group_count(setting):
    sp, nu1, _, _, _ = setting
    with pytest.raises(ValueError):
        sample_flatten_preimage(nu1, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_flatten_preimage(nu1, 3, np.random.default_rng(0))


def test_preimage_flatten_roundtrip_exact_random(lookups):
    rng = np.random.default_rng(24)
    for _ in range(500):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        mu = tm.gen_measure(sp, 4, rng)
        s = int(rng.integers(1, mu.support_size + 1))
        extras = int(rng.integers(0, 4))
        del lookups[:]
        M = sample_flatten_preimage(mu, s, rng, extras)
        # no two inner measures merge, and the builder's dedupe of the s
        # inner measures is the only lookup
        assert len(M.ground) == s
        assert [id(m) for m in lookups] == [id(p) for p in M.ground.points]
        assert flatten(M) == mu  # bitwise


def test_preimage_deterministic_per_seed(setting):
    sp, nu1, _, _, _ = setting
    mu = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    a = sample_flatten_preimage(mu, 2, 42, extras=2)
    b = sample_flatten_preimage(mu, 2, 42, extras=2)
    assert a.weights == b.weights
    assert [p.weights for p in a.ground.points] == [p.weights for p in b.ground.points]


def test_preimage_extras_never_change_flatten():
    rng = np.random.default_rng(25)
    for _ in range(100):
        sp = tm.gen_space(4, rng)
        mu = tm.gen_measure(sp, 4, rng, min_support=2)
        seed = int(rng.integers(1 << 30))
        plain = sample_flatten_preimage(mu, 2, np.random.default_rng(seed), extras=0)
        spiked = sample_flatten_preimage(mu, 2, np.random.default_rng(seed), extras=3)
        assert flatten(plain) == mu
        assert flatten(spiked) == mu


def test_lift_function_space_mismatch(setting):
    sp, nu1, nu2, lifted, _ = setting
    other = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    phi = FunctionOnSpace(other, (1.0, 2.0))
    with pytest.raises(tm.SpaceMismatchError):
        lift_function(phi, lifted)
    with pytest.raises(tm.SpaceMismatchError):
        lift_function(FunctionOnSpace(sp, (1.0, 2.0)), sp)
