import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import tropmeas as tm
from tropmeas.measures import (
    FunctionOnSpace,
    NormalizationError,
    SpaceMismatchError,
    dirac,
    evaluate,
    make_measure,
    measures_close,
    pointwise_max,
    pushforward,
    renormalize,
)


@pytest.fixture
def space():
    return tm.FiniteMetricSpace(["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]])


def test_make_measure_dirac(space):
    mu = make_measure(space, [("a", 0.0)])
    assert mu.atoms == (0,)
    assert mu.weights == (0.0,)
    assert mu == dirac(space, "a")


def test_make_measure_merges_duplicates_by_max(space):
    mu = make_measure(space, [("a", 0.0), ("a", -1.0), ("b", -2.0)])
    assert mu.atoms == (0, 1)
    assert mu.weights == (0.0, -2.0)


def test_make_measure_rejects_unnormalized(space):
    with pytest.raises(NormalizationError):
        make_measure(space, [("a", -1.0), ("b", -2.0)])


def test_make_measure_rejects_empty_and_nonfinite(space):
    with pytest.raises(ValueError):
        make_measure(space, [])
    with pytest.raises(ValueError):
        make_measure(space, [("a", -math.inf)])
    with pytest.raises(ValueError):
        make_measure(space, [("a", math.nan)])


def test_atom_indices_must_be_integers(space):
    # floats were truncated and bools cast: (1.9, 0.0) put the top weight on b
    for atom in (1.9, 0.5, 2.0, np.float64(1.0), True, False, np.True_, None, (1,)):
        with pytest.raises(ValueError, match="neither a point label nor an integer index"):
            make_measure(space, [(atom, 0.0)])
    with pytest.raises(ValueError, match="neither a point label"):
        dirac(space, True)
    mu = make_measure(space, [("a", 0.0), ("c", -1.0)])
    with pytest.raises(ValueError, match="neither a point label"):
        tm.distance_to_dirac(mu, 2.7)
    with pytest.raises(ValueError, match="neither a point label"):
        pushforward({0: 1.0, 2: 0}, mu)
    assert make_measure(space, [(np.int64(1), 0.0), (np.uint8(2), -1.0)]) == make_measure(
        space, [("b", 0.0), ("c", -1.0)])
    assert tm.distance_to_dirac(mu, np.int32(1)) == tm.distance_to_dirac(mu, "b")
    with pytest.raises(ValueError, match="out of range"):
        dirac(space, np.int64(3))


def test_make_measure_snaps_near_zero_max(space):
    mu = make_measure(space, [("a", 5e-10), ("b", -1.0)])
    assert mu.weights == (0.0, -1.0)
    mu = make_measure(space, [("a", -5e-10), ("b", -1.0)])
    assert mu.weights == (0.0, -1.0)
    with pytest.raises(NormalizationError):
        make_measure(space, [("a", 5e-9)])


def test_entries_canonically_sorted(space):
    mu = make_measure(space, [("c", -1.0), ("a", 0.0)])
    assert mu.atoms == (0, 2)
    assert mu == make_measure(space, [("a", 0.0), ("c", -1.0)])


def test_renormalize(space):
    mu = renormalize(space, [("a", -1.0), ("b", -2.0)])
    assert mu.weights == (0.0, -1.0)
    nu = renormalize(space, [("a", 0.0)])
    assert nu == dirac(space, "a")
    ties = renormalize(space, [("a", 5.0), ("b", 5.0)])
    assert ties.weights == (0.0, 0.0)


def test_evaluate_worked_example(space):
    mu = make_measure(space, [("a", 0.0), ("b", -1.0)])
    phi = FunctionOnSpace(space, (1.0, 5.0, 0.0))
    assert evaluate(mu, phi) == 4.0


def test_evaluate_dirac_is_point_evaluation(space):
    phi = FunctionOnSpace(space, (1.5, -2.0, 7.0))
    assert evaluate(dirac(space, "b"), phi) == -2.0


def test_support(space):
    assert dirac(space, "a").atoms == (0,)
    mu = make_measure(space, [("a", 0.0), ("b", -1.0)])
    assert mu.atoms == (0, 1)
    merged = make_measure(space, [("a", 0.0), ("a", -1.0)])
    assert merged.atoms == (0,)


def test_function_on_space_validation(space):
    with pytest.raises(ValueError):
        FunctionOnSpace(space, (1.0, 2.0))
    with pytest.raises(ValueError):
        FunctionOnSpace(space, (1.0, math.inf, 0.0))
    f = FunctionOnSpace.from_mapping(space, {"a": 1, "b": 2, "c": 3})
    assert f.values == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        FunctionOnSpace.from_mapping(space, {"a": 1})


def test_space_mismatch_rejected(space):
    other = tm.FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
    phi = FunctionOnSpace(other, (0.0, 0.0))
    with pytest.raises(SpaceMismatchError):
        evaluate(dirac(space, "a"), phi)


def test_pushforward_identity(space):
    mu = make_measure(space, [("a", 0.0), ("c", -0.5)])
    assert pushforward(lambda i: i, mu) == mu


def test_pushforward_collapse(space):
    mu = make_measure(space, [("a", 0.0), ("b", -1.0)])
    out = pushforward({"a": "c", "b": "c"}, mu)
    assert out == dirac(space, "c")


def test_pushforward_undefined_point(space):
    mu = make_measure(space, [("a", 0.0), ("b", -1.0)])
    with pytest.raises(ValueError):
        pushforward({"a": "c"}, mu)


def test_pushforward_functoriality_random(space):
    rng = np.random.default_rng(7)
    n = len(space)
    for _ in range(200):
        mu = tm.gen_measure(space, n, rng)
        f = {i: int(rng.integers(n)) for i in range(n)}
        g = {i: int(rng.integers(n)) for i in range(n)}
        composed = pushforward({i: g[f[i]] for i in range(n)}, mu)
        staged = pushforward(g, pushforward(f, mu))
        assert composed == staged


def test_pushforward_evaluation_duality_random(space):
    rng = np.random.default_rng(8)
    n = len(space)
    for _ in range(200):
        mu = tm.gen_measure(space, n, rng)
        f = {i: int(rng.integers(n)) for i in range(n)}
        phi = FunctionOnSpace(space, tuple(rng.uniform(-5, 5, n)))
        lhs = evaluate(pushforward(f, mu), phi)
        rhs = evaluate(mu, FunctionOnSpace(space, tuple(phi.values[f[i]] for i in range(n))))
        assert lhs == rhs


def test_coupling_with_dirac_is_unique(space):
    # enumerate every support pattern: exactly one is feasible
    mu = make_measure(space, [("a", 0.0), ("b", -1.0), ("c", -2.0)])
    target = dirac(space, "a")
    cells = [(j, 0) for j in range(mu.support_size)]
    feasible = [
        subset
        for r in range(1, len(cells) + 1)
        for subset in itertools.combinations(cells, r)
        if tm.pattern_feasible(subset, mu, target)
    ]
    assert len(feasible) == 1
    assert set(feasible[0]) == set(cells)


def test_measures_close(space):
    m1 = make_measure(space, [("a", 0.0), ("b", -1.0)])
    m2 = make_measure(space, [("a", 0.0), ("b", -1.0 + 1e-12)])
    m3 = make_measure(space, [("a", 0.0), ("b", -1.1)])
    assert measures_close(m1, m2)
    assert not measures_close(m1, m3)
    assert not measures_close(m1, dirac(space, "a"))


# --- the functional axioms on random data -----------------------------------

weights = st.floats(min_value=-8.0, max_value=0.0, allow_nan=False)
fvals = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def measures(draw):
    space = draw(st.shared(st.builds(
        lambda: tm.FiniteMetricSpace(["a", "b", "c"],
                                     [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    ), key="sp"))
    n = len(space)
    size = draw(st.integers(1, n))
    atoms = draw(st.permutations(range(n)))[:size]
    ws = draw(st.lists(weights, min_size=size, max_size=size))
    ws[draw(st.integers(0, size - 1))] = 0.0
    return make_measure(space, list(zip(atoms, ws)))


@st.composite
def functions(draw):
    space = draw(st.shared(st.builds(
        lambda: tm.FiniteMetricSpace(["a", "b", "c"],
                                     [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    ), key="sp"))
    return FunctionOnSpace(space, tuple(draw(st.lists(fvals, min_size=3, max_size=3))))


@given(measures(), st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_axiom_constant_functions_exact(mu, c):
    const = FunctionOnSpace(mu.ground, (c,) * len(mu.ground))
    assert evaluate(mu, const) == c


@given(measures(), functions(), st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_axiom_shift_within_1e_12(mu, phi, c):
    assert abs(evaluate(mu, phi.shift(c)) - (evaluate(mu, phi) + c)) <= 1e-12


@given(measures(), functions(), functions())
def test_axiom_pointwise_max_exact(mu, phi, psi):
    lhs = evaluate(mu, pointwise_max(phi, psi))
    assert lhs == max(evaluate(mu, phi), evaluate(mu, psi))
