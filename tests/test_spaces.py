import gc
import weakref

import numpy as np
import pytest

import tropmeas as tm
from tropmeas.spaces import (
    FiniteMetricSpace,
    InvalidSpaceError,
    MetricViolation,
    TRIANGLE_TOL,
    _SCAN_CELLS,
    _SCAN_ROWS,
    _build,
    index_of_measure,
    lift,
    lift_extend,
    validate,
)


@pytest.fixture
def two_point():
    return FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])


def test_valid_two_point_space(two_point):
    assert validate(two_point) is None
    assert two_point.truncation_diam == 1.0


def test_singleton_space_has_zero_diameter():
    sp = FiniteMetricSpace(["a"], [[0]])
    assert sp.truncation_diam == 0.0


def test_symmetry_violation_reported():
    sp = FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]], check=False)
    v = validate(sp)
    assert v is not None and v.axiom == "symmetry"
    assert "a" in v.message and "b" in v.message


def test_triangle_violation_reported():
    d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    sp = FiniteMetricSpace(["a", "b", "c"], d, check=False)
    v = validate(sp)
    assert v is not None and v.axiom == "triangle"


def test_zero_diagonal_and_identity_checks():
    sp = FiniteMetricSpace(["a", "b"], [[0.5, 1], [1, 0]], check=False)
    assert validate(sp).axiom == "zero-diagonal"
    sp = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]], check=False)
    assert validate(sp).axiom == "identity-of-indiscernibles"


def test_negative_distance_reported():
    sp = FiniteMetricSpace(["a", "b"], [[0, -1], [-1, 0]], check=False)
    assert validate(sp).axiom == "nonnegativity"


def test_violation_messages_print_plain_floats():
    sp = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
    # without the truncation the lifted distance exceeds the diameter 1
    with tm.defects.inject("skip-truncation"):
        lifted = lift(sp, [tm.dirac(sp, "a"), tm.make_measure(sp, [("a", -5.0), ("b", 0.0)])])
    cases = {
        "nonnegativity": [[0, np.nan], [np.nan, 0]],
        "symmetry": [[0, 1], [2, 0]],
        "zero-diagonal": [[0.5, 1], [1, 0]],
        "identity-of-indiscernibles": [[0, 0], [0, 0]],
        "triangle": [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
    }
    spaces = {axiom: FiniteMetricSpace("abc"[:len(d)], d, check=False)
              for axiom, d in cases.items()}
    spaces["truncation-bound"] = lifted
    for axiom, space in spaces.items():
        v = validate(space)
        assert v.axiom == axiom
        assert "np." not in v.message, v.message
    assert validate(spaces["nonnegativity"]).message.endswith(" is nan")


def _first_triangle_violation(d, labels):
    # reference: one k at a time, then i, then j
    for k in range(len(labels)):
        excess = d - (d[:, [k]] + d[[k], :])
        if (excess > TRIANGLE_TOL).any():
            i, j = np.argwhere(excess > TRIANGLE_TOL)[0]
            return k, i, MetricViolation(
                "triangle",
                f"triangle violation: d({labels[i]}, {labels[j]}) = {float(d[i, j])!r} "
                f"> d via {labels[k]} = {float(d[i, k] + d[k, j])!r}",
            )
    return None, None, None


def _first_k_chunk(n, i):
    # the k of validate's first chunk in the block holding row i
    i0 = i - i % _SCAN_ROWS
    return max(1, _SCAN_CELLS // (min(_SCAN_ROWS, n - i0) * (n - i0)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 20, 50, 130, 300])
def test_validate_triangle_matches_per_k_loop(n):
    # up to 64 points the scan is one block of rows, and up to 20 points all
    # k fit its first chunk; 50 takes several chunks, 130 and 300 several
    # blocks of rows, each with several chunks
    rng = np.random.default_rng(n)
    labels = [f"p{i}" for i in range(n)]
    firsts = []
    for trial in range(15):
        w = np.triu(rng.uniform(0.1, 2.0, size=(n, n)), 1)
        d = w + w.T
        if trial % 3:
            # a shortest-path metric with one distance raised a little
            for k in range(n):
                np.minimum(d, d[:, [k]] + d[[k], :], out=d)
            i, j = rng.choice(n, size=2, replace=False)
            d[i, j] = d[j, i] = d[i, j] + rng.uniform(0.0, 0.3)
        k, i, expected = _first_triangle_violation(d, labels)
        assert validate(FiniteMetricSpace(labels, d, check=False)) == expected
        if k is not None:
            firsts.append((k, i))
    # two points always form a metric
    assert bool(firsts) == (n > 2)
    if n >= 50:
        # some first violation lies past the first chunk of k of its block
        assert any(k >= _first_k_chunk(n, i) for k, i in firsts)
    if n > _SCAN_ROWS:
        # and some lies in a block of rows after the first
        assert any(i >= _SCAN_ROWS for k, i in firsts)


@pytest.mark.parametrize("later_k", [100, 200, 260])
def test_validate_orders_violations_across_row_blocks(later_k):
    # On 300 points d(p0, p1) first breaks at k = 200, in the first block of
    # rows, and d(p250, p251) first at k = later_k, in the fourth.  The scan
    # reports the smaller k, and at an equal k the smaller row.
    n = 300
    d = np.ones((n, n))
    d[0, 2:200] = d[2:200, 0] = 2.0
    d[0, 1] = d[1, 0] = 3.0             # only k >= 200 shortens d(p0, p1)
    d[250, :later_k] = d[:later_k, 250] = 2.0
    d[250, 251] = d[251, 250] = 3.0     # only k >= later_k shortens d(p250, p251)
    np.fill_diagonal(d, 0.0)
    labels = [f"p{i}" for i in range(n)]
    v = validate(FiniteMetricSpace(labels, d, check=False))
    k, i, expected = _first_triangle_violation(d, labels)
    assert v == expected
    assert (k, i) == ((100, 250) if later_k < 200 else (200, 0))
    assert 250 // _SCAN_ROWS > 0  # p250's block of rows comes after p0's


def test_validate_reports_the_first_violation_past_a_small_chunk():
    # On 64 points the first violation lies at k = 5, past the 4 values of
    # k that a chunk of 2**14 cells held, and a later k breaks a pair of
    # smaller indices: the scan stays in k order, so k = 5 is reported.
    d = np.ones((64, 64))
    np.fill_diagonal(d, 0.0)
    d[60, :5] = d[:5, 60] = 2.0   # p60 is 2 from p0..p4 ...
    d[60, 61] = d[61, 60] = 3.0   # ... so only k >= 5 shortens d(p60, p61)
    d[0, 2:40] = d[2:40, 0] = 2.0
    d[0, 1] = d[1, 0] = 3.0       # only k >= 40 shortens d(p0, p1)
    labels = [f"p{i}" for i in range(64)]
    v = validate(FiniteMetricSpace(labels, d, check=False))
    assert v == MetricViolation(
        "triangle", "triangle violation: d(p60, p61) = 3.0 > d via p5 = 2.0")
    assert _first_triangle_violation(d, labels) == (5, 60, v)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 130, 512])
def test_gen_space_does_not_depend_on_the_callers_buffer(n, caller_buffer):
    # the closure runs under its own ufunc buffer, whatever the caller's
    built = [caller_buffer(size, lambda: tm.gen_space(n, n)) for size in (16, 8192, 4096)]
    assert len({sp.dist.tobytes() for sp in built}) == 1


def test_validate_does_not_depend_on_the_callers_buffer(caller_buffer):
    # a violation planted in the second block of rows, through p100
    n = 200
    d = tm.gen_space(n, 5).dist.copy()
    d[150, 160] = d[160, 150] = d[150, 100] + d[100, 160] + 0.25
    sp = FiniteMetricSpace([f"p{i}" for i in range(n)], d, check=False)
    found = [caller_buffer(size, lambda: validate(sp)) for size in (16, 8192, 4096)]
    assert found[0] == found[1] == found[2] == _first_triangle_violation(d, sp.labels)[2]
    assert found[0].axiom == "triangle"


def test_constructor_rejects_invalid_level0():
    with pytest.raises(InvalidSpaceError):
        FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])
    with pytest.raises(InvalidSpaceError):
        FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])
    with pytest.raises(InvalidSpaceError):
        FiniteMetricSpace(["a"], [[0, 1]])
    with pytest.raises(InvalidSpaceError):
        FiniteMetricSpace([], [])


@pytest.mark.parametrize("dist", [[[0, 1], [1]], [[0, 1], [1, "x"]], [[0, 1], 1]])
def test_constructor_rejects_a_ragged_or_non_numeric_matrix(dist):
    with pytest.raises(InvalidSpaceError, match="distance matrix must be 2x2"):
        FiniteMetricSpace(["a", "b"], dist)


def test_unknown_label():
    sp = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]])
    assert sp.index("b") == 1
    with pytest.raises(KeyError):
        sp.index("z")


@pytest.fixture
def worked():
    sp = FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    m1 = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    m2 = tm.make_measure(sp, [("a", -3.0), ("b", 0.0)])
    return sp, m1, m2


def test_lift_of_diracs_reproduces_ground_distance(worked):
    sp, _, _ = worked
    L = lift(sp, [tm.dirac(sp, "a"), tm.dirac(sp, "b")])
    assert len(L) == 2
    assert L.dist[0, 1] == 2.0
    assert L.level == 1


def test_lift_merges_duplicates(worked):
    sp, m1, _ = worked
    L = lift(sp, [m1, m1])
    assert len(L) == 1


def test_lift_worked_pair_distance(worked):
    sp, m1, m2 = worked
    L = lift(sp, [m1, m2])
    assert L.dist[0, 1] == 2.0  # min(diam 2, transport value 3)


def test_lift_preserves_truncation_diameter(worked):
    sp, m1, m2 = worked
    L = lift(sp, [m1, m2])
    assert L.truncation_diam == sp.truncation_diam
    # sampled max distance (2.0) stays below a larger ground diameter too
    sp3 = FiniteMetricSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
    mus = [tm.dirac(sp3, "a"), tm.dirac(sp3, "b")]
    L3 = lift(sp3, mus)
    assert L3.dist.max() == 1.0
    assert L3.truncation_diam == 3.0


def test_lift_output_passes_validation(worked):
    sp, m1, m2 = worked
    L = lift(sp, [m1, m2, tm.dirac(sp, "a")])
    assert validate(L) is None


def test_lift_validates_on_random_spaces():
    rng = np.random.default_rng(5)
    for _ in range(25):
        sp = tm.gen_space(int(rng.integers(3, 6)), rng)
        mus = [tm.gen_measure(sp, 4, rng) for _ in range(5)]
        L = lift(sp, mus)
        assert validate(L) is None


def test_lift_is_order_insensitive_up_to_relabeling(worked):
    sp, m1, m2 = worked
    m3 = tm.dirac(sp, "a")
    a = lift(sp, [m1, m2, m3])
    b = lift(sp, [m3, m1, m2])
    assert sorted(map(tuple, a.dist.tolist())) == sorted(map(tuple, b.dist.tolist()))
    assert {id(p) for p in a.points} == {id(p) for p in b.points}


def test_lift_rejects_foreign_measures(worked, kernel_calls):
    sp, m1, m2 = worked
    other = FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    L = lift(sp, [m1, m2])
    del kernel_calls[:]
    mismatch = "all lifted measures must share the ground space"
    with pytest.raises(tm.SpaceMismatchError, match=mismatch):
        lift(other, [m1])
    # lift_extend shares the builder's check: a measure over another space
    # or over the lifted space itself is refused before any distance
    for foreign in (tm.dirac(other, "b"), tm.dirac(L, 0)):
        with pytest.raises(tm.SpaceMismatchError, match=mismatch):
            lift_extend(L, [m2, foreign])
    assert kernel_calls == []
    with pytest.raises(InvalidSpaceError):
        lift(sp, [])


def test_lift_extend_matches_full_lift(worked):
    sp, m1, m2 = worked
    base = lift(sp, [m1])
    ext = lift_extend(base, [m2, m1])
    full = lift(sp, [m1, m2])
    assert np.array_equal(ext.dist, full.dist)
    assert lift_extend(base, [m1]) is base

    rng = np.random.default_rng(11)
    near_merged = 0
    for _ in range(40):
        X = tm.gen_space(int(rng.integers(2, 6)), rng)
        A = [tm.gen_measure(X, 3, rng) for _ in range(int(rng.integers(1, 5)))]
        B = [tm.gen_measure(X, 3, rng) for _ in range(int(rng.integers(1, 5)))]
        # duplicates and near-duplicates inside A, inside B and across A and B
        A += [A[0], _near_copy(A[-1], rng)]
        B += [B[0], _near_copy(B[-1], rng), A[1], _near_copy(A[0], rng)]
        A = [A[i] for i in rng.permutation(len(A))]
        B = [B[i] for i in rng.permutation(len(B))]
        L = lift(X, A)
        ext = lift_extend(L, B)
        full = lift(X, A + B)
        assert len(ext) == len(full) < len(A + B)
        assert all(p is q for p, q in zip(ext.points, full.points))
        assert ext.dist.tobytes() == full.dist.tobytes()
        assert lift_extend(L, A) is L
        for S in (L, ext):
            assert S._by_atoms == {a: [i for i, p in enumerate(S.points) if p.atoms == a]
                                   for a in {p.atoms for p in S.points}}
        near_merged += sum(m not in full.points for m in A + B)
    assert near_merged > 0


def test_lift_and_lift_extend_compute_every_distance_before_returning(kernel_calls):
    rng = np.random.default_rng(17)
    X = tm.gen_space(5, rng)
    A = [tm.gen_measure(X, 3, rng) for _ in range(4)]
    B = [tm.gen_measure(X, 3, rng) for _ in range(3)] + [A[0]]
    L = lift(X, A)
    pairs = lambda n: n * (n - 1) // 2
    assert kernel_calls == [pairs(len(L))]
    ext = lift_extend(L, B)
    assert len(L) < len(ext) < len(L) + len(B)
    assert kernel_calls == [pairs(len(L)), pairs(len(ext)) - pairs(len(L))]
    assert lift_extend(ext, A) is ext
    made = list(kernel_calls)
    for space in (L, ext):
        assert not space.dist.flags.writeable
        assert space._rows == space.dist.tolist()
    assert kernel_calls == made


def test_cached_views_are_built_on_first_read():
    X = FiniteMetricSpace(["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    assert not X.dist.flags.writeable
    with pytest.raises(ValueError):
        X.dist[0, 1] = 5.0
    assert "_rows" not in vars(X) and "_index" not in vars(X)
    assert X.index("c") == 2 and X._index == {"a": 0, "b": 1, "c": 2}
    rows = X._rows
    assert rows == X.dist.tolist() and X._rows is rows
    assert type(rows[0][1]) is float

    # a lift that only sweeps, on a 32-point ground, reads no plain rows
    rng = np.random.default_rng(23)
    G = tm.gen_space(32, rng)
    L = lift(G, [tm.gen_measure(G, 16, rng, min_support=16) for _ in range(3)])
    assert "_rows" not in vars(G) and "_rows" not in vars(L)
    assert not L.dist.flags.writeable
    with pytest.raises(ValueError):
        L.dist[0, 1] = 5.0
    assert L._rows == L.dist.tolist()


def test_a_fill_runs_once_and_lets_its_base_go(kernel_calls):
    rng = np.random.default_rng(31)
    X = tm.gen_space(6, rng)
    A = [tm.gen_measure(X, 3, rng) for _ in range(4)]
    built, _ = _build(X, A)
    assert kernel_calls == []
    assert {"dist", "_rows", "_index"}.isdisjoint(vars(built)) and "_fill" in vars(built)
    d = built.dist
    assert built.dist is d and len(kernel_calls) == 1
    assert "_fill" not in vars(built) and "_rows" not in vars(built)

    base = lift(X, A)
    ext = lift_extend(base, [tm.gen_measure(X, 3, rng) for _ in range(3)])
    assert ext is not base and "_fill" not in vars(ext)
    gone = weakref.ref(base)
    del base
    gc.collect()
    assert gone() is None
    assert ext.dist[:len(A), :len(A)].tobytes() == d.tobytes()


def _near_copy(mu, rng):
    """``mu`` with each nonzero weight lowered by less than 1e-9."""
    return tm.make_measure(mu.ground, [
        (a, w if w == 0.0 else w - float(rng.uniform(1e-12, 5e-10)))
        for a, w in mu.entries()
    ])


def test_index_of_measure(worked):
    sp, m1, m2 = worked
    L = lift(sp, [m1, m2])
    assert index_of_measure(L, m1) == 0
    assert index_of_measure(L, m2) == 1
    with pytest.raises(ValueError):
        index_of_measure(L, tm.dirac(sp, "a"))


def test_index_of_measure_first_within_tol():
    sp = FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    p = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    q = tm.make_measure(sp, [("a", 0.0), ("b", -1.0 - 1.5e-9)])
    mid = tm.make_measure(sp, [("a", 0.0), ("b", -1.0 - 0.75e-9)])
    r = tm.dirac(sp, "a")
    # 1.5e-9 apart, p and q stay two points; mid is within 1e-9 of both
    L = lift(sp, [r, p, q])
    assert len(L) == 3
    assert [index_of_measure(L, m) for m in (r, p, q, mid)] == [0, 1, 2, 1]
    assert index_of_measure(lift(sp, [q, p]), mid) == 0
    other = FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    with pytest.raises(ValueError):
        index_of_measure(L, tm.make_measure(other, [("a", 0.0), ("b", -1.0)]))
    with pytest.raises(InvalidSpaceError):
        index_of_measure(sp, p)

    rng = np.random.default_rng(29)
    ties = 0
    for _ in range(200):
        ground = tm.gen_space(int(rng.integers(2, 5)), rng)
        mus = [tm.gen_measure(ground, 3, rng, weight_span=1.0) for _ in range(8)]
        # near copies lower each nonzero weight by 1e-9 to 2e-9, so they stay
        # points of their own; halfway queries are within 1e-9 of both
        gaps = [{a: float(rng.uniform(1e-9, 2e-9)) for a in mu.atoms} for mu in mus[:4]]
        shifted = lambda mu, gap, f: tm.make_measure(
            ground, [(a, w - f * gap[a] if w else w) for a, w in mu.entries()])
        mus += [shifted(mu, gap, 1.0) for mu, gap in zip(mus, gaps)]
        lifted = lift(ground, mus)
        queries = mus + [shifted(mu, gap, 0.5) for mu, gap in zip(mus, gaps)]
        queries += [tm.gen_measure(ground, 3, rng, weight_span=1.0) for _ in range(4)]
        for mu in queries:
            close = [i for i, pt in enumerate(lifted.points)
                     if tm.measures_close(mu, pt, 1e-9)]
            ties += len(close) > 1
            if not close:
                with pytest.raises(ValueError):
                    index_of_measure(lifted, mu)
            else:
                assert index_of_measure(lifted, mu) == close[0]
    assert ties
