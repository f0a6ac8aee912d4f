import contextlib
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import tropmeas as tm
from tropmeas import defects, transport
from tropmeas.transport import (
    ORACLE_CELL_LIMIT,
    VECTOR_CELL_CUTOFF,
    bottleneck_distance,
    bottleneck_distance_bruteforce,
    cost,
    distance_to_dirac,
    distance_to_diracs,
    measure_distance,
    pattern_feasible,
)


@pytest.fixture
def worked():
    sp = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    m1 = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    m2 = tm.make_measure(sp, [("a", -3.0), ("b", 0.0)])
    return sp, m1, m2


def test_cost_examples(worked):
    sp, m1, m2 = worked
    # same point, weights 0 and -3: |gap| + 0
    assert cost(0, 0, m1, m2) == 3.0
    # same weights, distance 2
    assert cost(0, 1, m1, m2) == 2.0
    d = tm.dirac(sp, "a")
    assert cost(0, 0, d, d) == 0.0


@pytest.mark.parametrize("j, k", [(-1, 0), (0, -1), (2, 0), (0, 2), (-3, -3)])
def test_cost_rejects_entries_out_of_range(worked, j, k):
    # a negative index used to wrap round to the last entry's cost
    _, m1, m2 = worked
    with pytest.raises(ValueError, match=rf"pair \({j}, {k}\) out of range"):
        cost(j, k, m1, m2)
    with pytest.raises(ValueError, match=rf"pair \({j}, {k}\) out of range"):
        pattern_feasible([(j, k)], m1, m2)


def test_pattern_feasible_full_pattern_always(worked):
    _, m1, m2 = worked
    full = [(j, k) for j in range(m1.support_size) for k in range(m2.support_size)]
    assert pattern_feasible(full, m1, m2)


def test_pattern_feasible_dirac_pair(worked):
    sp, _, _ = worked
    assert pattern_feasible([(0, 0)], tm.dirac(sp, "a"), tm.dirac(sp, "b"))


def test_pattern_feasible_uncovered_row():
    sp = tm.FiniteMetricSpace(["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    m1 = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    m2 = tm.dirac(sp, "c")
    assert not pattern_feasible([(0, 0)], m1, m2)  # row b uncovered
    assert pattern_feasible([(0, 0), (1, 0)], m1, m2)


def test_pattern_feasible_weight_witness_required():
    sp = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    m1 = tm.make_measure(sp, [("a", 0.0), ("b", -1.0)])
    m2 = tm.make_measure(sp, [("a", 0.0), ("b", -2.0)])
    # row b (weight -1) relates only to column b (weight -2 < -1): the row
    # marginal cannot be attained even though the row is nonempty
    assert not pattern_feasible([(0, 0), (1, 1)], m1, m2)


def test_empty_pattern_rejected(worked):
    _, m1, m2 = worked
    assert not pattern_feasible([], m1, m2)


def test_pattern_feasible_takes_plain_pairs(worked):
    _, m1, m2 = worked
    for bad in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            pattern_feasible([(0, 0), bad], m1, m2)
    # repeats and one-shot iterators read as the set of their pairs
    cells = list(itertools.product(range(2), repeat=2))
    for r in range(1, len(cells) + 1):
        for pattern in itertools.combinations(cells, r):
            expected = pattern_feasible(set(pattern), m1, m2)
            assert pattern_feasible([*pattern, *pattern[::-1]], m1, m2) == expected
            assert pattern_feasible(iter(pattern), m1, m2) == expected
    assert pattern_feasible(itertools.product(range(2), repeat=2), m1, m2)


def test_bottleneck_worked_example(worked):
    _, m1, m2 = worked
    assert bottleneck_distance(m1, m2) == 3.0
    assert bottleneck_distance_bruteforce(m1, m2) == 3.0


def test_bottleneck_self_distance_zero(worked):
    _, m1, m2 = worked
    assert bottleneck_distance(m1, m1) == 0.0
    assert bottleneck_distance(m2, m2) == 0.0


def test_bottleneck_dirac_target_closed_form(worked):
    sp, m1, _ = worked
    # transport value against a Dirac is max_i (|w_i| + d(x_i, x0))
    assert bottleneck_distance(m1, tm.dirac(sp, "a")) == 3.0
    assert bottleneck_distance(m1, tm.dirac(sp, "b")) == 2.0


def test_rho_worked_example(worked):
    _, m1, m2 = worked
    assert measure_distance(m1, m2) == 2.0  # min(diam 2, 3)


def test_rho_of_diracs_is_ground_distance(worked):
    sp, _, _ = worked
    assert measure_distance(tm.dirac(sp, "a"), tm.dirac(sp, "b")) == 2.0


def test_rho_identity(worked):
    _, m1, _ = worked
    assert measure_distance(m1, m1) == 0.0


def test_distance_to_dirac_examples(worked):
    sp, _, m2 = worked
    assert distance_to_dirac(tm.dirac(sp, "a"), "a") == 0.0
    assert distance_to_dirac(m2, "a") == 2.0  # min(2, max(3, 2))


def test_distance_to_dirac_equals_rho_exactly():
    rng = np.random.default_rng(11)
    for _ in range(500):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        mu = tm.gen_measure(sp, 4, rng)
        x0 = int(rng.integers(len(sp)))
        assert distance_to_dirac(mu, x0) == measure_distance(mu, tm.dirac(sp, x0))


def test_distance_to_diracs_examples(worked):
    sp, _, m2 = worked
    assert distance_to_diracs(tm.dirac(sp, "a")) == 0.0
    assert distance_to_diracs(m2) == 2.0
    rng = np.random.default_rng(12)
    for _ in range(100):
        space = tm.gen_space(4, rng)
        mu = tm.gen_measure(space, 4, rng)
        assert distance_to_diracs(mu) <= space.truncation_diam


def test_oracle_agrees_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(150):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        m1 = tm.gen_measure(sp, 4, rng)
        m2 = tm.gen_measure(sp, 4, rng)
        assert bottleneck_distance(m1, m2) == bottleneck_distance_bruteforce(m1, m2)


def test_oracle_size_guard(monkeypatch):
    sp = tm.gen_space(7, np.random.default_rng(0))
    m1 = tm.gen_measure(sp, 6, np.random.default_rng(1), min_support=5)
    m2 = tm.gen_measure(sp, 6, np.random.default_rng(2), min_support=5)
    m3 = tm.gen_measure(sp, 3, np.random.default_rng(3), min_support=3)
    m7 = tm.gen_measure(sp, 7, np.random.default_rng(4), min_support=7)
    pairs = [(m1, m2), (m3, m7), (m7, m3)]
    assert min(a.support_size * b.support_size for a, b in pairs) == ORACLE_CELL_LIMIT + 1

    def no_table(*args, **kwargs):
        raise AssertionError("mask table built past the size guard")

    # the masks come from np.arange, so the guard must fire before it
    monkeypatch.setattr(np, "arange", no_table)
    for a, b in pairs:
        with pytest.raises(ValueError, match="enumeration guard"):
            bottleneck_distance_bruteforce(a, b)


def _measure(space, atoms, weights):
    weights = np.asarray(weights, dtype=float)
    weights[0] = 0.0
    return tm.make_measure(space, [(int(a), float(w)) for a, w in zip(atoms, weights)])


def _grid_measure(space, size, rng):
    # weights on a coarse grid, so that pairs with equal weights occur
    atoms = rng.choice(len(space), size=size, replace=False)
    return _measure(space, atoms, -0.25 * rng.integers(0, 5, size=size))


def _by_sweep(m1, m2):
    """The sweep on one pair, whatever its size: bottleneck_distance with
    every pair at or past the cutoff."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transport, "VECTOR_CELL_CUTOFF", 0)
        return bottleneck_distance(m1, m2)


def _min_worst_cost_over_patterns(m1, m2):
    # the oracle's definition in plain Python: every nonempty pattern,
    # kept if pattern_feasible, scored by its largest pair cost
    cells = list(itertools.product(range(m1.support_size), range(m2.support_size)))
    costs = {cell: cost(*cell, m1, m2) for cell in cells}
    best = math.inf
    for r in range(1, len(cells) + 1):
        for pattern in itertools.combinations(cells, r):
            if pattern_feasible(pattern, m1, m2):
                best = min(best, max(costs[cell] for cell in pattern))
    return best


def test_bruteforce_matches_pattern_enumeration():
    rng = np.random.default_rng(23)
    for i in range(300):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        if i % 2:
            m1, m2 = (tm.gen_measure(sp, 3, rng) for _ in range(2))
        else:
            m1, m2 = (_grid_measure(sp, int(rng.integers(1, 4)), rng) for _ in range(2))
        assert m1.support_size * m2.support_size <= 9
        expected = _min_worst_cost_over_patterns(m1, m2)
        assert bottleneck_distance_bruteforce(m1, m2).hex() == expected.hex()


def test_vector_kernel_agrees_with_bruteforce():
    rng = np.random.default_rng(17)
    for i in range(200):
        sp = tm.gen_space(int(rng.integers(4, 7)), rng)
        if i % 2:
            m1, m2 = (tm.gen_measure(sp, 4, rng) for _ in range(2))
        else:
            m1, m2 = (_grid_measure(sp, int(rng.integers(1, 5)), rng) for _ in range(2))
        assert m1.support_size * m2.support_size <= ORACLE_CELL_LIMIT
        h = _by_sweep(m1, m2)
        assert h.hex() == bottleneck_distance_bruteforce(m1, m2).hex()


@pytest.mark.parametrize("drop_abs,skip_cols", itertools.product((False, True), repeat=2))
def test_vector_kernel_matches_scalar_loop_bitwise(drop_abs, skip_cols, monkeypatch):
    # the scalar loop is bottleneck_distance with the cutoff out of reach
    monkeypatch.setattr(transport, "VECTOR_CELL_CUTOFF", math.inf)
    rng = np.random.default_rng(18)
    sp = tm.gen_space(96, rng)
    sizes = set()
    with contextlib.ExitStack() as stack:
        for name, on in (("drop-cost-abs", drop_abs), ("skip-column-witnesses", skip_cols)):
            if on:
                stack.enter_context(defects.inject(name))
        for i in range(60):
            n1, n2 = (int(n) for n in rng.integers(8, 65, size=2))
            if i % 2:
                m1 = tm.gen_measure(sp, n1, rng, min_support=n1)
                m2 = tm.gen_measure(sp, n2, rng, min_support=n2)
            else:
                m1, m2 = _grid_measure(sp, n1, rng), _grid_measure(sp, n2, rng)
            sizes.add(n1 * n2 >= VECTOR_CELL_CUTOFF)
            v = _by_sweep(m1, m2)
            assert v.hex() == bottleneck_distance(m1, m2).hex()
    assert sizes == {False, True}


def test_defects_reach_the_vector_kernel(monkeypatch):
    # mu1 stays near 0 and mu2 sits far below it, so the column witnesses
    # set H and H exceeds the diameter: every defect moves the result
    rng = np.random.default_rng(19)
    sp = tm.gen_space(64, rng)
    diam = sp.truncation_diam

    def near(n):
        return _measure(sp, rng.choice(64, size=n, replace=False),
                        rng.uniform(-diam / 4, 0.0, size=n))

    def far(n):
        return _measure(sp, rng.choice(64, size=n, replace=False),
                        rng.uniform(-10 * diam, -5 * diam, size=n))

    m1, m2 = near(32), far(32)
    assert m1.support_size * m2.support_size >= VECTOR_CELL_CUTOFF
    # a lift whose 120 pairs of supports 4 x 4 take the sweep in one call
    pts = [near(4) for _ in range(8)] + [far(4) for _ in range(8)]
    assert 120 * 4 * 4 >= VECTOR_CELL_CUTOFF > 4 * 4
    clean = measure_distance(m1, m2)
    clean_lift = tm.lift(sp, pts).dist
    assert len(clean_lift) == len(pts)
    for name in sorted(defects.DEFECTS):
        with defects.inject(name):
            vector = measure_distance(m1, m2)
            batched = tm.lift(sp, pts).dist
            with monkeypatch.context() as m:
                m.setattr(transport, "VECTOR_CELL_CUTOFF", math.inf)
                scalar = measure_distance(m1, m2)
                scalar_lift = tm.lift(sp, pts).dist
        assert vector != clean, name
        assert vector.hex() == scalar.hex(), name
        assert (batched[:8, 8:] != clean_lift[:8, 8:]).any(), name
        assert batched.tobytes() == scalar_lift.tobytes(), name


def _exact_size_measure(space, size, rng):
    return tm.gen_measure(space, size, rng, min_support=size)


@pytest.fixture
def blocks(monkeypatch):
    """Per call through ``blocks["call"]``: the blocks of rows the sweep
    computed, as (cells, masked tail columns, whether the block has several
    rows and more cells than its budget), and the R entries the scalar
    loop computed, two a pair."""
    seen = {"blocks": [], "loop": 0}
    block, loop = transport._block, transport._row_loop

    def counted_block(wl, d, w, seg, tail):
        over = len(wl) > 1 and d.size > transport._CHUNK_CELLS
        seen["blocks"].append((d.size, len(w) - tail, over))
        return block(wl, d, w, seg, tail)

    def counted_loop(mu1, mu2):
        seen["loop"] += 1
        return loop(mu1, mu2)

    def call(build):
        seen["blocks"], seen["loop"] = [], 0
        return build(), seen["blocks"], seen["loop"]

    monkeypatch.setattr(transport, "_block", counted_block)
    monkeypatch.setattr(transport, "_row_loop", counted_loop)
    seen["call"] = call
    return seen


@pytest.mark.parametrize("active", [
    names for r in range(len(defects.DEFECTS) + 1)
    for names in itertools.combinations(sorted(defects.DEFECTS), r)],
    ids=lambda names: "+".join(names) or "clean")
def test_lift_matches_pairwise_measure_distance(active, blocks):
    rng = np.random.default_rng(24)
    sp = tm.gen_space(80, rng)
    swept = looped = spans_blocks = single_entries = masked = False
    with contextlib.ExitStack() as stack:
        for name in active:
            stack.enter_context(defects.inject(name))
        for case in range(8):
            # half the cases draw weights on a grid, so that weights tie
            make = _grid_measure if case % 2 else _exact_size_measure
            sizes = rng.choice([1, 2, 3, 5, 16, 64], size=int(rng.integers(8, 14)))
            if case == 4:
                # pairs of 64 x 64 supports over several blocks
                sizes = np.append(sizes, [64] * 16)
            if case == 5:
                # too little work to sweep: every fill takes the loop
                sizes = rng.choice([1, 2, 3], size=5)
            if case == 6:
                # 4950 pairs of 4 x 4 supports: blocks of rows of many measures
                sizes = np.full(100, 4)
            mus = [make(sp, int(n), rng) for n in sizes]
            half = len(mus) // 2
            with pytest.MonkeyPatch.context() as m:
                if case == 7:
                    # a small block budget: many blocks per sweep
                    m.setattr(transport, "_CHUNK_CELLS", 512)
                base = tm.lift(sp, mus[:half])
                calls = [blocks["call"](lambda: tm.lift(sp, mus)),
                         blocks["call"](lambda: tm.lift_extend(base, mus[half:]))]
            for L, swept_blocks, loop in calls:
                pts = L.points
                expected = np.zeros((len(pts), len(pts)))
                for j in range(len(pts)):
                    for i in range(j):
                        expected[i, j] = expected[j, i] = measure_distance(pts[i], pts[j])
                assert L.dist.tobytes() == expected.tobytes()
                # each call is one fill, which takes the loop or the sweep,
                # never both
                assert not (swept_blocks and loop)
                assert not any(over for _, _, over in swept_blocks)
                swept |= bool(swept_blocks)
                looped |= loop > 0
                spans_blocks |= sum(c for c, _, _ in swept_blocks) > 2 * transport._CHUNK_CELLS
                single_entries |= bool(swept_blocks) and min(p.support_size for p in pts) == 1
                masked |= any(tail for _, tail, _ in swept_blocks)
    assert swept and looped and spans_blocks and single_entries and masked


def test_measure_distances_fills_the_matrix_and_copies_known():
    # supports 1..256 in one call, weights on a grid so that they tie, a
    # lifted ground, and a known block of any size, copied as it is
    rng = np.random.default_rng(25)
    big = tm.gen_space(300, rng)
    small = tm.gen_space(12, rng)
    lifted = tm.lift(small, [_grid_measure(small, int(n), rng)
                             for n in rng.integers(1, 6, size=40)])
    for case in range(12):
        ground = lifted if case % 4 == 3 else big
        top = min(256, len(ground))
        sizes = [1, top, *np.rint(np.exp(rng.uniform(0, np.log(top), size=8))).astype(int)]
        make = _grid_measure if case % 2 else _exact_size_measure
        mus = [make(ground, int(n), rng) for n in rng.permutation(sizes)]
        expected = np.zeros((len(mus), len(mus)))
        for j in range(len(mus)):
            for i in range(j):
                expected[i, j] = expected[j, i] = measure_distance(mus[i], mus[j])
        old = int(rng.integers(0, len(mus) + 1)) if case % 3 else 0
        # any values within the diameter, not even symmetric: they are
        # copied, not recomputed
        known = rng.uniform(0, ground.truncation_diam, size=(old, old))
        expected[:old, :old] = known
        got = transport.measure_distances(mus, known if case % 3 else None)
        assert got.dtype == float and got.tobytes() == expected.tobytes()


def test_lift_fill_bytes_are_pinned():
    # The sha256 of the bytes of lift and lift_extend matrices, recorded
    # before the fill became a sweep of row witnesses: supports 1..256,
    # continuous and tying grid weights, a 300-point and a lifted ground,
    # and a known block of random size.  Any bit the fill moves shows here.
    rng = np.random.default_rng(31)
    big = tm.gen_space(300, rng)
    small = tm.gen_space(12, rng)
    lifted = tm.lift(small, [_grid_measure(small, int(n), rng)
                             for n in rng.integers(1, 6, size=40)])
    digest = hashlib.sha256()
    for case in range(8):
        ground = lifted if case % 4 == 3 else big
        top = min(256, len(ground))
        sizes = [1, 1, top, *np.rint(np.exp(rng.uniform(0, np.log(top), size=9))).astype(int)]
        make = _grid_measure if case % 2 else _exact_size_measure
        mus = [make(ground, int(n), rng) for n in rng.permutation(sizes)]
        old = int(rng.integers(1, len(mus)))
        digest.update(tm.lift(ground, mus).dist.tobytes())
        digest.update(tm.lift_extend(tm.lift(ground, mus[:old]), mus[old:]).dist.tobytes())
    assert digest.hexdigest() == (
        "af702a9e51ce82d81e7817b62239377db69527e9c3e164f32c07873d5ff7d6b3")


#: sha256 of each mutant's results below, recorded while the scalar loop
#: still computed the column half as a second, transposed double loop.
MUTANT_DIGESTS = {
    "drop-cost-abs": "31511e5e6e442f74d4b50c13c11e1fdfd35bf6796d7290b364de76686afd6dd8",
    "skip-column-witnesses": "f2788c1095fcffd58b6cdde827442af72183c6f4da5d8fbc728e471407e2d8bc",
    "skip-truncation": "6b84b7ed320c82b03e2fd98cdd1c2d98807e4b03e2fd58b547847268f2f278c6",
}


@pytest.mark.parametrize("name", sorted(defects.DEFECTS))
def test_mutants_are_pinned(name):
    # A refactor of the loop or the sweep must move no bit of a mutant
    # either: small pairs and a small lift take the loop, large pairs and
    # lifts of supports up to 64 the sweep.
    rng = np.random.default_rng(34)
    digest = hashlib.sha256()
    with defects.inject(name):
        for _ in range(200):
            sp = tm.gen_space(int(rng.integers(3, 8)), rng)
            m1, m2 = (tm.gen_measure(sp, int(rng.integers(1, 5)), rng) for _ in range(2))
            digest.update(measure_distance(m1, m2).hex().encode())
        sp = tm.gen_space(96, rng)
        for _ in range(4):
            m1, m2 = (tm.gen_measure(sp, 32, rng, min_support=16) for _ in range(2))
            assert m1.support_size * m2.support_size >= VECTOR_CELL_CUTOFF
            digest.update(measure_distance(m1, m2).hex().encode())
        small = [tm.gen_measure(sp, 3, rng) for _ in range(7)]
        assert 21 * 3 * 3 < VECTOR_CELL_CUTOFF
        digest.update(tm.lift(sp, small).dist.tobytes())
        big = [tm.gen_measure(sp, 64, rng) for _ in range(12)]
        digest.update(tm.lift(sp, big).dist.tobytes())
        digest.update(tm.lift_extend(tm.lift(sp, big[:5]), big[5:]).dist.tobytes())
    assert digest.hexdigest() == MUTANT_DIGESTS[name]


def test_a_large_support_lift_stays_within_its_memory():
    # One lift shaped like the benchmark's distance_matrix: 24 measures of
    # supports 16..256 on a 512-point space.  Its tracemalloc peak was
    # 2 518 419 bytes when the fill was tiled; more means larger, whole-call
    # or concurrent temporaries.
    rng = np.random.default_rng(32)
    sp = tm.gen_space(512, rng)
    diam = sp.truncation_diam
    strata = (np.arange(24) + rng.uniform(size=24)) / 24
    sizes = np.rint(16 * 16 ** rng.permutation(strata)).astype(int)
    mus = [_measure(sp, rng.choice(512, size=int(n), replace=False),
                    rng.uniform(-diam / 4, 0.0, size=int(n))) for n in sizes]
    tracemalloc.start()
    try:
        tm.lift(sp, mus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_518_419


def test_measure_distances_rejects_a_bad_known():
    sp = tm.gen_space(5, np.random.default_rng(26))
    mus = [tm.dirac(sp, i) for i in range(3)]
    for known in ([[0.0, 1.0]], np.zeros(2), np.zeros((2, 3)), np.zeros((4, 4))):
        with pytest.raises(ValueError, match="known must be a square matrix"):
            transport.measure_distances(mus, known)
    with pytest.raises(ValueError, match="known must be a square matrix"):
        transport.measure_distances([], [[0.0]])


def test_measure_distances_of_no_pairs_is_empty():
    # one measure has no pair, and no measure gives an empty matrix
    sp = tm.gen_space(5, np.random.default_rng(27))
    for mus, known in (([], None), ([], np.zeros((0, 0))), ([tm.dirac(sp, 1)], None),
                       ([tm.dirac(sp, 1)], [[0.0]])):
        got = transport.measure_distances(mus, known)
        assert got.dtype == float and got.tolist() == [[0.0]] * len(mus)
        assert got.shape == (len(mus), len(mus))


def test_lifted_finite_sets_are_at_their_hausdorff_distance(blocks):
    # A measure with weight 0 on every atom is the finite set A of its
    # atoms; every pair dominates, so the metric is min(diam, Hausdorff),
    # here from plain numpy, sharing no code with the sweep.  Small sets
    # on 2-8 points take the loop; sets of 16-63 of 64 points take the
    # sweep, with a block budget of 256 cells that makes many blocks.  All
    # weights tie, so every witness is at least as heavy as every row of
    # its block and no column is masked.
    rng = np.random.default_rng(30)

    def check(sp, sizes):
        sets = [tm.make_measure(sp, [(int(a), 0.0) for a in
                                     rng.choice(len(sp), size=int(k), replace=False)])
                for k in sizes]
        half = len(sets) // 2
        base = tm.lift(sp, sets[:half])
        calls = [blocks["call"](lambda: tm.lift(sp, sets)),
                 blocks["call"](lambda: tm.lift_extend(base, sets[half:]))]
        for L, swept_blocks, loop in calls:
            expected = np.zeros((len(L), len(L)))
            for i, a in enumerate(L.points):
                for j, b in enumerate(L.points):
                    d = sp.dist[np.ix_(a.atoms, b.atoms)]
                    h = max(d.min(axis=1).max(), d.min(axis=0).max())
                    expected[i, j] = min(sp.truncation_diam, h)
            assert L.dist.tobytes() == expected.tobytes()
            yield len(L), swept_blocks, loop

    looped = 0
    for _ in range(60):
        sp = tm.gen_space(int(rng.integers(2, 9)), rng)
        sizes = rng.integers(1, min(len(sp), 3) + 1, size=int(rng.integers(2, 6)))
        for _, swept_blocks, loop in check(sp, sizes):
            assert not swept_blocks
            looped += loop
    assert looped > 400  # R entries, two a pair: more than 200 loop pairs
    with pytest.MonkeyPatch.context() as m:
        m.setattr(transport, "_CHUNK_CELLS", 256)
        sp = tm.gen_space(64, rng)
        for _ in range(3):
            for n, swept_blocks, loop in check(sp, rng.integers(16, 64, size=10)):
                # the small budget splits the rows into many blocks, more than n - 1
                assert len(swept_blocks) > n - 1 and not loop
                assert not any(tail or over for _, tail, over in swept_blocks)


def test_threshold_search_matches_tiled_lifts_bitwise():
    # a second oracle that shares no proof with the sweep, at the
    # large supports the brute force cannot reach
    rng = np.random.default_rng(28)
    sp = tm.gen_space(300, rng)
    diam = sp.truncation_diam
    sizes = np.rint(np.exp(rng.uniform(np.log(16), np.log(256), size=10))).astype(int)
    for make in (_exact_size_measure, _grid_measure):
        mus = [make(sp, int(n), rng) for n in [16, 256, *sizes]]
        d = tm.lift(sp, mus).dist
        for j in range(len(mus)):
            for i in range(j):
                h = transport.bottleneck_distance_threshold(mus[i], mus[j])
                assert d[i, j].hex() == min(h, diam).hex()
                assert h.hex() == bottleneck_distance(mus[i], mus[j]).hex()


def test_threshold_search_agrees_with_bruteforce():
    rng = np.random.default_rng(29)
    for i in range(200):
        sp = tm.gen_space(int(rng.integers(4, 7)), rng)
        if i % 2:
            m1, m2 = (tm.gen_measure(sp, 4, rng) for _ in range(2))
        else:
            m1, m2 = (_grid_measure(sp, int(rng.integers(1, 5)), rng) for _ in range(2))
        h = transport.bottleneck_distance_threshold(m1, m2)
        assert h.hex() == bottleneck_distance_bruteforce(m1, m2).hex()


@pytest.mark.parametrize("make", [_exact_size_measure, _grid_measure])
def test_bruteforce_agrees_with_threshold_across_chunks(make):
    # up to the 20-cell guard the masks span several chunks; a 1 x n pair
    # has one feasible pattern, the full one, which is the last mask, and
    # a Dirac pair has a single mask
    rng = np.random.default_rng(33)
    sp = tm.gen_space(24, rng)
    for n1, n2 in [(1, 1), (1, 20), (2, 10), (3, 6), (4, 4), (4, 5), (5, 4)]:
        m1, m2 = make(sp, n1, rng), make(sp, n2, rng)
        assert (m1.support_size, m2.support_size) == (n1, n2)
        h = transport.bottleneck_distance_threshold(m1, m2)
        assert h.hex() == bottleneck_distance_bruteforce(m1, m2).hex()


def test_the_bruteforce_oracle_stays_within_its_memory():
    # a 4 x 4 pair and a 4 x 5 pair at the guard: a table of all 2^cells
    # patterns at once peaked at 10.8 MiB and 209 MiB; chunks of masks keep
    # every table to cells x _ORACLE_CHUNK entries
    rng = np.random.default_rng(34)
    sp = tm.gen_space(8, rng)
    for n1, n2 in [(4, 4), (4, 5)]:
        m1, m2 = _exact_size_measure(sp, n1, rng), _exact_size_measure(sp, n2, rng)
        tracemalloc.start()
        try:
            bottleneck_distance_bruteforce(m1, m2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


def test_pattern_monotonicity_sample(worked):
    # adding a pair to a feasible pattern never decreases its worst cost
    _, m1, m2 = worked
    cells = list(itertools.product(range(2), range(2)))
    for r in range(1, 5):
        for sub in itertools.combinations(cells, r):
            if not pattern_feasible(sub, m1, m2):
                continue
            base = max(cost(j, k, m1, m2) for j, k in sub)
            for extra in cells:
                if extra in sub:
                    continue
                grown = max(cost(j, k, m1, m2) for j, k in (*sub, extra))
                assert grown >= base


def test_symmetry_is_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(300):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        m1 = tm.gen_measure(sp, 4, rng)
        m2 = tm.gen_measure(sp, 4, rng)
        assert measure_distance(m1, m2) == measure_distance(m2, m1)


def test_rho_zero_iff_structurally_equal():
    rng = np.random.default_rng(15)
    for _ in range(300):
        sp = tm.gen_space(4, rng)
        m1 = tm.gen_measure(sp, 4, rng)
        m2 = tm.gen_measure(sp, 4, rng)
        d = measure_distance(m1, m2)
        assert (d == 0.0) == (m1 == m2)


def test_triangle_inequality_sample():
    rng = np.random.default_rng(16)
    for _ in range(400):
        sp = tm.gen_space(int(rng.integers(3, 7)), rng)
        a, b, c = (tm.gen_measure(sp, 4, rng) for _ in range(3))
        assert measure_distance(a, c) <= (
            measure_distance(a, b) + measure_distance(b, c) + 1e-9
        )


def test_space_mismatch_rejected(worked):
    sp, m1, _ = worked
    other = tm.FiniteMetricSpace(["a", "b"], [[0, 2], [2, 0]])
    m_other = tm.dirac(other, "a")
    with pytest.raises(tm.SpaceMismatchError):
        bottleneck_distance(m1, m_other)
    with pytest.raises(tm.SpaceMismatchError):
        measure_distance(m1, m_other)


# Findings, not fixes: the metric as implemented charges a weight gap in
# full however far below the maximum it lies, so on the path a-b-c
# (distances 1, 1 and 2) it separates measures that every phi in [-1, 1]
# evaluates alike, and a map moving points by 1 can move a measure by more.


@pytest.fixture
def path3():
    return tm.FiniteMetricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def _mu_t(space, t):
    return tm.make_measure(space, [("a", -float(t)), ("b", 0.0)])


@pytest.mark.parametrize("t", [3, 4, 10])
def test_weak_limit_stays_at_the_diameter(t, path3):
    mu, delta_b = _mu_t(path3, t), tm.dirac(path3, "b")
    assert measure_distance(mu, delta_b) == 2.0
    assert bottleneck_distance(mu, delta_b) == t + 1
    assert bottleneck_distance_bruteforce(mu, delta_b) == t + 1
    rng = np.random.default_rng(t)
    for _ in range(200):
        phi = tm.FunctionOnSpace(path3, tuple(rng.uniform(-1, 1, 3)))
        assert tm.evaluate(mu, phi) == tm.evaluate(delta_b, phi)


def test_weak_limit_sequence_is_diameter_separated(path3):
    sequence = [_mu_t(path3, t) for t in range(2, 11, 2)]
    d = tm.lift(path3, sequence).dist
    assert d.shape == (5, 5)
    assert (d[~np.eye(5, dtype=bool)] == 2.0).all()
    for (i, m1), (j, m2) in itertools.permutations(enumerate(sequence), 2):
        assert min(bottleneck_distance_bruteforce(m1, m2), 2.0) == d[i, j]


def test_retraction_moving_points_by_1_moves_a_measure_by_1_5(path3):
    retract = {"a": "a", "b": "a", "c": "c"}
    assert max(path3.dist[path3.index(x), path3.index(y)] for x, y in retract.items()) == 1.0
    mu = tm.make_measure(path3, [("a", -1.5), ("b", 0.0)])
    image = tm.pushforward(retract, mu)
    assert image == tm.dirac(path3, "a")
    assert measure_distance(mu, image) == 1.5
    assert bottleneck_distance_bruteforce(mu, image) == 1.5


def test_known_failure_pushforward_under_a_non_expanding_map_expands_rho(path3):
    # the smallest case where rho is not non-expanding: f is 1-Lipschitz,
    # yet the images lie twice as far apart as mu and nu
    f = {"a": "a", "b": "a", "c": "b"}
    for x in f:
        for y in f:
            assert (path3.dist[path3.index(f[x]), path3.index(f[y])]
                    <= path3.dist[path3.index(x), path3.index(y)])
    mu = tm.make_measure(path3, [("a", 0.0), ("b", -1.0)])
    nu = tm.make_measure(path3, [("a", 0.0), ("c", -1.0)])
    assert measure_distance(mu, nu) == bottleneck_distance_bruteforce(mu, nu) == 1.0
    fmu, fnu = tm.pushforward(f, mu), tm.pushforward(f, nu)
    assert fmu == tm.dirac(path3, "a")
    assert measure_distance(fmu, fnu) == bottleneck_distance_bruteforce(fmu, fnu) == 2.0
