"""The bottleneck transport metric on idempotent measures.

A coupling of two finite-support measures is a measure on the product
space whose pushforwards under the two projections recover the operands.
Its support pattern is the set of atom-index pairs carrying finite
weight, and the cost of a pair (j, k) is the absolute weight gap plus the
ground distance:  |w2[k] - w1[j]| + d(x1[j], x2[k]).  The transport value
is the minimum over couplings of the worst pair cost, and the measure
metric truncates it at the space diameter.

Because pair costs depend only on the support pattern and the marginal
weights, the minimum runs over feasible patterns, never over the
continuum of weight assignments.  The fast path avoids enumeration with a
witness argument:

* any feasible pattern must contain, in each row j, a pair whose second
  weight dominates (w2[k] >= w1[j]) -- otherwise the row marginal cannot
  be attained, since pair weights are capped at min(w1[j], w2[k]) -- and
  symmetrically a dominating pair per column;
* the worst cost of a feasible pattern is therefore at least the best
  witness cost of every row and column;
* the union of per-row and per-column best witnesses is itself feasible
  and attains that bound exactly.

Hence the transport value equals
``max(max_j min-witness-cost(row j), max_k min-witness-cost(col k))``.
Witness sets are never empty because normalization gives both measures a
weight-0 atom.

This is evaluated by one numpy kernel or one scalar double loop.
:func:`measure_distances` fills the distance matrix of a list of
measures, copying a known block of its first measures, and one rule
picks the path of a call: when its count of new pairs times its largest
support squared stays below ``VECTOR_CELL_CUTOFF``, every pair takes the
loop, and otherwise every pair goes through the kernel, in tiles.  Row i
holds the columns from max(i + 1, known) on, a suffix of the list, so a
run of row measures is paired with its first row's columns; it gathers
its ground rows (rows of the distance matrix) once, as one block, and
takes the columns in chunks, each side's weights and atoms a slice of
one entry array.  The kernel masks the costs
``|w2[k] - w1[j]| + d(x1[j], x2[k])`` of a tile by weight dominance and
reduces them by segments, one ``reduceat`` a step: a minimum over each
row's entries of a column measure, a maximum over each row measure's
entries, and likewise for the columns.  :func:`bottleneck_distance` is
one pair: at least ``VECTOR_CELL_CUTOFF`` cells make it a one-pair tile.
Both paths perform the same float operations on each cell, and min and
max do no rounding, so neither the tiling nor the path changes a bit of
the result.

:func:`bottleneck_distance_bruteforce` enumerates all support patterns
with independent feasibility filtering and exists to keep this argument
honest in tests; :func:`bottleneck_distance_threshold`, a threshold
search, does the same at supports the enumeration cannot reach.
"""

import math

import numpy as np

from .measures import IdempotentMeasure, SpaceMismatchError, _resolve_atom

__all__ = [
    "cost",
    "pattern_feasible",
    "bottleneck_distance",
    "bottleneck_distance_bruteforce",
    "bottleneck_distance_threshold",
    "ORACLE_CELL_LIMIT",
    "VECTOR_CELL_CUTOFF",
    "measure_distance",
    "measure_distances",
    "distance_to_dirac",
    "distance_to_diracs",
]

#: Size guard for exhaustive pattern enumeration (support product).
ORACLE_CELL_LIMIT = 20

#: Work below which the scalar loop beats the numpy kernel: a pair of
#: fewer cells (support sizes multiplied) takes the loop in
#: bottleneck_distance, and so does every pair of a measure_distances call
#: whose count of new pairs times its largest support squared stays below it.
#: Loop/kernel time ratios, best of 15 on a 2-vCPU Xeon VM (Python 3.11,
#: numpy 2.4): one pair in bottleneck_distance 0.66x at 8x8, 1.6x at
#: 16x16, 2.5x at 24x24, 3.6x at 32x32, 7x at 256x256; a whole
#: measure_distances call of k pairs, one measure against k others, at 256
#: cells 0.39x (1 of 16x16), 0.48x (4 of 8x8), 0.67x (16 of 4x4), 1.0x
#: (64 of 2x2), at 1024 cells 1.0x (4 of 16x16), 1.3x (16 of 8x8), 1.5x
#: (64 of 4x4).  Tiling costs a call about 100 us, so a call breaks even
#: nearer 1024 cells; the one constant keeps the break-even of a pair.
VECTOR_CELL_CUTOFF = 256

#: Cells per tile, bounding the kernel's temporaries; a run's block of
#: ground rows is bounded alike.  Of 2^14 to 2^18, 2^16 ran the benchmark's
#: distance_matrix lifts fastest.
_CHUNK_CELLS = 1 << 16


def _same_space(mu1: IdempotentMeasure, mu2: IdempotentMeasure):
    if mu1.ground is not mu2.ground:
        raise SpaceMismatchError("measures live on different spaces")


def cost(j: int, k: int, mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Pair cost |w2[k] - w1[j]| + d(x1[j], x2[k]).

    A reference for tests and witness certificates: no defect patches it,
    so a defect in the kernels cannot bend it too.  An entry index out of
    range raises ValueError, as in :func:`pattern_feasible`.
    """
    _same_space(mu1, mu2)
    if not (0 <= j < len(mu1.weights) and 0 <= k < len(mu2.weights)):
        raise ValueError(f"pair ({j}, {k}) out of range")
    gap = abs(mu2.weights[k] - mu1.weights[j])
    return gap + mu1.ground._rows[mu1.atoms[j]][mu2.atoms[k]]


def pattern_feasible(pattern, mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> bool:
    """Whether a pattern, any iterable of (j, k) pairs of entry indices into
    mu1 and mu2, supports some coupling.

    This is the feasibility test of the plain pattern enumeration that the
    tests hold the brute-force oracle to, and the check a witness
    certificate (a set of pairs scored by :func:`cost`) would use.  Decided
    by the maximal construction: put gamma = min(w1[j], w2[k]) on every
    pair of the pattern (no feasible coupling can exceed this) and check
    that both families of marginals are attained.  An empty pattern is
    infeasible; a pair out of range raises ValueError.
    """
    _same_space(mu1, mu2)
    rel = frozenset((int(j), int(k)) for j, k in pattern)
    if not rel:
        return False
    w1, w2 = mu1.weights, mu2.weights
    n1, n2 = len(w1), len(w2)
    rowmax = [-math.inf] * n1
    colmax = [-math.inf] * n2
    for j, k in rel:
        if not (0 <= j < n1 and 0 <= k < n2):
            raise ValueError(f"pair ({j}, {k}) out of range")
        g = min(w1[j], w2[k])
        if g > rowmax[j]:
            rowmax[j] = g
        if g > colmax[k]:
            colmax[k] = g
    return all(rowmax[j] == w1[j] for j in range(n1)) and all(
        colmax[k] == w2[k] for k in range(n2)
    )


def bottleneck_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Min over couplings of the worst pair cost, via the witness bound.

    A pair of at least VECTOR_CELL_CUTOFF cells (support sizes multiplied)
    is a one-pair tile for the numpy kernel, a smaller one takes the
    scalar loop; both give the same float, bit for bit.
    """
    _same_space(mu1, mu2)
    if mu1.support_size * mu2.support_size >= VECTOR_CELL_CUTOFF:
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            return float(_witness_kernel(
                np.array(mu1.weights), mu1.ground.dist.take(mu1.atoms, axis=0), [0],
                np.array(mu2.weights), np.array(mu2.atoms), [0])[0, 0])
    return _witness_loop(mu1, mu2)


def _witness_loop(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    w1, w2 = mu1.weights, mu2.weights
    p1 = [mu1.ground._rows[a] for a in mu1.atoms]
    a2 = mu2.atoms

    rows = -math.inf
    for j, wj in enumerate(w1):
        dj = p1[j]
        m = math.inf
        for k, wk in enumerate(w2):
            if wk >= wj:
                # gap is nonnegative here, so |wk - wj| == wk - wj exactly
                c = (wk - wj) + dj[a2[k]]
                if c < m:
                    m = c
        if m > rows:
            rows = m
    cols = -math.inf
    for k, wk in enumerate(w2):
        m = math.inf
        for j, wj in enumerate(w1):
            if wj >= wk:
                c = (wj - wk) + p1[j][a2[k]]
                if c < m:
                    m = c
        if m > cols:
            cols = m
    return max(rows, cols)


def _witness_kernel(w1, d1, starts1, w2, a2, starts2):
    """Transport values of one tile, shape (row measures, column measures).

    The row measures' weights ``w1`` and ground rows ``d1`` (rows of the
    distance matrix) and the column measures' weights ``w2`` and atoms
    ``a2`` stand one measure after another; measure m of each side starts
    at entry ``starts1[m]`` or ``starts2[m]``.
    """
    # g = wk - wj is the scalar loop's own subtraction, and |g| is exactly
    # wk - wj where g >= 0 and exactly wj - wk where g <= 0 (a tie gives
    # +0.0 either way), so every masked cost |g| + d equals the loop's
    # bitwise; min and max do no rounding, so the layout moves no bit.
    g = w2 - w1[:, None]
    ge, le = g >= 0, g <= 0
    c = np.abs(g, out=g)
    c += d1.take(a2, axis=1)
    rows = np.minimum.reduceat(np.where(ge, c, math.inf), starts2, axis=1)
    rows = np.maximum.reduceat(rows, starts1, axis=0)
    cols = np.minimum.reduceat(np.where(le, c, math.inf), starts1, axis=0)
    cols = np.maximum.reduceat(cols, starts2, axis=1)
    return np.maximum(rows, cols)


def _tiled(measures, old, dmat):
    """Write into ``dmat`` the transport values of the pairs (i, j), i < j
    and j >= old, above the diagonal; a tile of several row measures also
    writes on and below it."""
    ground = measures[0].ground
    n = len(measures)
    sizes = [mu.support_size for mu in measures]
    # each measure's entries by weight, heaviest first: np.where branches
    # per cell, and so a tile row's dominance masks change only once per
    # column measure
    weights = np.array([w for mu in measures for w in mu.weights])
    atoms = np.array([a for mu in measures for a in mu.atoms])
    by_weight = np.lexsort((-weights, np.repeat(np.arange(n), sizes)))
    weights, atoms = weights[by_weight], atoms[by_weight]
    # measure m's entries are weights[off[m]:off[m + 1]], and so are a run's
    off = np.cumsum([0, *sizes])
    h = 0
    while h < n - 1:
        # A run: row measure h, its columns first..n-1, which hold the
        # columns of every later row, and the next rows, while the run's
        # entries times those columns' entries (or the ground's points, for
        # the block of ground rows) stay within _CHUNK_CELLS.
        first = max(h + 1, old)
        limit = off[h] + _CHUNK_CELLS // max(int(off[n] - off[first]), len(ground))
        e = max(h + 1, int(np.searchsorted(off[:-1], limit, "right")) - 1)
        w1, d1 = weights[off[h]:off[e]], ground.dist.take(atoms[off[h]:off[e]], axis=0)
        # the run's tiles: its columns in chunks of at most about
        # _CHUNK_CELLS cells, one ground-row block for them all
        q = (off[first + 1:] - off[first] - 1) // max(1, _CHUNK_CELLS // len(w1))
        bounds = [first, *(np.flatnonzero(q[1:] != q[:-1]) + first + 1).tolist(), n]
        for k0, k1 in zip(bounds, bounds[1:]):
            a, b = off[k0], off[k1]
            dmat[h:e, k0:k1] = _witness_kernel(w1, d1, off[h:e] - off[h], weights[a:b],
                                               atoms[a:b], off[k0:k1] - a)
        h = e


def measure_distances(measures, known=None) -> np.ndarray:
    """The matrix of ``measure_distance`` between every two of
    ``measures``, bit for bit; the measures must share one space.
    ``known``, the matrix of the first ``len(known)`` measures, is copied,
    not recomputed; a ``known`` that is not square, or larger than the
    list, raises ValueError.

    One rule picks the path of a call: when the count of new pairs (those
    with a measure past ``known``) times the largest support squared stays
    below VECTOR_CELL_CUTOFF, every pair takes the scalar loop.  Otherwise
    pairs are taken by row measure; a run of row measures gathers its
    ground rows once and is paired with chunks of its column measures, and
    every such tile goes through the numpy kernel.  Either way a pair
    (i, j) is computed with i < j as the row side, and the matrix is
    mirrored once at the end.
    """
    n, old = len(measures), 0 if known is None else len(known)
    if known is not None and (np.shape(known) != (old, old) or old > n):
        raise ValueError(f"known must be a square matrix of at most {n} measures, "
                         f"got shape {np.shape(known)}")
    for mu in measures:
        _same_space(measures[0], mu)
    dmat = np.zeros((n, n))
    if not n:
        return dmat
    if old:
        dmat[:old, :old] = known
    pairs = n * (n - 1) // 2 - old * (old - 1) // 2
    if pairs * max(mu.support_size for mu in measures) ** 2 < VECTOR_CELL_CUTOFF:
        # too little work to pay for tiling: every pair takes the loop
        for j in range(old, n):
            for i in range(j):
                dmat[i, j] = _witness_loop(measures[i], measures[j])
    else:
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            _tiled(measures, old, dmat)
    # a tile of several row measures also wrote below the diagonal, where
    # the new rows take the mirror of their pairs, and on it, where the
    # value of a measure against itself is 0 (each witness minimum is that
    # of an atom against itself)
    low = np.tri(n, k=-1, dtype=bool)
    low[:old] = False
    dmat[low] = dmat.T[low]
    d = measures[0].ground.truncation_diam
    return np.where(dmat <= d, dmat, d)


def bottleneck_distance_bruteforce(mu1: IdempotentMeasure,
                                   mu2: IdempotentMeasure) -> float:
    """Exhaustive reference value: minimum worst pair cost over all
    feasible support patterns.

    Enumerates every nonempty subset of the support-pair grid as a cells x
    masks table, filters by the maximal-coupling marginal check, and
    minimizes the pattern's worst cost, each maximum taken over the short
    axis 0.  Test oracle only; guarded to ORACLE_CELL_LIMIT grid cells.
    """
    _same_space(mu1, mu2)
    w1 = np.array(mu1.weights)
    w2 = np.array(mu2.weights)
    n1, n2 = len(w1), len(w2)
    cells = n1 * n2
    if cells > ORACLE_CELL_LIMIT:
        raise ValueError(
            f"support product {n1}x{n2} exceeds the enumeration guard "
            f"({ORACLE_CELL_LIMIT} cells)"
        )
    dsub = mu1.ground.dist[np.ix_(mu1.atoms, mu2.atoms)]
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        costs = (np.abs(w2[None, :] - w1[:, None]) + dsub).ravel()
    caps = np.minimum(w1[:, None], w2[None, :]).ravel()

    masks = np.arange(1, 1 << cells, dtype=np.uint32)
    bits = ((masks[None, :] >> np.arange(cells, dtype=np.uint32)[:, None]) & 1).astype(bool)

    feasible = np.ones(len(masks), dtype=bool)
    for j in range(n1):
        sel = bits[j * n2:(j + 1) * n2]
        rowmax = np.where(sel, caps[j * n2:(j + 1) * n2, None], -np.inf).max(axis=0)
        feasible &= rowmax == w1[j]
    for k in range(n2):
        sel = bits[k::n2]
        colmax = np.where(sel, caps[k::n2, None], -np.inf).max(axis=0)
        feasible &= colmax == w2[k]

    worst = np.where(bits, costs[:, None], -np.inf).max(axis=0)
    return float(worst[feasible].min())


def bottleneck_distance_threshold(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Reference value by threshold search (Garfinkel, Oper. Res. 19, 1971).

    Adding pairs to a support pattern keeps it feasible, so the transport
    value is the least pair cost t whose pattern {cost <= t} is feasible; a
    binary search over the sorted distinct costs finds it, testing each
    pattern by the maximal-coupling marginal check of
    :func:`pattern_feasible`.  It shares no code and no proof with the
    witness kernel, yet returns one of the same float pair costs, so the
    two agree bitwise.  Test oracle; O(n1 n2 log(n1 n2)).
    """
    _same_space(mu1, mu2)
    w1, w2 = np.array(mu1.weights), np.array(mu2.weights)
    costs = np.abs(w2[None, :] - w1[:, None]) + mu1.ground.dist[np.ix_(mu1.atoms, mu2.atoms)]
    caps = np.minimum(w1[:, None], w2[None, :])
    levels = np.unique(costs)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        kept = np.where(costs <= levels[mid], caps, -math.inf)
        if (kept.max(axis=1) == w1).all() and (kept.max(axis=0) == w2).all():
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def measure_distance(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """The metric on measures: transport value truncated at the diameter."""
    h = bottleneck_distance(mu1, mu2)
    d = mu1.ground.truncation_diam
    return h if h <= d else d


def distance_to_dirac(mu: IdempotentMeasure, x0) -> float:
    """Closed form of the metric against a Dirac target.

    The coupling with a Dirac is unique, so the value is
    min(diam, max_i(|w_i| + d(x_i, x0))) with no optimization.  Must agree
    exactly with measure_distance(mu, dirac(x0)); tests enforce this.
    """
    x0i = _resolve_atom(mu.ground, x0)
    rows = mu.ground._rows
    h = max(abs(w) + rows[a][x0i] for a, w in zip(mu.atoms, mu.weights))
    d = mu.ground.truncation_diam
    return h if h <= d else d


def distance_to_diracs(mu: IdempotentMeasure) -> float:
    """Distance from ``mu`` to the set of all Dirac measures of its space."""
    return min(distance_to_dirac(mu, x) for x in range(len(mu.ground)))
