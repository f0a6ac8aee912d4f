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
:func:`measure_distances` takes many pairs at once, in tiles.  Pairs are
taken by row measure; a run of row measures gathers its ground rows
(rows of the distance matrix) once, as one block, and is paired with
chunks of the column measures it meets, their weights and atoms
concatenated along the contiguous axis.  The kernel masks the costs
``|w2[k] - w1[j]| + d(x1[j], x2[k])`` of a tile by weight dominance and
reduces them per measure: a minimum over each row's entries of a column
measure, a maximum over each row measure's entries, and likewise for the
columns.  One rule picks the path: a tile of at least
``VECTOR_CELL_CUTOFF`` cells (ground rows x column entries) goes to the
kernel, a smaller one takes the loop.  :func:`bottleneck_distance` is a
one-pair tile.  Both paths perform the same float operations on each
cell, and min and max do no rounding, so neither the tiling nor the path
changes a bit of the result.

:func:`bottleneck_distance_bruteforce` enumerates all support patterns
with independent feasibility filtering and exists to keep this argument
honest in tests; :func:`bottleneck_distance_threshold`, a threshold
search, does the same at supports the enumeration cannot reach.
"""

import math
from itertools import groupby

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

#: Cells of a tile (ground rows x column entries) from which the numpy
#: kernel takes over from the scalar loop, near the break-even of the two
#: paths.  Loop/kernel time ratios of one tile, best of 15 on a 2-vCPU
#: Xeon VM (Python 3.11, numpy 2.4): one pair 0.12x at 4x4, 0.3x at 8x8,
#: 0.8x at 16x16, 1.4x at 24x24, 2.4x at 32x32, 15x at 256x256; 256 cells
#: as a 2-entry row measure against 64 of 2 entries, 4 against 16 of 4 or
#: 8 against 4 of 8: 6x, 2.6x, 1.05x; 512 cells 2.2x-11x.  A call whose
#: pair count times its largest support squared stays below this takes the
#: loop without tiling; tiling a call costs about 130 us, so a call of 256
#: cells runs 0.5x-0.9x as fast through tiles as through the loop.
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
    so a defect in the kernels cannot bend it too.
    """
    _same_space(mu1, mu2)
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

    A pair of at least VECTOR_CELL_CUTOFF cells is a one-pair tile for the
    numpy kernel, a smaller one takes the scalar loop; both give the same
    float, bit for bit.
    """
    _same_space(mu1, mu2)
    if mu1.support_size * mu2.support_size >= VECTOR_CELL_CUTOFF:
        return float(_witness_kernel(
            np.array(mu1.weights), mu1.ground.dist.take(mu1.atoms, axis=0),
            [(mu1.support_size, 1)], np.array(mu2.weights), np.array(mu2.atoms),
            [(mu2.support_size, 1)])[0, 0])
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


def _blocks(n):
    """(size, count) of each run of equal support sizes in ``n``."""
    cut = [0, *(np.flatnonzero(n[1:] != n[:-1]) + 1).tolist(), len(n)]
    return [(int(n[a]), b - a) for a, b in zip(cut, cut[1:])]


def _per_measure(ufunc, a, blocks, axis):
    """``ufunc`` over the entries of each measure along ``axis`` of ``a``,
    where the measures stand one after another in ``blocks``."""
    # Along axis 0 a block is one reduce over the middle axis of (count,
    # size, columns).  Along axis 1 a reduce over a short last axis pays per
    # measure, so a block of many short measures takes one ufunc call per
    # entry slot instead, and a stretch of few long measures one reduceat.
    parts, at = [], 0
    for long, group in groupby(blocks, lambda b: axis == 1 and b[0] > b[1]):
        group = list(group)
        if long:
            n = np.repeat([size for size, _ in group], [count for _, count in group])
            parts.append(ufunc.reduceat(a[:, at:at + n.sum()], np.cumsum(n) - n, axis=1))
            at += n.sum()
            continue
        for size, count in group:
            part = a[at:at + size * count] if axis == 0 else a[:, at:at + size * count]
            at += size * count
            if axis == 0:
                parts.append(ufunc.reduce(part.reshape(count, size, -1), axis=1))
                continue
            acc = part[:, ::size]
            for t in range(1, size):
                acc = ufunc(acc, part[:, t::size])
            parts.append(acc)
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=axis)


def _witness_kernel(w1, d1, blocks1, w2, a2, blocks2):
    """Transport values of one tile, shape (row measures, column measures).

    The row measures' weights ``w1`` and ground rows ``d1`` (rows of the
    distance matrix) and the column measures' weights ``w2`` and atoms
    ``a2`` stand one measure after another, in ``blocks1`` and ``blocks2``
    of equal support size (see :func:`_blocks`).
    """
    # g = wk - wj is the scalar loop's own subtraction, and |g| is exactly
    # wk - wj where g >= 0 and exactly wj - wk where g <= 0 (a tie gives
    # +0.0 either way), so every masked cost |g| + d equals the loop's
    # bitwise; min and max do no rounding, so the layout moves no bit.
    g = w2 - w1[:, None]
    ge, le = g >= 0, g <= 0
    c = np.abs(g, out=g)
    c += d1.take(a2, axis=1)
    rows = _per_measure(np.minimum, np.where(ge, c, math.inf), blocks2, 1)
    rows = _per_measure(np.maximum, rows, blocks1, 0)
    cols = _per_measure(np.minimum, np.where(le, c, math.inf), blocks1, 0)
    cols = _per_measure(np.maximum, cols, blocks2, 1)
    return np.maximum(rows, cols)


def _entries(sizes, off, ms):
    """Positions of the entries of measures ``ms``, one measure after
    another, in entry arrays where measure m starts at ``off[m]``."""
    n = sizes[ms]
    o = np.cumsum(n) - n
    return np.arange(o[-1] + n[-1]) + np.repeat(off[ms] - o, n)


def _tiled(measures, sizes, rows, cols, loop):
    """Transport values of the pairs (rows[p], cols[p]), sorted by row."""
    ground = measures[0].ground
    # each measure's entries by weight, heaviest first: np.where branches
    # per cell, and so a tile row's dominance masks change only once per
    # column measure
    weights = np.array([w for mu in measures for w in mu.weights])
    atoms = np.array([a for mu in measures for a in mu.atoms])
    by_weight = np.lexsort((-weights, np.repeat(np.arange(len(measures)), sizes)))
    weights, atoms = weights[by_weight], atoms[by_weight]
    off = np.cumsum(sizes) - sizes
    heads = np.array([0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1), len(rows)])
    tall = np.cumsum([0, *sizes[rows[heads[:-1]]]])
    per_row = np.diff(heads)
    column = np.full(len(measures), -1)
    out = np.empty(len(rows))
    h = 0
    while h < len(heads) - 1:
        # A run: row measure h, its columns (by support size), and the next
        # rows whose columns are among them, while the run's ground rows
        # times those columns' entries (or the ground's points, for the
        # block of ground rows) stay within _CHUNK_CELLS.
        lo = heads[h]
        cs = np.unique(cols[lo:heads[h + 1]])
        cs = cs[np.argsort(sizes[cs], kind="stable")]
        n2 = sizes[cs]
        limit = tall[h] + _CHUNK_CELLS // max(int(n2.sum()), len(ground))
        e = max(h + 1, int(np.searchsorted(tall, limit, "right")) - 1)
        column[cs] = np.arange(len(cs))
        cpos = column[cols[lo:heads[e]]]
        column[cs] = -1
        if (cpos < 0).any():
            e = int(np.searchsorted(heads, lo + np.argmax(cpos < 0), "right")) - 1
        hi = heads[e]
        cpos = cpos[:hi - lo]
        run = rows[heads[h:e]]
        by_size = np.argsort(sizes[run], kind="stable")
        rank = np.empty(len(run), dtype=np.intp)
        rank[by_size] = np.arange(len(run))
        at = np.repeat(rank * len(cs), per_row[h:e]) + cpos
        run = run[by_size]
        i1, i2 = _entries(sizes, off, run), _entries(sizes, off, cs)
        w1, d1, blocks1 = weights[i1], ground.dist.take(atoms[i1], axis=0), _blocks(sizes[run])
        # the run's tiles: its columns in chunks of at most about
        # _CHUNK_CELLS cells, one ground-row block for them all
        ends = np.cumsum(n2)
        q = (ends - 1) // max(1, _CHUNK_CELLS // len(i1))
        bounds = [0, *(np.flatnonzero(q[1:] != q[:-1]) + 1).tolist(), len(cs)]
        res = np.empty((len(run), len(cs)))
        for k0, k1 in zip(bounds, bounds[1:]):
            a, b = ends[k0] - n2[k0], ends[k1 - 1]
            if len(i1) * (b - a) < VECTOR_CELL_CUTOFF:
                sel = (cpos >= k0) & (cpos < k1)
                res.flat[at[sel]] = loop(rows[lo:hi][sel], cols[lo:hi][sel])
            else:
                res[:, k0:k1] = _witness_kernel(w1, d1, blocks1, weights[i2[a:b]],
                                                atoms[i2[a:b]], _blocks(n2[k0:k1]))
        out[lo:hi] = res.ravel().take(at)
        h = e
    return out


def measure_distances(measures, rows, cols) -> np.ndarray:
    """``measure_distance(measures[i], measures[j])`` for every pair (i, j)
    of ``rows`` and ``cols``, bit for bit, as one float array; the measures
    must share one space.

    Pairs are taken by row measure.  A run of row measures gathers its
    ground rows once and is paired with chunks of its column measures: the
    tiles.  A tile of at least VECTOR_CELL_CUTOFF cells (ground rows x
    column entries) goes through the numpy kernel, a smaller one through
    the scalar loop.  Unequal ``rows`` and ``cols`` raise ValueError; no
    pairs give an empty array.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ValueError("rows and cols must be index lists of one length, "
                         f"got shapes {rows.shape} and {cols.shape}")
    for mu in measures:
        _same_space(measures[0], mu)
    if not len(rows):
        return np.empty(0)

    def loop(i, j):
        return [_witness_loop(measures[a], measures[b])
                for a, b in zip(i.tolist(), j.tolist())]

    sizes = [mu.support_size for mu in measures]
    if len(rows) * max(sizes) ** 2 < VECTOR_CELL_CUTOFF:
        # too little work to pay for tiling: every pair takes the loop
        out = np.array(loop(rows, cols), dtype=float)
    else:
        out = np.empty(len(rows))
        order = np.argsort(rows, kind="stable") if (rows[1:] < rows[:-1]).any() else slice(None)
        out[order] = _tiled(measures, np.array(sizes), rows[order], cols[order], loop)
    d = measures[0].ground.truncation_diam
    return np.where(out <= d, out, d)


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
