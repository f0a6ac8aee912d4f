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
``max(max_j min-witness-cost(row j), max_k min-witness-cost(col k))``,
computed in O(n1 n2).
Witness sets are never empty because normalization gives both measures a
weight-0 atom.

Per entry: rho(l, m), for an entry l (weight w_l, atom x_l) and a measure
m, is the least (w_k - w_l) + d(x_l, x_k) over the entries k of m with
w_k >= w_l, and R(i, j) the largest rho(l, j) over the entries l of
measure i: the row part of the pair (i, j), R(j, i) its column part, and
H(i, j) = max(R(i, j), R(j, i)).  A dominating gap is never negative and
a - b == -(b - a) exactly, so w_k - w_l is |w2 - w1| bit for bit on either
side.  d(x_l, x_k) is read from x_l's row, so the ground matrix must be
exactly symmetric: :func:`~tropmeas.spaces.validate` enforces it at level
0, and lifted matrices are mirrored.

R is computed by the loop or the sweep; H = max(R, R^T).  One rule picks
the path of a :func:`measure_distances` call: when its count of new pairs
times its largest support squared stays below ``VECTOR_CELL_CUTOFF``,
the loop gives R(i, j) and R(j, i) of every new pair; otherwise the sweep
gives R for the rows of the new measures against every measure and of
the old ones against the new ones (a known block is copied, never read).
The sweep takes the row entries heaviest first, in blocks.  The columns
at least as heavy as a block's heaviest row, its bulk, dominate all its
rows: no mask, no abs, and in each column measure a prefix of the
entries, so one ``np.minimum.reduceat`` gives rho by measure.  Only the
tail, the few lighter columns its lightest row still reaches, is masked.
:func:`bottleneck_distance` computes both sides of a pair by the sweep
at ``VECTOR_CELL_CUTOFF`` cells or more, by the loop below.  Both paths
do the same float operations on each witness cell, one subtraction and
one addition, and min and max do no rounding: no bit depends on the path.

:func:`bottleneck_distance_bruteforce` enumerates all support patterns
with independent feasibility filtering and exists to keep this argument
honest in tests; :func:`bottleneck_distance_threshold`, a threshold
search, does the same at supports the enumeration cannot reach.  The
enumeration scores each pattern through small tables of the patterns of
its cells, up to 8 cells a table: a 4x4 pair takes about 0.2 ms, a
20-cell pair, at the guard, about 1 ms and a tracemalloc peak of 1.1 MB
(2-vCPU Xeon VM).

The metric does not metrize the weak topology: the pair cost charges a
weight gap in full, however far below the maximum the atom lies.  On the
path a-b-c (distances 1, 1 and 2), let mu_t = {a: -t, b: 0}.  For t >= 3
every phi with values in [-1, 1] evaluates mu_t and delta_b alike, so
mu_t tends to delta_b in the weak (evaluation) topology, yet
H(mu_t, delta_b) = t + 1 and rho(mu_t, delta_b) stays at the diameter 2.
The measures mu_2, mu_4, ..., mu_10 are pairwise at rho 2, so I(X) under
rho is not compact, as the weak topology on a compactum would make it.
And a map that moves points by at most 1 can move a measure by more: the
retraction a, b -> a, c -> c sends {a: -1.5, b: 0} to delta_a at rho 1.5.
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

#: Work below which the scalar loop beats the numpy sweep: a pair of fewer
#: cells (support sizes multiplied) takes the loop in bottleneck_distance,
#: and so does every pair of a measure_distances call whose count of new
#: pairs times its largest support squared stays below it.  Loop/sweep
#: time ratios, best of 15 on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4), 64
#: points: one pair 0.09x at 8x8, 0.28x at 16x16, 0.5x at 24x24, 0.8x at
#: 32x32, 1.2x at 40x40, 7.4x at 256x256 (300 points); a measure_distances
#: call of one measure against k others, at 256 cells 0.28x (1 of 16x16),
#: 0.35x (4 of 8x8), 0.5x (16 of 4x4), 0.8x (64 of 2x2), at 1024 cells
#: 0.8x (4 of 16x16), 1.0x (16 of 8x8), 1.1x (64 of 4x4).  A sweep costs
#: about 50 us, so both break even nearer 1024 cells than 256.
VECTOR_CELL_CUTOFF = 256

#: Cells per block of the sweep, its rows times the columns they reach or
#: the ground's points if more, bounding its cost array and gathers.  2^16
#: ran distance_matrix lifts fastest, 2^15 as fast, 2^17 5% slower.
_CHUNK_CELLS = 1 << 16

#: Cells per chunk of :func:`bottleneck_distance_bruteforce`: a chunk
#: holds the 2^16 patterns of its first 16 cells, in two tables of 0.25
#: and 0.5 MB, for a tracemalloc peak of about 1.1 MB at the guard.
_ORACLE_CHUNK = 16


def _same_space(mu1: IdempotentMeasure, mu2: IdempotentMeasure):
    if mu1.ground is not mu2.ground:
        raise SpaceMismatchError("measures live on different spaces")


def cost(j: int, k: int, mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Pair cost |w2[k] - w1[j]| + d(x1[j], x2[k]).

    A reference for tests and witness certificates: no defect patches it,
    so a defect in the loop or the sweep cannot bend it too.  An entry
    index out of range raises ValueError, as in :func:`pattern_feasible`.
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
    """Min over couplings of the worst pair cost, via the witness bound:
    H = max(R(mu1, mu2), R(mu2, mu1)).

    A pair of at least VECTOR_CELL_CUTOFF cells (support sizes multiplied)
    computes each side's R by the sweep, a smaller one by the scalar loop;
    both give the same float, bit for bit.
    """
    _same_space(mu1, mu2)
    if mu1.support_size * mu2.support_size >= VECTOR_CELL_CUTOFF:
        entries = _entries([mu1, mu2])
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            r12 = _sweep(*entries, mu1.ground.dist, (0, 1), (1, 2))[0, 0]
            r21 = _sweep(*entries, mu1.ground.dist, (1, 2), (0, 1))[0, 0]
    else:
        r12, r21 = _row_loop(mu1, mu2), _row_loop(mu2, mu1)
    return float(max(r12, r21))


def _row_loop(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """R(mu1, mu2) (see the module docstring) by a scalar double loop."""
    w2, a2 = mu2.weights, mu2.atoms
    rows = mu1.ground._rows
    r = -math.inf
    for wj, aj in zip(mu1.weights, mu1.atoms):
        dj = rows[aj]
        m = math.inf
        for k, wk in enumerate(w2):
            if wk >= wj:
                # gap is nonnegative here, so |wk - wj| == wk - wj exactly
                c = (wk - wj) + dj[a2[k]]
                if c < m:
                    m = c
        if m > r:
            r = m
    return r


def _entries(measures):
    """The weights and atoms of every entry of ``measures``, one measure
    after another and each measure's heaviest first, the measure of each
    entry, and the offsets: measure m's entries are [off[m], off[m + 1])."""
    sizes = [mu.support_size for mu in measures]
    weights = np.array([w for mu in measures for w in mu.weights])
    atoms = np.array([a for mu in measures for a in mu.atoms])
    owner = np.repeat(np.arange(len(measures)), sizes)
    by_weight = np.lexsort((-weights, owner))  # keeps each entry's measure
    return weights[by_weight], atoms[by_weight], owner, np.cumsum([0, *sizes])


def _sweep(weights, atoms, owner, off, dist, rows, cols):
    """R[i, j] (see the module docstring) for the measures i in range(*rows)
    and j in range(*cols) of :func:`_entries`.  A block's bulk holds each
    measure's weight-0 entry; column order is measure order."""
    a, b = off[cols[0]], off[cols[1]]
    cw, ca, cown, starts = weights[a:b], atoms[a:b], owner[a:b] - cols[0], off[cols[0]:cols[1]] - a
    nc = cols[1] - cols[0]
    by_weight, rank = np.lexsort((-cw,)), np.empty(len(cw), int)
    rank[by_weight] = np.arange(len(cw))  # place in weight order, heaviest first
    a, b = off[rows[0]], off[rows[1]]
    order = np.lexsort((-weights[a:b],))
    rw, ra, rown = weights[a:b][order], atoms[a:b][order], (owner[a:b][order] - rows[0]) * nc
    # reach[p]: how many columns are at least as heavy as row p
    reach = np.searchsorted(-cw[by_weight], -rw, "right")
    width = np.maximum(reach, len(dist))  # a block's ground rows count too
    r, span = np.full((rows[1] - rows[0]) * nc, -math.inf), np.arange(nc)
    p = 0
    while p < len(rw):
        q = min(len(rw), p + max(1, _CHUNK_CELLS // width[p]))
        q = min(len(rw), p + max(1, _CHUNK_CELLS // width[q - 1]))
        hi, lo = reach[p], reach[q - 1]
        bulk, tail = np.flatnonzero(rank < hi), np.flatnonzero((rank >= hi) & (rank < lo))
        count = np.bincount(cown[tail], minlength=nc)  # each measure's tail columns
        has = np.flatnonzero(count)
        seg = np.concatenate((np.searchsorted(bulk, starts), hi + (np.cumsum(count) - count)[has]))
        pick = np.concatenate((bulk, tail))
        d = dist.take(ra[p:q], axis=0).take(ca[pick], axis=1)
        rho = _block(rw[p:q], d, cw[pick], seg, hi)
        # rho's first nc columns are the bulk minima, the rest the tail's
        rho[:, has] = np.minimum(rho[:, has], rho[:, nc:])
        np.maximum.at(r, (rown[p:q, None] + span).ravel(), rho[:, :nc].ravel())
        p = q
    return r.reshape(rows[1] - rows[0], nc)


def _block(wl, d, w, seg, tail):
    """Segment minima along each row of a block's costs: rows of weight
    ``wl``, columns of weight ``w``, ground distances ``d`` between them,
    segment m from ``seg[m]`` on; the columns from ``tail`` on, lighter
    than the first, heaviest row, are masked where they do not dominate."""
    c = w - wl[:, None]
    c += d
    c[:, tail:] = np.where(w[tail:] >= wl[:, None], c[:, tail:], math.inf)
    return np.minimum.reduceat(c, seg, axis=1)


def measure_distances(measures, known=None) -> np.ndarray:
    """The matrix of ``measure_distance`` between every two of
    ``measures``, bit for bit; the measures must share one space.
    ``known``, the matrix of the first ``len(known)`` measures, is copied,
    not recomputed or read; a ``known`` that is not square, or larger than
    the list, raises ValueError.  The loop or the sweep (see the module
    docstring) fills R, and the matrix is max(R, R^T), truncated.
    """
    n, old = len(measures), 0 if known is None else len(known)
    if known is not None and (np.shape(known) != (old, old) or old > n):
        raise ValueError(f"known must be a square matrix of at most {n} measures, "
                         f"got shape {np.shape(known)}")
    for mu in measures:
        _same_space(measures[0], mu)
    R = np.zeros((n, n))
    if not n:
        return R
    pairs = n * (n - 1) // 2 - old * (old - 1) // 2
    if pairs * max(mu.support_size for mu in measures) ** 2 < VECTOR_CELL_CUTOFF:
        # too little work to pay for the sweep: every pair takes the loop
        for j in range(old, n):
            for i in range(j):
                R[i, j] = _row_loop(measures[i], measures[j])
                R[j, i] = _row_loop(measures[j], measures[i])
    else:
        entries, dist = _entries(measures), measures[0].ground.dist
        with np.errstate(over="ignore"):  # a cost past the float range is inf
            R[old:] = _sweep(*entries, dist, (old, n), (0, n))
            if old:
                R[:old, old:] = _sweep(*entries, dist, (0, old), (old, n))
    # R(i, i) is 0, whatever a gap costs: an entry is its own witness at
    # cost 0, and the witnesses of a weight-0 entry cost their ground distance
    dmat = np.maximum(R, R.T)
    if old:
        dmat[:old, :old] = known
    d = measures[0].ground.truncation_diam
    return np.where(dmat <= d, dmat, d)


def _pattern_table(cells):
    """The bit set and the worst cost of every pattern of ``cells``, a
    list of (attained bit set, pair cost): entry m of both lists is the
    pattern of the cells of m's set bits, and entry 0 the empty one."""
    attained, worst = [0], [-math.inf]
    for bits, c in cells:
        attained += [a | bits for a in attained]
        worst += [w if w >= c else c for w in worst]
    return attained, worst


def bottleneck_distance_bruteforce(mu1: IdempotentMeasure,
                                   mu2: IdempotentMeasure) -> float:
    """Exhaustive reference value: minimum worst pair cost over all
    feasible support patterns.

    Enumerates every subset of the n1 x n2 support-pair grid, one bit of a
    mask per cell.  The maximal-coupling check of :func:`pattern_feasible`
    is decided per cell, once: cell (j, k) attains row j when its cap
    min(w1[j], w2[k]) equals w1[j], and column k when it equals w2[k].  A
    cap is at most both of its marginals, so a row's largest cap is w1[j]
    exactly when one of its cells attains it, and a pattern is feasible
    exactly when its cells attain every row and every column.  The cells
    fall in three parts of at most 8: the first ``_ORACLE_CHUNK`` in two
    halves, and the rest.  A table per part holds, for each of its
    patterns, the bit set of the rows and columns attained and the largest
    pair cost.  A mask is feasible when the OR of its parts' bit sets is
    full, and its worst cost is the max of its parts'; the value is the
    least worst cost of a feasible mask.  Mask 0, the empty pattern,
    attains no row.  One chunk, every pattern of the first two parts with
    one of the third, bounds the memory: a tracemalloc peak of about 1.1 MB
    at the guard.  A 4x4 call takes about 0.2 ms and a 20-cell call 0.6 to
    1.1 ms (best of 7, 2-vCPU Xeon VM, Python 3.11, numpy 2.4).  Test
    oracle only; guarded to ORACLE_CELL_LIMIT cells.
    """
    _same_space(mu1, mu2)
    w1, w2 = mu1.weights, mu2.weights
    n1, n2 = len(w1), len(w2)
    if n1 * n2 > ORACLE_CELL_LIMIT:
        raise ValueError(
            f"support product {n1}x{n2} exceeds the enumeration guard "
            f"({ORACLE_CELL_LIMIT} cells)"
        )
    rows = mu1.ground._rows
    cells = []
    for j, (wj, aj) in enumerate(zip(w1, mu1.atoms)):
        for k, (wk, ak) in enumerate(zip(w2, mu2.atoms)):
            cap = min(wj, wk)
            # bit j is row j, bit n1 + k column k; a cost past the float range is inf
            cells.append(((cap == wj) << j | (cap == wk) << n1 + k,
                          abs(wk - wj) + rows[aj][ak]))
    full = (1 << n1 + n2) - 1
    first = cells[:_ORACLE_CHUNK]
    (a0, t0), (a1, t1), (a2, t2) = map(_pattern_table, (
        first[:len(first) // 2], first[len(first) // 2:], cells[_ORACLE_CHUNK:]))
    attained = np.bitwise_or.outer(np.array(a1, np.uint32), np.array(a0, np.uint32)).ravel()
    worst = np.maximum.outer(t1, t0).ravel()
    best = math.inf
    for a, t in zip(a2, t2):
        # the chunk's masks with the rest's pattern a: each worst cost is
        # max(worst, t), and a min of max(x, t) over x is max(min x, t)
        m = np.min(worst, where=(attained | a) == full, initial=math.inf)
        best = min(best, max(m, t))
    return float(best)


def bottleneck_distance_threshold(mu1: IdempotentMeasure, mu2: IdempotentMeasure) -> float:
    """Reference value by threshold search (Garfinkel, Oper. Res. 19, 1971).

    Adding pairs to a support pattern keeps it feasible, so the transport
    value is the least pair cost t whose pattern {cost <= t} is feasible; a
    binary search over the sorted distinct costs finds it, testing each
    pattern by the maximal-coupling marginal check of
    :func:`pattern_feasible`.  It shares no code and no proof with the
    witness loop and sweep, yet returns one of the same float pair costs, so the
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
