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
:func:`measure_distances` takes many pairs at once: it groups them by
their exact support sizes (n1, n2) and stacks each group, in chunks, into
(n1, n2, pairs) arrays with no padding, pairs along the contiguous axis
that every op and every minimum runs over.  The kernel gathers ground
distances by one flat ``take`` and masks the costs
``|w2[k] - w1[j]| + d(x1[j], x2[k])`` by weight dominance and takes row
and column minima.  One rule picks the path: a group whose cells
(pairs x n1 x n2) reach ``VECTOR_CELL_CUTOFF`` goes to the kernel, a
smaller one takes the loop.  :func:`bottleneck_distance` is a group of
one.  Both paths perform the same float operations on each cell, and min
and max do no rounding, so layout and path change no bit of the result.

:func:`bottleneck_distance_bruteforce` enumerates all support patterns
with independent feasibility filtering and exists to keep this argument
honest in tests.
"""

import math

import numpy as np

from .measures import IdempotentMeasure, SpaceMismatchError, _resolve_atom

__all__ = [
    "cost",
    "pattern_feasible",
    "bottleneck_distance",
    "bottleneck_distance_bruteforce",
    "ORACLE_CELL_LIMIT",
    "VECTOR_CELL_CUTOFF",
    "measure_distance",
    "measure_distances",
    "distance_to_dirac",
    "distance_to_diracs",
]

#: Size guard for exhaustive pattern enumeration (support product).
ORACLE_CELL_LIMIT = 20

#: Cells of a group of same-size pairs (pairs x n1 x n2) from which the
#: numpy kernel takes over from the scalar loop, near the break-even of
#: the two paths.  Scalar/numpy time ratios of the (n1, n2, pairs) kernel,
#: best of 200-400, on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4): one pair
#: 0.24x at 4x4, 0.8x at 16x16, 1.3x at 24x24, 1.9x at 32x32, 5x at
#: 256x256; 256 cells as 64 pairs of 2x2, 16 of 4x4, 4 of 8x8 or one 16x16:
#: 1.2x, 1.0x, 0.8x, 0.7x; 384 cells 0.7x-1.1x; 512 cells 1.0x-1.35x;
#: 1024 cells 1.25x-1.9x.  The (pairs, n1, n2) kernel before it read
#: 0.64x-0.87x at 256 cells, so the break-even moved down, not up.
VECTOR_CELL_CUTOFF = 256

#: Cells (pairs x n1 x n2) per chunk of the numpy kernel, bounding its temporaries.
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

    A pair of at least VECTOR_CELL_CUTOFF cells is a batch of one for the
    numpy kernel, a smaller one takes the scalar loop; both give the same
    float, bit for bit.
    """
    _same_space(mu1, mu2)
    if mu1.support_size * mu2.support_size >= VECTOR_CELL_CUTOFF:
        return float(_witness_kernel(
            np.array(mu1.weights)[:, None], np.array(mu1.atoms)[:, None],
            np.array(mu2.weights)[:, None], np.array(mu2.atoms)[:, None],
            mu1.ground.dist)[0])
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


def _witness_kernel(w1, a1, w2, a2, dist):
    """Transport values of P stacked pairs: weights and atoms (n1, P) and (n2, P)."""
    # Every op and every min/max runs along the long, contiguous pairs axis.
    # g[j, k, p] = wk - wj is the scalar loop's own subtraction, and |g| is
    # exactly wk - wj where g >= 0 and exactly wj - wk where g <= 0 (a tie
    # gives +0.0 either way), so every masked cost equals the loop's
    # bitwise; min and max do no rounding.
    g = w2[None, :, :] - w1[:, None, :]
    d = dist.ravel().take(a1[:, None, :] * len(dist) + a2[None, :, :])
    c = np.abs(g) + d
    rows = np.where(g >= 0, c, math.inf).min(axis=1).max(axis=0)
    cols = np.where(g <= 0, c, math.inf).min(axis=0).max(axis=0)
    return np.maximum(rows, cols)


def measure_distances(measures, rows, cols) -> np.ndarray:
    """``measure_distance(measures[i], measures[j])`` for every pair (i, j)
    of ``rows`` and ``cols``, bit for bit, as one float array; the measures
    must share one space.

    Pairs are grouped by their exact support sizes.  A group of at least
    VECTOR_CELL_CUTOFF cells in all (pairs x n1 x n2) goes through the
    numpy kernel in chunks of about _CHUNK_CELLS cells, a smaller group
    through the scalar loop.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    for mu in measures:
        _same_space(measures[0], mu)
    ground = measures[0].ground

    def loop(i, j):
        return [_witness_loop(measures[a], measures[b])
                for a, b in zip(i.tolist(), j.tolist())]

    sizes = [mu.support_size for mu in measures]
    top = max(sizes)
    if len(rows) * top * top < VECTOR_CELL_CUTOFF:
        # no group can reach the cutoff, so every pair takes the loop
        out = np.array(loop(rows, cols), dtype=float)
    else:
        # each measure's row among the measures of its support size
        at, members = [], {}
        for m, n in enumerate(sizes):
            at.append(len(members.setdefault(n, [])))
            members[n].append(m)
        # (n, members) arrays, C-contiguous, so that take(axis=1) hands the
        # kernel contiguous (n, pairs) blocks
        stacks = {n: (np.array([measures[m].weights for m in ms]).T.copy(),
                      np.array([measures[m].atoms for m in ms]).T.copy())
                  for n, ms in members.items()}
        at, sizes = np.array(at), np.array(sizes)
        key = sizes[rows] * (top + 1) + sizes[cols]
        order = np.argsort(key)
        rows, cols, key = rows[order], cols[order], key[order]
        at1, at2 = at[rows], at[cols]
        bounds = [0, *(np.flatnonzero(np.diff(key)) + 1).tolist(), len(key)]
        out = np.empty(len(key))
        for lo, hi in zip(bounds, bounds[1:]):
            n1, n2 = divmod(int(key[lo]), top + 1)
            if (hi - lo) * n1 * n2 < VECTOR_CELL_CUTOFF:
                out[order[lo:hi]] = loop(rows[lo:hi], cols[lo:hi])
                continue
            (w1, a1), (w2, a2) = stacks[n1], stacks[n2]
            step = max(1, _CHUNK_CELLS // (n1 * n2))
            for k in range(lo, hi, step):
                e = min(k + step, hi)
                r, c = at1[k:e], at2[k:e]
                out[order[k:e]] = _witness_kernel(
                    w1.take(r, axis=1), a1.take(r, axis=1), w2.take(c, axis=1),
                    a2.take(c, axis=1), ground.dist)
    d = ground.truncation_diam
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
