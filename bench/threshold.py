"""Reference transport values by threshold search (Garfinkel, Oper. Res. 19, 1971).

A support pattern is feasible when the maximal coupling on it attains both
marginals: every row j holds a pair whose column weight dominates
(w2[k] >= w1[j]) and every column k a pair whose row weight dominates.
Adding pairs never breaks feasibility, so the bottleneck value H is the
smallest pair cost t at which the pattern {cost <= t} is feasible; a binary
search over the sorted distinct costs finds it.  This shares no code and no
proof with the witness kernel in ``tropmeas.transport``, yet returns one of
the same float pair costs, so the two must agree bitwise.
"""

import numpy as np


def bottleneck(w1, w2, ground) -> float:
    """H between weights ``w1`` (rows) and ``w2`` (columns) over the
    ground distances ``ground[j, k]`` between their atoms."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    cost = np.abs(w2[None, :] - w1[:, None]) + np.asarray(ground, dtype=float)
    row_ok = w2[None, :] >= w1[:, None]
    col_ok = w1[:, None] >= w2[None, :]
    levels = np.unique(cost)
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        pattern = cost <= levels[mid]
        if (pattern & row_ok).any(axis=1).all() and (pattern & col_ok).any(axis=0).all():
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def truncated(h: float, diam: float) -> float:
    """The measure metric: H truncated at the space diameter."""
    return h if h <= diam else diam
