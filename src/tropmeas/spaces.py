"""Finite metric spaces, their validation, and lifting to spaces of measures.

A level-0 space is plain user data: distinct point labels plus a distance
matrix that must pass the metric axioms; the :class:`FiniteMetricSpace`
constructor builds these and no other.  A level-k space for k >= 1 is a
"lifted" space whose points are finite-support idempotent measures over
the level k-1 space and whose pairwise distances are the truncated
bottleneck transport metric of :mod:`tropmeas.transport`.  Its metric is
fixed by its ground, so it is never user input: lifted spaces come only
from :func:`lift`, :func:`lift_extend`, the CLI's document parser and
:func:`_restrict`, all through one builder.

Every space stores an explicit truncation diameter used by the metric's
``min(diam, .)`` truncation.  For level-0 spaces it equals the maximum
pairwise distance exactly.  Lifted spaces inherit the ground diameter:
the space of measures over X has the same diameter as X, and a lifted
space built from a finite sample of measures keeps the full truncation
even when the sampled pairwise distances all stay below it.

:func:`lift` (from a ground space) and :func:`lift_extend` (from a lifted
space, keeping its points and distances) are two front doors to one
builder: it skips measures that are already points and computes the
metric only for pairs with a new point, all in one call of
:func:`tropmeas.transport.measure_distances`, whose sweep or loop gives
each distance bit for bit as :func:`~tropmeas.transport.measure_distance`;
the builder hands it the points and the known matrix of the old ones.
The builder defers that call to the first read of the space's ``dist``,
a cached property like ``_rows`` and ``_index``; ``lift`` and
``lift_extend`` make that read before they return, so their spaces come
with every distance computed.  The CLI's document parser calls the
builder directly, so a command computes a lifted level's distances only
when it measures at the level above.  :func:`_restrict`
rebuilds the tower under a few measures with only the points they reach,
so the CLI's ``dist`` computes only the distances among those.  The
builder also checks that every measure lies on the one ground space.
Each lifted space indexes its points by their ``atoms``; the builder's
dedupe and :func:`index_of_measure` share one lookup there: the first
point with the same atoms and weights within 1e-9.  The builder reports
the point each measure it was given landed on, so a caller never looks
up a measure it built the space from; :func:`index_of_measure` is for a
measure the space was not built from in that call.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import transport
from .measures import SpaceMismatchError, make_measure, measures_close

__all__ = [
    "FiniteMetricSpace",
    "InvalidSpaceError",
    "MetricViolation",
    "TRIANGLE_TOL",
    "validate",
    "lift",
    "lift_extend",
    "index_of_measure",
]

#: Slack allowed when checking the triangle inequality on float input.
TRIANGLE_TOL = 1e-9


class InvalidSpaceError(ValueError):
    """Raised when a distance matrix fails the metric axioms."""


@dataclass(frozen=True)
class MetricViolation:
    """First metric axiom violated by a distance matrix."""

    axiom: str
    message: str


class FiniteMetricSpace:
    """A finite labeled point set with a distance matrix.

    Instances are immutable after construction.  The constructor builds a
    level-0 space, whose truncation diameter is its largest distance.
    ``check=True`` (the default) validates the metric axioms and raises
    :class:`InvalidSpaceError` on failure; pass ``check=False`` to build
    an unchecked space for later inspection with :func:`validate`.
    Lifted spaces (``level >= 1``) come from :func:`lift`,
    :func:`lift_extend`, the CLI's document parser and :func:`_restrict`.
    They carry their points as measures and are not validated: their
    distances are computed, not user input.  Three views are cached
    properties, computed on first read: a lifted space's ``dist`` (a fill
    that raises is not kept, and the next read starts again; one that
    returns is dropped, with its hold on the space it extends), ``_rows``,
    the plain-float rows of ``dist`` for the scalar paths, so a space
    only the sweep reads never builds them, and ``_index``, from label
    to point.  ``dist`` is read-only on every space.
    """

    def __init__(self, labels, dist, *, check=True):
        labels = tuple(labels)
        n = len(labels)
        if n == 0:
            raise InvalidSpaceError("a space needs at least one point")
        if len(set(labels)) != n:
            raise InvalidSpaceError("point labels must be distinct")
        d = np.array(dist, dtype=float)
        if d.shape != (n, n):
            raise InvalidSpaceError(
                f"distance matrix must be {n}x{n}, got shape {d.shape}"
            )
        d.setflags(write=False)
        self.labels, self.dist, self.level, self.points = labels, d, 0, None
        self.truncation_diam = float(d.max())
        if check:
            v = validate(self)
            if v is not None:
                raise InvalidSpaceError(v.message)

    @cached_property
    def dist(self):
        # only a space from _build gets here; the others set ``dist``
        d = self._fill()
        d.setflags(write=False)
        del self._fill
        return d

    @cached_property
    def _rows(self):
        return self.dist.tolist()

    @cached_property
    def _index(self):
        return {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown point label {label!r}") from None

    def __repr__(self) -> str:
        return (
            f"FiniteMetricSpace({len(self)} points, level {self.level}, "
            f"diam {self.truncation_diam!r})"
        )


def validate(space: FiniteMetricSpace) -> MetricViolation | None:
    """Report the first violated metric axiom, or None if the space is valid.

    Checks, in order: nonnegativity/finiteness, symmetry, zero diagonal,
    identity of indiscernibles, triangle inequality (within
    ``TRIANGLE_TOL``), and the truncation bound.
    """
    d = space.dist
    labels = space.labels
    n = len(labels)

    bad = ~np.isfinite(d) | (d < 0)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        return MetricViolation(
            "nonnegativity",
            f"distance at ({labels[i]}, {labels[j]}) is {float(d[i, j])!r}",
        )

    asym = d != d.T
    if asym.any():
        i, j = np.argwhere(asym)[0]
        return MetricViolation(
            "symmetry",
            f"symmetry violation at ({labels[i]}, {labels[j]}): "
            f"{float(d[i, j])!r} != {float(d[j, i])!r}",
        )

    diag = np.diagonal(d)
    if (diag != 0).any():
        i = int(np.argwhere(diag != 0)[0][0])
        return MetricViolation(
            "zero-diagonal", f"nonzero self-distance {float(d[i, i])!r} at {labels[i]}"
        )

    offdiag_zero = (d == 0) & ~np.eye(n, dtype=bool)
    if offdiag_zero.any():
        i, j = np.argwhere(offdiag_zero)[0]
        return MetricViolation(
            "identity-of-indiscernibles",
            f"distinct points {labels[i]} and {labels[j]} are at distance 0",
        )

    # excess[k, i, j] = d(i, j) - (d(i, k) + d(k, j)) for a chunk of k in one
    # reused buffer; argwhere's row-major order finds the first k, i, then j.
    # A sum past the float range is inf, as in scalar arithmetic, and
    # violates nothing.
    step = max(1, 2**16 // (n * n))
    buf = np.empty((min(step, n), n, n))
    with np.errstate(over="ignore"):
        for k0 in range(0, n, step):
            excess = buf[:min(step, n - k0)]
            np.add(d[:, k0:k0 + step].T[:, :, None], d[k0:k0 + step, None, :], out=excess)
            np.subtract(d, excess, out=excess)
            if (excess > TRIANGLE_TOL).any():
                k, i, j = np.argwhere(excess > TRIANGLE_TOL)[0]
                k += k0
                return MetricViolation(
                    "triangle",
                    f"triangle violation: d({labels[i]}, {labels[j]}) = {float(d[i, j])!r} "
                    f"> d via {labels[k]} = {float(d[i, k] + d[k, j])!r}",
                )

    if space.truncation_diam < d.max():
        return MetricViolation(
            "truncation-bound",
            f"truncation diameter {space.truncation_diam!r} is below the "
            f"maximum pairwise distance {float(d.max())!r}",
        )
    return None


def _first_close(points, by_atoms, mu):
    """The first point of ``points`` equal to ``mu``, or None: same
    ``atoms`` and weights within 1e-9, scanned in index order among the
    indices ``by_atoms`` lists for ``mu``'s atoms.  A point with other
    atoms is never equal, so no other point is compared."""
    for i in by_atoms.get(mu.atoms, ()):
        if measures_close(mu, points[i], 1e-9):
            return i
    return None


def _build(ground: FiniteMetricSpace, measures, base=None):
    """The lifted space over ``ground`` holding the points of ``base`` (or
    none) and ``measures``, and the point each measure landed on.

    Returns ``(space, where)``: ``where[i]`` is the point index of
    ``measures[i]``, the first point equal to it (see :func:`_first_close`)
    or the new point it became, so a caller need not look it up again.
    ``space`` is ``base`` itself when nothing is new.  Every measure must
    lie on ``ground``; the space's level and truncation diameter come from
    ``ground``.  The new space is labeled mu0, mu1, ... and unchecked; its
    distance matrix is left to the first read of ``dist``: it copies the
    block of ``base`` and computes only the pairs with a new measure, in
    one batch.
    """
    pts = [] if base is None else list(base.points)
    old = len(pts)
    by_atoms = {} if base is None else {a: list(ix) for a, ix in base._by_atoms.items()}
    where = []
    for m in measures:
        if m.ground is not ground:
            raise SpaceMismatchError("all lifted measures must share the ground space")
        i = _first_close(pts, by_atoms, m)
        if i is None:
            i = len(pts)
            by_atoms.setdefault(m.atoms, []).append(i)
            pts.append(m)
        where.append(i)
    n = len(pts)
    if n == old:
        return base, where

    space = FiniteMetricSpace.__new__(FiniteMetricSpace)
    space.labels = tuple(f"mu{i}" for i in range(n))
    space.truncation_diam, space.level = ground.truncation_diam, ground.level + 1
    space.points = tuple(pts)
    space._by_atoms = by_atoms  # the indices of the points on each support, in order
    space._fill = lambda: transport.measure_distances(pts, base.dist if old else None)
    return space, where


def _restrict(measures):
    """The same ``measures`` (over one space) over a tower holding only the
    points they reach, built through :func:`_build`; distances between the
    results equal those between the inputs, bit for bit.

    Level 0 is kept whole: its largest distance is the truncation diameter
    of every level above.  At a lifted level the atoms ``used`` are
    restricted recursively, rebuilt in order, and renumbered by the
    monotone map ``used[k] -> k`` with the weights unchanged.  Nothing can
    merge: the points of a lifted space are pairwise apart under the
    builder's 1e-9 rule, and a monotone renumbering keeps equal atoms
    equal and distinct ones distinct.  A distance reads only the two
    measures' entries and the ground distances among their atoms, which
    are equal by induction; the sweep and the loop agree bit for bit, so
    how the smaller fill blocks its rows changes nothing; and
    ``make_measure`` returns normalized weights unchanged.  On the CLI
    benchmark's documents ``dist`` computes 6-45 of the 7 140 level-2 pairs
    and 61-399 of the 7 920 level-3 ones.
    """
    ground = measures[0].ground
    if ground.level == 0:
        return list(measures)
    used = sorted({a for m in measures for a in m.atoms})
    inner = _restrict([ground.points[i] for i in used])
    small, where = _build(inner[0].ground, inner)
    assert where == list(range(len(used))), "restricting merged points"
    new = {a: k for k, a in enumerate(used)}
    return [make_measure(small, [(new[a], w) for a, w in m.entries()])
            for m in measures]


def lift(ground: FiniteMetricSpace, measures) -> FiniteMetricSpace:
    """Build the space of measures over ``ground`` spanned by ``measures``.

    Pairwise distances are the truncated transport metric, all computed
    before this returns; duplicate measures (equal supports, weights
    within 1e-9) merge to one point; the truncation diameter is inherited
    from the ground space.
    """
    measures = list(measures)
    if not measures:
        raise InvalidSpaceError("lift needs at least one measure")
    lifted, _ = _build(ground, measures)
    lifted.dist  # the first read computes the matrix, here inside the call
    return lifted


def lift_extend(lifted: FiniteMetricSpace, extra_measures) -> FiniteMetricSpace:
    """Extend a lifted space with further measures, reusing known distances.

    Equivalent to re-lifting the union, but the distance block between
    existing points is copied instead of recomputed; the new distances
    are computed before this returns.  Returns ``lifted`` itself when
    every extra measure is already a point.
    """
    if lifted.level < 1:
        raise InvalidSpaceError("lift_extend needs a lifted space")
    extended, _ = _build(lifted.points[0].ground, extra_measures, lifted)
    if extended is not lifted:
        extended.dist  # the first read computes the matrix, here inside the call
    return extended


def index_of_measure(lifted: FiniteMetricSpace, mu) -> int:
    """Locate the first point of a lifted space equal to ``mu``, by the
    builder's own rule (:func:`_first_close`): same atoms, weights within
    1e-9, first in index order.  For a measure the space was not built
    from: the builder already reports where each of its measures landed."""
    if lifted.level < 1:
        raise InvalidSpaceError("only lifted spaces have measures as points")
    i = _first_close(lifted.points, lifted._by_atoms, mu)
    if i is None:
        raise ValueError("measure is not a point of this lifted space")
    return i
