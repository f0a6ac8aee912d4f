"""Monad structure on spaces of measures: unit, function lift, flatten.

``unit`` sends a measure to the Dirac at its point in a lifted space;
``flatten`` collapses a measure-of-measures M into a measure on the inner
ground by combining the outer weight m_k with each inner weight w_ks as
m_k + w_ks and merging atoms by max.  ``flatten_via_evaluation`` computes
the same functional through the lifted function (phi-bar at a measure is
the measure's evaluation of phi) and serves as an independent cross-check
of flatten: the two must agree on every function.

flatten o unit is the identity, exactly: the Dirac's outer weight 0 adds
nothing and the inner entries pass through unchanged.

``sample_flatten_preimage`` generates measures N at the next level with
flatten(N) equal to a prescribed measure, bitwise.  Inner weights are
nudged by ulps where IEEE addition would not reproduce the prescribed
weight exactly, and the group representative (inner weight exactly 0)
anchors each group.  Optional cross-memberships add inner atoms with
strict slack below the recombination maximum, so they never change the
flatten while exercising non-trivial preimages.
"""

import math

import numpy as np

from .measures import (
    FunctionOnSpace,
    IdempotentMeasure,
    SpaceMismatchError,
    dirac,
    evaluate,
    make_measure,
)
from .spaces import FiniteMetricSpace, index_of_measure, lift

__all__ = [
    "lift_function",
    "flatten",
    "flatten_via_evaluation",
    "unit",
    "map_unit",
    "sample_flatten_preimage",
]


def lift_function(phi: FunctionOnSpace, lifted: FiniteMetricSpace) -> FunctionOnSpace:
    """The function on a lifted space whose value at a measure-point mu is
    evaluate(mu, phi)."""
    if lifted.level < 1:
        raise SpaceMismatchError("lift_function needs a space of measures")
    # the builder puts every point of a lifted space on one ground
    if lifted.points[0].ground is not phi.space:
        raise SpaceMismatchError(
            "lifted space holds measures over a different space than phi"
        )
    return FunctionOnSpace(lifted, tuple(evaluate(pt, phi) for pt in lifted.points))


def flatten(M: IdempotentMeasure) -> IdempotentMeasure:
    """Collapse a measure over a lifted space onto the inner ground.

    Entry (x, m_k + w_ks) for every outer entry k and inner entry s,
    merged by max.  The result is normalized automatically: the maximal
    outer entry composed with its maximal inner entry contributes exactly
    0 + 0, and no combination exceeds 0.
    """
    lifted = M.ground
    if lifted.level < 1:
        raise SpaceMismatchError("flatten needs a measure over a space of measures")
    out = []
    for k, mk in M.entries():
        nu = lifted.points[k]
        out.extend((a, mk + w) for a, w in nu.entries())
    return make_measure(lifted.points[0].ground, out)


def flatten_via_evaluation(M: IdempotentMeasure, phi: FunctionOnSpace) -> float:
    """evaluate(M, lifted phi): the flatten functional computed without
    materializing the flattened measure.  Cross-check oracle for flatten."""
    return evaluate(M, lift_function(phi, M.ground))


def unit(mu: IdempotentMeasure,
         lifted: FiniteMetricSpace | None = None) -> IdempotentMeasure:
    """The Dirac at ``mu`` on a lifted space over mu's ground.

    When no lifted space is given, a fresh one-point space is built; the
    mathematical space of all measures is infinite, but every operation
    here is support-local, so materializing the needed points suffices.
    """
    if lifted is None:
        # a one-point space: mu is point 0
        return dirac(lift(mu.ground, [mu]), 0)
    return dirac(lifted, index_of_measure(lifted, mu))


def map_unit(mu: IdempotentMeasure,
             lifted: FiniteMetricSpace | None = None) -> IdempotentMeasure:
    """Pushforward of ``mu`` under the unit: atoms become lifted Diracs,
    weights are unchanged."""
    diracs = [dirac(mu.ground, a) for a in mu.atoms]
    if lifted is None:
        # Diracs at distinct atoms have distinct supports and never merge,
        # so Dirac i is point i
        return make_measure(lift(mu.ground, diracs), enumerate(mu.weights))
    points = [index_of_measure(lifted, d) for d in diracs]
    return make_measure(lifted, zip(points, mu.weights))


def _exact_complement(alpha: float, lam: float) -> float:
    """A weight w <= 0 with fl(alpha + w) == lam, for lam <= alpha <= 0.

    Starts from lam - alpha and walks ulps; IEEE guarantees a solution in
    the weight ranges used here because lam is representable and
    |alpha| <= |lam| keeps the sum's granularity at ulp(lam).
    """
    w = lam - alpha
    if alpha + w == lam:
        return w
    toward = math.inf if alpha + w < lam else -math.inf
    for _ in range(8):
        w = math.nextafter(w, toward)
        if alpha + w == lam:
            return w
    raise ArithmeticError(
        f"no exact inner weight for alpha={alpha!r}, lam={lam!r}"
    )


def sample_flatten_preimage(mu: IdempotentMeasure, group_count: int, rng,
                            extras: int = 0) -> IdempotentMeasure:
    """A random measure N at the next level with flatten(N) == mu, bitwise.

    The support of ``mu`` is partitioned into ``group_count`` nonempty
    groups; each group becomes one inner measure with outer weight equal
    to the group's maximal weight and inner weights chosen so that
    recombination reproduces mu's weights exactly.  ``extras``
    cross-memberships then add atoms from outside a group with weight
    min(0, w - alpha) - u for u drawn from [0.1, 1.0]; the strict slack
    keeps every recombination maximum untouched.  Deterministic given
    (rng seed, group_count, extras).
    """
    rng = np.random.default_rng(rng)
    n = mu.support_size
    if not 1 <= group_count <= n:
        raise ValueError(
            f"group count must be between 1 and the support size {n}, got {group_count}"
        )

    order = rng.permutation(n)
    if group_count > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=group_count - 1, replace=False))
        groups = [list(g) for g in np.split(order, cuts)]
    else:
        groups = [list(order)]

    alphas = []
    inner_entries = []
    group_sets = []
    for g in groups:
        alpha = max(mu.weights[int(l)] for l in g)
        alphas.append(alpha)
        entries = []
        for l in g:
            l = int(l)
            lam = mu.weights[l]
            w = 0.0 if lam == alpha else _exact_complement(alpha, lam)
            entries.append((mu.atoms[l], w))
        inner_entries.append(entries)
        group_sets.append({int(l) for l in g})

    if extras:
        candidates = [
            (i, l)
            for i in range(group_count)
            for l in range(n)
            if l not in group_sets[i]
        ]
        if candidates:
            take = min(int(extras), len(candidates))
            chosen = rng.choice(len(candidates), size=take, replace=False)
            for c in np.sort(chosen):
                i, l = candidates[int(c)]
                u = rng.uniform(0.1, 1.0)
                beta = min(0.0, mu.weights[l] - alphas[i]) - u
                inner_entries[i].append((mu.atoms[l], beta))

    # nu_i has weight 0 at its group's representative; any other nu_j lacks
    # that atom or holds it as a cross-membership of weight <= -0.1, so no
    # two inner measures merge and nu_i is point i
    nus = [make_measure(mu.ground, entries) for entries in inner_entries]
    return make_measure(lift(mu.ground, nus), enumerate(alphas))
