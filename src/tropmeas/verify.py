"""Randomized verification campaigns for the metric and monad properties.

Every campaign is a ``run_*`` with one shape: from an integer seed, one
rng, then per case a fresh random space of ``space_size`` points (3-6 if
none is given) and the campaign's own draws and comparisons, each
recorded with the case index in one :class:`LemmaReport`.  The report
keeps the seed and every failure with both sides of the comparison and
the counterexample as a document, the CLI's format: its measures are
named terms, so ``tropmeas dist`` and the other commands replay both
sides from it.  The same seed and parameters give the same report.  A
``check_*`` checks one case.

The checks:

* ``axioms``   -- the functional axioms of measure evaluation (constants,
  additive shifts, pointwise maxima) and the metric axioms of the
  truncated transport distance (nonnegativity, exact symmetry, identity
  of indiscernibles, triangle inequality, diameter bound).
* ``oracle``   -- the witness-based transport value against brute-force
  pattern enumeration, compared bitwise.
* ``lemma1``   -- flatten is non-expanding: the distance between two
  level-2 measures dominates the distance of their flattens.
* ``lemma2``   -- the distance from a measure mu to a Dirac equals the
  level-2 distance between the lifted Dirac and any sampled
  flatten-preimage of mu.
* ``lemma3``   -- if mu is at distance >= eps from every Dirac, then its
  unit-pushforward stays that far from every lifted Dirac, a distance
  taken in closed form: the coupling with a Dirac is unique, so it is exact.

lemma1 and lemma2 fail on some cases (README, "Known failing campaign").
The smaller lemma1 counterexample of ``test_flatten_can_expand_the_distance``
has four atoms and integer weights: on the path a-b-c with distances 1, 1
and 2, take mu = {b: 0, c: -2}, nu = {b: -2, c: 0}, M1 = delta_mu and
M2 = delta_mu (+) delta_nu.  The lifted distance is rho(mu, nu) = 1, but
flatten(M2) = {b: 0, c: 0} lies at distance 2 from mu: merging raises b
to 0, so c at -2 loses its cheap witness.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .measures import (FunctionOnSpace, IdempotentMeasure, _document, dirac, evaluate,
                       make_measure, pointwise_max)
from .monad import flatten, map_unit, sample_flatten_preimage, unit
from .spaces import FiniteMetricSpace, lift, lift_extend
from .transport import (
    ORACLE_CELL_LIMIT,
    bottleneck_distance,
    bottleneck_distance_bruteforce,
    distance_to_diracs,
    measure_distance,
)

__all__ = [
    "CaseFailure",
    "LemmaReport",
    "gen_space",
    "gen_measure",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "run_axioms",
    "run_oracle_equivalence",
    "run_lemma1",
    "run_lemma2",
    "run_lemma3",
    "CAMPAIGN_TOL",
]

#: Default tolerance for inequalities and equalities that cross nested
#: metric levels; two levels of float summation re-associate the same
#: terms and accumulate ulps.  Single-level algebra uses 1e-12.
CAMPAIGN_TOL = 1e-9

#: Smallest random space of a campaign: on one point every measure is the
#: one Dirac, so every case compares a Dirac with itself and checks nothing.
MIN_SPACE_SIZE = 2

#: Rows per block of :func:`gen_space`'s shortest-path closure: a block's
#: buffer (256 KB at 512 points) stays in cache, and a space of up to 64
#: points is one block.
_CLOSURE_ROWS = 64


@dataclass
class CaseFailure:
    """One violated case: the check, both sides, and the offending inputs."""

    index: int
    check: str
    lhs: float
    rhs: float
    gap: float
    description: str


@dataclass
class LemmaReport:
    """Outcome of a campaign; failures empty iff max violation <= tolerance."""

    check: str
    cases: int
    tolerance: float
    seed: int
    failures: list[CaseFailure] = field(default_factory=list)
    max_violation: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, index: int, check: str, lhs: float, rhs: float,
               violation: float, describe):
        """Note one case.  ``describe`` is a zero-argument callable
        returning the counterexample text, called only for a failure."""
        if violation > self.max_violation:
            self.max_violation = violation
        if violation > self.tolerance:
            self.failures.append(
                CaseFailure(index, check, lhs, rhs, violation, describe())
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def to_text(self) -> str:
        lines = [
            f"check {self.check}: {self.cases} cases, seed {self.seed}, "
            f"tol {self.tolerance:g}",
            f"max violation: {self.max_violation:.12g}",
        ]
        if self.passed:
            lines.append("result: PASS")
        else:
            lines.append(f"result: FAIL ({len(self.failures)} violations)")
            first = self.failures[0]
            lines.append(
                f"first counterexample (case {first.index}, {first.check}): "
                f"lhs = {first.lhs:.12g}, rhs = {first.rhs:.12g}, "
                f"gap = {first.gap:.12g}"
            )
            lines.append("  " + first.description)
        return "\n".join(lines)


def _case_document(space: FiniteMetricSpace, **named) -> str:
    """A counterexample as a one-line CLI document over ``space``: each
    measure of ``named`` becomes a named term that
    :func:`tropmeas.cli.parse_document` reads back, and every other input
    a top-level key of its own, which the parser ignores."""
    measures = {k: v for k, v in named.items() if isinstance(v, IdempotentMeasure)}
    doc = _document(space, measures)
    doc.update((k, v) for k, v in named.items() if k not in measures)
    return json.dumps(doc, separators=(",", ":"))


def gen_space(point_count: int, rng) -> FiniteMetricSpace:
    """A random finite metric space: shortest-path closure of a random
    symmetric weight matrix, uniform in [0.1, 2.0).  Produces varied
    geometries, including tight path-like triangles."""
    rng = np.random.default_rng(rng)
    n = int(point_count)
    if n < 1:
        raise ValueError("need at least one point")
    w = rng.uniform(0.1, 2.0, size=(n, n))
    w = np.triu(w, 1)
    w = w + w.T
    # Step k sets w(i, j) = min(w(i, j), w(i, k) + w(k, j)), a block of
    # _CLOSURE_ROWS rows at a time through one reused buffer.  The diagonal
    # is 0, so row k and column k do not change during step k: the blocks read
    # what one whole-matrix step reads, and the result is the same bit for
    # bit in any block order.
    buf = np.empty((min(n, _CLOSURE_ROWS), n))
    blocks = [(w[i0:i0 + _CLOSURE_ROWS], buf[:n - i0]) for i0 in range(0, n, _CLOSURE_ROWS)]
    for k in range(n):
        row = w[k]
        for rows, part in blocks:
            np.add(rows[:, k:k + 1], row, out=part)
            np.minimum(rows, part, out=rows)
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), w)


def _draw_entries(n: int, max_support: int, rng, min_support: int, span: float):
    """Sorted atoms and weights, as plain lists, of a random measure on ``n``
    points: see :func:`gen_measure`, which checks the arguments."""
    size = int(rng.integers(min_support, max_support + 1))
    atoms = sorted(rng.choice(n, size=size, replace=False).tolist())
    weights = rng.uniform(-span, 0.0, size=size).tolist()
    weights[int(rng.integers(size))] = 0.0
    return atoms, weights


def _weight_span(space: FiniteMetricSpace, weight_span=None) -> float:
    """The span of random weights on ``space``: ``weight_span``, which must
    be finite and > 0, or by default twice the diameter (1.0 if that is 0)."""
    if weight_span is None:
        return 2.0 * space.truncation_diam if space.truncation_diam > 0 else 1.0
    span = float(weight_span)
    if not (math.isfinite(span) and span > 0):
        raise ValueError(f"weight_span must be finite and > 0, got {weight_span!r}")
    return span


def gen_measure(space: FiniteMetricSpace, max_support: int, rng, *,
                min_support: int = 1,
                weight_span: float | None = None) -> IdempotentMeasure:
    """A random normalized measure: uniform support subset, weights uniform
    in [-weight_span, 0] with one entry forced to exactly 0.  The span
    defaults to twice the diameter (see :func:`_weight_span`)."""
    rng = np.random.default_rng(rng)
    n = len(space)
    max_support = min(int(max_support), n)
    if not 1 <= min_support <= max_support:
        raise ValueError("need 1 <= min_support <= max_support <= point count")
    span = _weight_span(space, weight_span)
    return make_measure(space, zip(*_draw_entries(n, max_support, rng, min_support, span)))


# ---------------------------------------------------------------------------
# per-case checks


def _axioms_case(space: FiniteMetricSpace, rng, record):
    n = len(space)
    mu = gen_measure(space, n, rng)
    phi = FunctionOnSpace(space, tuple(rng.uniform(-10, 10, size=n)))
    psi = FunctionOnSpace(space, tuple(rng.uniform(-10, 10, size=n)))
    c = float(rng.uniform(-10, 10))
    mdesc = lambda: _case_document(space, mu=mu, phi=dict(zip(space.labels, phi.values)),
                                   psi=dict(zip(space.labels, psi.values)), c=c)

    const = FunctionOnSpace(space, (c,) * n)
    lhs = evaluate(mu, const)
    record("constants", lhs, c, 0.0 if lhs == c else abs(lhs - c), mdesc)

    lhs = evaluate(mu, phi.shift(c))
    rhs = evaluate(mu, phi) + c
    record("shift", lhs, rhs, abs(lhs - rhs), mdesc)

    lhs = evaluate(mu, pointwise_max(phi, psi))
    rhs = max(evaluate(mu, phi), evaluate(mu, psi))
    record("max", lhs, rhs, 0.0 if lhs == rhs else abs(lhs - rhs), mdesc)

    m1 = gen_measure(space, n, rng)
    m2 = gen_measure(space, n, rng)
    m3 = gen_measure(space, n, rng)
    d11 = measure_distance(m1, m1)
    d12 = measure_distance(m1, m2)
    d21 = measure_distance(m2, m1)
    d13 = measure_distance(m1, m3)
    d23 = measure_distance(m2, m3)
    tdesc = lambda: _case_document(space, m1=m1, m2=m2, m3=m3)
    record("nonnegativity", d12, 0.0, 0.0 if d12 >= 0 else -d12, tdesc)
    record("symmetry", d12, d21, 0.0 if d12 == d21 else abs(d12 - d21), tdesc)
    record("self-distance", d11, 0.0, abs(d11), tdesc)
    if m1 != m2:
        record("identity-of-indiscernibles", d12, 0.0, 0.0 if d12 > 0 else 1.0, tdesc)
    record("triangle", d13, d12 + d23, max(0.0, d13 - (d12 + d23)), tdesc)
    diam = space.truncation_diam
    record("diameter-bound", d12, diam, max(0.0, d12 - diam), tdesc)


def check_lemma1(M1: IdempotentMeasure, M2: IdempotentMeasure):
    """(lhs, rhs, violation) for one non-expansion case: rhs is the level-2
    distance, lhs the distance of the flattens; violation is lhs - rhs."""
    lhs = measure_distance(flatten(M1), flatten(M2))
    rhs = measure_distance(M1, M2)
    return lhs, rhs, lhs - rhs


def check_lemma2(mu: IdempotentMeasure, x0: int, group_count: int,
                 extras: int, rng):
    """(lhs, rhs, gap, N) for one preimage case.

    lhs is the distance from mu to the Dirac at x0; rhs is the level-2
    distance between the lifted Dirac and a sampled flatten-preimage N,
    carried over to N's lifted space extended by the Dirac.  Extending
    keeps N's point indices, so N's entries carry over unchanged.
    """
    N = sample_flatten_preimage(mu, group_count, rng, extras)
    d0 = dirac(mu.ground, x0)
    lifted = lift_extend(N.ground, [d0])
    N2 = make_measure(lifted, N.entries())
    target = unit(d0, lifted)
    lhs = measure_distance(mu, d0)
    rhs = measure_distance(target, N2)
    return lhs, rhs, abs(lhs - rhs), N


def check_lemma3(mu: IdempotentMeasure, sample_count: int, rng):
    """(eps, worst_rhs, violation, worst_nu) for one separation case.

    eps is the distance from mu to the nearest Dirac; the check takes every
    Dirac of the space, then ``sample_count`` draws of the helper behind
    :func:`gen_measure`, and requires the level-2 distance between
    map_unit(mu) and the lifted Dirac at each nu to stay above eps, up to
    tolerance.  That distance is min(diam, max_i(|w_i| +
    distance_to_dirac(nu, x_i))) with no lifted space, bit for bit: the
    lifted witness cost (0.0 - w_i) + D is |w_i| + D exactly and tops
    the column witness, D is distance_to_dirac as ground distances are
    exactly symmetric, and lifting keeps the diameter.  D's own min(diam,
    .) is left out: where it would cut, the outer min gives diam anyway.
    All draws are scored in one numpy pass, whose array holds (n +
    sample_count) x n x support floats; the first least value is the worst
    nu, and only it becomes a measure.  A negative ``sample_count`` raises
    ValueError.
    """
    if sample_count < 0:
        raise ValueError(f"sample_count must be at least 0, got {sample_count}")
    rng = np.random.default_rng(rng)
    ground = mu.ground
    n = len(ground)
    diam = ground.truncation_diam
    span = _weight_span(ground)
    eps = distance_to_diracs(mu)
    draws = [([x], [0.0]) for x in range(n)]
    draws += [_draw_entries(n, n, rng, 1, span) for _ in range(sample_count)]
    v = np.full((len(draws), n), -math.inf)  # |v| on each draw's support
    owner = np.repeat(np.arange(len(draws)), [len(atoms) for atoms, _ in draws])
    v[owner, [b for atoms, _ in draws for b in atoms]] = [abs(x) for _, ws in draws for x in ws]
    inner = (v[:, :, None] + ground.dist[:, mu.atoms]).max(axis=1)
    h = (np.abs(mu.weights) + inner).max(axis=1)
    rhs = np.where(h <= diam, h, diam)
    i = int(np.argmin(rhs))  # the first minimum, the worst draw
    worst = float(rhs[i])
    worst_nu = make_measure(ground, zip(*draws[i]))
    return eps, worst, max(0.0, eps - worst), worst_nu


# ---------------------------------------------------------------------------
# campaign drivers


def _campaign(check: str, cases: int, seed: int, tol: float, space, case) -> LemmaReport:
    """The one campaign loop: an rng from the integer ``seed``, which the
    report keeps, then per case a fresh random space of ``space`` points
    (None: 3-6, drawn per case), at least MIN_SPACE_SIZE, and
    ``case(space, rng, record)``, where ``record`` is
    :meth:`LemmaReport.record` with the case index bound.  A seed that is
    no integer, such as a Generator or None, which no report could
    replay, raises TypeError before any case runs."""
    if space is not None and space < MIN_SPACE_SIZE:
        raise ValueError(
            f"space_size must be at least {MIN_SPACE_SIZE}, got {space}")
    # with no case, or a tol that no violation exceeds, a campaign would
    # pass with nothing checked
    if cases < 1:
        raise ValueError(f"cases must be at least 1, got {cases}")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol!r}")
    rng = np.random.default_rng(seed)
    report = LemmaReport(check, cases, tol, int(seed))
    for i in range(cases):
        ground = gen_space(rng.integers(3, 7) if space is None else space, rng)
        case(ground, rng, partial(report.record, i))
    return report


def run_axioms(cases: int = 1000, seed: int = 0, tol: float = CAMPAIGN_TOL,
               space_size: int | None = None) -> LemmaReport:
    """Functional axioms of evaluation and metric axioms of the distance,
    over a fresh random space per case."""
    return _campaign("axioms", cases, seed, tol, space_size, _axioms_case)


def run_oracle_equivalence(cases: int = 500, seed: int = 0,
                           tol: float = 0.0,
                           space_size: int | None = None,
                           max_support: int = 4) -> LemmaReport:
    """Witness-based transport value vs. brute-force enumeration, bitwise.
    ``max_support`` squared must stay within ORACLE_CELL_LIMIT, so that no
    seed draws a pair past the enumeration guard."""
    if max_support < 1:
        raise ValueError(f"max_support must be at least 1, got {max_support}")
    if max_support ** 2 > ORACLE_CELL_LIMIT:
        raise ValueError(
            f"max_support must be at most {math.isqrt(ORACLE_CELL_LIMIT)}, so that "
            f"no pair exceeds the {ORACLE_CELL_LIMIT}-cell enumeration guard, "
            f"got {max_support}")

    def case(space, rng, record):
        m1 = gen_measure(space, max_support, rng)
        m2 = gen_measure(space, max_support, rng)
        h = bottleneck_distance(m1, m2)
        o = bottleneck_distance_bruteforce(m1, m2)
        gap = abs(h - o)
        violation = 0.0 if h == o else (gap if gap > 0 else math.inf)
        record("oracle-equivalence", h, o, violation,
               lambda: _case_document(space, m1=m1, m2=m2))
    return _campaign("oracle", cases, seed, tol, space_size, case)


def run_lemma1(cases: int = 500, seed: int = 0, tol: float = CAMPAIGN_TOL,
               space_size: int | None = None) -> LemmaReport:
    """Non-expansion of flatten on random level-2 pairs: a pool of 2-6
    measures on at most 3 points, and two measures on at most 3 of them."""
    def case(space, rng, record):
        pool_size = int(rng.integers(2, 7))
        pool = [gen_measure(space, 3, rng) for _ in range(pool_size)]
        lifted = lift(space, pool)
        M1 = gen_measure(lifted, 3, rng)
        M2 = gen_measure(lifted, 3, rng)
        lhs, rhs, violation = check_lemma1(M1, M2)
        record("non-expansion", lhs, rhs, violation,
               lambda: _case_document(space, M1=M1, M2=M2))
    return _campaign("lemma1", cases, seed, tol, space_size, case)


def run_lemma2(cases: int = 500, seed: int = 0, tol: float = CAMPAIGN_TOL,
               space_size: int | None = None, max_extras: int = 3) -> LemmaReport:
    """Dirac distance vs. level-2 distance to sampled flatten-preimages of
    measures on at most 4 points."""
    if max_extras < 0:
        raise ValueError(f"max_extras must be at least 0, got {max_extras}")

    def case(space, rng, record):
        mu = gen_measure(space, 4, rng)
        x0 = int(rng.integers(len(space)))
        s = int(rng.integers(1, mu.support_size + 1))
        extras = int(rng.integers(0, max_extras + 1))
        lhs, rhs, gap, N = check_lemma2(mu, x0, s, extras, rng)
        record("preimage-dirac-distance", lhs, rhs, gap,
               lambda: _case_document(space, mu=mu, x0=dirac(space, x0), N=N,
                                      unit_x0=unit(dirac(space, x0))))
    return _campaign("lemma2", cases, seed, tol, space_size, case)


def run_lemma3(cases: int = 100, seed: int = 0, tol: float = CAMPAIGN_TOL,
               space_size: int | None = None, sample_count: int = 200) -> LemmaReport:
    """Separation from the Diracs survives the unit pushforward, for
    measures on 2 to 4 points.  With no sample, every draw is a Dirac,
    which reproduces eps exactly, so ``sample_count`` must be at least 1."""
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, got {sample_count}")

    def case(space, rng, record):
        mu = gen_measure(space, 4, rng, min_support=2)
        eps, worst, violation, worst_nu = check_lemma3(mu, sample_count, rng)
        record("unit-separation", eps, worst, violation,
               lambda: _case_document(space, mu=mu, worst_nu=worst_nu,
                                      pushed=map_unit(mu), unit_nu=unit(worst_nu)))
    return _campaign("lemma3", cases, seed, tol, space_size, case)
