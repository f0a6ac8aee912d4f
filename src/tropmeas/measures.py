"""Finite-support idempotent probability measures.

A measure is a finite max of weighted Dirac masses: entries (atom, weight)
with every weight a finite float <= 0 and the maximum weight exactly 0
(the max-plus normalization, since the fold of the weights must be the
semiring unit).  Evaluation against a function phi is
``max_i(weight_i + phi(atom_i))``, the finite-support form of a max-plus
linear normalized functional.

Measures are immutable, canonically sorted by atom index, and tied to the
exact space object they were built over; mixing spaces raises.  Atoms are
point indices, so the same code path serves measures over a base space
and measures over lifted spaces of measures.
"""

import math
import operator
from dataclasses import dataclass

__all__ = [
    "IdempotentMeasure",
    "FunctionOnSpace",
    "NormalizationError",
    "SpaceMismatchError",
    "SNAP_TOL",
    "make_measure",
    "renormalize",
    "dirac",
    "evaluate",
    "pushforward",
    "measures_close",
    "pointwise_max",
    "measure_to_term",
]

#: Tolerance for accepting (and snapping) a near-zero maximum weight.
SNAP_TOL = 1e-9


class NormalizationError(ValueError):
    """Raised when the maximum weight of a measure is not zero."""


class SpaceMismatchError(ValueError):
    """Raised when an operation mixes objects over different spaces."""


@dataclass(frozen=True)
class IdempotentMeasure:
    """A normalized finite-support measure; build via :func:`make_measure`.

    Equality is structural: the same ground space object, the same sorted
    atom indices, the same weight floats.
    """

    ground: "FiniteMetricSpace"
    atoms: tuple[int, ...]
    weights: tuple[float, ...]

    def entries(self):
        return zip(self.atoms, self.weights)

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{self.ground.labels[a]}: {w!r}" for a, w in self.entries()
        )
        return f"IdempotentMeasure({{{inner}}}, level {self.ground.level})"


@dataclass(frozen=True)
class FunctionOnSpace:
    """A real-valued function given by its values on every point."""

    space: "FiniteMetricSpace"
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) != len(self.space):
            raise ValueError(
                f"need one value per point: got {len(vals)} for {len(self.space)} points"
            )
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_mapping(cls, space: "FiniteMetricSpace", mapping) -> "FunctionOnSpace":
        missing = [lab for lab in space.labels if lab not in mapping]
        if missing:
            raise ValueError(f"missing function values for points {missing}")
        return cls(space, tuple(float(mapping[lab]) for lab in space.labels))

    def shift(self, c: float) -> "FunctionOnSpace":
        c = float(c)
        return FunctionOnSpace(self.space, tuple(v + c for v in self.values))


def pointwise_max(f: FunctionOnSpace, g: FunctionOnSpace) -> FunctionOnSpace:
    if f.space is not g.space:
        raise SpaceMismatchError("pointwise max needs functions on the same space")
    return FunctionOnSpace(f.space, tuple(max(a, b) for a, b in zip(f.values, g.values)))


def _resolve_atom(space: "FiniteMetricSpace", atom) -> int:
    if isinstance(atom, str):
        return space.index(atom)
    if isinstance(atom, bool) or not hasattr(atom, "__index__"):  # a bool is no index
        raise ValueError(f"atom {atom!r} is neither a point label nor an integer index")
    idx = operator.index(atom)
    if not 0 <= idx < len(space):
        raise ValueError(f"atom index {idx} out of range for {len(space)} points")
    return idx


def make_measure(ground: "FiniteMetricSpace", entries) -> IdempotentMeasure:
    """Validate and canonicalize entries into a measure.

    Duplicate atoms merge by max.  A maximum weight within SNAP_TOL of 0
    is snapped to exactly 0 (so downstream weight comparisons are exact);
    anything farther from 0 is rejected rather than silently shifted --
    renormalization is the separate, explicit :func:`renormalize`.
    """
    pairs, top = [], -math.inf
    for atom, w in entries:
        idx = _resolve_atom(ground, atom)
        w = float(w)
        if not math.isfinite(w):
            raise ValueError(
                f"non-finite weight {w!r} for atom {ground.labels[idx]!r}: "
                "support weights must be finite"
            )
        pairs.append((idx, w))
        if w > top:
            top = w
    if not pairs:
        raise ValueError("a measure needs at least one support atom")
    if abs(top) > SNAP_TOL:
        raise NormalizationError(
            f"max weight is {top!r}, expected 0 (use renormalize to shift explicitly)"
        )
    return _snapped(ground, pairs)


def _snapped(ground: "FiniteMetricSpace", pairs) -> IdempotentMeasure:
    """The canonical measure of ``pairs``, (atom index, weight) with the
    largest weight within SNAP_TOL of 0: repeated atoms merged by max,
    atoms sorted, the largest weight and any weight above 0 snapped to
    exactly 0."""
    merged = dict(sorted(pairs))  # by atom, then weight: each atom keeps its max
    top = max(merged.values())
    return IdempotentMeasure(ground, tuple(merged), tuple([
        0.0 if (w == top or w > 0.0) else w for w in merged.values()]))


def renormalize(ground: "FiniteMetricSpace", entries) -> IdempotentMeasure:
    """Shift all weights by minus their maximum, then validate."""
    entries = [(atom, float(w)) for atom, w in entries]
    if not entries:
        raise ValueError("a measure needs at least one support atom")
    for _, w in entries:
        if not math.isfinite(w):
            raise ValueError(f"non-finite weight {w!r}")
    top = max(w for _, w in entries)
    return make_measure(ground, [(atom, w - top) for atom, w in entries])


def dirac(ground: "FiniteMetricSpace", x) -> IdempotentMeasure:
    """The measure evaluating phi to phi(x): single atom at x, weight 0."""
    return make_measure(ground, [(x, 0.0)])


def evaluate(mu: IdempotentMeasure, phi: FunctionOnSpace) -> float:
    """max over entries of (weight + phi(atom))."""
    if phi.space is not mu.ground:
        raise SpaceMismatchError("function and measure live on different spaces")
    vals = phi.values
    return max(w + vals[a] for a, w in zip(mu.atoms, mu.weights))


def pushforward(mapping, mu: IdempotentMeasure) -> IdempotentMeasure:
    """Image measure under a self-map of ``mu``'s space; weights merge by
    max.

    ``mapping`` is a dict keyed by atom index or label (values likewise),
    or a callable on atom indices.  It must be defined on every support
    point.  The result stays normalized because the maximal entry maps
    somewhere.
    """
    out = []
    for a, w in zip(mu.atoms, mu.weights):
        if callable(mapping):
            target = mapping(a)
        elif a in mapping:
            target = mapping[a]
        elif mu.ground.labels[a] in mapping:
            target = mapping[mu.ground.labels[a]]
        else:
            raise ValueError(
                f"mapping undefined for support point {mu.ground.labels[a]!r}"
            )
        out.append((target, w))
    return make_measure(mu.ground, out)


def measures_close(a: IdempotentMeasure, b: IdempotentMeasure, tol: float = 1e-9) -> bool:
    """Equal supports and weights within ``tol`` (over the same space)."""
    if a.ground is not b.ground or a.atoms != b.atoms:
        return False
    return all(abs(x - y) <= tol for x, y in zip(a.weights, b.weights))


def measure_to_term(mu: IdempotentMeasure) -> dict:
    """The document term of ``mu``: its entries as {"atom", "weight"}, an
    atom being a point label at level 1 and a nested term above."""
    ground = mu.ground
    return {"support": [
        {"atom": ground.labels[a] if ground.level == 0 else measure_to_term(ground.points[a]),
         "weight": w} for a, w in mu.entries()]}


def _document(space: "FiniteMetricSpace", measures: dict) -> dict:
    """The document of ``space`` and the named ``measures``, {name: measure}
    over ``space`` or a tower above it, as the CLI reads and writes it."""
    return {"space": {"points": list(space.labels), "dist": space.dist.tolist()},
            "measures": {name: measure_to_term(m) for name, m in measures.items()}}
