"""Seeded defect injection for mutation-guarding the verification campaigns.

Each named defect deliberately corrupts one load-bearing step of the
metric computation.  The test suite turns them on and asserts that the
campaigns catch the corruption; a campaign that stays green under every
defect would be vacuous.  The loop and the sweep of :mod:`tropmeas.transport`
carry no switch: a defect is a set of source patches, each replacing one piece
of text in one function, and :func:`inject` compiles the patched source
of every affected function and swaps it in as the function's code, so
every reference to the function, however it was imported, runs the
mutant.  On exit the original code objects come back.
"""

import inspect
from contextlib import contextmanager

from . import transport

__all__ = ["DEFECTS", "enabled", "inject", "active"]

#: defect -> ((function, text, replacement), ...); each text occurs exactly
#: once in its function's source, also with every other defect applied.
#: - "drop-cost-abs": pair costs use the negated weight gap (w_l - w_k for
#:   a witness k of entry l) instead of its absolute value.
#: - "skip-truncation": the measure metric returns the raw transport value
#:   without the min(diam, .) truncation.
#: - "skip-column-witnesses": the transport value of a pair is R(mu1, mu2),
#:   and a distance matrix mirrors R's upper triangle, not max(R, R^T).
_PATCHES = {
    "drop-cost-abs": (
        (transport._row_loop, "c = (wk - wj) + dj", "c = (wj - wk) + dj"),
        (transport._block, "c = w - wl[:, None]", "c = wl[:, None] - w"),
    ),
    "skip-truncation": (
        (transport.measure_distance, "return h if h <= d else d", "return h"),
        (transport.measure_distances, "return np.where(dmat <= d, dmat, d)",
         "return dmat"),
    ),
    "skip-column-witnesses": (
        (transport.bottleneck_distance, "max(r12, r21)", "r12"),
        (transport.measure_distances, "dmat = np.maximum(R, R.T)",
         "dmat = np.triu(R) + np.triu(R, 1).T"),
    ),
}

DEFECTS = frozenset(_PATCHES)

#: patched function -> its original code object
_ORIGINAL = {fn: fn.__code__ for patches in _PATCHES.values() for fn, _, _ in patches}

_active: set[str] = set()


def enabled(name: str) -> bool:
    return name in _active


def active() -> frozenset:
    return frozenset(_active)


def _apply():
    """Give each patched function its original source with the patches of
    every active defect applied, or its original code object if none is."""
    for fn, code in _ORIGINAL.items():
        patches = [(text, new) for name in sorted(_active)
                   for f, text, new in _PATCHES[name] if f is fn]
        if not patches:
            fn.__code__ = code
            continue
        source = inspect.getsource(code)
        for text, new in patches:
            if source.count(text) != 1:
                raise ValueError(f"defect patch {text!r} matches "
                                 f"{source.count(text)} times in {fn.__name__}")
            source = source.replace(text, new)
        # blank lines in front keep the line numbers of the file
        padded = "\n" * (code.co_firstlineno - 1) + source
        scope = {}
        exec(compile(padded, code.co_filename, "exec"), vars(transport), scope)
        fn.__code__ = scope[fn.__name__].__code__


@contextmanager
def inject(name: str):
    """Enable one defect for the duration of the block, also if it raises (tests only)."""
    if name not in DEFECTS:
        raise ValueError(f"unknown defect {name!r}; known: {sorted(DEFECTS)}")
    _active.add(name)
    try:
        _apply()
        yield
    finally:
        _active.discard(name)
        _apply()
