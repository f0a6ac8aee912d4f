"""Command-line front end.

One JSON document format serves every nesting level: a document holds one
base space and named measures whose support atoms are point labels
(level-1 measures), nested measure terms, or names of other measures in
the same document (levels >= 2).  Commands compute distances, flattens,
pushforwards and evaluations, and drive the randomized verification
campaigns.

Exit codes: 0 success, 1 usage error, 2 parse/validation error,
3 property violation.
"""

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

from .measures import (SNAP_TOL, FunctionOnSpace, IdempotentMeasure, _document, _snapped,
                       evaluate, measure_to_term, pushforward)
from .monad import flatten
from .spaces import FiniteMetricSpace, _build, _restrict, validate
from .transport import bottleneck_distance, bottleneck_distance_bruteforce
from .verify import (
    MIN_SPACE_SIZE,
    run_axioms,
    run_lemma1,
    run_lemma2,
    run_lemma3,
    run_oracle_equivalence,
)

__all__ = ["main", "parse_document", "document_to_text", "measure_to_term",
           "Document", "DocumentError", "UsageError"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3


class UsageError(Exception):
    pass


class DocumentError(Exception):
    pass


@dataclass
class Document:
    """A parsed document: the base space and its named measures."""

    space: FiniteMetricSpace
    measures: dict

    def measure(self, name: str) -> IdempotentMeasure:
        try:
            return self.measures[name]
        except KeyError:
            raise DocumentError(
                f"unknown measure {name!r}; document defines {sorted(self.measures)}"
            ) from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# parsing


def _parse_weight(w, name: str) -> float:
    """The float of a JSON weight that is not a finite float, or DocumentError."""
    if w == "-inf":
        raise DocumentError(
            f"weight \"-inf\" in support of {name!r}: support weights must be finite")
    if isinstance(w, bool) or not isinstance(w, (int, float)):
        raise DocumentError(f"weight {w!r} in {name!r} is not a number")
    try:
        w = float(w)
    except OverflowError:  # an integer past the float range
        w = -math.inf if w < 0 else math.inf
    if not math.isfinite(w):
        raise DocumentError(
            f"non-finite weight {w!r} in support of {name!r}: support weights must be finite")
    return w


def _space_from_raw(raw) -> FiniteMetricSpace:
    if not isinstance(raw, dict) or "space" not in raw:
        raise DocumentError("document must be a JSON object with a 'space' entry")
    blk = raw["space"]
    if not isinstance(blk, dict) or "points" not in blk or "dist" not in blk:
        raise DocumentError("'space' must carry 'points' and 'dist'")
    points = blk["points"]
    if (not isinstance(points, list) or not points
            or not all(isinstance(p, str) for p in points)):
        raise DocumentError("'points' must be a nonempty list of strings")
    dist = blk["dist"]
    n = len(points)
    if (not isinstance(dist, list) or len(dist) != n
            or any(not isinstance(r, list) or len(r) != n for r in dist)):
        raise DocumentError(f"'dist' must be a {n}x{n} matrix")
    # one C-level pass over the types; bool is its own type, so it fails too.
    # Only then the loop, to name the first bad value in row-major order.
    if not set(map(type, itertools.chain.from_iterable(dist))) <= {int, float}:
        for row in dist:
            for v in row:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise DocumentError(f"distance {v!r} is not a number")
    try:
        space = FiniteMetricSpace(points, dist, check=False)
    except Exception as e:
        raise DocumentError(f"invalid space: {e}") from None
    violation = validate(space)
    if violation is not None:
        raise DocumentError(f"invalid space ({violation.axiom}): {violation.message}")
    return space


def parse_document(text: str) -> Document:
    """Parse and fully validate a document.

    One walk visits each term once, children before parents: it checks
    the term's shape and each weight, resolves each atom string to a point
    label first and a named measure otherwise, and checks the term's level
    and normalization, so a bad term anywhere is an error.  Each level's
    terms, named and anonymous alike, are then built in the order the walk
    came to know them, as ``make_measure`` builds them, over one lifted
    space per level; the builder's dedupe of the level below places each
    atom.  A lifted space computes its distances on their first read, so
    only a command that measures at the level above pays for them; ``dist``
    measures over a tower restricted to its two measures and never reads
    these.  On the benchmark's 115 KB level-3 documents (64 points; 120, 40
    and 8 measures) a command takes 4-5 ms on a 2-vCPU VM (Python 3.11): 1.7
    ms to decode, 0.9 to validate the space, 1 for the 168 terms, 0.3-0.5 to run.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None

    space = _space_from_raw(raw)
    raw_measures = raw.get("measures", {})
    if not isinstance(raw_measures, dict):
        raise DocumentError("'measures' must map names to measure terms")

    index = space._index
    # levels[k]: (atoms, weights) of each level-(k + 1) term in the order
    # it became known; a level-1 atom is a point, a higher one the place of a
    # term in the level below
    levels: list[list] = []
    known: dict[int, tuple] = {}  # id of a term -> (its level, its place)

    def walk(term, name: str, visiting: tuple) -> tuple:
        if not isinstance(term, dict) or "support" not in term:
            raise DocumentError(f"measure {name!r} must be an object with a 'support' list")
        sup = term["support"]
        if not isinstance(sup, list) or not sup:
            raise DocumentError(f"measure {name!r} needs a nonempty 'support' list")
        atoms, weights, level, mixed = [], [], None, False
        for entry in sup:
            if not isinstance(entry, dict) or "atom" not in entry or "weight" not in entry:
                raise DocumentError(
                    f"support entries of {name!r} must carry 'atom' and 'weight'")
            w = entry["weight"]
            if type(w) is not float or not -math.inf < w < math.inf:  # else taken as is
                w = _parse_weight(w, name)
            atom = entry["atom"]
            if isinstance(atom, dict):
                lv, a = walk(atom, f"{name}(nested)", visiting)
            elif not isinstance(atom, str):
                raise DocumentError(f"atom {atom!r} in measure {name!r} must be a label, "
                                    "a measure name, or a nested term")
            elif (a := index.get(atom)) is not None:
                lv = 0
            elif atom not in raw_measures:
                raise DocumentError(f"unknown atom {atom!r} in measure {name!r}: "
                                    "neither a point label nor a measure name")
            elif (found := known.get(id(raw_measures[atom]))) is not None:
                lv, a = found
            elif atom in visiting:
                cycle = " -> ".join(visiting + (atom,))
                raise DocumentError(f"cycle in measure references: {cycle}")
            else:
                lv, a = walk(raw_measures[atom], atom, visiting + (atom,))
            if lv != level:
                mixed, level = level is not None, lv
            atoms.append(a)
            weights.append(w)
        if mixed:
            raise DocumentError(f"measure {name!r} mixes atoms of different levels")
        top = max(weights)
        if abs(top) > SNAP_TOL:
            raise DocumentError(f"invalid measure {name!r}: max weight is {top!r}, "
                                "expected 0 (shift the term's weights so that the largest is 0)")
        if level == len(levels):
            levels.append([])
        found = known[id(term)] = (level + 1, len(levels[level]))
        levels[level].append((atoms, weights))
        return found

    try:
        for name, term in raw_measures.items():
            if id(term) not in known:
                walk(term, name, (name,))
    except RecursionError:
        raise DocumentError("document nests too deeply") from None

    # Build each level before lifting the ground for the next, so a lifted
    # space sees all its members at once; the builder dedupes them, says
    # which point each became, and leaves the distances to their first read.
    built = []
    ground, where = space, None
    for members in levels:
        if built:
            ground, where = _build(ground, built[-1])
        measures = []
        for atoms, weights in members:
            if where is not None:
                atoms = [where[k] for k in atoms]
            measures.append(_snapped(ground, zip(atoms, weights)))
        built.append(measures)
    named = {}
    for name, term in raw_measures.items():
        level, place = known[id(term)]
        named[name] = built[level - 1][place]
    return Document(space, named)


# ---------------------------------------------------------------------------
# rendering


def document_to_text(doc: Document) -> str:
    return json.dumps(_document(doc.space, doc.measures), indent=2)


# ---------------------------------------------------------------------------
# commands


def _load(path: str) -> Document:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    return parse_document(text)


def _parse_pairs(spec: str, flag: str, space: FiniteMetricSpace) -> dict:
    """key=value pairs keyed by point labels of ``space``."""
    out = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"{flag} expects comma-separated key=value pairs, got {chunk!r}")
        key, _, val = chunk.partition("=")
        key = key.strip()
        if key not in space.labels:
            raise DocumentError(f"{flag} names unknown point label {key!r}")
        if key in out:
            raise DocumentError(f"{flag} names point label {key!r} twice")
        out[key] = val.strip()
    if not out:
        raise UsageError(f"{flag} must not be empty")
    return out


def _print_term(mu: IdempotentMeasure):
    try:
        text = json.dumps(measure_to_term(mu), indent=2)
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    print(text)


def cmd_dist(args) -> int:
    """H and rho between two measures of one level, and with ``--oracle``
    the brute-force H.  Both run over the tower restricted to the points
    the two measures reach (:func:`~tropmeas.spaces._restrict`), so only
    the distances among those are computed; the values are bit for bit
    those over the document's full levels."""
    doc = _load(args.file)
    m1 = doc.measure(args.m1)
    m2 = doc.measure(args.m2)
    if m1.ground is not m2.ground:
        raise DocumentError(
            f"{args.m1!r} and {args.m2!r} are measures at different levels"
        )
    m1, m2 = _restrict([m1, m2])
    if args.oracle:  # before any output: past the enumeration guard, print nothing
        try:
            o = bottleneck_distance_bruteforce(m1, m2)
        except ValueError as e:
            raise DocumentError(str(e)) from None
    h = bottleneck_distance(m1, m2)
    d = m1.ground.truncation_diam
    if h > d:
        print(f"H = {_fmt(h)}, rho_I = {_fmt(d)} (truncated at diam = {_fmt(d)})")
    else:
        print(f"H = {_fmt(h)}, rho_I = {_fmt(h)} (diam = {_fmt(d)}, no truncation)")
    if args.oracle:
        print(f"H_oracle = {_fmt(o)}")
        if o != h:
            print(
                f"MISMATCH: H = {h!r} but H_oracle = {o!r}",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
    return EXIT_OK


def cmd_flatten(args) -> int:
    doc = _load(args.file)
    m = doc.measure(args.m)
    if m.ground.level < 1:
        raise DocumentError(
            f"{args.m!r} is a measure over the base space; flatten needs level >= 2"
        )
    _print_term(flatten(m))
    return EXIT_OK


def cmd_push(args) -> int:
    doc = _load(args.file)
    m = doc.measure(args.m)
    mapping = _parse_pairs(args.map, "--map", m.ground)
    try:
        result = pushforward(mapping, m)
    except (ValueError, KeyError) as e:
        raise DocumentError(e.args[0]) from None
    _print_term(result)
    return EXIT_OK


def cmd_eval(args) -> int:
    doc = _load(args.file)
    m = doc.measure(args.m)
    pairs = _parse_pairs(args.phi, "--phi", m.ground)
    try:
        values = {k: float(v) for k, v in pairs.items()}
    except ValueError:
        raise UsageError("--phi values must be numbers") from None
    try:
        phi = FunctionOnSpace.from_mapping(m.ground, values)
    except ValueError as e:
        raise DocumentError(str(e)) from None
    print(_fmt(evaluate(m, phi)))
    return EXIT_OK


#: check -> runner.  Default cases and tolerances live in the runner signatures.
_CAMPAIGNS = {
    "oracle": run_oracle_equivalence,
    "axioms": run_axioms,
    "lemma1": run_lemma1,
    "lemma2": run_lemma2,
    "lemma3": run_lemma3,
}

#: Largest --space-size.  Every case builds and validates its own space in
#: time cubic in the count (see the option's help); its memory stays a few
#: n x n matrices (21 MB at the peak at 1024), as both cubic loops work in
#: row blocks through a small buffer.
MAX_SPACE_SIZE = 1024


def cmd_verify(args) -> int:
    runner = _CAMPAIGNS[args.check]
    given = {}
    if args.cases is not None:
        if args.cases < 1:
            raise UsageError(f"--cases must be at least 1, got {args.cases}")
        given["cases"] = args.cases
    if args.tol is not None:
        if not (math.isfinite(args.tol) and args.tol >= 0):
            raise UsageError(f"--tol must be finite and >= 0, got {args.tol!r}")
        given["tol"] = args.tol
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.space_size is not None and not (
            MIN_SPACE_SIZE <= args.space_size <= MAX_SPACE_SIZE):
        raise UsageError(
            f"--space-size must be between {MIN_SPACE_SIZE} and "
            f"{MAX_SPACE_SIZE}, got {args.space_size}"
        )
    report = runner(seed=args.seed, space_size=args.space_size, **given)
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on a process's first command; parsing leaves it unchanged."""
    parser = _Parser(prog="tropmeas",
                     description="max-plus measures on finite metric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="transport value and metric between two measures")
    p.add_argument("file")
    p.add_argument("m1")
    p.add_argument("m2")
    p.add_argument("--oracle", action="store_true",
                   help="also run brute-force enumeration and compare")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("flatten", help="collapse a measure of measures")
    p.add_argument("file")
    p.add_argument("m")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("push", help="pushforward under a point map")
    p.add_argument("file")
    p.add_argument("m")
    p.add_argument("--map", required=True, metavar="a=b,c=d")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("eval", help="evaluate a measure against a function")
    p.add_argument("file")
    p.add_argument("m")
    p.add_argument("--phi", required=True, metavar="a=1,b=5")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a randomized verification campaign")
    p.add_argument("check", choices=sorted(_CAMPAIGNS))
    p.add_argument("--space-size", type=int, default=None,
                   help="fixed point count, 2 to 1024 (default: random 3-6 per "
                        "case); every case builds its own space in time cubic in "
                        "the count: about 0.06-0.09 s at 256 points, 3.3-4 s at "
                        "1024 on a 2-vCPU Xeon VM")
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DocumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
