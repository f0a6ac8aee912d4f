"""The benchmark workloads.

Each workload builds its inputs from the seed during set-up, so the
program under test only receives them, and then hands out passes: fixed
lists of operations through the public API, each with a check of its
output.  A pass is the unit a run repeats until its time is up.
Every call looks up its function on the ``tropmeas`` modules at call time,
so a traced run sees the rebound, span-recording names.
"""

import contextlib
import inspect
import io
import json
import math
import re
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import tropmeas
import tropmeas.cli

import threshold

DIGESTS = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """An operation returned a wrong output."""


@dataclass
class Op:
    """One closed-loop operation: ``call`` is timed, ``check`` is not."""

    label: str
    call: Callable[[], object]
    items: int
    check: Callable[[object], None]


_KERNEL = ("transport.bottleneck_distance.calls", "transport.bottleneck_distance.self_s",
           "transport.bottleneck_distance.cells", "transport.measure_distance.calls")
_SPACES = ("spaces.FiniteMetricSpace.calls", "spaces.FiniteMetricSpace.self_s",
           "spaces.lift.calls", "spaces.lift.self_s", "spaces.lift.pairs",
           "spaces.lift.dedupe_ratio")
_CLOSE = ("measures.measures_close.calls", "measures.measures_close.self_s")
_INDEX = ("spaces.index_of_measure.calls", "spaces.index_of_measure.self_s",
          "spaces.index_of_measure.scan_len")
_MAKE = ("measures.make_measure.calls", "measures.make_measure.self_s")
_DEFECTS = ("defects.enabled.calls",)


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# campaigns


CAMPAIGNS = (
    "run_oracle_equivalence",
    "run_axioms",
    "run_lemma1",
    "run_lemma2",
    "run_lemma3",
)


def report_digest(report) -> str:
    """Failure count and the exact bits of the largest violation."""
    return f"{report.check}:{len(report.failures)}:{report.max_violation.hex()}"


def campaign_digests(seed: int) -> dict:
    return {fn: report_digest(getattr(tropmeas, fn)(seed=seed)) for fn in CAMPAIGNS}


class Campaigns:
    """The five campaigns of ``tropmeas verify`` at their defaults.

    Pass i runs every campaign at seed (workload seed + i) mod
    RECORDED_SEEDS, so a run averages the cost of several campaign seeds
    and every report has a recorded digest to match.  Lemma2 (and lemma1
    on some seeds) reports counterexamples; a report is a result, so the
    check compares its digest with the recorded one instead of asking it
    to pass.  Only the oracle campaign must have no failures.
    """

    name = "campaigns"
    item = "campaign cases"
    trace_passes = 1
    why = ("what `tropmeas verify` users wait for: the 5 campaigns at CLI defaults (2600 cases),"
           " seed (--seed + pass) mod 100; churn (spaces+measures+monad) 44% of traced self time")
    dominant = ("spaces", "measures", "monad")
    layers = (_KERNEL + (
        "transport.bottleneck_distance_bruteforce.calls",
        "transport.bottleneck_distance_bruteforce.self_s",
        "transport.bottleneck_distance_bruteforce.masks",
        "transport.distance_to_diracs.self_s")
        + _SPACES + ("spaces.lift_extend.calls", "spaces.lift_extend.self_s",
                     "spaces.lift_extend.pairs") + _INDEX + _MAKE + _CLOSE
        + tuple(f"monad.{f}.{m}" for f in ("flatten", "unit", "map_unit",
                                           "sample_flatten_preimage")
                for m in ("calls", "self_s"))
        + ("verify.gen.self_s",) + tuple(f"verify.{fn}.wall_s" for fn in CAMPAIGNS)
        + _DEFECTS)

    RECORDED_SEEDS = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.recorded = json.loads(DIGESTS.read_text())
        self.cases = {
            fn: inspect.signature(getattr(tropmeas, fn)).parameters["cases"].default
            for fn in CAMPAIGNS
        }
        for fn in CAMPAIGNS:
            getattr(tropmeas, fn)(cases=4, seed=seed)

    def _check(self, seed: int, reports):
        for fn, report in zip(CAMPAIGNS, reports):
            digest = report_digest(report)
            recorded = self.recorded[str(seed)][fn]
            _require(report.cases == self.cases[fn], f"{fn} ran {report.cases} cases")
            if fn == "run_oracle_equivalence":
                _require(report.passed, f"oracle campaign failed at seed {seed}: {digest}")
            _require(digest == recorded,
                     f"{fn} seed {seed}: digest {digest} != recorded {recorded}")

    def ops(self, index: int) -> list:
        """One operation: all five verdicts of ``tropmeas verify`` at one seed."""
        seed = (self.seed + index) % self.RECORDED_SEEDS
        return [Op("verify", lambda: [getattr(tropmeas, fn)(seed=seed) for fn in CAMPAIGNS],
                   sum(self.cases.values()), lambda reports: self._check(seed, reports))]

    @staticmethod
    def fingerprint(reports):
        return [r.to_dict() for r in reports]

    @staticmethod
    def aliases(values, lat, passes_s):
        return [f"verify_s {values['pass_p50_ms'] / 1e3:.6g} s "
                f"(median time to all five verdicts, {len(passes_s)} passes)"]


# ---------------------------------------------------------------------------
# distance_matrix


#: Weights span a quarter of the diameter, so that most distances stay
#: below the truncation and the checks compare untruncated values.
WEIGHT_SPAN = 0.25


def _random_weights(size: int, diam: float, rng):
    """Uniform in [-WEIGHT_SPAN * diam, 0], one weight exactly 0."""
    weights = rng.uniform(-WEIGHT_SPAN * diam, 0.0, size=size)
    weights[int(rng.integers(size))] = 0.0
    return weights


def _random_measure(space, size: int, rng):
    atoms = rng.choice(len(space), size=size, replace=False)
    weights = _random_weights(size, space.truncation_diam, rng)
    return tropmeas.make_measure(space, [(int(a), float(w)) for a, w in zip(atoms, weights)])


class DistanceMatrix:
    """Distance matrices of large-support measures over one big space.

    Supports are log-uniform in [16, 256], drawn one per equal-width
    log stratum so every batch has nearly the same cost and the run's
    median does not hinge on a few large draws.
    """

    name = "distance_matrix"
    item = "distance pairs"
    trace_passes = 2
    why = ("the large-support kernel alone: lift of 24 measures (276 pairs), supports "
           "log-uniform in 16..256 over a 512-point space from --seed; transport 99% of self time")
    dominant = ("transport",)
    layers = _KERNEL + _SPACES + _CLOSE + _DEFECTS
    POINTS = 512
    BATCH = 24
    SUPPORT = (16, 256)
    CHECKED_PAIRS = 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.space = tropmeas.gen_space(self.POINTS, np.random.default_rng([seed, 0]))
        warm = self.batch(-1)[:4]
        tropmeas.lift(self.space, warm)

    def batch(self, index: int) -> list:
        rng = np.random.default_rng([self.seed, 1, index + 1])
        lo, hi = np.log(self.SUPPORT[0]), np.log(self.SUPPORT[1])
        strata = (np.arange(self.BATCH) + rng.uniform(size=self.BATCH)) / self.BATCH
        sizes = np.rint(np.exp(lo + (hi - lo) * rng.permutation(strata))).astype(int)
        return [_random_measure(self.space, int(s), rng) for s in sizes]

    def _check(self, measures, rng, lifted):
        n = len(measures)
        _require(len(lifted) == n and all(p is m for p, m in zip(lifted.points, measures)),
                 "lift merged or reordered distinct measures")
        d = lifted.dist
        diam = self.space.truncation_diam
        _require(bool((d == d.T).all()), "distance matrix is not symmetric")
        _require(not np.diagonal(d).any(), "distance matrix has a nonzero diagonal")
        _require(bool((d <= diam).all()), "a distance exceeds the truncation diameter")
        dist = self.space.dist
        for _ in range(self.CHECKED_PAIRS):
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            a, b = measures[i], measures[j]
            ref = threshold.truncated(
                threshold.bottleneck(a.weights, b.weights, dist[np.ix_(a.atoms, b.atoms)]),
                diam)
            _require(d[i, j] == ref,
                     f"pair ({i}, {j}): lift gives {float(d[i, j]).hex()}, "
                     f"threshold search {ref.hex()}")

    def ops(self, index: int) -> list:
        measures = self.batch(index)
        rng = np.random.default_rng([self.seed, 2, index])
        pairs = self.BATCH * (self.BATCH - 1) // 2
        return [Op("lift", lambda: tropmeas.lift(self.space, measures), pairs,
                   lambda lifted: self._check(measures, rng, lifted))]

    @staticmethod
    def fingerprint(lifted):
        return lifted.dist.tobytes()

    @staticmethod
    def aliases(values, lat, passes_s):
        return [f"pairs_per_s {values['items_per_s']:.6g} 1/s"]


# ---------------------------------------------------------------------------
# cli_document


_DIST_LINE = re.compile(r"H = (\S+), rho_I = (\S+) \(")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


class CliDocument:
    """In-process ``tropmeas`` commands on one seeded level-3 document.

    Every command parses the document file again, as separate CLI calls
    do.  Expected outputs come from the benchmark's own arithmetic: the
    threshold search for ``dist`` at every level, max-plus sums for
    ``eval`` and ``push``, and ``flatten_via_evaluation`` for ``flatten``.
    """

    name = "cli_document"
    item = "commands"
    trace_passes = 1
    why = ("CLI use: 24 commands a pass (dist at 3 levels, flatten, eval, push), each parsing a"
           " --seed level-3 document (64 points, 120/40/8 measures); transport 56% of self time")
    dominant = ("transport",)
    layers = (_KERNEL + _SPACES + _INDEX + _MAKE + _CLOSE
              + ("monad.flatten.calls", "monad.flatten.self_s",
                 "cli.parse_document.calls", "cli.parse_document.self_s",
                 "cli.command.self_s") + _DEFECTS)
    POINTS = 64
    COUNTS = (120, 40, 8)          # measures at levels 1, 2, 3
    SUPPORTS = ((2, 6), (2, 5), (2, 4))
    PREPARED_PASSES = 16
    FLATTEN_TOL = 1e-9             # CAMPAIGN_TOL: two levels re-associate sums

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        space = tropmeas.gen_space(self.POINTS, rng)
        self.labels = list(space.labels)
        self.base = np.array(space.dist)
        self.diam = space.truncation_diam
        self.measures = {}         # name -> (level, atoms, weights)
        prefixes = ("a", "b", "c")
        for level, (count, (lo, hi)) in enumerate(zip(self.COUNTS, self.SUPPORTS), start=1):
            pool = (list(range(self.POINTS)) if level == 1
                    else [f"{prefixes[level - 2]}{i}" for i in range(self.COUNTS[level - 2])])
            for i in range(count):
                size = int(rng.integers(lo, hi + 1))
                picks = rng.choice(len(pool), size=size, replace=False)
                weights = _random_weights(size, self.diam, rng)
                self.measures[f"{prefixes[level - 1]}{i}"] = (
                    level, [pool[int(p)] for p in picks], [float(w) for w in weights])
        doc = {
            "space": {"points": self.labels, "dist": self.base.tolist()},
            "measures": {
                name: {"support": [
                    {"atom": self.labels[a] if level == 1 else a, "weight": w}
                    for a, w in zip(atoms, weights)]}
                for name, (level, atoms, weights) in self.measures.items()
            },
        }
        self.path = workdir / "cli-document.json"
        text = json.dumps(doc)
        self.path.write_text(text)
        self.parsed = tropmeas.cli.parse_document(text)
        self._rho = {}
        self.script = [self._pass_script(rng) for _ in range(self.PREPARED_PASSES)]

    # reference values ---------------------------------------------------

    def rho(self, a: str, b: str):
        """(H, rho) between two named measures of one level, by threshold search."""
        key = (a, b) if a <= b else (b, a)
        if key not in self._rho:
            level, atoms_a, wa = self.measures[a]
            _, atoms_b, wb = self.measures[b]
            if level == 1:
                ground = self.base[np.ix_(atoms_a, atoms_b)]
            else:
                ground = [[0.0 if x == y else self.rho(x, y)[1] for y in atoms_b]
                          for x in atoms_a]
            h = threshold.bottleneck(wa, wb, ground)
            self._rho[key] = (h, threshold.truncated(h, self.diam))
        return self._rho[key]

    def _names(self, level: int) -> list:
        return [n for n, m in self.measures.items() if m[0] == level]

    def _pass_script(self, rng) -> list:
        """24 commands: dist at each level in both orders, flatten at levels
        2 and 3, eval and push at level 1."""
        file = str(self.path)
        pick = lambda names, k: [names[int(i)] for i in rng.choice(len(names), k, replace=False)]
        level = {lv: self._names(lv) for lv in (1, 2, 3)}
        script = []
        for lv, pairs in ((1, 3), (2, 2), (3, 1)):
            for _ in range(pairs):
                a, b = pick(level[lv], 2)
                h, r = self.rho(a, b)
                expect = (_fmt(h), _fmt(r))
                script.append((["dist", file, a, b], ("dist", expect), None))
                script.append((["dist", file, b, a], ("dist", expect), len(script) - 1))
        for lv in (2, 3):
            for name in pick(level[lv], 2):
                script.append((["flatten", file, name], self._flatten_expect(name, rng), None))
        for name in pick(level[1], 4):
            phi = {lab: float(v) for lab, v in zip(self.labels, rng.uniform(-10, 10, self.POINTS))}
            _, atoms, weights = self.measures[name]
            value = max(w + phi[self.labels[a]] for a, w in zip(atoms, weights))
            arg = ",".join(f"{k}={v!r}" for k, v in phi.items())
            script.append((["eval", file, name, "--phi", arg], ("eval", _fmt(value)), None))
        for name in pick(level[1], 4):
            targets = pick(self.labels, 8)
            mapping = {lab: targets[int(rng.integers(8))] for lab in self.labels}
            _, atoms, weights = self.measures[name]
            image = {}
            for a, w in zip(atoms, weights):
                t = mapping[self.labels[a]]
                image[t] = max(image.get(t, -math.inf), w)
            arg = ",".join(f"{k}={v}" for k, v in mapping.items())
            script.append((["push", file, name, "--map", arg], ("push", image), None))
        return script

    def _flatten_expect(self, name: str, rng):
        """Seeded phi on the flatten's ground and flatten_via_evaluation there."""
        M = self.parsed.measures[name]
        inner = M.ground.points[0].ground
        values = rng.uniform(-10, 10, len(inner))
        if inner.level == 0:
            phi_of = dict(zip(inner.labels, values))
            key = lambda atom: atom
        else:
            # atoms of the flattened measure are level-1 measures, printed as terms
            phi_of = {}
            for n in self._names(1):
                _, atoms, weights = self.measures[n]
                i = tropmeas.index_of_measure(inner, self.parsed.measures[n])
                phi_of[tuple(sorted(zip((self.labels[a] for a in atoms), weights)))] = values[i]
            key = lambda atom: tuple(sorted((e["atom"], e["weight"]) for e in atom["support"]))
        phi = tropmeas.FunctionOnSpace(inner, tuple(float(v) for v in values))
        return ("flatten", (tropmeas.flatten_via_evaluation(M, phi), phi_of, key))

    # operations ---------------------------------------------------------

    @staticmethod
    def _call(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tropmeas.cli.main(argv)
        return code, out.getvalue()

    def _check(self, argv, expect, partner, result):
        code, out = result
        _require(code == 0, f"{' '.join(argv[:1] + argv[2:4])} exited {code}")
        kind, want = expect
        if kind == "dist":
            m = _DIST_LINE.match(out)
            _require(m is not None and m.groups() == want,
                     f"dist {argv[2]} {argv[3]}: {out.strip()!r}, expected H, rho = {want}")
            if partner is not None:
                _require(out == partner[1], f"dist {argv[2]} {argv[3]} differs from reversed order")
        elif kind == "eval":
            _require(out.strip() == want, f"eval {argv[2]}: {out.strip()} != {want}")
        elif kind == "push":
            got = {e["atom"]: e["weight"] for e in json.loads(out)["support"]}
            _require(got == want, f"push {argv[2]}: {got} != {want}")
        else:
            via_eval, phi_of, key = want
            term = json.loads(out)
            value = max(e["weight"] + phi_of[key(e["atom"])] for e in term["support"])
            _require(abs(value - via_eval) <= self.FLATTEN_TOL,
                     f"flatten {argv[2]}: evaluates to {value!r}, "
                     f"flatten_via_evaluation gives {via_eval!r}")

    def ops(self, index: int) -> list:
        script = self.script[index % self.PREPARED_PASSES]
        results = {}
        ops = []
        for i, (argv, expect, partner) in enumerate(script):

            def check(result, i=i, argv=argv, expect=expect, partner=partner):
                results[i] = result
                self._check(argv, expect, results.get(partner), result)

            ops.append(Op(argv[0], lambda argv=argv: self._call(argv), 1, check))
        return ops

    @staticmethod
    def fingerprint(result):
        return result

    @staticmethod
    def aliases(values, lat, passes_s):
        return [f"cmd_p50_ms {statistics.median(lat) * 1e3:.6g} ms",
                f"cmd_p95_ms {values['op_p95_ms']:.6g} ms"]


WORKLOADS = {w.name: w for w in (Campaigns, DistanceMatrix, CliDocument)}
