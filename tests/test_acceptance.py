"""Acceptance criteria, one test per criterion, at the stated sizes and
tolerances.  Each test prints a single pass/fail line; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.

Criteria 5 and 9 are currently expected to fail: the blanket
preimage-distance equality behind the lemma2 campaign does not hold for
preimages with slack cross-memberships (see
tests/test_verify.py::test_lemma2_equality_fails_with_slack_cross_memberships
for a pinned, oracle-verified counterexample), so the lemma2 campaign
reports genuine violations and its CLI run exits 3.
"""

import time

import numpy as np

import tropmeas as tm
from tropmeas import defects
from tropmeas.cli import main as cli_main
from tropmeas.measures import FunctionOnSpace, pointwise_max
from tropmeas.monad import flatten, flatten_via_evaluation, map_unit, unit
from tropmeas.spaces import lift
from tropmeas.verify import (
    gen_measure,
    gen_space,
    run_lemma1,
    run_lemma2,
    run_lemma3,
    run_oracle_equivalence,
)

_T0 = time.perf_counter()
SEED = 0


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}{' - ' + detail if detail else ''}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    report = run_oracle_equivalence(cases=500, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    _line(1, "oracle equivalence", ok,
          f"500 cases bitwise, max gap {report.max_violation:.3g}, {elapsed:.1f}s")
    assert report.passed, report.to_text()
    assert elapsed < 10.0, f"oracle campaign took {elapsed:.1f}s"


def test_criterion_2_metric_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_triangle = 0.0
    for _ in range(1000):
        space = gen_space(int(rng.integers(3, 7)), rng)
        a, b, c = (gen_measure(space, 4, rng) for _ in range(3))
        dab = tm.measure_distance(a, b)
        dba = tm.measure_distance(b, a)
        dac = tm.measure_distance(a, c)
        dbc = tm.measure_distance(b, c)
        assert dab >= 0.0
        assert dab == dba, "symmetry must be exact"
        assert tm.measure_distance(a, a) == 0.0
        assert (dab == 0.0) == (a == b), "identity of indiscernibles"
        worst_triangle = max(worst_triangle, dac - (dab + dbc))
        assert dac <= dab + dbc + 1e-9, "triangle inequality"
        assert dab <= space.truncation_diam
        assert dac <= space.truncation_diam
    elapsed = time.perf_counter() - t0
    _line(2, "metric axioms", elapsed < 10.0,
          f"1000 triples, worst triangle excess {worst_triangle:.3g}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_3_measure_axioms():
    rng = np.random.default_rng(SEED)
    worst_shift = 0.0
    for _ in range(1000):
        space = gen_space(int(rng.integers(3, 7)), rng)
        n = len(space)
        mu = gen_measure(space, n, rng)
        phi = FunctionOnSpace(space, tuple(rng.uniform(-10, 10, n)))
        psi = FunctionOnSpace(space, tuple(rng.uniform(-10, 10, n)))
        c = float(rng.uniform(-10, 10))
        assert tm.evaluate(mu, FunctionOnSpace(space, (c,) * n)) == c
        gap = abs(tm.evaluate(mu, phi.shift(c)) - (tm.evaluate(mu, phi) + c))
        worst_shift = max(worst_shift, gap)
        assert gap <= 1e-12
        assert tm.evaluate(mu, pointwise_max(phi, psi)) == max(
            tm.evaluate(mu, phi), tm.evaluate(mu, psi)
        )
    _line(3, "measure axioms", True,
          f"1000 cases, worst shift gap {worst_shift:.3g}")


def test_criterion_4_flatten_non_expansion():
    """Passes at SEED = 0 only because that seed is clean: at these
    defaults the lemma1 campaign reports violations on 11 of seeds 0-99
    (2, 4, 15, 31, 34, 39, 53, 55, 59, 72 and 85; see bench/digests.json
    and README "Known failing campaign").  Seed and tolerance stay put."""
    t0 = time.perf_counter()
    report = run_lemma1(cases=500, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 20.0
    _line(4, "flatten non-expansion", ok,
          f"500 pairs, max violation {report.max_violation:.3g}, {elapsed:.1f}s")
    assert report.passed, report.to_text()
    assert elapsed < 20.0


def test_criterion_5_preimage_dirac_distance():
    report = run_lemma2(cases=500, seed=SEED)
    _line(5, "preimage Dirac distance", report.passed,
          f"500 cases, {len(report.failures)} violations, "
          f"max {report.max_violation:.3g}")
    assert report.passed, report.to_text()


def test_criterion_6_unit_separation():
    report = run_lemma3(cases=100, seed=SEED, sample_count=200)
    _line(6, "unit separation", report.passed,
          f"100 measures x (200 samples + all Diracs), "
          f"max violation {report.max_violation:.3g}")
    assert report.passed, report.to_text()


def test_criterion_7_monad_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(500):
        space = gen_space(int(rng.integers(3, 7)), rng)
        pool = [gen_measure(space, 3, rng) for _ in range(int(rng.integers(2, 6)))]
        lifted = lift(space, pool)
        M = gen_measure(lifted, 3, rng)
        phi = FunctionOnSpace(space, tuple(rng.uniform(-10, 10, len(space))))
        flat = flatten(M)
        gap = abs(tm.evaluate(flat, phi) - flatten_via_evaluation(M, phi))
        worst = max(worst, gap)
        assert gap <= 1e-12
        inner_union = set()
        for k in M.atoms:
            inner_union |= set(lifted.points[k].atoms)
        assert set(flat.atoms) == inner_union, "flatten support identity"
        mu = gen_measure(space, 4, rng)
        assert flatten(unit(mu)) == mu, "flatten o unit must be the identity"
        assert flatten(map_unit(mu)) == mu
    _line(7, "monad identities", True,
          f"500 cases, worst evaluation gap {worst:.3g}")


def test_criterion_8_mutation_guard():
    undetected = []
    for defect in sorted(defects.DEFECTS):
        with defects.inject(defect):
            caught = not all([
                run_oracle_equivalence(cases=60, seed=SEED).passed,
                run_lemma1(cases=60, seed=SEED).passed,
                run_lemma2(cases=60, seed=SEED).passed,
                _metric_axioms_pass(cases=60),
            ])
        if not caught:
            undetected.append(defect)
    _line(8, "mutation guard", not undetected,
          f"defects {sorted(defects.DEFECTS)} all detected" if not undetected
          else f"undetected: {undetected}")
    assert not undetected


def _metric_axioms_pass(cases: int) -> bool:
    rng = np.random.default_rng(SEED)
    try:
        for _ in range(cases):
            space = gen_space(int(rng.integers(3, 7)), rng)
            a, b, c = (gen_measure(space, 4, rng) for _ in range(3))
            dab = tm.measure_distance(a, b)
            if dab != tm.measure_distance(b, a) or dab < 0:
                return False
            if dab > space.truncation_diam:
                return False
            if tm.measure_distance(a, c) > dab + tm.measure_distance(b, c) + 1e-9:
                return False
    except Exception:
        return False
    return True


def test_criterion_9_cli_and_runtime(capsys):
    codes = {}
    for check in ("oracle", "axioms", "lemma1", "lemma2", "lemma3"):
        codes[check] = cli_main(["verify", check, "--seed", str(SEED)])
    capsys.readouterr()  # drop campaign output; reprint the summary line
    elapsed = time.perf_counter() - _T0
    clean = all(code == 0 for code in codes.values())
    ok = clean and elapsed < 60.0
    with capsys.disabled():
        _line(9, "CLI verify + runtime", ok,
              f"exit codes {codes}, acceptance module elapsed {elapsed:.1f}s")
    assert elapsed < 60.0, f"acceptance module took {elapsed:.1f}s"
    assert clean, f"verify subcommands must exit 0 at defaults, got {codes}"
