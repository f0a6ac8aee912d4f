import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropmeas as tm
from tropmeas import cli, transport
from tropmeas.cli import (
    DocumentError,
    main,
    measure_to_term,
    parse_document,
)
from tropmeas.measures import _document
from tropmeas.spaces import _restrict, index_of_measure, lift
from tropmeas.transport import bottleneck_distance

WORKED = {
    "space": {"points": ["a", "b"], "dist": [[0, 2], [2, 0]]},
    "measures": {
        "m1": {"support": [{"atom": "a", "weight": 0}, {"atom": "b", "weight": -1}]},
        "m2": {"support": [{"atom": "a", "weight": -3}, {"atom": "b", "weight": 0}]},
        "nu2": {"support": [{"atom": "b", "weight": 0}]},
        "M": {"support": [{"atom": "m1", "weight": 0}, {"atom": "nu2", "weight": -2}]},
    },
}


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(WORKED))
    return str(path)


def test_parse_worked_document():
    doc = parse_document(json.dumps(WORKED))
    assert set(doc.measures) == {"m1", "m2", "nu2", "M"}
    m1 = doc.measures["m1"]
    assert m1.weights == (0.0, -1.0)
    M = doc.measures["M"]
    assert M.ground.level == 1
    assert {p.support_size for p in M.ground.points} >= {1, 2}


def test_parse_syntax_error_has_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document("{nope")


def test_parse_normalization_error_names_measure():
    doc = {
        "space": {"points": ["a"], "dist": [[0]]},
        "measures": {"m1": {"support": [{"atom": "a", "weight": -1}]}},
    }
    with pytest.raises(DocumentError, match="m1"):
        parse_document(json.dumps(doc))


def test_parse_rejects_asymmetric_space():
    doc = {"space": {"points": ["a", "b"], "dist": [[0, 1], [2, 0]]}}
    with pytest.raises(DocumentError, match="symmetry"):
        parse_document(json.dumps(doc))


def test_parse_rejects_bad_dimensions():
    doc = {"space": {"points": ["a", "b"], "dist": [[0, 1]]}}
    with pytest.raises(DocumentError, match="2x2"):
        parse_document(json.dumps(doc))


def test_parse_rejects_unknown_atom():
    doc = {
        "space": {"points": ["a"], "dist": [[0]]},
        "measures": {"m": {"support": [{"atom": "z", "weight": 0}]}},
    }
    with pytest.raises(DocumentError, match="unknown atom 'z'"):
        parse_document(json.dumps(doc))


def test_parse_rejects_minus_inf_weight():
    doc = {
        "space": {"points": ["a"], "dist": [[0]]},
        "measures": {"m": {"support": [{"atom": "a", "weight": "-inf"}]}},
    }
    with pytest.raises(DocumentError, match="finite"):
        parse_document(json.dumps(doc))


def test_parse_rejects_reference_cycle():
    doc = {
        "space": {"points": ["a"], "dist": [[0]]},
        "measures": {
            "m1": {"support": [{"atom": "m2", "weight": 0}]},
            "m2": {"support": [{"atom": "m1", "weight": 0}]},
        },
    }
    with pytest.raises(DocumentError, match="cycle"):
        parse_document(json.dumps(doc))


def test_parse_rejects_mixed_levels():
    doc = dict(WORKED)
    doc = json.loads(json.dumps(WORKED))
    doc["measures"]["bad"] = {
        "support": [{"atom": "a", "weight": 0}, {"atom": "m1", "weight": -1}]
    }
    with pytest.raises(DocumentError, match="mixes atoms"):
        parse_document(json.dumps(doc))


def test_parse_nested_anonymous_terms():
    doc = {
        "space": {"points": ["a", "b"], "dist": [[0, 2], [2, 0]]},
        "measures": {
            "M": {
                "support": [
                    {
                        "atom": {"support": [{"atom": "a", "weight": 0}]},
                        "weight": 0,
                    },
                    {
                        "atom": {"support": [{"atom": "b", "weight": 0}]},
                        "weight": -1,
                    },
                ]
            }
        },
    }
    M = parse_document(json.dumps(doc)).measures["M"]
    assert M.ground.level == 1
    assert M.support_size == 2


LEVEL3 = {
    "space": {"points": ["a", "b"], "dist": [[0, 2], [2, 0]]},
    "measures": {
        "m1": {"support": [{"atom": "a", "weight": 0}]},
        "m2": {"support": [{"atom": "a", "weight": 0}, {"atom": "b", "weight": -1}]},
        "M": {"support": [{"atom": "m1", "weight": 0}, {"atom": "m2", "weight": -2}]},
        "MM": {"support": [{"atom": "M", "weight": 0}]},
    },
}


def test_parse_level3_document():
    parsed = parse_document(json.dumps(LEVEL3))
    MM = parsed.measures["MM"]
    assert MM.ground.level == 2
    from tropmeas.monad import flatten

    assert flatten(flatten(MM)) == flatten(parsed.measures["M"])


# two measures at every level, so that dist measures each lifted level
LEVEL3_PAIRS = json.loads(json.dumps(LEVEL3))
LEVEL3_PAIRS["measures"].update({
    "N": {"support": [{"atom": "m2", "weight": 0}]},
    "NN": {"support": [{"atom": "M", "weight": -1}, {"atom": "N", "weight": 0}]},
})


def test_commands_compute_only_the_levels_they_measure(tmp_path, kernel_calls, lookups):
    path = tmp_path / "level3.json"
    path.write_text(json.dumps(LEVEL3_PAIRS))
    file = str(path)
    doc = parse_document(path.read_text())
    assert kernel_calls == []
    # one lookup per member handed to the builder, at levels 1 and 2; the
    # builder's answer places each atom of the level above
    members = [doc.measures[n] for n in ("m1", "m2", "M", "N")]
    assert [id(m) for m in lookups] == [id(m) for m in members]
    for argv in (["flatten", file, "MM"], ["flatten", file, "NN"], ["flatten", file, "M"],
                 ["eval", file, "m2", "--phi", "a=1,b=5"],
                 ["push", file, "m2", "--map", "a=b,b=b"],
                 ["dist", file, "m1", "m2"]):
        assert main(argv) == 0
    assert kernel_calls == []
    assert main(["dist", file, "M", "N"]) == 0
    assert kernel_calls == [1]
    assert main(["dist", file, "MM", "NN"]) == 0
    assert kernel_calls == [1, 1, 1]

    del kernel_calls[:]
    level2 = doc.measures["NN"].ground
    first = level2.dist
    assert len(kernel_calls) == 2
    assert level2.dist is first and level2._rows == first.tolist()
    assert doc.measures["M"].ground.dist is level2.points[0].ground.dist
    assert len(kernel_calls) == 2

    # measures that M/N and MM/NN do not reach widen levels 1 and 2 of the
    # parse, but dist computes only the pairs among the points it reaches
    wider = json.loads(json.dumps(LEVEL3_PAIRS))
    wider["measures"].update({
        "m3": {"support": [{"atom": "b", "weight": 0}]},
        "P": {"support": [{"atom": "m3", "weight": 0}, {"atom": "m1", "weight": -1}]},
    })
    path.write_text(json.dumps(wider))
    wide = parse_document(path.read_text())
    assert len(wide.measures["M"].ground) == len(wide.measures["MM"].ground) == 3
    del kernel_calls[:]
    assert main(["dist", file, "M", "N"]) == 0
    assert kernel_calls == [1]
    del kernel_calls[:]
    assert main(["dist", file, "MM", "NN"]) == 0
    assert kernel_calls == [1, 1]


def _random_level3_document(rng):
    """A level-3 document whose terms include exact and near copies (nonzero
    weights moved by less than 1e-9), so the builder merges points at every
    level."""
    space = tm.gen_space(int(rng.integers(3, 7)), rng)
    measures = {}
    pool = list(space.labels)
    for prefix in "abc":
        names = [f"{prefix}{i}" for i in range(int(rng.integers(3, 7)))]
        for name in names:
            size = int(rng.integers(1, min(3, len(pool)) + 1))
            atoms = [pool[int(i)] for i in rng.choice(len(pool), size, replace=False)]
            weights = [0.0] + [-float(rng.uniform(0, space.truncation_diam))
                               for _ in range(size - 1)]
            measures[name] = {"support": [{"atom": a, "weight": w}
                                          for a, w in zip(atoms, weights)]}
        copies = [names[int(i)] for i in rng.choice(len(names), 2, replace=False)]
        measures[f"{prefix}_same"] = json.loads(json.dumps(measures[copies[0]]))
        measures[f"{prefix}_near"] = {"support": [
            {"atom": e["atom"],
             "weight": e["weight"] and e["weight"] - float(rng.uniform(1e-12, 5e-10))}
            for e in measures[copies[1]]["support"]]}
        pool = names
    return {"space": {"points": list(space.labels), "dist": space.dist.tolist()},
            "measures": measures}


def _lifted_grounds(doc):
    grounds = {}
    for mu in doc.measures.values():
        space = mu.ground
        while space.level >= 1:
            grounds[id(space)] = space
            space = space.points[0].ground
    return sorted(grounds.values(), key=lambda g: -g.level)


def test_deferred_distances_match_an_eager_lift():
    rng = np.random.default_rng(2010)
    documents = [WORKED, LEVEL3, LEVEL3_PAIRS] + [_random_level3_document(rng)
                                                 for _ in range(20)]
    merged = 0
    for raw in documents:
        doc = parse_document(json.dumps(raw))
        for ground in _lifted_grounds(doc):
            inner = ground.points[0].ground
            members = {id(m) for m in doc.measures.values() if m.ground is inner}
            merged += len(members) - len(ground)
            deferred = ground.dist
            assert not deferred.flags.writeable
            eager = lift(inner, ground.points)
            assert eager.points == ground.points
            assert deferred.tobytes() == eager.dist.tobytes()
            assert ground._rows == eager._rows
            assert ground._by_atoms == {
                a: [i for i, p in enumerate(ground.points) if p.atoms == a]
                for a in {p.atoms for p in ground.points}}
        # the builder's report of each member's point matches a lookup of it
        for name, mu in doc.measures.items():
            if mu.ground.level >= 1:
                entries = [(index_of_measure(mu.ground, doc.measures[e["atom"]]), e["weight"])
                           for e in raw["measures"][name]["support"]]
                assert tm.make_measure(mu.ground, entries) == mu
    assert merged > 0


def _seeded_cli_document(rng):
    """A 64-point document with 120, 40 and 8 measures at levels 1, 2 and 3
    (supports of 2-6, 2-5 and 2-4 atoms, weights within a quarter of the
    diameter, so that few distances are truncated)."""
    space = tm.gen_space(64, rng)
    measures = {}
    pool = list(space.labels)
    for prefix, count, most in (("a", 120, 6), ("b", 40, 5), ("c", 8, 4)):
        names = [f"{prefix}{i}" for i in range(count)]
        for name in names:
            size = int(rng.integers(2, most + 1))
            atoms = [pool[int(i)] for i in rng.choice(len(pool), size, replace=False)]
            weights = [0.0] + [-float(rng.uniform(0, space.truncation_diam / 4))
                               for _ in range(size - 1)]
            measures[name] = {"support": [{"atom": a, "weight": w}
                                          for a, w in zip(atoms, weights)]}
        pool = names
    return {"space": {"points": list(space.labels), "dist": space.dist.tolist()},
            "measures": measures}


def _parse_dump(doc):
    """Each named measure's level, atoms and weight bits, then the points
    of each lifted level in order, as JSON-ready lists."""
    def entries(mu):
        return [list(mu.atoms), [w.hex() for w in mu.weights]]
    return {"measures": {name: [mu.ground.level + 1, *entries(mu)]
                         for name, mu in doc.measures.items()},
            "levels": [[entries(p) for p in ground.points]
                       for ground in _lifted_grounds(doc)]}


#: sha256 of the dump below, recorded from the level-by-level parser that
#: preceded the one-pass term walk
PARSE_DIGEST = "874c6d7f8549e47c1f29edccfe12ac183ae065351c0c1951745a295336018f35"


def test_parse_is_bitwise_pinned():
    rng = np.random.default_rng(2010)
    documents = ([_seeded_cli_document(np.random.default_rng(16))]
                 + [_random_level3_document(rng) for _ in range(20)])
    dump = json.dumps([_parse_dump(parse_document(json.dumps(raw))) for raw in documents])
    assert hashlib.sha256(dump.encode()).hexdigest() == PARSE_DIGEST


def _assert_reached_and_unmerged(measures):
    """Every point of every lifted level under ``measures`` is an atom of
    the level above, and the builder merged none of them."""
    while measures[0].ground.level >= 1:
        ground = measures[0].ground
        assert sorted({a for m in measures for a in m.atoms}) == list(range(len(ground)))
        assert len({(p.atoms, p.weights) for p in ground.points}) == len(ground)
        measures = ground.points


def test_restricted_dist_equals_the_full_level_bitwise(tmp_path, capsys):
    rng = np.random.default_rng(2010)
    documents = ([WORKED, LEVEL3, LEVEL3_PAIRS]
                 + [_random_level3_document(rng) for _ in range(20)]
                 + [_seeded_cli_document(np.random.default_rng(16))])
    checked = {2: 0, 3: 0}
    for raw in documents:
        doc = parse_document(json.dumps(raw))
        for m1 in doc.measures.values():
            level = m1.ground.level + 1
            if level < 2:
                continue
            for m2 in doc.measures.values():
                if m2.ground is not m1.ground:
                    continue
                r1, r2 = _restrict([m1, m2])
                assert r1.ground is r2.ground and r1.ground is not m1.ground
                assert (r1.weights, r2.weights) == (m1.weights, m2.weights)
                assert r1.ground.truncation_diam == m1.ground.truncation_diam
                _assert_reached_and_unmerged([r1, r2])
                assert (bottleneck_distance(r1, r2).hex()
                        == bottleneck_distance(m1, m2).hex())
                checked[level] += 1
    assert checked[2] > 1600 and checked[3] > 64

    path = tmp_path / "level3.json"
    path.write_text(json.dumps(LEVEL3_PAIRS))
    assert main(["dist", "--oracle", str(path), "M", "N"]) == 0
    assert capsys.readouterr().out == ("H = 2, rho_I = 2 (diam = 2, no truncation)\n"
                                       "H_oracle = 2\n")


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_call", [1, 2])
def test_a_failed_fill_is_not_kept(error, failing_call, monkeypatch):
    # the level-2 fill runs the level-1 fill inside its own kernel call, so
    # call 1 fails the level-2 fill and call 2 fails both
    real = transport.measure_distances
    calls = []

    def flaky(measures, known=None):
        n, old = len(measures), 0 if known is None else len(known)
        calls.append(n * (n - 1) // 2 - old * (old - 1) // 2)
        if len(calls) == failing_call:
            raise error
        return real(measures, known)

    level2 = parse_document(json.dumps(LEVEL3_PAIRS)).measures["NN"].ground
    level1 = level2.points[0].ground
    monkeypatch.setattr(transport, "measure_distances", flaky)
    with pytest.raises(error):
        level2.dist
    assert len(calls) == failing_call
    again = level2.dist
    assert len(calls) == 4 - (failing_call == 1)
    monkeypatch.undo()
    for ground, d in ((level2, again), (level1, level1.dist)):
        eager = lift(ground.points[0].ground, ground.points)
        assert d.tobytes() == eager.dist.tobytes() and d.any()
        assert ground._rows == eager._rows


def _text(doc):
    return json.dumps(_document(doc.space, doc.measures), indent=2)


def test_roundtrip_is_structural():
    doc = parse_document(json.dumps(WORKED))
    text = _text(doc)
    doc2 = parse_document(text)
    assert doc2.space.labels == doc.space.labels
    assert (doc2.space.dist == doc.space.dist).all()
    for name, mu in doc.measures.items():
        other = doc2.measures[name]
        assert other.atoms == mu.atoms
        assert other.weights == mu.weights
    assert _text(doc2) == text


def test_measure_to_term_recurses(worked_file):
    doc = parse_document(json.dumps(WORKED))
    term = measure_to_term(doc.measures["M"])
    atoms = [e["atom"] for e in term["support"]]
    assert all(isinstance(a, dict) for a in atoms)


def test_cmd_dist_worked_output(worked_file, capsys):
    assert main(["dist", worked_file, "m1", "m2"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "H = 3, rho_I = 2 (truncated at diam = 2)"


def test_cmd_dist_oracle_agrees(worked_file, capsys):
    assert main(["dist", "--oracle", worked_file, "m1", "m2"]) == 0
    out = capsys.readouterr().out
    assert "H_oracle = 3" in out


def test_cmd_dist_oracle_past_the_guard_prints_nothing(tmp_path, capsys):
    # a 5 x 5 pair is past the 20-cell guard: the H line used to come first
    labels = [f"p{i}" for i in range(10)]
    doc = {
        "space": {"points": labels, "dist": [[0 if a == b else 1 for b in labels] for a in labels]},
        "measures": {name: {"support": [{"atom": p, "weight": -0.5 * (i > 0)}
                                        for i, p in enumerate(points)]}
                     for name, points in (("m1", labels[:5]), ("m2", labels[5:]))},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["dist", "--oracle", str(path), "m1", "m2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "support product 5x5 exceeds the enumeration guard" in err
    assert main(["dist", str(path), "m1", "m2"]) == 0


def test_cmd_dist_mixed_levels(worked_file, capsys):
    assert main(["dist", worked_file, "m1", "M"]) == 2
    assert "different levels" in capsys.readouterr().err


def test_cmd_flatten_worked(worked_file, capsys):
    assert main(["flatten", worked_file, "M"]) == 0
    term = json.loads(capsys.readouterr().out)
    assert term == {
        "support": [
            {"atom": "a", "weight": 0.0},
            {"atom": "b", "weight": -1.0},
        ]
    }


def test_cmd_flatten_base_level_is_an_error(worked_file, capsys):
    assert main(["flatten", worked_file, "m1"]) == 2


def test_cmd_push(worked_file, capsys):
    assert main(["push", worked_file, "m1", "--map", "a=b,b=b"]) == 0
    term = json.loads(capsys.readouterr().out)
    assert term == {"support": [{"atom": "b", "weight": 0.0}]}


def test_cmd_push_undefined_point(worked_file, capsys):
    assert main(["push", worked_file, "m1", "--map", "a=b"]) == 2


@pytest.mark.parametrize("argv,message", [
    (["push", "m1", "--map", "a=zz,b=b"], "unknown point label 'zz'"),
    (["push", "m1", "--map", "a=b,b=b,c=a"], "--map names unknown point label 'c'"),
    (["eval", "m1", "--phi", "a=1,b=5,c=2"], "--phi names unknown point label 'c'"),
    (["eval", "m1", "--phi", "a=1,b=5,=2"], "--phi names unknown point label ''"),
])
def test_unknown_labels_exit_2(argv, message, worked_file, capsys):
    assert main([argv[0], worked_file, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["eval", "m1", "--phi", "a=1,b=5,a=9"], "--phi names point label 'a' twice"),
    (["push", "m1", "--map", "a=a,b=b,a=b"], "--map names point label 'a' twice"),
])
def test_repeated_key_exits_2(argv, message, worked_file, capsys):
    assert main([argv[0], worked_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cmd_eval(worked_file, capsys):
    assert main(["eval", worked_file, "m1", "--phi", "a=1,b=5"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cmd_eval_missing_point(worked_file, capsys):
    assert main(["eval", worked_file, "m1", "--phi", "a=1"]) == 2


def test_usage_errors_exit_1(worked_file, capsys):
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["eval", worked_file, "m1", "--phi", "a"]) == 1


def test_the_parser_is_built_once_and_keeps_no_state(worked_file, capsys):
    # a fresh import builds no parser; the first command builds the one
    # every later command in the process reuses
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run(
        [sys.executable, "-c", "import tropmeas, tropmeas.cli as c; "
                               "print(c._build_parser.cache_info().currsize)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert fresh.stdout == "0\n"

    assert main(["dist", "--oracle", worked_file, "m1", "m2"]) == 0
    assert "H_oracle = 3" in capsys.readouterr().out
    assert main(["dist", worked_file, "m1", "m2"]) == 0
    assert "H_oracle" not in capsys.readouterr().out
    assert main(["dist", worked_file, "m1"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert main(["eval", worked_file, "m1", "--phi", "a=1,b=5"]) == 0
    assert capsys.readouterr() == ("4\n", "")
    assert main(["verify", "axioms", "--seed", "5", "--cases", "3"]) == 0
    assert "3 cases, seed 5," in capsys.readouterr().out
    assert main(["verify", "axioms", "--cases", "3"]) == 0
    assert "3 cases, seed 0," in capsys.readouterr().out
    assert cli._build_parser.cache_info().currsize == 1


#: measures to add to LEVEL3_PAIRS, each set with one defect that no
#: command below reaches, and the part of parse_document's message naming it
DEFECTS = {
    "unnormalized level 3": ({"bad": {"support": [{"atom": "M", "weight": -1}]}},
                             "invalid measure 'bad': max weight is -1.0, expected 0 "
                             "(shift the term's weights so that the largest is 0)"),
    "unknown atom at level 2": ({"bad": {"support": [{"atom": "m1", "weight": 0},
                                                     {"atom": "zz", "weight": -1}]}},
                                "unknown atom 'zz' in measure 'bad'"),
    "reference cycle": ({"bad1": {"support": [{"atom": "bad2", "weight": 0}]},
                         "bad2": {"support": [{"atom": "bad1", "weight": 0}]}},
                        "cycle in measure references: bad1 -> bad2 -> bad1"),
    "mixed levels": ({"bad": {"support": [{"atom": "a", "weight": 0},
                                          {"atom": "m1", "weight": -1}]}},
                     "measure 'bad' mixes atoms of different levels"),
}


@pytest.mark.parametrize("defect", DEFECTS)
@pytest.mark.parametrize("argv", [
    ["dist", "M", "N"], ["flatten", "MM"], ["eval", "m1", "--phi", "a=1,b=5"],
    ["push", "m2", "--map", "a=b,b=b"]], ids=lambda argv: argv[0])
def test_a_defect_in_a_measure_no_command_names_exits_2(argv, defect, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(LEVEL3_PAIRS))
    assert main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    extra, message = DEFECTS[defect]
    raw = json.loads(json.dumps(LEVEL3_PAIRS))
    raw["measures"].update(extra)
    path.write_text(json.dumps(raw))
    with pytest.raises(DocumentError, match=re.escape(message)) as raised:
        parse_document(path.read_text())
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


def test_missing_file_exits_2(capsys):
    assert main(["dist", "/nonexistent.json", "m1", "m2"]) == 2


@pytest.mark.parametrize("argv", [
    ["dist", "m1", "m2"], ["flatten", "M"], ["eval", "m1", "--phi", "a=1,b=5"],
    ["push", "m1", "--map", "a=b,b=b"]])
def test_non_utf8_file_exits_2(argv, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(json.dumps(WORKED).encode().replace(b'"a"', b'"\xff"', 1))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec")


def test_verify_axioms_clean(capsys):
    assert main(["verify", "axioms", "--cases", "40", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_oracle_clean(capsys):
    assert main(["verify", "oracle", "--cases", "40", "--seed", "3"]) == 0


def test_verify_space_size_flag(capsys):
    assert main(["verify", "axioms", "--cases", "10", "--seed", "1",
                 "--space-size", "4"]) == 0


def test_dist_oracle_mismatch_exits_3(worked_file, capsys):
    from tropmeas import defects

    with defects.inject("skip-column-witnesses"):
        code = main(["dist", "--oracle", worked_file, "m1", "m2"])
    captured = capsys.readouterr()
    assert code == 3
    assert "MISMATCH" in captured.err


def test_verify_reports_violations_with_exit_3(capsys):
    # an injected kernel defect forces failures and a counterexample dump
    from tropmeas import defects

    with defects.inject("skip-column-witnesses"):
        code = main(["verify", "oracle", "--cases", "20", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out and "counterexample" in out


@pytest.mark.parametrize("argv", [
    ["lemma2", "--tol", "nan"],
    ["lemma2", "--tol", "inf"],
    ["axioms", "--tol=-inf"],
    ["axioms", "--tol", "-1"],
    ["oracle", "--tol=-1e-300"],
    ["lemma2", "--cases", "-1"],
    ["axioms", "--cases", "0"],
    ["axioms", "--space-size", "0"],
    ["oracle", "--space-size", "-3"],
    ["lemma3", "--space-size", "1"],
    ["oracle", "--space-size", "1000000000"],
    ["oracle", "--seed", "-1"],
    ["oracle", "--space-size", "1"],
    ["axioms", "--space-size", "1"],
    ["lemma1", "--space-size", "1"],
    ["lemma2", "--space-size", "1"],
])
def test_verify_rejects_bad_arguments(argv, capsys):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --" in captured.err


def test_verify_accepts_smallest_space(capsys):
    assert main(["verify", "lemma3", "--cases", "2", "--space-size", "2"]) == 0
    assert main(["verify", "oracle", "--cases", "5", "--space-size", "2",
                 "--tol", "0"]) == 0


def test_numbers_print_with_12_significant_digits(tmp_path, capsys):
    doc = {
        "space": {"points": ["a", "b"], "dist": [[0, 1.0 / 3.0], [1.0 / 3.0, 0]]},
        "measures": {
            "d1": {"support": [{"atom": "a", "weight": 0}]},
            "d2": {"support": [{"atom": "b", "weight": 0}]},
        },
    }
    path = tmp_path / "thirds.json"
    path.write_text(json.dumps(doc))
    assert main(["dist", str(path), "d1", "d2"]) == 0
    out = capsys.readouterr().out
    assert "0.333333333333" in out


def _huge_document():
    """An equilateral 20-point space at 1.5e308, two full-support measures
    whose transport costs pass the float range, two level-2 measures over
    them, and two small ones for the brute-force oracle."""
    labels = [f"p{i}" for i in range(20)]
    return {
        "space": {"points": labels,
                  "dist": [[0 if a == b else 1.5e308 for b in labels] for a in labels]},
        "measures": {
            "mu": {"support": [{"atom": p, "weight": 0 if i == 0 else -1e308}
                               for i, p in enumerate(labels)]},
            "nu": {"support": [{"atom": p, "weight": 0 if i == 1 else -1.5e308}
                               for i, p in enumerate(labels)]},
            "M": {"support": [{"atom": "mu", "weight": 0}, {"atom": "nu", "weight": -1}]},
            "N": {"support": [{"atom": "nu", "weight": 0}]},
            "m2": {"support": [{"atom": "p0", "weight": 0}, {"atom": "p2", "weight": -1e308}]},
            "n2": {"support": [{"atom": "p1", "weight": 0}, {"atom": "p2", "weight": -1.5e308}]},
        },
    }


def test_costs_past_the_float_range_are_inf_without_warnings(tmp_path, capsys):
    # the space's triangle check, the numpy sweep on one pair at level 1
    # and on the restricted level-1 fill under level 2, and the oracle all
    # add past the range
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_document()))
    inf = "H = inf, rho_I = 1.5e+308 (truncated at diam = 1.5e+308)\n"
    for argv, out in (
            (["mu", "nu"], inf),
            (["M", "N"], "H = 1.5e+308, rho_I = 1.5e+308 (diam = 1.5e+308, no truncation)\n"),
            (["--oracle", "m2", "n2"], inf + "H_oracle = inf\n")):
        assert main(["dist", str(path), *argv]) == 0
        assert capsys.readouterr() == (out, "")


def test_huge_integer_weight_exits_2(tmp_path, capsys):
    # -1 followed by 400 zeros is a JSON integer beyond the float range
    path = tmp_path / "huge.json"
    path.write_text(
        '{"space": {"points": ["a", "b"], "dist": [[0, 1], [1, 0]]}, "measures": '
        '{"m": {"support": [{"atom": "a", "weight": 0}, '
        '{"atom": "b", "weight": -1' + "0" * 400 + '}]}}}')
    assert main(["dist", str(path), "m", "m"]) == 2
    assert "non-finite weight -inf in support of 'm'" in capsys.readouterr().err


@pytest.mark.parametrize("cell,shown", [
    (True, "True"), ("1", "'1'"), (None, "None"), ([0], "[0]"),
])
def test_non_number_distance_exits_2(cell, shown, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"space": {"points": ["a", "b"],
                                          "dist": [[0, 1], [1, cell]]}}))
    assert main(["dist", str(path), "m", "m"]) == 2
    assert capsys.readouterr().err == f"error: distance {shown} is not a number\n"


_CHAIN = {f"m{i}": {"support": [{"atom": f"m{i + 1}", "weight": 0}]} for i in range(2999)}
_CHAIN["m2999"] = {"support": [{"atom": "a", "weight": 0}]}


@pytest.mark.parametrize("text", [
    "[" * 100000,
    json.dumps({"space": {"points": ["a"], "dist": [[0]]}, "measures": _CHAIN}),
], ids=["json", "references"])
def test_deep_nesting_exits_2(text, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main(["dist", str(path), "m0", "m0"]) == 2
    assert "error: document nests too deeply" in capsys.readouterr().err


# the same chain listed leaf first: m_i -> m_{i-1}, so parsing never recurses
# deeply and only rendering the result does
_LEAF_FIRST = {"m0": {"support": [{"atom": "a", "weight": 0}]}}
_LEAF_FIRST.update(
    (f"m{i}", {"support": [{"atom": f"m{i - 1}", "weight": 0}]}) for i in range(1, 3000))


@pytest.mark.parametrize("command", [
    ["flatten"],
    ["push", "--map", "mu0=mu0"],
], ids=["flatten", "push"])
def test_deep_output_exits_2(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"space": {"points": ["a"], "dist": [[0]]},
                                "measures": _LEAF_FIRST}))
    assert main([command[0], str(path), "m2999", *command[1:]]) == 2
    assert "error: document nests too deeply" in capsys.readouterr().err
