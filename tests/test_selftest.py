"""
The selftest runner: how sections count, stop and share their work.

Core claims:
    - A failing section stops at its first failing check, counts every
      check made up to and including it, and names the failing instance
    - The recursion and variation sections compute each crossing-change
      identity once per (crossing, S) pair and never call check_recursion
    - The enumeration section checks each degree list (m <= 3, k <= 4)
      against rotation orbits and the placement count, calling neither
      the type-matrix route, canonical_code nor the placements walk, and
      refuses a list with a diagram dropped or doubled, a code that is
      not its class's least, or a code of another degree or circle count
    - The whole sweep's verdicts, counts and messages hash to the
      selftest digest in bench/reference.json
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import kzlab.diagrams
import kzlab.invariants
import kzlab.selftest
from kzlab.diagrams import ChordDiagram
from kzlab.selftest import run_selftest

# (crossing, S) pairs over the corpus's positive crossings at degree <= 3.
CROSSING_PAIRS = 512
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"


def test_misreported_linking_fails_at_the_first_word(monkeypatch):
    tabulated = kzlab.selftest.corpus_linking

    def misreport(name):
        table = tabulated(name)
        if name == "chain2":
            return ((table[0][0] + 1,) + table[0][1:],) + table[1:]
        return table

    monkeypatch.setattr(kzlab.selftest, "corpus_linking", misreport)
    result, = run_selftest(["linking"])
    assert not result.passed
    assert result.checks == 1
    assert result.detail.startswith("chain2: crossing count")


def test_framing_powers_stop_at_the_first_wrong_value(monkeypatch):
    monkeypatch.setattr(kzlab.selftest, "unknot_degree_value",
                        lambda k, framed, cutoff: Fraction(1))
    result, = run_selftest(["framing-powers"])
    assert not result.passed
    assert result.checks == 1
    assert result.detail == "degree-1 sum for the plain unknot is 1"


def test_each_crossing_identity_runs_once_per_pair(monkeypatch):
    calls = {}

    def spy(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("smoothing_shift_reports", "smoothing_inversion_reports",
                 "variation_match", "variation_series_report",
                 "oracle_variation_report"):
        spy(kzlab.selftest, name)
    spy(kzlab.invariants, "check_recursion")
    results = run_selftest(["recursion", "variation"])
    assert all(r.passed for r in results)
    assert calls.pop("check_recursion") == 0
    assert calls == dict.fromkeys(calls, CROSSING_PAIRS)


def _degree_lists():
    return {(m, k): kzlab.diagrams.enumerate_by_degree(m, k)
            for m in (1, 2, 3) for k in range(5)}


def _forged(code):
    """A diagram carrying the given code as it is, canonical or not."""
    diagram = object.__new__(ChordDiagram)
    object.__setattr__(diagram, "code", code)
    return diagram


def test_brute_force_enumeration_skips_the_type_route(monkeypatch):
    lists = _degree_lists()
    calls = []
    for name in ("_by_matrix", "canonical_code", "_placements"):
        real = getattr(kzlab.diagrams, name)
        monkeypatch.setattr(kzlab.diagrams, name,
                            lambda *args, real=real, name=name:
                            calls.append((name, args)) or real(*args))
    assert all(kzlab.selftest._one_per_rotation_class(m, k, listed)
               for (m, k), listed in lists.items())
    assert calls == []
    assert [len(lists[1, k]) for k in range(5)] == [1, 1, 2, 5, 18]
    # The type route it stays clear of is cached by (circle count, cells).
    kzlab.diagrams.enumerate_by_matrix(((1,),))
    assert calls[:1] == [("_by_matrix", (1, ((0, 0, 1),)))]


def test_enumeration_check_refuses_each_mutated_list():
    lists = _degree_lists()
    check = kzlab.selftest._one_per_rotation_class
    listed = list(lists[2, 3])

    def swapped(code, new):
        at = [d.code for d in listed].index(code)
        return listed[:at] + [new] + listed[at + 1:]

    # Each swap keeps the orbit count: the doubled class and the one it
    # replaces have orbits of 2, and the foreign codes' orbits are as
    # small as those they replace, 1.  (1, 2, 2, 1) is a rotation of
    # (1, 1, 2, 2), named by first appearance but not the least.
    mutations = [
        listed[1:],
        listed + listed[:1],
        swapped(((1, 1), (2, 2, 3, 3)), ChordDiagram([(1, 1, 2, 2), (3, 3)])),
        swapped(((1, 1, 2, 2), (3, 3)), _forged(((1, 2, 2, 1), (3, 3)))),
        swapped(((1, 2, 1, 2), (3, 3)), ChordDiagram([(1, 2, 1, 2), ()])),
        swapped(((1, 2, 3, 1, 2, 3), ()), ChordDiagram([(1, 2, 3, 1, 2, 3), (), ()])),
    ]
    assert check(2, 3, listed)
    assert not any(check(2, 3, mutated) for mutated in mutations)


def test_the_sweep_matches_the_bench_reference_digest():
    results = run_selftest()
    payload = [[r.name, r.passed, r.checks, r.detail] for r in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    reference = json.loads(REFERENCE.read_text())["digests"]["selftest"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == reference
