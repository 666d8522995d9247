"""
The selftest runner: how sections count, stop and share their work.

Core claims:
    - A failing section stops at its first failing check, counts every
      check made up to and including it, and names the failing instance
    - The recursion and variation sections make one crossing-change
      context per corpus crossing, which validates the word once and
      flips it at most once, and ask it for each identity once per
      (crossing, S) pair, never for check_recursion; run in two threads
      at once, the two sections give the serial results
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
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import kzlab
import kzlab.diagrams
import kzlab.invariants
import kzlab.selftest
from kzlab.diagrams import ChordDiagram
from kzlab.selftest import run_selftest

# The corpus's crossings, and their (crossing, S) pairs at degree <= 3.
CORPUS_CROSSINGS = 16
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
    monkeypatch.setattr(kzlab.selftest, "degree_class_sum",
                        lambda value, k: Fraction(1))
    result, = run_selftest(["framing-powers"])
    assert not result.passed
    assert result.checks == 1
    assert result.detail == "degree-1 sum for the plain unknot is 1"


def test_each_crossing_identity_runs_once_per_pair(monkeypatch):
    # Each section makes one context per corpus crossing and asks it for
    # each identity once per S, so the word is validated, and flipped if
    # an identity needs the flip, once per crossing, never per pair.  The
    # sweep's own flips make the two negative crossings positive.
    calls = {}

    def spy(owner, name, label):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    context = kzlab.invariants._CrossingChange
    identities = {
        "recursion": ("smoothing_shift_reports", "smoothing_inversion_reports"),
        "variation": ("variation_match", "variation_series_report",
                      "oracle_variation_report")}
    for name in (*identities["recursion"], *identities["variation"],
                 "check_recursion"):
        spy(context, name, name)
    spy(kzlab.invariants, "check_recursion", "public check_recursion")
    spy(kzlab.invariants, "validate_word", "validations")
    spy(kzlab.invariants, "flip_crossing", "context flips")
    spy(kzlab.selftest, "flip_crossing", "sweep flips")
    for section, flips in (("recursion", 0), ("variation", CORPUS_CROSSINGS)):
        expected = {"check_recursion": 0, "public check_recursion": 0,
                    "validations": CORPUS_CROSSINGS, "context flips": flips,
                    "sweep flips": 2}
        for names in identities.values():
            expected.update(dict.fromkeys(
                names, CROSSING_PAIRS if names is identities[section] else 0))
        calls.update(dict.fromkeys(expected, 0))
        result, = run_selftest([section])
        assert result.passed
        assert calls == expected, section


def test_crossing_sections_in_two_threads_give_the_serial_results():
    serial = run_selftest(["recursion", "variation"])
    kzlab.clear_caches()
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: run_selftest(["recursion", "variation"]),
                             range(2), timeout=60))
    assert runs == [serial, serial]


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
