"""
The selftest runner: how sections count, stop and share their work.

Core claims:
    - A failing section stops at its first failing check, counts every
      check made up to and including it, and names the failing instance
    - The recursion and variation sections compute each crossing-change
      identity once per (crossing, S) pair and never call check_recursion
    - The enumeration section's brute force never reaches the type-matrix
      route it checks, whose cache is keyed by (circle count, cells)
"""

from fractions import Fraction

import kzlab.diagrams
import kzlab.invariants
import kzlab.selftest
from kzlab.selftest import run_selftest

# (crossing, S) pairs over the corpus's positive crossings at degree <= 3.
CROSSING_PAIRS = 512


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


def test_brute_force_enumeration_skips_the_type_route(monkeypatch):
    built = []
    by_matrix = kzlab.diagrams._by_matrix

    def spy(*key):
        built.append(key)
        return by_matrix(*key)

    monkeypatch.setattr(kzlab.diagrams, "_by_matrix", spy)
    sizes = [len(kzlab.selftest._brute_force_degree(1, k)) for k in range(5)]
    for m in (2, 3):
        for k in range(4):
            kzlab.selftest._brute_force_degree(m, k)
    assert sizes == [1, 1, 2, 5, 18]
    assert built == []
    kzlab.diagrams.enumerate_by_matrix(((1,),))
    assert built == [(1, ((0, 0, 1),))]
