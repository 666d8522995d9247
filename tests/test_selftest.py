"""
The selftest runner: how sections count, stop and share their work.

Core claims:
    - A failing section stops at its first failing check, counts every
      check made up to and including it, and names the failing instance
    - The recursion and variation sections make one crossing-change
      context per corpus crossing, which validates the word once and
      flips it at most once, and ask it for each identity once per
      (crossing, S) pair, never for check_recursion, and never call the
      public class_sum; run in two threads at once, the two sections give
      the serial results
    - The enumeration section checks each degree list (m <= 3, k <= 4)
      against rotation orbits and the placement count, calling neither
      the type-matrix route, canonical_code nor the placements walk, and
      refuses a list with a diagram dropped or doubled, a code that is
      not its class's least, or a code of another degree or circle count
    - The whole sweep's verdicts, counts and messages hash to the
      selftest digest in bench/reference.json
    - A sweep over both halves runs one half in a forked worker and gives
      the serial results, a failing check's count and detail included;
      a worker's exception is raised in the caller with its type (one
      that cannot be pickled as a RuntimeError naming it), a worker that
      exits without results raises, a raise in the caller's own half
      kills the worker, and no child is left behind in any case
    - A sweep from a second thread never forks, and `kzlab selftest
      --json` prints what a serial run prints, with text written before
      it, unflushed, printed once
    - Importing kzlab loads neither pickle nor multiprocessing
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

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
SRC = Path(__file__).resolve().parents[1] / "src"


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
    # The context reads class sums off rows it checked, never through the
    # public class_sum, which checks them again.
    spy(kzlab.invariants, "class_sum", "public class_sum")
    spy(kzlab.selftest, "class_sum", "sweep class_sum")
    for section, flips in (("recursion", 0), ("variation", CORPUS_CROSSINGS)):
        expected = {"check_recursion": 0, "public check_recursion": 0,
                    "validations": CORPUS_CROSSINGS, "context flips": flips,
                    "sweep flips": 2, "public class_sum": 0, "sweep class_sum": 0}
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


# -- The split sweep ---------------------------------------------------------


def _matches_reference(results):
    payload = [[r.name, r.passed, r.checks, r.detail] for r in results]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    reference = json.loads(REFERENCE.read_text())["digests"]["selftest"]
    return hashlib.sha256(text.encode("utf-8")).hexdigest() == reference


@pytest.fixture
def reaped():
    """After the test, this process has no child left, running or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch, reaped):
    """The os.fork calls made, with 2 usable CPUs reported whatever the
    host has, so a sweep over both halves splits."""
    calls = []
    real = os.fork

    def spy():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(kzlab.selftest, "_usable_cpus", lambda: 2)
    return calls


def _serial(monkeypatch):
    monkeypatch.setattr(kzlab.selftest, "_usable_cpus", lambda: 1)
    return run_selftest()


def test_split_and_serial_sweeps_give_equal_results(forks, monkeypatch):
    kzlab.clear_caches()
    split = run_selftest()
    assert len(forks) == 1
    kzlab.clear_caches()
    assert _serial(monkeypatch) == split
    assert len(forks) == 1
    assert _matches_reference(split)
    # Sections asked for on one side of the split run here, unforked.
    assert [r.name for r in run_selftest(["pentagon", "theorem"])] == [
        "theorem", "pentagon"]
    assert len(forks) == 1


def test_a_failing_worker_check_reports_as_in_serial(forks, monkeypatch):
    monkeypatch.setattr(kzlab.selftest, "_one_per_rotation_class",
                        lambda m, k, listed: False)
    split = run_selftest()
    assert len(forks) == 1
    assert split == _serial(monkeypatch)
    failed = [r for r in split if not r.passed]
    assert failed == [kzlab.selftest.SectionResult(
        "enumeration", False, 4, "degree list (m=1, k=0) != brute force")]


def test_a_worker_exception_is_raised_with_its_type(forks, monkeypatch):
    def refuse(m, k):
        raise kzlab.InputError(f"no relators at ({m}, {k})")

    monkeypatch.setattr(kzlab.selftest, "four_t_relators", refuse)
    with pytest.raises(kzlab.InputError, match=r"no relators at \(1, 2\)"):
        run_selftest(["relators", "linking"])

    class Local(Exception):
        pass

    def unpicklable(m, k):
        raise Local("kept in the worker")

    monkeypatch.setattr(kzlab.selftest, "four_t_relators", unpicklable)
    with pytest.raises(RuntimeError, match="Local.*kept in the worker"):
        run_selftest(["relators", "linking"])
    assert len(forks) == 2


def test_a_worker_that_exits_without_results_raises(forks, monkeypatch):
    monkeypatch.setattr(kzlab.selftest, "four_t_relators",
                        lambda m, k: os._exit(3))
    with pytest.raises(RuntimeError, match="status 3"):
        run_selftest(["relators", "linking"])
    assert len(forks) == 1


def test_a_raise_in_the_callers_half_kills_the_worker(forks, monkeypatch):
    def refuse(word):
        raise kzlab.InputError("no crossings counted")

    # The worker would take 30 s; the caller raises at once and kills it.
    monkeypatch.setattr(kzlab.selftest, "four_t_relators",
                        lambda m, k: time.sleep(30))
    monkeypatch.setattr(kzlab.selftest, "linking_matrix", refuse)
    started = time.monotonic()
    with pytest.raises(kzlab.InputError, match="no crossings counted"):
        run_selftest()
    assert time.monotonic() - started < 10
    assert len(forks) == 1


def test_a_sweep_from_a_second_thread_never_forks(forks):
    with ThreadPoolExecutor(max_workers=1) as pool:
        results = pool.submit(run_selftest).result(timeout=60)
    assert forks == []
    assert _matches_reference(results)


def _cli_selftest(cpus):
    """`kzlab selftest --json` in a fresh process reporting `cpus` usable
    CPUs, after unflushed text on stdout; each fork is noted on stderr."""
    script = (
        "import os, sys\n"
        "import kzlab.selftest\n"
        "from kzlab.cli import main\n"
        f"kzlab.selftest._usable_cpus = lambda: {cpus}\n"
        "fork = os.fork\n"
        "os.fork = lambda: sys.stderr.write('fork\\n') and fork()\n"
        "sys.stdout.write('unflushed\\n')\n"
        "sys.exit(main(['selftest', '--json']))\n")
    # Without PYTHONUNBUFFERED, stdout into a pipe holds what is written.
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60,
                          env={**env, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_cli_json_is_not_doubled_by_the_worker():
    split, forked = _cli_selftest(2)
    serial, unforked = _cli_selftest(1)
    assert (forked, unforked) == ("fork\n", "")
    assert split == serial
    assert split.startswith("unflushed\n{") and split.count("unflushed") == 1
    assert json.loads(split[len("unflushed\n"):])["pass"] is True


def test_import_loads_neither_pickle_nor_multiprocessing():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, kzlab; print(sorted({'pickle', 'multiprocessing'} "
         "& set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
