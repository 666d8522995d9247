"""The package's full identity sweep, shared by the CLI and the test suite.

Eleven sections, each an independent family of exact-rational checks over
the bundled corpus.  Each section is a generator.  It yields one
`(passed, detail)` pair per check, as the check is made, where `detail`
is a zero-argument callable rendering the failure; it is called only if
`passed` is false.  The section returns its summary line.  One runner
counts every check yielded, stops at the first failure and reports that
failure's detail, or else the summary.  A section's result is its name,
verdict, check count and that line, with no clock, so two sweeps give
equal results.  The recursion and variation sections ask one
crossing-change context per corpus crossing for every S there.

A sweep that asks for sections on both sides of `_WORKER_SECTIONS` runs
that side in one forked worker while the caller runs the rest, and
returns every result in `SECTIONS` order, equal to the serial results.
It stays serial, in the caller, when the sections asked for fall on one
side, when `os.fork` is missing, when fewer than 2 CPUs are usable, or
when the process has another thread.  The worker's caches die with it;
the caller keeps only its own half's.  A cold full sweep took 56 ms
split, against 94 ms serial, on a 2-core Xeon host (Python 3.11).
"""

from __future__ import annotations

import itertools
import os
import threading
from fractions import Fraction
from math import comb, factorial, prod
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Sequence

from .algebra import unknot_series_closed, wheel_coefficients
from .diagrams import (
    ChordDiagram, TypeMatrix, all_type_matrices, enumerate_by_degree,
    enumerate_by_matrix, four_t_relators, reduce_mod_4t, _relabel,
)
from .errors import InputError
from .invariants import (
    VerificationReport, _CrossingChange, class_sum, degree_class_sum,
    degree_sum_identity, flip_crossing, kinked_unknot_series, verify_theorem,
)
from .qtangle.corpus import corpus_linking, corpus_names, load_corpus_word
from .qtangle.engine import (
    associator_sign, hexagon_identity, integrate, max_truncation,
    pentagon_identity,
)
from .qtangle.words import linking_matrix, trace_word

SWEEP_DEGREE = 3

Check = tuple[bool, Callable[[], str]]
Section = Generator[Check, None, str]
Named = tuple[str, Callable[[], Section]]


class SectionResult(NamedTuple):
    name: str
    passed: bool
    checks: int
    detail: str

    def as_dict(self) -> dict:
        return {"section": self.name, "pass": self.passed,
                "checks": self.checks, "detail": self.detail}

    def render(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: {self.detail} ({self.checks} checks)"


def _corpus_crossings() -> Iterator[tuple[str, _CrossingChange, list[TypeMatrix]]]:
    """Each corpus crossing, as one crossing-change context on its word
    flipped there if needed so the crossing is geometrically positive,
    and every type matrix of the word up to the sweep degree."""
    for name in corpus_names():
        word = load_corpus_word(name)
        m = len(corpus_linking(name))
        matrices = [S for k in range(SWEEP_DEGREE + 1)
                    for S in all_type_matrices(m, k)]
        for traced in trace_word(word).crossings:
            crossing = traced.slice
            positive = (word if traced.event.geometric_sign == 1
                        else flip_crossing(word, crossing))
            yield name, _CrossingChange(positive, crossing, SWEEP_DEGREE, name), matrices


def _report_checks(reports: Iterable[VerificationReport],
                   prefix: str = "") -> Iterator[Check]:
    """One check per report, each made as its report is built."""
    for report in reports:
        yield report.passed, lambda: prefix + report.render()


def _section_theorem() -> Section:
    for name in corpus_names():
        word = load_corpus_word(name)
        m = len(corpus_linking(name))
        top = max_truncation(word)
        degrees = [(SWEEP_DEGREE, range(SWEEP_DEGREE + 1))]
        if top > SWEEP_DEGREE:
            degrees.append((top, [top]))
        for cutoff, ks in degrees:
            for k in ks:
                yield from _report_checks(
                    verify_theorem(word, S, cutoff, name)
                    for S in all_type_matrices(m, k))
    return "linking monomial == class sum on every (word, S)"


def _section_linking() -> Section:
    for name in corpus_names():
        word = load_corpus_word(name)
        expected = corpus_linking(name)
        counted = linking_matrix(word)
        if counted != expected:
            yield False, lambda: f"{name}: crossing count {counted} != tabulated"
        result = integrate(word, 1)
        m = len(expected)
        for i in range(m):
            for j in range(i, m):
                unit = [[0] * m for _ in range(m)]
                unit[i][j] = unit[j][i] = 1
                (diagram,) = enumerate_by_matrix(unit)
                got = result.coefficient(diagram)
                yield got == expected[i][j], lambda: (
                    f"{name}: degree-1 coefficient ({i+1},{j+1}) = {got}, "
                    f"tabulated {expected[i][j]}")
    return "degree-1 coefficients match the crossing-sign oracle"


def _section_degree_sum() -> Section:
    for name in corpus_names():
        word = load_corpus_word(name)
        yield from _report_checks(
            degree_sum_identity(word, k, SWEEP_DEGREE, name)
            for k in range(SWEEP_DEGREE + 1))
    return "degree-k coefficient sums match summed monomials"


def _section_framing_powers() -> Section:
    surgery = kinked_unknot_series(SWEEP_DEGREE)
    engine = integrate(load_corpus_word("u1"), SWEEP_DEGREE)
    bare = integrate(load_corpus_word("u0"), SWEEP_DEGREE)
    for k in range(1, SWEEP_DEGREE + 1):
        expected = Fraction(1, factorial(k) * 2 ** k)
        plain = degree_class_sum(bare, k)
        yield plain == 0, lambda: f"degree-{k} sum for the plain unknot is {plain}"
        framed = degree_class_sum(engine, k)
        yield framed == expected, lambda: (
            f"engine degree-{k} kinked value {framed} != {expected}")
        by_surgery = sum((c for d, c in surgery.items() if d.degree == k),
                         Fraction(0))
        yield by_surgery == expected, lambda: (
            f"surgery degree-{k} value {by_surgery} != {expected}")
    for k in range(SWEEP_DEGREE + 1):
        rhs = reduce_mod_4t({d: c for d, c in surgery.items() if d.degree == k})
        yield engine.reduced(k) == rhs, lambda: (
            f"kinked unknot routes differ mod 4T at degree {k}")
    return "kinked-unknot values 1/(k! 2^k) by both routes"


def _section_wheels() -> Section:
    weights = wheel_coefficients(4)
    for order, taylor in ((2, Fraction(1, 48)), (4, Fraction(-1, 5760))):
        yield weights[order] == taylor, lambda: (
            f"wheel weights {weights} off the Taylor values")
    word = load_corpus_word("u0")
    cutoff = max_truncation(word)
    result = integrate(word, cutoff)
    closed = unknot_series_closed(cutoff)
    for k in range(cutoff + 1):
        expected = reduce_mod_4t({d: c for d, c in closed.items()
                                  if d.degree == k})
        yield result.reduced(k) == expected, lambda: (
            f"unknot value differs from wheels at degree {k}")
    return f"engine unknot == wheels formula through degree {cutoff}"


def _section_relators() -> Section:
    nonzero = 0
    for m in (1, 2):
        for k in (2, SWEEP_DEGREE):
            for vector in four_t_relators(m, k):
                nonzero += 1
                for S in all_type_matrices(m, k):
                    yield class_sum(vector, S) == 0, lambda: (
                        f"class sum S={S} nonzero on a (m={m}, k={k}) relator")
    return f"all class sums vanish on {nonzero} nonzero relators"


def _section_recursion() -> Section:
    for name, change, matrices in _corpus_crossings():
        at = f"crossing {change.crossing}: "
        for S in matrices:
            for reports in (change.smoothing_shift_reports,
                            change.smoothing_inversion_reports):
                yield from _report_checks(reports(S), at)
    return "block shifts and their inversion on every corpus crossing"


def _section_variation() -> Section:
    framing_cases = 0
    for name, change, matrices in _corpus_crossings():
        crossing, a = change.crossing, change.a
        at = f"crossing {crossing}: "
        if a == change.b:
            plus = change.linking[a - 1][a - 1]
            minus = change.minus_linking()[a - 1][a - 1]
            yield minus == plus - 1, lambda: (
                f"{name} crossing {crossing}: self-linking drop "
                f"{plus} -> {minus}")
            framing_cases += 1
        for S in matrices:
            yield from _report_checks(
                (report(S) for report in (change.variation_match,
                                          change.variation_series_report,
                                          change.oracle_variation_report)),
                at)
    return (f"variations agree on every crossing change "
            f"({framing_cases} self-crossing framing drops)")


def _section_pentagon() -> Section:
    sign = associator_sign()
    yield pentagon_identity(2), lambda: "pentagon fails at degree 2"
    for eps in (1, -1):
        yield hexagon_identity(eps), lambda: (
            f"hexagon fails for crossing sign {eps:+d}")
    return f"pentagon and both hexagons hold (frozen sign {sign:+d})"


def _one_per_rotation_class(m: int, k: int,
                            listed: Sequence[ChordDiagram]) -> bool:
    """Independent check of a degree list: its codes are distinct, each on
    m circles with 2k chord ends, and each is the least element of its
    orbit, every combination of circle rotations renamed by first
    appearance.  A diagram's labels pair up, so each orbit element is a
    placement (a spread of the 2k ends over the circles with a pairing,
    named by first appearance), and distinct classes have disjoint
    orbits: orbit sizes summing to the placement count mean the list
    holds exactly one code per class.  It shares only _relabel with the
    library and holds one orbit at a time."""
    codes = [d.code for d in listed]
    if len(set(codes)) != len(codes):
        return False
    covered = 0
    for code in codes:
        if len(code) != m or sum(map(len, code)) != 2 * k:
            return False
        orbit = {_relabel(words) for words in itertools.product(
            *([w[r:] + w[:r] for r in range(len(w))] or [w] for w in code))}
        if min(orbit) != code:
            return False
        covered += len(orbit)
    return covered == comb(2 * k + m - 1, m - 1) * prod(range(1, 2 * k, 2))


def _section_enumeration() -> Section:
    for k, expected in ((1, 1), (2, 2), (3, 5)):
        got = len(enumerate_by_degree(1, k))
        yield got == expected, lambda: (
            f"|degree-{k} on 1 circle| = {got}, expected {expected}")
    for m in (1, 2, 3):
        for k in range(5):
            by_degree = enumerate_by_degree(m, k)
            yield _one_per_rotation_class(m, k, by_degree), lambda: (
                f"degree list (m={m}, k={k}) != brute force")
            seen: set[ChordDiagram] = set()
            for S in all_type_matrices(m, k):
                family = enumerate_by_matrix(S)
                mixed = any(d.type_cells != S.cells for d in family)
                yield not mixed and seen.isdisjoint(family), lambda: (
                    f"family (m={m}, S={S}) mixes types" if mixed
                    else f"families overlap at (m={m}, k={k})")
                seen.update(family)
            yield seen == set(by_degree), lambda: (
                f"families miss diagrams at (m={m}, k={k})")
    return "type families partition each degree list (brute-forced)"


def _section_representation() -> Section:
    first = integrate(load_corpus_word("hopf+"), SWEEP_DEGREE)
    second = integrate(load_corpus_word("hopf+alt"), SWEEP_DEGREE)
    for k in range(SWEEP_DEGREE + 1):
        yield first.reduced(k) == second.reduced(k), lambda: (
            f"presentations differ mod 4T at degree {k}")
    return "both clasp presentations agree mod 4T per degree"


SECTIONS: tuple[Named, ...] = (
    ("theorem", _section_theorem),
    ("linking", _section_linking),
    ("degree-sum", _section_degree_sum),
    ("framing-powers", _section_framing_powers),
    ("wheels", _section_wheels),
    ("relators", _section_relators),
    ("recursion", _section_recursion),
    ("variation", _section_variation),
    ("pentagon", _section_pentagon),
    ("enumeration", _section_enumeration),
    ("representation", _section_representation),
)


def section_names() -> tuple[str, ...]:
    return tuple(name for name, _ in SECTIONS)


def _run_section(name: str, section: Callable[[], Section]) -> SectionResult:
    """Count a section's checks as they are made, stopping at the first
    failure, whose detail is the section's; a section that runs out of
    checks reports its summary line."""
    checks = 0
    steps = section()
    while True:
        try:
            passed, detail = next(steps)
        except StopIteration as done:
            passed, summary = True, done.value
            break
        checks += 1
        if not passed:
            summary = detail()
            break
    return SectionResult(name, passed, checks, summary)


# The sections a forked worker takes when a sweep also asks for the
# others.  The caller keeps theorem, recursion and variation, which share
# the corpus integrals at the sweep degree.  The worker takes the degree
# lists, 4T quotients and hexagon tables, the sections with few
# integrals, and degree-sum, which integrates the corpus again but evens
# out the halves.  On a 2-core host each half took 51 ms alone.
_WORKER_SECTIONS = frozenset({"linking", "degree-sum", "framing-powers", "wheels",
                              "relators", "pentagon", "enumeration",
                              "representation"})


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this system
        return os.cpu_count() or 1


def _thread_count() -> int:
    """The process's OS threads where the system lists them (a fork with
    more than one warns from Python 3.12 on), else its Python threads."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _can_fork() -> bool:
    return hasattr(os, "fork") and _usable_cpus() >= 2 and _thread_count() == 1


def _worker(read_end: int, write_end: int, sections: list[Named]) -> None:
    """The forked worker: run its sections, send the results, or the
    exception that stopped them, down the pipe, and exit without
    returning into the caller's stack or flushing inherited stdio.  It
    exits 0 only once the whole payload is written."""
    import pickle

    status = 1
    try:
        os.close(read_end)
        try:
            payload: tuple = (True, [_run_section(*pair) for pair in sections])
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            payload = (False, exc)
        try:
            data = pickle.dumps(payload)
            pickle.loads(data)
        except Exception:  # noqa: BLE001 - an exception pickle cannot carry
            data = pickle.dumps((False, RuntimeError(
                f"the selftest worker raised {payload[1]!r}, "
                f"which cannot be sent back")))
        with open(write_end, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def _run_split(pairs: list[Named], forked: list[Named]) -> list[SectionResult]:
    """Run the forked sections in a forked worker while this process runs
    the rest, and return every result in the order of `pairs`."""
    import pickle
    import signal

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _worker(read_end, write_end, forked)
    # With its own write end closed, the read ends when the worker exits.
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            results = {name: _run_section(name, section) for name, section in pairs
                       if name not in _WORKER_SECTIONS}
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"the selftest worker exited with status {code} "
                           f"before sending its results")
    sent, value = pickle.loads(data)
    if not sent:
        raise value
    results.update((result.name, result) for result in value)
    return [results[name] for name, _ in pairs]


def run_selftest(sections: Sequence[str] | None = None) -> list[SectionResult]:
    if sections is not None and (isinstance(sections, str)
                                 or not isinstance(sections, Iterable)):
        raise InputError(f"sections must be a sequence of section names, such as "
                         f"['theorem', 'linking'], not {sections!r}")
    chosen = set(sections) if sections is not None else None
    if chosen is not None:
        unknown = chosen - set(section_names())
        if unknown:
            raise InputError(f"unknown sections: {', '.join(sorted(unknown))}")
    pairs = [(name, section) for name, section in SECTIONS
             if chosen is None or name in chosen]
    forked = [pair for pair in pairs if pair[0] in _WORKER_SECTIONS]
    if 0 < len(forked) < len(pairs) and _can_fork():
        return _run_split(pairs, forked)
    return [_run_section(*pair) for pair in pairs]
