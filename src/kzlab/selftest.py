"""The package's full identity sweep, shared by the CLI and the test suite.

Eleven sections, each an independent family of exact-rational checks over
the bundled corpus.  A section stops at its first failure and reports the
offending instance; otherwise it reports how many instances it verified.
The whole sweep is sized to finish in well under two minutes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterator, Sequence

from .algebra import unknot_series_closed, wheel_coefficients
from .diagrams import (
    ChordDiagram, all_type_matrices, enumerate_by_degree, enumerate_by_matrix,
    four_t_relators, reduce_mod_4t, _matchings,
)
from .errors import InputError
from .invariants import (
    check_recursion, class_sum, crossing_circles, degree_sum_identity,
    flip_crossing, kinked_unknot_series, linking_monomial,
    smoothing_shift_reports, unknot_degree_value, variation_match,
    verify_theorem,
)
from .qtangle.corpus import corpus_linking, corpus_names, load_corpus_word
from .qtangle.engine import (
    associator_sign, hexagon_identity, integrate, pentagon_identity,
)
from .qtangle.words import Slice, linking_matrix, trace_word

SWEEP_DEGREE = 3


@dataclass(frozen=True)
class SectionResult:
    name: str
    passed: bool
    checks: int
    ms: int
    detail: str

    def as_dict(self) -> dict:
        return {"section": self.name, "pass": self.passed,
                "checks": self.checks, "ms": self.ms, "detail": self.detail}

    def render(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (f"[{verdict}] {self.name}: {self.detail} "
                f"({self.checks} checks, {self.ms} ms)")


def _positive_crossings(word: Sequence[Slice]
                        ) -> Iterator[tuple[int, tuple[Slice, ...]]]:
    """Each crossing slice, with the word flipped there if needed so the
    designated crossing is geometrically positive."""
    for traced in trace_word(word).crossings:
        if traced.event.geometric_sign == 1:
            yield traced.slice, tuple(word)
        else:
            yield traced.slice, flip_crossing(word, traced.slice)


def _section_theorem() -> tuple[bool, int, str]:
    checks = 0
    for name in corpus_names():
        word = load_corpus_word(name)
        m = len(corpus_linking(name))
        degrees = [(SWEEP_DEGREE, range(SWEEP_DEGREE + 1))]
        if all(s.kind != "assoc" for s in word):
            degrees.append((4, [4]))
        for cutoff, ks in degrees:
            for k in ks:
                for S in all_type_matrices(m, k):
                    report = verify_theorem(word, S, cutoff, name)
                    checks += 1
                    if not report.passed:
                        return False, checks, report.render()
    return True, checks, "linking monomial == class sum on every (word, S)"


def _section_linking() -> tuple[bool, int, str]:
    checks = 0
    for name in corpus_names():
        word = load_corpus_word(name)
        expected = corpus_linking(name)
        counted = linking_matrix(word)
        if counted != expected:
            return False, checks, f"{name}: crossing count {counted} != tabulated"
        result = integrate(word, 1)
        m = len(expected)
        for i in range(m):
            for j in range(i, m):
                unit = [[0] * m for _ in range(m)]
                unit[i][j] = unit[j][i] = 1
                (diagram,) = enumerate_by_matrix(unit)
                got = result.coefficient(diagram)
                checks += 1
                if got != expected[i][j]:
                    return False, checks, (
                        f"{name}: degree-1 coefficient ({i+1},{j+1}) = {got}, "
                        f"tabulated {expected[i][j]}")
    return True, checks, "degree-1 coefficients match the crossing-sign oracle"


def _section_degree_sum() -> tuple[bool, int, str]:
    checks = 0
    for name in corpus_names():
        word = load_corpus_word(name)
        for k in range(SWEEP_DEGREE + 1):
            report = degree_sum_identity(word, k, SWEEP_DEGREE, name)
            checks += 1
            if not report.passed:
                return False, checks, report.render()
    return True, checks, "degree-k coefficient sums match summed monomials"


def _section_framing_powers() -> tuple[bool, int, str]:
    checks = 0
    surgery = kinked_unknot_series(SWEEP_DEGREE)
    engine = integrate(load_corpus_word("u1"), SWEEP_DEGREE)
    for k in range(1, SWEEP_DEGREE + 1):
        expected = Fraction(1, factorial(k) * 2 ** k)
        plain = unknot_degree_value(k, False, SWEEP_DEGREE)
        framed = unknot_degree_value(k, True, SWEEP_DEGREE)
        by_surgery = sum((c for d, c in surgery.items() if d.degree == k),
                         Fraction(0))
        checks += 3
        if plain != 0:
            return False, checks, f"degree-{k} sum for the plain unknot is {plain}"
        if framed != expected:
            return False, checks, f"engine degree-{k} kinked value {framed} != {expected}"
        if by_surgery != expected:
            return False, checks, f"surgery degree-{k} value {by_surgery} != {expected}"
    for k in range(SWEEP_DEGREE + 1):
        checks += 1
        lhs = engine.reduced(k)
        rhs = reduce_mod_4t({d: c for d, c in surgery.items() if d.degree == k})
        if lhs != rhs:
            return False, checks, f"kinked unknot routes differ mod 4T at degree {k}"
    return True, checks, "kinked-unknot values 1/(k! 2^k) by both routes"


def _section_wheels() -> tuple[bool, int, str]:
    checks = 0
    weights = wheel_coefficients(4)
    if (weights[2], weights[4]) != (Fraction(1, 48), Fraction(-1, 5760)):
        return False, checks, f"wheel weights {weights} off the Taylor values"
    checks += 2
    word = load_corpus_word("u0")
    cutoff = 4 if all(s.kind != "assoc" for s in word) else SWEEP_DEGREE
    result = integrate(word, cutoff)
    closed = unknot_series_closed(cutoff)
    for k in range(cutoff + 1):
        checks += 1
        expected = reduce_mod_4t({d: c for d, c in closed.items()
                                  if d.degree == k})
        if result.reduced(k) != expected:
            return False, checks, f"unknot value differs from wheels at degree {k}"
    return True, checks, f"engine unknot == wheels formula through degree {cutoff}"


def _section_relators() -> tuple[bool, int, str]:
    checks = 0
    nonzero = 0
    for m in (1, 2):
        for k in (2, SWEEP_DEGREE):
            for relator in four_t_relators(m, k):
                vector = relator.combined()
                if vector:
                    nonzero += 1
                for S in all_type_matrices(m, k):
                    checks += 1
                    if class_sum(vector, S) != 0:
                        return False, checks, (
                            f"class sum S={S} nonzero on a (m={m}, k={k}) relator")
    return True, checks, f"all class sums vanish on {nonzero} nonzero relators"


def _section_recursion() -> tuple[bool, int, str]:
    checks = 0
    for name in corpus_names():
        word = load_corpus_word(name)
        m = len(corpus_linking(name))
        matrices = [S for k in range(SWEEP_DEGREE + 1)
                    for S in all_type_matrices(m, k)]
        for crossing, positive in _positive_crossings(word):
            for S in matrices:
                for report in smoothing_shift_reports(
                        positive, crossing, S, SWEEP_DEGREE, name):
                    checks += 1
                    if not report.passed:
                        return False, checks, f"crossing {crossing}: {report.render()}"
                for report in check_recursion(
                        positive, crossing, S, SWEEP_DEGREE, name):
                    if report.identity != "smoothing-inversion":
                        continue
                    checks += 1
                    if not report.passed:
                        return False, checks, f"crossing {crossing}: {report.render()}"
    return True, checks, "block shifts and their inversion on every corpus crossing"


def _section_variation() -> tuple[bool, int, str]:
    checks = 0
    framing_cases = 0
    for name in corpus_names():
        word = load_corpus_word(name)
        m = len(corpus_linking(name))
        matrices = [S for k in range(SWEEP_DEGREE + 1)
                    for S in all_type_matrices(m, k)]
        for crossing, positive in _positive_crossings(word):
            a, b = crossing_circles(positive, crossing)
            if a == b:
                plus = linking_matrix(positive)
                minus = linking_matrix(flip_crossing(positive, crossing))
                checks += 1
                if minus[a - 1][a - 1] != plus[a - 1][a - 1] - 1:
                    return False, checks, (
                        f"{name} crossing {crossing}: self-linking drop "
                        f"{plus[a-1][a-1]} -> {minus[a-1][a-1]}")
                framing_cases += 1
            for S in matrices:
                report = variation_match(positive, crossing, S, SWEEP_DEGREE, name)
                checks += 1
                if not report.passed:
                    return False, checks, f"crossing {crossing}: {report.render()}"
                for extra in check_recursion(positive, crossing, S,
                                             SWEEP_DEGREE, name):
                    if extra.identity == "smoothing-inversion":
                        continue
                    checks += 1
                    if not extra.passed:
                        return False, checks, f"crossing {crossing}: {extra.render()}"
    return True, checks, (f"variations agree on every crossing change "
                          f"({framing_cases} self-crossing framing drops)")


def _section_pentagon() -> tuple[bool, int, str]:
    sign = associator_sign()
    checks = 1
    if not pentagon_identity(2):
        return False, checks, "pentagon fails at degree 2"
    for eps in (1, -1):
        checks += 1
        if not hexagon_identity(eps):
            return False, checks, f"hexagon fails for crossing sign {eps:+d}"
    return True, checks, f"pentagon and both hexagons hold (frozen sign {sign:+d})"


def _brute_force_degree(m: int, k: int) -> frozenset[ChordDiagram]:
    """Independent enumeration: all slot distributions and pairings,
    canonicalized, with no type-matrix bookkeeping."""
    found: set[ChordDiagram] = set()
    for cuts in itertools.combinations(range(2 * k + m - 1), m - 1):
        bounds = (-1,) + cuts + (2 * k + m - 1,)
        counts = [bounds[i + 1] - bounds[i] - 1 for i in range(m)]
        slot_circle = [i for i in range(m) for _ in range(counts[i])]
        for pairs in _matchings(2 * k):
            label = {}
            for t, (x, y) in enumerate(pairs, start=1):
                label[x] = label[y] = t
            words: list[list[int]] = [[] for _ in range(m)]
            for slot, circle in enumerate(slot_circle):
                words[circle].append(label[slot])
            found.add(ChordDiagram(words))
    return frozenset(found)


def _section_enumeration() -> tuple[bool, int, str]:
    checks = 0
    for k, expected in ((1, 1), (2, 2), (3, 5)):
        checks += 1
        got = len(enumerate_by_degree(1, k))
        if got != expected:
            return False, checks, f"|degree-{k} on 1 circle| = {got}, expected {expected}"
    for m in (1, 2, 3):
        for k in range(5):
            by_degree = enumerate_by_degree(m, k)
            checks += 1
            if frozenset(by_degree) != _brute_force_degree(m, k):
                return False, checks, f"degree list (m={m}, k={k}) != brute force"
            seen: set[ChordDiagram] = set()
            for S in all_type_matrices(m, k):
                family = enumerate_by_matrix(S)
                checks += 1
                if any(d.type_matrix() != S for d in family):
                    return False, checks, f"family (m={m}, S={S}) mixes types"
                if seen & set(family):
                    return False, checks, f"families overlap at (m={m}, k={k})"
                seen.update(family)
            checks += 1
            if seen != set(by_degree):
                return False, checks, f"families miss diagrams at (m={m}, k={k})"
    return True, checks, "type families partition each degree list (brute-forced)"


def _section_representation() -> tuple[bool, int, str]:
    checks = 0
    first = integrate(load_corpus_word("hopf+"), SWEEP_DEGREE)
    second = integrate(load_corpus_word("hopf+alt"), SWEEP_DEGREE)
    for k in range(SWEEP_DEGREE + 1):
        checks += 1
        if first.reduced(k) != second.reduced(k):
            return False, checks, f"presentations differ mod 4T at degree {k}"
    return True, checks, "both clasp presentations agree mod 4T per degree"


SECTIONS: tuple[tuple[str, Callable[[], tuple[bool, int, str]]], ...] = (
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


def run_selftest(sections: Sequence[str] | None = None) -> list[SectionResult]:
    chosen = set(sections) if sections is not None else None
    if chosen is not None:
        unknown = chosen - set(section_names())
        if unknown:
            raise InputError(f"unknown sections: {', '.join(sorted(unknown))}")
    results = []
    for name, runner in SECTIONS:
        if chosen is not None and name not in chosen:
            continue
        started = time.perf_counter()
        passed, checks, detail = runner()
        ms = int(round((time.perf_counter() - started) * 1000))
        results.append(SectionResult(name, passed, checks, ms, detail))
    return results
