"""
Unit tests for class sums, linking monomials, and identity reports.

Core claims:
    - A linking monomial multiplies cell powers lk^s/s! and is 1 at S=0;
      its int numerator and denominator give the cell-by-cell Fraction
      product on generated matrices (half-integers, zeros, negatives,
      m <= 4, degree <= 6)
    - Class sums pick out one type's total coefficient, with truncation
      and circle-count guards; a degree over the truncation is refused
      before any type matrix is enumerated, and before any linking
      monomial is taken (an S entry of 99999999 returns at once)
    - A class sum of engine output is one lookup in the result's read-only
      sums by type, kept per degree; it equals the enumerated sum over
      every diagram of type S (every corpus word at truncation 3 and at
      its maximum, every crossing term with k <= 3, every S of degree
      <= 3), and every 4T relator, a raw mapping, still sums to 0;
      degree_part and reduced refuse the degrees type_sums refuses
    - The theorem on a 150-circle nest walks no type's diagrams
    - The main identity holds on corpus words: linking monomial equals
      the matching class sum, exactly
    - Under a circle relabelling the theorem pulls S back onto the word
      and matches the relabelled series' class sums without building it
    - Degree sums of linking monomials match total coefficient sums, and
      a negative degree is refused before the word is integrated; the
      closed form (sum_{i <= j} lk_ij)^k / k! of the left side is the
      monomials summed over every type matrix of degree k
    - Crossing surgery: bare blocks above the designated cell vanish,
      a slice index that is not a crossing (out of range, negative or a
      cup) is refused by flip_crossing and variation_match, and one
      that is not an int (4.0, True) by every crossing entry point,
      whether or not the equal int call is cached,
      the variation series and the inversion identity both close, the
      checker rejects geometrically negative crossings, and
      check_recursion is exactly the series, inversion and oracle
      reports concatenated; the inversions read 2(s + 1) class sums, each
      lowered matrix's once per side, and the oracle's int closed form is
      the old per-term Fraction sum for s <= 8
    - One crossing-change context reused over every S of each of the 16
      corpus crossings gives, in order, the reports of the public
      functions, each of which makes its own; every public entry point
      reports an S of the wrong size before a slice that is not a
      crossing, and that before a crossing that is not positive
    - The degree-k coefficient sum equals the class sums over every type
      matrix of degree k
    - Every structural question about a word is read off one cached
      trace, and the engine evaluates from that trace too: a full round
      of checks on a fresh word replays it and its flip once each, one
      boundary step per slice
    - The kinked unknot word agrees with the surgery-built series mod 4T
    - Framing powers of the kinked unknot are 1/(k! 2^k); the bare
      unknot's vanish; a surgery cutoff that is not an int is refused
      before any series is built
    - On generated words (kinked nests of up to 12 circles, closed
      2-braids with mixed signs on one or two circles) the degree-sum
      identity holds for k <= 3 at truncation 3, and the theorem for
      every S of degree at most 1
    - The 4,328 reports of every identity on the corpus at truncation 3
      (as_dict, rebuilt in the shape that held "ms": 0 after "pass") hash
      to a SHA-256 taken before the sides were summed in ints
    - Equal identity calls return equal reports, from cold caches and
      warm: no report holds a clock
    - Mirroring a word (every x+ for x- and back) multiplies each
      degree-k coefficient by (-1)^k, over the same diagrams, on the
      corpus and on generated words
    - Split union: on all 16 ordered pairs of hopf+, trefoil, u1 and
      chain2 stacked into one word, at truncation 3, a diagram with a
      chord between the two parts has coefficient 0 and any other the
      product of its two restrictions' coefficients
    - flip_crossing reads its word once, an iterator included, and
      returns the flip checked, so later entries never scan it again
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import kzlab
from kzlab import diagrams, invariants
from kzlab.diagrams import (
    ChordDiagram, TypeMatrix, all_type_matrices, enumerate_by_matrix,
    four_t_relators, reduce_mod_4t,
)
from kzlab.errors import (
    InputError, TruncationUnsupportedError, WordValidationError,
)
from kzlab.invariants import (
    VerificationReport,
    _variation_weight,
    check_recursion,
    class_sum,
    crossing_circles,
    degree_class_sum,
    degree_sum_identity,
    flip_crossing,
    kinked_unknot_series,
    linking_monomial,
    oracle_variation_report,
    smoothing_inversion_reports,
    smoothing_shift_reports,
    variation_match,
    variation_series_report,
    verify_theorem,
)
from kzlab.qtangle import engine
from kzlab.qtangle.corpus import corpus_linking, corpus_names, load_corpus_word
from kzlab.qtangle.engine import (
    TangleResult, associator_sign, crossing_term, evaluate_fragment, finalize,
    integrate, max_truncation,
)
from kzlab.qtangle.words import (
    BoundaryState, Slice, _CheckedWord, _as_word, _trace_cached, linking_matrix,
    parse_word, trace_word,
)


HOPF_S = ((0, 1), (1, 0))


# == 1. Linking monomials ====================================================


class TestLinkingMonomial:
    def test_empty_type_gives_one(self):
        assert linking_monomial(((0,),), ((0,),)) == 1
        assert linking_monomial(corpus_linking("chain3"), ((0,) * 3,) * 3) == 1

    def test_cell_power_with_factorial(self):
        hopf = corpus_linking("hopf+")
        assert linking_monomial(hopf, HOPF_S) == 1
        assert linking_monomial(hopf, ((0, 2), (2, 0))) == Fraction(1, 2)
        trefoil = corpus_linking("trefoil")
        assert linking_monomial(trefoil, ((2,),)) == Fraction(9, 8)

    def test_matrix_degree(self):
        assert TypeMatrix(((1, 2), (2, 0))).degree == 3

    def test_bad_type_matrices(self):
        with pytest.raises(ValueError):
            linking_monomial(((0,),), HOPF_S)
        with pytest.raises(ValueError):
            linking_monomial(corpus_linking("hopf+"), ((0, 1), (2, 0)))
        with pytest.raises(ValueError):
            linking_monomial(((0,),), ((-1,),))

    def test_bad_type_matrices_are_refused_not_truncated(self):
        word = load_corpus_word("hopf+")
        result = integrate(word, 3)
        checks = (lambda S: verify_theorem(word, S, 3),
                  lambda S: linking_monomial(linking_matrix(word), S),
                  lambda S: class_sum(result, S),
                  enumerate_by_matrix)
        for S in ([[0, 1.9], [1.9, 0]], [[0, "1"], ["1", 0]],
                  [[0, True], [True, 0]], [[0, -1], [-1, 0]], [[0, 1], [1]],
                  [[0, 1], [2, 0]]):
            for check in checks:
                with pytest.raises(ValueError):
                    check(S)


def _monomial_by_fractions(linking, S):
    """The cell-by-cell Fraction product that linking_monomial replaced."""
    out = Fraction(1)
    for i, row in enumerate(S):
        for j in range(i, len(row)):
            out *= Fraction(linking[i][j]) ** row[j] / math.factorial(row[j])
    return out


@st.composite
def _linking_and_type(draw):
    """A symmetric linking matrix on m <= 4 circles, its entries
    half-integers in [-7/2, 7/2] (zeros and negatives among them, whole
    ones drawn as Fraction or int), and a type matrix of degree <= 6."""
    m = draw(st.integers(1, 4))
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    linking = [[0] * m for _ in range(m)]
    S = [[0] * m for _ in range(m)]
    for i, j in cells:
        halves = draw(st.integers(-7, 7))
        whole = halves % 2 == 0 and draw(st.booleans())
        linking[i][j] = linking[j][i] = (halves // 2 if whole
                                         else Fraction(halves, 2))
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.sampled_from(cells))
        S[i][j] = S[j][i] = S[i][j] + 1
    return linking, S


HALF = Fraction(1, 2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_linking_and_type())
@example(([[Fraction(-7, 2)]], [[6]]))
@example(([[0, HALF], [HALF, 0]], [[2, 1], [1, 0]]))      # a zero cell first
@example(([[-1, 3], [3, HALF]], [[3, 1], [1, 2]]))
def test_monomial_is_the_cell_by_cell_fraction_product(case):
    linking, S = case
    got = linking_monomial(linking, S)
    assert type(got) is Fraction
    assert got == _monomial_by_fractions(linking, S)


# == 2. Class sums ===========================================================


class TestClassSum:
    def test_degree_zero_is_the_constant_term(self):
        result = integrate(load_corpus_word("u0"), 3)
        assert class_sum(result, ((0,),)) == 1

    def test_kinked_unknot_framing_cell(self):
        result = integrate(load_corpus_word("u1"), 3)
        assert class_sum(result, ((1,),)) == Fraction(1, 2)

    def test_accepts_raw_mappings(self):
        vector = {ChordDiagram([(1, 1)]): Fraction(3, 4)}
        assert class_sum(vector, ((1,),)) == Fraction(3, 4)
        assert class_sum(vector, ((2,),)) == 0

    def test_guards(self):
        result = integrate(load_corpus_word("u0"), 2)
        with pytest.raises(TruncationUnsupportedError):
            class_sum(result, ((3,),))
        with pytest.raises(ValueError):
            class_sum(result, HOPF_S)
        with pytest.raises(TruncationUnsupportedError):
            degree_class_sum(result, 3)
        with pytest.raises(ValueError):
            degree_class_sum(result, -1)

    def test_degree_is_checked_before_enumerating(self):
        result = integrate(load_corpus_word("hopf+"), 3)
        before = all_type_matrices.cache_info().misses
        message = "needs degree 600 but the series is truncated at 3"
        with pytest.raises(TruncationUnsupportedError, match=message):
            degree_class_sum(result, 600)
        with pytest.raises(TruncationUnsupportedError, match=message):
            degree_sum_identity(load_corpus_word("hopf+"), 600, 3)
        huge = ((0, 99999999), (99999999, 0))
        with pytest.raises(TruncationUnsupportedError, match="truncated at 3"):
            oracle_variation_report(load_corpus_word("hopf+"), 4, huge, 3)
        assert all_type_matrices.cache_info().misses == before

    def test_degree_sum_is_the_sum_of_class_sums(self):
        for name in corpus_names():
            result = integrate(load_corpus_word(name), 3)
            for k in range(4):
                by_type = sum((class_sum(result, S)
                               for S in all_type_matrices(result.circles, k)),
                              Fraction(0))
                assert degree_class_sum(result, k) == by_type, (name, k)

    def test_lookup_is_the_enumerated_class_sum(self):
        # The enumeration route, every diagram of type S looked up, is the
        # oracle for the lookup in the result's sums by type.
        def enumerated(result, S):
            return sum((result.coefficient(d) for d in enumerate_by_matrix(S)),
                       Fraction(0))

        for name in corpus_names():
            word = load_corpus_word(name)
            results = [integrate(word, n) for n in {3, max_truncation(word)}]
            results += [crossing_term(word, i + 1, k, 3)
                        for i, s in enumerate(word) if s.kind == "x"
                        for k in range(4)]
            for result in results:
                for k in range(4):
                    for S in all_type_matrices(result.circles, k):
                        assert class_sum(result, S) == enumerated(result, S), (name, S)

    def test_relators_keep_the_enumeration_route(self):
        for m in range(1, 4):
            for k in (2, 3):
                for relator in four_t_relators(m, k):
                    for S in all_type_matrices(m, k):
                        assert class_sum(relator, S) == 0, (relator, S)

    def test_sums_by_type_are_read_only_and_kept(self):
        result = finalize(evaluate_fragment(load_corpus_word("chain3"), 3))
        sums = result.type_sums(2)
        assert sums is result.type_sums(2)
        S = ((0, 1, 0), (1, 0, 1), (0, 1, 0))
        assert sums[(0, 1, 1), (1, 2, 1)] == class_sum(result, S)
        with pytest.raises(TypeError):
            sums[()] = Fraction(1)
        for k in (-1, 4, True, 2.0):
            with pytest.raises(InputError):
                result.type_sums(k)

    def test_degree_parts_refuse_what_type_sums_refuses(self):
        result = integrate(load_corpus_word("trefoil"), 3)
        for k in (-1, 4, 9, True, 2.0, 2.5):
            for read in (result.type_sums, result.degree_part, result.reduced):
                with pytest.raises(InputError, match=r"int in 0\.\.3"):
                    read(k)
        assert sum(result.degree_part(2).values()) == Fraction(9, 8)

    def test_unlinked_degrees_sum_to_zero(self):
        result = integrate(load_corpus_word("u0"), 3)
        for k in (1, 2, 3):
            assert degree_class_sum(result, k) == 0


# == 3. Identity reports =====================================================


class TestTheorem:
    def test_trefoil_framing_cell(self):
        report = verify_theorem(load_corpus_word("trefoil"), ((1,),), 3,
                                word_id="trefoil")
        assert report.passed
        assert report.lhs == report.rhs == Fraction(3, 2)

    def test_every_corpus_word_at_simple_types(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            m = len(linking_matrix(word))
            for S in all_type_matrices(m, 2):
                report = verify_theorem(word, S, 3, word_id=name)
                assert report.passed, (name, S)

    def test_theorem_on_a_wide_nest_enumerates_no_type(self, monkeypatch):
        m = 150
        kinked = {7: "x+@1", 75: "x-@1"}   # by the order the circles close
        word = parse_word(";".join(["cup@1"] * m + [
            f"{kinked[c]};cap'@1" if c in kinked else "cap@1" for c in range(m)]))
        calls = []
        by_matrix = diagrams._by_matrix

        def spy(*key):
            calls.append(key)
            return by_matrix(*key)

        monkeypatch.setattr(diagrams, "_by_matrix", spy)
        lk = linking_matrix(word)
        framed = [c for c in range(m) if lk[c][c]]
        assert len(framed) == 2
        for c in (0, *framed, m - 1):
            S = tuple(tuple(int(i == j == c) for j in range(m)) for i in range(m))
            report = verify_theorem(word, S, 1)
            assert report.passed and report.lhs == lk[c][c], c
        assert calls == []
        enumerate_by_matrix(((1,),))
        assert len(calls) == 1

    def test_relabel_permutes_the_oracle(self):
        report = verify_theorem(load_corpus_word("chain2"), ((0, 1), (1, 0)),
                                2, relabel=(2, 1))
        assert report.passed and report.lhs == 1

    def test_relabel_pulls_S_back_onto_the_word(self, monkeypatch):
        word, perm = load_corpus_word("chain3"), (3, 1, 2)
        moved = integrate(word, 3).relabeled(perm)
        calls = []
        relabeled = TangleResult.relabeled

        def spy(self, *args):
            calls.append(args)
            return relabeled(self, *args)

        monkeypatch.setattr(TangleResult, "relabeled", spy)
        for S in (S for k in range(4) for S in all_type_matrices(3, k)):
            report = verify_theorem(word, S, 3, relabel=perm)
            assert report.passed and report.S == S, S
            assert report.rhs == class_sum(moved, S), S
        assert calls == []
        with pytest.raises(InputError, match="perm must be a permutation"):
            verify_theorem(word, ((0,) * 3,) * 3, 3, relabel=(1, 1, 2))

    def test_report_schema(self):
        report = verify_theorem(load_corpus_word("u1"), ((1,),), 2,
                                word_id="u1")
        data = report.as_dict()
        assert set(data) == {"word", "S", "N", "lhs", "rhs", "pass"}
        assert data["word"] == "u1" and data["S"] == [[1]]
        assert data["lhs"] == "1/2" and data["pass"] is True
        assert "pass" in report.render()

    def test_equal_calls_return_equal_reports(self):
        word = load_corpus_word("chain3")
        S = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        calls = [lambda: verify_theorem(word, S, 3, "chain3"),
                 lambda: degree_sum_identity(word, 3, 3, "chain3"),
                 lambda: check_recursion(word, 5, S, 3, "chain3")]
        for call in calls:
            kzlab.clear_caches()
            cold = call()
            assert call() == cold

    def test_negative_degree_sum_is_refused_before_integrating(self):
        info = engine._integrate_cached.cache_info()
        with pytest.raises(InputError, match="degree k must be nonnegative"):
            degree_sum_identity(load_corpus_word("hopf+"), -1, 3)
        assert engine._integrate_cached.cache_info() == info

    def test_degree_sum_closed_form_is_the_enumerated_monomial_sum(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            lk = linking_matrix(word)
            for k in range(4):
                enumerated = sum((linking_monomial(lk, S)
                                  for S in all_type_matrices(len(lk), k)),
                                 Fraction(0))
                report = degree_sum_identity(word, k, 3)
                assert report.lhs == enumerated, (name, k)

    def test_degree_sum_reports_carry_k(self):
        report = degree_sum_identity(load_corpus_word("hopf+"), 2, 2)
        assert report.passed and report.lhs == Fraction(1, 2)
        assert report.as_dict()["k"] == 2


# == 4. Crossing surgery =====================================================


class TestSurgery:
    def test_crossing_circles(self):
        assert crossing_circles(load_corpus_word("hopf+"), 4) == (1, 2)
        assert crossing_circles(load_corpus_word("trefoil"), 4) == (1, 1)
        with pytest.raises(WordValidationError):
            crossing_circles(load_corpus_word("hopf+"), 1)

    def test_one_trace_per_word(self, monkeypatch):
        # The identity padding makes a word no other test builds.  The
        # hexagon's own fragments are traced once, before counting.
        associator_sign()
        word = (Slice("i", 1),) * 11 + load_corpus_word("hopf+")
        crossing = 15
        steps = []
        apply = BoundaryState.apply

        def spy(state, s, index):
            steps.append(index)
            return apply(state, s, index)

        monkeypatch.setattr(BoundaryState, "apply", spy)
        before = _trace_cached.cache_info().misses
        integrate(word, 2)
        linking_matrix(word)
        verify_theorem(word, HOPF_S, 2)
        trace_word(word).crossing(crossing).event
        crossing_circles(word, crossing)
        for k in range(3):
            crossing_term(word, crossing, k, 2)
        check_recursion(word, crossing, HOPF_S, 2)
        assert _trace_cached.cache_info().misses - before == 2
        flipped = flip_crossing(word, crossing)
        assert len(steps) == len(word) + len(flipped) == 38

    def test_flip_crossing_kills_the_clasp(self):
        word = load_corpus_word("hopf+")
        flipped = flip_crossing(word, 4)
        assert linking_matrix(flipped) == ((0, 0), (0, 0))
        # Out of range, negative (no wrap-around), and a cup.
        for crossing in (0, -3, 99, 1):
            with pytest.raises(WordValidationError, match="not a crossing"):
                flip_crossing(word, crossing)
            with pytest.raises(WordValidationError, match="not a crossing"):
                variation_match(word, crossing, HOPF_S, 2)

    def test_flip_crossing_checks_the_word_once(self, monkeypatch):
        word = load_corpus_word("trefoil")
        expected = flip_crossing(list(word), 5)
        # An iterator is read once, and the flip comes back checked, so
        # a later entry passes it through unscanned.
        assert flip_crossing(iter(word), 5) == expected
        assert type(expected) is _CheckedWord and _as_word(expected) is expected
        assert str(expected[4]) == "x+@2" and expected[:4] + expected[5:] == word[:4] + word[5:]
        # Every scan that passes makes a checked word; none is made again.
        associator_sign()   # parses the hexagon's words once, up front
        scanned = []
        monkeypatch.setattr(_CheckedWord, "__new__",
                            lambda cls, slices: scanned.append(1) or tuple.__new__(cls, slices))
        flipped = flip_crossing(word, 5)
        assert len(scanned) == 1
        integrate(flipped, 3)
        crossing_term(flipped, 5, 1, 3)
        linking_matrix(flipped)
        assert len(scanned) == 1

    def test_crossing_index_must_be_an_int(self):
        # The trefoil's crossings are slices 4, 5 and 6; 4.0 == 4 and
        # True == 1 would otherwise be read as those slices.
        word = load_corpus_word("trefoil")
        S = ((1,),)
        calls = [lambda c: crossing_term(word, c, 1, 3),
                 lambda c: flip_crossing(word, c),
                 lambda c: crossing_circles(word, c),
                 lambda c: variation_match(word, c, S, 3),
                 lambda c: check_recursion(word, c, S, 3),
                 lambda c: smoothing_shift_reports(word, c, S, 3)]

        def refused(call):
            for crossing in (4.0, True):
                with pytest.raises(InputError, match="int"):
                    call(crossing)

        for call in calls:
            kzlab.clear_caches()
            refused(call)
            call(4)
            refused(call)

    def test_block_above_the_cell_vanishes(self):
        word = load_corpus_word("hopf+")
        blocked = crossing_term(word, 4, 3, 3)
        assert class_sum(blocked, ((0, 2), (2, 0))) == 0

    def test_hopf_recursion_reports(self):
        word = load_corpus_word("hopf+")
        for report in check_recursion(word, 4, HOPF_S, 3, word_id="hopf+"):
            assert report.passed, report.identity
            assert report.identity in {"variation-series",
                                       "smoothing-inversion",
                                       "oracle-variation"}
            assert report.as_dict().get("identity") == report.identity

    def test_shift_and_match_reports(self):
        word = load_corpus_word("hopf+")
        shift = smoothing_shift_reports(word, 4, ((0, 2), (2, 0)), 3)
        assert shift and all(r.passed for r in shift)
        assert variation_match(word, 4, HOPF_S, 3).passed

    def test_matrix_size_is_checked_against_the_circles(self):
        # A 1x1 S on the two-circle Hopf link: no raw IndexError.
        word = load_corpus_word("hopf+")
        for check in (check_recursion, smoothing_shift_reports):
            with pytest.raises(ValueError, match="circle count"):
                check(word, 4, ((1,),), 3)

    def test_negative_crossings_are_rejected(self):
        with pytest.raises(WordValidationError):
            check_recursion(load_corpus_word("hopf-"), 4, HOPF_S, 3)

    def test_inversion_reads_each_lowered_class_sum_once(self, monkeypatch):
        # s + 1 lowered matrices, each summed once over the smoothed
        # block and once over the word's own integral.
        seen = []
        real = invariants.class_sum

        def spy(value, S):
            seen.append(S)
            return real(value, S)

        monkeypatch.setattr(invariants, "class_sum", spy)
        hopf, trefoil = load_corpus_word("hopf+"), load_corpus_word("trefoil")
        for word, crossing, S, s in ((hopf, 4, HOPF_S, 1),
                                     (hopf, 4, ((1, 2), (2, 0)), 2),
                                     (hopf, 4, ((0, 3), (3, 0)), 3),
                                     (trefoil, 5, ((2,),), 2),
                                     (trefoil, 6, ((3,),), 3)):
            seen.clear()
            reports = smoothing_inversion_reports(word, crossing, S, 3)
            assert len(reports) == s + 1
            assert len(seen) == 2 * (s + 1), (S, len(seen))

    def test_one_context_per_crossing_gives_the_per_call_reports(self):
        # One context reused over every S of a crossing, S after S, reports
        # what a fresh context per call reports, in the same order: no value
        # made for one S is read for another.  On the word as it is, the
        # two identities that allow a negative crossing; on the word made
        # positive there, all five.
        crossings = 0
        for name in corpus_names():
            word = load_corpus_word(name)
            matrices = [S for k in range(4)
                        for S in all_type_matrices(len(linking_matrix(word)), k)]
            for traced in trace_word(word).crossings:
                c, crossings = traced.slice, crossings + 1
                positive = (word if traced.event.geometric_sign == 1
                            else flip_crossing(word, c))
                for w, calls in ((word, ("smoothing_shift_reports",
                                         "variation_match")),
                                 (positive, ("smoothing_shift_reports",
                                             "smoothing_inversion_reports",
                                             "variation_match",
                                             "variation_series_report",
                                             "oracle_variation_report",
                                             "check_recursion"))):
                    change = invariants._CrossingChange(w, c, 3, name)
                    shared = [getattr(change, call)(S)
                              for S in matrices for call in calls]
                    fresh = [getattr(invariants, call)(w, c, S, 3, name)
                             for S in matrices for call in calls]
                    assert shared == fresh, (name, c)
        assert crossings == 16

    def test_each_entry_point_reports_s_before_the_crossing(self):
        # A fault of S's size outranks a slice that is not a crossing,
        # which outranks the crossing's sign.
        hopf = load_corpus_word("hopf+")
        for identity in (smoothing_shift_reports, smoothing_inversion_reports,
                         variation_match, variation_series_report,
                         oracle_variation_report, check_recursion):
            with pytest.raises(InputError, match="circle count"):
                identity(hopf, 99, ((1,),), 3)
            with pytest.raises(WordValidationError, match="not a crossing"):
                identity(hopf, 99, HOPF_S, 3)
        for identity in (smoothing_inversion_reports, variation_series_report,
                         oracle_variation_report, check_recursion):
            with pytest.raises(WordValidationError, match="positive crossing"):
                identity(load_corpus_word("hopf-"), 4, HOPF_S, 3)

    def test_variation_closed_form_is_the_per_term_sum(self):
        def by_terms(ell, s):
            return sum((Fraction((-1) ** (i + 1),
                                 math.factorial(i) * math.factorial(s - i))
                        * ell ** (s - i) for i in range(1, s + 1)),
                       Fraction(0))

        for s in range(9):
            for halves in range(-9, 10):
                ell = Fraction(halves, 2)
                assert _variation_weight(ell, s) == by_terms(ell, s), (ell, s)

    def test_recursion_is_the_three_identities_in_order(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            m = len(linking_matrix(word))
            for traced in trace_word(word).crossings:
                if traced.event.geometric_sign != 1:
                    continue
                for k in range(3):
                    for S in all_type_matrices(m, k):
                        args = (word, traced.slice, S, 3, name)
                        parts = [variation_series_report(*args),
                                 *smoothing_inversion_reports(*args),
                                 oracle_variation_report(*args)]
                        whole = check_recursion(*args)
                        assert whole == parts


# == 5. Unknot framing powers ================================================


class TestFramingPowers:
    def test_kinked_word_matches_surgery_series(self):
        result = integrate(load_corpus_word("u1"), 3)
        built = kinked_unknot_series(3)
        for k in range(4):
            lhs = reduce_mod_4t(result.degree_part(k))
            rhs = reduce_mod_4t({d: c for d, c in built.items()
                                 if d.degree == k})
            assert lhs == rhs, k

    def test_framing_power_values(self):
        kinked = integrate(load_corpus_word("u1"), 3)
        bare = integrate(load_corpus_word("u0"), 3)
        assert degree_class_sum(kinked, 0) == 1
        assert [degree_class_sum(kinked, k) for k in (1, 2, 3)] == \
            [Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)]
        assert all(degree_class_sum(bare, k) == 0 for k in (1, 2, 3))

    def test_arguments_are_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("series built before its cutoff was checked")

        monkeypatch.setattr(invariants, "series_exp", no_work)
        monkeypatch.setattr(invariants, "integrate", no_work)
        for cutoff in (2.0, "3", None, -1, True):
            with pytest.raises(InputError, match="nonnegative int"):
                kinked_unknot_series(cutoff)
        with pytest.raises(TruncationUnsupportedError):
            kinked_unknot_series(5)


# == 6. Generated words ======================================================


@st.composite
def _generated_words(draw):
    """A nest of up to 12 circles, each closed by cap@1 or by a kink, or
    a closed 2-braid with mixed signs on one circle or two."""
    if draw(st.booleans()):
        kinks = draw(st.lists(st.sampled_from(("", "+", "-")),
                              min_size=1, max_size=12))
        closures = [f"x{sign}@1;cap'@1" if sign else "cap@1"
                    for sign in kinks]
        return ";".join(["cup@1"] * len(kinks) + closures)
    signs = draw(st.lists(st.sampled_from("+-"), min_size=1, max_size=8))
    if len(signs) % 2:
        closure = "cap@2;cap@1"
    elif draw(st.booleans()):
        closure = "assoc+@3;cap@3;cap@1"
    else:
        closure = "cap'@2;cap@1"
    return ";".join(["cup@1", "cup@3", "assoc-@3"]
                    + [f"x{sign}@2" for sign in signs] + [closure])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_generated_words())
@example(";".join(["cup@1"] * 12 + ["x+@1;cap'@1", "cap@1", "x-@1;cap'@1"] * 4))
@example("cup@1;cup@3;assoc-@3;x+@2;x-@2;x+@2;x+@2;assoc+@3;cap@3;cap@1")
def test_identities_hold_on_generated_words(text):
    word = parse_word(text)
    circles = len(linking_matrix(word))
    for k in range(4):
        assert degree_sum_identity(word, k, 3).passed, (text, k)
    for S in (S for k in range(2) for S in all_type_matrices(circles, k)):
        assert verify_theorem(word, S, 3).passed, (text, S)


def _mirror(word):
    return tuple(s._replace(sign=-s.sign) if s.kind == "x" else s for s in word)


def _assert_mirror_signs(word):
    # Each degree-k coefficient times (-1)^k, over the same diagrams.
    series = integrate(word, 3).coefficients
    mirrored = integrate(_mirror(word), 3).coefficients
    assert dict(mirrored) == {d: c * (-1) ** d.degree for d, c in series.items()}


@pytest.mark.parametrize("name", corpus_names())
def test_mirror_negates_the_odd_degrees_on_the_corpus(name):
    _assert_mirror_signs(load_corpus_word(name))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_generated_words())
def test_mirror_negates_the_odd_degrees_on_generated_words(text):
    _assert_mirror_signs(parse_word(text))


_SPLIT_PARTS = ("hopf+", "trefoil", "u1", "chain2")


def _disjoint_union(a, b):
    """The product series of two links side by side: b's circles after
    a's, its chords renamed past a's, every pair within the truncation."""
    out = {}
    for da, ca in a.coefficients.items():
        for db, cb in b.coefficients.items():
            if da.degree + db.degree <= a.truncation:
                words = da.code + tuple(tuple(label + da.degree for label in word)
                                        for word in db.code)
                out[ChordDiagram(words)] = ca * cb
    return out


@pytest.mark.parametrize("first, second",
                         [(a, b) for a in _SPLIT_PARTS for b in _SPLIT_PARTS])
def test_split_union_is_the_product_of_its_parts(first, second):
    # A word that closes one link before opening the next: a diagram with
    # a chord between the parts has coefficient 0, any other the product
    # of its restrictions' coefficients.
    a, b = (integrate(load_corpus_word(name), 3) for name in (first, second))
    union = integrate(load_corpus_word(first) + load_corpus_word(second), 3)
    assert union.circles == a.circles + b.circles
    assert dict(union.coefficients) == _disjoint_union(a, b)


# == 7. Pinned report digest =================================================


def _identity_reports():
    """Every identity's reports on the corpus at truncation 3: the theorem
    on every S of degree <= 3 and the degree sums for k <= 3 per word;
    per crossing and S, the variation match and the block shifts on the
    word, and the variation series, smoothing inversions and oracle
    variation on the word flipped there if needed to make it positive."""
    for name in corpus_names():
        word = load_corpus_word(name)
        matrices = [S for k in range(4)
                    for S in all_type_matrices(len(linking_matrix(word)), k)]
        for S in matrices:
            yield verify_theorem(word, S, 3, name)
        for k in range(4):
            yield degree_sum_identity(word, k, 3, name)
        for traced in trace_word(word).crossings:
            c = traced.slice
            positive = (word if traced.event.geometric_sign == 1
                        else flip_crossing(word, c))
            for S in matrices:
                yield variation_match(word, c, S, 3, name)
                yield from smoothing_shift_reports(word, c, S, 3, name)
                yield variation_series_report(positive, c, S, 3, name)
                yield from smoothing_inversion_reports(positive, c, S, 3, name)
                yield oracle_variation_report(positive, c, S, 3, name)


# Taken from the Fraction-by-Fraction sides that the integer sides replaced.
REPORTS_SHA256 = \
    "00bb9386ff3ddd9c6c0bcf32c6a9a5e3158672d3df5b3b3801752dfd3bc8b32e"


def _with_zero_ms(row):
    """A report's row in the shape the digest was taken in, which held
    "ms": 0 right after "pass"."""
    items = list(row.items())
    at = [key for key, _ in items].index("pass") + 1
    return dict(items[:at] + [("ms", 0)] + items[at:])


def test_every_identity_report_is_pinned():
    rows = [_with_zero_ms(report.as_dict()) for report in _identity_reports()]
    assert len(rows) == 4328
    assert all(row["pass"] for row in rows)
    text = json.dumps(rows)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORTS_SHA256
