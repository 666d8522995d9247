"""
Unit tests for class sums, linking monomials, and identity reports.

Core claims:
    - A linking monomial multiplies cell powers lk^s/s! and is 1 at S=0
    - Class sums pick out one type's total coefficient, with truncation
      and circle-count guards; a degree over the truncation is refused
      before any type matrix is enumerated
    - The main identity holds on corpus words: linking monomial equals
      the matching class sum, exactly
    - Degree sums of linking monomials match total coefficient sums
    - Crossing surgery: bare blocks above the designated cell vanish,
      the variation series and the inversion identity both close, the
      checker rejects geometrically negative crossings, and
      check_recursion is exactly the series, inversion and oracle
      reports concatenated
    - The degree-k coefficient sum equals the class sums over every type
      matrix of degree k
    - Every structural question about a word is read off one cached
      trace, and the engine evaluates from that trace too: a full round
      of checks on a fresh word replays it and its flip once each, one
      boundary step per slice
    - The kinked unknot word agrees with the surgery-built series mod 4T
    - Framing powers of the kinked unknot are 1/(k! 2^k); the bare
      unknot's vanish
"""

from fractions import Fraction

import pytest

from kzlab.diagrams import (
    ChordDiagram, TypeMatrix, all_type_matrices, enumerate_by_matrix,
    reduce_mod_4t,
)
from kzlab.errors import TruncationUnsupportedError, WordValidationError
from kzlab.invariants import (
    VerificationReport,
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
    unknot_degree_value,
    variation_match,
    variation_series_report,
    verify_theorem,
)
from kzlab.qtangle.corpus import corpus_linking, corpus_names, load_corpus_word
from kzlab.qtangle.engine import (
    associator_sign, crossing_info, crossing_term, integrate,
)
from kzlab.qtangle.words import (
    BoundaryState, Slice, _trace_cached, linking_matrix, trace_word,
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
        assert all_type_matrices.cache_info().misses == before

    def test_degree_sum_is_the_sum_of_class_sums(self):
        for name in corpus_names():
            result = integrate(load_corpus_word(name), 3)
            for k in range(4):
                by_type = sum((class_sum(result, S)
                               for S in all_type_matrices(result.circles, k)),
                              Fraction(0))
                assert degree_class_sum(result, k) == by_type, (name, k)

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

    def test_relabel_permutes_the_oracle(self):
        report = verify_theorem(load_corpus_word("chain2"), ((0, 1), (1, 0)),
                                2, relabel=(2, 1))
        assert report.passed and report.lhs == 1

    def test_report_schema(self):
        report = verify_theorem(load_corpus_word("u1"), ((1,),), 2,
                                word_id="u1")
        data = report.as_dict()
        assert set(data) == {"word", "S", "N", "lhs", "rhs", "pass", "ms"}
        assert data["word"] == "u1" and data["S"] == [[1]]
        assert data["lhs"] == "1/2" and data["pass"] is True
        assert isinstance(data["ms"], int)
        assert "pass" in report.render()

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
        crossing_info(word, crossing)
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
        with pytest.raises(WordValidationError):
            flip_crossing(word, 1)

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
                        assert ([r.as_dict() | {"ms": 0} for r in whole]
                                == [r.as_dict() | {"ms": 0} for r in parts])


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
        assert unknot_degree_value(0, True, 3) == 1
        assert [unknot_degree_value(k, True, 3) for k in (1, 2, 3)] == \
            [Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)]
        assert all(unknot_degree_value(k, False, 3) == 0 for k in (1, 2, 3))
