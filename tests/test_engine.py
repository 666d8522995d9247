"""
Unit tests for fragment values, the associator, and word integration.

Core claims:
    - Crossing values expand as exp of half the geometric sign times a
      chord: coefficients 1, 1/2, 1/8, 1/48 for a positive crossing
    - Reversing a strand reads its chords backwards and negates
      odd-endpoint terms
    - Grafting stacks chords in slice order and needs matching directions
      and an upper fragment that starts at the word index where the
      lower one stops: a gap or an overlap is refused
    - The rebracketing value on three down strands is the frozen
      degree-2 commutator with weight 1/24, cabled over block leaves
    - The pentagon holds exactly and the bracketed braid relation holds
      modulo 4T at degrees 2 and 3; the latter pins a unique associator
      sign, the former holds for both
    - Strand monomials count 3 at (2 strands, 1 chord) and linear words
      at one strand; a degree-0 strand series is its own residual; the
      placements of k <= 4 chords on n <= 4 strands are distinct codes
      named by first appearance, sorted into the strand monomials
    - Integrating the bare unknot word reproduces the closed unknot
      series exactly at truncations 3 and 4
    - Fragment grafting agrees with direct integration at every split
      of every corpus word and of a kinked circle closed below a second
      cup, at truncation 3 and at the word's maximum, and at every
      three-way split in both groupings
    - Grafting word[s:a] and word[a:b] gives the boundary, anchors,
      span and component orders of evaluating word[s:b] directly, and
      its terms too when no new circle closes, from the empty boundary
      and from the anchored boundary mid-word; every fragment key is one
      renamed word per component, open or closed, in birth order
    - A fragment holding a closed circle born before an open arc lists
      the circle's word first
    - No kernel forms a term over the truncation: on a kinked 6-circle
      unlink at degree 4 every key renamed holds at most 8 endpoints,
      and the count of keys renamed is pinned (products with no new
      chord, except at a merging cap, are not renamed), and no kernel's
      unit places a word: integrating every corpus word inserts no empty
      token run
    - Inserting a cancelling assoc+@p;assoc-@p pair (either order) at any
      legal site of a corpus word leaves its value unchanged
    - Words and fragments nesting 600 levels deep evaluate with the
      recursion limit at 120: the boundary needs no recursion
    - A fragment's anchors come from the cached trace: they are
      read-only, a list spec evaluates as the tuple spec, and a spec
      that is not a (depths, roles) pair, whose depths are not integers
      or whose roles are not 'start'/'end' is refused
    - Bare-block substitution keeps the skeleton and suppresses only the
      designated crossing's chords; a block over the truncation leaves
      an empty series, allocating nothing for its chords (traced peak
      under 1 MiB at k = 10**5), also while another thread integrates;
      a thread pool over cold caches gives the serial answers, on the
      corpus and on long braids parsed inside the pool, traces
      included, and so do class sums from a thread pool on one fresh,
      shared result;
      a block index that is not a crossing slice of the fragment is an
      error, and a bare block or slice offset that is not an int (a bool
      included), a negative chord count or offset, or a block that is
      not a pair, is refused with InputError before the word is traced
    - Cached series are read-only: a caller cannot change what a later
      call returns
    - The strand 4T span has the rank of the full relator matrix
    - A run of crossings on one pair of strand points, fused into one
      exponential, agrees with grafting the word's one-slice fragments,
      on closed 2-braids with mixed signs and identities inside the run,
      on open words with runs at two sibling pairs, and with a bare
      block inside a run; each run is one multiply, and a run whose
      signs cancel is none; the run holding a bare block is one multiply
      too, none at k = 0 when its other signs cancel, and a block over
      the truncation leaves no terms; every multiply but a merging cap's
      and a bare block's updates the terms in place, and none places a
      unit payload
    - One structural pass per word: tracing a word or a fragment replays
      each slice once, and integrate, linking_matrix, crossing_term and
      evaluate_fragment on a word whose trace is cached replay none
    - crossing_term is keyed by its crossing's run: at every crossing of
      the corpus, of closed 2-braids with mixed-sign runs and of two
      words that differ only in where their run sits, at every
      k <= N and one k over it, it gives the series of the word's own
      blocked fragment, closed directly, and crossings of one run with
      equal leftover signs share one result with the word flipped there
    - Truncation limits: 3 with rebracketings, 4 without
    - Every record the library returns (the four slice events, traced
      crossings, word traces, fragment values, results, verification
      reports and selftest section results) is a tuple that refuses
      attribute assignment; a result's sums by type are kept outside
      its fields, so a result that has filled them equals, and has the
      repr of, one that has not, hashing still fails on its read-only
      mapping, and a relabeled result starts with none; a report's
      verdict, a cap's closing and a fragment's cutoff are properties
      read off their own fields, and no record holds a clock
    - The kernels run in ints: the scale is 12 through truncation 3 and
      120 at 4, the least that makes every arc, crossing-run and
      associator coefficient integral, and every coefficient a kernel
      multiplies by is an int, with and without rebracketings at every
      truncation; a scale missing any one of its primes makes kernel
      building raise
    - Only evaluate_fragment and graft make a fragment's graded, and its
      buckets and anchors refuse writes: graft and finalize refuse with InputError
      any other value in its slot (a list of dicts, even a copy of an
      engine fragment's, a flat dict, a wrong bucket count, a
      mis-bucketed key, a key that is no code, a string-labelled key),
      anything that is no fragment, and an engine fragment with another
      field replaced (no components, another fragment's buckets, its
      leaves reversed); the cutoff is read off the buckets and is no
      field, so it cannot be replaced
    - No int leaves the engine: fragment, graft and integrate values
      are Fractions for every corpus word at every supported truncation
    - kzlab.clear_caches empties every library cache, the per-truncation
      scale included; the thread-pool check starts from it
    - The whole-word integration and trace caches keep at most 1024
      entries: a loop over more distinct words stays within the bound and
      an evicted word integrates to the same series; so does the type
      family cache behind enumerate_by_matrix, over more distinct S
    - finalize gives the diagrams, coefficients and order of summing one
      ChordDiagram per key from Fraction(0), on every corpus word at
      every truncation it supports and on nests and closed 2-braids; it
      canonicalises each key once and calls no ChordDiagram constructor
    - A product whose degree-0 part is the unit alone updates the
      caller's buckets in place, any other fills fresh ones, and both
      agree with multiplying every term into fresh buckets on generated
      graded inputs, cancellations included; graft leaves its inputs'
      terms and graded buckets alone (the same bucket objects, holding
      the same items in order), and evaluating a word twice gives equal
      terms
    - Every key evaluate_fragment and graft write is named by first
      appearance (_relabel leaves it alone): every fragment, every split
      and its graft, on the corpus at every truncation, on nests up to
      N = 4 and 2-braids up to N = 3, and on generated nests and braids;
      so finalize closes a fragment's graded ints with one _least_code
      per key, one Fraction per diagram, no canonical_code and no
      Fraction addition, and integrate is finalize of the word's
      fragment: it reads no flat series, gives finalize's diagrams,
      coefficients and order, and closes each word it has not cached,
      crossing_term's bare blocks included, through one finalize call
    - The flat terms of every corpus word's fragment, of its middle-split
      halves and of their graft, at every supported truncation, are
      pinned by a SHA-256 taken while fragments stored flat terms; so are
      those of kinked nests of up to 150 circles at N = 1 and 2 and of
      closed 2-braids with merging caps at N = 1 to 3, and of their
      upper halves, whose caps merge anchored slots, by one taken while
      every cup and cap rebuilt its arc kernel; every corpus crossing
      term (each crossing, each k up to N + 1, each supported N) is pinned
      by one taken while a bare block split its run in three
    - A series that is its unit alone within the truncation returns the
      caller's buckets at once, unchanged, and places no word
    - A cached answer does not depend on cache state: a truncation,
      degree, crossing index, circle count, chord count, wheel size,
      wheel order or strand count that is a bool or a float is refused
      with InputError from cold caches, and again once the equal int
      call is cached
"""

import hashlib
import itertools
import math
import operator
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import kzlab
from kzlab import diagrams
from kzlab.algebra import (
    sqrt_unknot_series, unknot_series_closed, wheel_attachment_sum,
    wheel_coefficients,
)
from kzlab.diagrams import (
    ChordDiagram, _circle_code, _placements, _relabel, all_type_matrices,
    enumerate_by_degree, enumerate_by_matrix, four_t_moves, four_t_relators,
)
from kzlab.errors import (
    InputError, TruncationUnsupportedError, WordValidationError,
)
from kzlab.invariants import (
    class_sum, degree_sum_identity, flip_crossing, verify_theorem,
)
from kzlab.qtangle.corpus import corpus_names, load_corpus_word
from kzlab.qtangle import engine
from kzlab.qtangle.engine import (
    _PENTAGON,
    _hexagon_words,
    _strand_reducer,
    associator_sign,
    crossing_term,
    evaluate_fragment,
    finalize,
    graft,
    hexagon_identity,
    integrate,
    max_truncation,
    pentagon_identity,
    strand_monomials,
    reduce_strands_mod_4t,
)
from kzlab.qtangle.words import (
    END, START, BoundaryState, Slice, _trace_cached, linking_matrix, parse_word,
    trace_word,
)
from kzlab.selftest import SectionResult


# -- Helpers -----------------------------------------------------------------


def _ladder(k: int):
    rungs = tuple(range(1, k + 1))
    return (rungs, rungs)


def _value(word: str, depths, roles, cutoff: int = 3):
    return evaluate_fragment(parse_word(word), cutoff, initial=(depths, roles))


# == 1. Strand series ========================================================


class TestStrandSeries:
    def test_positive_crossing_coefficients(self):
        terms = _value("x+@1", (0,), (END, END)).terms
        expected = [Fraction(1), Fraction(1, 2), Fraction(1, 8), Fraction(1, 48)]
        assert terms == {_ladder(k): value for k, value in enumerate(expected)}

    def test_negative_crossing_alternates(self):
        terms = _value("x-@1", (0,), (END, END)).terms
        assert [terms[_ladder(k)] for k in range(4)] == [
            1, Fraction(-1, 2), Fraction(1, 8), Fraction(-1, 48)]

    def test_direction_variant_is_strand_reversal(self):
        upup = _value("x+@1", (0,), (END, END)).terms
        updown = _value("x+@1", (0,), (END, START)).terms
        assert updown == {(a, b[::-1]): c * (-1) ** len(b)
                          for (a, b), c in upup.items()}

    def test_graft_orders_chords(self):
        word = parse_word("x+@1")
        lower = evaluate_fragment(word, 2, initial=((0,), (END, END)))
        upper = evaluate_fragment(word, 2, initial=lower.spec_out,
                                  slice_offset=1)
        twist = graft(lower, upper).terms
        assert twist[((1, 2), (1, 2))] == Fraction(1, 2)
        assert ((1, 2), (2, 1)) not in twist

    def test_graft_requires_same_directions(self):
        lower = evaluate_fragment([], 2, initial=((0,), (END, END)))
        upper = evaluate_fragment([], 2, initial=((0,), (END, START)))
        with pytest.raises(WordValidationError):
            graft(lower, upper)


# == 2. The associator =======================================================


class TestAssociator:
    def test_value_on_three_down_strands(self):
        sign = associator_sign()
        ab, ba = ((1,), (2, 1), (2,)), ((1,), (1, 2), (2,))
        down = (START,) * 3
        assert _value("assoc+@2", (1, 0), down, 2).terms == {
            ((), (), ()): 1, ab: Fraction(sign, 24),
            ba: Fraction(-sign, 24)}
        inverse = _value("assoc-@2", (0, 1), down, 2).terms
        assert inverse[ab] == Fraction(-sign, 24)

    def test_assoc_cables_over_block_leaves(self):
        sign = associator_sign()
        terms = _value("assoc+@3", (2, 1, 0), (START,) * 4, 2).terms
        assert terms == {
            ((), (), (), ()): 1,
            ((1,), (), (2, 1), (2,)): Fraction(sign, 24),
            ((), (1,), (2, 1), (2,)): Fraction(sign, 24),
            ((1,), (), (1, 2), (2,)): Fraction(-sign, 24),
            ((), (1,), (1, 2), (2,)): Fraction(-sign, 24),
        }

    def test_coherence_words_end_on_one_boundary(self):
        for depths, lhs, rhs in (_PENTAGON, _hexagon_words(1), _hexagon_words(-1)):
            roles = (START,) * (len(depths) + 1)
            assert _value(lhs, depths, roles, 1).leaves == \
                _value(rhs, depths, roles, 1).leaves

    def test_pentagon(self):
        for cutoff in (2, 3):
            for sign in (1, -1):
                assert pentagon_identity(cutoff, sign=sign), (cutoff, sign)

    def test_hexagon_both_crossing_signs(self):
        for cutoff in (2, 3):
            assert hexagon_identity(1, cutoff=cutoff)
            assert hexagon_identity(-1, cutoff=cutoff)

    def test_sign_is_pinned_uniquely(self):
        sign = associator_sign()
        assert sign in (1, -1)
        assert not hexagon_identity(1, sign=-sign)
        assert not hexagon_identity(-1, sign=-sign)

    def test_strand_monomial_counts(self):
        assert len(strand_monomials(2, 1)) == 3
        assert len(strand_monomials(1, 2)) == 3

    def test_placements_are_distinct_codes_named_by_first_appearance(self):
        # strand_monomials sorts the placements as they come, trusting both.
        for n in range(1, 5):
            for k in range(5):
                codes = [tuple(map(tuple, words)) for words in _placements(k, n)]
                assert len(set(codes)) == len(codes), (n, k)
                assert all(_relabel(code) == code for code in codes), (n, k)
                assert strand_monomials(n, k) == tuple(sorted(codes)) == tuple(
                    sorted({_relabel(words) for words in _placements(k, n)}))

    def test_strand_span_against_sympy_rank(self):
        sympy = pytest.importorskip("sympy")
        for (n, k), expected in (((2, 2), 6), ((3, 2), 17), ((2, 3), 82)):
            basis, index, rows = _strand_reducer(n, k)
            matrix = []
            for base in strand_monomials(n, k - 1):
                for placements in four_t_moves(base, lambda size: size + 1):
                    row = [0] * len(basis)
                    for words, sign in placements:
                        row[index[_relabel(words)]] += sign
                    matrix.append(row)
            assert sympy.Matrix(matrix).rank() == len(rows) == expected

    def test_strand_relator_reduces_to_zero(self):
        # t12 t13 - t13 t12 + t12 t23 - t23 t12 is a strand 4T relator.
        keys = {
            ((1, 2), (1,), (2,)): Fraction(1),
            ((1, 2), (2,), (1,)): Fraction(-1),
            ((1,), (1, 2), (2,)): Fraction(1),
            ((1,), (2, 1), (2,)): Fraction(-1),
        }
        assert reduce_strands_mod_4t(keys) == {}

    def test_degree_zero_is_its_own_residual(self):
        unit = {((), (), ()): Fraction(3)}
        assert reduce_strands_mod_4t(unit) == unit


# == 3. Word integration =====================================================


class TestIntegration:
    def test_unknot_matches_closed_series_exactly(self):
        word = parse_word("cup@1 ; cap@1")
        for cutoff in (3, 4):
            assert integrate(word, cutoff).coefficients == \
                unknot_series_closed(cutoff)

    def test_cup_variants_share_the_arc_series(self):
        plain = evaluate_fragment(parse_word("cup@1"), 3).terms
        primed = evaluate_fragment(parse_word("cup'@1"), 3).terms
        assert primed == plain
        arcs = {key[0]: c for key, c in plain.items()}
        assert arcs == sqrt_unknot_series(3)

    def test_kinked_unknot_values(self):
        word = load_corpus_word("u1")
        result = integrate(word, 4)
        assert result.coefficient(ChordDiagram([(1, 1)])) == Fraction(1, 2)
        degree4 = sum(result.degree_part(4).values(), Fraction(0))
        assert degree4 == Fraction(1, 384)

    def test_cached_values_are_read_only(self):
        word = load_corpus_word("trefoil")
        result = integrate(word, 3)
        with pytest.raises(AttributeError):
            result.coefficients.clear()
        with pytest.raises(TypeError):
            result.coefficients[ChordDiagram([()])] = Fraction(0)
        with pytest.raises(AttributeError):
            unknot_series_closed(2).clear()
        with pytest.raises(TypeError):
            unknot_series_closed(2)[ChordDiagram([()])] = Fraction(0)
        assert len(integrate(word, 3).coefficients) == 7
        assert len(unknot_series_closed(2)) == 3
        assert unknot_series_closed.cache_info().currsize > 0
        moved = integrate(load_corpus_word("hopf+"), 2).relabeled((2, 1))
        with pytest.raises(TypeError):
            moved.coefficients[ChordDiagram([(), ()])] = Fraction(0)

    def test_relabel_roundtrip(self):
        word = load_corpus_word("chain3")
        plain = integrate(word, 2)
        moved = plain.relabeled((3, 1, 2))
        assert moved.relabeled((2, 3, 1)).coefficients == plain.coefficients

    def test_truncation_limits(self):
        assert max_truncation(load_corpus_word("hopf+")) == 3
        assert max_truncation(load_corpus_word("u1")) == 4
        with pytest.raises(TruncationUnsupportedError):
            integrate(load_corpus_word("hopf+"), 4)
        with pytest.raises(ValueError):
            integrate(load_corpus_word("u0"), -1)


def _piece(word, start, stop, cutoff, below=None):
    """Slices start..stop of word, evaluated on top of the fragment below."""
    return evaluate_fragment(word[start:stop], cutoff,
                             initial=None if below is None else below.spec_out,
                             slice_offset=start)


class TestFragments:
    def test_graft_agrees_with_integration_at_every_split(self):
        words = [(name, load_corpus_word(name)) for name in corpus_names()]
        # A circle that closes while a later cup is still open.
        words.append(("kink-then-cup",
                      parse_word("cup@1;x+@1;cap'@1;cup@1;cap@1")))
        for name, word in words:
            for cutoff in sorted({3, max_truncation(word)}):
                direct = integrate(word, cutoff).coefficients
                for cut in range(len(word) + 1):
                    lower = _piece(word, 0, cut, cutoff)
                    upper = _piece(word, cut, len(word), cutoff, lower)
                    assert finalize(graft(lower, upper)).coefficients == \
                        direct, (name, cutoff, cut)
                    # Three pieces, grafted in both groupings.
                    for top in range(cut, len(word) + 1):
                        middle = _piece(word, cut, top, cutoff, lower)
                        rest = _piece(word, top, len(word), cutoff, middle)
                        for joined in (graft(graft(lower, middle), rest),
                                       graft(lower, graft(middle, rest))):
                            assert finalize(joined).coefficients == direct, \
                                (name, cutoff, cut, top)

    def test_graft_bookkeeping_matches_direct_evaluation(self):
        # graft(word[s:a], word[a:b]) against evaluating word[s:b] at once,
        # from the empty boundary (s = 0) and from the anchored boundary
        # at the middle of the word.
        fields = ("spec_in", "spec_out", "leaves", "anchors", "span",
                  "components")

        def circles(value):
            return len(value.components) - len(value.anchors)
        counts = {True: [0, 0], False: [0, 0]}   # s == 0: [pairs, same terms]
        for name in corpus_names():
            word = load_corpus_word(name)
            for s in sorted({0, len(word) // 2}):
                base = _piece(word, 0, s, 2)
                for a in range(s, len(word) + 1):
                    lower = _piece(word, s, a, 2, base)
                    for b in range(a, len(word) + 1):
                        upper = _piece(word, a, b, 2, lower)
                        joined = graft(lower, upper)
                        direct = _piece(word, s, b, 2, base)
                        for field in fields:
                            assert getattr(joined, field) == \
                                getattr(direct, field), (name, s, a, b, field)
                        for value in (lower, upper, joined, direct):
                            width = len(value.components)
                            assert all(_relabel(key) == key and len(key) == width
                                       for key in value.terms), (name, s, a, b)
                        counts[s == 0][0] += 1
                        # A new circle reads from its least-birth component,
                        # not from where its cap closed it, so its keys differ.
                        if circles(joined) == circles(lower) + circles(upper):
                            assert joined.terms == direct.terms, (name, s, a, b)
                            counts[s == 0][1] += 1
        assert counts == {True: [487, 379], False: [162, 161]}

    def test_no_term_over_the_truncation_is_formed(self, monkeypatch):
        # The kinked 6-circle unlink [1, 0, -1, 0, 1, 0]: six cups, then
        # the closures innermost first.
        word = parse_word(";".join(
            ["cup@1"] * 6 + ["x+@1", "cap'@1", "cap@1", "x-@1", "cap'@1",
                             "cap@1", "x+@1", "cap'@1", "cap@1"]))
        sizes = []
        relabel = engine._relabel

        def spy(words):
            sizes.append(sum(map(len, words)))
            return relabel(words)

        monkeypatch.setattr(engine, "_relabel", spy)
        # Unwrapped, so that a cached value cannot hide the evaluation.
        result = engine._integrate_cached.__wrapped__(word, 4)
        assert max(sizes) <= 2 * 4
        assert len(sizes) == 632
        assert len(result.coefficients) == 254

    def test_a_unit_places_no_word(self, monkeypatch):
        # A kernel's unit leaves each key as it is, so _insert_at_points
        # never gets a call whose token runs are all empty.  Unwrapped, so
        # that a cached value cannot hide the evaluation.
        runs = []
        insert = engine._insert_at_points

        def spy(words, inserts):
            runs.append(tuple(tokens for _, _, tokens in inserts))
            return insert(words, inserts)

        monkeypatch.setattr(engine, "_insert_at_points", spy)
        for name in corpus_names():
            engine._integrate_cached.__wrapped__(load_corpus_word(name), 3)
        assert runs and [tokens for tokens in runs if not any(tokens)] == []

    def test_keys_list_components_in_birth_order(self):
        value = evaluate_fragment(parse_word("cup@1;x+@1;cap'@1;cup@1"), 1)
        assert value.components == ((1, 0, 1), (1, 3, 1))
        assert tuple(value.anchors) == ((1, 3, 1),)
        assert value.terms == {((), ()): 1, ((1, 1), ()): Fraction(-1, 2)}

    def test_assoc_pair_insertion_is_invisible(self):
        sites = 0
        for name in corpus_names():
            word = load_corpus_word(name)
            direct = integrate(word, 3).coefficients
            for cut in range(len(word) + 1):
                width = trace_word(word[:cut]).open_points
                for pos in range(1, width + 1):
                    for sign in (1, -1):
                        pair = (Slice("assoc", pos, sign=sign),
                                Slice("assoc", pos, sign=-sign))
                        padded = word[:cut] + pair + word[cut:]
                        try:
                            result = integrate(padded, 3)
                        except WordValidationError:
                            continue
                        sites += 1
                        assert result.coefficients == direct, (name, cut, pos, sign)
        # Pinned so that a legality test that wrongly rejects sites fails.
        assert sites == 102

    def test_deep_words_need_no_recursion(self):
        script = (
            "import sys\n"
            "from kzlab.qtangle.engine import evaluate_fragment, integrate\n"
            "from kzlab.qtangle.words import parse_word\n"
            "sys.setrecursionlimit(120)\n"
            "closed = parse_word('cup@1\\n' * 600 + 'cap@1\\n' * 600)\n"
            "print(integrate(closed, 1).circles)\n"
            "print(len(evaluate_fragment(parse_word('cup@1\\n' * 600), 1)"
            ".anchors))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["600", "600"]

    def test_graft_rejects_mismatched_boundaries(self):
        lower = evaluate_fragment(parse_word("cup@1"), 2)
        # Wrong directions, and a cup born at slice 0 on both sides (the
        # upper fragment evaluated without its slice offset, so it
        # overlaps the lower one).
        for upper in (evaluate_fragment([], 2, initial=((0,), ("start", "start"))),
                      evaluate_fragment(parse_word("cup@1"), 2, lower.spec_out)):
            with pytest.raises(WordValidationError):
                graft(lower, upper)

    def test_graft_needs_the_upper_fragment_where_the_lower_stops(self):
        lower = evaluate_fragment(parse_word("cup@1"), 2)   # span 0..1
        gap = evaluate_fragment(parse_word("cup@1;cap@1;cap@1"), 2,
                                lower.spec_out, slice_offset=6)
        crossed = evaluate_fragment(parse_word("cup@1;x+@1"), 2)   # span 0..2
        closing = parse_word("x-@1;cap@1")
        overlap = evaluate_fragment(closing, 2, crossed.spec_out, slice_offset=1)
        for low, up in ((lower, gap), (crossed, overlap)):
            with pytest.raises(WordValidationError, match="stops"):
                graft(low, up)
        adjacent = evaluate_fragment(closing, 2, crossed.spec_out, slice_offset=2)
        assert graft(crossed, adjacent).span == range(0, 4)
        assert finalize(graft(crossed, adjacent)) == \
            integrate(parse_word("cup@1;x+@1;x-@1;cap@1"), 2)

    def test_boundary_data_is_cached_read_only(self):
        word = parse_word("x+@1 ; cup@1")
        initial = ((0,), (END, START))
        value = evaluate_fragment(word, 2, initial=initial)
        assert value.anchors
        with pytest.raises(TypeError):
            value.anchors[(0, 0, 9)] = ()
        assert evaluate_fragment(word, 2, initial=initial) == value

    def test_list_spec_is_the_tuple_spec(self):
        word = parse_word("x+@1")
        assert evaluate_fragment(word, 2, initial=([0], ["end", "end"])) == \
            evaluate_fragment(word, 2, initial=((0,), ("end", "end")))
        with pytest.raises(WordValidationError, match="bracketing"):
            evaluate_fragment(word, 2, initial=([[0]], ["end", "end"]))

    def test_spec_roles_must_be_start_or_end(self):
        spec = ((0,), ("up", "down"))
        for slices in (parse_word("x+@1"), ()):
            with pytest.raises(WordValidationError, match="roles"):
                evaluate_fragment(slices, 1, initial=spec)
        with pytest.raises(WordValidationError, match="roles"):
            BoundaryState.from_spec(spec)

    @pytest.mark.parametrize("spec", [
        5, (), ((),), ((0,), (END, END), ()), ((0,), 5), (None, (END,))])
    def test_spec_must_be_a_depths_roles_pair(self, spec):
        for slices in (parse_word("x+@1"), ()):
            with pytest.raises(WordValidationError, match="pair"):
                evaluate_fragment(slices, 1, initial=spec)
        with pytest.raises(WordValidationError, match="pair"):
            BoundaryState.from_spec(spec)

    def test_open_fragment_cannot_finalize(self):
        fragment = evaluate_fragment(parse_word("cup@1"), 2)
        with pytest.raises(WordValidationError):
            finalize(fragment)


class TestCrossingBlocks:
    def test_designated_slice_must_be_a_crossing(self):
        with pytest.raises(WordValidationError):
            trace_word(load_corpus_word("hopf+")).crossing(1)
        with pytest.raises(WordValidationError):
            crossing_term(load_corpus_word("hopf+"), 1, 1, 2)

    def test_block_must_be_a_crossing_of_the_fragment(self):
        word = load_corpus_word("trefoil")   # slice 0 is cup@1, 3-5 cross
        for index in (0, len(word)):
            with pytest.raises(WordValidationError, match="not a crossing"):
                evaluate_fragment(word, 2, bare_block=(index, 1))
        lower = evaluate_fragment(word[:4], 2)
        with pytest.raises(WordValidationError, match="not a crossing"):
            evaluate_fragment(word[4:], 2, initial=lower.spec_out,
                              slice_offset=4, bare_block=(3, 1))
        upper = evaluate_fragment(word[4:], 2, initial=lower.spec_out,
                                  slice_offset=4, bare_block=(4, 1))
        assert finalize(graft(lower, upper)).circles == 1

    @pytest.mark.parametrize("kwargs", [
        {"bare_block": (4, -1)}, {"bare_block": (4, 2.0)},
        {"bare_block": (4, True)}, {"bare_block": (True, 1)},
        {"bare_block": (4,)}, {"bare_block": (4, 1, 1)}, {"bare_block": 4},
        {"bare_block": [4, 1]}, {"slice_offset": "x"}, {"slice_offset": 2.5},
        {"slice_offset": -3}, {"slice_offset": True}])
    def test_malformed_block_or_offset_is_refused_before_tracing(self, kwargs):
        word = load_corpus_word("trefoil")   # 0-based 3-5 cross
        evaluate_fragment(word, 2, bare_block=(4, 1), slice_offset=0)
        before = _trace_cached.cache_info()
        with pytest.raises(InputError):
            evaluate_fragment(word, 2, **kwargs)
        after = _trace_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_trefoil_crossing_is_positive(self):
        traced = trace_word(load_corpus_word("trefoil")).crossing(4)
        assert traced.event.geometric_sign == 1

    def test_block_keeps_skeleton(self):
        word = load_corpus_word("trefoil")
        blocked = crossing_term(word, 4, 0, 2)
        assert blocked.circles == 1

    def test_suppressing_one_clasp_crossing(self):
        word = load_corpus_word("hopf+")
        blocked = crossing_term(word, 4, 0, 2)
        link_chord = ChordDiagram([(1,), (1,)])
        assert blocked.coefficient(link_chord) == Fraction(1, 2)

    def test_block_over_the_truncation_is_empty(self):
        word = load_corpus_word("hopf+")
        assert not crossing_term(word, 4, 5, 3).coefficients
        top = crossing_term(word, 4, 3, 3).coefficients
        assert top and all(d.degree == 3 for d in top)
        # A block over the truncation allocates nothing for its chords.
        tracemalloc.start()
        try:
            assert not crossing_term(word, 4, 10 ** 5, 3).coefficients
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_block_inserts_exactly_k_chords(self):
        word = load_corpus_word("hopf+")
        two = crossing_term(word, 4, 2, 3)
        assert all(d.degree >= 2 for d in two.coefficients)

    def test_block_does_not_leak_into_concurrent_integration(self):
        # Identity padding changes each cache key but not the value, so
        # every call below really evaluates.
        word = load_corpus_word("trefoil")
        expected = integrate(word, 3).coefficients
        pad = (Slice("i", 1),)
        stop = threading.Event()

        def blocks():
            j = 0
            while not stop.is_set():
                j += 1
                crossing_term(word + pad * j, 4, 0, 3)

        worker = threading.Thread(target=blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        worker.start()
        try:
            results = [integrate(word + pad * j, 3).coefficients
                       for j in range(1, 41)]
        finally:
            stop.set()
            worker.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        wrong = sum(r != expected for r in results)
        assert wrong == 0, f"{wrong} of {len(results)} integrations disturbed"

    def test_thread_pool_gives_the_serial_answers_from_cold_caches(self):
        jobs = []
        for name in corpus_names():
            word = load_corpus_word(name)
            top = max_truncation(word)
            jobs += [(integrate, word, n) for n in range(top + 1)]
            jobs += [(crossing_term, word, i + 1, 1, top)
                     for i, s in enumerate(word) if s.kind == "x"]
        assert len(jobs) == 55
        # Long braids, given as text and parsed inside the pool.
        for text, crossing in _long_braid_texts():
            jobs += [(lambda text: trace_word(parse_word(text)), text),
                     (lambda text: integrate(parse_word(text), 3), text),
                     (lambda text, c: crossing_term(parse_word(text), c, 1, 3),
                      text, crossing)]
        serial = [f(*args) for f, *args in jobs]
        kzlab.clear_caches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(*job) for job in jobs]
                pooled = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_thread_pool_class_sums_on_one_fresh_result(self):
        # Each thread may be the first to ask for a degree's sums by type;
        # none may read a grouping another thread has not finished.
        word = load_corpus_word("chain3")
        matrices = [S for k in range(4) for S in all_type_matrices(3, k)]
        serial = [class_sum(integrate(word, 3), S) for S in matrices]
        for _ in range(3):
            shared = finalize(evaluate_fragment(word, 3))
            jobs = matrices[::-1] * 8
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    pooled = list(pool.map(lambda S: class_sum(shared, S), jobs))
            finally:
                sys.setswitchinterval(interval)
            assert pooled == serial[::-1] * 8
            assert shared.type_sums(2) is shared.type_sums(2)


def _long_braid_texts():
    """Closed 2-braids of 60 to 120 mixed-sign crossings, closed as the
    benchmark's long braids are, each with a crossing inside its run."""
    rng = random.Random("long braids")
    for n in (61, 90, 120):
        body = [f"x{rng.choice('+-')}@2" for _ in range(n)]
        closure = "cap@2;cap@1" if n % 2 else "assoc+@3;cap@3;cap@1"
        yield ";".join(["cup@1", "cup@3", "assoc-@3", *body, closure]), 4 + n // 2


# == 4. Crossing runs ========================================================


def _fold(word, cutoff, bare_block=None):
    """The word evaluated one slice at a time and grafted back together.

    A one-slice fragment holds no run of crossings to fuse, so this is a
    route to the word's value independent of run fusion."""
    value = evaluate_fragment((), cutoff)
    for i in range(len(word)):
        block = bare_block if bare_block is not None and bare_block[0] == i else None
        piece = evaluate_fragment(word[i:i + 1], cutoff, initial=value.spec_out,
                                  slice_offset=i, bare_block=block)
        value = graft(value, piece)
    return value


@st.composite
def _run_words(draw):
    """(word, truncation, bare block or None) with runs of crossings."""
    if draw(st.booleans()):
        # A closed 2-braid of bench/workloads.braid_word's shape, with
        # mixed signs and identities inside the run.
        body = draw(st.lists(st.sampled_from(("x+@2", "x-@2", "i@2")),
                             min_size=1, max_size=8)
                    .filter(lambda b: any(t.startswith("x") for t in b)))
        if sum(t.startswith("x") for t in body) % 2:
            closure = ["cap@2", "cap@1"]
        elif draw(st.booleans()):
            closure = ["assoc+@3", "cap@3", "cap@1"]
        else:
            closure = ["cap'@2", "cap@1"]
        text = ";".join(["cup@1", "cup@3", "assoc-@3"] + body + closure)
    else:
        # Three open arcs: positions 1 and 3 are both sibling pairs, so
        # consecutive crossings may sit on different pairs of points.
        body = draw(st.lists(st.sampled_from(
            ("x+@1", "x-@1", "x+@3", "x-@3", "i@6")), min_size=1, max_size=8))
        text = ";".join(["cup@1", "cup@1", "cup@3"] + body)
    word = parse_word(text)
    cutoff = draw(st.integers(1, 3))
    crossings = [i for i, s in enumerate(word) if s.kind == "x"]
    block = None
    if crossings and draw(st.booleans()):
        block = (draw(st.sampled_from(crossings)), draw(st.integers(0, cutoff)))
    return text, cutoff, block


class TestCrossingRuns:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_run_words())
    @example(("cup@1;cup@1;cup@3;x+@1;x+@3;x-@1", 2, None))
    @example(("cup@1;cup@3;assoc-@3;x+@2;i@2;x+@2;x-@2;x+@2;cap'@2;cap@1",
              3, (5, 1)))
    def test_fused_runs_agree_with_the_slice_by_slice_graft(self, case):
        text, cutoff, block = case
        word = parse_word(text)
        folded = _fold(word, cutoff, block)
        if folded.anchors:
            direct = evaluate_fragment(word, cutoff, bare_block=block)
            assert folded.terms == direct.terms
        elif block is None:
            assert finalize(folded).coefficients == \
                integrate(word, cutoff).coefficients
        else:
            assert finalize(folded).coefficients == \
                crossing_term(word, block[0] + 1, block[1], cutoff).coefficients

    def test_one_multiply_per_run(self, monkeypatch):
        # Each call records whether it updated the caller's terms in place;
        # place never sees a unit payload.  The associator sign is fixed
        # first, so that its hexagon check is not counted.
        associator_sign()
        calls = []
        multiply = engine._multiply

        def spy(terms, series, place):
            def placed(key, payload):
                assert payload is not None
                return place(key, payload)
            out = multiply(terms, series, placed)
            calls.append(out is terms)
            return out

        monkeypatch.setattr(engine, "_multiply", spy)

        def count(text, cutoff=3, initial=None, bare_block=None):
            calls.clear()
            evaluate_fragment(parse_word(text), cutoff, initial, bare_block=bare_block)
            return len(calls)

        # Two cups, the assoc, one run and two caps, however long the run;
        # only the merging cap fills fresh buckets.
        for n in (1, 5, 9):
            assert count(";".join(["cup@1", "cup@3", "assoc-@3"]
                                  + ["x+@2"] * n + ["cap@2", "cap@1"])) == 6, n
            assert calls == [True] * 4 + [False, True], n
        # Three cups, then one multiply per run with a nonzero sign sum.
        arcs = "cup@1;cup@1;cup@3;"
        assert count(arcs + "x+@1;i@6;x+@1;x-@3;x+@1") == 3 + 3
        assert count(arcs + "x+@1;x+@3;x-@1") == 3 + 3
        assert count(arcs + "x+@1;x-@1;x+@3") == 3 + 1
        assert all(calls)
        # A run whose signs cancel multiplies nothing.
        assert count("x+@1;x-@1", initial=((0,), (END, END))) == 0
        # The run holding a bare block is one kernel too: one multiply,
        # none when k = 0 and its other signs cancel, and a block over
        # the truncation leaves no terms.
        run = arcs + "x+@1;x+@1;x-@1"
        assert count(run, bare_block=(4, 1)) == 3 + 1
        assert calls[-1] is False
        assert count(run, bare_block=(4, 0)) == 3
        assert count(run, bare_block=(4, 5)) == 3 + 1
        assert not evaluate_fragment(parse_word(run), 3, bare_block=(4, 5)).terms

    def test_each_word_is_replayed_once(self, monkeypatch):
        replayed = []
        apply = BoundaryState.apply

        def spy(state, s, index):
            replayed.append(index)
            return apply(state, s, index)

        monkeypatch.setattr(BoundaryState, "apply", spy)
        words = [load_corpus_word(name) for name in corpus_names()]
        words += [parse_word(text) for text, _ in _long_braid_texts()]
        kzlab.clear_caches()
        associator_sign()   # its hexagon check evaluates words of its own
        for word in words:
            cut = len(word) // 2
            _trace_cached.cache_clear()   # corpus words share some halves
            replayed.clear()
            lower = evaluate_fragment(word[:cut], 2)
            assert replayed == list(range(cut))
            replayed.clear()
            evaluate_fragment(word[cut:], 2, initial=lower.spec_out, slice_offset=cut)
            assert replayed == list(range(cut, len(word)))
            replayed.clear()
            trace_word(word)
            assert replayed == list(range(len(word)))
            # Every later question about the word reads the cached trace.
            replayed.clear()
            integrate(word, 2)
            linking_matrix(word)
            for at in (i for i, s in enumerate(word) if s.kind == "x"):
                crossing_term(word, at + 1, 1, 2)
                evaluate_fragment(word, 2, bare_block=(at, 0))
            evaluate_fragment(word[cut:], 2, initial=lower.spec_out, slice_offset=cut)
            assert replayed == []


def _braids():
    """Closed 2-braids of every sign pattern of one to four crossings,
    with an identity inside each run of two or more."""
    for n in range(1, 5):
        for signs in itertools.product("+-", repeat=n):
            body = [f"x{sign}@2" for sign in signs]
            if n > 1:
                body.insert(1, "i@2")
            closure = "cap@2;cap@1" if n % 2 else "assoc+@3;cap@3;cap@1"
            yield parse_word(";".join(["cup@1", "cup@3", "assoc-@3", *body, closure]))


def _run_of(word, at):
    """The crossings of the run holding the crossing word[at], read off
    the slices: those at its position with only identities between."""
    run = [at]
    for step in (-1, 1):
        i = at + step
        while 0 <= i < len(word) and (word[i].kind == "i" or (
                word[i].kind == "x" and word[i].pos == word[at].pos)):
            if word[i].kind == "x":
                run.append(i)
            i += step
    return tuple(sorted(run))


class TestRunKeyedTerms:
    def test_each_term_is_its_own_blocked_fragment(self):
        words = [load_corpus_word(name) for name in corpus_names()]
        words += _braids()
        # Two words that differ only in where their run sits.
        words += [parse_word(f"cup@1;cup@1;cup@3;x+@{p};x+@{p};cap@3;cap@1;cap@1")
                  for p in (1, 3)]
        kzlab.clear_caches()
        shared = {}
        for word in words:
            for at in (i for i, s in enumerate(word) if s.kind == "x"):
                run = _run_of(word, at)
                others = tuple(sorted(word[i].sign for i in run if i != at))
                flipped = flip_crossing(word, at + 1)
                for k in range(5):
                    term = crossing_term(word, at + 1, k, 3)
                    own = finalize(evaluate_fragment(word, 3, bare_block=(at, k)))
                    assert term.coefficients == own.coefficients, (word, at, k)
                    assert shared.setdefault((word, run, others, k), term) is term
                    assert crossing_term(flipped, at + 1, k, 3) is term
        # Some crossings found their key held already, so sharing was checked.
        assert len(shared) < sum(s.kind == "x" for word in words for s in word) * 5


# == 5. Records ==============================================================


def _records():
    """One of each record the library returns, by name."""
    word = load_corpus_word("hopf+")
    trace = trace_word(word)
    events = {type(event).__name__: event for _, event in trace.events}
    assert sorted(events) == ["AssocEvent", "CapEvent", "CrossEvent", "CupEvent"]
    return {**events, "TracedCrossing": trace.crossings[0], "WordTrace": trace,
            "FragmentValue": evaluate_fragment(word, 1),
            "TangleResult": integrate(word, 2),
            "VerificationReport": verify_theorem(word, ((0, 1), (1, 0)), 2),
            "SectionResult": SectionResult("pentagon", True, 3, "held")}


class TestRecords:
    def test_every_record_refuses_assignment(self):
        records = _records()
        assert len(records) == 10
        for name, record in records.items():
            assert type(record).__name__ == name and isinstance(record, tuple)
            for attribute in (record._fields[0], "note", "_type_sums"):
                with pytest.raises(AttributeError):
                    setattr(record, attribute, None)
            assert record._replace() == record

    def test_records_store_no_derived_field(self):
        # A report's verdict and a cap's closing are read off their own
        # fields, and no record holds a clock.
        records = _records()
        assert records["VerificationReport"]._fields == (
            "word", "S", "N", "lhs", "rhs", "identity", "k")
        assert records["SectionResult"]._fields == (
            "name", "passed", "checks", "detail")
        assert records["CapEvent"]._fields == ("primed", "ending", "starting")
        fragment = records["FragmentValue"]
        assert "cutoff" not in fragment._fields
        assert fragment.cutoff == len(fragment.graded) - 1 == 1
        report = records["VerificationReport"]
        assert report.passed and not report._replace(rhs=report.lhs + 1).passed
        caps = [event for name in corpus_names()
                for _, event in trace_word(load_corpus_word(name)).events
                if type(event).__name__ == "CapEvent"]
        assert {cap.closes for cap in caps} == {True, False}
        assert all(cap.closes == (cap.starting == cap.ending) for cap in caps)
        with pytest.raises(AttributeError):
            caps[0].closes = False

    def test_type_sums_are_kept_outside_equality_repr_and_hash(self):
        word = load_corpus_word("chain3")
        filled, fresh = (finalize(evaluate_fragment(word, 3)) for _ in range(2))
        sums = filled.type_sums(2)
        assert sums and filled.type_sums(2) is sums
        assert filled == fresh == integrate(word, 3)
        assert repr(filled) == repr(fresh)
        assert repr(filled).startswith("TangleResult(circles=3, truncation=3, "
                                       "coefficients=mappingproxy({")
        assert "_type_sums" not in repr(filled)
        for result in (filled, fresh):
            with pytest.raises(TypeError):
                hash(result)
        # A relabeled result starts with no groupings of its own.
        moved = filled.relabeled((3, 1, 2))
        assert type(moved) is engine.TangleResult and vars(moved) == {}


# == 6. Integer scaling ======================================================


def _primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, p))]


def _kernel_coefficients(cutoff: int) -> list[tuple[int, Fraction]]:
    """(degree, coefficient) of every kernel at this truncation, listed
    apart from the engine: arcs, crossing runs up to |G| = 3, the
    associator weight."""
    out = [(len(word) // 2, c) for word, c in sqrt_unknot_series(cutoff).items()]
    out += [(k, Fraction(g) ** k / (2 ** k * math.factorial(k)))
            for g in (-3, -2, -1, 1, 2, 3) for k in range(cutoff + 1)]
    return out + [(2, Fraction(1, 24))]


class TestScale:
    def test_scale_makes_every_kernel_coefficient_integral(self, monkeypatch):
        for cutoff in range(5):
            scale = engine._kernel_scale(cutoff)
            assert scale == (120 if cutoff == 4 else 12)
            coefficients = _kernel_coefficients(cutoff)
            assert all((c * scale ** a).denominator == 1 for a, c in coefficients)
            # The least such scale: dropping any prime breaks a coefficient.
            for p in _primes(scale):
                assert any((c * (scale // p) ** a).denominator != 1
                           for a, c in coefficients), (cutoff, p)
        # Every coefficient the kernels of a word multiply by is an int,
        # with and without rebracketings, at every supported truncation.
        seen = []
        multiply = engine._multiply

        def spy(terms, series, *args, **kwargs):
            seen.extend(c for pairs in series for _, c in pairs)
            return multiply(terms, series, *args, **kwargs)

        monkeypatch.setattr(engine, "_multiply", spy)
        for name in ("trefoil", "chain3", "u1", "unlink2"):
            word = load_corpus_word(name)
            for cutoff in range(max_truncation(word) + 1):
                seen.clear()
                crossings = [i for i, s in enumerate(word) if s.kind == "x"]
                for block in [None] + [(i, 1) for i in crossings[:1]]:
                    evaluate_fragment(word, cutoff, bare_block=block)
                assert seen and all(type(c) is int for c in seen), (name, cutoff)

    @pytest.mark.parametrize("cutoff", range(5))
    def test_a_scale_missing_a_prime_raises(self, monkeypatch, cutoff):
        # The trefoil has cups, caps, a crossing run and rebracketings;
        # u1 has no rebracketing, so it reaches truncation 4.
        word = load_corpus_word("trefoil" if cutoff < 4 else "u1")
        scale = engine._kernel_scale(cutoff)
        for p in _primes(scale):
            monkeypatch.setattr(engine, "_kernel_scale", lambda n: scale // p)
            with pytest.raises(ArithmeticError, match="not an integer"):
                evaluate_fragment(word, cutoff)

    def test_hand_built_fragments_must_be_graded_by_chord_count(self):
        # Only evaluate_fragment and graft make a fragment's graded: any
        # other value in its slot, even the list of dicts an engine
        # fragment's buckets copy into, and anything that is no fragment,
        # is refused with InputError before a field is read.
        word = parse_word("x+@1")
        lower = evaluate_fragment(word, 2, initial=((0,), (END, END)))
        upper = evaluate_fragment(word, 2, initial=lower.spec_out,
                                  slice_offset=1)
        closed = evaluate_fragment(load_corpus_word("trefoil"), 2)
        for fragment, call in ((lower, lambda wrong: graft(wrong, upper)),
                               (upper, lambda wrong: graft(lower, wrong)),
                               (closed, finalize)):
            graded = [dict(bucket) for bucket in fragment.graded]
            assert graded[1]
            for bad in (graded, fragment.terms,            # a copy, flat
                        graded[:-1], graded + [{}],        # a bucket short, over
                        [graded[0], {}, graded[1]],        # degree-1 keys in bucket 2
                        [graded[0], {**graded[1], **graded[2]}, {}],
                        [{5: 1}, {}, {}], [graded[0], 7, {}]):
                with pytest.raises(InputError, match="evaluate_fragment or graft"):
                    call(fragment._replace(graded=bad))
        # A string-labelled key, which graft would add an int to.
        labelled = upper._replace(graded=[{((), ()): 1}, {(("a",), ("a",)): 12}, {}])
        # Engine-made parts put together by hand: a fragment is vouched
        # for whole, so any field not made with its buckets is refused.
        u1 = evaluate_fragment(load_corpus_word("u1"), 4)
        hopf = load_corpus_word("hopf+")
        middle = len(hopf) // 2
        below = evaluate_fragment(hopf[:middle], 2)
        above = evaluate_fragment(hopf[middle:], 2, initial=below.spec_out,
                                  slice_offset=middle)
        assert graft(below, above).cutoff == 2
        for call in (lambda: graft(lower, labelled), lambda: graft(1, 2),
                     lambda: finalize(None),
                     lambda: finalize(u1._replace(components=())),
                     lambda: graft(below, above._replace(graded=below.graded)),
                     lambda: graft(below._replace(leaves=below.leaves[::-1]), above)):
            with pytest.raises(InputError, match="evaluate_fragment or graft"):
                call()
        # The cutoff is read off the buckets, so it cannot be replaced.
        assert u1.cutoff == len(u1.graded) - 1 == 4
        with pytest.raises(ValueError, match="cutoff"):
            u1._replace(cutoff=3)
        # The engine's buckets and anchors are read-only, so no field
        # changes in place after the engine made it.
        for fragment in (lower, upper, graft(lower, upper), closed,
                         graft(below, above)):
            for bucket in fragment.graded:
                with pytest.raises(TypeError):
                    bucket[((),)] = 1
            with pytest.raises(TypeError):
                fragment.anchors[(0, 0, 9)] = ()

    def test_no_int_leaves_the_engine(self):
        def fractions(values):
            return all(type(c) is Fraction for c in values)

        for name in corpus_names():
            word = load_corpus_word(name)
            middle = len(word) // 2
            for cutoff in range(max_truncation(word) + 1):
                value = evaluate_fragment(word, cutoff)
                assert fractions(value.terms.values()), (name, cutoff)
                lower = evaluate_fragment(word[:middle], cutoff)
                upper = evaluate_fragment(word[middle:], cutoff,
                                          initial=lower.spec_out,
                                          slice_offset=middle)
                for fragment in (lower, upper, graft(lower, upper)):
                    assert fractions(fragment.terms.values()), (name, cutoff)
                assert fractions(integrate(word, cutoff).coefficients.values())

    def test_clear_caches_empties_every_library_cache(self):
        for name in corpus_names():
            integrate(load_corpus_word(name), 2)
        hexagon_identity()
        kzlab.clear_caches()
        named = [engine._integrate_cached, _trace_cached, engine._kernel_scale,
                 engine.associator_sign, engine._strand_reducer,
                 strand_monomials, sqrt_unknot_series, unknot_series_closed,
                 _circle_code]
        found = [value for module_name, module in list(sys.modules.items())
                 if module_name.startswith("kzlab")
                 for value in vars(module).values()
                 if hasattr(value, "cache_clear")]
        assert all(cache in found for cache in named)
        assert [cache for cache in found if cache.cache_info().currsize] == []

    def test_word_caches_keep_at_most_their_bound(self):
        # One kinked unknot per sign pattern, more words than either cache
        # keeps; an odd number of kinks closes with the reversed cap.
        bound = engine._integrate_cached.cache_parameters()["maxsize"]
        assert bound == _trace_cached.cache_parameters()["maxsize"] == 1024
        width = (bound + 50).bit_length()
        cap = "cap'@1" if width % 2 else "cap@1"
        words = [parse_word("cup@1\n" + "".join(
                     "x+@1\n" if n >> i & 1 else "x-@1\n" for i in range(width))
                     + cap) for n in range(bound + 50)]
        kzlab.clear_caches()
        first = [integrate(word, 1).coefficients for word in words[:3]]
        for word in words:
            integrate(word, 1)
            assert engine._integrate_cached.cache_info().currsize <= bound
            assert _trace_cached.cache_info().currsize <= bound
        # The first words were evicted, and come back with the same series.
        assert [integrate(word, 1).coefficients for word in words[:3]] == first
        assert engine._integrate_cached.cache_info().currsize == bound

    def test_type_family_cache_keeps_at_most_its_bound(self):
        # Unit diagonals on up to 50 circles, each with at most one zero:
        # more distinct S than the word caches' bound.
        matrices = [[[int(i == j != zero) for j in range(m)] for i in range(m)]
                    for m in range(1, 51) for zero in range(m + 1)]
        assert len(matrices) > 1024
        kzlab.clear_caches()
        for S in matrices:
            assert len(enumerate_by_matrix(S)) == 1
            assert enumerate_by_matrix.cache_info().currsize <= 1024
        assert enumerate_by_matrix.cache_info().currsize == 1024


_HOPF = load_corpus_word("hopf+")
_HOPF_S = ((0, 1), (1, 0))

# (name, the call on ints, the same call with an equal bool or float).
_EQUAL_KEYS = [
    ("integrate", lambda: integrate(_HOPF, 1), lambda: integrate(_HOPF, True)),
    ("verify_theorem", lambda: verify_theorem(_HOPF, _HOPF_S, 1),
     lambda: verify_theorem(_HOPF, _HOPF_S, True)),
    ("degree_sum_identity", lambda: degree_sum_identity(_HOPF, 1, 2),
     lambda: degree_sum_identity(_HOPF, True, 2)),
    ("crossing_term", lambda: crossing_term(_HOPF, 4, 1, 2),
     lambda: crossing_term(_HOPF, 4, True, 2)),
    ("crossing_term_index", lambda: crossing_term(_HOPF, 4, 1, 2),
     lambda: crossing_term(_HOPF, 4.0, 1, 2)),
    ("all_type_matrices", lambda: all_type_matrices(2, 1),
     lambda: all_type_matrices(2.0, 1)),
    ("enumerate_by_degree", lambda: enumerate_by_degree(2, 2),
     lambda: enumerate_by_degree(2.0, 2)),
    ("four_t_relators", lambda: four_t_relators(2, 2),
     lambda: four_t_relators(2.0, 2)),
    ("unknot_series_closed", lambda: unknot_series_closed(2),
     lambda: unknot_series_closed(2.0)),
    ("sqrt_unknot_series", lambda: sqrt_unknot_series(1),
     lambda: sqrt_unknot_series(True)),
    ("wheel_attachment_sum", lambda: wheel_attachment_sum((2,)),
     lambda: wheel_attachment_sum((2.0,))),
    ("wheel_coefficients", lambda: wheel_coefficients(2),
     lambda: wheel_coefficients(2.0)),
    ("strand_monomials", lambda: strand_monomials(2, 1),
     lambda: strand_monomials(True, 1)),
]


@pytest.mark.parametrize("name, on_ints, on_equal",
                         _EQUAL_KEYS, ids=[case[0] for case in _EQUAL_KEYS])
def test_answers_do_not_depend_on_cache_state(name, on_ints, on_equal):
    kzlab.clear_caches()
    with pytest.raises(InputError):
        on_equal()
    on_ints()
    with pytest.raises(InputError):
        on_equal()


# == 7. Work that changes no term ============================================


def _finalize_by_diagram(fragment):
    """finalize as first written, the oracle: one ChordDiagram per key,
    each added to a Fraction(0) default, dropped at zero."""
    out = {}
    for key, coeff in fragment.terms.items():
        diagram = ChordDiagram(key)
        new = out.get(diagram, Fraction(0)) + coeff
        if new:
            out[diagram] = new
        else:
            out.pop(diagram, None)
    return out


def _multiply_fresh(terms, series, place):
    """_multiply as first written, the oracle: every product, the unit's
    copies included, into fresh buckets, lowest degree first."""
    cutoff = len(terms) - 1
    out = [{} for _ in terms]
    for d, bucket in enumerate(terms):
        for key, coeff in bucket.items():
            for a, pairs in enumerate(series[:cutoff - d + 1]):
                for payload, c in pairs:
                    product = key if payload is None else _relabel(place(key, payload))
                    value = out[d + a].get(product, 0) + coeff * c
                    if value:
                        out[d + a][product] = value
                    else:
                        out[d + a].pop(product, None)
    return out


def _closed_words():
    """Every corpus word, with the truncations it supports, then nests
    and closed 2-braids of the benchmark families' shapes."""
    for name in corpus_names():
        word = load_corpus_word(name)
        for cutoff in range(1, max_truncation(word) + 1):
            yield name, word, cutoff
    for kinks in ("+", "0+-", "-0+0", "+0-0+", "0-+0-+"):
        closures = [f"x{sign}@1;cap'@1" if sign in "+-" else "cap@1"
                    for sign in kinks]
        text = ";".join(["cup@1"] * len(kinks) + closures)
        yield text, parse_word(text), 4
    for signs, closure in (("+-+", "cap@2;cap@1"), ("++-+", "cap'@2;cap@1"),
                           ("-+--++", "assoc+@3;cap@3;cap@1")):
        text = ";".join(["cup@1", "cup@3", "assoc-@3"]
                        + [f"x{sign}@2" for sign in signs] + [closure])
        yield text, parse_word(text), 3


_CLOSED_WORDS = list(_closed_words())


# A small key space, so that products land on keys already present and
# may cancel them; the payloads end one chord on word 0 or across both.
_KEYS = (((), ()), ((1, 1), ()), ((), (1, 1)), ((1,), (1,)),
         ((1, 1, 2, 2), ()), ((1, 2, 1, 2), ()), ((1, 2), (1, 2)))
_CHORDS = (((0, END, (1000,)), (0, END, (1000,))),
           ((0, START, (1000,)), (1, END, (1000,))),
           ((1, START, (1000, 1000)),))


@st.composite
def _graded_products(draw):
    """(terms, series): graded int terms on _KEYS and a series whose
    degree-0 part is the unit alone, or not."""
    cutoff = draw(st.integers(1, 4))
    terms = [{} for _ in range(cutoff + 1)]
    for key in draw(st.sets(st.sampled_from(_KEYS), min_size=1)):
        d = sum(map(len, key)) // 2
        if d <= cutoff:
            terms[d][key] = draw(st.sampled_from((-3, -1, 1, 2)))
    zero = draw(st.sampled_from(([(None, 1)], [(None, 2)],
                                 [(None, 1), (((0, END, ()),), -1)], [])))
    series = [zero] + [
        [(draw(st.sampled_from(_CHORDS)), draw(st.sampled_from((-1, 1, 3))))
         for _ in range(draw(st.integers(0, 2)))]
        for _ in range(cutoff)]
    return terms, series


class TestWorkSaved:
    @pytest.mark.parametrize("name, word, cutoff", _CLOSED_WORDS,
                             ids=[f"{name[:24]}-{n}" for name, _, n in _CLOSED_WORDS])
    def test_finalize_agrees_with_one_diagram_per_key(self, name, word, cutoff):
        fragment = evaluate_fragment(word, cutoff)
        expected = _finalize_by_diagram(fragment)
        got = finalize(fragment).coefficients
        # The same diagrams, coefficients and order, all Fractions.
        assert list(got.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in got.values())

    def test_a_unit_only_series_returns_the_callers_buckets(self):
        # Below truncation 2 an arc is its unit alone; so is a run whose
        # chords the truncation leaves no room for.
        def place(key, payload):
            raise AssertionError("a unit places no word")

        terms = [{((), ()): 12}, {((1,), (1,)): -3}, {}]
        items = [list(bucket.items()) for bucket in terms]
        buckets = list(terms)
        for series in ([[(None, 1)]], [[(None, 1)], [], []],
                       [[(None, 1)], [], [], [((0, END, (1000, 1000)), 5)]]):
            assert engine._multiply(terms, series, place) is terms
            assert all(map(operator.is_, terms, buckets))
            assert [list(bucket.items()) for bucket in terms] == items

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_graded_products())
    def test_multiply_in_place_agrees_with_fresh_buckets(self, case):
        terms, series = case
        expected = _multiply_fresh(terms, series, engine._insert_at_points)
        buckets = list(terms)
        got = engine._multiply(terms, series, engine._insert_at_points)
        assert got == expected
        # The unit alone at degree 0 updates the caller's buckets.
        in_place = series[0] == [(None, 1)]
        assert (got is terms and all(map(operator.is_, got, buckets))) == in_place

    def test_graft_and_evaluation_leave_their_inputs_alone(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            middle = len(word) // 2
            for cutoff in (2, 3):
                first = evaluate_fragment(word, cutoff)
                assert evaluate_fragment(word, cutoff).terms == first.terms
                lower = evaluate_fragment(word[:middle], cutoff)
                upper = evaluate_fragment(word[middle:], cutoff,
                                          initial=lower.spec_out,
                                          slice_offset=middle)
                kept = (dict(lower.terms), dict(upper.terms))
                # graft multiplies the callers' own buckets: each stays the
                # same object, with the same items in the same order.
                buckets = [(fragment.graded, list(fragment.graded),
                            [list(bucket.items()) for bucket in fragment.graded])
                           for fragment in (lower, upper)]
                graft(lower, upper)
                assert (lower.terms, upper.terms) == kept, (name, cutoff)
                assert list(lower.terms.items()) == list(kept[0].items())
                for fragment, (graded, same, items) in zip((lower, upper), buckets):
                    assert fragment.graded is graded, (name, cutoff)
                    assert len(graded) == len(same), (name, cutoff)
                    assert all(map(operator.is_, graded, same)), (name, cutoff)
                    assert [list(bucket.items()) for bucket in graded] == items

    def test_finalize_canonicalises_each_key_once(self, monkeypatch):
        codes = []
        inits = []
        search = engine._least_code
        init = ChordDiagram.__init__

        def code_spy(words):
            codes.append(words)
            return search(words)

        def init_spy(self, words):
            inits.append(words)
            init(self, words)

        for name, word, cutoff in _CLOSED_WORDS:
            fragment = evaluate_fragment(word, cutoff)
            codes.clear()
            inits.clear()
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_least_code", code_spy)
                patch.setattr(ChordDiagram, "__init__", init_spy)
                finalize(fragment)
            assert sorted(codes) == sorted(fragment.terms), name
            assert inits == [], name


def _fragments(word, cutoff):
    """The word's fragment, and at every split its two halves and their
    graft."""
    yield evaluate_fragment(word, cutoff)
    for at in range(1, len(word)):
        lower = evaluate_fragment(word[:at], cutoff)
        upper = evaluate_fragment(word[at:], cutoff, initial=lower.spec_out,
                                  slice_offset=at)
        yield from (lower, upper, graft(lower, upper))


class TestClosing:
    @pytest.mark.parametrize("name, word, cutoff", _CLOSED_WORDS,
                             ids=[f"{name[:24]}-{n}" for name, _, n in _CLOSED_WORDS])
    def test_every_engine_key_is_named_by_first_appearance(self, name, word, cutoff):
        # The property integrate trusts when it hands keys to the search
        # unchecked; the generated words run at every truncation below
        # the one they are listed at, too.
        for n in range(1, cutoff + 1) if name not in corpus_names() else (cutoff,):
            for fragment in _fragments(word, n):
                assert all(_relabel(key) == key for key in fragment.terms), (name, n)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.one_of(
        st.lists(st.sampled_from(("", "+", "-")), min_size=1, max_size=8).map(
            lambda kinks: (";".join(["cup@1"] * len(kinks) + [
                f"x{sign}@1;cap'@1" if sign else "cap@1" for sign in kinks]), 4)),
        st.lists(st.sampled_from("+-"), min_size=1, max_size=8).map(
            lambda signs: (";".join(["cup@1", "cup@3", "assoc-@3"]
                                    + [f"x{sign}@2" for sign in signs]
                                    + ["cap@2;cap@1" if len(signs) % 2
                                       else "assoc+@3;cap@3;cap@1"]), 3))))
    def test_generated_keys_are_named_by_first_appearance(self, case):
        text, cutoff = case
        word = parse_word(text)
        for n in range(1, cutoff + 1):
            at = len(word) // 2
            lower = evaluate_fragment(word[:at], n)
            upper = evaluate_fragment(word[at:], n, initial=lower.spec_out,
                                      slice_offset=at)
            for fragment in (evaluate_fragment(word, n), lower, upper,
                             graft(lower, upper)):
                assert all(_relabel(key) == key for key in fragment.terms), (text, n)

    @pytest.mark.parametrize("name, word, cutoff", _CLOSED_WORDS,
                             ids=[f"{name[:24]}-{n}" for name, _, n in _CLOSED_WORDS])
    def test_integrate_closes_as_finalize_does(self, name, word, cutoff):
        got = engine._integrate_cached.__wrapped__(word, cutoff).coefficients
        expected = finalize(evaluate_fragment(word, cutoff)).coefficients
        # The same diagrams, coefficients and order, all Fractions.
        assert list(got.items()) == list(expected.items())
        assert all(type(c) is Fraction for c in got.values())

    def test_integrate_and_crossing_term_close_through_finalize(self, monkeypatch):
        # The engine closes in one place: each word integrate or
        # crossing_term has not cached is one finalize of its fragment.
        closed = []
        close = engine.finalize

        def spy(fragment):
            closed.append(fragment)
            return close(fragment)

        word = load_corpus_word("trefoil")
        at = next(i for i, s in enumerate(word) if s.kind == "x")
        kzlab.clear_caches()
        monkeypatch.setattr(engine, "finalize", spy)
        results = [integrate(word, 3), crossing_term(word, at + 1, 1, 3),
                   integrate(word, 3)]
        assert [f.terms for f in closed] == [
            evaluate_fragment(word, 3).terms,
            evaluate_fragment(word, 3, bare_block=(at, 1)).terms]
        assert results[0] is results[2]
        assert results[:2] == [close(fragment) for fragment in closed]

    def test_integrate_closes_its_own_ints(self, monkeypatch):
        # One search per key, one Fraction per diagram, made in finalize's
        # closing loop, and neither canonical_code nor the flat series.
        def refused(*args):
            raise AssertionError("integrate checked or flattened its own keys")

        searched = []
        search = engine._least_code

        def search_spy(key):
            searched.append(key)
            return search(key)

        for name, word, cutoff in _CLOSED_WORDS:
            graded = evaluate_fragment(word, cutoff).graded
            searched.clear()
            with monkeypatch.context() as patch:
                divided = _spy_on_fractions(patch)
                patch.setattr(diagrams, "canonical_code", refused)
                patch.setattr(engine.FragmentValue, "terms", property(refused))
                patch.setattr(engine, "_least_code", search_spy)
                result = engine._integrate_cached.__wrapped__(word, cutoff)
            assert sorted(searched) == sorted(key for bucket in graded for key in bucket)
            assert divided.count("finalize") == len(result.coefficients), name
            assert all(type(c) is Fraction for c in result.coefficients.values())

    def test_finalize_closes_the_fragment_ints(self, monkeypatch):
        # One search per key, one Fraction per diagram, made in the
        # closing loop, no canonical_code and no Fraction added to another.
        def refused(*args):
            raise AssertionError("finalize checked keys or added Fractions")

        codes = []
        search = engine._least_code

        def code_spy(key):
            codes.append(key)
            return search(key)

        for name, word, cutoff in _CLOSED_WORDS:
            fragment = evaluate_fragment(word, cutoff)
            codes.clear()
            with monkeypatch.context() as patch:
                divided = _spy_on_fractions(patch)
                patch.setattr(engine, "_least_code", code_spy)
                patch.setattr(diagrams, "canonical_code", refused)
                patch.setattr(Fraction, "__add__", refused)
                patch.setattr(Fraction, "__radd__", refused)
                result = finalize(fragment)
            assert sorted(codes) == sorted(key for bucket in fragment.graded
                                           for key in bucket), name
            assert divided == ["finalize"] * len(result.coefficients), name
            assert all(type(c) is Fraction for c in result.coefficients.values())


def _spy_on_fractions(patch):
    """Record the function that makes each engine Fraction."""
    made = []

    def fraction_spy(*args):
        made.append(sys._getframe(1).f_code.co_name)
        return Fraction(*args)

    patch.setattr(engine, "Fraction", fraction_spy)
    return made


# evaluate_fragment(word, N).terms, then the word's middle-split halves
# and their graft, for every corpus word at every supported N, as the
# repr of their items; taken while fragments still stored the flat terms.
TERMS_SHA256 = \
    "4f5aef96b8dcc3d9190b85f785506c764188181645281f80e8b64261aa29139d"


def test_fragment_terms_are_pinned():
    out = []
    for name in corpus_names():
        word = load_corpus_word(name)
        middle = len(word) // 2
        for cutoff in range(max_truncation(word) + 1):
            lower = evaluate_fragment(word[:middle], cutoff)
            upper = evaluate_fragment(word[middle:], cutoff, initial=lower.spec_out,
                                      slice_offset=middle)
            for fragment in (evaluate_fragment(word, cutoff), lower, upper,
                             graft(lower, upper)):
                out.append(repr(list(fragment.terms.items())))
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest() == TERMS_SHA256


# crossing_term(word, c, k, N) for every corpus word, every N it supports,
# every crossing c and every k <= N + 1, as the repr of its (code,
# coefficient string) items; taken while the run holding the bare block
# was split into a left run, the block and a right run.
CROSSING_TERMS_SHA256 = \
    "3c79f48f2d9ef7ba9980b522ad459c1a31e4c7e826c8f508efdded0115b8a2bf"


def test_crossing_terms_are_pinned():
    out = []
    for name in corpus_names():
        word = load_corpus_word(name)
        for cutoff in range(max_truncation(word) + 1):
            for traced in trace_word(word).crossings:
                for k in range(cutoff + 2):
                    result = crossing_term(word, traced.slice, k, cutoff)
                    out.append(repr([(d.code, str(c))
                                     for d, c in result.coefficients.items()]))
    assert len(out) == 230
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest() == CROSSING_TERMS_SHA256

def _generated_words():
    """Kinked nests of 1 to 150 circles at N = 1 and 2, and closed 2-braids
    of 1 to 41 crossings with each closure of the benchmark's braids (the
    odd one merges at cap@2) at N = 1 to 3."""
    rng = random.Random("wide and narrow words")
    for m in (1, 2, 7, 30, 90, 150):
        kinks = [rng.choice("+-") if rng.random() < 0.25 else "0" for _ in range(m)]
        closures = [f"x{sign}@1;cap'@1" if sign != "0" else "cap@1" for sign in kinks]
        text = ";".join(["cup@1"] * m + closures)
        for cutoff in (1, 2):
            yield text, cutoff
    for n in (1, 2, 5, 8, 13, 40):
        for closure in ("cap@2;cap@1", "cap'@2;cap@1", "assoc+@3;cap@3;cap@1"):
            count = n if n % 2 == (closure == "cap@2;cap@1") else n + 1
            signs = [rng.choice("+-") for _ in range(count)]
            text = ";".join(["cup@1", "cup@3", "assoc-@3"]
                            + [f"x{sign}@2" for sign in signs] + [closure])
            for cutoff in (1, 2, 3):
                yield text, cutoff


# SHA-256 of "\n".join of repr(list(fragment.terms.items())) for each
# word of _generated_words() and the upper half of its middle split, taken
# while every cup and cap rebuilt its arc kernel and components were found
# by a list scan.  An upper half starts from anchored components, so its
# caps merge slots with later ones still open.
GENERATED_TERMS_SHA256 = \
    "6fb379c2a125d1840676d9b65b3f173cde35a0be578dc2c3af9c6ea16c97d1f0"


def test_generated_fragment_terms_are_pinned():
    out = []
    for text, cutoff in _generated_words():
        word = parse_word(text)
        middle = len(word) // 2
        lower = evaluate_fragment(word[:middle], cutoff)
        for fragment in (evaluate_fragment(word, cutoff),
                         evaluate_fragment(word[middle:], cutoff, initial=lower.spec_out,
                                           slice_offset=middle)):
            out.append(repr(list(fragment.terms.items())))
    assert len(out) == 132
    text = "\n".join(out)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATED_TERMS_SHA256

