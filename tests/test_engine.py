"""
Unit tests for fragment values, the associator, and word integration.

Core claims:
    - Crossing values expand as exp of half the geometric sign times a
      chord: coefficients 1, 1/2, 1/8, 1/48 for a positive crossing
    - Reversing a strand reads its chords backwards and negates
      odd-endpoint terms
    - Grafting stacks chords in slice order and needs matching directions
    - The rebracketing value on three down strands is the frozen
      degree-2 commutator with weight 1/24, cabled over block leaves
    - The pentagon holds exactly and the bracketed braid relation holds
      modulo 4T at degrees 2 and 3; the latter pins a unique associator
      sign, the former holds for both
    - Strand monomials count 3 at (2 strands, 1 chord) and linear words
      at one strand; a degree-0 strand series is its own residual
    - Integrating the bare unknot word reproduces the closed unknot
      series exactly at truncations 3 and 4
    - Fragment grafting agrees with direct integration at every split
      of every corpus word, at truncation 3 and at the word's maximum,
      and at every three-way split in both groupings
    - Grafting word[s:a] and word[a:b] gives the boundary, anchors,
      members and component orders of evaluating word[s:b] directly, and
      its terms too when no new circle closes, from the empty boundary
      and from the anchored boundary mid-word
    - No kernel forms a term over the truncation: on a kinked 6-circle
      unlink at degree 4 every key renamed holds at most 8 endpoints,
      and the count of keys renamed is pinned (products with no new
      chord, except at a cap, are not renamed)
    - Inserting a cancelling assoc+@p;assoc-@p pair (either order) at any
      legal site of a corpus word leaves its value unchanged
    - Words and fragments nesting 600 levels deep evaluate with the
      recursion limit at 120: the boundary needs no recursion
    - A fragment's anchors and members come from the cached trace: they
      are read-only, a list spec evaluates as the tuple spec, and a
      spec whose depths are not integers is refused
    - Bare-block substitution keeps the skeleton and suppresses only the
      designated crossing's chords; a block over the truncation leaves
      an empty series, also while another thread integrates;
      a block index that is not a crossing slice of the fragment is an
      error
    - Cached series are read-only: a caller cannot change what a later
      call returns
    - The strand 4T span has the rank of the full relator matrix
    - A run of crossings on one pair of strand points, fused into one
      exponential, agrees with grafting the word's one-slice fragments,
      on closed 2-braids with mixed signs and identities inside the run,
      on open words with runs at two sibling pairs, and with a bare
      block inside a run; each run is one multiply, and a run whose
      signs cancel is none
    - Truncation limits: 3 with rebracketings, 4 without
"""

import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kzlab.algebra import sqrt_unknot_series, unknot_series_closed
from kzlab.diagrams import ChordDiagram, _relabel, four_t_moves
from kzlab.errors import TruncationUnsupportedError, WordValidationError
from kzlab.qtangle.corpus import corpus_names, load_corpus_word
from kzlab.qtangle import engine
from kzlab.qtangle.engine import (
    _PENTAGON,
    _hexagon_words,
    _strand_reducer,
    associator_sign,
    crossing_info,
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
from kzlab.qtangle.words import END, START, Slice, parse_word, trace_word


# -- Helpers -----------------------------------------------------------------


def _ladder(k: int):
    rungs = tuple(range(1, k + 1))
    return ((rungs, rungs), ())


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
        assert updown == {((a, b[::-1]), closed): c * (-1) ** len(b)
                          for ((a, b), closed), c in upup.items()}

    def test_graft_orders_chords(self):
        word = parse_word("x+@1")
        lower = evaluate_fragment(word, 2, initial=((0,), (END, END)))
        upper = evaluate_fragment(word, 2, initial=lower.spec_out,
                                  slice_offset=1)
        twist = graft(lower, upper).terms
        assert twist[(((1, 2), (1, 2)), ())] == Fraction(1, 2)
        assert (((1, 2), (2, 1)), ()) not in twist

    def test_graft_requires_same_directions(self):
        lower = evaluate_fragment([], 2, initial=((0,), (END, END)))
        upper = evaluate_fragment([], 2, initial=((0,), (END, START)))
        with pytest.raises(WordValidationError):
            graft(lower, upper)


# == 2. The associator =======================================================


class TestAssociator:
    def test_value_on_three_down_strands(self):
        sign = associator_sign()
        ab, ba = (((1,), (2, 1), (2,)), ()), (((1,), (1, 2), (2,)), ())
        down = (START,) * 3
        assert _value("assoc+@2", (1, 0), down, 2).terms == {
            (((), (), ()), ()): 1, ab: Fraction(sign, 24),
            ba: Fraction(-sign, 24)}
        inverse = _value("assoc-@2", (0, 1), down, 2).terms
        assert inverse[ab] == Fraction(-sign, 24)

    def test_assoc_cables_over_block_leaves(self):
        sign = associator_sign()
        terms = _value("assoc+@3", (2, 1, 0), (START,) * 4, 2).terms
        assert terms == {
            (((), (), (), ()), ()): 1,
            (((1,), (), (2, 1), (2,)), ()): Fraction(sign, 24),
            (((), (1,), (2, 1), (2,)), ()): Fraction(sign, 24),
            (((1,), (), (1, 2), (2,)), ()): Fraction(-sign, 24),
            (((), (1,), (1, 2), (2,)), ()): Fraction(-sign, 24),
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
        arcs = {open_seqs[0]: c for (open_seqs, _), c in plain.items()}
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
        moved = integrate(load_corpus_word("hopf+"), 2, relabel=(2, 1))
        with pytest.raises(TypeError):
            moved.coefficients[ChordDiagram([(), ()])] = Fraction(0)

    def test_relabel_roundtrip(self):
        word = load_corpus_word("chain3")
        plain = integrate(word, 2)
        moved = integrate(word, 2, relabel=(3, 1, 2))
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
        for name in corpus_names():
            word = load_corpus_word(name)
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
        fields = ("spec_in", "spec_out", "leaves", "anchors", "members",
                  "open_order", "closed_order")
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
                        counts[s == 0][0] += 1
                        # A new circle reads from its least-birth component,
                        # not from where its cap closed it, so its keys differ.
                        if len(joined.closed_order) == \
                                len(lower.closed_order) + len(upper.closed_order):
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
        assert len(sizes) == 2271
        assert len(result.coefficients) == 254

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
            ".open_order))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["600", "600"]

    def test_graft_rejects_mismatched_boundaries(self):
        lower = evaluate_fragment(parse_word("cup@1"), 2)
        upper = evaluate_fragment([], 2, initial=((0,), ("start", "start")))
        with pytest.raises(WordValidationError):
            graft(lower, upper)

    def test_boundary_data_is_cached_read_only(self):
        word = parse_word("x+@1 ; cup@1")
        initial = ((0,), (END, START))
        value = evaluate_fragment(word, 2, initial=initial)
        assert value.anchors and value.members
        for mapping in (value.anchors, value.members):
            with pytest.raises(TypeError):
                mapping[(0, 0, 9)] = ()
        assert evaluate_fragment(word, 2, initial=initial) == value

    def test_list_spec_is_the_tuple_spec(self):
        word = parse_word("x+@1")
        assert evaluate_fragment(word, 2, initial=([0], ["end", "end"])) == \
            evaluate_fragment(word, 2, initial=((0,), ("end", "end")))
        with pytest.raises(WordValidationError, match="bracketing"):
            evaluate_fragment(word, 2, initial=([[0]], ["end", "end"]))

    def test_open_fragment_cannot_finalize(self):
        fragment = evaluate_fragment(parse_word("cup@1"), 2)
        with pytest.raises(WordValidationError):
            finalize(fragment)


class TestCrossingBlocks:
    def test_designated_slice_must_be_a_crossing(self):
        with pytest.raises(WordValidationError):
            crossing_info(load_corpus_word("hopf+"), 1)
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

    def test_trefoil_crossing_is_positive(self):
        assert crossing_info(load_corpus_word("trefoil"), 4).geometric_sign == 1

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
        if folded.open_order:
            direct = evaluate_fragment(word, cutoff, bare_block=block)
            assert folded.terms == direct.terms
        elif block is None:
            assert finalize(folded).coefficients == \
                integrate(word, cutoff).coefficients
        else:
            assert finalize(folded).coefficients == \
                crossing_term(word, block[0] + 1, block[1], cutoff).coefficients

    def test_one_multiply_per_run(self, monkeypatch):
        calls = []
        multiply = engine._multiply

        def spy(*args, **kwargs):
            calls.append(args)
            return multiply(*args, **kwargs)

        monkeypatch.setattr(engine, "_multiply", spy)

        def count(text, cutoff=3, initial=None):
            calls.clear()
            evaluate_fragment(parse_word(text), cutoff, initial)
            return len(calls)

        # Two cups, the assoc, one run and two caps, however long the run.
        for n in (1, 5, 9):
            assert count(";".join(["cup@1", "cup@3", "assoc-@3"]
                                  + ["x+@2"] * n + ["cap@2", "cap@1"])) == 6, n
        # Three cups, then one multiply per run with a nonzero sign sum.
        arcs = "cup@1;cup@1;cup@3;"
        assert count(arcs + "x+@1;i@6;x+@1;x-@3;x+@1") == 3 + 3
        assert count(arcs + "x+@1;x+@3;x-@1") == 3 + 3
        assert count(arcs + "x+@1;x-@1;x+@3") == 3 + 1
        # A run whose signs cancel multiplies nothing.
        assert count("x+@1;x-@1", initial=((0,), (END, END))) == 0
