"""
Unit tests for word parsing, boundary tracking, and the linking oracle.

Core claims:
    - The slice grammar parses both one-per-line and semicolon layouts,
      skips comments, and reports bad tokens with their line number;
      positions are ASCII digits, so a Unicode digit is a malformed slice
    - Parse and render round-trip every corpus word
    - Validation rejects out-of-range positions, caps and crossings on
      non-adjacent leaves, direction-mismatched caps, ambiguous or
      impossible rebracketings, and unclosed words; nesting depth is
      unlimited
    - The replay refuses hand-built slices outside the word language: a
      crossing or rebracketing sign other than +1/-1 and a primed flag
      other than True/False, compared by value, so a word equal to an
      accepted one is accepted cold, and a refused sign renders as '?',
      never as a valid slice's tag; a position equal to no int ('1',
      1.5, None, nan, inf) is refused, and one equal to an int (1.0, a
      Fraction, True) acts as that int, cold or warm
    - A word whose elements are not Slices (plain tuples equal to them
      included) is refused before any cache, so it gets the same verdict
      cold and warm from every entry that reads a word; so is a word that
      is not iterable (an int, None) or holds a Slice with an unhashable
      field, from those entries and from max_truncation, with no word
      cache looked up; a word parse_word or flip_crossing returns, or one
      checked once, passes the check as it is
    - Crossing signs combine the slice sign with both strand directions
    - The signed crossing count reproduces every tabulated corpus
      linking matrix, with half-writhe diagonals, and a 1000-circle nest
      of kinked and plain unknots is diagonal, each entry that of the
      same closure on one circle
    - Boundary states expose the gap depths and directions after each
      slice, and from_spec accepts only depth tuples that bracket
    - A word's trace leaves no open points on every corpus word and lists
      one crossing per crossing slice
    - Parsing each distinct token once gives the per-token parse on every
      corpus word and every generated family word, in either layout, and
      an error names the line where its token first appears
    - A trace's runs are the groupby of its events by the frozenset of
      each crossing's two points, span and summed geometric sign alike,
      on the corpus, on closed 2-braids with identities inside their
      runs, on kinked nests, on open words with runs at two sibling
      pairs and on fragments from a boundary mid-word
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

import kzlab
from kzlab.errors import WordParseError, WordValidationError
from kzlab.invariants import flip_crossing
from kzlab.qtangle.corpus import (
    corpus_linking, corpus_names, corpus_path, load_corpus_word,
)
from kzlab.qtangle import engine
from kzlab.qtangle.engine import crossing_term, evaluate_fragment, max_truncation
from kzlab.qtangle.words import (
    BoundaryState,
    CapEvent,
    CrossEvent,
    CupEvent,
    Slice,
    _as_word,
    _trace,
    _trace_cached,
    linking_matrix,
    parse_word,
    render_word,
    trace_word,
    validate_word,
)


# -- Helpers -----------------------------------------------------------------


def _apply_all(text: str) -> BoundaryState:
    state = BoundaryState()
    for index, s in enumerate(parse_word(text)):
        state.apply(s, index)
    return state


# Every public entry that reads a word, each called on the word alone.
_WORD_CALLS = [
    validate_word,
    trace_word,
    linking_matrix,
    lambda word: kzlab.integrate(word, 2),
    lambda word: crossing_term(word, 4, 1, 2),
    lambda word: kzlab.verify_theorem(word, ((0, 1), (1, 0)), 2),
    lambda word: evaluate_fragment(word, 2),
]
_WORD_CALL_IDS = ["validate", "trace", "linking", "integrate", "crossing-term",
                  "theorem", "fragment"]


# == 1. Parsing ==============================================================


class TestParsing:
    def test_layouts_agree(self):
        lines = "cup@1\ncap@1\n"
        semis = "cup@1 ; cap@1"
        assert parse_word(lines) == parse_word(semis)

    def test_comments_and_blanks_skipped(self):
        text = "# a circle\n\ncup@1  # born\ncap@1\n"
        assert parse_word(text) == (Slice("cup", 1), Slice("cap", 1))

    def test_every_generator_form(self):
        text = "cup@1 ; cup'@1 ; cap@1 ; cap'@1 ; x+@1 ; x-@2 ; assoc+@2 ; assoc-@2 ; i@1"
        kinds = [s.kind for s in parse_word(text)]
        assert kinds == ["cup", "cup", "cap", "cap", "x", "x", "assoc", "assoc", "i"]

    def test_bad_token_reports_line(self):
        with pytest.raises(WordParseError, match="line 2"):
            parse_word("cup@1\nswap@1\n")

    def test_bad_position_reports_line(self):
        with pytest.raises(WordParseError):
            parse_word("cup@0")
        with pytest.raises(WordParseError):
            parse_word("cup@x")
        with pytest.raises(WordParseError, match="line 1: position too long"):
            parse_word("cup@" + "1" * 5000)

    def test_render_round_trip(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            assert parse_word(render_word(word)) == word

    def test_positions_are_ascii_digits(self):
        # An Arabic-Indic one is a Unicode decimal digit, but no position:
        # parsed as 1, the word would not render back to its text.
        for text in ("cup@\u0661;cap@\u0661", "cup@1;cap@\uff11", "cup@\u00b9;cap@1"):
            with pytest.raises(WordParseError, match="line 1: malformed slice"):
                parse_word(text)


# == 2. Validation ===========================================================


class TestValidation:
    def test_out_of_range_positions(self):
        with pytest.raises(WordValidationError, match="slice 2"):
            validate_word(parse_word("cup@1 ; cup@4 ; cap@1 ; cap@1"))

    def test_cap_needs_adjacent_pair(self):
        bad = "cup@1 ; cup@2 ; assoc-@2 ; assoc-@2 ; cap@2 ; cap@1 ; cap@1"
        with pytest.raises(WordValidationError):
            validate_word(parse_word(bad))

    def test_cap_direction_mismatch(self):
        with pytest.raises(WordValidationError, match="direction"):
            validate_word(parse_word("cup@1 ; cap'@1"))

    def test_crossing_needs_adjacent_pair(self):
        with pytest.raises(WordValidationError):
            validate_word(parse_word("cup@1 ; cup@3 ; x+@2 ; cap@3 ; cap@1"))

    def test_assoc_needs_matching_shape(self):
        with pytest.raises(WordValidationError):
            validate_word(parse_word("cup@1 ; assoc+@1 ; cap@1"))

    def test_unclosed_word_rejected(self):
        with pytest.raises(WordValidationError, match="open"):
            validate_word(parse_word("cup@1"))
        assert trace_word(parse_word("cup@1")).open_points == 2

    def test_identity_checks_range_only(self):
        validate_word(parse_word("i@1 ; cup@1 ; i@2 ; cap@1"))
        with pytest.raises(WordValidationError):
            validate_word(parse_word("cup@1 ; i@3 ; cap@1"))

    def test_corpus_words_validate(self):
        for name in corpus_names():
            trace = validate_word(load_corpus_word(name))
            assert trace.open_points == 0
            assert trace.linking == corpus_linking(name)

    def test_open_word_trace(self):
        trace = trace_word(parse_word("cup@1 ; x+@1"))
        assert trace.open_points == 2
        assert trace.linking is None
        assert trace.crossing(2).circles is None
        with pytest.raises(WordValidationError, match="not a crossing"):
            trace.crossing(1)

    @pytest.mark.parametrize("word", [
        (Slice("cup", 1), Slice("x", 1, sign=5), Slice("cap", 1, primed=True)),
        (Slice("cup", 1), Slice("x", 1, sign=0), Slice("cap", 1, primed=True)),
        (Slice("cup", 1), Slice("x", 1, sign="+"), Slice("cap", 1, primed=True)),
        (Slice("cup", 1, primed=2), Slice("cap", 1, primed=True)),
        (Slice("cup", 1, primed=True), Slice("cap", 1, primed=2)),
        # The trefoil with assoc-@3 as a rebracketing of sign -2.
        parse_word("cup@1;cup@3") + (Slice("assoc", 3, sign=-2),)
        + parse_word("x-@2;x-@2;x-@2;cap@2;cap@1"),
    ], ids=["sign-5", "sign-0", "sign-str", "cup-primed-2", "cap-primed-2",
            "assoc-sign-2"])
    def test_slices_outside_the_language_are_refused(self, word):
        with pytest.raises(WordValidationError, match="sign|primed"):
            validate_word(word)

    def test_a_refusal_names_the_slice_it_refuses(self):
        # A sign other than +1 or -1 renders as a tag no word parses, not
        # as the minus slice the word does not hold.
        word = (Slice("cup", 1), Slice("x", 1, sign=5), Slice("cap", 1, primed=True))
        with pytest.raises(WordValidationError) as info:
            validate_word(word)
        assert str(info.value) == "slice 2 (x?@1): sign must be +1 or -1, not 5"
        for kind in ("x", "assoc"):
            assert [str(Slice(kind, 2, sign=sign)) for sign in (1, -1, 1.0, -1.0, 0, 2)] \
                == [f"{kind}{tag}@2" for tag in "+-+-??"]
            with pytest.raises(WordParseError):
                parse_word(str(Slice(kind, 2, sign=0)))

    def test_sign_and_flag_compare_by_value(self):
        # Equal to the parsed word, so a warm cache answers it: cold, it
        # must get the same trace and value.
        word = load_corpus_word("trefoil")   # cups, caps, x and assoc slices
        same = tuple(s._replace(sign=float(s.sign), primed=int(s.primed))
                     for s in word)
        kzlab.clear_caches()
        cold = validate_word(same), kzlab.integrate(same, 3)
        kzlab.clear_caches()
        assert cold == (validate_word(word), kzlab.integrate(word, 3))

    @pytest.mark.parametrize("word", [
        (Slice("cup", "1"), Slice("cap", 1)),
        (Slice("cup", 1), Slice("cap", 1.5)),
        (Slice("cup", 1), Slice("cap", None)),
        (Slice("cup", 1), Slice("i", "a"), Slice("cap", 1)),
        (Slice("cup", 1), Slice("x", float("nan"), sign=1),
         Slice("cap", 1, primed=True)),
        (Slice("cup", 1), Slice("x", float("inf"), sign=1),
         Slice("cap", 1, primed=True)),
        parse_word("cup@1;cup@3") + (Slice("assoc", 3.5, sign=-1),),
    ], ids=["str", "half", "none", "identity-str", "nan", "inf", "assoc-half"])
    def test_positions_equal_to_no_int_are_refused(self, word):
        with pytest.raises(WordValidationError,
                           match=r"slice \d+ \(.*\): position must be an int"):
            validate_word(word)

    def test_positions_compare_by_value(self):
        # A position equal to an int acts as that int, cold or warm.
        word = load_corpus_word("trefoil")   # cups, caps, x and assoc slices
        for same in (tuple(s._replace(pos=float(s.pos)) for s in word),
                     tuple(s._replace(pos=Fraction(s.pos)) for s in word),
                     tuple(s._replace(pos=True) if s.pos == 1 else s
                           for s in word)):
            kzlab.clear_caches()
            cold = validate_word(same), kzlab.integrate(same, 3)
            kzlab.clear_caches()
            assert cold == (validate_word(word), kzlab.integrate(word, 3))
            assert cold == (validate_word(same), kzlab.integrate(same, 3))
        kzlab.clear_caches()
        state = _apply_all("cup@1")
        assert state.apply(Slice("cap", 1.0), 1) == CapEvent(
            False, (1, 0, 1), (1, 0, 1))

    @pytest.mark.parametrize("call", _WORD_CALLS, ids=_WORD_CALL_IDS)
    def test_a_word_of_plain_tuples_is_refused_cold_and_warm(self, call):
        # Equal to hopf+ element by element, so only a type check before
        # the caches keeps a warm call from answering it.
        word = load_corpus_word("hopf+")
        plain = tuple(tuple(s) for s in word)
        assert plain == word
        kzlab.clear_caches()
        with pytest.raises(WordValidationError, match="Slice"):
            call(plain)
        call(word)
        with pytest.raises(WordValidationError, match="Slice"):
            call(plain)

    @pytest.mark.parametrize("word", [
        5, None, (Slice(["x"], 1),), (Slice("cup", 1, primed=[1]),),
    ], ids=["int", "none", "list-kind", "list-primed"])
    @pytest.mark.parametrize("call", _WORD_CALLS + [max_truncation],
                             ids=_WORD_CALL_IDS + ["max-truncation"])
    def test_no_sequence_of_hashable_slices_reaches_a_cache(self, call, word):
        kzlab.clear_caches()
        with pytest.raises(WordValidationError, match="Slices|hashable"):
            call(word)
        for cache in (engine._integrate_cached, _trace_cached):
            info = cache.cache_info()
            assert (info.hits, info.misses) == (0, 0)

    def test_a_checked_word_passes_through_unscanned(self):
        # parse_word and flip_crossing return words _as_word has checked,
        # so every later entry takes them as they are; a plain tuple of
        # Slices is checked once and comes back as such a word.
        word = load_corpus_word("hopf+")
        flipped = flip_crossing(word, 4)
        for checked in (word, parse_word("cup@1;cap@1"), flipped):
            assert _as_word(checked) is checked
        plain = tuple(word)
        assert type(plain) is tuple
        again = _as_word(plain)
        assert again == word and _as_word(again) is again

    def test_deep_nesting_validates(self):
        # 600 levels is past the recursion limit of a recursive tree.
        trace = validate_word(parse_word("cup@1\n" * 600 + "cap@1\n" * 600))
        assert trace.open_points == 0
        assert len(trace.linking) == 600


# == 3. Crossing signs and linking ===========================================


class TestLinking:
    def test_corpus_matrices(self):
        for name in corpus_names():
            assert linking_matrix(load_corpus_word(name)) == corpus_linking(name)

    def test_kink_gives_half_framing(self):
        assert linking_matrix(load_corpus_word("u1")) == ((Fraction(1, 2),),)

    def test_mirror_flips_every_entry(self):
        word = load_corpus_word("hopf+")
        mirrored = tuple(Slice(s.kind, s.pos, -s.sign, s.primed)
                         if s.kind == "x" else s for s in word)
        lk = linking_matrix(mirrored)
        assert lk == tuple(tuple(-x for x in row)
                           for row in linking_matrix(word))

    def test_geometric_sign_uses_directions(self):
        # On one up and one down strand a negative slice sign crosses
        # positively: the direction factors contribute -1.
        state = _apply_all("cup@1")
        event = state.apply(Slice("x", 1, sign=-1), 99)
        assert event.geometric_sign == 1

    def test_writhe_counts_self_crossings(self):
        trefoil = load_corpus_word("trefoil")
        assert linking_matrix(trefoil) == ((Fraction(3, 2),),)

    def test_wide_nest_matches_one_circle_closures(self):
        # Circle j is born j-th and closed (n - j)-th, innermost first.
        closures = ("cap@1", "x+@1;cap'@1", "x-@1;cap'@1")
        n = 1000
        ends = [closures[j % 3] for j in range(n)]
        lk = linking_matrix(parse_word("cup@1;" * n + ";".join(reversed(ends))))
        one = {c: linking_matrix(parse_word("cup@1;" + c))[0][0] for c in closures}
        assert [one[c] for c in closures] == [0, Fraction(-1, 2), Fraction(1, 2)]
        assert all(lk[i][j] == (one[ends[i]] if i == j else 0)
                   for i in range(n) for j in range(n))


# == 4. Boundary traces ======================================================


class TestBoundary:
    def test_cup_shapes(self):
        shape, roles = _apply_all("cup@1").spec()
        assert roles == ("start", "end")
        shape2, roles2 = _apply_all("cup'@1").spec()
        assert roles2 == ("end", "start")

    def test_nesting_positions(self):
        state = _apply_all("cup@1 ; cup@2")
        depths, roles = state.spec()
        assert depths == (0, 2, 1)   # (a, ((b, c), d))
        assert roles == ("start", "start", "end", "end")

    def test_trace_length(self):
        for name in corpus_names():
            word = load_corpus_word(name)
            trace = validate_word(word)
            crossing_slices = [i for i, s in enumerate(word, start=1)
                               if s.kind == "x"]
            assert [c.slice for c in trace.crossings] == crossing_slices

    def test_closed_components_recorded(self):
        state = _apply_all("cup@1 ; cap@1 ; cup@1 ; cap@1")
        assert len(state.closed) == 2
        assert state.spec() == ((), ())

    def test_from_spec_rejects_non_bracketings(self):
        # Two roots; two siblings at one depth; a root below 0; a depth
        # count that does not fit the leaves; a nested shape.
        for depths, leaves in (((0, 0), 3), ((1, 1, 0), 4), ((1,), 2),
                               ((0,), 3), (((0, 1), 2), 3)):
            with pytest.raises(WordValidationError, match="bracketing"):
                BoundaryState.from_spec((depths, ("start",) * leaves))
        spec = ((2, 1, 0), ("start",) * 4)
        assert BoundaryState.from_spec(spec).spec() == spec


# == 5. One parse per token, runs in the trace ================================


_TOKEN = re.compile(r"^(i|x[+-]|cup'?|cap'?|assoc[+-])@(\d+)$")


def _parse_each_token(text):
    """parse_word as first written, the oracle: the regex, int() and a new
    Slice for every token, repeated or not."""
    slices = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        for chunk in line.split("#", 1)[0].split(";"):
            token = chunk.strip()
            if not token:
                continue
            match = _TOKEN.match(token)
            if not match:
                raise WordParseError(f"line {lineno}: malformed slice {token!r}")
            tag, pos_text = match.groups()
            try:
                pos = int(pos_text)
            except ValueError:
                raise WordParseError(
                    f"line {lineno}: position too long in {token[:20]!r}...") from None
            if pos < 1:
                raise WordParseError(
                    f"line {lineno}: positions are 1-based, got {token!r}")
            if tag[0] in "ax":
                slices.append(Slice(tag[:-1], pos, sign=1 if tag[-1] == "+" else -1))
            elif tag[0] == "c":
                slices.append(Slice(tag.rstrip("'"), pos, primed=tag.endswith("'")))
            else:
                slices.append(Slice("i", pos))
    return tuple(slices)


def _braid_texts(count=30):
    """Closed 2-braids of mixed signs, up to 40 crossings, with identities
    inside their runs, closed as the benchmark's long braids are."""
    rng = random.Random("braids")
    for _ in range(count):
        n = rng.randrange(2, 41)
        body = [f"x{rng.choice('+-')}@2" for _ in range(n)]
        for _ in range(rng.randrange(1, 4)):
            body.insert(rng.randrange(1, len(body)), f"i@{rng.randrange(1, 5)}")
        if n % 2:
            closure = "cap@2;cap@1"
        else:
            closure = rng.choice(("cap'@2;cap@1", "assoc+@3;cap@3;cap@1"))
        yield ";".join(["cup@1", "cup@3", "assoc-@3", *body, closure])


def _nest_texts():
    """Nested unlinks, closed innermost first, some circles kinked once
    and some twice, an identity between the two kinks or not."""
    rng = random.Random("nests")
    closures = ("cap@1", "x+@1;cap'@1", "x-@1;cap'@1", "x+@1;i@1;x+@1;cap@1",
                "x-@1;x+@1;cap@1")
    for m in (1, 3, 8, 20, 60):
        yield ";".join(["cup@1"] * m + [rng.choice(closures) for _ in range(m)])


def _open_texts():
    """Three open arcs, whose points 1-2 and 3-4 are both sibling pairs,
    then crossings on either pair, identities, and cups right of both
    pairs, which end a run without moving its points."""
    rng = random.Random("open")
    for _ in range(20):
        body = [rng.choice(("x+@1", "x-@1", "x+@3", "x-@3", "i@6", "cup@5"))
                for _ in range(rng.randrange(1, 13))]
        yield ";".join(["cup@1", "cup@1", "cup@3", *body])


def _runs_by_grouping(trace):
    """The trace's runs as the engine first grouped them, the oracle: its
    events grouped by the frozenset of each crossing's two points (any
    other slice a group of its own), each sign by the right-hand rule."""
    factor = {"end": 1, "start": -1}

    def key(item):
        at, event = item
        return frozenset((event.left, event.right)) if isinstance(event, CrossEvent) else at

    runs = []
    for _, group in itertools.groupby(trace.events, key=key):
        group = list(group)
        if isinstance(group[0][1], CrossEvent):
            runs.append((group[0][0], group[-1][0],
                         sum(e.eps * factor[e.left[1]] * factor[e.right[1]]
                             for _, e in group)))
    return tuple(runs)


class TestParseOnce:
    def test_parse_word_equals_the_per_token_parse(self):
        texts = []
        for name in corpus_names():
            with open(corpus_path(name), encoding="utf-8") as handle:
                texts.append(handle.read())
        generated = [*_braid_texts(), *_nest_texts(), *_open_texts()]
        texts += generated + [text.replace(";", "  # slice\n") for text in generated]
        for text in texts:
            word = parse_word(text)
            assert word == _parse_each_token(text), text[:60]
            assert all(type(s) is Slice for s in word)

    @pytest.mark.parametrize("text, line", [
        ("cup@1\nswap@1\ncap@1\ncup@1\nswap@1 ; cap@1", 2),
        ("cup@1\nswap@1;swap@1\ncap@1", 2),
        ("cup@1;cap@1\ncup@1;cap@1\ncup@0;cup@1", 3),
        ("cup@1;cap@1\n\ncup@1;cap@1\ncup@1;x+@" + "1" * 5000, 4),
    ], ids=["malformed-2-and-5", "malformed-twice-on-2", "zero", "too-long"])
    def test_an_error_names_its_token_first_line(self, text, line):
        with pytest.raises(WordParseError, match=f"^line {line}: ") as info:
            parse_word(text)
        with pytest.raises(WordParseError) as expected:
            _parse_each_token(text)
        assert str(info.value) == str(expected.value)


class TestRuns:
    def test_runs_are_the_grouped_events(self):
        traces = [validate_word(load_corpus_word(name)) for name in corpus_names()]
        for text in _braid_texts():
            word = parse_word(text)
            traces.append(validate_word(word))
            # Each half from its own boundary, the upper one mid-word.
            cut = len(word) // 2
            lower = _trace(word[:cut])
            traces += [lower, _trace(word[cut:], lower.spec_out, cut)]
        traces += [validate_word(parse_word(text)) for text in _nest_texts()]
        traces += [trace_word(parse_word(text)) for text in _open_texts()]
        for trace in traces:
            assert trace.runs == _runs_by_grouping(trace)
            assert len(trace.runs) <= len(trace.crossings)
        runs = [run for trace in traces for run in trace.runs]
        # Long runs, runs whose signs cancel, a run that starts right
        # after another pair's crossing and one that a cup ends were met.
        assert max(last - first for first, last, _ in runs) > 30
        assert any(last > first and not g for first, last, g in runs)
        assert any(isinstance(before, CrossEvent) and isinstance(event, CrossEvent)
                   and at in {run[0] for run in trace.runs}
                   for trace in traces
                   for (_, before), (at, event) in zip(trace.events, trace.events[1:]))
        assert any(isinstance(before, CupEvent) and a.left == b.right and a.right == b.left
                   for trace in traces
                   for (_, b), (_, before), (_, a) in zip(
                       trace.events, trace.events[1:], trace.events[2:])
                   if isinstance(a, CrossEvent) and isinstance(b, CrossEvent))
