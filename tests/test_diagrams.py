"""
Unit tests for canonical chord diagrams, enumeration, and the 4T quotient.

Core claims:
    - Canonicalization is idempotent and invariant under circle rotations
    - A cached diagram's code cannot be assigned or deleted; diagrams
      still pickle and copy
    - The pruned search agrees with the exhaustive minimum over every
      combination of circle rotations (a test-only second route), on
      random diagrams (m <= 4 circles, k <= 6 chords, empty circles among
      them), on forced symmetries that tie under several namings, with
      own-chord circles among tied ones, and on every placement of
      k <= 4 chords on m <= 3 circles
    - The search on its own, on codes already named by first appearance,
      is the exhaustive minimum of every named placement of k <= 3 chords
      on m <= 3 circles
    - Chord labels must occur exactly twice, and canonical_code refuses
      labels that do not pair up with ChordDiagram's message, and
      anything but a sequence of words of hashable labels with
      InputError, not a raw TypeError; the words may come as any
      iterable; empty circles are fine
    - Diagrams order by circle count, degree and code; ordering one
      against anything but a diagram raises TypeError
    - Type matrices count chords by endpoint circles, symmetrically; a
      TypeMatrix is square, symmetric and natural (int entries only),
      is built once, and knows its sparse cells and its degree, which no
      caller can reset; a diagram's matrix is built from its type cells;
      a 150-wide matrix with a float, bool, negative or unmirrored entry
      in its last row is refused with the message of the first check
      it fails
    - Degree lists on one circle have sizes 1, 1, 2, 5, 18, 105 up to
      degree 5 (OEIS A007769)
    - Type families partition each degree list (m <= 3, k <= 4); each
      degree list is the sorted union of the families of its type
      matrices, walked as type cells, each type once with its cells
      sorted (m <= 4, k <= 3)
    - A degree list is bounded by its matchings alone, not by the
      entries of dense matrices it never builds: 21 circles at degree 1
      list 231 diagrams (and a quotient of dimension 231) where the
      type-matrix list is refused, and degree 0 on 400 or 100,000
      circles gives its one diagram in well under a second
    - The placements generator yields C(2k+p-1, p-1) (2k-1)!! label
      lists for k chords on p words (p <= 3, k <= 4); each type family
      is of its type, and the families together are exactly the
      canonicalised placements, each diagram once
    - Each type family is the canonicalised placements of its type (a
      brute force by type), for every S with m <= 4, k <= 3 and with
      m <= 2, k <= 5
    - A cold sweep over m <= 3, k <= 4 runs the canonical-code search at
      most 1,500 times for its 882 diagrams (canonicalising every
      matching made 6,391)
    - A 1,100-circle type with one chord from the first circle to the
      last, and the 1,100-circle unit diagonal, each give their one
      diagram, with no recursion per circle or per chord
    - Each enumeration counts its work in closed form before it starts:
      the degree list, each type family (its matchings counted here from
      S) and the type-matrix list are admitted at a limit equal to their
      matchings (or entries) and refused one below it; a huge degree or
      entry is refused at once
    - Every 4T move has four placements with signs +1, -1, -1, +1 and
      pairwise-matching type matrices at each anchor endpoint
    - Relators are read-only diagram -> int vectors
    - Relator vectors reduce to zero; the quotient dimensions on one
      circle are 1, 2, 3, 6 in degrees 1..4, matching a sympy rank oracle
    - four_t_relators checks m >= 1 and k >= 0 before answering () below
      degree 2
    - Connected sums agree modulo 4T regardless of insertion point
    - Circle relabeling behaves as stated
    - JSON serialization emits 1-based circles and 0-based slots
    - Both enumerators refuse zero circles; the empty link still passes
      the theorem by lookup
    - Bad caller input to public functions raises InputError, not a plain
      ValueError, in diagrams, algebra (wheel_coefficients included, and
      wheel_attachment_sum past the enumeration limit), graft
      and strand_monomials; a circle or gap index and a circle
      permutation (verify_theorem's relabel included) must be ints, so a
      float or a bool equal to a valid one is refused; so are a
      kinked-unknot cutoff that is not an int, and a linking matrix that
      is not S's size in rows of that length or has an entry read that
      is not an int or a Fraction; the
      series combinators take a cutoff that is an int in
      0..MAX_TRUNCATION, and one over it raises TruncationUnsupportedError
      before any work
"""

import copy
import itertools
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import kzlab
from kzlab import diagrams
from kzlab.algebra import (
    concat_words, interval_sqrt, series_exp, series_product,
    wheel_attachment_sum, wheel_coefficients,
)
from kzlab.diagrams import (
    ChordDiagram,
    TypeMatrix,
    _least_code,
    _placements,
    _relabel,
    _type_cells,
    all_type_matrices,
    canonical_code,
    connected_sum,
    enumerate_by_degree,
    enumerate_by_matrix,
    four_t_moves,
    four_t_relators,
    quotient_dimension,
    reduce_mod_4t,
)
from kzlab.errors import InputError, TruncationUnsupportedError
from kzlab.qtangle.engine import evaluate_fragment, graft, strand_monomials


# -- Helpers -----------------------------------------------------------------


def _random_words(rng: random.Random, circles: int, degree: int):
    labels = list(range(1, degree + 1)) * 2
    rng.shuffle(labels)
    cuts = sorted(rng.randint(0, 2 * degree) for _ in range(circles - 1))
    bounds = [0] + cuts + [2 * degree]
    return [tuple(labels[bounds[i]:bounds[i + 1]]) for i in range(circles)]


_TWICE = "chord labels must occur exactly twice: "
_NOT_WORDS = "a diagram must be a sequence of words of hashable chord labels"


def _rotate(word, by):
    if not word:
        return word
    by %= len(word)
    return word[by:] + word[:by]


def _exhaustive_code(words):
    """The least relabeled code over the full product of circle rotations:
    the definition of canonical_code, computed the slow way."""
    fixed = [tuple(w) for w in words]
    rotations = [range(max(1, len(w))) for w in fixed]
    return min(_relabel([_rotate(w, r) for w, r in zip(fixed, combo)])
               for combo in itertools.product(*rotations))


@st.composite
def _chord_words(draw):
    """Up to 4 circles, up to 6 chords with arbitrary labels, every circle
    turned by a random rotation; cut points may leave circles empty."""
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, 6))
    ends = draw(st.permutations(list(range(10, 10 + k)) * 2))
    cuts = sorted(draw(st.lists(st.integers(0, 2 * k), min_size=m - 1,
                                max_size=m - 1)))
    bounds = [0] + cuts + [2 * k]
    words = [tuple(ends[bounds[i]:bounds[i + 1]]) for i in range(m)]
    return [_rotate(w, draw(st.integers(0, 11))) for w in words]


@st.composite
def _symmetric_words(draw):
    """Diagrams whose least code is reached under several namings: a
    block of distinct chords read twice on one circle (a half turn maps
    it to itself), read once on each of two circles, or read once with
    its other ends spread over two later circles, which break the tie.
    Empty circles go anywhere, and every circle is turned by a random
    rotation."""
    k = draw(st.integers(1, 4))
    block = tuple(draw(st.permutations(range(k))))
    shape = draw(st.sampled_from(("half turn", "two circles", "spread")))
    if shape == "half turn":
        words = [block + block]
    elif shape == "two circles":
        words = [block, block]
    else:
        ends = draw(st.permutations(block))
        cut = draw(st.integers(0, k))
        words = [block, tuple(ends[:cut]), tuple(ends[cut:])]
    for _ in range(draw(st.integers(0, 4 - len(words)))):
        words.insert(draw(st.integers(0, len(words))), ())
    return [_rotate(w, draw(st.integers(0, 11))) for w in words]


# == 1. Canonical form =======================================================


class TestCanonicalForm:
    def test_idempotent_on_random_diagrams(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            words = _random_words(rng, rng.randint(1, 3), rng.randint(0, 4))
            code = canonical_code(words)
            assert canonical_code(code) == code

    def test_rotation_invariance_all_rotations(self):
        rng = random.Random(7)
        for _ in range(300):
            words = _random_words(rng, rng.randint(1, 3), rng.randint(1, 4))
            base = ChordDiagram(words)
            sizes = [range(max(1, len(w))) for w in words]
            for shifts in itertools.product(*sizes):
                rotated = [_rotate(w, s) for w, s in zip(words, shifts)]
                assert ChordDiagram(rotated) == base

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.one_of(_chord_words(), _symmetric_words()))
    @example([(1, 2, 1, 2)])
    @example([(1, 2, 3), (1, 2, 3)])
    @example([(), (1, 2, 1, 2), ()])
    # (1 2) codes as (1 2) from either end, and only the naming that
    # starts at chord 2 codes the next circle as (1): the search must
    # keep both namings past the first circle.
    @example([(1, 2), (2,), (1,)])
    @example([(1, 3, 1, 2), (2, 3, 4, 4)])
    # An own-chord circle (3 3) before, between and after the tied circles
    # takes its names from a count, in no naming.
    @example([(3, 3), (1, 2), (2,), (1,)])
    @example([(1, 2), (3, 3), (2,), (1,)])
    @example([(1, 2), (2,), (3, 4, 3, 4), (1,)])
    @example([(1, 2), (2,), (1,), (3, 3)])
    def test_agrees_with_the_exhaustive_minimum(self, words):
        assert canonical_code(words) == _exhaustive_code(words)

    def test_agrees_with_the_exhaustive_minimum_on_every_placement(self):
        for m in range(1, 4):
            for k in range(5):
                for words in _placements(k, m):
                    assert canonical_code(words) == _exhaustive_code(words), words

    def test_label_renaming_is_immaterial(self):
        a = ChordDiagram([("x", "y", "x", "y")])
        b = ChordDiagram([(9, 4, 9, 4)])
        assert a == b and hash(a) == hash(b)

    def test_labels_must_pair_up(self):
        with pytest.raises(ValueError, match="exactly twice"):
            ChordDiagram([(1, 1, 2)])
        with pytest.raises(ValueError, match="exactly twice"):
            ChordDiagram([(1, 2), (1, 2), (2,)])

    @pytest.mark.parametrize("words, expected", [
        ([(1, 1, 2)], _TWICE + "2"),
        ([(1, 2), (1, 2), (2,)], _TWICE + "2"),
        ([(1,), (), (2, 2, 3)], _TWICE + "1, 3"),
        ([("x", "x", "x", "x", "y")], _TWICE + "x, y"),
        # Three ends and one end make as many ends as two pairs.
        ([(1, 1, 1, 2)], _TWICE + "1, 2"),
        # Four ends of one label pair up with themselves once sorted.
        ([(1, 1), (1, 1)], _TWICE + "1"),
        # No sequence of words, words that are not sequences (a falsy one
        # included, which is no empty circle), and unhashable labels.
        (5, _NOT_WORDS),
        (None, _NOT_WORDS),
        ([1, 2], _NOT_WORDS),
        ([(1, 1), 0], _NOT_WORDS),
        ([(1, 1), None], _NOT_WORDS),
        ([[[1], [1]]], _NOT_WORDS),
        ([[{}, {}]], _NOT_WORDS),
    ])
    def test_canonical_code_refuses_what_the_diagram_refuses(self, words, expected):
        for build in (canonical_code, ChordDiagram):
            with pytest.raises(InputError) as info:
                build(words)
            assert str(info.value) == expected

    def test_words_may_come_as_any_iterable(self):
        words = [(1, 2), (2, 1)]
        assert canonical_code(iter(words)) == canonical_code(words) == ((1, 2), (1, 2))
        assert canonical_code(["xyxy"]) == ((1, 2, 1, 2),)

    def test_the_search_is_the_exhaustive_minimum_on_named_placements(self):
        for m in range(1, 4):
            for k in range(4):
                for words in _placements(k, m):
                    named = _relabel(words)
                    assert _least_code(named) == _exhaustive_code(named), words

    def test_empty_circles_allowed(self):
        d = ChordDiagram([(), (1, 1), ()])
        assert d.circles == 3 and d.degree == 1

    def test_circles_are_not_interchangeable(self):
        a = ChordDiagram([(1, 1), ()])
        b = ChordDiagram([(), (1, 1)])
        assert a != b

    def test_ordering_against_a_non_diagram_is_a_type_error(self):
        d, chord = ChordDiagram([()]), ChordDiagram([(1, 1)])
        assert d.__lt__(1) is NotImplemented
        for other in (1, "a", None, ((),)):
            with pytest.raises(TypeError):
                d < other
            with pytest.raises(TypeError):
                other > d
        assert sorted([chord, d]) == [d, chord]

    def test_cached_diagrams_are_immutable(self):
        cached, = enumerate_by_matrix(((1,),))
        with pytest.raises(AttributeError):
            cached.code = ((1, 2, 1, 2),)
        with pytest.raises(AttributeError):
            del cached.code
        assert enumerate_by_matrix(((1,),))[0].code == ((1, 1),)

    def test_immutable_diagrams_pickle_and_copy(self):
        d = ChordDiagram([(1, 2, 1, 2), (), (3, 3)])
        assert pickle.loads(pickle.dumps(d)) == d
        assert copy.deepcopy(d) == d and copy.copy(d) == d


# == 2. Type matrices ========================================================


class TestTypeMatrix:
    def test_mixed_degree_three_example(self):
        d = ChordDiagram([(1, 1, 2), (2, 3, 3)])
        assert d.type_matrix() == ((1, 1), (1, 1))

    def test_symmetry_random(self):
        rng = random.Random(11)
        for _ in range(200):
            words = _random_words(rng, rng.randint(1, 3), rng.randint(0, 4))
            S = ChordDiagram(words).type_matrix()
            assert S == tuple(zip(*S))

    def test_degree_from_matrix(self):
        d = ChordDiagram([(1, 2, 1, 2), (3, 3)])
        S = d.type_matrix()
        assert sum(S[i][j] for i in range(2) for j in range(i, 2)) == d.degree
        assert S.degree == d.degree

    def test_degree_on_mixed_matrices(self):
        assert TypeMatrix(((1, 2), (2, 0))).degree == 3
        assert TypeMatrix([[2, 1, 0], [1, 0, 3], [0, 3, 1]]).degree == 7
        assert TypeMatrix(()).degree == 0

    def test_built_once_and_equal_to_the_plain_tuple(self):
        S = TypeMatrix([[0, 1], [1, 0]])
        assert TypeMatrix(S) is S
        assert S == ((0, 1), (1, 0)) and hash(S) == hash(((0, 1), (1, 0)))
        with pytest.raises(AttributeError):
            S.degree = 5

    def test_cells_are_the_sparse_form(self):
        S = TypeMatrix([[2, 1, 0], [1, 0, 3], [0, 3, 1]])
        assert S.cells == ((0, 0, 2), (0, 1, 1), (1, 2, 3), (2, 2, 1))
        assert TypeMatrix(()).cells == () and TypeMatrix(((0,),)).cells == ()
        with pytest.raises(AttributeError):
            S.cells = ()
        with pytest.raises(AttributeError):
            del S.degree
        for copied in (pickle.loads(pickle.dumps(S)), copy.deepcopy(S)):
            assert copied == S and copied.cells == S.cells
            assert copied.degree == 7

    def test_diagram_type_cells_define_its_matrix(self):
        # The dense matrix is counted here chord by chord, as a second route.
        for m in range(1, 4):
            for k in range(4):
                for d in enumerate_by_degree(m, k):
                    where = {}
                    for c, word in enumerate(d.code):
                        for label in word:
                            where.setdefault(label, []).append(c)
                    counts = [[0] * m for _ in range(m)]
                    for a, b in where.values():
                        counts[a][b] += 1
                        if a != b:
                            counts[b][a] += 1
                    S = d.type_matrix()
                    assert S == TypeMatrix(counts), d
                    assert S.cells == TypeMatrix(counts).cells == d.type_cells, d
                    assert S.degree == d.degree, d

    def test_hostile_entries_in_the_last_row_of_a_wide_matrix(self):
        m = 150
        entries = "type matrix entries must be natural numbers"
        for column, bad, message in ((m - 1, 2.0, entries), (m - 1, True, entries),
                                     (m - 1, -1, entries), (3, 2.0, entries),
                                     (3, 1, "type matrix must be symmetric")):
            rows = [[0] * m for _ in range(m)]
            rows[0][0] = 1
            rows[-1][column] = bad
            with pytest.raises(InputError, match=message):
                TypeMatrix(rows)
            with pytest.raises(InputError, match=message):
                TypeMatrix(tuple(map(tuple, rows)))
        rows = [[0] * m for _ in range(m)]
        rows[-1][3] = rows[3][-1] = 2
        S = TypeMatrix(rows)
        assert S.cells == ((3, m - 1, 2),) and S.degree == 2
        with pytest.raises(InputError, match="must be square"):
            TypeMatrix(rows[:-1])

    def test_enumeration_returns_type_matrices(self):
        assert all(isinstance(S, TypeMatrix) for S in all_type_matrices(3, 2))
        assert isinstance(ChordDiagram([(1, 2), (1, 2)]).type_matrix(), TypeMatrix)

    def test_bad_matrices_raise_value_error(self):
        # The valid matrix comes first: an equal bool matrix must not be
        # answered from the enumeration cache.
        assert len(enumerate_by_matrix(((0, 1), (1, 0)))) == 1
        for S in (((0.5,),), ((0, True), (True, 0)), ((0, 1.0), (1.0, 0)),
                  ((0, "1"), ("1", 0)), ((-1,),), ((0, 1), (1,)),
                  ((0, 1), (2, 0)), (1, 2)):
            with pytest.raises(ValueError):
                enumerate_by_matrix(S)

    def test_degree_and_circle_ranges(self):
        for m, k in ((0, 1), (1, -1)):
            with pytest.raises(ValueError):
                all_type_matrices(m, k)
            with pytest.raises(ValueError):
                enumerate_by_degree(m, k)


# == 3. Enumeration ==========================================================


class TestEnumeration:
    def test_one_circle_sizes(self):
        # OEIS A007769: one-circle diagrams up to rotation.
        assert [len(enumerate_by_degree(1, k)) for k in range(6)] == [1, 1, 2, 5, 18, 105]

    def test_two_circles_degree_one(self):
        family = enumerate_by_degree(2, 1)
        assert len(family) == 3
        types = sorted(d.type_matrix() for d in family)
        assert types == [((0, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 0))]

    def test_matrix_family_matches_requested_type(self):
        for m in (1, 2, 3):
            for k in range(4):
                for S in all_type_matrices(m, k):
                    assert all(d.type_matrix() == S for d in enumerate_by_matrix(S))

    def test_families_partition_each_degree(self):
        for m in (1, 2, 3):
            for k in range(5):
                whole = set(enumerate_by_degree(m, k))
                pieces = [set(enumerate_by_matrix(S))
                          for S in all_type_matrices(m, k)]
                assert sum(len(p) for p in pieces) == len(whole)
                assert set().union(*pieces) == whole

    @pytest.mark.parametrize("m", range(1, 5))
    def test_degree_lists_walk_their_type_cells(self, m):
        for k in range(4):
            types = list(_type_cells(m, k))
            assert len(set(types)) == len(types)
            assert all(list(cells) == sorted(cells) for cells in types)
            matrices = all_type_matrices(m, k)
            assert sorted(types) == sorted(S.cells for S in matrices)
            assert enumerate_by_degree(m, k) == tuple(sorted(
                d for S in matrices for d in enumerate_by_matrix(S)))

    def test_degree_lists_are_bounded_by_their_matchings_alone(self):
        # 231 types on 21 circles take 101,871 dense entries, over the
        # limit, but the list reads only their cells.
        with pytest.raises(InputError, match="entry count"):
            all_type_matrices(21, 1)
        assert len(enumerate_by_degree(21, 1)) == quotient_dimension(21, 1) == 231
        for m in (400, 10 ** 5):
            start = time.perf_counter()
            (only,) = enumerate_by_degree.__wrapped__(m, 0)
            assert time.perf_counter() - start < 1.0
            assert only.code == ((),) * m

    def test_deterministic_order(self):
        family = enumerate_by_degree(2, 2)
        assert list(family) == sorted(family)

    def test_single_pure_linking_diagram(self):
        assert len(enumerate_by_matrix(((0, 1), (1, 0)))) == 1

    def test_placement_counts(self, monkeypatch):
        def admitted_at(count, call, *args):
            # Uncached, so the closed-form count runs at each limit.
            for limit in (count, count - 1):
                with monkeypatch.context() as patch:
                    patch.setattr(diagrams, "ENUMERATION_LIMIT", limit)
                    if limit == count:
                        call.__wrapped__(*args)
                    else:
                        with pytest.raises(InputError, match="enumeration limit"):
                            call.__wrapped__(*args)

        for parts in (1, 2, 3):
            for k in range(5):
                pairings = math.prod(range(1, 2 * k, 2))
                expected = math.comb(2 * k + parts - 1, parts - 1) * pairings
                assert sum(1 for _ in _placements(k, parts)) == expected
                matrices = all_type_matrices(parts, k)
                admitted_at(expected, enumerate_by_degree, parts, k)
                admitted_at(len(matrices) * parts ** 2, all_type_matrices, parts, k)
                # Each family has its type, the families together are the
                # canonicalised placements, each diagram made once, and each
                # family is admitted at its matchings, counted here from S.
                made = []
                for S in matrices:
                    family = enumerate_by_matrix(S)
                    assert all(d.type_matrix() == S for d in family)
                    made.extend(family)
                    slots = [row[i] + sum(row) for i, row in enumerate(S)]
                    matchings = math.prod(map(math.factorial, slots)) // math.prod(
                        2 ** n * math.factorial(n) if a == b else math.factorial(n)
                        for a, b, n in S.cells)
                    admitted_at(matchings, diagrams._by_matrix, parts, S.cells)
                assert sorted(made) == sorted({ChordDiagram(words)
                                               for words in _placements(k, parts)})
        assert expected == 4725

    @pytest.mark.parametrize("m, k", [(m, k) for m in range(1, 5) for k in range(4)]
                             + [(1, 4), (2, 4), (1, 5), (2, 5)])
    def test_families_are_the_brute_force_by_type(self, m, k):
        by_type = {}
        for words in _placements(k, m):
            diagram = ChordDiagram(words)
            by_type.setdefault(diagram.type_matrix(), set()).add(diagram)
        assert set(by_type) <= set(all_type_matrices(m, k))
        for S in all_type_matrices(m, k):
            assert enumerate_by_matrix(S) == tuple(sorted(by_type.get(S, ()))), S

    def test_each_diagram_is_built_about_once(self, monkeypatch):
        # 882 diagrams over m <= 3, k <= 4; building from every matching
        # took 6,391 canonicalisations.  The family writes named codes,
        # so each code it tries is one call of the search itself.
        calls = []
        code = diagrams._least_code
        monkeypatch.setattr(diagrams, "_least_code",
                            lambda words: calls.append(1) or code(words))
        kzlab.clear_caches()
        made = sum(len(enumerate_by_degree(m, k)) for m in (1, 2, 3) for k in range(5))
        assert made == 882
        assert len(calls) <= 1500

    def test_zero_circles_are_refused_by_both_enumerators(self):
        for call, args in ((enumerate_by_matrix, ((),)),
                           (enumerate_by_degree, (0, 0)),
                           (all_type_matrices, (0, 0))):
            with pytest.raises(InputError, match="need m >= 1"):
                call(*args)
        # The empty link's class sum is a lookup, not an enumeration.
        assert kzlab.verify_theorem(kzlab.parse_word(""), (), 1).passed

    @pytest.mark.parametrize("cells", [((0, 1099, 1),),
                                       tuple((c, c, 1) for c in range(1100))],
                             ids=["one-chord-end-to-end", "unit-diagonal"])
    def test_wide_type_gives_its_one_diagram(self, cells):
        S = [[0] * 1100 for _ in range(1100)]
        for i, j, n in cells:
            S[i][j] = S[j][i] = n
        (diagram,) = enumerate_by_matrix(S)
        assert diagram.type_cells == cells


# == 4. 4T relators and the quotient =========================================


class TestFourTRelators:
    def test_counts(self):
        assert len(four_t_relators(1, 2)) == 0
        assert len(four_t_relators(2, 2)) == 0
        assert len(four_t_relators(1, 3)) == 4
        assert len(four_t_relators(2, 3)) == 16

    def test_arguments_checked_before_the_low_degree_shortcut(self):
        for m, k in ((0, 1), (-3, 0), (1, -1)):
            with pytest.raises(InputError, match="need m >= 1"):
                four_t_relators(m, k)
        assert four_t_relators(1, 1) == ()

    def test_term_structure(self):
        for m in (1, 2):
            for base in enumerate_by_degree(m, 2):
                for placements in four_t_moves(base.code,
                                               lambda size: max(1, size)):
                    assert [sign for _, sign in placements] == [1, -1, -1, 1]
                    diagrams = [ChordDiagram(words) for words, _ in placements]
                    assert {(d.circles, d.degree) for d in diagrams} == {(m, 3)}
                    assert diagrams[0].type_matrix() == diagrams[1].type_matrix()
                    assert diagrams[2].type_matrix() == diagrams[3].type_matrix()

    def test_vectors_are_read_only(self):
        vector = four_t_relators(1, 3)[0]
        before = dict(vector)
        assert all(type(c) is int and c for c in before.values())
        with pytest.raises(TypeError):
            vector[next(iter(vector))] = 0
        assert dict(four_t_relators(1, 3)[0]) == before

    def test_coefficient_sum_vanishes(self):
        for relator in four_t_relators(2, 3):
            assert sum(relator.values()) == 0

    def test_relators_reduce_to_zero(self):
        for m in (1, 2):
            for relator in four_t_relators(m, 3):
                assert reduce_mod_4t(relator) == {}

    def test_one_circle_quotient_dimensions(self):
        assert [quotient_dimension(1, k) for k in range(1, 5)] == [1, 2, 3, 6]

    def test_two_circle_quotient_dimensions(self):
        assert [quotient_dimension(2, k) for k in range(1, 4)] == [3, 8, 19]

    def test_three_circle_quotient_dimensions(self):
        assert [quotient_dimension(3, k) for k in range(1, 4)] == [6, 24, 80]

    def test_quotient_dimension_against_sympy_rank(self):
        sympy = pytest.importorskip("sympy")
        for m, k in ((1, 2), (1, 3), (2, 2), (2, 3)):
            basis = enumerate_by_degree(m, k)
            index = {d: i for i, d in enumerate(basis)}
            rows = []
            for relator in four_t_relators(m, k):
                row = [0] * len(basis)
                for d, c in relator.items():
                    row[index[d]] = c
                rows.append(row)
            rank = sympy.Matrix(rows).rank() if rows else 0
            assert quotient_dimension(m, k) == len(basis) - rank


class TestMod4TForm:
    def test_zero_drop_and_equality(self):
        d = ChordDiagram([(1, 1)])
        e = ChordDiagram([(1, 2, 1, 2)])
        assert reduce_mod_4t({d: Fraction(0)}) == {}
        assert reduce_mod_4t({d: Fraction(1, 2), e: Fraction(0)}) == {
            d: Fraction(1, 2)}

    def test_reduction_is_linear(self):
        rng = random.Random(3)
        basis = enumerate_by_degree(1, 3)
        for _ in range(50):
            u = {d: Fraction(rng.randint(-4, 4)) for d in basis}
            v = {d: Fraction(rng.randint(-4, 4)) for d in basis}
            both = {d: u[d] + v[d] for d in basis}
            lhs = reduce_mod_4t(both)
            ru, rv = reduce_mod_4t(u), reduce_mod_4t(v)
            rhs = {d: ru.get(d, 0) + rv.get(d, 0) for d in set(ru) | set(rv)}
            assert lhs == {d: c for d, c in rhs.items() if c}

    def test_residual_canonical_within_coset(self):
        relator = four_t_relators(1, 3)[0]
        d = ChordDiagram([(1, 2, 1, 3, 2, 3)])
        shifted = dict(relator)
        shifted[d] = shifted.get(d, 0) + 1
        assert reduce_mod_4t(shifted) == reduce_mod_4t({d: 1})


# == 5. Products and serialization ===========================================


class TestProducts:
    def test_connected_sum_insertion_independence_mod_4t(self):
        host = ChordDiagram([(1, 2, 1, 2)])
        insert = ChordDiagram([(1, 1)])
        first, *rest = (reduce_mod_4t({connected_sum(host, insert, gap=g): 1})
                        for g in range(4))
        assert all(value == first for value in rest)

    def test_connected_sum_degree_adds(self):
        a = ChordDiagram([(1, 1, 2, 2)])
        b = ChordDiagram([(1, 1)])
        assert connected_sum(a, b).degree == 3

    def test_relabel_roundtrip(self):
        d = ChordDiagram([(1, 2, 1, 2), (3, 3)])
        moved = d.relabel_circles((2, 1))
        assert moved.type_matrix() == ((1, 0), (0, 2))
        assert moved.relabel_circles((2, 1)) == d
        with pytest.raises(ValueError):
            d.relabel_circles((1, 1))

    def test_json_shape(self):
        d = ChordDiagram([(1, 2), (1, 2)])
        payload = d.json_dict()
        assert payload["circles"] == 2
        assert payload["chords"] == [[[1, 0], [2, 0]], [[1, 1], [2, 1]]]


# == 6. Argument checks ======================================================


def _bare(cutoff):
    return evaluate_fragment((), cutoff)


_ONE = ChordDiagram([(1, 1)])
_TWO = ChordDiagram([(1, 1), ()])
_CLASP = ((0, 1), (1, 0))
_SERIES = {(): Fraction(1), (1, 1): Fraction(1, 2)}


def _chords(word):
    return len(word) // 2


@pytest.mark.parametrize("call", [
    lambda: ChordDiagram([(1,)]),
    lambda: connected_sum(_ONE, ChordDiagram([(), ()])),
    lambda: connected_sum(_ONE, _ONE, circle=3),
    lambda: connected_sum(_ONE, _ONE, gap=9),
    lambda: series_exp({}, concat_words, (1, 1), lambda w: len(w) // 2, 2),
    lambda: series_exp({(): 1}, concat_words, (), lambda w: len(w) // 2, 2),
    lambda: interval_sqrt({(): Fraction(2)}, 2),
    lambda: wheel_attachment_sum((2, 0)),
    # (8 - 1)! * 2**8 leg orders and flips, over the enumeration limit.
    lambda: wheel_attachment_sum((8,)),
    lambda: graft(_bare(1), _bare(2)),
    lambda: wheel_coefficients(-3),
    lambda: wheel_coefficients(2.0),
    lambda: strand_monomials(0, 1),
    lambda: strand_monomials(2.0, 1),
    # Each value below equals an int in range; only its type is wrong.
    lambda: connected_sum(_TWO, _ONE, circle=2.0),
    lambda: connected_sum(_TWO, _ONE, gap=1.0),
    lambda: connected_sum(_TWO, _ONE, circle=True),
    lambda: connected_sum(_TWO, _ONE, gap=True),
    lambda: _TWO.relabel_circles([2.0, 1.0]),
    lambda: _TWO.relabel_circles([True, 2]),
    lambda: kzlab.verify_theorem(kzlab.load_corpus_word("hopf+"),
                                 ((1, 1), (1, 1)), 3, relabel=[2.0, 1.0]),
    lambda: kzlab.verify_theorem(kzlab.load_corpus_word("hopf+"),
                                 ((1, 1), (1, 1)), 3, relabel=[True, 2]),
    lambda: kzlab.kinked_unknot_series(2.0),
    # A linking matrix must be S's size in rows of that length, and each
    # entry read an int or a Fraction.
    lambda: kzlab.linking_monomial([[1], [1]], _CLASP),
    lambda: kzlab.linking_monomial(5, _CLASP),
    lambda: kzlab.linking_monomial([1, 2], _CLASP),
    lambda: kzlab.linking_monomial([[0, None], [None, 0]], _CLASP),
    lambda: kzlab.linking_monomial([[0, "x"], ["x", 0]], _CLASP),
    lambda: kzlab.linking_monomial([[0, True], [True, 0]], _CLASP),
    lambda: kzlab.linking_monomial([[0, 0.5], [0.5, 0]], _CLASP),
    # A series cutoff is an int in 0..MAX_TRUNCATION.
    lambda: interval_sqrt({(): 1}, 2.5),
    lambda: interval_sqrt({(): 1}, True),
    lambda: kzlab.interval_product(_SERIES, _SERIES, -1),
    lambda: kzlab.closed_connected_product({_ONE: 1}, {_ONE: 1}, 2.5),
    lambda: series_product(_SERIES, _SERIES, concat_words, _chords, 2.0),
    lambda: series_exp({(1, 1): 1}, concat_words, (), _chords, -1),
], ids=["chord-labels", "summand-circles", "circle-index", "gap-index",
        "exp-unit", "exp-constant", "sqrt-constant", "wheel-sizes", "wheel-work",
        "graft-cutoffs", "wheel-order", "wheel-order-float", "strand-count",
        "strand-count-float", "circle-index-float", "gap-index-float",
        "circle-index-bool", "gap-index-bool", "perm-float", "perm-bool",
        "theorem-perm-float", "theorem-perm-bool", "kinked-cutoff-float",
        "linking-ragged", "linking-not-rows", "linking-rows-ints",
        "linking-none", "linking-str", "linking-bool", "linking-float",
        "sqrt-cutoff-float", "sqrt-cutoff-bool", "product-cutoff-negative",
        "connected-cutoff-float", "series-cutoff-float", "exp-cutoff-negative"])
def test_bad_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("call", [
    lambda: interval_sqrt({(): 1}, 3000),
    lambda: kzlab.interval_product(_SERIES, _SERIES, 5),
    lambda: kzlab.closed_connected_product({_ONE: 1}, {_ONE: 1}, 10 ** 9),
    lambda: series_exp({(1, 1): 1}, concat_words, (), _chords, 5),
], ids=["sqrt", "product", "connected", "exp"])
def test_series_cutoff_over_the_cap_is_refused_at_once(call):
    with pytest.raises(TruncationUnsupportedError, match="maximum 4"):
        call()
