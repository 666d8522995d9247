"""
Unit tests for canonical chord diagrams, enumeration, and the 4T quotient.

Core claims:
    - Canonicalization is idempotent and invariant under circle rotations
    - A cached diagram's code cannot be assigned or deleted; diagrams
      still pickle and copy
    - The pruned search agrees with the exhaustive minimum over every
      combination of circle rotations (a test-only second route), on
      random diagrams (m <= 4 circles, k <= 6 chords, empty circles among
      them) and on forced symmetries that tie under several namings
    - Chord labels must occur exactly twice; empty circles are fine
    - Type matrices count chords by endpoint circles, symmetrically; a
      TypeMatrix is square, symmetric and natural (int entries only),
      is built once, and knows its degree, which no caller can reset
    - Degree lists on one circle have sizes 1, 1, 2, 5, 18 up to degree 4
    - Type families partition each degree list (m <= 3, k <= 4)
    - The placements generator yields C(2k+p-1, p-1) (2k-1)!! label
      lists for k chords on p words (p <= 3, k <= 3)
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
    - Bad caller input to public functions raises InputError, not a plain
      ValueError, in diagrams, algebra and graft
"""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from kzlab.algebra import (
    concat_words, interval_sqrt, resolve_wheel_attachment, series_exp,
)
from kzlab.diagrams import (
    ChordDiagram,
    TypeMatrix,
    _placements,
    _relabel,
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
from kzlab.errors import InputError
from kzlab.qtangle.engine import evaluate_fragment, graft


# -- Helpers -----------------------------------------------------------------


def _random_words(rng: random.Random, circles: int, degree: int):
    labels = list(range(1, degree + 1)) * 2
    rng.shuffle(labels)
    cuts = sorted(rng.randint(0, 2 * degree) for _ in range(circles - 1))
    bounds = [0] + cuts + [2 * degree]
    return [tuple(labels[bounds[i]:bounds[i + 1]]) for i in range(circles)]


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
    def test_agrees_with_the_exhaustive_minimum(self, words):
        assert canonical_code(words) == _exhaustive_code(words)

    def test_label_renaming_is_immaterial(self):
        a = ChordDiagram([("x", "y", "x", "y")])
        b = ChordDiagram([(9, 4, 9, 4)])
        assert a == b and hash(a) == hash(b)

    def test_labels_must_pair_up(self):
        with pytest.raises(ValueError, match="exactly twice"):
            ChordDiagram([(1, 1, 2)])
        with pytest.raises(ValueError, match="exactly twice"):
            ChordDiagram([(1, 2), (1, 2), (2,)])

    def test_empty_circles_allowed(self):
        d = ChordDiagram([(), (1, 1), ()])
        assert d.circles == 3 and d.degree == 1

    def test_circles_are_not_interchangeable(self):
        a = ChordDiagram([(1, 1), ()])
        b = ChordDiagram([(), (1, 1)])
        assert a != b

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
        assert [len(enumerate_by_degree(1, k)) for k in range(5)] == [1, 1, 2, 5, 18]

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

    def test_deterministic_order(self):
        family = enumerate_by_degree(2, 2)
        assert list(family) == sorted(family)

    def test_single_pure_linking_diagram(self):
        assert len(enumerate_by_matrix(((0, 1), (1, 0)))) == 1

    def test_placement_counts(self):
        for parts in (1, 2, 3):
            for k in range(4):
                pairings = math.prod(range(1, 2 * k, 2))
                expected = math.comb(2 * k + parts - 1, parts - 1) * pairings
                assert sum(1 for _ in _placements(k, parts)) == expected


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


@pytest.mark.parametrize("call", [
    lambda: ChordDiagram([(1,)]),
    lambda: connected_sum(_ONE, ChordDiagram([(), ()])),
    lambda: connected_sum(_ONE, _ONE, circle=3),
    lambda: connected_sum(_ONE, _ONE, gap=9),
    lambda: series_exp({}, concat_words, (1, 1), lambda w: len(w) // 2, 2),
    lambda: series_exp({(): 1}, concat_words, (), lambda w: len(w) // 2, 2),
    lambda: interval_sqrt({(): Fraction(2)}, 2),
    lambda: resolve_wheel_attachment((2,), (0, 0)),
    lambda: resolve_wheel_attachment((2,), (0, 1), (0, 0)),
    lambda: graft(_bare(1), _bare(2)),
], ids=["chord-labels", "summand-circles", "circle-index", "gap-index",
        "exp-unit", "exp-constant", "sqrt-constant", "leg-cycle",
        "elimination-order", "graft-cutoffs"])
def test_bad_arguments_raise_input_error(call):
    with pytest.raises(InputError):
        call()
