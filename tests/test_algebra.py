"""
Unit tests for interval word series, wheels, and the unknot value.

Core claims:
    - Word normalization renames tokens by first occurrence; concat,
      and closure behave as stated
    - series_exp matches its defining sum for a one-chord exponent
    - interval_sqrt squares back to the input on random unit series
    - add_term keeps Fraction coefficients, a first one included, and
      keeps no key at zero
    - Wheel weights are 1/48, -1/5760, 1/362880, -1/19353600, matching
      the Bernoulli-number oracle B_2n / (4n (2n)!)
    - A wheel order over MAX_WHEEL_ORDER (64) is an input error raised
      before the cache, so 10**9 is refused at once; order 4 keeps its
      weights
    - Resolving the two-wheel over all leg orders gives 2(1122) - 2(1212)
    - A wheel size that is not an int >= 1 is an input error, also when
      an equal int tuple is cached
    - The one-wheel and two-wheel attachments of four legs have their
      frozen 12- and 6-diagram tables
    - Per-degree coefficient sums of every attachment sum vanish, up to
      six legs
    - The closed unknot series has the frozen degree-3 and degree-4
      values (all 18 coefficients), is even,
      and its interval square root closes back onto it exactly
    - Its gl_N values, each chord the swap, are the h^k coefficients of
      the quantum dimension sinh(Nh/2) / sinh(h/2) for N = 1..6 in
      degrees 0-3, and at N = 1 in degree 4; degree 4 at N >= 2 is a
      strict xfail, 6 times the target (ROADMAP item 1), as the frozen
      degree-4 table is
    - Truncation degrees above 4 are rejected; a negative one is an
      input error
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from kzlab.algebra import (
    MAX_TRUNCATION,
    MAX_WHEEL_ORDER,
    concat_words,
    interval_product,
    interval_sqrt,
    series_exp,
    sqrt_unknot_series,
    unknot_series_closed,
    unknot_series_interval,
    wheel_attachment_sum,
    wheel_coefficients,
)
from kzlab.diagrams import ChordDiagram, _relabel
from kzlab.errors import InputError, TruncationUnsupportedError
from kzlab.sparse import add_term


def _closed(series):
    """An interval series with each word's ends joined into a circle."""
    out = {}
    for word, coeff in series.items():
        add_term(out, ChordDiagram([word]), coeff)
    return out


def _gl_degree_sums(series, N):
    """The gl_N weight system on a one-circle series, summed by degree.

    Each chord acts as the swap of two factors of the defining
    representation, so a diagram is N to the cycles of i -> partner(i) + 1
    on its 2k points; a bare circle is the trace of 1, N."""
    sums = {}
    for diagram, coeff in series.items():
        word, = diagram.code
        n = len(word)
        partner = {i: j for i in range(n) for j in range(n)
                   if i != j and word[i] == word[j]}
        seen, cycles = set(), 0 if n else 1
        for start in range(n):
            cycles += start not in seen
            i = start
            while i not in seen:
                seen.add(i)
                i = (partner[i] + 1) % n
        sums[diagram.degree] = sums.get(diagram.degree, 0) + coeff * N ** cycles
    return sums


def _quantum_dimension(N, top):
    """The h^0..h^top coefficients of sinh(Nh/2) / sinh(h/2), exactly, by
    dividing the two series sinh(xh/2) / h = sum x^(k+1) h^k / (2^(k+1) (k+1)!)
    over even k."""
    def over_h(x):
        return [Fraction(x ** (k + 1), 2 ** (k + 1) * factorial(k + 1)) if k % 2 == 0
                else Fraction(0) for k in range(top + 1)]

    num, den = over_h(N), over_h(1)
    out = []
    for k in range(top + 1):
        out.append((num[k] - sum(out[i] * den[k - i] for i in range(k))) / den[0])
    return out


def _table(values):
    """A one-circle diagram series from canonical words and coefficients."""
    return {ChordDiagram([word]): Fraction(coeff) for word, coeff in values.items()}


# == 1. Interval words =======================================================


class TestWords:
    def test_normalize_first_occurrence(self):
        assert _relabel([(7, 3, 7, 3)]) == ((1, 2, 1, 2),)
        assert _relabel([(7, 3), (), (3, 7)]) == ((1, 2), (), (2, 1))
        assert _relabel([()]) == ((),)

    def test_concat_shifts_right_side(self):
        assert concat_words((1, 1), (1, 2, 1, 2)) == (1, 1, 2, 3, 2, 3)
        assert concat_words((), (1, 1)) == (1, 1)


class TestSeries:
    def test_exp_of_single_chord_interval(self):
        one = {(1, 1): Fraction(1, 2)}
        out = series_exp(one, concat_words, (), lambda w: len(w) // 2, 4)
        for k in range(5):
            word = tuple(x for t in range(1, k + 1) for x in (t, t))
            assert out.get(word, 0) == Fraction(1, factorial(k) * 2 ** k)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_exp({(): Fraction(1)}, concat_words, (),
                       lambda w: len(w) // 2, 3)

    def test_sqrt_squares_back_random(self):
        rng = random.Random(20260823)
        words = list(unknot_series_interval(4))
        for _ in range(25):
            series = {(): Fraction(1)}
            for word in words:
                if word:
                    series[word] = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
            root = interval_sqrt(series, 4)
            squared = interval_product(root, root, 4)
            squared = {w: c for w, c in squared.items() if c}
            assert squared == {w: c for w, c in series.items() if c}

    def test_sqrt_needs_unit_constant(self):
        with pytest.raises(ValueError):
            interval_sqrt({(): Fraction(2)}, 3)

    def test_add_term_stores_fractions_and_drops_zeros(self):
        out = {}
        for key, coeff in (("a", 2), ("b", Fraction(1, 3)), ("c", 0),
                           ("d", Fraction(0)), ("b", Fraction(1, 6)), ("a", -2),
                           ("e", True)):
            add_term(out, key, coeff)
        assert out == {"b": Fraction(1, 2), "e": 1}
        assert [type(c) for c in out.values()] == [Fraction, Fraction]


# == 2. Wheels ===============================================================


class TestWheelWeights:
    def test_frozen_values(self):
        w = wheel_coefficients(8)
        assert w[2] == Fraction(1, 48)
        assert w[4] == Fraction(-1, 5760)
        assert w[6] == Fraction(1, 362880)
        assert w[8] == Fraction(-1, 19353600)

    def test_order_over_the_bound_is_refused_before_the_cache(self):
        assert MAX_WHEEL_ORDER == 64
        before = wheel_coefficients.cache_info()
        for order in (MAX_WHEEL_ORDER + 1, 10**9):
            with pytest.raises(InputError, match="exceeds the supported maximum 64"):
                wheel_coefficients(order)
        assert wheel_coefficients.cache_info() == before
        assert wheel_coefficients(4) == {2: Fraction(1, 48), 4: Fraction(-1, 5760)}

    def test_bernoulli_oracle(self):
        sympy = pytest.importorskip("sympy")
        w = wheel_coefficients(8)
        for n in (1, 2, 3, 4):
            expected = Fraction(int(sympy.bernoulli(2 * n).p),
                                int(sympy.bernoulli(2 * n).q))
            expected /= 4 * n * factorial(2 * n)
            assert w[2 * n] == expected


class TestAttachment:
    def test_two_wheel_resolution(self):
        total = wheel_attachment_sum((2,))
        assert total == {ChordDiagram([(1, 1, 2, 2)]): Fraction(2),
                         ChordDiagram([(1, 2, 1, 2)]): Fraction(-2)}

    def test_frozen_four_leg_tables(self):
        assert wheel_attachment_sum((4,)) == _table({
            (1, 1, 2, 2, 3, 3, 4, 4): 2, (1, 1, 2, 2, 3, 4, 3, 4): -8,
            (1, 1, 2, 3, 2, 4, 3, 4): 8, (1, 1, 2, 3, 4, 2, 3, 4): 8,
            (1, 1, 2, 3, 4, 2, 4, 3): -8, (1, 1, 2, 3, 4, 3, 2, 4): -8,
            (1, 1, 2, 3, 4, 4, 2, 3): 4, (1, 2, 1, 2, 3, 4, 3, 4): 4,
            (1, 2, 1, 3, 4, 2, 3, 4): -16, (1, 2, 1, 3, 4, 2, 4, 3): 8,
            (1, 2, 3, 1, 4, 2, 3, 4): 4, (1, 2, 3, 1, 4, 3, 2, 4): 2,
        })
        assert wheel_attachment_sum((2, 2)) == _table({
            (1, 1, 2, 3, 4, 3, 4, 2): -32, (1, 1, 2, 3, 4, 4, 3, 2): 16,
            (1, 2, 1, 2, 3, 4, 3, 4): 16, (1, 2, 3, 1, 4, 2, 3, 4): -16,
            (1, 2, 3, 1, 4, 3, 2, 4): 8, (1, 2, 3, 4, 1, 2, 3, 4): 8,
        })

    def test_coefficient_sums_vanish(self):
        for sizes in ((2,), (4,), (2, 2), (6,), (4, 2), (2, 2, 2)):
            by_degree: dict[int, Fraction] = {}
            for diagram, coeff in wheel_attachment_sum(sizes).items():
                key = diagram.degree
                by_degree[key] = by_degree.get(key, Fraction(0)) + coeff
            assert all(total == 0 for total in by_degree.values())

    def test_wheel_sizes_validated(self):
        for sizes in ((0,), (-2,), (2, -2), (2, 0), ("2",), (2.5,)):
            with pytest.raises(InputError, match="wheel sizes"):
                wheel_attachment_sum(sizes)
        # (2.0,) and (True,) equal the cached (2,) and (1,), and hash
        # alike, so the sizes are checked before the cache is asked.
        for warm, sizes in (((2,), (2.0,)), ((1,), (True,))):
            wheel_attachment_sum(warm)
            with pytest.raises(InputError, match="wheel sizes"):
                wheel_attachment_sum(sizes)


# == 3. The unknot value =====================================================


class TestUnknotSeries:
    def test_frozen_degree_three_values(self):
        series = unknot_series_closed(3)
        assert series == {
            ChordDiagram([()]): Fraction(1),
            ChordDiagram([(1, 1, 2, 2)]): Fraction(1, 24),
            ChordDiagram([(1, 2, 1, 2)]): Fraction(-1, 24),
        }

    def test_frozen_degree_four_values(self):
        assert unknot_series_closed(4) == _table({
            (): 1,
            (1, 1, 2, 2): Fraction(1, 24), (1, 2, 1, 2): Fraction(-1, 24),
            (1, 1, 2, 2, 3, 3, 4, 4): Fraction(-1, 2880),
            (1, 1, 2, 2, 3, 4, 3, 4): Fraction(1, 720),
            (1, 1, 2, 3, 2, 4, 3, 4): Fraction(-1, 720),
            (1, 1, 2, 3, 4, 2, 3, 4): Fraction(-1, 720),
            (1, 1, 2, 3, 4, 2, 4, 3): Fraction(1, 720),
            (1, 1, 2, 3, 4, 3, 2, 4): Fraction(1, 720),
            (1, 1, 2, 3, 4, 3, 4, 2): Fraction(-1, 144),
            (1, 1, 2, 3, 4, 4, 2, 3): Fraction(-1, 1440),
            (1, 1, 2, 3, 4, 4, 3, 2): Fraction(1, 288),
            (1, 2, 1, 2, 3, 4, 3, 4): Fraction(1, 360),
            (1, 2, 1, 3, 4, 2, 3, 4): Fraction(1, 360),
            (1, 2, 1, 3, 4, 2, 4, 3): Fraction(-1, 720),
            (1, 2, 3, 1, 4, 2, 3, 4): Fraction(-1, 240),
            (1, 2, 3, 1, 4, 3, 2, 4): Fraction(1, 720),
            (1, 2, 3, 4, 1, 2, 3, 4): Fraction(1, 576),
        })

    def test_gl_n_values_are_the_quantum_dimension(self):
        # A second route, through no wheel: the gl_N value of the unknot
        # is [N] = sinh(Nh/2) / sinh(h/2), degree by degree.  At N = 1
        # every degree above 0 vanishes, degree 4 included.
        series = unknot_series_closed(4)
        for N in range(1, 7):
            sums, target = _gl_degree_sums(series, N), _quantum_dimension(N, 4)
            assert target[2] == Fraction(N * (N * N - 1), 24)
            assert target[4] == Fraction(N * (N * N - 1) * (3 * N * N - 7), 5760)
            for k in range(5 if N == 1 else 4):
                assert sums.get(k, 0) == target[k], (N, k)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: unknot_series_closed weights each wheel multiset's "
        "attachment sum over cyclic leg orders without the 1/(n - 1)! that "
        "averages it, so its degree-4 part is 6 times too large"))
    def test_gl_n_degree_four_is_the_quantum_dimension(self):
        series = unknot_series_closed(4)
        for N in range(2, 7):
            sums, target = _gl_degree_sums(series, N), _quantum_dimension(N, 4)
            assert sums[4] == target[4], (N, sums[4] / target[4])

    def test_even_series(self):
        series = unknot_series_closed(4)
        assert all(d.degree % 2 == 0 for d in series)
        assert len([d for d in series if d.degree == 4]) == 15

    def test_interval_cut_closes_back(self):
        for cutoff in (2, 3, 4):
            closed = _closed(unknot_series_interval(cutoff))
            assert closed == unknot_series_closed(cutoff)

    def test_sqrt_closes_to_unknot(self):
        for cutoff in (3, 4):
            root = sqrt_unknot_series(cutoff)
            squared = interval_product(root, root, cutoff)
            assert _closed(squared) == unknot_series_closed(cutoff)

    def test_truncation_cap(self):
        assert MAX_TRUNCATION == 4
        with pytest.raises(TruncationUnsupportedError):
            unknot_series_closed(5)
        with pytest.raises(TruncationUnsupportedError):
            sqrt_unknot_series(9)

    def test_negative_truncation_is_an_input_error(self):
        with pytest.raises(InputError):
            unknot_series_closed(-1)
        with pytest.raises(InputError):
            sqrt_unknot_series(-1)
