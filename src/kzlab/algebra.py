"""Series algebra for chord diagrams: wheels, the unknot series, square roots.

Three layers live here.

Word layer: a diagram on a single interval is a linear word listing chord
ids in order along the interval, each id twice.  Words multiply by
concatenation (with fresh ids for the right factor) and close up into
one-circle chord diagrams.  Series are finite word -> coefficient maps
with exact rational coefficients.

Wheel layer: a wheel with 2n spokes is the trivalent graph whose hub is a
cycle of 2n vertices, each carrying one pendant leg.  Attaching all legs
of a wheel collection to a circle and resolving every trivalent vertex by
the STU rule yields a chord diagram combination.  Each hub vertex
resolves independently of the others, into its two hub edges in one of
two orders, so the combination is a direct sum over one sign per vertex.
Summing over all cyclic leg orders gives the symmetrized attachment.

Invariant layer: the series of the zero-framed unknot is assembled from
symmetrized wheel attachments weighted by the exponential of
sum_n  b_2n * (wheel with 2n spokes),
where b_2n is the x^2n coefficient of (1/2) log(sinh(x/2) / (x/2)).
Its interval form has a unique square root with unit constant term, which
is what a single cap or cup contributes inside the tangle engine.

The cached tables are handed out as read-only mappings, so no caller can
change what a later call returns.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .diagrams import ChordDiagram, _check_work, _relabel, connected_sum
from .errors import InputError, TruncationUnsupportedError
from .sparse import add_term

Word = tuple[int, ...]

MAX_TRUNCATION = 4
MAX_WHEEL_ORDER = 64


# -- Linear words ------------------------------------------------------------


def concat_words(left: Sequence[int], right: Sequence[int]) -> Word:
    """Concatenate two words, keeping the right factor's chords distinct."""
    shift = max(left, default=0)
    return _relabel([tuple(left) + tuple(x + shift for x in right)])[0]


# -- Generic series combinators ----------------------------------------------
#
# Each takes its cutoff as an int in 0..MAX_TRUNCATION, checked first: the
# work grows with it, and no caller needs more.


def _check_truncation(cutoff: int, limit: int = MAX_TRUNCATION, scope: str = "") -> None:
    """Refuse a cutoff that is not an int >= 0 (InputError) or is over
    limit (TruncationUnsupportedError, its message ending in scope)."""
    if type(cutoff) is not int or cutoff < 0:
        raise InputError("truncation degree must be a nonnegative int")
    if cutoff > limit:
        raise TruncationUnsupportedError(
            f"truncation degree {cutoff} exceeds the supported maximum {limit}{scope}")


def _check_degree(k: int, cutoff: int, subject: str) -> None:
    """Refuse a degree k not an int >= 0 (InputError), or one over a
    series' cutoff (TruncationUnsupportedError, naming its subject)."""
    if type(k) is not int or k < 0:
        raise InputError("degree k must be nonnegative and an int")
    if k > cutoff:
        raise TruncationUnsupportedError(
            f"{subject} needs degree {k} but the series is truncated at {cutoff}")


def series_product(a: Mapping, b: Mapping, product: Callable,
                   degree: Callable, cutoff: int) -> dict:
    """Bilinear extension of a product on keys, truncated by degree."""
    _check_truncation(cutoff)
    out: dict = {}
    for ka, ca in a.items():
        if not ca:
            continue
        for kb, cb in b.items():
            if not cb:
                continue
            key = product(ka, kb)
            if degree(key) <= cutoff:
                add_term(out, key, ca * cb)
    return out


def series_exp(x: Mapping, product: Callable, unit, degree: Callable,
               cutoff: int) -> dict:
    """exp(x) for a series with no constant term, under the given product."""
    _check_truncation(cutoff)
    if degree(unit) != 0:
        raise InputError("unit key must have degree 0")
    if any(degree(k) == 0 and c for k, c in x.items()):
        raise InputError("exponent must have no constant term")
    out = {unit: Fraction(1)}
    power: dict = {unit: Fraction(1)}
    factorial = 1
    for j in range(1, cutoff + 1):
        power = series_product(power, x, product, degree, cutoff)
        if not power:
            break
        factorial *= j
        for key, coeff in power.items():
            add_term(out, key, coeff / factorial)
    return out


def interval_product(a: Mapping[Word, Fraction], b: Mapping[Word, Fraction],
                     cutoff: int) -> dict[Word, Fraction]:
    """Concatenation product of interval series, truncated by chord count."""
    return series_product(a, b, concat_words, lambda w: len(w) // 2, cutoff)


def interval_sqrt(series: Mapping[Word, Fraction], cutoff: int) -> dict[Word, Fraction]:
    """The square root with unit constant term, degree by degree.

    Writing s = 1 + s_1 + s_2 + ... and matching graded pieces of s * s
    against the input gives 2 s_d = f_d - sum of the mixed lower products,
    which determines s uniquely over the rationals.
    """
    _check_truncation(cutoff)
    if series.get((), Fraction(0)) != 1:
        raise InputError("series must have constant term 1")
    graded: dict[int, dict[Word, Fraction]] = {}
    for word, coeff in series.items():
        graded.setdefault(len(word) // 2, {})[word] = Fraction(coeff)
    root: dict[int, dict[Word, Fraction]] = {0: {(): Fraction(1)}}
    for d in range(1, cutoff + 1):
        piece = dict(graded.get(d, {}))
        for i in range(1, d):
            mixed = interval_product(root[i], root[d - i], cutoff)
            for word, coeff in mixed.items():
                add_term(piece, word, -coeff)
        root[d] = {word: coeff / 2 for word, coeff in piece.items()}
    out: dict[Word, Fraction] = {}
    for piece in root.values():
        out.update(piece)
    return out


def closed_connected_product(a: Mapping[ChordDiagram, Fraction],
                             b: Mapping[ChordDiagram, Fraction],
                             cutoff: int) -> dict[ChordDiagram, Fraction]:
    """Connected-sum product of one-circle diagram series."""
    return series_product(a, b, connected_sum, lambda d: d.degree, cutoff)


# -- Wheels ------------------------------------------------------------------


def wheel_coefficients(max_order: int) -> Mapping[int, Fraction]:
    """Coefficients b_2n of x^2n in (1/2) log(sinh(x/2) / (x/2)), 2n <= max_order.

    The series under the log is sum_n (x/2)^2n / (2n+1)!, expanded exactly
    over the rationals.  Only even orders appear.  max_order must be an
    int from 0 to MAX_WHEEL_ORDER (InputError otherwise): the work grows
    about as max_order^3.5, so the bound keeps one call to a fraction of
    a second.
    """
    # Checked before the cache, which would answer 2.0 as 2 if untyped.
    if type(max_order) is not int or max_order < 0:
        raise InputError(f"wheel order must be an int >= 0, got {max_order!r}")
    if max_order > MAX_WHEEL_ORDER:
        raise InputError(f"wheel order {max_order} exceeds the supported maximum "
                         f"{MAX_WHEEL_ORDER}")
    return _wheel_coefficients(max_order)


@lru_cache(maxsize=None)
def _wheel_coefficients(max_order: int) -> Mapping[int, Fraction]:
    # f = sinh(x/2)/(x/2) - 1, as coefficient list indexed by power of x.
    f = [Fraction(0)] * (max_order + 1)
    fact = 1
    for n in range(1, max_order // 2 + 1):
        fact *= (2 * n) * (2 * n + 1)
        f[2 * n] = Fraction(1, fact * 4 ** n)
    log = [Fraction(0)] * (max_order + 1)
    power = [Fraction(1)] + [Fraction(0)] * max_order
    for j in range(1, max_order // 2 + 1):
        nxt = [Fraction(0)] * (max_order + 1)
        for i, c in enumerate(power):
            if not c:
                continue
            for k in range(1, max_order + 1 - i):
                if f[k]:
                    nxt[i + k] += c * f[k]
        power = nxt
        sign = Fraction((-1) ** (j + 1), j)
        for i, c in enumerate(power):
            log[i] += sign * c
    return MappingProxyType(
        {2 * n: log[2 * n] / 2 for n in range(1, max_order // 2 + 1)})


wheel_coefficients.cache_info = _wheel_coefficients.cache_info


def wheel_attachment_sum(sizes: Sequence[int]) -> Mapping[ChordDiagram, Fraction]:
    """Sum of STU-resolved attachments over all cyclic orders of the legs.

    Vertex j of a wheel block starting at vertex `start` lies between hub
    edges start + (j - 1) % size and start + j.  Resolving it replaces its
    leg site on the circle by two adjacent sites receiving those edges, in
    hub order with sign +1 and swapped with sign -1.  No vertex's
    resolution touches another's, so the resolved attachment is one direct
    sum over a flip per vertex, weighted by the product of the flips; each
    hub edge then ends on two sites, which makes it a chord.  The first
    vertex is pinned to break the rotational symmetry of the circle; the
    remaining legs range over all linear orders: (n - 1)! 2**n terms for n
    legs, refused (InputError) over ENUMERATION_LIMIT, so n <= 7 runs.
    """
    # Checked before the cache, which would answer (2.0,) as (2,); read
    # once, so an iterator's sizes are the ones checked and summed.
    legs = tuple(sizes) if isinstance(sizes, Iterable) else (None,)
    if not all(type(size) is int and size >= 1 for size in legs):
        raise InputError(f"wheel sizes must be ints >= 1, got {sizes!r}")
    _check_work("the leg orders and flips of these wheels", itertools.chain(
        range(1, sum(legs)), itertools.repeat(2, sum(legs))))
    return _wheel_attachment_sum(legs)


@lru_cache(maxsize=None)
def _wheel_attachment_sum(sizes: tuple[int, ...]) -> Mapping[ChordDiagram, Fraction]:
    if not sizes:
        return MappingProxyType({ChordDiagram([()]): Fraction(1)})
    hub: list[tuple[int, int]] = []
    for size in sizes:
        start = len(hub)
        hub += [(start + (j - 1) % size, start + j) for j in range(size)]
    out: dict[ChordDiagram, Fraction] = {}
    for rest in itertools.permutations(range(1, len(hub))):
        for flips in itertools.product((1, -1), repeat=len(hub)):
            word: list[int] = []
            for vertex in (0,) + rest:
                before, after = hub[vertex]
                word += (before, after) if flips[vertex] == 1 else (after, before)
            add_term(out, ChordDiagram([word]), prod(flips))
    return MappingProxyType(out)


wheel_attachment_sum.cache_info = _wheel_attachment_sum.cache_info


def _wheel_multisets(cutoff: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of even sizes >= 2 with total at most cutoff."""
    evens = range(cutoff - cutoff % 2, 1, -2)
    for count in range(cutoff // 2 + 1):
        for sizes in itertools.combinations_with_replacement(evens, count):
            if sum(sizes) <= cutoff:
                yield sizes


# -- The unknot series -------------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def unknot_series_closed(cutoff: int) -> Mapping[ChordDiagram, Fraction]:
    """Invariant series of the zero-framed unknot, through the given degree.

    Expands exp(sum_n b_2n * wheel_2n) as weighted wheel multisets, then
    symmetrizes each multiset onto the circle.  A multiset of wheels with
    multiplicities m_s carries weight prod b_s^m_s / m_s!.
    """
    _check_truncation(cutoff)
    weights = wheel_coefficients(cutoff) if cutoff >= 2 else {}
    out: dict[ChordDiagram, Fraction] = {}
    for sizes in _wheel_multisets(cutoff):
        coeff = Fraction(1)
        for size in set(sizes):
            mult = sizes.count(size)
            coeff *= weights[size] ** mult / factorial(mult)
        for diagram, inner in wheel_attachment_sum(sizes).items():
            add_term(out, diagram, coeff * inner)
    return MappingProxyType(out)


def unknot_series_interval(cutoff: int) -> Mapping[Word, Fraction]:
    """The unknot series cut open at the basepoint of each canonical code."""
    out: dict[Word, Fraction] = {}
    for diagram, coeff in unknot_series_closed(cutoff).items():
        add_term(out, diagram.code[0], coeff)
    return MappingProxyType(out)


@lru_cache(maxsize=None, typed=True)
def sqrt_unknot_series(cutoff: int) -> Mapping[Word, Fraction]:
    """Interval square root of the unknot series; the per-cap contribution."""
    return MappingProxyType(interval_sqrt(unknot_series_interval(cutoff), cutoff))
