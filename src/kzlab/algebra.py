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
the STU rule yields a chord diagram combination.  Summing over all cyclic
leg orders gives the symmetrized attachment.

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
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .diagrams import ChordDiagram, _relabel, add_term, connected_sum
from .errors import InputError, TruncationUnsupportedError

Word = tuple[int, ...]

MAX_TRUNCATION = 4


# -- Linear words ------------------------------------------------------------


def concat_words(left: Sequence[int], right: Sequence[int]) -> Word:
    """Concatenate two words, keeping the right factor's chords distinct."""
    shift = max(left, default=0)
    return _relabel([tuple(left) + tuple(x + shift for x in right)])[0]


# -- Generic series combinators ----------------------------------------------


def series_product(a: Mapping, b: Mapping, product: Callable,
                   degree: Callable, cutoff: int) -> dict:
    """Bilinear extension of a product on keys, truncated by degree."""
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


@lru_cache(maxsize=None)
def wheel_coefficients(max_order: int) -> Mapping[int, Fraction]:
    """Coefficients b_2n of x^2n in (1/2) log(sinh(x/2) / (x/2)), 2n <= max_order.

    The series under the log is sum_n (x/2)^2n / (2n+1)!, expanded exactly
    over the rationals.  Only even orders appear.
    """
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


def _wheel_edges(sizes: Sequence[int]) -> tuple[dict[int, tuple[int, int]], int]:
    """Hub edge map for disjoint wheels; vertices are numbered by block.

    Edge j of a wheel block joins block vertices j and j+1 (cyclically).
    Returns {vertex: (edge before it, edge after it)} and the vertex count.
    """
    incident: dict[int, tuple[int, int]] = {}
    offset = 0
    for size in sizes:
        for j in range(size):
            vertex = offset + j
            incident[vertex] = (offset + (j - 1) % size, offset + j)
        offset += size
    return incident, offset


def resolve_wheel_attachment(sizes: tuple[int, ...], leg_cycle: tuple[int, ...],
                             elimination_order: tuple[int, ...] | None = None,
                             ) -> dict[ChordDiagram, Fraction]:
    """STU-resolve wheels whose legs sit on a circle in the given cyclic order.

    Each trivalent hub vertex is removed in turn: its leg site on the
    circle is replaced by two adjacent sites receiving the two hub edges
    at that vertex, in hub order with sign +1 and swapped with sign -1.
    The outcome is independent of the elimination order.
    """
    incident, count = _wheel_edges(sizes)
    if sorted(leg_cycle) != list(range(count)):
        raise InputError("leg cycle must list every wheel vertex exactly once")
    order = elimination_order if elimination_order is not None else tuple(range(count))
    if sorted(order) != list(range(count)):
        raise InputError("elimination order must list every vertex exactly once")

    # Sites carry opaque tokens; edge endpoints name either a vertex or a token.
    sites: list[object] = [("leg", v) for v in leg_cycle]
    ends: dict[int, list[object]] = {}
    for vertex, (before, after) in incident.items():
        ends.setdefault(before, []).append(("v", vertex))
        ends.setdefault(after, []).append(("v", vertex))

    out: dict[ChordDiagram, Fraction] = {}
    fresh = itertools.count()
    pending: list[tuple[list[object], dict[int, list[object]], int, int]] = [
        (sites, ends, 0, 1)]
    while pending:
        sites, ends, step, sign = pending.pop()
        if step == len(order):
            label_of = {}
            for edge, endpoints in ends.items():
                for endpoint in endpoints:
                    label_of[endpoint] = edge
            word = [label_of[token] for token in sites]
            add_term(out, ChordDiagram([word]), sign)
            continue
        vertex = order[step]
        p = sites.index(("leg", vertex))
        before, after = incident[vertex]
        ra, rb = ("s", next(fresh)), ("s", next(fresh))
        for flip in (1, -1):
            new_sites = sites[:p] + [ra, rb] + sites[p + 1:]
            new_ends = {e: list(pts) for e, pts in ends.items()}
            first, second = (ra, rb) if flip == 1 else (rb, ra)
            new_ends[before][new_ends[before].index(("v", vertex))] = first
            new_ends[after][new_ends[after].index(("v", vertex))] = second
            pending.append((new_sites, new_ends, step + 1, sign * flip))
    return out


@lru_cache(maxsize=None)
def wheel_attachment_sum(sizes: tuple[int, ...]) -> Mapping[ChordDiagram, Fraction]:
    """Sum of resolved attachments over all cyclic orders of the legs.

    The first vertex is pinned to break rotational symmetry of the circle;
    the remaining legs range over all linear orders.
    """
    if not sizes:
        return MappingProxyType({ChordDiagram([()]): Fraction(1)})
    _, count = _wheel_edges(sizes)
    out: dict[ChordDiagram, Fraction] = {}
    for rest in itertools.permutations(range(1, count)):
        for diagram, coeff in resolve_wheel_attachment(sizes, (0,) + rest).items():
            add_term(out, diagram, coeff)
    return MappingProxyType(out)


def _wheel_multisets(cutoff: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of even sizes >= 2 with total at most cutoff."""

    def rec(budget: int, largest: int) -> Iterator[tuple[int, ...]]:
        yield ()
        size = min(largest, budget)
        size -= size % 2
        while size >= 2:
            for tail in rec(budget - size, size):
                yield (size,) + tail
            size -= 2

    yield from rec(cutoff, cutoff)


# -- The unknot series -------------------------------------------------------


def _check_truncation(cutoff: int) -> None:
    if cutoff < 0:
        raise InputError("truncation degree must be nonnegative")
    if cutoff > MAX_TRUNCATION:
        raise TruncationUnsupportedError(
            f"truncation degree {cutoff} exceeds the supported maximum "
            f"{MAX_TRUNCATION}")


@lru_cache(maxsize=None)
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
        for size, mult in ((s, sizes.count(s)) for s in set(sizes)):
            coeff *= weights[size] ** mult
            for i in range(1, mult + 1):
                coeff /= i
        for diagram, inner in wheel_attachment_sum(sizes).items():
            add_term(out, diagram, coeff * inner)
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def unknot_series_interval(cutoff: int) -> Mapping[Word, Fraction]:
    """The unknot series cut open at the basepoint of each canonical code."""
    out: dict[Word, Fraction] = {}
    for diagram, coeff in unknot_series_closed(cutoff).items():
        add_term(out, diagram.code[0], coeff)
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def sqrt_unknot_series(cutoff: int) -> Mapping[Word, Fraction]:
    """Interval square root of the unknot series; the per-cap contribution."""
    return MappingProxyType(interval_sqrt(unknot_series_interval(cutoff), cutoff))
