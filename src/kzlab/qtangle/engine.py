"""The truncated invariant engine: slice values, composition, integration.

Values of elementary tangles are chord series.  A crossing contributes
exp(g/2 * chord) where g is its geometric sign (crossing sign times the
two direction factors); every cup and cap contributes the interval square
root of the unknot series along its arc; an association contributes a
degree-3 truncation of a rational even associator, cabled over the leaves
of its three blocks with a sign per endpoint on an up-directed point.

Word evaluation tracks, per monomial, one chord-endpoint sequence per
skeleton component, keyed canonically.  The structure (trees, merges,
closures) comes from the words module's cached trace of the slices: its
events drive the kernels and its boundary data fill the fragment value,
so the engine never replays a word itself.  evaluate_fragment runs any
slice range from a given boundary; graft stitches two fragment values at
a shared interface; integrate closes a full word into labeled circles.

Every slice value and every graft is a product of graded series, and
the running terms are kept per degree (number of chords).  A term of
degree d is multiplied only by the parts of degree at most N - d, so no
kernel forms a term over the truncation N: the degree budget is the one
rule that truncates.

Consecutive crossings on the same two strand points, identity slices
between them allowed, form a run.  Their rungs sit next to each other
on both strands in slice order, so once renamed the product of their
series is one exp(G/2 * chord) with G the sum of their geometric signs,
and a run is multiplied once; a run with G = 0 multiplies nothing.  The
crossing replaced by a bare block breaks any run.

The pentagon and the hexagon are checked on the same fragment values:
two words over one open boundary of down strands must evaluate equal,
the hexagon modulo strand-level 4T relators.  The hexagon picks the
associator sign at first use.  The strand quotient is the circles' one
(the diagrams module's placements, 4T move, relator vectors and echelon
reduction) on linear words keyed by their relabeled code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from ..algebra import sqrt_unknot_series
from ..diagrams import (
    ChordDiagram, _placements, _quotient, _relabel, _relator_vectors,
    _residual, add_term, reduce_mod_4t,
)
from ..errors import InputError, TruncationUnsupportedError, WordValidationError
from .words import (
    AssocEvent, Birth, CapEvent, CrossEvent, CupEvent, END, START, Slice,
    _trace, parse_word, trace_word, validate_word,
)

_FRESH = 1000  # inserted tokens start here; keys are renamed before storage


# -- 4T reduction on parallel strands ----------------------------------------


@lru_cache(maxsize=None)
def strand_monomials(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All normalized placements of k chords on n labeled strands."""
    return tuple(sorted({_relabel(words) for words in _placements(k, n)}))


@lru_cache(maxsize=None)
def _strand_reducer(n: int, k: int):
    """The 4T quotient of degree-k strand monomials on n strands.

    Strand words are linear, so a word of length l has l + 1 gaps, both
    ends included.
    """
    return _quotient(strand_monomials(n, k), _relator_vectors(
        k, lambda degree: strand_monomials(n, degree), lambda size: size + 1,
        _relabel))


def reduce_strands_mod_4t(terms: Mapping[tuple[tuple[int, ...], ...], Fraction],
                          ) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Canonical residual of a strand series modulo per-degree 4T spans."""
    return dict(_residual(terms, lambda key: (len(key), sum(map(len, key)) // 2),
                          _strand_reducer))


# -- The associator ----------------------------------------------------------

ASSOCIATOR_WEIGHT = Fraction(1, 24)

# Both ways around the pentagon, from (((1,2),3),4) to (1,(2,(3,4))).
_PENTAGON = ((2, 1, 0), "assoc+@3;assoc+@2",
             "assoc+@2;assoc+@2;assoc+@3")


def _hexagon_words(eps: int) -> tuple[tuple, str, str]:
    x = "x+" if eps > 0 else "x-"
    return ((1, 0),
            f"{x}@1;assoc+@2;{x}@2;assoc-@2;{x}@1",
            f"assoc+@2;{x}@2;assoc-@2;{x}@1;assoc+@2;{x}@2;assoc-@2")


def _difference(depths: tuple[int, ...], lhs: str, rhs: str, cutoff: int,
                sign: int | None) -> dict[tuple[tuple[int, ...], ...], Fraction]:
    """Open strand series of lhs minus rhs, both evaluated upwards from
    the bracketing with these gap depths, every strand directed down."""
    initial = (depths, (START,) * (len(depths) + 1))
    diff: dict = {}
    for word, factor in ((lhs, 1), (rhs, -1)):
        value = evaluate_fragment(parse_word(word), cutoff, initial,
                                  assoc_sign=sign)
        for (open_seqs, _), coeff in value.terms.items():
            add_term(diff, open_seqs, factor * coeff)
    return diff


def pentagon_identity(cutoff: int = 2, sign: int | None = None) -> bool:
    """Both ways around the pentagon agree exactly on four down strands."""
    return not _difference(*_PENTAGON, cutoff, sign)


def hexagon_identity(eps: int = 1, sign: int | None = None,
                     cutoff: int = 2) -> bool:
    """The bracketed braid relation on three down strands, modulo 4T.

    Compares x@1;assoc+@2;x@2;assoc-@2;x@1 with
    assoc+@2;x@2;assoc-@2;x@1;assoc+@2;x@2;assoc-@2 from ((1,2),3), with
    x the crossing of sign eps.  Both sides spell out s1 s2 s1 = s2 s1 s2
    with every rebracketing explicit; the relation follows from the two
    hexagons, so an associator sign that breaks it breaks a hexagon.  The
    sides agree only modulo 4T among chords on open strands, hence the
    reduction.
    """
    return not reduce_strands_mod_4t(
        _difference(*_hexagon_words(eps), cutoff, sign))


@lru_cache(maxsize=None)
def associator_sign() -> int:
    """The frozen sign of the degree-2 associator term, picked at build
    time as the unique choice passing the hexagon."""
    passing = [s for s in (1, -1) if hexagon_identity(eps=1, sign=s)]
    if len(passing) != 1:
        raise RuntimeError(f"hexagon fixes no unique associator sign: {passing}")
    return passing[0]


# -- Word evaluation ---------------------------------------------------------


def max_truncation(slices: Sequence[Slice]) -> int:
    """Highest supported truncation: 3 with association slices, else 4."""
    return 3 if any(s.kind == "assoc" for s in slices) else 4


def _check_cutoff(slices: Sequence[Slice], cutoff: int) -> None:
    if cutoff < 0:
        raise InputError("truncation degree must be nonnegative")
    limit = max_truncation(slices)
    if cutoff > limit:
        raise TruncationUnsupportedError(
            f"truncation degree {cutoff} exceeds the supported maximum {limit} "
            "for this word")


Key = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def _insert_at_point(seq: tuple[int, ...], role: str,
                     tokens: Sequence[int]) -> tuple[int, ...]:
    """Add chord endpoints at a component's boundary point.

    tokens are listed bottom to top.  At an end point the walk meets the
    lowest token first, so they append in order; at a start point the walk
    leaves through the topmost token first, so they prepend reversed.
    """
    if role == END:
        return seq + tuple(tokens)
    return tuple(reversed(tokens)) + seq


Graded = list[dict[Key, Fraction]]   # graded[d]: the terms with d chords


def _multiply(terms: Graded, series: Sequence[Sequence[tuple[object, Fraction]]],
              place: Callable[..., tuple], *, unit_keeps_keys: bool = False,
              ) -> Graded:
    """Multiply graded terms by a graded series, within the truncation.

    series[a] lists the (payload, coefficient) pairs of a chords, and
    place(open_seqs, closed_seqs, payload) returns the product before
    renaming; its open and closed sequences are renamed in one _relabel
    pass, open first, and split again.  With unit_keeps_keys, a payload
    of no chords moves no word (a cup only inserts an empty one), so it
    leaves a normal key normal and its products are stored unrenamed.  A
    term of degree d meets only series degrees up to len(terms) - 1 - d,
    so no product over the truncation is formed.
    """
    cutoff = len(terms) - 1
    out: Graded = [{} for _ in terms]
    for d, bucket in enumerate(terms):
        fits = [(out[d + a], payload, c, a > 0 or not unit_keeps_keys)
                for a, pairs in enumerate(series[:cutoff - d + 1])
                for payload, c in pairs]
        for (open_seqs, closed_seqs), coeff in bucket.items():
            for target, payload, c, rename in fits:
                open_part, closed_part = place(open_seqs, closed_seqs, payload)
                if rename:
                    code = _relabel((*open_part, *closed_part))
                    n = len(open_part)
                    key = (code[:n], code[n:])
                else:
                    key = (tuple(open_part), tuple(closed_part))
                add_term(target, key, coeff * c)
    return out


def _graded(terms: Mapping[Key, Fraction], cutoff: int) -> Graded:
    """Bucket a flat series by chord count, counting each key once."""
    graded: Graded = [{} for _ in range(cutoff + 1)]
    for key, coeff in terms.items():
        graded[sum(map(len, key[0] + key[1])) // 2][key] = coeff
    return graded


def _flatten(terms: Graded) -> dict[Key, Fraction]:
    return {key: coeff for bucket in terms for key, coeff in bucket.items()}


@dataclass(frozen=True)
class FragmentValue:
    """Value of a slice range: per-component chord words, ready to graft.

    Components are identified by birth keys; anchors map a component to
    the positions it holds on the fragment's lower interface, and members
    lists the cup-born keys merged into it (for rebirth after grafting).
    A grafted open chain is born (0, 0, a) at its least anchor a, or at
    its least cup member if it has no anchor; a circle closed by the
    graft is born at its least cup member.
    """

    cutoff: int
    spec_in: tuple
    spec_out: tuple
    leaves: tuple[tuple[Birth, str], ...]
    anchors: Mapping[Birth, tuple[int, ...]]
    members: Mapping[Birth, tuple[Birth, ...]]
    open_order: tuple[Birth, ...]
    closed_order: tuple[Birth, ...]
    terms: dict[Key, Fraction]


def evaluate_fragment(slices: Sequence[Slice], cutoff: int,
                      initial: tuple | None = None,
                      slice_offset: int = 0, *,
                      assoc_sign: int | None = None,
                      bare_block: tuple[int, int] | None = None,
                      ) -> FragmentValue:
    """Evaluate consecutive slices from a boundary (empty by default).

    initial = (depths, roles) gives the lower boundary: roles tags each
    point 'start' or 'end', left to right, and depths[j] is the depth of
    the bracketing node that splits points j and j + 1 (the root at 0),
    so ((0,1),2) is (1, 0).  A fragment's spec_out is such a pair; a
    depth tuple that is no bracketing raises WordValidationError.

    assoc_sign replaces the frozen associator sign (the coherence checks
    try both).  bare_block = (index, k) replaces the crossing at 0-based
    word index `index` (slice_offset counts here) by a bare k-chord block
    with coefficient 1; an index that is not a crossing slice of this
    fragment raises WordValidationError.

    The running terms are kept per degree, and each kernel builds only
    the products that fit within cutoff, so no term over the truncation
    is formed; the returned terms are one flat key -> coefficient dict.
    A run of consecutive crossings on one pair of strand points is one
    kernel, exp(G/2 * chord) for its summed sign G (none when G = 0);
    identity slices do not break a run, and the bare_block crossing
    does, standing as a kernel of its own.
    """
    _check_cutoff(slices, cutoff)
    block_at, block_k = bare_block if bare_block is not None else (None, None)
    trace = _trace(slices, initial, slice_offset)
    if block_at is not None:
        trace.crossing(block_at + 1)   # raises unless a crossing slice here
    open_order: list[Birth] = list(trace.open_in)
    closed_order: list[Birth] = []
    terms: Graded = [{} for _ in range(cutoff + 1)]
    terms[0][(tuple(() for _ in open_order), ())] = Fraction(1)
    # A cup's or cap's arc series on fresh tokens, by primed flag and degree.
    arcs: dict[bool, list[list]] = {False: [[] for _ in terms],
                                    True: [[] for _ in terms]}
    for word, c in sqrt_unknot_series(cutoff).items():
        fresh = tuple(_FRESH + t for t in word)
        arcs[False][len(word) // 2].append((fresh, c))
        arcs[True][len(word) // 2].append((fresh[::-1], c))

    def run_key(item):
        # Consecutive crossings on one pair of strand points share a key,
        # except the bare block; any other slice is a group of its own.
        at, event = item
        if isinstance(event, CrossEvent) and at != block_at:
            return frozenset((event.left, event.right))
        return at

    for _, group in itertools.groupby(trace.events, key=run_key):
        run = list(group)
        at, event = run[0]
        if isinstance(event, CupEvent):
            idx = len([b for b in open_order if b < event.component])
            open_order.insert(idx, event.component)

            def place(open_seqs, closed_seqs, fresh):
                return open_seqs[:idx] + (fresh,) + open_seqs[idx:], closed_seqs
            terms = _multiply(terms, arcs[event.primed], place, unit_keeps_keys=True)
        elif isinstance(event, CapEvent):
            if event.closes:
                i = open_order.index(event.merged)
                open_order.pop(i)
                pos = len([b for b in closed_order if b < event.merged])
                closed_order.insert(pos, event.merged)

                def place(open_seqs, closed_seqs, fresh):
                    circle = open_seqs[i] + fresh
                    return (open_seqs[:i] + open_seqs[i + 1:],
                            closed_seqs[:pos] + (circle,) + closed_seqs[pos:])
            else:
                ia = open_order.index(event.ending)
                ib = open_order.index(event.starting)
                for b in sorted((ia, ib), reverse=True):
                    open_order.pop(b)
                idx = len([b for b in open_order if b < event.merged])
                open_order.insert(idx, event.merged)

                def place(open_seqs, closed_seqs, fresh):
                    joined = open_seqs[ia] + fresh + open_seqs[ib]
                    rest = [q for i, q in enumerate(open_seqs) if i not in (ia, ib)]
                    rest.insert(idx, joined)
                    return rest, closed_seqs
            terms = _multiply(terms, arcs[event.primed], place)
        elif isinstance(event, CrossEvent):
            # weights[k] holds the k-chord rungs with their coefficient.
            if at == block_at:
                weights = [[] for _ in range(block_k)]
                weights.append([(tuple(_FRESH + t for t in range(block_k)),
                                 Fraction(1))])
            else:
                # A run's rungs stack on both strands in slice order, so
                # its value is exp(G/2 * chord), G its summed sign.
                g = sum(e.geometric_sign for _, e in run)
                if not g:
                    continue
                weights = [[(tuple(_FRESH + t for t in range(k)),
                             Fraction(g) ** k / (2 ** k * factorial(k)))]
                           for k in range(cutoff + 1)]
            (cl, role_l), (cr, role_r) = event.left, event.right
            il, ir = open_order.index(cl), open_order.index(cr)

            def place(open_seqs, closed_seqs, rungs):
                seqs = list(open_seqs)
                seqs[il] = _insert_at_point(seqs[il], role_l, rungs)
                seqs[ir] = _insert_at_point(seqs[ir], role_r, rungs)
                return seqs, closed_seqs
            terms = _multiply(terms, weights, place, unit_keeps_keys=True)
        elif isinstance(event, AssocEvent):
            sigma = event.sign * (associator_sign() if assoc_sign is None
                                  else assoc_sign)
            x_block, y_block, z_block = event.blocks
            # The unit term, no degree-1 term, and the 2-chord lifts.
            lifts: list[list[tuple[dict[int, list[int]], Fraction]]] = [
                [({}, Fraction(1))], [], []]
            for first, second, monomial_sign in (
                    ((x_block, y_block), (y_block, z_block), 1),
                    ((y_block, z_block), (x_block, y_block), -1)):
                for e1a, e1b in itertools.product(first[0], first[1]):
                    for e2a, e2b in itertools.product(second[0], second[1]):
                        by_leaf: dict[int, list[int]] = {}
                        orient = 1
                        for level, (ea, eb) in enumerate(((e1a, e1b), (e2a, e2b))):
                            for pos, _, role in (ea, eb):
                                by_leaf.setdefault(pos, []).append(_FRESH + level)
                                if role == END:
                                    orient = -orient
                        coeff = sigma * monomial_sign * ASSOCIATOR_WEIGHT * orient
                        lifts[2].append((by_leaf, coeff))
            leaf_at = {pos: (open_order.index(comp), role)
                       for block in event.blocks for pos, comp, role in block}

            def place(open_seqs, closed_seqs, by_leaf):
                seqs = list(open_seqs)
                for pos, tokens in by_leaf.items():
                    i, role = leaf_at[pos]
                    seqs[i] = _insert_at_point(seqs[i], role, tokens)
                return seqs, closed_seqs
            terms = _multiply(terms, lifts, place, unit_keeps_keys=True)

    return FragmentValue(
        cutoff=cutoff,
        spec_in=trace.spec_in,
        spec_out=trace.spec_out,
        leaves=trace.leaves,
        anchors=trace.anchors,
        members=trace.members,
        open_order=tuple(open_order),
        closed_order=tuple(closed_order),
        terms=_flatten(terms),
    )


def graft(lower: FragmentValue, upper: FragmentValue) -> FragmentValue:
    """Stitch an upper fragment onto a lower one at a shared interface.

    The lower fragment's top boundary must match the upper fragment's
    initial spec (shape and directions).  Components are joined along the
    interface into walks, each walked once.  A walk that ends where it
    began is a new circle: its birth is its least cup member, and it
    reads from its least-birth component.  Any other walk is an open
    chain, born (0, 0, a) at its least anchor a on the lower boundary,
    or at its least cup member when it has no anchor.
    """
    if lower.cutoff != upper.cutoff:
        raise InputError("fragments must share a truncation degree")
    if lower.spec_out != upper.spec_in:
        raise WordValidationError("fragment boundaries do not match")
    cutoff = lower.cutoff

    anchored_at: dict[int, Birth] = {}
    for comp, positions in upper.anchors.items():
        for pos in positions:
            anchored_at[pos] = comp

    # Follow orientation across each stitch: at an up interface point the
    # lower component's end feeds the upper component's start; at a down
    # point the flow is upper to lower.
    successor: dict[tuple[str, Birth], tuple[str, Birth]] = {}
    for pos, (lc, role) in enumerate(lower.leaves, start=1):
        uc = anchored_at[pos]
        if role == END:
            successor[("L", lc)] = ("U", uc)
        else:
            successor[("U", uc)] = ("L", lc)

    # Chain heads (no predecessor) first, then the rest, which lie on
    # new circles.
    nodes = ([("L", b) for b in lower.open_order]
             + [("U", b) for b in upper.open_order])
    has_pred = set(successor.values())
    chains: dict[Birth, tuple[list, tuple[int, ...], tuple[Birth, ...]]] = {}
    circles: dict[Birth, list] = {}
    seen: set[tuple[str, Birth]] = set()
    for node in ([n for n in nodes if n not in has_pred]
                 + sorted(n for n in nodes if n in has_pred)):
        if node in seen:
            continue
        walk = [node]
        seen.add(node)
        while walk[-1] in successor and successor[walk[-1]] not in seen:
            walk.append(successor[walk[-1]])
            seen.add(walk[-1])
        anchors: list[int] = []
        members: list[Birth] = []
        for side, b in walk:
            source = lower if side == "L" else upper
            members.extend(source.members.get(b, ()))
            if side == "L":
                anchors.extend(lower.anchors.get(b, ()))
        if walk[-1] in successor:
            start = walk.index(min(walk, key=lambda n: n[1]))
            circles[min(members)] = walk[start:] + walk[:start]
        else:
            birth = (0, 0, min(anchors)) if anchors else min(members)
            chains[birth] = (walk, tuple(sorted(anchors)), tuple(sorted(members)))

    open_order = tuple(sorted(chains))
    closed_order = tuple(sorted(lower.closed_order + upper.closed_order
                                + tuple(circles)))
    lower_index = {b: i for i, b in enumerate(lower.open_order)}
    upper_index = {b: i for i, b in enumerate(upper.open_order)}

    def stitch(low_open, low_closed, upper_key):
        up_open, up_closed = upper_key

        def along(walk) -> tuple[int, ...]:
            seq: tuple[int, ...] = ()
            for side, b in walk:
                if side == "L":
                    seq += low_open[lower_index[b]]
                else:
                    seq += tuple(t + _FRESH for t in up_open[upper_index[b]])
            return seq

        closed_map = dict(zip(lower.closed_order, low_closed))
        for b, seq in zip(upper.closed_order, up_closed):
            closed_map[b] = tuple(t + _FRESH for t in seq)
        for b, walk in circles.items():
            closed_map[b] = along(walk)
        return ([along(chains[b][0]) for b in open_order],
                [closed_map[b] for b in closed_order])

    upper_series = [list(bucket.items())
                    for bucket in _graded(upper.terms, cutoff)]
    terms = _multiply(_graded(lower.terms, cutoff), upper_series, stitch)

    rebirth = {node: birth for birth, (walk, _, _) in chains.items()
               for node in walk}
    return FragmentValue(
        cutoff=cutoff,
        spec_in=lower.spec_in,
        spec_out=upper.spec_out,
        leaves=tuple((rebirth[("U", comp)], role) for comp, role in upper.leaves),
        anchors={b: chain[1] for b, chain in chains.items()},
        members={b: chain[2] for b, chain in chains.items()},
        open_order=open_order,
        closed_order=closed_order,
        terms=_flatten(terms),
    )


# -- Results -----------------------------------------------------------------


@dataclass(frozen=True)
class TangleResult:
    """Engine output for a closed word: a diagram series on m circles."""

    circles: int
    truncation: int
    coefficients: Mapping[ChordDiagram, Fraction]   # read-only

    def coefficient(self, diagram: ChordDiagram) -> Fraction:
        return self.coefficients.get(diagram, Fraction(0))

    def degree_part(self, k: int) -> dict[ChordDiagram, Fraction]:
        return {d: c for d, c in self.coefficients.items() if d.degree == k}

    def reduced(self, k: int) -> dict[ChordDiagram, Fraction]:
        return reduce_mod_4t(self.degree_part(k))

    def relabeled(self, perm: Sequence[int]) -> "TangleResult":
        out: dict[ChordDiagram, Fraction] = {}
        for diagram, coeff in self.coefficients.items():
            add_term(out, diagram.relabel_circles(perm), coeff)
        return TangleResult(self.circles, self.truncation, MappingProxyType(out))


def finalize(fragment: FragmentValue) -> TangleResult:
    """Close a fully evaluated fragment into labeled circles."""
    if fragment.spec_out[1] or any(fragment.anchors.values()) or fragment.open_order:
        raise WordValidationError("fragment is not a closed link")
    out: dict[ChordDiagram, Fraction] = {}
    for (open_seqs, closed_seqs), coeff in fragment.terms.items():
        add_term(out, ChordDiagram(list(closed_seqs)), coeff)
    return TangleResult(len(fragment.closed_order), fragment.cutoff,
                        MappingProxyType(out))


@lru_cache(maxsize=None)
def _integrate_cached(slices: tuple[Slice, ...], cutoff: int,
                      bare_block: tuple[int, int] | None = None) -> TangleResult:
    """integrate and crossing_term, cached on the whole word."""
    validate_word(slices)
    return finalize(evaluate_fragment(slices, cutoff, bare_block=bare_block))


def integrate(slices: Sequence[Slice], cutoff: int,
              relabel: Sequence[int] | None = None) -> TangleResult:
    """The truncated invariant of a closed word, on birth-ordered circles."""
    result = _integrate_cached(tuple(slices), cutoff)
    if relabel is not None:
        result = result.relabeled(tuple(relabel))
    return result


def crossing_info(slices: Sequence[Slice], crossing: int) -> CrossEvent:
    """The event of the crossing at a 1-based slice index, read off the
    word's trace: components, roles, and the sign."""
    return trace_word(slices).crossing(crossing).event


def crossing_term(slices: Sequence[Slice], crossing: int, k: int,
                  cutoff: int) -> TangleResult:
    """Integrate with one crossing's series replaced by a bare k-chord
    block with coefficient 1 (k = 0 suppresses the crossing's chords)."""
    if k < 0:
        raise InputError("chord count must be nonnegative")
    return _integrate_cached(tuple(slices), cutoff, (crossing - 1, k))
