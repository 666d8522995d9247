"""The truncated invariant engine: slice values, composition, integration.

Values of elementary tangles are chord series.  A crossing contributes
exp(g/2 * chord) where g is its geometric sign (crossing sign times the
two direction factors); every cup and cap contributes the interval square
root of the unknot series along its arc; an association contributes a
degree-3 truncation of a rational even associator, cabled over the leaves
of its three blocks with a sign per endpoint on an up-directed point.

Word evaluation tracks, per monomial, one chord-endpoint sequence per
skeleton component: a term's key is one code, every component's word in
birth order, open and closed alike, chords renamed by first appearance.
A cup appends an empty word and a closing cap leaves its circle in
place, and either's arc then ends that word; a merge folds the later
birth into the earlier one's slot.  A unit that moves no word (of an
arc, a crossing run, the bare block at k = 0 or the associator) is the
payload None, which leaves each key as it is; the degree-0 parts of a
merging cap and of a graft move words and are placed.  The structure comes
from the words module's cached trace of the slices: its events drive the
kernels and its boundary data fill the fragment value, so the engine
never replays a word itself.  evaluate_fragment runs any slice range from
a given boundary; graft stitches two fragment values at a shared
interface; integrate closes a full word into labeled circles.

Every slice value and every graft is a product of graded series, and
the running terms are kept per degree (number of chords).  A term of
degree d is multiplied only by the parts of degree at most N - d, so no
kernel forms a term over the truncation N: the degree budget is the one
rule that truncates.  A kernel whose degree-0 part is its unit alone
updates the running terms in place, highest degree first, so its work is
the new terms it makes, not every term it passes; a merging cap and a
graft, whose degree-0 parts move words, fill fresh buckets.

The products are exact in plain ints.  One scale D per truncation (12
through N = 3, 120 at N = 4) is the least that makes c * D**a an integer
for every kernel coefficient c of degree a: the arcs, a run's
g**k / (2**k k!) and the associator's 1/24 (a D that leaves one
fractional raises).  A term of degree d is an int over D**d, and these
graded ints are the one carrier: only evaluate_fragment and graft make
them, in read-only buckets keyed by codes named by first appearance;
graft multiplies two at the shared D, and finalize (integrate's closing)
sums them by _least_code per degree, one Fraction per diagram.

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
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from ..algebra import MAX_TRUNCATION, _check_degree, _check_truncation, sqrt_unknot_series
from ..diagrams import (
    Cells, ChordDiagram, Code, _check_counts, _least_code, _placements, _relabel,
    _relator_vectors, reduce_mod_4t,
)
from ..errors import InputError, WordValidationError
from ..sparse import _quotient, _residual, add_term
from .words import (
    AssocEvent, Birth, CapEvent, CrossEvent, CupEvent, END, START, Slice,
    _as_word, _trace, parse_word, validate_word,
)

_FRESH = 1000  # inserted tokens start here; keys are renamed before storage


# -- 4T reduction on parallel strands ----------------------------------------


@lru_cache(maxsize=None, typed=True)
def strand_monomials(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All normalized placements of k chords on n labeled strands; n must
    be an int >= 1 and k an int >= 0 (InputError otherwise)."""
    _check_counts(n, k)
    return tuple(sorted(tuple(map(tuple, words)) for words in _placements(k, n)))


@lru_cache(maxsize=None, typed=True)
def _strand_reducer(n: int, k: int):
    """The 4T quotient of degree-k strand monomials on n strands.

    Strand words are linear, so a word of length l has l + 1 gaps, both
    ends included.
    """
    return _quotient(strand_monomials(n, k), _relator_vectors(
        k, lambda degree: strand_monomials(n, degree), lambda size: size + 1,
        _relabel))


def reduce_strands_mod_4t(terms: Mapping[Code, Fraction]) -> dict[Code, Fraction]:
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
                sign: int | None) -> dict[Code, Fraction]:
    """Open strand series of lhs minus rhs, both evaluated upwards from
    the bracketing with these gap depths, every strand directed down, as
    graded ints: a homogeneous part is 0, or in the 4T span, at any scale."""
    initial = (depths, (START,) * (len(depths) + 1))
    diff: dict = {}
    for word, factor in ((lhs, 1), (rhs, -1)):
        value = evaluate_fragment(parse_word(word), cutoff, initial,
                                  assoc_sign=sign)
        for bucket in value.graded:
            for key, coeff in bucket.items():
                add_term(diff, key, factor * coeff)
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
    """Highest supported truncation: 3 with association slices, else the
    unknot series' cap MAX_TRUNCATION (4).  A word that is no sequence of
    hashable Slices raises WordValidationError."""
    return 3 if any(s.kind == "assoc" for s in _as_word(slices)) else MAX_TRUNCATION


def _check_cutoff(slices: Sequence[Slice], cutoff: int) -> None:
    _check_truncation(cutoff, max_truncation(slices), " for this word")


def _insert_at_points(words: Code, inserts: Sequence[tuple[int, str, tuple[int, ...]]]
                      ) -> list[tuple[int, ...]]:
    """Add chord endpoints at boundary points, one (word index, role,
    tokens) triple per point, in order.

    tokens are listed bottom to top.  At an end point the walk meets the
    lowest token first, so they append in order; at a start point the walk
    leaves through the topmost token first, so they prepend reversed.
    """
    out = list(words)
    for i, role, tokens in inserts:
        out[i] = out[i] + tokens if role == END else tokens[::-1] + out[i]
    return out


# graded[d]: the terms with d chords, each an int over the scale ** d
Graded = list[dict[Code, int]]


def _scaled(coeff: Fraction | int, degree: int, scale: int) -> int:
    """coeff * scale**degree, raising unless it is an integer."""
    unit, rest = divmod(scale ** degree, coeff.denominator)
    if rest:
        raise ArithmeticError(f"coefficient {coeff} of degree {degree} is "
                              f"not an integer at scale {scale}")
    return coeff.numerator * unit


@lru_cache(maxsize=None)
def _kernel_scale(cutoff: int) -> int:
    """The least D making c * D**a an integer for each kernel coefficient
    c of degree a: the arcs, a run's g**k / (2**k k!) and the associator's
    weight.  The lcm of their denominators is such a D."""
    coefficients = [(len(word) // 2, c) for word, c in sqrt_unknot_series(cutoff).items()]
    coefficients += [(k, Fraction(1, 2 ** k * factorial(k))) for k in range(cutoff + 1)]
    coefficients.append((2, ASSOCIATOR_WEIGHT))
    bound = lcm(*(c.denominator for _, c in coefficients))
    return next(d for d in range(1, bound + 1)
                if all((c * d ** a).denominator == 1 for a, c in coefficients))


def _multiply(terms: Graded, series: Sequence[Sequence[tuple[object, int]]],
              place: Callable[[Code, object], Sequence[tuple[int, ...]]]) -> Graded:
    """Multiply graded terms by a graded series, within the truncation.

    series[a] lists the (payload, coefficient) pairs of a chords, with
    coefficients scaled like the terms, so products are ints at the
    product's degree.  A kernel lists its unit as the payload None with
    coefficient 1: it moves no word, so each term keeps its key.  For
    any other payload place(key, payload) returns the product's words,
    renamed in one _relabel pass.  A term of degree d meets only series
    degrees up to len(terms) - 1 - d, so no product over the truncation
    is formed.

    When series[0] is that unit alone, terms is updated in place and
    returned: each term stays where it is, and only its products of
    degree a >= 1 are added, into higher buckets.  The degrees run from
    the highest down, so no product is multiplied again.  Otherwise (a
    merging cap, a graft) the products fill fresh buckets.
    """
    cutoff = len(terms) - 1
    unit = series[0] == [(None, 1)]
    out: Graded = terms if unit else [{} for _ in terms]
    for d in range(cutoff, -1, -1):
        fits = [(out[d + a], payload, c)
                for a, pairs in enumerate(series[:cutoff - d + 1]) if a or not unit
                for payload, c in pairs]
        for key, coeff in terms[d].items():
            for target, payload, c in fits:
                product = key if payload is None else _relabel(place(key, payload))
                value = target.get(product, 0) + coeff * c
                if value:
                    target[product] = value
                else:
                    target.pop(product, None)
    return out


class _Graded(tuple):
    """A fragment's read-only buckets, as evaluate_fragment and graft make
    them.  made holds the fragment's other fields as they were made with
    it: fields, not the fragment, so no reference cycle keeps it alive."""


def _fragment(*fields, terms: Graded) -> FragmentValue:
    """The engine's fragment of these fields and buckets, vouched for whole."""
    graded = _Graded(map(MappingProxyType, terms))
    graded.made = fields
    return FragmentValue(*fields, graded)


def _check_made(*fragments: FragmentValue) -> None:
    if any(type(f) is not FragmentValue or type(f.graded) is not _Graded
           or f.graded.made != f[:-1] for f in fragments):
        raise InputError("fragments must come from evaluate_fragment or graft")


class FragmentValue(NamedTuple):
    """Value of a slice range: per-component chord words, ready to graft.

    Components are identified by birth keys; anchors map each open
    component to the positions it holds on the fragment's lower
    interface, and span is the range of word indices the fragment
    covers.  components lists every component by birth, open and closed
    alike, and each term's key is one code, their words in that order;
    the open ones are the anchors keys.

    graded[d] maps each key with d chords to an int over
    _kernel_scale(cutoff) ** d, read-only; terms is the flat Fraction
    view of it, and the cutoff is read off the buckets.  graft and
    finalize refuse a fragment any of whose fields differs from what the
    engine made with its buckets, such as one _replace'd to another value.
    """

    spec_in: tuple
    spec_out: tuple
    leaves: tuple[tuple[Birth, str], ...]
    anchors: Mapping[Birth, tuple[int, ...]]
    span: range
    components: tuple[Birth, ...]
    graded: _Graded

    @property
    def cutoff(self) -> int:
        return len(self.graded) - 1

    @property
    def terms(self) -> dict[Code, Fraction]:
        """The flat series, lowest degree first, each int divided once."""
        scale = _kernel_scale(self.cutoff)
        return {key: Fraction(value, scale ** d) for d, bucket in enumerate(self.graded)
                for key, value in bucket.items()}


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
    fragment raises WordValidationError.  slice_offset and both entries
    of bare_block must be ints (not bools), k and the offset >= 0
    (InputError otherwise).

    The terms, the fragment's graded, are kept per degree, and each kernel
    (a crossing run is one) builds only the products that fit within
    cutoff, so no term over the truncation is formed.
    """
    slices = _as_word(slices)
    _check_cutoff(slices, cutoff)
    if bare_block is not None and not (type(bare_block) is tuple and tuple(
            map(type, bare_block)) == (int, int) and bare_block[1] >= 0):
        raise InputError(f"bare_block {bare_block!r} is not an int pair (index, k >= 0)")
    block_at, block_k = bare_block or (None, None)
    trace = _trace(slices, initial, slice_offset)
    if block_at is not None:
        trace.crossing(block_at + 1)   # raises unless a crossing slice here
    comps: list[Birth] = list(trace.open_in)   # every component, by birth
    scale = _kernel_scale(cutoff)
    terms: Graded = [{} for _ in range(cutoff + 1)]
    terms[0][((),) * len(comps)] = 1
    # A cup's or cap's arc series on fresh tokens, by primed flag and degree.
    arcs: dict[bool, list[list]] = {False: [[] for _ in terms],
                                    True: [[] for _ in terms]}
    for word, c in sqrt_unknot_series(cutoff).items():
        fresh = tuple(_FRESH + t for t in word)
        a = len(word) // 2
        c = _scaled(c, a, scale)
        arcs[False][a].append((fresh, c))
        arcs[True][a].append((fresh[::-1], c))

    def end_arc(terms, i, primed):
        # A cup's or closing cap's arc ends word i; its unit moves no word.
        return _multiply(terms, [[(((i, END, fresh),) if fresh else None, c)
                                  for fresh, c in bucket] for bucket in arcs[primed]],
                         _insert_at_points)

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
            # The cup's empty word joins every key, and its arc ends it.
            comps.append(event.component)
            terms = [{key + ((),): c for key, c in bucket.items()} for bucket in terms]
            terms = end_arc(terms, len(comps) - 1, event.primed)
        elif isinstance(event, CapEvent) and event.closes:
            # The circle keeps its slot; the arc ends its word.
            terms = end_arc(terms, comps.index(event.starting), event.primed)
        elif isinstance(event, CapEvent):
            # The merge folds the later birth into the earlier one's slot.
            ia = comps.index(event.ending)
            ib = comps.index(event.starting)
            lo, hi = sorted((ia, ib))
            del comps[hi]

            def place(key, fresh):
                return (key[:lo] + (key[ia] + fresh + key[ib],)
                        + key[lo + 1:hi] + key[hi + 1:])
            terms = _multiply(terms, arcs[event.primed], place)
        elif isinstance(event, CrossEvent):
            (cl, role_l), (cr, role_r) = event.left, event.right
            il, ir = comps.index(cl), comps.index(cr)

            def rungs(k):
                # k chords across the two points; the unit (k = 0) is None.
                tokens = tuple(range(_FRESH, _FRESH + k))
                return ((il, role_l, tokens), (ir, role_r, tokens)) if k else None
            # weights[k] holds the k-chord rungs with their coefficient.
            if at == block_at:
                weights = [[] for _ in range(cutoff + 1)]
                if block_k <= cutoff:
                    weights[block_k].append((rungs(block_k), scale ** block_k))
            else:
                # A run's rungs stack on both strands in slice order, so
                # its value is exp(G/2 * chord), G its summed sign.
                g = sum(e.geometric_sign for _, e in run)
                if not g:
                    continue
                weights = [[(rungs(k), _scaled(Fraction(g ** k, 2 ** k * factorial(k)),
                                               k, scale))]
                           for k in range(cutoff + 1)]
            terms = _multiply(terms, weights, _insert_at_points)
        elif isinstance(event, AssocEvent):
            sigma = event.sign * (associator_sign() if assoc_sign is None
                                  else assoc_sign)
            x_block, y_block, z_block = event.blocks
            leaf_at = {pos: (comps.index(comp), role)
                       for block in event.blocks for pos, comp, role in block}
            weight = _scaled(ASSOCIATOR_WEIGHT, 2, scale)
            # The unit term, no degree-1 term, and the 2-chord lifts.
            lifts: list[list[tuple[tuple | None, int]]] = [[(None, 1)], [], []]
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
                        coeff = sigma * monomial_sign * weight * orient
                        lifts[2].append((tuple((*leaf_at[pos], tuple(tokens))
                                               for pos, tokens in by_leaf.items()),
                                         coeff))
            terms = _multiply(terms, lifts, _insert_at_points)
    return _fragment(trace.spec_in, trace.spec_out, trace.leaves, trace.anchors,
                     range(slice_offset, slice_offset + len(slices)), tuple(comps),
                     terms=terms)


def graft(lower: FragmentValue, upper: FragmentValue) -> FragmentValue:
    """Stitch an upper fragment onto a lower one at a shared interface.

    The lower fragment's top boundary must match the upper fragment's
    initial spec (shape and directions), and the upper fragment must
    start at the word index where the lower one stops (evaluate it at
    its slice offset).  Components are joined along the interface into
    walks, each walked once.  A joined component takes the least birth
    among its pieces, as a merge keeps it, skipping the upper fragment's
    interface anchors, which name boundary points, not births; upper
    cups are born after lower ones, so this is the birth of evaluating
    both at once.  A walk that ends where it began is a new circle, read
    from its birth piece.  Keys are read and written in birth order,
    open and closed words alike.

    The product multiplies the two inputs' graded ints at their shared
    scale; both must come from evaluate_fragment or graft (InputError).
    """
    _check_made(lower, upper)
    if lower.cutoff != upper.cutoff:
        raise InputError("fragments must share a truncation degree")
    if lower.spec_out != upper.spec_in:
        raise WordValidationError("fragment boundaries do not match")
    if lower.span.stop != upper.span.start:
        raise WordValidationError(f"upper fragment starts at word {upper.span.start}, "
                                  f"not where the lower one stops ({lower.span.stop})")

    anchored_at = {pos: comp for comp, positions in upper.anchors.items()
                   for pos in positions}

    # A node is a (side, birth) piece, side 0 the lower fragment and 1 the
    # upper one.  Follow orientation across each stitch: at an up interface
    # point the lower component's end feeds the upper component's start; at
    # a down point the flow is upper to lower.
    successor: dict[tuple[int, Birth], tuple[int, Birth]] = {}
    for pos, (lc, role) in enumerate(lower.leaves, start=1):
        uc = anchored_at[pos]
        if role == END:
            successor[(0, lc)] = (1, uc)
        else:
            successor[(1, uc)] = (0, lc)

    # Chain heads (no predecessor) first, then the rest, which lie on
    # new circles.  Every walk, closed or not, is keyed by its birth.
    nodes = [(0, b) for b in lower.anchors] + [(1, b) for b in upper.anchors]
    has_pred = set(successor.values())
    walks: dict[Birth, list[tuple[int, Birth]]] = {}
    anchors: dict[Birth, tuple[int, ...]] = {}
    seen: set[tuple[int, Birth]] = set()
    for node in sorted(nodes, key=has_pred.__contains__):
        if node in seen:
            continue
        walk = [node]
        seen.add(node)
        while walk[-1] in successor and successor[walk[-1]] not in seen:
            walk.append(successor[walk[-1]])
            seen.add(walk[-1])
        birth = min(b for side, b in walk if side == 0 or not upper.anchors[b])
        if walk[-1] in successor:
            start = walk.index((0, birth))
            walk = walk[start:] + walk[:start]
        else:
            anchors[birth] = tuple(sorted(a for side, b in walk if side == 0
                                          for a in lower.anchors[b]))
        walks[birth] = walk

    # Each output word, in birth order, as the (side, word index) pieces
    # it reads.
    rebirth = {node: birth for birth, walk in walks.items() for node in walk}
    slot = {(side, b): (side, i) for side, fragment in enumerate((lower, upper))
            for i, b in enumerate(fragment.components)}
    for side, fragment in enumerate((lower, upper)):
        walks.update((b, [(side, b)]) for b in fragment.components
                     if b not in fragment.anchors)
    pieces = [[slot[node] for node in walks[b]] for b in sorted(walks)]

    def stitch(low, up):
        sides = (low, [tuple(t + _FRESH for t in word) for word in up])
        out = []
        for word in pieces:
            seq: tuple[int, ...] = ()
            for side, i in word:
                seq += sides[side][i]
            out.append(seq)
        return out

    # The upper keys are placed payloads, none the unit None, so the
    # products fill fresh buckets and the inputs stay as they are.
    terms = _multiply(lower.graded, [list(bucket.items()) for bucket in upper.graded],
                      stitch)

    return _fragment(
        lower.spec_in, upper.spec_out,
        tuple((rebirth[(1, comp)], role) for comp, role in upper.leaves),
        MappingProxyType({b: anchors[b] for b in sorted(anchors)}),
        range(lower.span.start, upper.span.stop), tuple(sorted(walks)), terms=terms)


# -- Results -----------------------------------------------------------------


class _Series(NamedTuple):
    circles: int
    truncation: int
    coefficients: Mapping[ChordDiagram, Fraction]   # read-only


class TangleResult(_Series):
    """Engine output for a closed word: a diagram series on m circles.

    type_sums(k) groups the degree-k coefficients by type, on first use
    of each degree.  The groupings are kept in the instance dict, outside
    the three fields that equality, hashing and repr read, and each is
    published only once complete, so concurrent readers never see a
    partial one.  Assigning any attribute raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"TangleResult is immutable; cannot set {name!r}")

    def coefficient(self, diagram: ChordDiagram) -> Fraction:
        return self.coefficients.get(diagram, Fraction(0))

    def degree_part(self, k: int) -> dict[ChordDiagram, Fraction]:
        _check_degree(k, self.truncation, "the degree part")
        return {d: c for d, c in self.coefficients.items() if d.degree == k}

    def type_sums(self, k: int) -> Mapping[Cells, Fraction]:
        """The degree-k coefficients summed by type, read-only: a type's
        cells map to its class sum, and a type summing to 0 is absent.
        k must be an int >= 0 (InputError otherwise) and at most the
        truncation (TruncationUnsupportedError), so at most truncation + 1
        groupings are kept."""
        _check_degree(k, self.truncation, "a type sum")
        kept = vars(self).setdefault("_type_sums", {})
        sums = kept.get(k)
        if sums is None:
            grouped: dict[Cells, Fraction] = {}
            for diagram, coeff in self.coefficients.items():
                if diagram.degree == k:
                    add_term(grouped, diagram.type_cells, coeff)
            sums = kept.setdefault(k, MappingProxyType(grouped))
        return sums

    def reduced(self, k: int) -> dict[ChordDiagram, Fraction]:
        return reduce_mod_4t(self.degree_part(k))

    def relabeled(self, perm: Sequence[int]) -> "TangleResult":
        out: dict[ChordDiagram, Fraction] = {}
        for diagram, coeff in self.coefficients.items():
            add_term(out, diagram.relabel_circles(perm), coeff)
        return self._replace(coefficients=MappingProxyType(out))


def finalize(fragment: FragmentValue) -> TangleResult:
    """Close a fully evaluated fragment into labeled circles.

    The fragment must come from evaluate_fragment or graft (InputError),
    whose keys are named by first appearance: each bucket's ints are
    summed by _least_code(key), and each non-zero sum makes one Fraction
    and one diagram."""
    _check_made(fragment)
    if fragment.spec_out[1] or fragment.anchors:
        raise WordValidationError("fragment is not a closed link")
    scale = _kernel_scale(fragment.cutoff)
    out: dict[ChordDiagram, Fraction] = {}
    for d, bucket in enumerate(fragment.graded):
        sums: dict[Code, int] = {}
        for key, value in bucket.items():
            least = _least_code(key)
            value += sums.get(least, 0)
            if value:
                sums[least] = value
            else:
                sums.pop(least, None)
        den = scale ** d
        for least, value in sums.items():
            out[ChordDiagram._of_code(least)] = Fraction(value, den)
    return TangleResult(len(fragment.components), fragment.cutoff,
                        MappingProxyType(out))


@lru_cache(maxsize=1024, typed=True)
def _integrate_cached(slices: tuple[Slice, ...], cutoff: int,
                      bare_block: tuple[int, int] | None = None) -> TangleResult:
    """integrate and crossing_term, cached on the whole word (the 1024
    most recently used words, cutoffs and blocks)."""
    validate_word(slices)
    return finalize(evaluate_fragment(slices, cutoff, bare_block=bare_block))


def integrate(slices: Sequence[Slice], cutoff: int) -> TangleResult:
    """The truncated invariant of a closed word, on birth-ordered circles."""
    return _integrate_cached(_as_word(slices), cutoff)


def crossing_term(slices: Sequence[Slice], crossing: int, k: int,
                  cutoff: int) -> TangleResult:
    """Integrate with one crossing's series replaced by a bare k-chord
    block with coefficient 1 (k = 0 suppresses the crossing's chords)."""
    if type(crossing) is not int:
        raise InputError("crossing must be an int slice index")
    if type(k) is not int or k < 0:
        raise InputError("chord count must be a nonnegative int")
    return _integrate_cached(_as_word(slices), cutoff, (crossing - 1, k))
