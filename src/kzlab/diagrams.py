"""Chord diagrams on labeled oriented circles, with exact 4T reduction.

A chord diagram of degree k on m circles is a set of k chords, each chord
pairing two of the 2k marked points distributed over the circles.  Circles
are labeled 1..m and oriented; the marked points on a circle carry a cyclic
order but no basepoint.  Two diagrams are equal when rotating each circle's
point sequence makes their chord patterns identical.

A diagram is encoded as one tuple per circle listing chord ids in cyclic
order.  The canonical code is the lexicographically smallest encoding over
all per-circle rotations, with chord ids renamed 1, 2, ... in order of
first appearance (circle 1 scanned first).  It is found circle by circle:
a rotation keeps a word's length, so the least code starts with the least
renamed first circle, and only the namings that reach it go on to the
next circle.  Two exact prunings skip the rotations that cannot win.  A
circle none of whose labels is named yet codes as the count of names so
far plus its own least one-circle form, cached per renamed word; if none
of its labels is on another circle (an own-chord circle), its names
never come back and no naming is extended.  On a circle holding named
labels a renamed rotation begins with its first label's name, and a
label not yet named would get a higher one, so each naming tries only
the rotation that begins at its least-named label.  The search runs on
words already renamed by first appearance, and reads each circle's kind
off those names, with no separate pass over the kinds: canonical_code
checks the labels and renames them, while the engine's keys and the
enumeration's codes are named already and go to the search directly.

A diagram's type counts its chords by the pair of circles they join.
Its one definition is ChordDiagram.type_cells, the sparse form: the
non-zero cells (i, j, s), i <= j.  A TypeMatrix is the dense square
matrix, checked once at construction, and it carries the same cells and
their sum, its degree; type_matrix() builds the dense matrix from a
diagram's cells, and the enumeration by type reads the cells.

The rational span of degree-k diagrams carries the standard four-term (4T)
relation.  This module enumerates diagrams by degree or by chord type
matrix, generates all 4T relators as read-only diagram -> int vectors,
and reduces vectors to a canonical residual modulo the relator span
with the exact elimination of kzlab.sparse.

A type family is generated as canonical codes, not as matchings
(orderly generation, R. C. Read 1978).  The code is written circle by
circle, label by label: each label closes an open chord ending on this
circle or opens a chord towards a circle its type still owes one, named
by first appearance.  Each such code is a distinct matching of the
type.  Two necessary conditions of canonical_code prune a circle's word
before the next circle is written, and a full code is kept if and only
if it is its own least code, so every diagram is made once and no set
is needed.  Empty circles cost nothing but their () in the code.
A degree list walks its types as sparse cells, each multiset of k
chords over the cells i <= j once, straight into the type families; the
dense list all_type_matrices is made from the same walk, for callers
that show each S.  The placements (every spread of the endpoints over
the words, a multiset of words, times every pairing) are a separate
slot-pairing walk, for the engine's strands.  Each enumeration counts
its work in closed form before it starts, and refuses (InputError) more
than ENUMERATION_LIMIT matchings, or, for all_type_matrices alone,
type-matrix entries; a family's matching count also bounds the codes it
tries.  Chords on open strands share this code: one 4T move,
relator-vector builder and per-degree quotient serve circles here and
strands in the engine.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InputError
from .sparse import Reducer, _quotient, _residual


Code = tuple[tuple[int, ...], ...]
# A type's sparse form: its non-zero cells (i, j, s), i <= j, 0-based,
# sorted; s chords join circles i + 1 and j + 1.
Cells = tuple[tuple[int, int, int], ...]
K = TypeVar("K", bound=Hashable)


class TypeMatrix(tuple):
    """A checked chord type matrix: square, symmetric, int entries >= 0
    (floats, strings and bools are refused with InputError, not truncated).
    Built once, it passes through the constructor unchanged; it compares
    and hashes like the plain nested tuple.  It carries its sparse form,
    cells (see Cells), and degree, their sum: both set at construction
    and read-only."""

    cells: Cells
    degree: int

    def __new__(cls, S: Sequence[Sequence[int]]) -> "TypeMatrix":
        if isinstance(S, TypeMatrix):
            return S
        try:
            rows = tuple(map(tuple, S))
        except TypeError as exc:
            raise InputError("type matrix must be a sequence of rows") from exc
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise InputError("type matrix must be square")
        entries = itertools.chain.from_iterable
        if m and (set(map(type, entries(rows))) != {int} or min(entries(rows)) < 0):
            raise InputError("type matrix entries must be natural numbers (int >= 0)")
        # A matrix is symmetric when each non-zero entry is mirrored: an
        # unequal pair has a non-zero side, and that side's test fails.
        nonzero = [(i, j, s) for i, row in enumerate(rows) if any(row)
                   for j, s in enumerate(row) if s]
        if any(rows[j][i] != s for i, j, s in nonzero):
            raise InputError("type matrix must be symmetric")
        return cls._build(rows, tuple(cell for cell in nonzero if cell[0] <= cell[1]))

    @classmethod
    def _build(cls, rows: tuple[tuple[int, ...], ...], cells: Cells) -> "TypeMatrix":
        """The matrix of rows already checked, carrying their cells."""
        self = super().__new__(cls, rows)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "degree", sum(s for _, _, s in cells))
        return self

    @classmethod
    def _of_cells(cls, m: int, cells: Cells) -> "TypeMatrix":
        """The m x m matrix with the given cells, which are trusted."""
        rows = [[0] * m for _ in range(m)]
        for i, j, s in cells:
            rows[i][j] = rows[j][i] = s
        return cls._build(tuple(map(tuple, rows)), cells)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TypeMatrix is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("TypeMatrix is immutable")


def _check_perm(perm: Sequence[int], m: int) -> None:
    """Refuse a circle relabelling that is not a 1-based bijection of 1..m
    in ints (a bool or a float refused)."""
    if any(type(p) is not int for p in perm) or sorted(perm) != list(range(1, m + 1)):
        raise InputError(f"perm must be a permutation of 1..{m}, got {perm!r}")


def _relabel(words: Sequence[Sequence[object]]) -> Code:
    """Rename chord ids to 1, 2, ... by first appearance, scanning the
    words (circles, strands or intervals) in order."""
    names: dict[object, int] = {}
    out = []
    for word in words:
        if not word:
            out.append(())
            continue
        renamed = []
        for label in word:
            if label not in names:
                names[label] = len(names) + 1
            renamed.append(names[label])
        out.append(tuple(renamed))
    return tuple(out)


@lru_cache(maxsize=1024)
def _circle_code(word: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The least renamed rotation of one circle's word on its own, and
    the rotations that reach it; word is renamed by first appearance."""
    size = len(word)
    doubled = word * 2
    best: tuple[int, ...] = ()
    starts: list[int] = []
    for r in range(size):
        renamed = _relabel((doubled[r:r + size],))[0]
        if not starts or renamed < best:
            best, starts = renamed, [r]
        elif renamed == best:
            starts.append(r)
    return best, tuple(starts)


def canonical_code(words: Sequence[Sequence[object]]) -> Code:
    """The least relabeled code over all combinations of circle rotations.

    words must be a sequence of words of hashable chord labels, each
    label occurring exactly twice (InputError otherwise).  The labels are
    renamed by first appearance (_relabel), and _least_code finds the
    least code of the named words.
    """
    try:
        words = tuple(words)
        sum(map(len, words))   # every word sized, so none is read as empty
        named = _relabel(words)
    except TypeError:
        raise InputError("a diagram must be a sequence of words of hashable "
                         "chord labels") from None
    # Sorted in pairs, each label's count is even; with twice as many
    # ends as labels, each count is 2.
    ends = sorted(itertools.chain.from_iterable(named))
    if ends[::2] != ends[1::2] or 2 * len(set(ends)) != len(ends):
        counts = Counter(itertools.chain.from_iterable(words))
        bad = sorted(str(label) for label, n in counts.items() if n != 2)
        raise InputError("chord labels must occur exactly twice: " + ", ".join(bad))
    return _least_code(named)


def _least_code(named: Code) -> Code:
    """The canonical code of a code named by first appearance: labels
    1..k, each occurring twice, numbered in the order they are first met.

    A pruned search, circle by circle.  Each naming still alive (chord id
    to 1, 2, ... for the circles already coded) gives the next circle the
    rotations that can reach the least renamed word, and only the
    (naming, rotation) pairs that reach it survive.  Ties are all kept,
    deduplicated by naming: a symmetric circle such as (1 2 1 2) reaches
    its least word under two namings, and a later circle may tell them
    apart.  An empty circle codes as () under every naming.

    A circle's kind is read off the names: with `seen` names given before
    it, a circle holding a label <= seen holds a named one; otherwise its
    labels are seen + 1 .. max, and it is an own-chord circle (no label
    on any other circle) when it holds each of them twice.  Two prunings
    keep the search exact:

    - A circle with no label named yet codes, under every naming, as seen
      plus the least renamed rotation of its local word (each label minus
      seen, already named by first appearance), which _circle_code
      computes once per local word.  If the circle is an own-chord circle
      its names never come back, so no naming is extended: a running
      count gives them out.  Otherwise each naming is extended by each
      rotation that reaches the least form.
    - Every renamed rotation starts with the first label's name, and a
      label not named yet gets one more than every named label.  So on a
      circle holding named labels, each naming tries only the rotation
      that begins at its least-named label (named labels occur once here,
      so it is unique): every other rotation starts higher and loses.
    """
    code: list[tuple[int, ...]] = []
    alive: list[dict[int, int]] = [{}]
    seen = 0    # names given before this circle
    shift = 0   # names given to own-chord circles, kept in no naming
    for word in named:
        size = len(word)
        if not size:
            code.append(())
            continue
        top = max(word)
        old = min(word) <= seen
        if not old:
            least, starts = _circle_code(tuple([x - seen for x in word]) if seen else word)
            code.append(tuple([seen + x for x in least]) if seen else least)
            if size == 2 * (top - seen):
                shift += size // 2
                seen = top
                continue
            rotations = [(names, r) for names in alive for r in starts]
        else:
            # Named labels are the same under every naming; find each one's slot.
            slot = {label: p for p, label in enumerate(word) if label <= seen}
            rotations = [(names, slot[min(slot, key=names.__getitem__)])
                         for names in alive]
        seen = max(seen, top)
        doubled = word * 2
        best: tuple[int, ...] | None = None
        kept: dict[tuple, dict[int, int]] = {}
        for names, r in rotations:
            trial = names.copy()
            name = trial.setdefault
            renamed = tuple([name(label, len(trial) + shift + 1)
                             for label in doubled[r:r + size]])
            if best is None or renamed < best:
                best = renamed
                kept = {}
            elif renamed != best:
                continue
            kept.setdefault(tuple(trial), trial)
        if old:
            code.append(best)
        alive = list(kept.values())
    return tuple(code)


class ChordDiagram:
    """An equivalence class of chord diagrams, stored by canonical code.

    Chord labels in the input may be arbitrary hashables; each must occur
    exactly twice.  Empty circles are allowed and encoded as ().  The code
    is set once: diagrams are cached and used as dict keys, so assigning
    or deleting an attribute raises AttributeError.
    """

    __slots__ = ("code",)
    code: Code

    def __init__(self, words: Sequence[Sequence[object]]) -> None:
        object.__setattr__(self, "code", canonical_code(words))

    @classmethod
    def _of_code(cls, code: Code) -> "ChordDiagram":
        """The diagram with this canonical code, which is trusted."""
        diagram = object.__new__(cls)
        object.__setattr__(diagram, "code", code)
        return diagram

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ChordDiagram is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ChordDiagram is immutable")

    def __reduce__(self) -> tuple:
        # Pickle and copy rebuild from the code, which is its own canonical
        # code, since restoring the slot would go through __setattr__.
        return ChordDiagram, (self.code,)

    @property
    def circles(self) -> int:
        return len(self.code)

    @property
    def degree(self) -> int:
        return sum(map(len, self.code)) // 2

    @property
    def type_cells(self) -> Cells:
        """The sparse form of the type matrix: cell (i, j, s) says s chords
        join circles i+1 and j+1 (both ends on circle i+1 when i == j)."""
        first: dict[int, int] = {}
        counts: dict[tuple[int, int], int] = {}
        for c, word in enumerate(self.code):
            for label in word:
                a = first.pop(label, None)
                if a is None:
                    first[label] = c
                else:
                    counts[a, c] = counts.get((a, c), 0) + 1
        return tuple(sorted((i, j, s) for (i, j), s in counts.items()))

    def type_matrix(self) -> TypeMatrix:
        """Symmetric matrix counting chords by the pair of circles they join.

        Entry (i, i) counts chords with both ends on circle i+1; entry
        (i, j) counts chords joining circles i+1 and j+1.
        """
        return TypeMatrix._of_cells(self.circles, self.type_cells)

    def relabel_circles(self, perm: Sequence[int]) -> "ChordDiagram":
        """Move circle i to position perm[i-1]; perm is a 1-based bijection."""
        m = self.circles
        _check_perm(perm, m)
        words: list[tuple[int, ...]] = [()] * m
        for old, new in enumerate(perm):
            words[new - 1] = self.code[old]
        return ChordDiagram(words)

    def json_dict(self) -> dict:
        """Serialized form: chords as endpoint pairs [circle, slot] with
        1-based circles and 0-based slots along the canonical code."""
        ends: dict[int, list[list[int]]] = {}
        for c, word in enumerate(self.code, start=1):
            for pos, label in enumerate(word):
                ends.setdefault(label, []).append([c, pos])
        return {"circles": self.circles,
                "chords": [ends[label] for label in sorted(ends)]}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChordDiagram) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return (self.circles, self.degree, self.code) < (other.circles, other.degree, other.code)

    def __repr__(self) -> str:
        return f"ChordDiagram({[list(w) for w in self.code]!r})"


def connected_sum(a: ChordDiagram, b: ChordDiagram, circle: int = 1,
                  gap: int | None = None) -> ChordDiagram:
    """Splice the whole point sequence of one-circle b into a circle of a.

    The insertion point is the gap before slot index `gap` on the chosen
    circle: circle is an int in 1..a.circles and gap an int in
    0..word length.  By default the splice lands after the first marked
    point, or at the only gap when the circle is bare.
    The result is independent of the insertion point modulo 4T.
    """
    if b.circles != 1:
        raise InputError("second summand must have exactly one circle")
    if type(circle) is not int or not 1 <= circle <= a.circles:
        raise InputError(f"circle index must be an int in 1..{a.circles}, got {circle!r}")
    word = a.code[circle - 1]
    if gap is None:
        gap = 1 if word else 0
    if type(gap) is not int or not 0 <= gap <= len(word):
        raise InputError(f"gap index must be an int in 0..{len(word)}, got {gap!r}")
    shift = a.degree
    insert = tuple(label + shift for label in b.code[0])
    words = list(a.code)
    words[circle - 1] = word[:gap] + insert + word[gap:]
    return ChordDiagram(words)


# -- Enumeration -------------------------------------------------------------

# The most work one enumeration may do: the matchings of a degree or of
# a type, which bound the codes enumerate_by_matrix tries, or the entries
# all_type_matrices writes.  Degree 4 on 3 circles has 4,725 matchings,
# degree 5 on 3 circles 62,370 (under a second), and every degree-1 type
# matrix on 20 circles takes 84,000 entries, while the degree-1 list on
# 21 circles has 231 matchings; degree 7 on one circle (135,135) is
# refused.
ENUMERATION_LIMIT = 100_000


def _binomial(n: int, r: int) -> int:
    """comb(n, r) for 0 <= r <= n, or a partial product over
    ENUMERATION_LIMIT once it passes the limit; 1 for r < 0."""
    r, out = min(r, n - r), 1
    for i in range(r):
        out = out * (n - i) // (i + 1)   # comb(n, i + 1), exactly
        if out > ENUMERATION_LIMIT:
            break
    return out


def _check_work(what: str, factors: Iterable[int]) -> None:
    """Refuse (InputError) work counted as a product of positive int
    factors once the running product passes ENUMERATION_LIMIT.  The
    factors are read lazily, so a huge count stops after a few of them."""
    total = 1
    for factor in factors:
        total *= factor
        if total > ENUMERATION_LIMIT:
            break
    if total > ENUMERATION_LIMIT:
        raise InputError(f"{what} exceeds the enumeration limit "
                         f"of {ENUMERATION_LIMIT:,}")


def _pairings(slot_word: Sequence[int], parts: int) -> Iterator[list[list[int]]]:
    """Every pairing of the slots, as per-word label lists.

    slot_word[s] is the word slot s lies on.  The first free slot pairs
    with each later free slot in turn and the t-th pair is labeled t, so
    each matching is made once.
    """
    label = [0] * len(slot_word)

    def walk(first: int, t: int) -> Iterator[list[list[int]]]:
        while first < len(label) and label[first]:
            first += 1
        if first == len(label):
            words: list[list[int]] = [[] for _ in range(parts)]
            for w, name in zip(slot_word, label):
                words[w].append(name)
            yield words
            return
        label[first] = t
        for partner in range(first + 1, len(label)):
            if not label[partner]:
                label[partner] = t
                yield from walk(first + 1, t + 1)
                label[partner] = 0
        label[first] = 0

    return walk(0, 1)


def _placements(k: int, parts: int) -> Iterator[list[list[int]]]:
    """Every placement of k chords on `parts` words, as per-word label
    lists: each spread of the 2k endpoints over the words times each
    pairing of the endpoints, chord t labeling the t-th pair.  Each pair
    starts at the first slot left, so every placement is a distinct code
    named by first appearance.  A spread is the nondecreasing list of the
    words the 2k slots lie on."""
    for slot_word in itertools.combinations_with_replacement(range(parts), 2 * k):
        yield from _pairings(slot_word, parts)


def enumerate_by_matrix(matrix: Sequence[Sequence[int]]) -> tuple[ChordDiagram, ...]:
    """All diagrams whose type matrix equals the given one."""
    # Checked before the cache, which would answer ((True,),) as ((1,),),
    # and cached by the cells, which hash in O(cells), not O(m^2).
    S = TypeMatrix(matrix)
    _check_counts(len(S), S.degree)
    return _by_matrix(len(S), S.cells)


@lru_cache(maxsize=1024)
def _by_matrix(m: int, cells: Cells) -> tuple[ChordDiagram, ...]:
    # Circle i carries one slot per chord end: two per chord in S[i][i].
    slots = [0] * m
    rows: dict[int, dict[int, int]] = {}
    for a, b, n in cells:
        rows.setdefault(a, {})[b] = n
        slots[a] += n
        slots[b] += n
    # Each code tried is a distinct matching of this type, so the matching
    # count bounds them.
    _check_work("the matching count of this type matrix", _matching_factors(slots, cells))
    partial = [({}, (), 0)]   # per partial code: its words by circle, open chords, names
    for c in [c for c in range(m) if slots[c]]:
        partial = [({**words, c: word}, after, given) for words, ends, n in partial
                   for word, after, given in _circle_words(c, slots[c], rows.get(c, {}),
                                                           ends, n)]
    codes = (tuple([words.get(c, ()) for c in range(m)]) for words, _, _ in partial)
    # One circle count and degree throughout, so the codes alone sort them.
    return tuple(map(ChordDiagram._of_code,
                     sorted(code for code in codes if _least_code(code) == code)))


enumerate_by_matrix.cache_info = _by_matrix.cache_info


def _circle_words(c: int, size: int, row: dict[int, int],
                  ends: tuple[tuple[int, int], ...], n: int) -> Iterator[tuple]:
    """Each word of `size` labels circle c may carry in a canonical code,
    with the chords open after it and the count of names given.

    ends lists the open chords, (label, circle of the far end), in label
    order, and n names are given.  The word closes the chords ending on
    c, in any order, and opens row[d] chords towards each circle d >= c,
    named n + 1, n + 2, ... as they open.  Two necessary conditions of
    canonical_code prune: a word closing chords named on earlier circles
    starts with the least of them, and any other word is its own least
    one-circle form once renamed locally.
    """
    least = next((label for label, d in ends if d == c), 0)

    def walk(word: tuple[int, ...], ends: tuple, left: dict[int, int], t: int
             ) -> Iterator[tuple]:
        if len(word) == size:
            if least or _circle_code(local := tuple([x - n for x in word]))[0] == local:
                yield word, ends, t
            return
        # A circle holding chords named earlier begins with the least of them.
        for i, (label, d) in enumerate(ends):
            if d == c and (word or label == least):
                yield from walk(word + (label,), ends[:i] + ends[i + 1:], left, t)
        if word or not least:
            for d, count in left.items():
                if count:
                    yield from walk(word + (t + 1,), ends + ((t + 1, d),),
                                    {**left, d: count - 1}, t + 1)

    return walk((), ends, row, n)


def _matching_factors(slots: list[int], cells: Cells) -> Iterator[int]:
    """The matchings of a type, prod slots_i! / (prod 2**S_ii S_ii!
    prod_{i<j} S_ij!), as positive factors: cell by cell, the ways to
    choose its chord ends among each circle's free slots, then to pair
    them, (2n - 1)!! on a circle's own n chords and n! between two."""
    free = list(slots)
    for a, b, n in cells:
        for circle in {a, b}:
            ends = 2 * n if a == b else n
            yield _binomial(free[circle], ends)
            free[circle] -= ends
        yield from range(1, 2 * n, 2) if a == b else range(1, n + 1)


def _check_counts(m: int, k: int) -> None:
    """Refuse (InputError) a circle or strand count m or a degree k that
    is not an int (a bool or a float included), or is out of range."""
    if not (type(m) is int and type(k) is int and m >= 1 and k >= 0):
        raise InputError("need m >= 1 circles and degree k >= 0, both ints")


def _type_cells(m: int, k: int) -> Iterator[Cells]:
    """Each degree-k type on m circles once, as its sorted cells: each
    multiset of k chords over the cells i <= j, counted as it runs."""
    # Degree 0 has the one type (), whatever m; no cell is listed for it.
    cells = [(i, j) for i in range(m) for j in range(i, m)] if k else []
    for choice in itertools.combinations_with_replacement(cells, k):
        yield tuple([(i, j, len(list(run))) for (i, j), run in itertools.groupby(choice)])


@lru_cache(maxsize=None, typed=True)
def all_type_matrices(m: int, k: int) -> tuple[TypeMatrix, ...]:
    """All m x m type matrices of degree k."""
    _check_counts(m, k)
    # comb(k + c - 1, k) matrices over the c cells i <= j, m * m entries each.
    _check_work(f"the entry count of the degree-{k} type matrices on {m} circles",
                [_binomial(k + m * (m + 1) // 2 - 1, k), m * m])
    return tuple(sorted(TypeMatrix._of_cells(m, cells) for cells in _type_cells(m, k)))


@lru_cache(maxsize=None, typed=True)
def enumerate_by_degree(m: int, k: int) -> tuple[ChordDiagram, ...]:
    """All degree-k diagrams on m labeled circles, sorted by code."""
    _check_counts(m, k)
    # comb(2k + m - 1, m - 1) spreads of the 2k ends, (2k - 1)!! pairings
    # each; the types' families split these matchings among them.
    _check_work(f"the matching count of degree {k} on {m} circles",
                itertools.chain([_binomial(2 * k + m - 1, m - 1)], range(1, 2 * k, 2)))
    return tuple(sorted((d for cells in _type_cells(m, k) for d in _by_matrix(m, cells)),
                        key=attrgetter("code")))


# -- The four-term relation --------------------------------------------------


def _insert(words: Sequence[tuple[object, ...]], at: int, gap: int,
            label: object) -> list[tuple[object, ...]]:
    out = list(words)
    out[at] = out[at][:gap] + (label,) + out[at][gap:]
    return out


def four_t_moves(base: Sequence[Sequence[object]],
                 gaps: Callable[[int], int],
                 ) -> Iterator[tuple[tuple[list[tuple[object, ...]], int], ...]]:
    """The 4T local move on a degree k-1 base, circles or strands alike.

    For each anchor chord of the base and each fixed gap for one end of
    a new chord (gaps(len(word)) of them per word), yields the four
    placements of the new chord's other end: just before / just after
    each anchor endpoint, with signs +1, -1, -1, +1 in that traversal
    order.  Each placement is the list of words with the new chord's two
    ends inserted, labeled "new".
    """
    ends: dict[object, list[tuple[int, int]]] = {}
    for c, word in enumerate(base):
        for p, label in enumerate(word):
            ends.setdefault(label, []).append((c, p))
    for (c1, p1), (c2, p2) in ends.values():
        for fc, word in enumerate(base):
            for fg in range(gaps(len(word))):
                words = _insert(base, fc, fg, "new")
                # Anchor endpoints shift when the fixed end lands before them.
                q1 = p1 + 1 if (c1 == fc and p1 >= fg) else p1
                q2 = p2 + 1 if (c2 == fc and p2 >= fg) else p2
                yield tuple((_insert(words, mc, mg, "new"), sign)
                            for mc, mg, sign in ((c1, q1, 1), (c1, q1 + 1, -1),
                                                 (c2, q2 + 1, -1), (c2, q2, 1)))


def _relator_vectors(k: int, bases: Callable[[int], Iterable[Sequence[Sequence[object]]]],
                     gaps: Callable[[int], int], key: Callable[[list], K],
                     ) -> tuple[Mapping[K, int], ...]:
    """The distinct non-zero 4T relator vectors in degree k, read-only.

    Each four_t_moves move on a base of bases(k - 1) gives one vector,
    key(words) naming the diagram of each placement.  A move adds a chord
    next to an anchor chord of its base, so there are none below degree 2.
    """
    if k < 2:
        return ()
    seen: set[frozenset] = set()
    out: list[Mapping[K, int]] = []
    for base in bases(k - 1):
        for placements in four_t_moves(base, gaps):
            vec: dict[K, int] = {}
            for words, sign in placements:
                name = key(words)
                vec[name] = vec.get(name, 0) + sign
            vec = {name: c for name, c in vec.items() if c}
            signature = frozenset(vec.items())
            if vec and signature not in seen:
                seen.add(signature)
                out.append(MappingProxyType(vec))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def four_t_relators(m: int, k: int) -> tuple[Mapping[ChordDiagram, int], ...]:
    """All distinct non-zero 4T relators among degree-k diagrams on m
    circles, as read-only diagram -> coefficient vectors.

    Circle words are cyclic: a word of length l has l gaps, a bare
    circle one.  The two placements at a common anchor endpoint share a
    type matrix, so any functional depending only on type matrices kills
    every relator.
    """
    _check_counts(m, k)
    return _relator_vectors(
        k, lambda degree: (d.code for d in enumerate_by_degree(m, degree)),
        lambda size: max(1, size), ChordDiagram)


# -- Reduction modulo 4T -----------------------------------------------------


@lru_cache(maxsize=None, typed=True)
def _reducer(m: int, k: int) -> Reducer:
    """The 4T quotient of degree-k diagrams on m circles."""
    return _quotient(enumerate_by_degree(m, k), four_t_relators(m, k))


def quotient_dimension(m: int, k: int) -> int:
    """Dimension of degree-k diagrams on m circles modulo 4T."""
    basis, _, rows = _reducer(m, k)
    return len(basis) - len(rows)


def reduce_mod_4t(vector: Mapping[ChordDiagram, Fraction | int],
                  ) -> dict[ChordDiagram, Fraction]:
    """Reduce each homogeneous component of a diagram combination mod 4T.

    The residual, zero coefficients dropped, avoids every relator pivot,
    so two combinations agree in the quotient exactly when their residuals
    are equal."""
    return dict(_residual(vector, lambda d: (d.circles, d.degree), _reducer))
