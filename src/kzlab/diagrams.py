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
next circle.

The rational span of degree-k diagrams carries the standard four-term (4T)
relation.  This module enumerates diagrams by degree or by chord type
matrix, generates all 4T relators as read-only diagram -> int vectors,
and reduces vectors to a canonical residual modulo the relator span
using exact rational elimination.  Chords on open strands share this
code: one placements generator, 4T move, relator-vector builder and
per-degree quotient serve circles here and strands in the engine.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InputError


Code = tuple[tuple[int, ...], ...]
K = TypeVar("K", bound=Hashable)


class TypeMatrix(tuple):
    """A checked chord type matrix: square, symmetric, int entries >= 0
    (floats, strings and bools are refused with InputError, not truncated).
    Built once, it passes through the constructor unchanged; it compares
    and hashes like the plain nested tuple."""

    __slots__ = ()

    def __new__(cls, S: Sequence[Sequence[int]]) -> "TypeMatrix":
        if isinstance(S, TypeMatrix):
            return S
        try:
            rows = tuple(tuple(row) for row in S)
        except TypeError as exc:
            raise InputError("type matrix must be a sequence of rows") from exc
        if any(len(row) != len(rows) for row in rows):
            raise InputError("type matrix must be square")
        if not all(type(x) is int and x >= 0 for row in rows for x in row):
            raise InputError("type matrix entries must be natural numbers (int >= 0)")
        if rows != tuple(zip(*rows)):
            raise InputError("type matrix must be symmetric")
        return super().__new__(cls, rows)

    @property
    def degree(self) -> int:
        """The chord count: each cell i <= j once."""
        return (sum(map(sum, self)) + sum(row[i] for i, row in enumerate(self))) // 2


def add_term(out: dict, key: object, coeff: Fraction | int) -> None:
    """Add coeff to out[key] as a Fraction, dropping the key at zero."""
    new = out.get(key, Fraction(0)) + coeff
    if new:
        out[key] = new
    else:
        out.pop(key, None)


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


def canonical_code(words: Sequence[Sequence[object]]) -> Code:
    """The least relabeled code over all combinations of circle rotations.

    A pruned search, circle by circle.  Each naming still alive (chord id
    to 1, 2, ... for the circles already coded) tries every rotation of
    the next circle, and only the (naming, rotation) pairs that give the
    least renamed word survive.  Ties are all kept, deduplicated by
    naming: a symmetric circle such as (1 2 1 2) reaches its least word
    under two namings, and a later circle may tell them apart.  An empty
    circle codes as () under every naming.
    """
    code: list[tuple[int, ...]] = []
    alive: list[dict[object, int]] = [{}]
    for word in words:
        size = len(word)
        if not size:
            code.append(())
            continue
        doubled = tuple(word) * 2
        best: tuple[int, ...] | None = None
        kept: dict[tuple, dict[object, int]] = {}
        for names in alive:
            for r in range(size):
                trial = names.copy()
                name = trial.setdefault
                renamed = tuple([name(label, len(trial) + 1)
                                 for label in doubled[r:r + size]])
                if best is None or renamed < best:
                    best = renamed
                    kept = {}
                elif renamed != best:
                    continue
                kept.setdefault(tuple(trial), trial)
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
        counts: dict[object, int] = {}
        for word in words:
            for label in word:
                counts[label] = counts.get(label, 0) + 1
        bad = sorted(str(l) for l, c in counts.items() if c != 2)
        if bad:
            raise InputError("chord labels must occur exactly twice: " + ", ".join(bad))
        object.__setattr__(self, "code", canonical_code(words))

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
        return sum(len(w) for w in self.code) // 2

    def type_matrix(self) -> TypeMatrix:
        """Symmetric matrix counting chords by the pair of circles they join.

        Entry (i, i) counts chords with both ends on circle i+1; entry
        (i, j) counts chords joining circles i+1 and j+1.
        """
        m = self.circles
        where: dict[int, list[int]] = {}
        for c, word in enumerate(self.code):
            for label in word:
                where.setdefault(label, []).append(c)
        counts = [[0] * m for _ in range(m)]
        for a, b in where.values():
            if a == b:
                counts[a][a] += 1
            else:
                counts[a][b] += 1
                counts[b][a] += 1
        return TypeMatrix(counts)

    def relabel_circles(self, perm: Sequence[int]) -> "ChordDiagram":
        """Move circle i to position perm[i-1]; perm is a 1-based bijection."""
        m = self.circles
        if sorted(perm) != list(range(1, m + 1)):
            raise InputError(f"perm must be a permutation of 1..{m}, got {perm!r}")
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

    def __lt__(self, other: "ChordDiagram") -> bool:
        return (self.circles, self.degree, self.code) < (other.circles, other.degree, other.code)

    def __repr__(self) -> str:
        return f"ChordDiagram({[list(w) for w in self.code]!r})"


def connected_sum(a: ChordDiagram, b: ChordDiagram, circle: int = 1,
                  gap: int | None = None) -> ChordDiagram:
    """Splice the whole point sequence of one-circle b into a circle of a.

    The insertion point is the gap before slot index `gap` on the chosen
    circle (0 <= gap <= word length).  By default the splice lands after
    the first marked point, or at the only gap when the circle is bare.
    The result is independent of the insertion point modulo 4T.
    """
    if b.circles != 1:
        raise InputError("second summand must have exactly one circle")
    if not 1 <= circle <= a.circles:
        raise InputError(f"circle index {circle} out of range 1..{a.circles}")
    word = a.code[circle - 1]
    if gap is None:
        gap = 1 if word else 0
    if not 0 <= gap <= len(word):
        raise InputError(f"gap index {gap} out of range 0..{len(word)}")
    shift = a.degree
    insert = tuple(label + shift for label in b.code[0])
    words = list(a.code)
    words[circle - 1] = word[:gap] + insert + word[gap:]
    return ChordDiagram(words)


# -- Enumeration -------------------------------------------------------------


def _matchings(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of 0..n-1 as sorted pair tuples (n even)."""

    def rec(rest: list[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not rest:
            yield ()
            return
        first, tail = rest[0], rest[1:]
        for i, partner in enumerate(tail):
            remaining = tail[:i] + tail[i + 1:]
            for sub in rec(remaining):
                yield ((first, partner),) + sub

    yield from rec(list(range(n)))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every way to write total as an ordered sum of `parts` naturals."""
    for cuts in itertools.combinations(range(total + parts - 1), parts - 1):
        bounds = (-1,) + cuts + (total + parts - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(parts))


def _placements(k: int, parts: int) -> Iterator[list[list[int]]]:
    """Every placement of k chords on `parts` words, as per-word label
    lists: each spread of the 2k endpoints over the words times each
    pairing of the endpoints, chord t labeling the t-th pair."""
    for counts in _compositions(2 * k, parts):
        slot_word = [w for w, count in enumerate(counts) for _ in range(count)]
        for pairs in _matchings(2 * k):
            label = {}
            for t, (a, b) in enumerate(pairs, start=1):
                label[a] = label[b] = t
            words: list[list[int]] = [[] for _ in range(parts)]
            for slot, w in enumerate(slot_word):
                words[w].append(label[slot])
            yield words


def enumerate_by_matrix(matrix: Sequence[Sequence[int]]) -> tuple[ChordDiagram, ...]:
    """All diagrams whose type matrix equals the given one."""
    return _by_matrix(TypeMatrix(matrix))


@lru_cache(maxsize=None)
def _by_matrix(matrix: TypeMatrix) -> tuple[ChordDiagram, ...]:
    # Checked before the cache, which would answer ((True,),) as ((1,),).
    m = len(matrix)
    slot_counts = [2 * matrix[i][i] + sum(matrix[i][j] for j in range(m) if j != i)
                   for i in range(m)]
    slot_circle = [i for i in range(m) for _ in range(slot_counts[i])]
    found: set[ChordDiagram] = set()
    for pairs in _matchings(len(slot_circle)):
        induced = [[0] * m for _ in range(m)]
        for a, b in pairs:
            ca, cb = slot_circle[a], slot_circle[b]
            if ca == cb:
                induced[ca][ca] += 1
            else:
                induced[ca][cb] += 1
                induced[cb][ca] += 1
        if tuple(tuple(row) for row in induced) != matrix:
            continue
        slot_label = {}
        for t, (a, b) in enumerate(pairs, start=1):
            slot_label[a] = slot_label[b] = t
        words: list[list[int]] = [[] for _ in range(m)]
        for s, c in enumerate(slot_circle):
            words[c].append(slot_label[s])
        found.add(ChordDiagram(words))
    return tuple(sorted(found))


enumerate_by_matrix.cache_info = _by_matrix.cache_info


@lru_cache(maxsize=None)
def all_type_matrices(m: int, k: int) -> tuple[TypeMatrix, ...]:
    """All m x m type matrices of degree k."""
    if m < 1 or k < 0:
        raise InputError("need m >= 1 circles and degree k >= 0")
    cells = [(i, i) for i in range(m)] + [(i, j) for i in range(m) for j in range(i + 1, m)]
    out = []
    for values in _compositions(k, len(cells)):
        rows = [[0] * m for _ in range(m)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = rows[j][i] = v
        out.append(TypeMatrix(rows))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def enumerate_by_degree(m: int, k: int) -> tuple[ChordDiagram, ...]:
    """All degree-k diagrams on m labeled circles, sorted by code."""
    found: list[ChordDiagram] = []
    for matrix in all_type_matrices(m, k):
        found.extend(enumerate_by_matrix(matrix))
    return tuple(sorted(found))


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


@lru_cache(maxsize=None)
def four_t_relators(m: int, k: int) -> tuple[Mapping[ChordDiagram, int], ...]:
    """All distinct non-zero 4T relators among degree-k diagrams on m
    circles, as read-only diagram -> coefficient vectors.

    Circle words are cyclic: a word of length l has l gaps, a bare
    circle one.  The two placements at a common anchor endpoint share a
    type matrix, so any functional depending only on type matrices kills
    every relator.
    """
    if m < 1 or k < 0:
        raise InputError("need m >= 1 circles and degree k >= 0")
    return _relator_vectors(
        k, lambda degree: (d.code for d in enumerate_by_degree(m, degree)),
        lambda size: max(1, size), ChordDiagram)


# -- Reduction modulo 4T -----------------------------------------------------


def _eliminate(vec: dict[int, Fraction],
               rows: Sequence[tuple[int, dict[int, Fraction]]]) -> dict[int, Fraction]:
    """Subtract echelon rows (pivot = least index) to reach the normal form."""
    for pivot, row in rows:
        coeff = vec.get(pivot)
        if not coeff:
            continue
        for i, v in row.items():
            add_term(vec, i, -coeff * v)
    return vec


def _echelon(vectors: Iterable[dict[int, Fraction]],
             ) -> tuple[tuple[int, dict[int, Fraction]], ...]:
    """Echelon rows, each scaled to 1 at its pivot, spanning the vectors."""
    rows: list[tuple[int, dict[int, Fraction]]] = []
    for vec in vectors:
        vec = _eliminate(vec, rows)
        if vec:
            pivot = min(vec)
            inv = Fraction(1) / vec[pivot]
            rows.append((pivot, {i: c * inv for i, c in vec.items()}))
            rows.sort(key=lambda r: r[0])
    return tuple(rows)


Reducer = tuple[tuple[K, ...], dict[K, int], tuple[tuple[int, dict[int, Fraction]], ...]]


def _quotient(basis: tuple[K, ...], relators: Iterable[Mapping[K, int]]) -> Reducer:
    """The basis, its index, and echelon rows spanning the relators."""
    index = {d: i for i, d in enumerate(basis)}
    return basis, index, _echelon(
        {index[d]: Fraction(c) for d, c in relator.items()} for relator in relators)


def _residual(vector: Mapping[K, Fraction | int], grade: Callable[[K], tuple],
              reducer: Callable[..., Reducer]) -> list[tuple[K, Fraction]]:
    """Reduce each homogeneous part of a vector modulo its relators.

    grade(key) names the part a key lies in, and reducer(*grade(key)) is
    that part's quotient; zero coefficients are dropped.
    """
    groups: dict[tuple, dict[K, Fraction]] = {}
    for key, coeff in vector.items():
        if coeff:
            groups.setdefault(grade(key), {})[key] = Fraction(coeff)
    residual: list[tuple[K, Fraction]] = []
    for part, vec in groups.items():
        basis, index, rows = reducer(*part)
        reduced = _eliminate({index[d]: c for d, c in vec.items()}, rows)
        residual.extend((basis[i], c) for i, c in reduced.items())
    return residual


@lru_cache(maxsize=None)
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
