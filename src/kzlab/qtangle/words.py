"""The q-tangle word language: slices, boundary trees, and structural checks.

A word is a sequence of slices applied bottom to top, each acting on the
current boundary: a bracketed row of directed points.  The bracketing is a
binary tree; every slice names its operand by a 1-based leaf position and
must find the required local shape (adjacent siblings for crossings and
caps, a rebracketable configuration for associations).  No implicit
re-association ever happens.

Directions encode orientation flow at the boundary: a down point is where
a component's path enters the built region (its start), an up point is
where it leaves (its end).  An unprimed cup creates a down-up pair, an
unprimed cap consumes one; the primed variants are mirror images.

This module knows nothing about chord series.  It tracks the structure:
trees, directions, component births and merges, and the signed crossing
count that yields the linking/framing matrix independently of any
invariant computation.

One cached replay per distinct word, its trace (trace_word), answers
every structural question about the whole word: the points left open,
each crossing's slice index, event and final circle pair, and the
linking matrix of a closed word.  The boundary tree is recursive, so a
word nesting deeper than the recursion limit allows (about 490 levels)
is rejected with WordValidationError.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from ..errors import WordParseError, WordValidationError

# Component birth keys order circles: boundary anchors first, then cups by
# slice.  A merge keeps the smallest key.
Birth = tuple[int, int, int]

START, END = "start", "end"


@dataclass(frozen=True)
class Slice:
    """One elementary generator: kind, 1-based position, and variant.

    kind is one of 'i', 'x', 'cup', 'cap', 'assoc'.  Crossings and
    associations carry sign +1/-1; cups and caps carry the primed flag.
    """

    kind: str
    pos: int
    sign: int = 0
    primed: bool = False

    def __str__(self) -> str:
        if self.kind in ("x", "assoc"):
            tag = self.kind + ("+" if self.sign > 0 else "-")
        elif self.kind in ("cup", "cap"):
            tag = self.kind + ("'" if self.primed else "")
        else:
            tag = self.kind
        return f"{tag}@{self.pos}"


_SLICE_RE = re.compile(r"^(i|x[+-]|cup'?|cap'?|assoc[+-])@(\d+)$")


def parse_word(text: str) -> tuple[Slice, ...]:
    """Parse a word from text: slices separated by ';' or newlines.

    '#' starts a comment running to end of line; blank entries are skipped.
    """
    slices: list[Slice] = []
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        line = line.split("#", 1)[0]
        for chunk in line.split(";"):
            token = chunk.strip()
            if not token:
                continue
            match = _SLICE_RE.match(token)
            if not match:
                raise WordParseError(f"line {lineno}: malformed slice {token!r}")
            tag, pos_text = match.groups()
            pos = int(pos_text)
            if pos < 1:
                raise WordParseError(
                    f"line {lineno}: positions are 1-based, got {token!r}")
            if tag.startswith("assoc"):
                slices.append(Slice("assoc", pos, sign=1 if tag[-1] == "+" else -1))
            elif tag.startswith("x"):
                slices.append(Slice("x", pos, sign=1 if tag[-1] == "+" else -1))
            elif tag[0] == "c":
                slices.append(Slice(tag.rstrip("'"), pos, primed=tag.endswith("'")))
            else:
                slices.append(Slice("i", pos))
    return tuple(slices)


def render_word(slices: Sequence[Slice]) -> str:
    return " ; ".join(str(s) for s in slices)


# -- Boundary trees ----------------------------------------------------------
#
# A tree is a leaf token (int) or a pair (left, right).  Tokens are unique
# within a BoundaryState, so subtree identity tests are exact.

Tree = object


def tree_leaves(tree: Tree) -> list[int]:
    if tree is None:
        return []
    if not isinstance(tree, tuple):
        return [tree]
    return tree_leaves(tree[0]) + tree_leaves(tree[1])


def _replace_node(tree: Tree, old: Tree, new: Tree) -> Tree:
    if tree == old:
        return new
    if not isinstance(tree, tuple):
        return tree
    return (_replace_node(tree[0], old, new), _replace_node(tree[1], old, new))


def _find_cherry(tree: Tree, a: int, b: int) -> bool:
    """True when (a, b) occurs as a node, i.e. the leaves are siblings."""
    if not isinstance(tree, tuple):
        return False
    if tree == (a, b):
        return True
    return _find_cherry(tree[0], a, b) or _find_cherry(tree[1], a, b)


def _subtree_size(tree: Tree) -> int:
    if not isinstance(tree, tuple):
        return 1
    return _subtree_size(tree[0]) + _subtree_size(tree[1])


def _assoc_rewrites(tree: Tree, p: int, plus: bool,
                    offset: int = 1) -> list[tuple[Tree, Tree]]:
    """All (old node, new node) pairs for assoc at middle-block position p.

    assoc+ turns ((X,Y),Z) into (X,(Y,Z)); assoc- is the inverse.  The
    address p is the 1-based position of Y's leftmost leaf, which names
    the rewrite site uniquely.
    """
    if not isinstance(tree, tuple):
        return []
    left, right = tree
    found: list[tuple[Tree, Tree]] = []
    if plus and isinstance(left, tuple):
        x, y = left
        if offset + _subtree_size(x) == p:
            found.append((tree, (x, (y, right))))
    if not plus and isinstance(right, tuple):
        y, z = right
        if offset + _subtree_size(left) == p:
            found.append((tree, ((left, y), z)))
    found.extend(_assoc_rewrites(left, p, plus, offset))
    found.extend(_assoc_rewrites(right, p, plus, offset + _subtree_size(left)))
    return found


# -- Events ------------------------------------------------------------------


@dataclass(frozen=True)
class CupEvent:
    pos: int
    primed: bool
    component: Birth


@dataclass(frozen=True)
class CapEvent:
    pos: int
    primed: bool
    ending: Birth        # component whose end point is consumed
    starting: Birth      # component whose start point is consumed
    merged: Birth        # representative after the merge
    closes: bool         # True when both points belong to one component


@dataclass(frozen=True)
class CrossEvent:
    pos: int
    eps: int                       # +1 for x+, -1 for x-
    left: tuple[Birth, str]        # (component, role) before the slice
    right: tuple[Birth, str]

    @property
    def geometric_sign(self) -> int:
        """Crossing sign by the right-hand rule: eps times both direction
        factors, where an up point counts +1 and a down point -1."""
        factors = {END: 1, START: -1}
        return self.eps * factors[self.left[1]] * factors[self.right[1]]


@dataclass(frozen=True)
class AssocEvent:
    pos: int
    sign: int
    blocks: tuple[tuple[tuple[int, Birth, str], ...], ...]
    # Three tuples (X, Y, Z) of (leaf position, component, role).


@dataclass(frozen=True)
class IdentityEvent:
    pos: int


Event = object


class BoundaryState:
    """Mutable boundary structure driven slice by slice.

    Tracks the bracketing tree, each boundary point's component and role,
    component merges, circle closures, and signed crossings.  apply()
    validates one slice and returns an event describing what happened, in
    terms the series engine can act on.
    """

    def __init__(self) -> None:
        self.tree: Tree = None
        self.leaf_info: dict[int, tuple[Birth, str]] = {}
        self._tokens = itertools.count(1)
        self._parent: dict[Birth, Birth] = {}
        self.anchors: dict[Birth, tuple[int, ...]] = {}
        self.closed: list[Birth] = []

    @classmethod
    def from_spec(cls, spec: tuple[Tree, tuple[str, ...]]) -> "BoundaryState":
        """Boundary with anchored components, for fragment evaluation.

        spec is (shape, roles): shape a bracketing over 0-based leaf
        indices, roles the per-leaf 'start'/'end' tags.  Each leaf gets
        its own component, anchored at the fragment's lower interface.
        """
        shape, roles = spec
        state = cls()
        indices = tree_leaves(shape)
        if sorted(indices) != list(range(len(roles))):
            raise WordValidationError("boundary spec leaves must be 0..n-1")
        tokens = {i: next(state._tokens) for i in indices}

        def build(node: Tree) -> Tree:
            if not isinstance(node, tuple):
                return tokens[node]
            return (build(node[0]), build(node[1]))

        state.tree = build(shape) if indices else None
        for position, index in enumerate(indices, start=1):
            birth: Birth = (0, 0, position)
            state._parent[birth] = birth
            state.anchors[birth] = (position,)
            state.leaf_info[tokens[index]] = (birth, roles[index])
        return state

    def spec(self) -> tuple[Tree, tuple[str, ...]]:
        """Snapshot of shape and roles, suitable for from_spec."""
        leaves = tree_leaves(self.tree)
        position = {token: i for i, token in enumerate(leaves)}

        def strip(node: Tree) -> Tree:
            if not isinstance(node, tuple):
                return position[node]
            return (strip(node[0]), strip(node[1]))

        shape = strip(self.tree) if leaves else None
        roles = tuple(self.leaf_info[t][1] for t in leaves)
        return shape, roles

    # Union-find over birth keys; the smallest key survives a merge.
    def find(self, birth: Birth) -> Birth:
        root = birth
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[birth] != root:
            self._parent[birth], birth = root, self._parent[birth]
        return root

    def _union(self, a: Birth, b: Birth) -> Birth:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self._parent[drop] = keep
        combined = tuple(sorted(self.anchors.pop(keep, ())
                                + self.anchors.pop(drop, ())))
        if combined:
            self.anchors[keep] = combined
        return keep

    def open_components(self) -> list[Birth]:
        """Distinct live components, smallest birth first."""
        seen = []
        for token in tree_leaves(self.tree):
            birth = self.find(self.leaf_info[token][0])
            if birth not in seen:
                seen.append(birth)
        for birth in self.anchors:
            root = self.find(birth)
            if root not in seen:
                seen.append(root)
        return sorted(seen)

    def leaf_summary(self) -> tuple[tuple[Birth, str], ...]:
        return tuple((self.find(self.leaf_info[t][0]), self.leaf_info[t][1])
                     for t in tree_leaves(self.tree))

    def apply(self, s: Slice, index: int) -> Event:
        """Validate and perform one slice; index is its 0-based position."""
        leaves = tree_leaves(self.tree)
        n = len(leaves)

        def fail(message: str) -> WordValidationError:
            return WordValidationError(f"slice {index + 1} ({s}): {message}")

        if s.kind == "i":
            if not 1 <= s.pos <= max(1, n):
                raise fail(f"position out of range 1..{max(1, n)}")
            return IdentityEvent(s.pos)

        if s.kind == "cup":
            if not 1 <= s.pos <= n + 1:
                raise fail(f"position out of range 1..{n + 1}")
            t1, t2 = next(self._tokens), next(self._tokens)
            cherry = (t1, t2)
            if self.tree is None:
                self.tree = cherry
            elif s.pos <= n:
                self.tree = _replace_node(self.tree, leaves[s.pos - 1],
                                          (cherry, leaves[s.pos - 1]))
            else:
                self.tree = _replace_node(self.tree, leaves[n - 1],
                                          (leaves[n - 1], cherry))
            birth: Birth = (1, index, s.pos)
            self._parent[birth] = birth
            roles = (END, START) if s.primed else (START, END)
            self.leaf_info[t1] = (birth, roles[0])
            self.leaf_info[t2] = (birth, roles[1])
            return CupEvent(s.pos, s.primed, birth)

        if s.kind == "cap":
            if not 1 <= s.pos <= n - 1:
                raise fail(f"position out of range 1..{max(0, n - 1)}")
            a, b = leaves[s.pos - 1], leaves[s.pos]
            if not _find_cherry(self.tree, a, b):
                raise fail("operand points are not siblings")
            want = (END, START) if s.primed else (START, END)
            got = (self.leaf_info[a][1], self.leaf_info[b][1])
            if got != want:
                raise fail(f"direction mismatch: needs {want[0]}/{want[1]} "
                           f"points, found {got[0]}/{got[1]}")
            starting = self.find(self.leaf_info[a if not s.primed else b][0])
            ending = self.find(self.leaf_info[b if not s.primed else a][0])
            self.tree = None if self.tree == (a, b) else _replace_node(
                self.tree, (a, b), None)
            self.tree = _prune(self.tree)
            del self.leaf_info[a], self.leaf_info[b]
            closes = starting == ending
            if closes:
                if self.anchors.get(starting):
                    raise fail("cannot close an anchored component")
                merged = starting
                self.closed.append(merged)
            else:
                merged = self._union(starting, ending)
            return CapEvent(s.pos, s.primed, ending, starting, merged, closes)

        if s.kind == "x":
            if not 1 <= s.pos <= n - 1:
                raise fail(f"position out of range 1..{max(0, n - 1)}")
            a, b = leaves[s.pos - 1], leaves[s.pos]
            if not _find_cherry(self.tree, a, b):
                raise fail("operand points are not siblings")
            left = (self.find(self.leaf_info[a][0]), self.leaf_info[a][1])
            right = (self.find(self.leaf_info[b][0]), self.leaf_info[b][1])
            self.tree = _replace_node(self.tree, (a, b), (b, a))
            return CrossEvent(s.pos, s.sign, left, right)

        if s.kind == "assoc":
            rewrites = _assoc_rewrites(self.tree, s.pos, s.sign > 0)
            if not rewrites:
                raise fail("no rebracketable configuration at this position")
            if len(rewrites) > 1:
                raise fail("ambiguous rebracketing address")
            old, new = rewrites[0]
            blocks_raw = ((old[0][0], old[0][1], old[1]) if s.sign > 0
                          else (old[0], old[1][0], old[1][1]))
            position = {token: i + 1 for i, token in enumerate(leaves)}
            blocks = tuple(
                tuple((position[t], self.find(self.leaf_info[t][0]),
                       self.leaf_info[t][1]) for t in tree_leaves(block))
                for block in blocks_raw)
            self.tree = _replace_node(self.tree, old, new)
            return AssocEvent(s.pos, s.sign, blocks)

        raise fail(f"unknown generator kind {s.kind!r}")


def _prune(tree: Tree) -> Tree:
    """Collapse None children left over from a cherry removal."""
    if tree is None or not isinstance(tree, tuple):
        return tree
    left, right = _prune(tree[0]), _prune(tree[1])
    if left is None:
        return right
    if right is None:
        return left
    return (left, right)


@dataclass(frozen=True)
class TracedCrossing:
    slice: int                        # 1-based slice index
    event: CrossEvent
    circles: tuple[int, int] | None   # final circle labels a <= b; None if open


@dataclass(frozen=True)
class WordTrace:
    """The structure of one word, from a single boundary replay."""

    open_points: int
    crossings: tuple[TracedCrossing, ...]
    linking: tuple[tuple[Fraction, ...], ...] | None   # None if open

    def crossing(self, index: int) -> TracedCrossing:
        """The crossing at a 1-based slice index."""
        for traced in self.crossings:
            if traced.slice == index:
                return traced
        raise WordValidationError(f"slice {index} is not a crossing")


def trace_word(slices: Sequence[Slice]) -> WordTrace:
    """The word's trace; open words are allowed, invalid ones raise."""
    return _trace_cached(tuple(slices))


@lru_cache(maxsize=None)
def _trace_cached(slices: tuple[Slice, ...]) -> WordTrace:
    state = BoundaryState()
    events: list[tuple[int, CrossEvent]] = []
    try:
        for index, s in enumerate(slices):
            event = state.apply(s, index)
            if isinstance(event, CrossEvent):
                events.append((index + 1, event))
        open_points = len(tree_leaves(state.tree))
    except RecursionError:
        raise WordValidationError("word nests too deeply: its boundary tree "
                                  "exceeds the recursion limit") from None
    # Circles are numbered by birth order.  Entry (i, j), i != j, of the
    # linking matrix is half the sum of crossing signs between circles i
    # and j; entry (i, i) is half the writhe of circle i (blackboard framing).
    labels = {birth: i for i, birth in enumerate(sorted(state.closed))}
    total = [[0] * len(labels) for _ in labels]
    crossings = []
    for index, event in events:
        circles = None
        if not open_points:
            a = labels[state.find(event.left[0])]
            b = labels[state.find(event.right[0])]
            total[a][b] += event.geometric_sign
            if a != b:
                total[b][a] += event.geometric_sign
            circles = (min(a, b) + 1, max(a, b) + 1)
        crossings.append(TracedCrossing(index, event, circles))
    linking = None if open_points else tuple(
        tuple(Fraction(entry, 2) for entry in row) for row in total)
    return WordTrace(open_points, tuple(crossings), linking)


def validate_word(slices: Sequence[Slice], require_closed: bool = True,
                  ) -> WordTrace:
    """Run the boundary checks; returns the word's trace."""
    trace = trace_word(slices)
    if require_closed and trace.open_points:
        raise WordValidationError(
            f"word leaves {trace.open_points} open boundary points")
    return trace


def linking_matrix(slices: Sequence[Slice]) -> tuple[tuple[Fraction, ...], ...]:
    """Linking and framing matrix from signed crossing counts alone, read
    off the word's trace (see _trace_cached)."""
    linking = trace_word(slices).linking
    if linking is None:
        raise WordValidationError("linking matrix requires a closed word")
    return linking
