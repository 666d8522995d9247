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

One cached replay per word and starting boundary, its trace, answers
every structural question about it: open points, each slice's event,
crossing circles and the linking matrix of a closed link, and a
fragment's boundary data.  The series engine reads the same trace.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

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
            try:
                pos = int(pos_text)
            except ValueError:   # more digits than int() converts
                raise WordParseError(
                    f"line {lineno}: position too long in {token[:20]!r}...") from None
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


# -- Boundary state ----------------------------------------------------------
#
# The bracketing is stored flat: `leaves` holds the leaf tokens left to
# right, and depth[j] is the depth of the node that splits the gap between
# leaves j and j + 1, the root at depth 0.  Neighbouring gaps never share a
# depth, and a node's subtree is the run of deeper gaps around it.  Tokens
# are unique within a BoundaryState.

Spec = tuple[tuple[int, ...], tuple[str, ...]]


def _is_bracketing(depth: Sequence[int]) -> bool:
    """True when depth lists the gap depths of some binary bracketing.

    A gap's parent is the deeper of the nearest gap on its left that is at
    most as deep and the nearest shallower gap on its right (depth -1 when
    absent); the sequence is a bracketing when every parent is one level up.
    """
    if not all(type(d) is int for d in depth):
        return False
    parent = [-1] * len(depth)
    stack: list[int] = []
    for j, d in enumerate(depth):
        while stack and depth[stack[-1]] > d:
            k = stack.pop()
            parent[k] = max(parent[k], d)
        if stack:
            parent[j] = depth[stack[-1]]
        stack.append(j)
    return all(p == d - 1 for p, d in zip(parent, depth))


def _checked_spec(spec: Spec) -> Spec:
    """spec as two tuples; WordValidationError unless its depths bracket."""
    depths, roles = tuple(spec[0]), tuple(spec[1])
    if len(depths) != max(0, len(roles) - 1) or not _is_bracketing(depths):
        raise WordValidationError(
            f"boundary spec depths are not a bracketing of {len(roles)} leaves")
    return depths, roles


# -- Events ------------------------------------------------------------------


@dataclass(frozen=True)
class CupEvent:
    primed: bool
    component: Birth


@dataclass(frozen=True)
class CapEvent:
    primed: bool
    ending: Birth        # component whose end point is consumed
    starting: Birth      # component whose start point is consumed
    merged: Birth        # representative after the merge
    closes: bool         # True when both points belong to one component


@dataclass(frozen=True)
class CrossEvent:
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
    sign: int
    blocks: tuple[tuple[tuple[int, Birth, str], ...], ...]
    # Three tuples (X, Y, Z) of (leaf position, component, role).


Event = CupEvent | CapEvent | CrossEvent | AssocEvent


class BoundaryState:
    """Mutable boundary structure driven slice by slice.

    Tracks the flat bracketing (leaves and gap depths), each boundary
    point's component and role, component merges, circle closures, and
    signed crossings.  apply() validates one slice and returns an event
    describing what happened, in terms the series engine can act on.
    """

    def __init__(self) -> None:
        self.leaves: list[int] = []
        self.depth: list[int] = []
        self.leaf_info: dict[int, tuple[Birth, str]] = {}
        self._tokens = itertools.count(1)
        self._parent: dict[Birth, Birth] = {}
        self.anchors: dict[Birth, tuple[int, ...]] = {}
        self.closed: list[Birth] = []

    @classmethod
    def from_spec(cls, spec: Spec) -> "BoundaryState":
        """Boundary with anchored components, for fragment evaluation.

        spec is (depths, roles), as spec() returns it: the gap depths of
        the bracketing and the per-leaf 'start'/'end' tags, left to right.
        Each leaf gets its own component, anchored at the fragment's lower
        interface.
        """
        depths, roles = _checked_spec(spec)
        state = cls()
        state.depth = list(depths)
        for position, role in enumerate(roles, start=1):
            token = next(state._tokens)
            birth: Birth = (0, 0, position)
            state._parent[birth] = birth
            state.anchors[birth] = (position,)
            state.leaf_info[token] = (birth, role)
            state.leaves.append(token)
        return state

    def spec(self) -> Spec:
        """Snapshot of gap depths and roles, suitable for from_spec."""
        return (tuple(self.depth),
                tuple(self.leaf_info[t][1] for t in self.leaves))

    def _gap(self, j: int) -> int:
        """Depth of gap j, or -1 past either end."""
        return self.depth[j] if 0 <= j < len(self.depth) else -1

    def _run_end(self, j: int, step: int, above: int) -> int:
        """The first gap from j, moving by step, that is at most `above`
        deep: one past the end of the subtree run starting at j."""
        while self._gap(j) > above:
            j += step
        return j

    def _shift(self, lo: int, hi: int, by: int) -> None:
        for k in range(lo, hi):
            self.depth[k] += by

    def _siblings(self, j: int) -> bool:
        """Leaves j and j + 1 are siblings: gap j is deeper than both
        neighbouring gaps."""
        return self._gap(j - 1) < self.depth[j] > self._gap(j + 1)

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
        return sorted({self.find(self.leaf_info[t][0]) for t in self.leaves}
                      | {self.find(birth) for birth in self.anchors})

    def cup_members(self, comps: Sequence[Birth]) -> dict[Birth, tuple[Birth, ...]]:
        """The cup-born keys merged into each of comps, smallest first."""
        groups: dict[Birth, list[Birth]] = {comp: [] for comp in comps}
        for birth in sorted(self._parent):
            root = self.find(birth)
            if birth[0] == 1 and root in groups:
                groups[root].append(birth)
        return {comp: tuple(group) for comp, group in groups.items()}

    def leaf_summary(self) -> tuple[tuple[Birth, str], ...]:
        return tuple((self.find(self.leaf_info[t][0]), self.leaf_info[t][1])
                     for t in self.leaves)

    def apply(self, s: Slice, index: int) -> Event | None:
        """Validate and perform one slice; index is its 0-based position.

        An identity slice changes nothing and has no event (None)."""
        leaves, depth = self.leaves, self.depth
        n = len(leaves)

        def fail(message: str) -> WordValidationError:
            return WordValidationError(f"slice {index + 1} ({s}): {message}")

        if s.kind == "i":
            if not 1 <= s.pos <= max(1, n):
                raise fail(f"position out of range 1..{max(1, n)}")
            return None

        if s.kind == "cup":
            if not 1 <= s.pos <= n + 1:
                raise fail(f"position out of range 1..{n + 1}")
            # The cherry replaces leaf k by (cherry, k), or by (k, cherry)
            # at the right end, one level below k's old depth.
            k = min(s.pos, n) - 1
            below = max(self._gap(k - 1), self._gap(k)) + 1
            if n == 0:
                depth.append(0)
            elif s.pos <= n:
                depth[k:k] = [below + 1, below]
            else:
                depth.extend((below, below + 1))
            t1, t2 = next(self._tokens), next(self._tokens)
            leaves[s.pos - 1:s.pos - 1] = [t1, t2]
            birth: Birth = (1, index, s.pos)
            self._parent[birth] = birth
            roles = (END, START) if s.primed else (START, END)
            self.leaf_info[t1] = (birth, roles[0])
            self.leaf_info[t2] = (birth, roles[1])
            return CupEvent(s.primed, birth)

        if s.kind == "cap":
            if not 1 <= s.pos <= n - 1:
                raise fail(f"position out of range 1..{max(0, n - 1)}")
            j = s.pos - 1
            a, b = leaves[j], leaves[j + 1]
            if not self._siblings(j):
                raise fail("operand points are not siblings")
            want = (END, START) if s.primed else (START, END)
            got = (self.leaf_info[a][1], self.leaf_info[b][1])
            if got != want:
                raise fail(f"direction mismatch: needs {want[0]}/{want[1]} "
                           f"points, found {got[0]}/{got[1]}")
            starting = self.find(self.leaf_info[a if not s.primed else b][0])
            ending = self.find(self.leaf_info[b if not s.primed else a][0])
            # The cherry's parent, the deeper neighbouring gap, gives way
            # to the sibling subtree, whose run rises one level.
            parent = depth[j] - 1
            if self._gap(j + 1) == parent:
                end = self._run_end(j + 2, 1, parent)
                self._shift(j + 2, end, -1)
                del depth[j:j + 2]
            else:
                start = self._run_end(j - 2, -1, parent) + 1
                self._shift(start, j - 1, -1)
                del depth[j - 1:j + 1]
            del leaves[j:j + 2]
            del self.leaf_info[a], self.leaf_info[b]
            closes = starting == ending
            if closes:
                if self.anchors.get(starting):
                    raise fail("cannot close an anchored component")
                merged = starting
                self.closed.append(merged)
            else:
                merged = self._union(starting, ending)
            return CapEvent(s.primed, ending, starting, merged, closes)

        if s.kind == "x":
            if not 1 <= s.pos <= n - 1:
                raise fail(f"position out of range 1..{max(0, n - 1)}")
            j = s.pos - 1
            a, b = leaves[j], leaves[j + 1]
            if not self._siblings(j):
                raise fail("operand points are not siblings")
            left = (self.find(self.leaf_info[a][0]), self.leaf_info[a][1])
            right = (self.find(self.leaf_info[b][0]), self.leaf_info[b][1])
            leaves[j], leaves[j + 1] = b, a
            return CrossEvent(s.sign, left, right)

        if s.kind == "assoc":
            # assoc+ turns ((X,Y),Z) into (X,(Y,Z)); assoc- is the inverse.
            # The address p is the 1-based position of Y's leftmost leaf,
            # so gap g = p - 2 splits X|Y; r is the Y|Z gap, g's parent
            # for assoc+ and the root of g's right subtree for assoc-.
            g = s.pos - 2
            r = None
            if 0 <= g < n - 1:
                end = self._run_end(g + 1, 1, depth[g])   # past g's subtree
                if s.sign > 0 and end < n - 1 and depth[end] == depth[g] - 1:
                    r = end
                elif s.sign < 0:
                    r = next((k for k in range(g + 1, end)
                              if depth[k] == depth[g] + 1), None)
            if r is None:
                raise fail("no rebracketable configuration at this position")
            x0 = self._run_end(g - 1, -1, depth[g]) + 1
            z1 = self._run_end(r + 1, 1, depth[r])
            blocks = tuple(
                tuple((i + 1, self.find(self.leaf_info[leaves[i]][0]),
                       self.leaf_info[leaves[i]][1]) for i in range(lo, hi))
                for lo, hi in ((x0, g + 1), (g + 1, r + 1), (r + 1, z1 + 1)))
            depth[g], depth[r] = depth[r], depth[g]
            self._shift(x0, g, -s.sign)
            self._shift(r + 1, z1, s.sign)
            return AssocEvent(s.sign, blocks)

        raise fail(f"unknown generator kind {s.kind!r}")


@dataclass(frozen=True)
class TracedCrossing:
    slice: int                        # 1-based slice index
    event: CrossEvent
    circles: tuple[int, int] | None   # final circle labels a <= b; None if open


@dataclass(frozen=True)
class WordTrace:
    """The structure of a slice range, from a single boundary replay:
    each non-identity slice's (0-based word index, event), the boundary
    and open components at the start, and the final boundary as
    FragmentValue carries it.  Crossing circles and the linking matrix
    exist only for a closed link, with no open point and no anchor."""

    open_points: int
    crossings: tuple[TracedCrossing, ...]
    linking: tuple[tuple[Fraction, ...], ...] | None   # None unless closed
    events: tuple[tuple[int, Event], ...]
    spec_in: Spec
    open_in: tuple[Birth, ...]
    spec_out: Spec
    leaves: tuple[tuple[Birth, str], ...]
    anchors: Mapping[Birth, tuple[int, ...]]    # read-only
    members: Mapping[Birth, tuple[Birth, ...]]  # read-only

    def crossing(self, index: int) -> TracedCrossing:
        """The crossing at a 1-based slice index."""
        for traced in self.crossings:
            if traced.slice == index:
                return traced
        raise WordValidationError(f"slice {index} is not a crossing")


def trace_word(slices: Sequence[Slice]) -> WordTrace:
    """The word's trace; open words are allowed, invalid ones raise."""
    return _trace(slices)


def _trace(slices: Sequence[Slice], initial: Spec | None = None,
           offset: int = 0) -> WordTrace:
    """The trace of slices from the boundary spec initial (empty if None),
    the first slice at word index offset.  The one way into the cache: it
    passes all three arguments, the spec as checked tuples."""
    if initial is not None:
        initial = _checked_spec(initial)
    return _trace_cached(tuple(slices), initial, offset)


@lru_cache(maxsize=None)
def _trace_cached(slices: tuple[Slice, ...], initial: Spec | None,
                  offset: int) -> WordTrace:
    state = BoundaryState() if initial is None else BoundaryState.from_spec(initial)
    spec_in = state.spec()
    open_in = tuple(state.open_components())
    events = []
    for index, s in enumerate(slices, start=offset):
        event = state.apply(s, index)
        if event is not None:
            events.append((index, event))
    open_points = len(state.leaves)
    closed = not open_points and not state.anchors
    # Circles are numbered by birth order.  Entry (i, j), i != j, of the
    # linking matrix is half the sum of crossing signs between circles i
    # and j; entry (i, i) is half the writhe of circle i (blackboard framing).
    labels = {birth: i for i, birth in enumerate(sorted(state.closed))}
    total: dict[tuple[int, int], int] = {}
    crossings = []
    for index, event in events:
        if not isinstance(event, CrossEvent):
            continue
        circles = None
        if closed:
            a = labels[state.find(event.left[0])]
            b = labels[state.find(event.right[0])]
            circles = (min(a, b) + 1, max(a, b) + 1)
            total[circles] = total.get(circles, 0) + event.geometric_sign
        crossings.append(TracedCrossing(index + 1, event, circles))
    rows = [[Fraction(0)] * len(labels) for _ in labels]
    for (a, b), signs in total.items():
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = Fraction(signs, 2)
    linking = tuple(map(tuple, rows)) if closed else None
    open_out = state.open_components()
    return WordTrace(
        open_points, tuple(crossings), linking, tuple(events), spec_in, open_in,
        state.spec(), state.leaf_summary(),
        MappingProxyType({comp: state.anchors.get(comp, ()) for comp in open_out}),
        MappingProxyType(state.cup_members(open_out)))


def validate_word(slices: Sequence[Slice]) -> WordTrace:
    """Run the boundary checks on a closed word; returns the word's trace.

    An open word raises WordValidationError; trace_word traces one."""
    trace = trace_word(slices)
    if trace.open_points:
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
