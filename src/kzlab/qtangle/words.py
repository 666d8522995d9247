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
its crossing runs, crossing circles and the linking matrix of a closed
link, and a fragment's boundary data.  The series engine reads the same
trace.  The cache keeps the 1024 most recently used traces.

The per-slice work is kept small.  parse_word parses each distinct
token of a word once, however often it repeats, and BoundaryState.apply
runs only the checks of its slice's kind; the trace records the runs in
the same pass that lists the crossings.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from ..errors import InputError, WordParseError, WordValidationError

# Component birth keys order circles: boundary anchors first, then cups by
# slice.  A merge keeps the smallest key.
Birth = tuple[int, int, int]

START, END = "start", "end"


class Slice(NamedTuple):
    """One elementary generator: kind, 1-based position, and variant.

    kind is one of 'i', 'x', 'cup', 'cap', 'assoc'.  Crossings and
    associations carry sign +1/-1; cups and caps carry the primed flag.
    A plain tuple of its fields, so word caches hash slices natively.
    """

    kind: str
    pos: int
    sign: int = 0
    primed: bool = False

    def __str__(self) -> str:
        # A sign other than +1 or -1 renders as '?', a tag no word parses,
        # so a refusal never names a valid slice the word does not hold.
        if self.kind in ("x", "assoc"):
            tag = self.kind + ("+" if self.sign == 1 else "-" if self.sign == -1 else "?")
        elif self.kind in ("cup", "cap"):
            tag = self.kind + ("'" if self.primed else "")
        else:
            tag = self.kind
        return f"{tag}@{self.pos}"


# Positions are ASCII digits: \d would take any Unicode decimal digit,
# and render_word would not give the text back.
_SLICE_RE = re.compile(r"^(i|x[+-]|cup'?|cap'?|assoc[+-])@([0-9]+)$")


def parse_word(text: str) -> tuple[Slice, ...]:
    """Parse a word from text: slices separated by ';' or newlines.

    '#' starts a comment running to end of line; blank entries are skipped.
    Each distinct token is parsed once per call and its Slice reused; a
    bad token raises at its first appearance, naming that line.
    """
    slices: list[Slice] = []
    parsed: dict[str, Slice] = {}
    for lineno, line in enumerate(text.splitlines() or [""], start=1):
        line = line.split("#", 1)[0]
        for chunk in line.split(";"):
            token = chunk.strip()
            s = parsed.get(token)
            if s is None:
                if not token:
                    continue
                s = parsed[token] = _parse_token(token, lineno)
            slices.append(s)
    return _CheckedWord(slices)


def _parse_token(token: str, lineno: int) -> Slice:
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
        raise WordParseError(f"line {lineno}: positions are 1-based, got {token!r}")
    if tag[0] in "ax":   # assoc+, assoc-, x+ or x-
        return Slice(tag[:-1], pos, sign=1 if tag[-1] == "+" else -1)
    if tag[0] == "c":
        return Slice(tag.rstrip("'"), pos, primed=tag.endswith("'"))
    return Slice("i", pos)


def render_word(slices: Sequence[Slice]) -> str:
    return " ; ".join(str(s) for s in slices)


class _CheckedWord(tuple):
    """A tuple of Slices with hashable fields, as _as_word returns it.
    A tuple of NamedTuples never changes, so the check holds for good."""

    __slots__ = ()


def _as_word(slices: Sequence[Slice]) -> tuple[Slice, ...]:
    """slices as the tuple a word cache is keyed by.  A plain tuple equals
    the Slice of its fields, so anything else is refused before a lookup,
    and so is a word that is not iterable or has an unhashable field.  A
    word this returned (parse_word's too) passes through unscanned."""
    if type(slices) is _CheckedWord:
        return slices
    try:
        word = tuple(slices)
    except TypeError:
        raise WordValidationError(
            f"a word must be a sequence of Slices, not {type(slices).__name__}") from None
    if not set(map(type, word)) <= {Slice}:
        bad = next(type(s) for s in word if type(s) is not Slice)
        raise WordValidationError(f"a word's elements must be Slices, not {bad.__name__}")
    try:
        hash(word)
    except TypeError as exc:
        raise WordValidationError(f"a word's slices must be hashable: {exc}") from None
    return _CheckedWord(word)


# -- Boundary state ----------------------------------------------------------
#
# The bracketing is stored flat: `leaves` holds one (birth, role) record
# per boundary point, left to right, and depth[j] is the depth of the node
# that splits the gap between leaves j and j + 1, the root at depth 0.
# Neighbouring gaps never share a depth, and a node's subtree is the run of
# deeper gaps around it.

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
    """spec as two tuples; WordValidationError unless it is a pair of
    sequences whose depths bracket and whose roles are 'start'/'end'."""
    try:
        depths, roles = map(tuple, spec)
    except (TypeError, ValueError):
        raise WordValidationError(
            f"boundary spec {spec!r} is not a (depths, roles) pair") from None
    if len(depths) != max(0, len(roles) - 1) or not _is_bracketing(depths):
        raise WordValidationError(
            f"boundary spec depths are not a bracketing of {len(roles)} leaves")
    if any(role not in (START, END) for role in roles):
        raise WordValidationError("boundary spec roles must be 'start' or 'end'")
    return depths, roles


# -- Events ------------------------------------------------------------------


class CupEvent(NamedTuple):
    primed: bool
    component: Birth


class CapEvent(NamedTuple):
    primed: bool
    ending: Birth        # component whose end point is consumed
    starting: Birth      # component whose start point is consumed

    @property
    def closes(self) -> bool:   # both points on one component, now a circle
        return self.starting == self.ending


class CrossEvent(NamedTuple):
    eps: int                       # +1 for x+, -1 for x-
    left: tuple[Birth, str]        # (component, role) before the slice
    right: tuple[Birth, str]

    @property
    def geometric_sign(self) -> int:
        """Crossing sign by the right-hand rule: eps times both direction
        factors, where an up point counts +1 and a down point -1."""
        return self.eps * _FACTOR[self.left[1]] * _FACTOR[self.right[1]]


_FACTOR = {END: 1, START: -1}   # a boundary point's direction factor


class AssocEvent(NamedTuple):
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
        self.leaves: list[tuple[Birth, str]] = []
        self.depth: list[int] = []
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
            birth: Birth = (0, 0, position)
            state._parent[birth] = birth
            state.anchors[birth] = (position,)
            state.leaves.append((birth, role))
        return state

    def spec(self) -> Spec:
        """Snapshot of gap depths and roles, suitable for from_spec."""
        return (tuple(self.depth),
                tuple(role for _, role in self.leaves))

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

    # Union-find over birth keys; the smallest key survives a merge.
    def find(self, birth: Birth) -> Birth:
        parent = self._parent
        root = parent[birth]
        if root == birth:   # a root, as most points are
            return root
        while parent[root] != root:
            root = parent[root]
        while parent[birth] != root:
            parent[birth], birth = root, parent[birth]
        return root

    def _union(self, a: Birth, b: Birth) -> None:
        """Join the components of two distinct roots."""
        keep, drop = sorted((a, b))
        self._parent[drop] = keep
        combined = tuple(sorted(self.anchors.pop(keep, ())
                                + self.anchors.pop(drop, ())))
        if combined:
            self.anchors[keep] = combined

    def open_components(self) -> list[Birth]:
        """Distinct live components, smallest birth first."""
        return sorted({self.find(birth) for birth, _ in self.leaves}
                      | {self.find(birth) for birth in self.anchors})

    def apply(self, s: Slice, index: int) -> Event | None:
        """Validate and perform one slice; index is its 0-based position.

        An identity slice changes nothing and has no event (None).  Each
        kind runs only its own checks, the cheap ones first."""
        kind, pos, sign, primed = s
        # Checked by value, as the caches compare words; events carry ints.
        if kind == "x" or kind == "assoc":
            if sign not in (1, -1):
                raise _refused(s, index, f"sign must be +1 or -1, not {sign!r}")
            sign = 1 if sign == 1 else -1
        elif (kind == "cup" or kind == "cap") and primed not in (True, False):
            raise _refused(s, index, f"primed flag must be True or False, not {primed!r}")
        if type(pos) is not int:
            pos = _position(s, index)
        leaves, depth = self.leaves, self.depth
        n = len(leaves)

        if kind == "x" or kind == "cap":
            if not 1 <= pos < n:
                raise _refused(s, index, f"position out of range 1..{max(0, n - 1)}")
            # Siblings: gap j is deeper than both neighbouring gaps.
            j = pos - 1
            if not (depth[j - 1] if j else -1) < depth[j] > (
                    depth[pos] if pos < n - 1 else -1):
                raise _refused(s, index, "operand points are not siblings")
            a, b = leaves[j], leaves[pos]
            if kind == "x":
                leaves[j], leaves[pos] = b, a
                return CrossEvent(sign, (self.find(a[0]), a[1]), (self.find(b[0]), b[1]))
            want = (END, START) if primed else (START, END)
            got = (a[1], b[1])
            if got != want:
                raise _refused(s, index, f"direction mismatch: needs {want[0]}/{want[1]} "
                                         f"points, found {got[0]}/{got[1]}")
            starting = self.find((a if not primed else b)[0])
            ending = self.find((b if not primed else a)[0])
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
            if starting != ending:
                self._union(starting, ending)
            elif self.anchors.get(starting):
                raise _refused(s, index, "cannot close an anchored component")
            else:
                self.closed.append(starting)
            return CapEvent(primed, ending, starting)

        if kind == "i":
            if not 1 <= pos <= max(1, n):
                raise _refused(s, index, f"position out of range 1..{max(1, n)}")
            return None

        if kind == "cup":
            if not 1 <= pos <= n + 1:
                raise _refused(s, index, f"position out of range 1..{n + 1}")
            # The cherry replaces leaf k by (cherry, k), or by (k, cherry)
            # at the right end, one level below k's old depth.
            k = min(pos, n) - 1
            below = max(self._gap(k - 1), self._gap(k)) + 1
            if n == 0:
                depth.append(0)
            elif pos <= n:
                depth[k:k] = [below + 1, below]
            else:
                depth.extend((below, below + 1))
            birth: Birth = (1, index, pos)
            self._parent[birth] = birth
            roles = (END, START) if primed else (START, END)
            leaves[pos - 1:pos - 1] = [(birth, roles[0]), (birth, roles[1])]
            return CupEvent(primed, birth)

        if kind == "assoc":
            # An association's address is checked by its shape, not a range.
            # assoc+ turns ((X,Y),Z) into (X,(Y,Z)); assoc- is the inverse.
            # The address p is the 1-based position of Y's leftmost leaf,
            # so gap g = p - 2 splits X|Y; r is the Y|Z gap, g's parent
            # for assoc+ and the root of g's right subtree for assoc-.
            g, r = pos - 2, None
            if 0 <= g < n - 1:
                end = self._run_end(g + 1, 1, depth[g])   # past g's subtree
                if sign > 0 and end < n - 1 and depth[end] == depth[g] - 1:
                    r = end
                elif sign < 0:
                    r = next((k for k in range(g + 1, end)
                              if depth[k] == depth[g] + 1), None)
            if r is None:
                raise _refused(s, index, "no rebracketable configuration at this position")
            x0 = self._run_end(g - 1, -1, depth[g]) + 1
            z1 = self._run_end(r + 1, 1, depth[r])
            blocks = tuple(
                tuple((i + 1, self.find(leaves[i][0]), leaves[i][1])
                      for i in range(lo, hi))
                for lo, hi in ((x0, g + 1), (g + 1, r + 1), (r + 1, z1 + 1)))
            depth[g], depth[r] = depth[r], depth[g]
            self._shift(x0, g, -sign)
            self._shift(r + 1, z1, sign)
            return AssocEvent(sign, blocks)

        raise _refused(s, index, f"unknown generator kind {kind!r}")


def _refused(s: Slice, index: int, message: str) -> WordValidationError:
    return WordValidationError(f"slice {index + 1} ({s}): {message}")


def _position(s: Slice, index: int) -> int:
    """The int a position that is no int equals; refused if none."""
    try:
        pos = int(s.pos)
    except (TypeError, ValueError, OverflowError):
        pos = None
    if pos is None or pos != s.pos:
        raise _refused(s, index, f"position must be an int, not {s.pos!r}")
    return pos


class TracedCrossing(NamedTuple):
    slice: int                        # 1-based slice index
    event: CrossEvent
    circles: tuple[int, int] | None   # final circle labels a <= b; None if open


class WordTrace(NamedTuple):
    """The structure of a slice range, from a single boundary replay:
    each non-identity slice's (0-based word index, event), its crossing
    runs, the boundary and open components at the start, and the final
    boundary as FragmentValue carries it.  Crossing circles and the
    linking matrix exist only for a closed link, with no open point and
    no anchor.

    A run is a maximal stretch of consecutive crossings on one pair of
    strand points, identity slices between them allowed; runs holds one
    (first, last, G) per run, in slice order: the 0-based word indices
    of its first and last crossings and the sum G of its crossings'
    geometric signs.  A crossing with no such neighbour is a run alone."""

    open_points: int
    crossings: tuple[TracedCrossing, ...]
    linking: tuple[tuple[Fraction, ...], ...] | None   # None unless closed
    events: tuple[tuple[int, Event], ...]
    runs: tuple[tuple[int, int, int], ...]
    spec_in: Spec
    open_in: tuple[Birth, ...]
    spec_out: Spec
    leaves: tuple[tuple[Birth, str], ...]
    anchors: Mapping[Birth, tuple[int, ...]]    # read-only

    def crossing(self, index: int) -> TracedCrossing:
        """The crossing at a 1-based slice index, an int."""
        if type(index) is not int:
            raise InputError(f"slice index must be an int, not {index!r}")
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
    passes all three arguments, the word as Slices, the spec as checked
    tuples and the offset an int >= 0 (InputError otherwise)."""
    if type(offset) is not int or offset < 0:
        raise InputError(f"slice offset must be an int >= 0, not {offset!r}")
    if initial is not None:
        initial = _checked_spec(initial)
    return _trace_cached(_as_word(slices), initial, offset)


@lru_cache(maxsize=1024)
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
    runs: list[tuple[int, int, int]] = []
    swapped = None   # the last event's points swapped, while it is a crossing
    for index, event in events:
        if not isinstance(event, CrossEvent):
            swapped = None
            continue
        _, left, right = event
        g = event.geometric_sign
        # The next crossing on the same two points finds them swapped.
        if swapped == (left, right):
            first, _, run_sign = runs[-1]
            runs[-1] = (first, index, run_sign + g)
        else:
            runs.append((index, index, g))
        swapped = right, left
        circles = None
        if closed:
            a = labels[state.find(left[0])]
            b = labels[state.find(right[0])]
            circles = (min(a, b) + 1, max(a, b) + 1)
            total[circles] = total.get(circles, 0) + g
        crossings.append(TracedCrossing(index + 1, event, circles))
    rows = [[Fraction(0)] * len(labels) for _ in labels]
    for (a, b), signs in total.items():
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = Fraction(signs, 2)
    linking = tuple(map(tuple, rows)) if closed else None
    return WordTrace(
        open_points, tuple(crossings), linking, tuple(events), tuple(runs), spec_in,
        open_in, state.spec(), tuple((state.find(b), role) for b, role in state.leaves),
        MappingProxyType({comp: state.anchors.get(comp, ())
                          for comp in state.open_components()}))


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
