"""Linking functionals and the identities tying them to engine output.

The two sides of every check are built independently.  The left side is
a monomial in entries of the linking matrix, which the words module
computes by counting signed crossings, taken over the type matrix's
sparse cells: its numerator and denominator are multiplied out as ints
and divided once.  The linking matrix must be S's size, in rows of that
length, and each entry read an int (not a bool) or a Fraction; the row
lengths and the cells' entries are checked, never all m^2 entries.  The
right side sums engine coefficients over a family of chord diagrams,
selected by type matrix or by degree.  A class sum of engine output is
one lookup in the result's sums by type, grouped once per degree; a raw
mapping, such as a 4T relator, is summed over every diagram of the type,
which the tests keep as the oracle for the lookup.
Every identity checks S, the word and the truncation once,
in _instance, before either side is computed (degree_sum_identity, with
a degree k for S, checks k).  Each checker returns a VerificationReport
holding both exact rationals, so a failure is inspectable rather than a
bare assertion; its verdict is read off them, and it carries no clock,
so equal calls return equal reports.

The identity functions: verify_theorem, and degree_sum_identity for its
degree aggregate; variation_match and smoothing_shift_reports at any
designated crossing; variation_series_report, smoothing_inversion_reports
and oracle_variation_report at a positive one, which check_recursion
concatenates in that order for `kzlab verify recursion`.  Replacing the
designated crossing's local series by a bare k-chord block gives the
terms of a finite expansion of the invariant; the crossing-change
identities relate those terms across functionals, invert the expansion,
and match the whole variation against the linking oracle in closed form.
Those sides are summed in ints, one Fraction each: the oracle's binomial
closed form over s! q^s for lk = p/q, and each inversion over k! 2^k
from class sums read once per lowered matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Mapping, NamedTuple, Sequence

from .diagrams import (
    ChordDiagram, TypeMatrix, _check_perm, connected_sum, enumerate_by_matrix,
)
from .algebra import (
    _check_truncation, closed_connected_product, series_exp, unknot_series_closed,
)
from .errors import InputError, TruncationUnsupportedError, WordValidationError
from .qtangle.corpus import load_corpus_word
from .qtangle.engine import TangleResult, _check_cutoff, crossing_term, integrate
from .qtangle.words import (
    Slice, WordTrace, _CheckedWord, _as_word, linking_matrix, trace_word,
    validate_word,
)

_ZERO = Fraction(0)


def linking_monomial(linking: Sequence[Sequence[Fraction]],
                     S: Sequence[Sequence[int]]) -> Fraction:
    """Product over cells i <= j of lk_ij^s_ij / s_ij!; 1 for S = 0.

    The linking matrix must be m x m for S's size m, each entry read an
    int (not a bool) or a Fraction.  Only the rows' lengths and the
    entries at S's cells are read, never all m^2 entries.  Numerator and
    denominator are multiplied out as ints and divided once."""
    rows = TypeMatrix(S)
    m = len(rows)
    try:
        if len(linking) != m or any(len(row) != m for row in linking):
            raise InputError("linking matrix and type matrix sizes differ")
        read = [(linking[i][j], s) for i, j, s in rows.cells]
    except (LookupError, TypeError) as exc:
        raise InputError("linking matrix must be a sequence of rows") from exc
    if any(type(lk) is not int and not isinstance(lk, Fraction) for lk, _ in read):
        raise InputError("linking matrix entries must be ints or Fractions")
    num = den = 1
    for lk, s in read:
        if not lk:
            return _ZERO
        num *= lk.numerator ** s
        den *= lk.denominator ** s * factorial(s)
    return Fraction(num, den)


def _check_degree(k: int, cutoff: int, subject: str = "type matrix") -> None:
    """Refuse a degree k over the truncation cutoff, naming what needs it."""
    if k > cutoff:
        raise TruncationUnsupportedError(
            f"{subject} needs degree {k} but the series is truncated at {cutoff}")


def class_sum(value: TangleResult | Mapping[ChordDiagram, Fraction],
              S: Sequence[Sequence[int]]) -> Fraction:
    """Sum of coefficients over all diagrams with the given type matrix.

    Accepts either engine output, checked against its truncation and
    circle count and then read off its sums by type in one lookup, or
    any raw diagram-to-coefficient mapping, such as a 4T relator, summed
    over every diagram of the type.
    """
    rows = TypeMatrix(S)
    if isinstance(value, TangleResult):
        _check_degree(rows.degree, value.truncation)
        if value.circles != len(rows):
            raise InputError("type matrix size differs from circle count")
        return value.type_sums(rows.degree).get(rows.cells, _ZERO)
    total = Fraction(0)
    for diagram in enumerate_by_matrix(rows):
        total += value.get(diagram, _ZERO)
    return total


def _check_sum_degree(k: int, cutoff: int) -> None:
    """Refuse a degree k that is not an int >= 0, or is over the cutoff."""
    if type(k) is not int or k < 0:
        raise InputError("degree k must be nonnegative and an int")
    _check_degree(k, cutoff, f"the degree-{k} sum")


def degree_class_sum(value: TangleResult, k: int) -> Fraction:
    """Sum of all degree-k coefficients, which is also the sum of the
    class sums over every type matrix of degree k."""
    _check_sum_degree(k, value.truncation)
    return sum(value.degree_part(k).values(), Fraction(0))


# -- Reports -----------------------------------------------------------------


class VerificationReport(NamedTuple):
    """One exact identity check: both sides, and the verdict they give."""

    word: str
    S: TypeMatrix | None
    N: int
    lhs: Fraction
    rhs: Fraction
    identity: str = ""
    k: int | None = None

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def as_dict(self) -> dict:
        out: dict = {
            "word": self.word,
            "S": [list(row) for row in self.S] if self.S is not None else None,
            "N": self.N,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "pass": self.passed,
        }
        if self.identity:
            out["identity"] = self.identity
        if self.k is not None:
            out["k"] = self.k
        return out

    def render(self) -> str:
        subject = (f"S={[list(r) for r in self.S]}" if self.S is not None
                   else f"k={self.k}")
        tag = f" [{self.identity}]" if self.identity else ""
        verdict = "pass" if self.passed else "FAIL"
        return (f"{self.word} {subject} N={self.N}{tag}: "
                f"{self.lhs} == {self.rhs} -> {verdict}")


def _instance(word: Sequence[Slice], S: Sequence[Sequence[int]],
              cutoff: int) -> tuple[TypeMatrix, WordTrace]:
    """S as a TypeMatrix and the closed word's trace, once S's size is
    checked against the circle count, the truncation against the word
    and S's degree against the truncation, in that order."""
    rows = TypeMatrix(S)
    trace = validate_word(word)
    if len(rows) != len(trace.linking):
        raise InputError("type matrix size differs from circle count")
    _check_cutoff(word, cutoff)
    _check_degree(rows.degree, cutoff)
    return rows, trace


# -- The main identity and its degree aggregate ------------------------------


def verify_theorem(word: Sequence[Slice], S: Sequence[Sequence[int]],
                   cutoff: int, word_id: str = "word",
                   relabel: Sequence[int] | None = None) -> VerificationReport:
    """Linking monomial versus the same-type class sum of the integral.

    Under relabel, circle i of the word is circle relabel[i-1] of the link
    checked, so S is pulled back onto the word's circles and checked
    against the word's own linking matrix and integral; the report keeps
    the S it was given."""
    rows, trace = _instance(word, S, cutoff)
    pulled = rows
    if relabel is not None:
        perm = tuple(relabel)
        _check_perm(perm, len(rows))
        pulled = TypeMatrix([[rows[p - 1][q - 1] for q in perm] for p in perm])
    lhs = linking_monomial(trace.linking, pulled)
    rhs = class_sum(integrate(word, cutoff), pulled)
    return VerificationReport(word_id, rows, cutoff, lhs, rhs)


def degree_sum_identity(word: Sequence[Slice], k: int, cutoff: int,
                        word_id: str = "word") -> VerificationReport:
    """Sum of all linking monomials of degree k versus the engine's total
    degree-k coefficient sum.  By the multinomial theorem the monomials
    over every type matrix of degree k sum to (sum_{i <= j} lk_ij)^k / k!,
    so no type matrix is listed."""
    oracle = validate_word(word).linking
    _check_cutoff(word, cutoff)
    _check_sum_degree(k, cutoff)
    cells = sum((lk for i, row in enumerate(oracle) for lk in row[i:]),
                Fraction(0))
    lhs = cells ** k / factorial(k)
    rhs = degree_class_sum(integrate(word, cutoff), k)
    return VerificationReport(word_id, None, cutoff, lhs, rhs, k=k)


# -- Crossing-change identities ----------------------------------------------


def flip_crossing(word: Sequence[Slice], crossing: int) -> tuple[Slice, ...]:
    """The same word with the designated crossing's sign reversed.  The
    word is checked once; the flipped word is returned checked (see
    _as_word), so no later entry scans it again."""
    word = _as_word(word)
    trace_word(word).crossing(crossing)   # raises unless a crossing slice
    s = word[crossing - 1]
    return _CheckedWord(word[:crossing - 1] + (Slice(s.kind, s.pos, -s.sign, s.primed),)
                        + word[crossing:])


def crossing_circles(word: Sequence[Slice], crossing: int) -> tuple[int, int]:
    """Final circle labels (a <= b) of the two strands at a crossing."""
    circles = trace_word(word).crossing(crossing).circles
    if circles is None:
        raise WordValidationError("crossing circles need a closed word")
    return circles


def _with_entry(S: TypeMatrix, a: int, b: int, value: int) -> TypeMatrix:
    """S with its entries (a, b) and (b, a), 1-based, set to value."""
    i, j = sorted((a - 1, b - 1))
    cells = [cell for cell in S.cells if cell[:2] != (i, j)]
    if value:
        cells = sorted(cells + [(i, j, value)])
    return TypeMatrix._of_cells(len(S), tuple(cells))


def _positive_cell(word: Sequence[Slice], crossing: int,
                   S: Sequence[Sequence[int]], cutoff: int
                   ) -> tuple[TypeMatrix, int, int]:
    """The instance checked, then the designated crossing checked to be
    positive; S and the crossing's circle pair (a, b)."""
    rows, trace = _instance(word, S, cutoff)
    traced = trace.crossing(crossing)
    if traced.event.geometric_sign != 1:
        raise WordValidationError(
            f"slice {crossing} must be a positive crossing "
            f"(geometric sign {traced.event.geometric_sign})")
    return (rows, *traced.circles)


def variation_series_report(word: Sequence[Slice], crossing: int,
                            S: Sequence[Sequence[int]], cutoff: int,
                            word_id: str = "word") -> VerificationReport:
    """The class-sum jump under the crossing change, expressed through
    the odd bare chord blocks at the crossing."""
    rows, _, _ = _positive_cell(word, crossing, S, cutoff)
    plus = integrate(word, cutoff)
    minus = integrate(flip_crossing(word, crossing), cutoff)
    lhs = class_sum(plus, rows) - class_sum(minus, rows)
    rhs = Fraction(0)
    j = 0
    while 2 * j + 1 <= rows.degree:
        term = class_sum(crossing_term(word, crossing, 2 * j + 1, cutoff), rows)
        rhs += term / (factorial(2 * j + 1) * 4 ** j)
        j += 1
    return VerificationReport(word_id, rows, cutoff, lhs, rhs,
                              identity="variation-series")


def smoothing_inversion_reports(word: Sequence[Slice], crossing: int,
                                S: Sequence[Sequence[int]], cutoff: int,
                                word_id: str = "word"
                                ) -> list[VerificationReport]:
    """Each smoothed value, with the designated entry lowered to k, recovered
    from the word's own class sums.  The lowered matrices and the word's
    class sums over them are built once and shared by every report."""
    rows, a, b = _positive_cell(word, crossing, S, cutoff)
    plus = integrate(word, cutoff)
    smoothed = crossing_term(word, crossing, 0, cutoff)
    lowered = [_with_entry(rows, a, b, k) for k in range(rows[a - 1][b - 1] + 1)]
    sums = [class_sum(plus, T) for T in lowered]
    reports = []
    for k, T in enumerate(lowered):
        lhs = class_sum(smoothed, T)
        # sum_p (-1)^p / (p! 2^p) * sums[k - p] as num / den in ints, over
        # the common weight k! 2^k, which each p! 2^p divides.
        weight = factorial(k) * 2 ** k
        num, den = 0, 1
        for p in range(0, k + 1):
            value = sums[k - p]
            num = (num * value.denominator + (-1) ** p * den * value.numerator
                   * (weight // (factorial(p) * 2 ** p)))
            den *= value.denominator
        reports.append(VerificationReport(word_id, T, cutoff, lhs,
                                          Fraction(num, den * weight),
                                          identity="smoothing-inversion"))
    return reports


def _variation_weight(ell: Fraction, s: int) -> Fraction:
    """sum_{i=1..s} (-1)^(i+1) ell^(s-i) / (i! (s-i)!), the binomial
    closed form of the variation of lk^s/s! when lk drops by 1, per unit
    of the other cells' monomial.  With ell = p/q it is
    sum_i (-1)^(i+1) C(s, i) p^(s-i) q^i over s! q^s, summed in ints."""
    p, q = ell.numerator, ell.denominator
    total = sum((-1) ** (i + 1) * comb(s, i) * p ** (s - i) * q ** i
                for i in range(1, s + 1))
    return Fraction(total, factorial(s) * q ** s)


def oracle_variation_report(word: Sequence[Slice], crossing: int,
                            S: Sequence[Sequence[int]], cutoff: int,
                            word_id: str = "word") -> VerificationReport:
    """The linking-side variation under the crossing change against its
    binomial closed form."""
    rows, a, b = _positive_cell(word, crossing, S, cutoff)
    s = rows[a - 1][b - 1]
    lk_plus = linking_matrix(word)
    lk_minus = linking_matrix(flip_crossing(word, crossing))
    lhs = (linking_monomial(lk_plus, rows) - linking_monomial(lk_minus, rows))
    base = linking_monomial(lk_plus, _with_entry(rows, a, b, 0))
    rhs = base * _variation_weight(lk_plus[a - 1][b - 1], s)
    return VerificationReport(word_id, rows, cutoff, lhs, rhs,
                              identity="oracle-variation")


def check_recursion(word: Sequence[Slice], crossing: int,
                    S: Sequence[Sequence[int]], cutoff: int,
                    word_id: str = "word") -> list[VerificationReport]:
    """Verify the crossing-change expansion at one positive crossing: the
    variation series, the smoothing inversions and the oracle closed
    form, in that order."""
    return [variation_series_report(word, crossing, S, cutoff, word_id),
            *smoothing_inversion_reports(word, crossing, S, cutoff, word_id),
            oracle_variation_report(word, crossing, S, cutoff, word_id)]


def smoothing_shift_reports(word: Sequence[Slice], crossing: int,
                            S: Sequence[Sequence[int]], cutoff: int,
                            word_id: str = "word") -> list[VerificationReport]:
    """Bare-block class sums: shifting the designated entry absorbs the
    block's chords, and blocks larger than the entry contribute nothing."""
    rows, trace = _instance(word, S, cutoff)
    a, b = trace.crossing(crossing).circles
    s = rows[a - 1][b - 1]
    zero_block = crossing_term(word, crossing, 0, cutoff)
    reports = []
    for k in range(0, s + 1):
        lhs = class_sum(crossing_term(word, crossing, k, cutoff), rows)
        rhs = class_sum(zero_block, _with_entry(rows, a, b, s - k))
        reports.append(VerificationReport(word_id, rows, cutoff, lhs, rhs,
                                          identity="block-shift", k=k))
    for k in range(s + 1, rows.degree + 1):
        lhs = class_sum(crossing_term(word, crossing, k, cutoff), rows)
        reports.append(VerificationReport(word_id, rows, cutoff, lhs, _ZERO,
                                          identity="block-vanishing", k=k))
    return reports


def variation_match(word: Sequence[Slice], crossing: int,
                    S: Sequence[Sequence[int]], cutoff: int,
                    word_id: str = "word") -> VerificationReport:
    """Class-sum variation under a crossing change equals the linking
    monomial variation, both computed from scratch."""
    rows, trace = _instance(word, S, cutoff)
    flipped = flip_crossing(word, crossing)
    lhs = (class_sum(integrate(word, cutoff), rows)
           - class_sum(integrate(flipped, cutoff), rows))
    rhs = (linking_monomial(trace.linking, rows)
           - linking_monomial(linking_matrix(flipped), rows))
    return VerificationReport(word_id, rows, cutoff, lhs, rhs,
                              identity="variation-match")


# -- Unknot values by two routes ---------------------------------------------


def kinked_unknot_series(cutoff: int) -> dict[ChordDiagram, Fraction]:
    """Series of the once-kinked unknot built by surgery on the closed
    series: connected product of the plain unknot value with exp of a
    half-weighted single chord.  A cutoff that is not an int >= 0 within
    the unknot series' cap is refused before any work."""
    _check_truncation(cutoff)
    one_chord = ChordDiagram([(1, 1)])
    unit = ChordDiagram([()])
    twist = series_exp({one_chord: Fraction(1, 2)}, connected_sum, unit,
                       lambda d: d.degree, cutoff)
    return closed_connected_product(unknot_series_closed(cutoff), twist, cutoff)


def unknot_degree_value(k: int, framed: bool, cutoff: int) -> Fraction:
    """Engine-side degree-k coefficient sum for the unframed or the
    once-kinked unknot word; framed must be a bool."""
    if type(framed) is not bool:
        raise InputError(f"framed must be a bool, got {framed!r}")
    word = load_corpus_word("u1" if framed else "u0")
    return degree_class_sum(integrate(word, cutoff), k)
