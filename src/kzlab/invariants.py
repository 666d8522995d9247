"""Linking functionals and the identities tying them to engine output.

The two sides of every check are built independently: a monomial in the
linking matrix, which the words module counts from signed crossings, and
a sum of engine coefficients over the chord diagrams of one type matrix
or one degree.  An identity checks S, the word, S's size, the cutoff and
S's degree, in that order (see _instance; degree_sum_identity checks a
degree k in place of S), then any crossing and its sign, and reads the
sums off what it checked without checking again (_class_sum,
degree_part).  Each returns VerificationReports holding both exact sides
and no clock, so equal calls return equal reports.

verify_theorem checks the main identity, degree_sum_identity its degree
aggregate.  Replacing a designated crossing's local series by a bare
k-chord block gives the terms of a finite expansion of the invariant.
variation_match and smoothing_shift_reports hold at any crossing;
variation_series_report, smoothing_inversion_reports and
oracle_variation_report, which check_recursion concatenates for `kzlab
verify recursion`, at a positive one.  They relate the terms across
functionals, invert the expansion, and match the whole variation against
the linking oracle in closed form.  Each public function asks a
_CrossingChange of its own; a sweep over many S asks one per crossing.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod
from typing import Mapping, NamedTuple, Sequence

from .diagrams import (
    ChordDiagram, TypeMatrix, _check_perm, connected_sum, enumerate_by_matrix,
)
from .algebra import (
    _check_degree, _check_truncation, closed_connected_product, series_exp,
    unknot_series_closed,
)
from .errors import InputError, WordValidationError
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


def _class_sum(result: TangleResult, rows: TypeMatrix) -> Fraction:
    """The class sum of engine output on rows already checked against it."""
    return result.type_sums(rows.degree).get(rows.cells, _ZERO)


def class_sum(value: TangleResult | Mapping[ChordDiagram, Fraction],
              S: Sequence[Sequence[int]]) -> Fraction:
    """Sum of coefficients over all diagrams with the given type matrix.

    Accepts either engine output, checked against its truncation and
    circle count and then read off its sums by type in one lookup, or
    any raw diagram-to-coefficient mapping, such as a 4T relator, summed
    over every diagram of the type (the tests' oracle for the lookup)."""
    rows = TypeMatrix(S)
    if isinstance(value, TangleResult):
        _check_degree(rows.degree, value.truncation, "type matrix")
        if value.circles != len(rows):
            raise InputError("type matrix size differs from circle count")
        return _class_sum(value, rows)
    return sum((value.get(diagram, _ZERO) for diagram in enumerate_by_matrix(rows)),
               _ZERO)


def degree_class_sum(value: TangleResult, k: int) -> Fraction:
    """Sum of all degree-k coefficients: the sum of every degree-k class sum."""
    _check_degree(k, value.truncation, f"the degree-{k} sum")
    return sum(value.degree_part(k).values(), _ZERO)


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
        subject = f"S={[list(r) for r in self.S]}" if self.S is not None else f"k={self.k}"
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
    _check_degree(rows.degree, cutoff, "type matrix")
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
        perm = _check_perm(relabel, len(rows))
        pulled = TypeMatrix([[rows[p - 1][q - 1] for q in perm] for p in perm])
    lhs = linking_monomial(trace.linking, pulled)
    rhs = _class_sum(integrate(word, cutoff), pulled)
    return VerificationReport(word_id, rows, cutoff, lhs, rhs)


def degree_sum_identity(word: Sequence[Slice], k: int, cutoff: int,
                        word_id: str = "word") -> VerificationReport:
    """Sum of all linking monomials of degree k versus the engine's total
    degree-k coefficient sum.  By the multinomial theorem the monomials
    over every type matrix of degree k sum to (sum_{i <= j} lk_ij)^k / k!,
    so no type matrix is listed."""
    oracle = validate_word(word).linking
    _check_cutoff(word, cutoff)
    _check_degree(k, cutoff, f"the degree-{k} sum")
    cells = sum((lk for i, row in enumerate(oracle) for lk in row[i:]), _ZERO)
    lhs = cells ** k / factorial(k)
    rhs = sum(integrate(word, cutoff).degree_part(k).values(), _ZERO)
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


def _variation_weight(ell: Fraction, s: int) -> Fraction:
    """sum_{i=1..s} (-1)^(i+1) ell^(s-i) / (i! (s-i)!), the binomial
    closed form of the variation of lk^s/s! when lk drops by 1, per unit
    of the other cells' monomial.  With ell = p/q it is
    sum_i (-1)^(i+1) C(s, i) p^(s-i) q^i over s! q^s, summed in ints."""
    p, q = ell.numerator, ell.denominator
    total = sum((-1) ** (i + 1) * comb(s, i) * p ** (s - i) * q ** i
                for i in range(1, s + 1))
    return Fraction(total, factorial(s) * q ** s)


class _CrossingChange:
    """The crossing-change identities at one crossing of a closed word and
    cutoff, for S given as rows checked against the word.  The word, the
    cutoff and the crossing are checked once, in that order, and the
    crossing's circles a <= b and sign read once.  The rest is made on
    first use and kept: the integral, the flip with its integral and
    linking matrix, each bare-block term, and what two identities share."""

    def __init__(self, word: Sequence[Slice], crossing: int, cutoff: int,
                 word_id: str = "word"):
        self.word, self.word_id = _as_word(word), word_id
        trace = validate_word(self.word)
        _check_cutoff(self.word, cutoff)
        traced = trace.crossing(crossing)
        self.crossing, self.cutoff, self.linking = crossing, cutoff, trace.linking
        (self.a, self.b), self.sign = traced.circles, traced.event.geometric_sign
        self._made: dict = {}

    def _once(self, key, make, *args):
        """make(*args), made on key's first use and kept."""
        if key not in self._made:
            self._made[key] = make(*args)
        return self._made[key]

    def plus(self) -> TangleResult:
        return self._once("plus", integrate, self.word, self.cutoff)

    def flipped(self) -> tuple[Slice, ...]:
        return self._once("flipped", flip_crossing, self.word, self.crossing)

    def minus(self) -> TangleResult:
        return self._once("minus", integrate, self.flipped(), self.cutoff)

    def minus_linking(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._once("minus_linking", linking_matrix, self.flipped())

    def term(self, k: int) -> TangleResult:
        return self._once(k, crossing_term, self.word, self.crossing, k, self.cutoff)

    def _lowered(self, rows: TypeMatrix) -> list[tuple[TypeMatrix, Fraction]]:
        """S lowered at (a, b) to each k <= S_ab, with the zero block's class sum."""
        a, b = self.a, self.b
        return self._once(("lowered", rows), lambda: [
            (T, _class_sum(self.term(0), T)) for T in (
                _with_entry(rows, a, b, k) for k in range(rows[a - 1][b - 1] + 1))])

    def _jump(self, rows: TypeMatrix) -> Fraction:
        return self._once(("jump", rows), lambda: _class_sum(self.plus(), rows)
                          - _class_sum(self.minus(), rows))

    def _drop(self, rows: TypeMatrix) -> Fraction:
        return self._once(("drop", rows), lambda: linking_monomial(self.linking, rows)
                          - linking_monomial(self.minus_linking(), rows))

    def _positive(self) -> None:
        if self.sign != 1:
            raise WordValidationError(f"slice {self.crossing} must be a positive "
                                      f"crossing (geometric sign {self.sign})")

    def _report(self, rows: TypeMatrix, lhs: Fraction, rhs: Fraction,
                identity: str, k: int | None = None) -> VerificationReport:
        return VerificationReport(self.word_id, rows, self.cutoff, lhs, rhs, identity, k)

    def smoothing_shift_reports(self, rows: TypeMatrix) -> list[VerificationReport]:
        """Bare-block class sums: shifting the designated entry absorbs the
        block's chords, and blocks larger than the entry contribute nothing."""
        lowered = self._lowered(rows)
        s = len(lowered) - 1
        return [self._report(rows, _class_sum(self.term(k), rows),
                             lowered[s - k][1] if k <= s else _ZERO,
                             "block-shift" if k <= s else "block-vanishing", k)
                for k in range(rows.degree + 1)]

    def smoothing_inversion_reports(self, rows: TypeMatrix) -> list[VerificationReport]:
        """Each smoothed value, with the designated entry lowered to k,
        recovered from the word's own class sums, each read once."""
        self._positive()
        lowered = self._lowered(rows)
        sums = [_class_sum(self.plus(), T) for T, _ in lowered]
        reports = []
        for k, (T, lhs) in enumerate(lowered):
            # sum_p (-1)^p / (p! 2^p) * sums[k - p] over the common weight
            # k! 2^k, which each p! 2^p divides, and one common denominator.
            weight, den = factorial(k) * 2 ** k, prod(v.denominator for v in sums[:k + 1])
            num = sum((-1) ** p * (weight // (factorial(p) * 2 ** p))
                      * sums[k - p].numerator * (den // sums[k - p].denominator)
                      for p in range(k + 1))
            reports.append(self._report(T, lhs, Fraction(num, den * weight),
                                        "smoothing-inversion"))
        return reports

    def variation_match(self, rows: TypeMatrix) -> VerificationReport:
        """Class-sum variation under a crossing change equals the linking
        monomial variation, both computed from scratch."""
        return self._report(rows, self._jump(rows), self._drop(rows), "variation-match")

    def variation_series_report(self, rows: TypeMatrix) -> VerificationReport:
        """The class-sum jump under the crossing change, expressed through
        the odd bare chord blocks at the crossing."""
        self._positive()
        rhs = sum((_class_sum(self.term(2 * j + 1), rows) / (factorial(2 * j + 1) * 4 ** j)
                   for j in range((rows.degree + 1) // 2)), _ZERO)
        return self._report(rows, self._jump(rows), rhs, "variation-series")

    def oracle_variation_report(self, rows: TypeMatrix) -> VerificationReport:
        """The linking-side variation under the crossing change against its
        binomial closed form."""
        self._positive()
        a, b = self.a, self.b
        base = linking_monomial(self.linking, _with_entry(rows, a, b, 0))
        rhs = base * _variation_weight(self.linking[a - 1][b - 1], rows[a - 1][b - 1])
        return self._report(rows, self._drop(rows), rhs, "oracle-variation")

    def check_recursion(self, rows: TypeMatrix) -> list[VerificationReport]:
        """Verify the crossing-change expansion at one positive crossing: the
        variation series, the smoothing inversions and the oracle closed
        form, in that order."""
        return [self.variation_series_report(rows),
                *self.smoothing_inversion_reports(rows),
                self.oracle_variation_report(rows)]


def _one_call(method):
    """The public form of a context's identity: S is checked as in
    _instance, then the crossing, on a context made for the one call."""
    def identity(word: Sequence[Slice], crossing: int, S: Sequence[Sequence[int]],
                 cutoff: int, word_id: str = "word"):
        rows, _ = _instance(word, S, cutoff)
        return method(_CrossingChange(word, crossing, cutoff, word_id), rows)

    identity.__name__ = identity.__qualname__ = method.__name__
    identity.__doc__ = method.__doc__
    return identity


smoothing_shift_reports = _one_call(_CrossingChange.smoothing_shift_reports)
smoothing_inversion_reports = _one_call(_CrossingChange.smoothing_inversion_reports)
variation_match = _one_call(_CrossingChange.variation_match)
variation_series_report = _one_call(_CrossingChange.variation_series_report)
oracle_variation_report = _one_call(_CrossingChange.oracle_variation_report)
check_recursion = _one_call(_CrossingChange.check_recursion)


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
