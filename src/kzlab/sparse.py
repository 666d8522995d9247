"""Exact sparse vectors over the rationals, and their reduction modulo a
span of relators.

A vector is a dict from keys to Fraction coefficients with no zero
entry.  A quotient indexes a basis of keys and keeps echelon rows, each
scaled to 1 at its pivot (its least index), spanning the relators; the
residual of a vector subtracts them to a normal form, so two vectors
agree modulo the relators exactly when their residuals are equal.  The
keys are opaque: diagrams on circles and monomials on strands share this
code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

K = TypeVar("K", bound=Hashable)


def add_term(out: dict, key: object, coeff: Fraction | int) -> None:
    """Add coeff to out[key] as a Fraction, dropping the key at zero.

    A key not yet in out takes coeff itself, made a Fraction only when
    it is not one, with no addition to zero."""
    old = out.get(key)
    if old is None:
        if coeff:
            out[key] = coeff if type(coeff) is Fraction else Fraction(coeff)
        return
    new = old + coeff
    if new:
        out[key] = new
    else:
        del out[key]


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
