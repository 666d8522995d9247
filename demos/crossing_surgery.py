#!/usr/bin/env python3
"""Crossing surgery on the clasp: flips, bare blocks, and the variation
series.

The designated crossing of a word can be flipped, smoothed away, or
replaced by a bare block of k parallel chords.  This script walks the
positive Hopf clasp and the trefoil through all three moves and checks
the identities tying them together, in exact arithmetic throughout.
"""

import sys
from fractions import Fraction
from math import factorial

from kzlab.invariants import (
    check_recursion, class_sum, crossing_circles, flip_crossing,
    smoothing_shift_reports,
)
from kzlab.qtangle.corpus import load_corpus_word
from kzlab.qtangle.engine import crossing_term, integrate
from kzlab.qtangle.words import linking_matrix, render_word, trace_word

failures = 0


def require(label, ok):
    global failures
    print(f"  {'pass' if ok else 'FAIL'}  {label}")
    failures += not ok


# == 1. Flipping one clasp crossing unlinks the Hopf pair ====================

word = load_corpus_word("hopf+")
crossing = 4
print("word:", render_word(word))
print(f"designated crossing: slice {crossing}, geometric sign "
      f"{trace_word(word).crossing(crossing).event.geometric_sign:+d}, strands on "
      f"circles {crossing_circles(word, crossing)}")

def matrix_text(rows):
    return "  ".join("[" + " ".join(str(x) for x in row) + "]" for row in rows)


flipped = flip_crossing(word, crossing)
print("linking before flip:", matrix_text(linking_matrix(word)))
print("linking after flip: ", matrix_text(linking_matrix(flipped)))
require("flip kills the linking number",
        linking_matrix(flipped) == ((0, 0), (0, 0)))

# == 2. Bare blocks: k chords where the crossing was =========================

S = ((0, 1), (1, 0))
print()
print("class sums of the k-chord block at the mixed cell:")
for k in range(4):
    block = crossing_term(word, crossing, k, 3)
    for s12 in range(3):
        cell = ((0, s12), (s12, 0))
        value = class_sum(block, cell)
        if value:
            print(f"  k={k}: type s12={s12} -> {value}")
require("blocks above the cell vanish",
        class_sum(crossing_term(word, crossing, 2, 3), S) == 0)

# == 3. The variation series ================================================

plus = integrate(word, 3)
minus = integrate(flipped, 3)
jump = class_sum(plus, S) - class_sum(minus, S)
series = Fraction(0)
j = 0
while 2 * j + 1 <= 2:
    term = class_sum(crossing_term(word, crossing, 2 * j + 1, 3), S)
    series += term / (factorial(2 * j + 1) * 4 ** j)
    j += 1
print()
print(f"class-sum jump under the flip: {jump}")
print(f"odd-block series:              {series}")
require("variation series matches the jump", jump == series)

# == 4. The full report set, Hopf clasp then trefoil ========================

print()
for name, crossing, S in (("hopf+", 4, ((0, 1), (1, 0))),
                          ("trefoil", 4, ((2,),))):
    word = load_corpus_word(name)
    for report in check_recursion(word, crossing, S, 3, word_id=name):
        require(f"{name} {report.identity}: {report.lhs} = {report.rhs}",
                report.passed)
    for report in smoothing_shift_reports(word, crossing, S, 3, word_id=name):
        require(f"{name} {report.identity}: {report.lhs} = {report.rhs}",
                report.passed)

print()
print("crossing surgery:", "all exact" if failures == 0
      else f"{failures} FAILURES")
sys.exit(0 if failures == 0 else 1)
