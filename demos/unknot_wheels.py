#!/usr/bin/env python3
"""The unknot's series: even wheels, and what one kink does to it.

The bare unknot word integrates to the exponential of even wheels with
Bernoulli-number weights.  Adding a single kink multiplies the series
by exp of half a self-chord, which shows up as the framing powers
1/(k! 2^k) on the diagonal cells.  Both facts are checked here in
exact rational arithmetic.
"""

import sys
from fractions import Fraction

from kzlab.algebra import (
    unknot_series_closed, wheel_attachment_sum, wheel_coefficients,
)
from kzlab.diagrams import reduce_mod_4t
from kzlab.invariants import class_sum, degree_class_sum, kinked_unknot_series
from kzlab.qtangle.corpus import load_corpus_word
from kzlab.qtangle.engine import integrate

failures = 0


def require(label, ok):
    global failures
    print(f"  {'pass' if ok else 'FAIL'}  {label}")
    failures += not ok


# == 1. Wheel weights are scaled Bernoulli numbers ===========================

weights = wheel_coefficients(8)
print("wheel weights b_2n:")
for size in (2, 4, 6, 8):
    print(f"  2n={size}: {weights[size]}")
require("b_2 = 1/48", weights[2] == Fraction(1, 48))
require("b_4 = -1/5760", weights[4] == Fraction(-1, 5760))

# == 2. The two-wheel attaches as a signed pair of diagrams ==================

attached = wheel_attachment_sum((2,))
print()
print("two-wheel attachment on one circle:")
for diagram, coeff in sorted(attached.items()):
    print(f"  {coeff!s:>3}  {diagram.code}")

# == 3. The bare unknot word equals the closed wheel series ==================

word = load_corpus_word("u0")
for cutoff in (3, 4):
    engine = integrate(word, cutoff)
    formula = unknot_series_closed(cutoff)
    require(f"integrate(u0, {cutoff}) == wheel series, raw",
            engine.coefficients == formula)
    for k in range(cutoff + 1):
        lhs = reduce_mod_4t(engine.degree_part(k))
        rhs = reduce_mod_4t({d: c for d, c in formula.items()
                             if d.degree == k})
        require(f"  degree {k} mod 4T", lhs == rhs)

# == 4. One kink: framing powers on the diagonal =============================

print()
print("framing powers of the kinked unknot (diagonal cells):")
kinked = integrate(load_corpus_word("u1"), 3)
bare = integrate(load_corpus_word("u0"), 3)
built = kinked_unknot_series(3)
for k in range(4):
    engine_val = class_sum(kinked, ((k,),))
    series_val = class_sum(built, ((k,),))
    direct = degree_class_sum(kinked, k)
    print(f"  k={k}: engine {engine_val}, surgery {series_val}, "
          f"degree sum {direct}")
    require(f"k={k} all three routes agree",
            engine_val == series_val == direct)
require("bare unknot's framing powers vanish",
        all(degree_class_sum(bare, k) == 0 for k in (1, 2, 3)))

print()
print("unknot wheels:", "all exact" if failures == 0
      else f"{failures} FAILURES")
sys.exit(0 if failures == 0 else 1)
