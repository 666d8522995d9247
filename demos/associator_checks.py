#!/usr/bin/env python3
"""Pin the associator: pentagon, hexagons, and the sign they force.

The rebracketing value is the degree-2 commutator correction with
weight 1/24 and an overall sign.  Both coherence checks compare the
engine's values of two words over the same boundary of down strands:
the two ways around the pentagon must agree exactly, and the two
bracketed sides of the braid relation s1 s2 s1 = s2 s1 s2, which the
hexagons imply, must agree modulo 4T.  The pentagon holds for either
sign, the braid relation for exactly one.  This script evaluates both
and shows that the shipped sign is the only one that survives.
"""

import sys
from fractions import Fraction

from kzlab.qtangle.engine import (
    associator_sign, evaluate_fragment, hexagon_identity, pentagon_identity,
)
from kzlab.qtangle.words import START, parse_word

failures = 0


def require(label, ok):
    global failures
    print(f"  {'pass' if ok else 'FAIL'}  {label}")
    failures += not ok


# == 1. The value itself =====================================================

sign = associator_sign()
print(f"shipped associator sign: {sign:+d}")
value = evaluate_fragment(parse_word("assoc+@2"), 2,
                          initial=((1, 0), (START,) * 3))
print("nonzero terms of assoc+@2 on three down strands:")
for key in sorted(value.terms, key=lambda k: (sum(map(len, k)), k)):
    print(f"  {value.terms[key]!s:>6}  {key}")
require("unit term", value.terms[((), (), ())] == 1)
require("commutator weight 1/24",
        value.terms[((1,), (2, 1), (2,))] == Fraction(sign, 24))

# == 2. Pentagon: insensitive to the sign ====================================

print()
for cutoff in (2, 3):
    require(f"pentagon N={cutoff}, shipped sign", pentagon_identity(cutoff))
    require(f"pentagon N={cutoff}, opposite sign",
            pentagon_identity(cutoff, sign=-sign))

# == 3. Hexagons: sensitive to the sign ======================================

print()
for eps in (1, -1):
    require(f"hexagon eps={eps:+d}, shipped sign", hexagon_identity(eps))
    require(f"hexagon eps={eps:+d}, opposite sign FAILS",
            not hexagon_identity(eps, sign=-sign))

print()
print("associator checks:", "all exact" if failures == 0
      else f"{failures} FAILURES")
sys.exit(0 if failures == 0 else 1)
