#!/usr/bin/env python3
"""Atlas of small chord diagrams: counts, relators, quotient dimensions.

Tabulates, for small circle counts and degrees, how many diagrams each
type matrix carries, how many 4T relators act on them, and what
dimension survives in the quotient.  The counts double as frozen
regression values for the enumeration layer.
"""

import sys

from kzlab.diagrams import (
    all_type_matrices, enumerate_by_degree, enumerate_by_matrix,
    four_t_relators, quotient_dimension, reduce_mod_4t,
)
from kzlab.invariants import class_sum

failures = 0


def require(label, ok):
    global failures
    if not ok:
        print(f"  FAIL  {label}")
    failures += not ok


# == 1. Diagram counts by degree =============================================

print("diagrams on m circles with k chords:")
print("  m\\k " + "".join(f"{k:>6}" for k in range(5)))
table = {}
for m in (1, 2, 3):
    row = []
    for k in range(5):
        if m == 3 and k > 3:
            row.append("")
            continue
        count = len(enumerate_by_degree(m, k))
        table[m, k] = count
        row.append(count)
    print(f"  {m}   " + "".join(f"{c:>6}" for c in row))
require("one-circle counts 1,1,2,5,18",
        [table[1, k] for k in range(5)] == [1, 1, 2, 5, 18])

# == 2. Types partition each degree ==========================================

print()
print("type matrices partition the diagrams:")
for m in (1, 2):
    for k in range(4):
        by_type = sum(len(enumerate_by_matrix(S))
                      for S in all_type_matrices(m, k))
        print(f"  m={m} k={k}: {by_type} diagrams over "
              f"{len(all_type_matrices(m, k))} types")
        require(f"partition m={m} k={k}", by_type == table[m, k])

# == 3. 4T relators and the quotient =========================================

print()
print("4T relators and quotient dimensions:")
for m in (1, 2):
    for k in (2, 3):
        vectors = four_t_relators(m, k)
        dim = quotient_dimension(m, k)
        print(f"  m={m} k={k}: {len(vectors)} nonzero relators, "
              f"{table.get((m, k), '?')} diagrams, quotient dim {dim}")
        for vector in vectors:
            require("relator reduces to zero", reduce_mod_4t(vector).is_zero)
            for S in all_type_matrices(m, k):
                require("class sum kills the relator",
                        class_sum(vector, S) == 0)
require("quotient dims m=1: 1,2,3,6",
        [quotient_dimension(1, k) for k in range(1, 5)] == [1, 2, 3, 6])
require("quotient dims m=2 k=1..3: 3,8,19",
        [quotient_dimension(2, k) for k in range(1, 4)] == [3, 8, 19])

print()
print("diagram atlas:", "all exact" if failures == 0
      else f"{failures} FAILURES")
sys.exit(0 if failures == 0 else 1)
