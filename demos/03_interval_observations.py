"""Solve with interval observations instead of exact values.

With finitely many probes each path loss is only known to an interval.
Any observation vector inside the box is admissible, so the solution
space widens to a union of families.  For one branch point the whole
family is parameterized by the father-link loss x; the local analyses
show where each norm bottoms out, and the tree solver applies the same
thresholds per subtree, top down.
"""

import math

import numpy as np

from losstree import (
    IntervalObservation,
    MIN_L0,
    MIN_L1,
    MIN_L1_AMONG_L0,
    build_tree,
    glocal_family,
    local_min_l0,
    local_min_l1,
    upsparse_plus,
    z_stats,
)

INF = math.inf

# One branch point, three receivers.  The first interval is tight, the
# others are one-sided.
lo, hi = [0.0, 3.0, 5.0], [2.0, INF, INF]
print("intervals:", list(zip(lo, hi)))

res0 = local_min_l0(lo, hi)
print(f"fewest lossy links: {res0.l0} at x={res0.x_star} -> {res0.solution}")
res1 = local_min_l1(lo, hi)
print(f"smallest total loss: {res1.l1} at x={res1.x_star} -> {res1.solution}")
print("the two objectives pick different solutions here.")

# Sliding x trades leaf loss against the father link.
print("\nfamily members by father-link loss x:")
for x in (0.0, 1.0, 2.0):
    member = glocal_family(lo, hi, x)
    print(f"  x={x}: {member}  l0={int((member > 1e-9).sum())}  l1={member.sum()}")

# On a full tree the per-subtree interval statistics drive the solver.
tree = build_tree([(4, 0), (1, 4), (2, 4), (3, 4)], root=0)
iv = IntervalObservation(lo=[1.0, 3.0, 5.0], hi=[4.0, 4.0, 6.0])
zs = z_stats(tree, iv)
print("\nbox intervals:", [(float(a), float(b)) for a, b in zip(iv.lo, iv.hi)])
print("top-link stats: min_upper", zs.min_upper[3], "max_lower", zs.max_lower[3],
      "l0_threshold", zs.l0_threshold[3])
print("(l0_threshold is exact: min-l0 returns the fewest lossy links in the box)")

for mode in (MIN_L0, MIN_L1, MIN_L1_AMONG_L0):
    sol = upsparse_plus(tree, iv, mode)
    print(f"{mode:>16}: x={sol.x} realized y={sol.y} "
          f"(l0={sol.l0()}, l1={sol.l1()})")
