"""Build logical trees and inspect their path-link measurement matrices.

A measured tree has a root (the probing source), one top link, internal
branch points, and leaves (the probe receivers).  Each root-to-leaf path
is one measurement; the binary matrix records which links each path uses.
"""

import numpy as np

from losstree import (
    build_tree,
    gen_random_tree,
    gen_regular_tree,
    measurement_matrix,
)

# A small tree, entered as (child, parent) pairs.  Node ids are arbitrary;
# construction relabels canonically: leaves 1..m left to right, internal
# nodes m+1..n in preorder from the root's child.
tree = build_tree([("a", "src"), ("b", "a"), ("r3", "a"), ("r1", "b"), ("r2", "b")],
                  root="src")
print(f"links n={tree.n}, paths m={tree.m}, height={tree.height}")
print("canonical label -> original id:", tree.alias)

matrix = measurement_matrix(tree)
print("per-path link lists:", tree.paths)
print("dense form (note the identity block over the leaf columns):")
print(matrix.dense())

# Regular trees: a complete c-ary tree hanging under the top link.
ternary = gen_regular_tree(3, 3)
print(f"\ncomplete ternary of height 3: n={ternary.n} links, m={ternary.m} paths")
print("every path uses height-many links:",
      np.unique(measurement_matrix(ternary).dense().sum(axis=1)))

# Random trees stand in for real topologies; a seed fixes the draw.
random_tree = gen_random_tree(m=9, max_branching=3, seed=7)
print(f"\nrandom 9-leaf tree: n={random_tree.n}, height={random_tree.height}")
degrees = sorted(len(random_tree.children[i]) for i in random_tree.internal)
print("internal branching factors:", degrees)
