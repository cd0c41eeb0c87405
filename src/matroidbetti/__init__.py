"""Exact invariants of matroid basis-monomial ideals.

The package computes, in exact integer arithmetic throughout:

* connectivity block decompositions of matroids given by rank oracles,
  and from them cactus recognition,
* graded Betti numbers of the ideal generated by the basis monomials, by
  three independent algorithms (a Hochster-formula homology sweep, a
  block-by-block product, and a closed form for disjoint unions of circuits),
* the inverse problem for the closed form (recovering cycle lengths from a
  Betti vector),
* higher weight hierarchies, again by independent routes, and
* the minimum distance of the dual matroid.

The command line front end lives in ``matroidbetti.cli``.
"""

from .betti import (
    BettiTable,
    CycleProfile,
    betti,
    block_product_betti,
    cactus_betti,
    dual_min_distance,
    hilbert_check,
    hochster_betti,
    invert_cactus_betti,
    resolve_algorithm,
)
from .bitset import bits, k_subsets, mask_of
from .errors import ValidationError
from .graphs import Graph, cycle_matroid, fixture, is_cactus
from .matroid import (
    Block,
    BlockPartition,
    Matroid,
    direct_sum,
    from_bases,
    multi_uniform,
    uniform,
)
from .weights import (
    WeightHierarchy,
    block_weights,
    cactus_weights,
    weight_hierarchy,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Block",
    "BlockPartition",
    "CycleProfile",
    "Graph",
    "Matroid",
    "ValidationError",
    "WeightHierarchy",
    "betti",
    "bits",
    "block_product_betti",
    "block_weights",
    "cactus_betti",
    "cactus_weights",
    "cycle_matroid",
    "direct_sum",
    "dual_min_distance",
    "fixture",
    "from_bases",
    "hilbert_check",
    "hochster_betti",
    "invert_cactus_betti",
    "is_cactus",
    "k_subsets",
    "mask_of",
    "multi_uniform",
    "resolve_algorithm",
    "uniform",
    "weight_hierarchy",
    "__version__",
]
