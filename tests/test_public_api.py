"""The public names of the package: exactly the ones the library itself
uses or hands out, each resolvable, and no test-only mode in the sweep."""

import inspect

import matroidbetti
from matroidbetti import hochster_betti

PUBLIC = {
    "BettiTable",
    "Block",
    "BlockPartition",
    "CactusCertificate",
    "CycleProfile",
    "GF2",
    "Graph",
    "Matroid",
    "PrimeField",
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
    "is_nonredundant",
    "k_subsets",
    "mask_of",
    "multi_uniform",
    "resolve_algorithm",
    "uniform",
    "weight_hierarchy",
    "weights_via_circuits",
    "__version__",
}


def test_all_lists_exactly_the_public_names():
    assert len(matroidbetti.__all__) == len(PUBLIC) == 35
    assert set(matroidbetti.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in matroidbetti.__all__:
        assert getattr(matroidbetti, name) is not None, name


def test_sweep_has_no_exhaustive_mode():
    params = inspect.signature(hochster_betti).parameters
    assert list(params) == ["m", "fld", "fine"]
    assert "exhaustive" not in params
