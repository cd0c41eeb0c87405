"""The public names of the package: exactly the ones the library itself
uses or hands out, each resolvable, no test-only mode in the sweep, and
the lower layers importing nothing from the upper ones."""

import ast
import inspect
import pathlib

import matroidbetti
from matroidbetti import betti, hochster_betti

PUBLIC = {
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
}


def test_all_lists_exactly_the_public_names():
    assert len(matroidbetti.__all__) == len(PUBLIC) == 30
    assert set(matroidbetti.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in matroidbetti.__all__:
        assert getattr(matroidbetti, name) is not None, name


def test_sweep_has_no_exhaustive_mode():
    # Nor a field: the Betti numbers of a basis ideal are the same over every
    # field, and only ``betti --field`` checks and echoes one.
    params = inspect.signature(hochster_betti).parameters
    assert list(params) == ["m", "fine"]
    assert list(inspect.signature(betti).parameters) == ["m", "algorithm", "fine"]


def test_lower_layers_do_not_import_upper_ones():
    # bitset, linalg, complexes, matroid and graphs sit under betti, weights
    # and the command line; none of them may reach up by a relative import.
    package = pathlib.Path(matroidbetti.__file__).parent
    for name in ("bitset", "linalg", "complexes", "matroid", "graphs"):
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                named = {node.module} if node.module else {a.name for a in node.names}
                assert not named & {"betti", "weights", "cli"}, (name, named)
