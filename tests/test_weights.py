"""Weight hierarchies: the subset sweep against the circuit-family search,
non-redundancy, the block min-plus rule, and the sorted-prefix closed form."""

import random

import pytest

from matroidbetti import (
    ValidationError,
    WeightHierarchy,
    block_weights,
    cactus_weights,
    cycle_matroid,
    degree_of_nonredundancy,
    is_nonredundant,
    mask_of,
    multi_uniform,
    uniform,
    weight_hierarchy,
    weights_via_circuits,
)

from oracles import minplus_naive
from util import SEED, graph_matroid, multiblock_suite, two_triangles


def two_triangles_matroid():
    return cycle_matroid(two_triangles())


# -- the hierarchy container ----------------------------------------------------


def test_hierarchy_accessors():
    w = WeightHierarchy((3, 6, 8))
    assert len(w) == 3
    assert list(w) == [3, 6, 8]
    assert w[0] == 3
    assert w.d(1) == 3 and w.d(3) == 8
    with pytest.raises(IndexError):
        w.d(0)
    with pytest.raises(IndexError):
        w.d(4)


def test_hierarchy_validation():
    with pytest.raises(ValidationError, match="positive"):
        WeightHierarchy((0, 2))
    with pytest.raises(ValidationError, match="strictly increasing"):
        WeightHierarchy((3, 3))
    with pytest.raises(ValidationError, match="strictly increasing"):
        WeightHierarchy((4, 2))
    assert len(WeightHierarchy(())) == 0


# -- non-redundancy --------------------------------------------------------------


def test_nonredundancy_basics():
    tri = mask_of((0, 1, 2))
    assert is_nonredundant([])
    assert is_nonredundant([tri])
    assert not is_nonredundant([tri, tri])
    assert is_nonredundant([mask_of((0, 1, 2)), mask_of((3, 4, 5))])
    # Three 3-subsets of a 4-set: the union of any two swallows the third.
    assert not is_nonredundant(
        [mask_of((0, 1, 2)), mask_of((0, 1, 3)), mask_of((0, 2, 3))]
    )
    # Order does not matter.
    fam = [mask_of((0, 1, 2)), mask_of((2, 3, 4)), mask_of((4, 5, 0))]
    assert is_nonredundant(fam) == is_nonredundant(fam[::-1])


# -- degree of non-redundancy == nullity ------------------------------------------


def test_degree_basics():
    m = uniform(2, 4)
    assert degree_of_nonredundancy(m, mask_of((0, 1))) == 0  # independent
    assert degree_of_nonredundancy(m, mask_of((0, 1, 2))) == 1  # one circuit
    tt = two_triangles_matroid()
    assert degree_of_nonredundancy(tt, tt.full_mask) == 2


@pytest.mark.parametrize(
    "m",
    [
        uniform(1, 3),
        uniform(2, 4),
        uniform(2, 5),
        multi_uniform([(1, 2), (2, 3)]),
        two_triangles_matroid(),
        graph_matroid(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]),
    ],
    ids=lambda m: f"n{m.n}r{m.full_rank}",
)
def test_degree_equals_nullity_exhaustively(m):
    for sigma in range(1 << m.n):
        nullity = sigma.bit_count() - m.rank(sigma)
        assert degree_of_nonredundancy(m, sigma) == nullity, bin(sigma)


# -- the two hierarchy algorithms agree --------------------------------------------


def test_named_hierarchies():
    assert weight_hierarchy(uniform(2, 3)).weights == (3,)
    assert weight_hierarchy(two_triangles_matroid()).weights == (3, 6)
    assert weight_hierarchy(multi_uniform([(2, 3), (3, 4), (4, 5)])).weights == (
        3,
        7,
        12,
    )
    assert weight_hierarchy(uniform(3, 3)).weights == ()
    # A loop is a circuit of size one, so it always contributes d_1 = 1.
    assert weight_hierarchy(multi_uniform([(0, 1), (2, 3)])).weights == (1, 4)


def test_sweep_matches_circuit_search():
    battery = [
        uniform(2, 3),
        uniform(1, 4),
        uniform(2, 5),
        uniform(3, 6),
        two_triangles_matroid(),
        multi_uniform([(0, 1), (2, 3)]),
        multi_uniform([(2, 3), (3, 4), (4, 5)]),
        graph_matroid(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]),
    ] + multiblock_suite()[:10]
    for m in battery:
        assert weights_via_circuits(m).weights == weight_hierarchy(m).weights, (
            m.provenance,
            m.n,
        )


def test_circuit_search_handles_larger_uniforms():
    # The subset sweep would walk C(8,>=5) and C(10,>=6) subsets here; the
    # pruned circuit search must reproduce d_i = r + i directly.
    assert weights_via_circuits(uniform(4, 8)).weights == (5, 6, 7, 8)
    assert weights_via_circuits(uniform(5, 10)).weights == (6, 7, 8, 9, 10)


# -- block min-plus rule ------------------------------------------------------------


def test_block_weights_examples():
    assert block_weights([(3,), (3,)]).weights == (3, 6)
    assert block_weights([(3,), (4,)]).weights == (3, 7)
    assert block_weights([WeightHierarchy((3,))]).weights == (3,)
    assert block_weights([(), (3, 6)]).weights == (3, 6)
    assert block_weights([]).weights == ()


def test_block_weights_matches_direct_computation():
    combos = [
        [(2, 3), (2, 3)],
        [(2, 3), (3, 4)],
        [(0, 1), (2, 3)],
        [(1, 3), (2, 3)],
        [(2, 4), (2, 3), (1, 2)],
    ]
    for profile in combos:
        m = multi_uniform(profile)
        parts = [weight_hierarchy(uniform(r, n)) for r, n in profile]
        assert block_weights(parts).weights == weight_hierarchy(m).weights, profile


def test_block_weights_permutation_invariant_and_matches_naive():
    rng = random.Random(SEED)
    for _ in range(25):
        parts = []
        for _ in range(rng.randint(2, 4)):
            k = rng.randint(0, 3)
            acc, ws = 0, []
            for _ in range(k):
                acc += rng.randint(1, 5)
                ws.append(acc)
            parts.append(ws)
        combined = block_weights(parts)
        assert list(combined) == minplus_naive([list(p) for p in parts])
        shuffled = parts[:]
        rng.shuffle(shuffled)
        assert block_weights(shuffled).weights == combined.weights


# -- closed form ---------------------------------------------------------------------


def test_cactus_weights_prefix_sums():
    assert cactus_weights([3, 4, 5]).weights == (3, 7, 12)
    assert cactus_weights([5, 3, 4]).weights == (3, 7, 12)
    assert cactus_weights([1, 1, 4]).weights == (1, 2, 6)
    assert cactus_weights([]).weights == ()
    with pytest.raises(ValidationError, match=">= 1"):
        cactus_weights([0, 3])


def test_cactus_weights_match_matroid_routes():
    for lengths in [[3], [2, 2], [3, 4, 5], [1, 3], [2, 2, 6]]:
        profile = [(l - 1, l) for l in lengths]
        m = multi_uniform(profile)
        closed = cactus_weights(lengths)
        assert closed.weights == weight_hierarchy(m).weights, lengths
        assert closed.weights == weights_via_circuits(m).weights, lengths
