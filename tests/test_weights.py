"""Weight hierarchies: the cyclic-flat route against the circuit-family
search and the subset sweep of the definition, the work each route does,
non-redundancy, the block min-plus rule, and the sorted-prefix closed form."""

import random

import pytest

from matroidbetti import (
    Matroid,
    ValidationError,
    WeightHierarchy,
    block_weights,
    cactus_weights,
    cycle_matroid,
    fixture,
    is_nonredundant,
    mask_of,
    multi_uniform,
    uniform,
    weight_hierarchy,
    weights_via_circuits,
)

from oracles import degree_of_nonredundancy, minplus_naive, sweep_weights
from util import (
    SEED,
    STRUCTURE_FAMILIES,
    counting,
    graph_matroid,
    multiblock_suite,
    structure_cases,
    two_triangles,
)


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


@pytest.mark.parametrize("family", STRUCTURE_FAMILIES)
def test_weights_match_subset_sweep(family):
    for m in structure_cases(family):
        assert weight_hierarchy(m) == sweep_weights(m), (m.provenance, m.n, m.full_rank)


def test_inconsistent_oracle_is_rejected():
    # Not monotone: {0, 2} has rank 0 below its member {0} of rank 1. The
    # corank is 2, yet no cyclic flat the oracle admits has nullity 2.
    table = (0, 1, 0, 1, 0, 0, 2, 1)
    m = Matroid(3, table.__getitem__)
    with pytest.raises(ValidationError, match="inconsistent"):
        weight_hierarchy(m)


# The 16-edge cactus on 12 vertices: five circuits (a loop, a parallel pair
# and cycles of 3, 4 and 4 edges) and two bridges.
CACTUS_16 = (
    (8, 10), (6, 7), (5, 6), (3, 0), (5, 5), (0, 1), (6, 11), (5, 1),
    (9, 2), (2, 3), (4, 5), (2, 9), (8, 5), (1, 4), (7, 8), (1, 2),
)


# name: (matroid, weights, bound on distinct rank evaluations, scans). A
# subset sweep makes 2^n - 1 evaluations: 16,383 on g1 and U(6, 14), 65,535
# on the cactus. U(6, 14) has 3,432 circuits, so elimination gives up and the
# scan over sets of at most 7 elements runs, within the sweep's 16,383.
WORK_CASES = {
    "g1": (lambda: cycle_matroid(fixture("g1")), (3, 6, 8, 11, 14), 1000, 0),
    "cactus16": (lambda: graph_matroid(12, CACTUS_16), (1, 3, 6, 10, 14), 500, 0),
    "U6_14": (lambda: uniform(6, 14), (7, 8, 9, 10, 11, 12, 13, 14), 2**14 - 1, 1),
}


@pytest.mark.parametrize("name", WORK_CASES)
def test_weights_work_bound(monkeypatch, name):
    make, weights, bound, scans = WORK_CASES[name]
    calls = []
    scan = Matroid._scan_circuits
    monkeypatch.setattr(Matroid, "_scan_circuits", lambda m: calls.append(m) or scan(m))
    m, evaluated = counting(make())
    assert weight_hierarchy(m).weights == weights
    assert m.circuits()
    assert weights_via_circuits(m).weights == weights
    assert len(evaluated) <= bound
    assert len(calls) == scans


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
