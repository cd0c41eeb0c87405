"""Weight hierarchies: the cyclic-flat route against the circuit-chain
search, the size-rank table and the subset sweep of the definition, the work
each route does, non-redundancy, the block min-plus rule, and the
sorted-prefix closed form."""

import importlib
import random
import time
from collections import Counter
from math import comb

import pytest

from matroidbetti import (
    Matroid,
    ValidationError,
    WeightHierarchy,
    block_weights,
    cactus_weights,
    cycle_matroid,
    fixture,
    mask_of,
    multi_uniform,
    uniform,
    weight_hierarchy,
)
from matroidbetti.matroid import FRONTIER_BUDGET
from matroidbetti.weights import weights_via_circuits, weights_via_size_rank

from oracles import (
    degree_of_nonredundancy,
    is_nonredundant,
    matrix_tree_count,
    minplus_naive,
    sweep_weights,
)
from util import (
    SEED,
    STRUCTURE_FAMILIES,
    chorded_ring,
    counting,
    edges_of,
    graph_matroid,
    multiblock_suite,
    parts_of,
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
        uniform(3, 3),
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


def test_uniform_sums_answer_from_their_parts(monkeypatch):
    # Every uniform sum of at most 10 elements in the seeded suites, 40
    # seeded sums of two to four parts, and a restriction of each: d_i = r + i
    # on each part, combined by the min-plus rule, with no circuit listed,
    # equals the subset sweep.
    rng = random.Random(SEED + 5)
    cases = [
        m for family in STRUCTURE_FAMILIES for m in structure_cases(family)
        if parts_of(m) is not None and m.n <= 10
    ]
    for _ in range(40):
        sizes = [rng.randint(0, 3) for _ in range(rng.randint(2, 4))]
        cases.append(multi_uniform([(rng.randint(0, k), k) for k in sizes]))
    cases += [m.restrict(rng.getrandbits(m.n)) for m in cases]
    assert len(cases) >= 150 and sum(len(parts_of(m)) > 1 for m in cases) >= 40
    monkeypatch.setattr(Matroid, "circuits", lambda m: pytest.fail("listed circuits"))
    for m in cases:
        assert weight_hierarchy(m) == sweep_weights(m), parts_of(m)


def test_inconsistent_oracle_is_rejected():
    # Not monotone: {0, 2} has rank 0 below its member {0} of rank 1. The
    # corank is 2, yet no cyclic flat the oracle admits has nullity 2.
    table = (0, 1, 0, 1, 0, 0, 2, 1)
    m = Matroid(3, table.__getitem__)
    with pytest.raises(ValidationError, match="inconsistent"):
        weight_hierarchy(m)
    # Not monotone either: {0, 1} has rank 0. The corank is 2, yet the loop
    # {0} is the only circuit, so no chain of two circuits exists.
    m = Matroid(2, (0, 0, 1, 0).__getitem__)
    assert m.circuits() == (0b01,)
    with pytest.raises(ValidationError, match="no chain of 2 circuits"):
        weights_via_circuits(m)


# The 16-edge cactus on 12 vertices: five circuits (a loop, a parallel pair
# and cycles of 3, 4 and 4 edges) and two bridges.
CACTUS_16 = (
    (8, 10), (6, 7), (5, 6), (3, 0), (5, 5), (0, 1), (6, 11), (5, 1),
    (9, 2), (2, 3), (4, 5), (2, 9), (8, 5), (1, 4), (7, 8), (1, 2),
)


# name: (matroid, weights, bound on distinct rank evaluations, scans). A
# subset sweep makes 2^n - 1 evaluations: 16,383 on g1 and U(6, 14), 65,535
# on the cactus, 524,287 on the 19-edge ring. U(6, 14) has 3,432 circuits, so
# elimination gives up and the scan over sets of at most 7 elements runs,
# within the sweep's 16,383. The ring's 123 circuits come from elimination,
# whose containment tests count a quarter of a rank evaluation each. The
# circuit-chain search must answer within 1 s: it enters each (circuits still
# needed, union) once, at its least start, and took seconds on the ring
# without that.
WORK_CASES = {
    "g1": (lambda: cycle_matroid(fixture("g1")), (3, 6, 8, 11, 14), 1000, 0),
    "cactus16": (lambda: graph_matroid(12, CACTUS_16), (1, 3, 6, 10, 14), 500, 0),
    "U6_14": (lambda: uniform(6, 14), (7, 8, 9, 10, 11, 12, 13, 14), 2**14 - 1, 1),
    "ring19": (
        lambda: chorded_ring(random.Random(5), 12, 7),
        (3, 5, 7, 10, 13, 15, 16, 19),
        15_000,
        0,
    ),
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
    start = time.perf_counter()
    assert weights_via_circuits(m).weights == weights
    assert time.perf_counter() - start < 1.0
    assert len(evaluated) <= bound
    assert len(calls) == scans


def test_circuit_search_handles_larger_uniforms():
    # The subset sweep would walk C(8,>=5) and C(10,>=6) subsets here; the
    # pruned circuit search must reproduce d_i = r + i directly.
    assert weights_via_circuits(uniform(4, 8)).weights == (5, 6, 7, 8)
    assert weights_via_circuits(uniform(5, 10)).weights == (6, 7, 8, 9, 10)


# -- the size-rank table ------------------------------------------------------------


def _multigraph(rng: random.Random) -> Matroid:
    """A seeded multigraph of up to 12 edges on up to 7 vertices, with loops,
    parallel edges and, often, several components."""
    vertices = rng.randint(1, 7)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.1:
            u = rng.randrange(vertices)
            edges.append((u, u))
        elif roll < 0.25 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(vertices), rng.randrange(vertices)))
    return graph_matroid(vertices, edges)


def size_rank_cases() -> list[Matroid]:
    """200 seeded multigraphs, the fixtures g1..g4, every uniform matroid of
    at most 8 elements and 40 seeded uniform sums of one to four parts."""
    rng = random.Random(SEED + 24)
    cases = [_multigraph(rng) for _ in range(200)]
    cases += [cycle_matroid(fixture(name)) for name in ("g1", "g2", "g3", "g4")]
    cases += structure_cases("uniform")
    for _ in range(40):
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        cases.append(multi_uniform([(rng.randint(0, k), k) for k in sizes]))
    return cases


def test_size_rank_tables_count_every_subset():
    # N(k, rho) from the frontier search in table mode (graphs) and from the
    # closed form (uniform sums) against a count over all 2^n subsets.
    cases = size_rank_cases()
    graphs = [m for m in cases if edges_of(m) is not None]
    assert len(graphs) == 204 and max(m.n for m in graphs[:200]) == 12
    assert sum(len(parts_of(m) or ()) > 1 for m in cases) >= 20
    for m in cases:
        want = Counter((s.bit_count(), m.rank(s)) for s in range(1 << m.n))
        assert m._size_rank() == dict(want), (edges_of(m), parts_of(m))


def test_size_rank_weights_match_the_subset_sweep():
    # d_i = min{k : N(k, k - i) > 0} on the product of the blocks' tables;
    # a matroid with a block that has no presentation has no table.
    for m in size_rank_cases():
        assert weights_via_size_rank(m) == sweep_weights(m), (edges_of(m), parts_of(m))
    bare = [m for m in multiblock_suite() if parts_of(m) is None and edges_of(m) is None]
    for m in structure_cases("from_bases")[:10] + bare[:10]:
        assert weights_via_size_rank(m) is None


def test_a_table_stopped_in_a_later_component_is_none(monkeypatch):
    # A triangle on vertices 0..2 and the 18-edge ring on 3..14. With the
    # budget at three states of the whole graph's packed table, the search
    # over both components passes the triangle, whose last layer is the
    # empty frontier "" again, and stops inside the ring; neither the
    # graph's own search nor the product over its blocks gives a table.
    matroid_mod = importlib.import_module("matroidbetti.matroid")
    frontier = matroid_mod._frontier
    layers = []

    def recording(*args):
        for layer in frontier(*args):
            layers.append(list(layer))
            yield layer

    ring = edges_of(chorded_ring(random.Random(5), 12, 6))
    m = graph_matroid(15, [(0, 1), (1, 2), (2, 0)] + [(u + 3, v + 3) for u, v in ring])
    n, r = m.n, m.full_rank
    assert (n, r, len(m.blocks().blocks)) == (21, 13, 2)
    monkeypatch.setattr(matroid_mod, "FRONTIER_BUDGET", 3 * (n - r + 1) * (r + 1) * (n + 1))
    monkeypatch.setattr(matroid_mod, "_frontier", recording)
    assert m._presentation.size_rank() is None
    assert layers[3] == [""] and 4 < len(layers) < n + 1
    layers.clear()
    assert m._size_rank() is None
    assert layers[3] == [""] and 4 < len(layers) < 4 + 19  # the triangle's block, then the ring's
    assert weights_via_size_rank(m) is None


def test_the_50_edge_ring_gets_its_size_rank_table():
    # The ring chorded_ring(Random(5), 30, 20): its table peaks at 11,721
    # states. Every row counts all C(50, k) edge sets, the rank-29 column
    # holds the spanning counts and N(29, 29) is the number of spanning trees.
    m = chorded_ring(random.Random(5), 30, 20)
    start = time.perf_counter()
    table = m._size_rank()
    assert time.perf_counter() - start < 1.0
    rows = Counter()
    for (k, _), c in table.items():
        rows[k] += c
    assert dict(rows) == {k: comb(50, k) for k in range(51)}
    assert table[29, 29] == matrix_tree_count(30, edges_of(m)) == 288_939_308_490
    assert m._spanning_counts() == [table.get((k, 29), 0) for k in range(51)]
    w = weights_via_size_rank(m)
    assert len(w) == 21 and w[-1] == 50


def test_spanning_counts_refuse_a_graph_past_the_frontier_budget():
    # The 60-edge ring's table stops past the budget, and the oracle scan
    # of its sets of 39 or more edges would rank about 1.6 x 10^16 sets: the
    # spanning counts are refused within a second, naming the budget and that
    # count. A bare oracle keeps the scan (test_frontier_search_matches_the_
    # oracle_scan in test_betti.py).
    m = chorded_ring(random.Random(5), 40, 20)
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="frontier budget") as info:
        m._spanning_counts()
    assert time.perf_counter() - start < 1.0
    sets = sum(comb(60, k) for k in range(39, 61))
    assert f"{FRONTIER_BUDGET:,}" in str(info.value) and f"{sets:,}" in str(info.value)


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
