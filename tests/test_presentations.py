"""Structural queries answered from a presentation (graph edges, the parts
of a uniform sum, a basis list) against the same queries through the rank
oracle of a counting copy, which carries no presentation; and the work the
presentations save, counted on the oracle each real matroid is built with."""

import json
import random
from math import comb

from matroidbetti import (
    Graph,
    cycle_matroid,
    direct_sum,
    fixture,
    from_bases,
    multi_uniform,
    uniform,
    weight_hierarchy,
)
from matroidbetti import cli
from matroidbetti.cli import main

from util import SEED, counting, random_graph


class OracleBudget(Exception):
    pass


def metered(m, limit=None):
    """Wrap the oracle ``m`` was built with, so every evaluation (by ``m`` or
    by a restriction of ``m``, which reads that oracle) is appended to the
    returned list; past ``limit`` evaluations the oracle raises."""
    calls = []
    oracle = m._rank_fn

    def counted(sigma):
        calls.append(sigma)
        if limit is not None and len(calls) > limit:
            raise OracleBudget(f"more than {limit} rank evaluations")
        return oracle(sigma)

    m._rank_fn = counted
    return calls


def probes(m, rng, count=24):
    """The empty set, the ground set and ``count`` seeded subsets, or every
    subset when there are no more than that."""
    if 1 << m.n <= count + 2:
        return list(range(1 << m.n))
    return [0, m.full_mask] + [rng.randrange(1 << m.n) for _ in range(count)]


def assert_matches_oracle(m, rng):
    plain, _ = counting(m)
    assert plain._edges is None and plain._parts is None
    where = (m.provenance, m.n, m._edges, m._parts)
    assert m.greedy_basis() == plain.greedy_basis(), where
    assert m._fundamental_circuits() == plain._fundamental_circuits(), where
    assert m.bases() == plain.bases(), where
    for x in probes(m, rng):
        assert m._closure(x) == plain._closure(x), (where, x)


def graph_cases():
    rng = random.Random(SEED + 17)
    graphs = [random_graph(rng) for _ in range(320)]
    graphs += [Graph(1, ()), Graph(4, ()), Graph(3, ((1, 1), (1, 1), (0, 2)))]
    return graphs


def test_graph_sample_has_every_shape():
    graphs = graph_cases()
    assert len(graphs) >= 300
    assert any(g.edge_count == 0 for g in graphs)
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < g.edge_count for g in graphs)
    assert any(g.vertex_count > len({v for e in g.edges for v in e}) for g in graphs)
    disconnected = 0
    for g in graphs:
        touched = {v for e in g.edges for v in e}
        m = cycle_matroid(g)
        disconnected += len(touched) - m.full_rank >= 2
    assert disconnected >= 10


def test_graphs_and_their_blocks_match_the_oracle():
    rng = random.Random(SEED + 18)
    restrictions = 0
    for g in graph_cases():
        m = cycle_matroid(g)
        assert_matches_oracle(m, rng)
        for block in m.blocks().blocks:
            assert block.matroid._edges is not None
            assert_matches_oracle(block.matroid, rng)
            restrictions += 1
    assert restrictions >= 300


def test_uniform_matroids_match_the_oracle():
    rng = random.Random(SEED + 19)
    for n in range(9):
        for r in range(n + 1):
            m = uniform(r, n)
            assert m._parts == ((((1 << n) - 1, r),) if n else ())
            assert_matches_oracle(m, rng)
            assert len(m.bases()) == comb(n, r)


def test_uniform_sums_and_their_restrictions_match_the_oracle():
    rng = random.Random(SEED + 20)
    profiles = [
        [(0, 3), (2, 2)],
        [(0, 0), (1, 2), (0, 0)],
        [(3, 3), (0, 2), (1, 3)],
        [(0, 0)],
        [(2, 4), (0, 0), (4, 4), (0, 1)],
    ]
    for _ in range(40):
        sizes = rng.choices(range(0, 5), k=rng.randint(1, 4))
        profiles.append([(rng.randint(0, k), k) for k in sizes])
    for profile in profiles:
        m = multi_uniform(profile)
        assert all(mask for mask, _ in m._parts)
        assert_matches_oracle(m, rng)
        cuts = {m.full_mask, 0} | {rng.randrange(1 << m.n) for _ in range(6)}
        cuts |= set(m.blocks().masks())
        for sigma in cuts:
            sub = m.restrict(sigma)
            assert_matches_oracle(sub, rng)
            for mask, r in sub._parts:
                assert (mask + (mask & -mask)) & mask == 0  # a run of elements
                assert sub.rank(mask) == r


def test_restricted_parts_shrink_to_their_members():
    m = multi_uniform([(2, 3), (0, 2), (3, 4)])
    sub = m.restrict(0b110110110)
    assert sub.labels == (1, 2, 4, 5, 7, 8)
    assert sub._parts == ((0b11, 2), (0b100, 0), (0b111000, 3))
    assert uniform(3, 5).restrict(0b10100)._parts == ((0b11, 2),)
    assert uniform(3, 5).restrict(0)._parts == ()


def test_only_uniform_sums_and_their_restrictions_carry_parts():
    u = multi_uniform([(1, 2), (2, 3)])
    for m in (uniform(2, 3), uniform(0, 0), u, u.restrict(0b11010), uniform(2, 4).restrict(0b111)):
        assert m._parts is not None
    g = cycle_matroid(fixture("g3"))
    for m in (g, g.restrict(0b111), u.dual(), direct_sum(u, u), counting(u)[0],
              from_bases(3, [[0, 1], [0, 2]]), u.dual().restrict(0b111)):
        assert m._parts is None


def test_uniform_test_reads_the_parts():
    # One part is uniform without listing a basis; a sum of parts is
    # uniform exactly when its bases are all C(n, r) sets of its rank.
    assert uniform(3, 9)._is_uniform()
    assert uniform(3, 9)._bases is None
    for profile, expected in (
        ([(1, 1), (2, 2)], True),
        ([(0, 1), (2, 3)], False),
        ([(1, 1), (1, 2)], False),
        ([(0, 0), (2, 5)], True),
    ):
        assert multi_uniform(profile)._is_uniform() is expected, profile
    triangle = cycle_matroid(Graph(3, ((0, 1), (1, 2), (2, 0))))
    assert triangle._is_uniform()
    assert not cycle_matroid(fixture("g3"))._is_uniform()


def test_from_bases_keeps_its_bases():
    # Listing them back by the oracle scanned every 11-set: 705,433 rank
    # evaluations for these two bases on 22 elements.
    first = list(range(11))
    m = from_bases(22, [first, first[:-1] + [11]])
    calls = metered(m)
    assert m.bases() == (0b11111111111, 0b101111111111)
    assert calls == []
    # An element-by-element copy lists the same tuple.
    rng = random.Random(SEED + 21)
    for g in graph_cases()[:60]:
        m = cycle_matroid(g)
        copy = from_bases(m.n, [sorted(bit for bit in range(m.n) if b >> bit & 1)
                                for b in m.bases()])
        assert copy.bases() == m.bases() == counting(copy)[0].bases()
        assert_matches_oracle(copy, rng)


def test_blocks_of_g1_take_at_most_five_evaluations():
    # Through the oracle, the fundamental graph takes 61 evaluations for the
    # blocks and their kinds: a greedy basis, then B - b + e for the 5 x 9
    # pairs. The forest gives the circuits instead, and what is left is the
    # block's rank for its kind.
    m = cycle_matroid(fixture("g1"))
    calls = metered(m)
    assert m.blocks().masks() == (m.full_mask,)
    assert [b.kind for b in m.blocks().blocks] == ["general"]
    assert len(calls) <= 5


def test_weights_of_g1_take_at_most_150_evaluations():
    # 562 when the greedy basis, the fundamental circuits and every closure
    # of the 30 cyclic flats go through the oracle; what is left is shrinking
    # the eliminated circuit unions.
    m = cycle_matroid(fixture("g1"))
    calls = metered(m)
    assert weight_hierarchy(m).weights == (3, 6, 8, 11, 14)
    assert len(calls) <= 150


def test_betti_on_u10_40_answers_from_the_parts(monkeypatch, capsys):
    # Through the oracle, the blocks and the greedy probe take 342
    # evaluations, and the uniform test then builds the list of all
    # C(40, 10) = 847,660,528 10-sets before its next evaluation. So the
    # oracle here gives up after 100 evaluations, which stops that route in
    # its blocks; a cap past 342 would let it reach that list.
    def bounded_uniform(r, n):
        m = uniform(r, n)
        metered(m, limit=100)
        return m

    monkeypatch.setattr(cli, "uniform", bounded_uniform)
    code = main(["betti", "--input", '{"uniform": [10, 40]}', "--output", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["algorithm"] == "hochster"
    assert data["table"]["global"] == [comb(40, k) * comb(k - 1, 9) for k in range(10, 41)]
