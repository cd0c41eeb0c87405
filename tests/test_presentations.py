"""Structural queries answered from a presentation (graph edges, the parts
of a uniform sum, a basis list) against the same queries through the rank
oracle of a counting copy, which carries no presentation; ranks of presented
restrictions against their parents; and the work the presentations save,
counted on the oracle each real matroid and each of its presented
restrictions is built with."""

import importlib
import json
import random
import time
from itertools import combinations
from math import comb

import pytest

from matroidbetti import (
    Graph,
    Matroid,
    ValidationError,
    bits,
    cycle_matroid,
    direct_sum,
    dual_min_distance,
    fixture,
    from_bases,
    hilbert_check,
    hochster_betti,
    k_subsets,
    multi_uniform,
    uniform,
    weight_hierarchy,
)
from matroidbetti import cli
from matroidbetti.cli import main

from oracles import euler_fine_betti, sweep_weights
from util import SEED, counting, edges_of, parts_of, random_graph


class OracleBudget(Exception):
    pass


def metered(monkeypatch, m, limit=None):
    """Wrap the oracle ``m`` was built with, and that of each presented
    restriction of ``m`` or of such a restriction (which ranks by its own
    presentation, not through ``m``), so every evaluation is appended to the
    returned list; past ``limit`` evaluations the oracle raises. Any other
    restriction reads its matroid's wrapped oracle and is counted there."""
    calls = []
    family = [m]

    def meter(x):
        oracle = x._rank_fn

        def counted(sigma):
            calls.append(sigma)
            if limit is not None and len(calls) > limit:
                raise OracleBudget(f"more than {limit} rank evaluations")
            return oracle(sigma)

        x._rank_fn = counted

    restrict = Matroid.restrict

    def restricting(self, sigma):
        sub = restrict(self, sigma)
        if any(self is x for x in family) and sub._presentation is not None:
            family.append(sub)
            meter(sub)
        return sub

    monkeypatch.setattr(Matroid, "restrict", restricting)
    meter(m)
    return calls


def probes(m, rng, count=24):
    """The empty set, the ground set and ``count`` seeded subsets, or every
    subset when there are no more than that."""
    if 1 << m.n <= count + 2:
        return list(range(1 << m.n))
    return [0, m.full_mask] + [rng.randrange(1 << m.n) for _ in range(count)]


def assert_matches_oracle(m, rng):
    plain, _ = counting(m)
    assert edges_of(plain) is None and parts_of(plain) is None
    where = (m.provenance, m.n, edges_of(m), parts_of(m))
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
            assert edges_of(block.matroid) is not None
            assert_matches_oracle(block.matroid, rng)
            restrictions += 1
    assert restrictions >= 300


def test_uniform_matroids_match_the_oracle():
    rng = random.Random(SEED + 19)
    for n in range(9):
        for r in range(n + 1):
            m = uniform(r, n)
            assert parts_of(m) == ((((1 << n) - 1, r),) if n else ())
            assert_matches_oracle(m, rng)
            assert len(m.bases()) == comb(n, r)


def uniform_sums(rng):
    """Five hand-picked and 40 seeded multi-uniform sums of up to four parts,
    with rank-0, free and empty parts among them."""
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
    return [multi_uniform(profile) for profile in profiles]


def test_uniform_sums_and_their_restrictions_match_the_oracle():
    rng = random.Random(SEED + 20)
    for m in uniform_sums(rng):
        assert all(mask for mask, _ in parts_of(m))
        assert_matches_oracle(m, rng)
        cuts = {m.full_mask, 0} | {rng.randrange(1 << m.n) for _ in range(6)}
        cuts |= set(m.blocks().masks())
        for sigma in cuts:
            sub = m.restrict(sigma)
            assert_matches_oracle(sub, rng)
            for mask, r in parts_of(sub):
                assert (mask + (mask & -mask)) & mask == 0  # a run of elements
                assert sub.rank(mask) == r


def assert_restrictions_rank_as_their_parent(m, rng):
    """For seeded sigma (and each block), ``m.restrict(sigma)`` ranks each
    probe set as ``m`` ranks its image, and so does a restriction of that
    restriction against it; the presented ones rank by their own
    presentation."""
    cuts = [m.full_mask, 0, *m.blocks().masks()] + [rng.randrange(1 << m.n) for _ in range(3)]
    for sigma in cuts:
        sub = m.restrict(sigma)
        assert sub.labels == tuple(bits(sigma))
        for parent, child in ((m, sub), (sub, sub.restrict(rng.randrange(1 << sub.n)))):
            assert (edges_of(child) is None) == (edges_of(parent) is None)
            assert (parts_of(child) is None) == (parts_of(parent) is None)
            for s in probes(child, rng):
                image = sum(1 << child.labels[i] for i in bits(s))
                assert child.rank(s) == parent.rank(image), (parent, sigma, s)


def test_restrictions_rank_as_their_parent_on_the_image():
    rng = random.Random(SEED + 22)
    for g in graph_cases():
        assert_restrictions_rank_as_their_parent(cycle_matroid(g), rng)
    for n in range(9):
        for r in range(n + 1):
            assert_restrictions_rank_as_their_parent(uniform(r, n), rng)
    for m in uniform_sums(rng):
        assert_restrictions_rank_as_their_parent(m, rng)


def test_presented_restrictions_never_ask_their_parent():
    # A presented restriction ranks by its own presentation: no evaluation
    # reaches the oracle of the matroid it was cut from, for its blocks, its
    # kinds, its bases or any probe set.
    rng = random.Random(SEED + 23)
    cases = [cycle_matroid(g) for g in graph_cases()[::4]] + uniform_sums(rng)
    cases += [cycle_matroid(fixture("g1")), uniform(10, 40)]
    for m in cases:
        asked = []
        oracle = m._rank_fn
        m._rank_fn = lambda sigma, oracle=oracle: asked.append(sigma) or oracle(sigma)
        sigma = rng.randrange(1 << m.n)
        for sub in (m.restrict(sigma), *(b.matroid for b in m.blocks().blocks)):
            for s in probes(sub, rng):
                sub.rank(s)
            sub.blocks()
            if sub.n <= 14:
                sub.bases()
        assert asked == [], (m, sigma)


def test_restricted_parts_shrink_to_their_members():
    m = multi_uniform([(2, 3), (0, 2), (3, 4)])
    sub = m.restrict(0b110110110)
    assert sub.labels == (1, 2, 4, 5, 7, 8)
    assert parts_of(sub) == ((0b11, 2), (0b100, 0), (0b111000, 3))
    assert parts_of(uniform(3, 5).restrict(0b10100)) == ((0b11, 2),)
    assert parts_of(uniform(3, 5).restrict(0)) == ()


def test_only_uniform_sums_and_their_restrictions_carry_parts():
    u = multi_uniform([(1, 2), (2, 3)])
    for m in (uniform(2, 3), uniform(0, 0), u, u.restrict(0b11010), uniform(2, 4).restrict(0b111)):
        assert parts_of(m) is not None
    g = cycle_matroid(fixture("g3"))
    for m in (g, g.restrict(0b111), u.dual(), direct_sum(u, u), counting(u)[0],
              from_bases(3, [[0, 1], [0, 2]]), u.dual().restrict(0b111)):
        assert parts_of(m) is None


def test_uniform_test_reads_the_parts():
    # A uniform sum is its parts, read without listing a basis; so is a
    # graph of r <= 1 or n - r <= 1 whose r-sets are all bases, as one part.
    assert uniform(3, 9)._uniform_profile() == [(3, 9)]
    assert uniform(3, 9)._bases is None
    for profile, expected in (
        ([(1, 1), (2, 2)], [(1, 1), (2, 2)]),
        ([(0, 1), (2, 3)], [(0, 1), (2, 3)]),
        ([(1, 1), (1, 2)], [(1, 1), (1, 2)]),
        ([(0, 0), (2, 5)], [(2, 5)]),
    ):
        assert multi_uniform(profile)._uniform_profile() == expected, profile
    triangle = cycle_matroid(Graph(3, ((0, 1), (1, 2), (2, 0))))
    assert triangle._uniform_profile() == [(2, 3)]
    assert cycle_matroid(fixture("g3"))._uniform_profile() is None


def test_uniform_test_lists_no_graph_basis():
    # A circuit, a parallel class or a loopless rank-one graph is uniform by
    # at most n rank calls, and a graph with r >= 2 and n - r >= 2 is not,
    # since U(2, 4) is not graphic; none of them lists a basis. The answer is
    # that of counting the bases through the oracle of a copy.
    triangle = cycle_matroid(Graph(3, ((0, 1), (1, 2), (2, 0))))
    assert hochster_betti(triangle).global_ == (3, 2)
    assert triangle._bases is None
    rng = random.Random(SEED + 40)
    graphs = [random_graph(rng) for _ in range(200)] + [fixture("g3"), fixture("g1")]
    for g in graphs:
        m = cycle_matroid(g)
        copy, _ = counting(m)
        n, r = m.n, m.full_rank
        assert m._uniform_profile() == ([(r, n)] if len(copy.bases()) == comb(n, r) else None), g
        assert m._bases is None
    # These sums are not uniform and stay two parts; their oracle copies,
    # one with a loop and one with r, n - r >= 2, are not uniform either.
    for profile in ([(0, 1), (1, 3)], [(1, 2), (1, 3)]):
        m = multi_uniform(profile)
        assert len(counting(m)[0].bases()) < comb(m.n, m.full_rank)
        assert m._uniform_profile() == profile
        assert counting(m)[0]._uniform_profile() is None


def test_dual_d1_of_a_parallel_class_reads_its_singletons(monkeypatch):
    # Scanning the complements visits all 2^18 subsets of these 18 parallel
    # edges before the empty complement falls short of rank 1; the uniform
    # test asks the full rank and each singleton, and the oracle gives up past
    # that.
    copy, evaluated = counting(cycle_matroid(Graph(2, ((0, 1),) * 18)))
    calls = metered(monkeypatch, copy, limit=19)
    assert dual_min_distance(copy) == 18
    assert len(calls) == len(evaluated) <= 19


def _uniform_graphs():
    """Cycles, parallel classes, paths and graphs of loops of 1 to 10 edges."""
    for k in range(1, 11):
        yield Graph(k, tuple((i, (i + 1) % k) for i in range(k)))
        yield Graph(2, ((0, 1),) * k)
        yield Graph(k + 1, tuple((i, i + 1) for i in range(k)))
        yield Graph(1, ((0, 0),) * k)


def test_weights_and_dual_d1_of_uniform_graphs_need_no_circuit():
    # Each of these is one uniform part, so its weights and dual distance
    # come from the closed forms; the oracle copy answers by the subset
    # sweep and by scanning complements.
    for g in _uniform_graphs():
        m = cycle_matroid(g)
        copy, _ = counting(m)
        n, r, full = m.n, m.full_rank, m.full_mask
        assert weight_hierarchy(m) == sweep_weights(copy), g
        if r == 0:
            with pytest.raises(ValidationError):
                dual_min_distance(m)
        else:
            scan = next(i for i in range(1, n + 1)
                        if any(copy.rank(full ^ s) < r for s in k_subsets(n, i)))
            assert dual_min_distance(m) == scan, g
        assert m._circuits is None and m._bases is None, g


def test_uniform_sums_and_families_sweep_to_the_euler_table(monkeypatch):
    # Several uniform parts, or a uniform basis family with r, n - r >= 2,
    # are not one part, so the sweep answers. A uniform family has no core
    # column, since every r-set is a basis; a sum of several parts has some,
    # read off their lead rows, and only the second sum has columns sharing
    # a lead: three pairs, one certificate each.
    betti_mod = importlib.import_module("matroidbetti.betti")
    certified = betti_mod._certified
    decided = []

    def recording(get, b, ys, t, t2):
        decided.append((t, t2))
        return certified(get, b, ys, t, t2)

    monkeypatch.setattr(betti_mod, "_certified", recording)
    family = from_bases(5, combinations(range(5), 2))
    sums = (multi_uniform([(1, 2), (2, 3), (0, 2)]), multi_uniform([(2, 4), (1, 3)]))
    for m, certificates in zip((family, *sums), (0, 0, 3)):
        assert m._uniform_profile() is None or len(m._uniform_profile()) > 1
        decided.clear()
        table = hochster_betti(m, fine=True)
        assert len(decided) == certificates, parts_of(m)
        assert table.fine == euler_fine_betti(m)
        assert hilbert_check(table, m)


def test_from_bases_keeps_its_bases(monkeypatch):
    # Listing them back by the oracle scanned every 11-set: 705,433 rank
    # evaluations for these two bases on 22 elements.
    first = list(range(11))
    m = from_bases(22, [first, first[:-1] + [11]])
    calls = metered(monkeypatch, m)
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


def test_blocks_of_g1_take_at_most_five_evaluations(monkeypatch):
    # Through the oracle, the fundamental graph takes 61 evaluations for the
    # blocks and their kinds: a greedy basis, then B - b + e for the 5 x 9
    # pairs. The forest gives the circuits instead, and what is left is the
    # block's rank for its kind.
    m = cycle_matroid(fixture("g1"))
    calls = metered(monkeypatch, m)
    assert m.blocks().masks() == (m.full_mask,)
    assert [b.kind for b in m.blocks().blocks] == ["general"]
    assert len(calls) <= 5


def test_weights_of_g1_take_at_most_150_evaluations(monkeypatch):
    # 562 when the greedy basis, the fundamental circuits and every closure
    # of the 30 cyclic flats go through the oracle; what is left is shrinking
    # the eliminated circuit unions.
    m = cycle_matroid(fixture("g1"))
    calls = metered(monkeypatch, m)
    assert weight_hierarchy(m).weights == (3, 6, 8, 11, 14)
    assert len(calls) <= 150


def test_weights_on_u10_40_answer_from_the_parts(monkeypatch, capsys):
    # Closing circuits toward the C(40, 11) circuits of U(10, 40) was still
    # running after 8 s; the parts give d_i = 10 + i with no circuit. The
    # oracle gives up after 100 evaluations, as for betti below.
    def bounded_uniform(r, n):
        m = uniform(r, n)
        metered(monkeypatch, m, limit=100)
        return m

    monkeypatch.setattr(cli, "uniform", bounded_uniform)
    start = time.perf_counter()
    code = main(["weights", "--input", '{"uniform": [10, 40]}', "--output", "json"])
    assert time.perf_counter() - start < 1.0
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["d"] == list(range(11, 41))


def test_betti_on_u10_40_answers_from_the_parts(monkeypatch, capsys):
    # Through the oracle, the blocks and the greedy probe take 342
    # evaluations, and the uniform test then builds the list of all
    # C(40, 10) = 847,660,528 10-sets before its next evaluation. So the
    # oracle here gives up after 100 evaluations, which stops that route in
    # its blocks; a cap past 342 would let it reach that list.
    def bounded_uniform(r, n):
        m = uniform(r, n)
        metered(monkeypatch, m, limit=100)
        return m

    monkeypatch.setattr(cli, "uniform", bounded_uniform)
    code = main(["betti", "--input", '{"uniform": [10, 40]}', "--output", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["algorithm"] == "hochster"
    assert data["table"]["global"] == [comb(40, k) * comb(k - 1, 9) for k in range(10, 41)]
