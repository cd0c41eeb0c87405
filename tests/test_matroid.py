"""Matroid core: rank oracles, bases, circuits, duality, restriction,
blocks, and the constructors."""

import gc
import random
import weakref

import pytest

from matroidbetti import (
    Block,
    Matroid,
    ValidationError,
    betti,
    bits,
    cycle_matroid,
    direct_sum,
    fixture,
    from_bases,
    mask_of,
    multi_uniform,
    resolve_algorithm,
    uniform,
)

from oracles import brute_circuits, circuit_blocks
from util import (
    SEED,
    STRUCTURE_FAMILIES,
    assert_rank_axioms,
    counting,
    graph_matroid,
    multiblock_suite,
    random_multigraph,
    structure_cases,
    two_triangles,
)


def test_uniform_basics():
    m = uniform(2, 4)
    assert m.n == 4
    assert m.full_rank == 2
    assert len(m.bases()) == 6
    assert all(b.bit_count() == 2 for b in m.bases())
    # circuits of U(2,4) are exactly the 3-element subsets
    assert sorted(m.circuits()) == sorted(
        mask_of(c) for c in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def test_uniform_degenerate():
    loops = uniform(0, 3)
    assert loops.full_rank == 0
    assert loops.bases() == (0,)
    assert loops.circuits() == (1, 2, 4)
    free = uniform(3, 3)
    assert free.bases() == (0b111,)
    assert free.circuits() == ()
    with pytest.raises(ValueError):
        uniform(4, 3)
    with pytest.raises(ValueError):
        uniform(-1, 3)


def test_ground_set_cap():
    with pytest.raises(ValueError):
        uniform(2, 65)
    with pytest.raises(ValueError):
        Matroid(-1, lambda s: 0)


def test_rank_validates_subset():
    m = uniform(2, 4)
    with pytest.raises(ValueError):
        m.rank(1 << 4)
    with pytest.raises(ValueError):
        m.rank(-1)


def test_rank_axioms_on_standard_examples():
    rng = random.Random(7)
    for m in [
        uniform(2, 4),
        uniform(0, 2),
        uniform(3, 3),
        graph_matroid(3, ((0, 1), (1, 2), (2, 0))),
        graph_matroid(5, two_triangles().edges),
        multi_uniform([(2, 3), (2, 3)]),
    ]:
        assert_rank_axioms(m, rng)


def test_rank_axioms_on_seeded_suite_sample():
    rng = random.Random(11)
    suite = multiblock_suite()
    for m in suite[:12]:
        assert_rank_axioms(m, rng, samples=80)


def test_dual_rank_and_involution():
    m = uniform(2, 5)
    ms = m.dual()
    assert ms.full_rank == 3
    # dual of a uniform matroid is the complementary uniform matroid
    expected = uniform(3, 5)
    for s in range(1 << 5):
        assert ms.rank(s) == expected.rank(s)
    back = ms.dual()
    for s in range(1 << 5):
        assert back.rank(s) == m.rank(s)


def test_dual_bases_are_complements():
    m = graph_matroid(5, two_triangles().edges)
    full = m.full_mask
    assert sorted(m.dual().bases()) == sorted(full ^ b for b in m.bases())


def test_restriction_relabels():
    m = multi_uniform([(2, 3), (1, 2)])
    sub = m.restrict(mask_of((3, 4)))
    assert sub.n == 2
    assert sub.labels == (3, 4)
    assert sub.full_rank == 1
    assert sub.circuits() == (0b11,)


def test_circuits_of_graphs():
    # triangle with a pendant edge: the only circuit is the triangle
    m = graph_matroid(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
    assert m.circuits() == (0b0111,)
    # a loop is a one-element circuit, a parallel pair a two-element one
    m2 = graph_matroid(2, ((0, 0), (0, 1), (0, 1)))
    assert m2.circuits() == (0b001, 0b110)


def test_blocks_two_triangles():
    m = graph_matroid(5, two_triangles().edges)
    part = m.blocks()
    assert part.masks() == (0b000111, 0b111000)
    assert [b.matroid.full_rank for b in part.blocks] == [2, 2]


def test_blocks_with_singletons():
    m = direct_sum(uniform(2, 4), uniform(0, 1), uniform(1, 1))
    part = m.blocks()
    assert part.masks() == (0b001111, 0b010000, 0b100000)
    kinds = [(b.matroid.n, b.matroid.full_rank) for b in part.blocks]
    assert kinds == [(4, 2), (1, 0), (1, 1)]


def test_blocks_cover_ground_set():
    for m in multiblock_suite()[:20]:
        part = m.blocks()
        assert len(part.blocks) >= 2
        union = 0
        for b in part.blocks:
            assert union & b.members == 0
            union |= b.members
        assert union == m.full_mask


def test_blocks_match_the_circuit_relation():
    # Blocks from one basis's fundamental circuits against the defining
    # relation (a union-find over every circuit).
    rng = random.Random(SEED + 41)
    cases = [uniform(0, 0), uniform(0, 4), uniform(4, 4), uniform(1, 1), uniform(0, 1)]
    cases += [random_multigraph(rng) for _ in range(120)]
    for _ in range(30):
        sizes = rng.choices(range(1, 5), k=rng.randint(1, 3))
        cases.append(multi_uniform([(rng.randint(0, k), k) for k in sizes]))
    cases += multiblock_suite()
    cases += [from_bases(m.n, [list(bits(b)) for b in m.bases()]) for m in cases[::7]]
    for m in cases:
        part = m.blocks()
        assert part.masks() == circuit_blocks(m), (m.provenance, m.n)
        for block in part.blocks:
            assert block.matroid.labels == tuple(bits(block.members))


def test_blocks_and_resolve_never_list_circuits(monkeypatch):
    # g1 is one block of 14 edges. The fundamental circuits of one basis
    # decide that in fewer than 100 rank evaluations, without closing them
    # into the whole circuit family.
    m, evaluated = counting(cycle_matroid(fixture("g1")))

    def refuse(self):
        raise AssertionError("circuits() must not be called")

    monkeypatch.setattr(Matroid, "circuits", refuse)
    assert m.blocks().masks() == (m.full_mask,)
    assert resolve_algorithm(m) == "hochster"
    assert len(evaluated) <= 100


def test_blocks_are_found_once(monkeypatch):
    # ``betti`` reads the partition to choose its route and again to run
    # the blocks route; both reads share one search, and neither keeps a
    # restriction that refers back to ``m``.
    searches = []
    fundamental = Matroid._fundamental_circuits

    def recording(self):
        searches.append(self.n)
        return fundamental(self)

    monkeypatch.setattr(Matroid, "_fundamental_circuits", recording)
    m = cycle_matroid(two_triangles())
    assert m.blocks().masks() == m.blocks().masks() == (0b111, 0b111000)
    assert resolve_algorithm(m) == "blocks"
    assert betti(m).global_ == (9, 12, 4)
    assert searches == [6]
    # With the cycle collector off, ``m`` (and so its oracle) is freed by
    # reference counting alone.
    probe = weakref.ref(m._rank_fn)
    gc.disable()
    try:
        del m
        assert probe() is None
    finally:
        gc.enable()


def test_blocks_keep_one_partition():
    # The partition is built once; every later call returns the same object,
    # so each block's restriction, kind and rank are worked out once.
    for m in (cycle_matroid(two_triangles()), multi_uniform([(1, 2), (2, 3)]), uniform(2, 4)):
        assert m.blocks() is m.blocks()


def test_kept_blocks_leave_no_reference_cycle():
    # A kept block restriction reads its parent's oracle, not the parent, so
    # matroids that had their blocks, kinds and block route read are freed by
    # reference counting alone: the cycle collector finds nothing.
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for m in (
                cycle_matroid(fixture("g1")),
                cycle_matroid(two_triangles()),
                multi_uniform([(1, 2), (2, 3), (0, 1)]),
                direct_sum(uniform(1, 2), uniform(2, 3)).dual(),
            ):
                kinds = [b.kind for b in m.blocks().blocks]
                if len(kinds) >= 2:
                    betti(m, "blocks")
        del m, kinds
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_block_kinds():
    # a loop, a bridge, a triangle and a K4, in that edge order
    k4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    m = graph_matroid(7, ((6, 6), (5, 6), (3, 4), (4, 5), (5, 3)) + k4)
    part = m.blocks()
    assert part.masks() == (0b1, 0b10, 0b11100, 0b11111100000)
    assert [b.kind for b in part.blocks] == ["loop", "coloop", "circuit", "general"]
    assert [b.kind for b in uniform(1, 2).blocks().blocks] == ["circuit"]
    assert [b.kind for b in uniform(2, 4).blocks().blocks] == ["general"]


def test_circuit_kind_reads_one_rank():
    # A block has no coloop, so rank k - 1 alone makes it a circuit.
    m, evaluated = counting(graph_matroid(6, [(i, (i + 1) % 6) for i in range(6)]))
    assert Block(m.full_mask, m).kind == "circuit"
    assert len(evaluated) <= 2


@pytest.mark.parametrize("family", STRUCTURE_FAMILIES)
def test_circuits_match_brute_force(family):
    for m in structure_cases(family):
        assert m.circuits() == brute_circuits(m), (m.provenance, m.n, m.full_rank)


def test_circuits_take_both_paths(monkeypatch):
    # Elimination closes g1's 5 fundamental circuits into its 17 circuits;
    # U(6, 12) has 792 circuits, so the closure passes the work bound and
    # the scan over sets of at most 7 elements runs instead.
    scans = []
    scan = Matroid._scan_circuits

    def recording(self):
        scans.append(self.n)
        return scan(self)

    monkeypatch.setattr(Matroid, "_scan_circuits", recording)
    g1 = cycle_matroid(fixture("g1"))
    assert len(g1.circuits()) == 17
    assert scans == []
    u = uniform(6, 12)
    assert u.circuits() == brute_circuits(u)
    assert scans == [12]


def test_direct_sum_ranks_add():
    rng = random.Random(3)
    a, b = uniform(2, 4), graph_matroid(3, ((0, 1), (1, 2), (2, 0)))
    m = direct_sum(a, b)
    assert m.n == 7
    assert m.full_rank == 4
    for _ in range(100):
        sa = rng.randrange(1 << 4)
        sb = rng.randrange(1 << 3)
        assert m.rank(sa | (sb << 4)) == a.rank(sa) + b.rank(sb)


def test_multi_uniform_matches_direct_sum():
    m1 = multi_uniform([(2, 3), (3, 4)])
    m2 = direct_sum(uniform(2, 3), uniform(3, 4))
    for s in range(1 << 7):
        assert m1.rank(s) == m2.rank(s)


def test_from_bases_uniform():
    m = from_bases(3, [(0, 1), (0, 2), (1, 2)])
    ref = uniform(2, 3)
    for s in range(1 << 3):
        assert m.rank(s) == ref.rank(s)
    assert m.provenance == "explicit_bases"


def test_from_bases_rejects_non_matroid():
    # {0,1} and {2,3} violate the exchange axiom on 4 elements
    with pytest.raises(ValidationError, match="exchange"):
        from_bases(4, [(0, 1), (2, 3)])


def test_from_bases_rejects_malformed():
    with pytest.raises(ValidationError):
        from_bases(3, [])
    with pytest.raises(ValidationError):
        from_bases(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(ValueError):
        from_bases(3, [(0, 5)])


def test_from_bases_rejects_a_repeated_element():
    # [0, 0, 1] is not the 2-set {0, 1}, and [1, 1] is not the basis {1}.
    for n, bases in ((3, [[0, 0, 1], [1, 2]]), (2, [[1, 1]])):
        with pytest.raises(ValueError, match="repeats an element") as exc:
            from_bases(n, bases)
        assert not isinstance(exc.value, ValidationError)
        assert str(bases[0]) in str(exc.value)


def test_bases_count_spanning_trees():
    # the number of bases of a cycle matroid is the spanning tree count
    m = graph_matroid(5, two_triangles().edges)
    assert len(m.bases()) == 9
    k4 = graph_matroid(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    assert len(k4.bases()) == 16  # Cayley: 4^(4-2)
