"""Betti tables: the homology sweep against an independent resolution oracle,
the block product, the closed form for circuit unions, and its inversion."""

import dataclasses
import importlib
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from matroidbetti import complexes
from matroidbetti.cli import main
from matroidbetti.complexes import SimplicialComplex
from matroidbetti.linalg import lane_width
from matroidbetti.matroid import _frontier
from matroidbetti import (
    BettiTable,
    CycleProfile,
    GF2,
    Graph,
    Matroid,
    PrimeField,
    ValidationError,
    WeightHierarchy,
    betti,
    bits,
    block_product_betti,
    block_weights,
    cactus_betti,
    cycle_matroid,
    direct_sum,
    dual_min_distance,
    fixture,
    from_bases,
    hilbert_check,
    hochster_betti,
    invert_cactus_betti,
    multi_uniform,
    resolve_algorithm,
    uniform,
)

from oracles import (
    absolute_betti,
    brute_circuits,
    convolve_naive,
    euler_fine_betti,
    hilbert_global,
    matrix_tree_count,
    taylor_fine_betti,
    taylor_global_betti,
)
from util import (
    SEED,
    assert_diagonal_fine,
    chorded_ring,
    counting,
    edges_of,
    graph_matroid,
    multiblock_suite,
    parts_of,
    random_graph,
    random_multigraph,
    structure_cases,
    two_triangles,
)

GF3 = PrimeField(3)
# The package attribute ``matroidbetti.betti`` is the function, not the module.
BETTI_MODULE = importlib.import_module("matroidbetti.betti")


def two_triangles_matroid():
    return cycle_matroid(two_triangles())


# -- small closed-form sanity ---------------------------------------------------


@pytest.mark.parametrize("m_len", [2, 3, 4, 5, 6])
def test_single_circuit_global_vector(m_len):
    # One circuit of length m: exactly m generators and m-1 first syzygies.
    t = hochster_betti(uniform(m_len - 1, m_len))
    assert t.global_ == (m_len, m_len - 1)
    assert t.degrees() == (m_len - 1, m_len)
    assert t.coarse == {(0, m_len - 1): m_len, (1, m_len): m_len - 1}


def test_table_is_stored_as_its_global_vector():
    assert [f.name for f in dataclasses.fields(BettiTable)] == [
        "rank_r",
        "n",
        "global_",
        "fine",
    ]
    # Zero entries (here a loop's trailing zero) leave no coarse entry.
    t = BettiTable(2, 4, (3, 2, 0))
    assert t.coarse == {(0, 2): 3, (1, 3): 2}
    assert t.degrees() == (2, 3)


def test_free_matroid_single_generator():
    # Every element a coloop: one basis, so the ideal is principal.
    t = hochster_betti(uniform(4, 4))
    assert t.global_ == (1,)
    assert t.coarse == {(0, 4): 1}
    assert t.degrees() == (4, 4)


def test_rank_zero_gives_unit_ideal_table():
    t = hochster_betti(uniform(0, 3))
    assert t.rank_r == 0
    assert t.global_ == (1, 0, 0, 0)
    assert t.coarse == {(0, 0): 1}
    tf = hochster_betti(uniform(0, 3), fine=True)
    assert tf.fine == {0: 1}
    assert hilbert_check(t, uniform(0, 3))


def test_broken_rank_oracle_is_rejected():
    # rank jumps straight from 0 to 1 on the full set: no greedy basis exists,
    # the generating set would be empty, and the sweep refuses to run.
    bogus = Matroid(3, lambda s: 1 if s == 0b111 else 0)
    with pytest.raises(ValidationError, match="zero ideal"):
        hochster_betti(bogus)


def test_resolution_text_rendering():
    assert (
        hochster_betti(uniform(2, 3)).resolution_text()
        == "0 <- S(-2)^3 <- S(-3)^2 <- 0"
    )
    assert hochster_betti(uniform(0, 2)).resolution_text() == "0 <- S <- 0"
    assert hochster_betti(uniform(3, 3)).resolution_text() == "0 <- S(-3)^1 <- 0"


# -- independent oracle: strand-by-strand homology of the Taylor resolution ----


def _oracle_battery():
    tri = graph_matroid(3, [(0, 1), (1, 2), (2, 0)])
    c4 = graph_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    return [
        uniform(2, 3),
        uniform(1, 3),
        uniform(2, 4),
        uniform(3, 4),
        tri,
        c4,
        two_triangles_matroid(),
        multi_uniform([(1, 2), (2, 3)]),
        direct_sum(uniform(0, 1), uniform(2, 3)),
    ]


@pytest.mark.parametrize("m", _oracle_battery(), ids=lambda m: f"n{m.n}r{m.full_rank}")
def test_sweep_agrees_with_taylor_strand_oracle(m):
    # The oracle resolves the basis-monomial ideal over the rationals with a
    # completely different construction (multigraded strands of the Taylor
    # complex, exact fraction elimination); fine and global tables must match.
    gens = m.bases()
    table = hochster_betti(m, fine=True)
    assert_diagonal_fine(table, taylor_fine_betti(gens))
    oracle = taylor_global_betti(gens)
    assert table.global_ == oracle + (0,) * (m.n - m.full_rank + 1 - len(oracle))


def test_two_triangle_fine_multiplicities():
    table = hochster_betti(two_triangles_matroid(), fine=True)
    # 9 generators: one per pair (edge of one triangle, edge of the other)...
    assert sum(v for s, v in table.fine.items() if s.bit_count() == 4) == 9
    # ...multiplicity 2 on each of the 5-element supports, and 4 on top.
    fives = {s: v for s, v in table.fine.items() if s.bit_count() == 5}
    assert set(fives.values()) == {2}
    assert len(fives) == 6
    assert table.fine[0b111111] == 4
    assert table.global_ == (9, 12, 4)


# -- absolute homology in every degree vs the linear-diagonal sweep ------------


@pytest.mark.parametrize(
    "m",
    [
        uniform(1, 3),
        uniform(2, 4),
        uniform(3, 6),
        two_triangles_matroid(),
        multi_uniform([(2, 3), (1, 2)]),
        graph_matroid(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]),
    ],
    ids=lambda m: f"n{m.n}r{m.full_rank}",
)
def test_exhaustive_sweep_equals_diagonal_sweep(m):
    # The sweep only visits supports of size rank + i; ``absolute_betti``
    # visits every (i, subset) pair and keeps whatever is nonzero. They must
    # produce identical fine maps, which also certifies off-diagonal vanishing.
    assert_diagonal_fine(hochster_betti(m, fine=True), absolute_betti(m))


def _differential_cases() -> list[Matroid]:
    rng = random.Random(SEED + 4)
    cases = [uniform(r, n) for n in range(1, 8) for r in range(1, n + 1)]
    cases += [random_multigraph(rng) for _ in range(120)]
    cases += [from_bases(m.n, [list(bits(b)) for b in m.bases()]) for m in cases[::5]]
    # rank 1 with loops and parallel elements; free matroids with loops
    cases += [multi_uniform([(1, 3), (0, 2)]), multi_uniform([(1, 1), (0, 3)])]
    cases += [multi_uniform([(4, 4), (0, 1)]), direct_sum(uniform(2, 2), uniform(1, 1))]
    return cases


@pytest.mark.parametrize("fld", [GF2, GF3, PrimeField(5)], ids=lambda f: f"GF{f.p}")
def test_relative_chains_match_absolute_homology(fld):
    # The diagonal sweep ranks relative chains (bases of sigma against the
    # spanning (r + 1)-subsets of sigma); ``absolute_betti`` ranks the
    # absolute homology of V|sigma in every degree; the Euler oracle does no
    # linear algebra at all. All three fine tables must agree. The coarse
    # sweep counts bases by a closed form, not per sigma, so its levels are
    # checked against the Euler oracle's too.
    for m in _differential_cases():
        fast = hochster_betti(m, fld, fine=True)
        euler = euler_fine_betti(m)
        assert fast.fine == euler, (m.provenance, m.n)
        assert_diagonal_fine(fast, absolute_betti(m, fld))
        levels = [0] * (m.n - m.full_rank + 1)
        for s, h in euler.items():
            levels[s.bit_count() - m.full_rank] += h
        assert hochster_betti(m, fld).global_ == tuple(levels), (m.provenance, m.n)


@pytest.mark.parametrize(
    "fld",
    [GF3, PrimeField(5), PrimeField(7), PrimeField(13), PrimeField(17), PrimeField(2**61 - 1)],
)
def test_field_independence(fld, monkeypatch):
    # Over every odd prime the seeded graphs and the chorded rings, whose
    # blocks run to hundreds of bases, give the GF(2) tables, fine and coarse.
    rank = BETTI_MODULE._rank
    eliminated = 0

    def ranking(cols, p):
        nonlocal eliminated
        eliminated += p != 2
        return rank(cols, p)

    monkeypatch.setattr(BETTI_MODULE, "_rank", ranking)
    rng = random.Random(SEED)
    cases = [uniform(2, 4), two_triangles_matroid(), multi_uniform([(1, 2), (2, 3)])]
    cases += [random_multigraph(rng) for _ in range(40)]
    cases += [chorded_ring(rng, v, c) for v, c in ((9, 4), (10, 4), (11, 3))]
    for m in cases:
        over_2 = hochster_betti(m, GF2, fine=True)
        over_p = hochster_betti(m, fld, fine=True)
        assert over_2.coarse == over_p.coarse
        assert over_2.fine == over_p.fine
    assert eliminated > 0


def test_sweep_reads_each_face_level_once(monkeypatch):
    # The diagonal sweep reads the bases through the rank oracle and builds
    # no Alexander dual at all, so it asks no face question.
    calls = 0
    is_face = SimplicialComplex.is_face

    def counting(self, mask):
        nonlocal calls
        calls += 1
        return is_face(self, mask)

    monkeypatch.setattr(SimplicialComplex, "is_face", counting)
    m = cycle_matroid(fixture("g1"))
    assert (m.n, m.full_rank) == (14, 9)
    table = hochster_betti(m)
    assert table.global_ == (393, 1459, 2187, 1652, 628, 96)
    assert calls == 0


def test_all_bases_levels_are_summed(monkeypatch):
    # When every r-set is a basis, level i is C(n, r + i) sets sigma of
    # homology C(r + i - 1, i) each: the coarse sweep sums them and lists no
    # set past the bases, while the fine sweep still lists every sigma.
    listed = []
    k_subsets = BETTI_MODULE.k_subsets
    monkeypatch.setattr(
        BETTI_MODULE, "k_subsets", lambda n, k: listed.append(k) or k_subsets(n, k)
    )
    for n in range(1, 10):
        for r in range(n + 1):
            listed.clear()
            coarse = hochster_betti(uniform(r, n))
            assert [k for k in listed if k > r] == [], (r, n)
            fine = hochster_betti(uniform(r, n), fine=True).fine
            levels = [0] * (n - r + 1)
            for s, h in fine.items():
                levels[s.bit_count() - r] += h
            assert coarse.global_ == tuple(levels), (r, n)


def test_all_bases_fine_table_matches_the_relative_chain_sweep():
    # The all-bases branch of ``hochster_betti`` against the general sweep,
    # which ranks the relative chains of every sigma.
    for n in range(1, 8):
        for r in range(1, n + 1):
            table = hochster_betti(uniform(r, n), GF3, fine=True)
            totals, h = BETTI_MODULE._relative_homology(uniform(r, n), GF3, fine=True)
            assert table.global_ == tuple(totals), (r, n)
            assert table.fine == h, (r, n)


def test_uniform_26_is_answered_at_once():
    # Listing the 2^26 sets sigma one level at a time takes seconds.
    start = time.perf_counter()
    t = betti(uniform(3, 26))
    assert time.perf_counter() - start < 1.0
    spanning = [comb(26, k) if k >= 3 else 0 for k in range(27)]
    assert t.global_ == hilbert_global(26, 3, spanning)


def _recording_rows(monkeypatch) -> list[tuple[int, int]]:
    """The row and column counts of every matrix the sweep eliminates, as it
    runs."""
    rows = []
    for name in ("gf2_rank", "modp_rank"):
        rank = getattr(complexes, name)

        def recording(columns, *p, rank=rank):
            width = lane_width(*p) if p else 1
            height = -(-max((c.bit_length() for c in columns), default=0) // width)
            rows.append((height, len(columns)))
            return rank(columns, *p)

        monkeypatch.setattr(complexes, name, recording)
    return rows


def test_sweep_ranks_bases_not_faces(monkeypatch):
    # g1 has C(14, 9) = 2,002 candidate bases, 393 of them bases. Listing the
    # bases once is the only bulk rank work, and rows are numbered among the
    # bases through max sigma; a sweep over face levels of V evaluates C(14, 8) +
    # C(14, 9) = 5,005 sets and builds matrices of C(14, 8) = 3,003 rows.
    # The certificates of the lead rows eliminate 246 columns in all (2,451
    # when every core of two or more columns was eliminated); the whole
    # boundary maps have 8,096.
    g1 = cycle_matroid(fixture("g1"))
    m, evaluated = counting(g1)
    rows = _recording_rows(monkeypatch)
    table = hochster_betti(m)
    assert table.global_ == (393, 1459, 2187, 1652, 628, 96)
    assert len(evaluated) <= comb(14, 9) + 28
    assert rows
    assert max(height for height, _ in rows) <= len(g1.bases()) == 393
    assert sum(width for _, width in rows) <= 3000


# A 12-vertex ring with 5 chords: 17 edges, rank 11, 3,343 spanning trees.
# The size-10 faces of V number C(17, 10) = 19,448, which is what a sweep
# over absolute homology would use as rows.
CHORDED_RING_17 = (
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 11)]
    + [(11, 0), (0, 3), (0, 6), (2, 8), (4, 10), (7, 11)]
)


def test_17_edge_ring_over_gf3(monkeypatch):
    m = graph_matroid(12, CHORDED_RING_17)
    assert (m.n, m.full_rank, len(m.bases())) == (17, 11, 3343)
    rows = _recording_rows(monkeypatch)
    table = hochster_betti(m, GF3, fine=True)
    assert table.fine == euler_fine_betti(m)
    assert table.global_ == (3343, 16533, 34391, 38472, 24388, 8300, 1184)
    assert rows
    # A certificate's rows are bases through its largest element: the tallest
    # has 1,978 rows (the widest core 1,922), against the ring's 3,343 bases.
    assert max(height for height, _ in rows) <= 2000


def test_sweep_hands_no_one_column_matrix_to_elimination(monkeypatch):
    # A certificate holds two columns that share a lead, and the rank of a
    # lone column, its entries +-1, is 1 in every field. On g1 over GF(2) the
    # sweep once eliminated 522 matrices, 201 of them of one column.
    g1 = cycle_matroid(fixture("g1"))
    for fld in (GF2, GF3):
        rows = _recording_rows(monkeypatch)
        assert hochster_betti(g1, fld).global_ == (393, 1459, 2187, 1652, 628, 96)
        assert rows
        assert min(width for _, width in rows) >= 2


def _cores(m: Matroid) -> dict[int, list[int]]:
    """sigma -> the core columns T of sigma, for each sigma with one, by
    definition: every spanning (r + 1)-set T with T - max T not a basis,
    pushed into T | A for each set A of elements below max T outside T."""
    r, bases = m.full_rank, set(m.bases())
    cores: dict[int, list[int]] = {}
    for t in map(sum, combinations([1 << e for e in range(m.n)], r + 1)):
        x = t.bit_length() - 1
        if m.rank(t) < r or t ^ (1 << x) in bases:
            continue
        below = [1 << e for e in range(x) if not t >> e & 1]
        for i in range(len(below) + 1):
            for a in combinations(below, i):
                cores.setdefault(t | sum(a), []).append(t)
    return cores


def _sweep_graph(name: str) -> Matroid:
    return cycle_matroid(fixture("g1")) if name == "g1" else graph_matroid(12, CHORDED_RING_17)


def _lead_groups(m: Matroid) -> Counter[int]:
    """basis B -> the number of core columns T led by B, by definition: B is
    the largest basis inside T."""
    bases = set(m.bases())
    columns = {t for ts in _cores(m).values() for t in ts}
    return Counter(max(t ^ 1 << e for e in bits(t) if t ^ 1 << e in bases) for t in columns)


@pytest.mark.parametrize("fld", [GF2, GF3, PrimeField(5)], ids=lambda f: f"GF{f.p}")
@pytest.mark.parametrize(
    ("name", "work"),
    [("g1", (36, 246, 37_547)), ("ring17", (338, 3_068, 3_622_617))],
    ids=["g1", "ring17"],
)
def test_sweep_ranks_each_core_once(monkeypatch, name, work, fld):
    # No core is eliminated: each core's rank is read once, off its lead
    # rows. The only matrices are the certificates of the pairs of columns
    # led by one basis, one elimination per pair on these graphs. Their
    # number, total columns and rows times columns are pinned exactly, the
    # same in every field (a sweep eliminating every core had 321, 2,451,
    # 393,004 on g1 and 2,258, 37,865, 53,351,335 on the ring).
    m = _sweep_graph(name)
    rows = _recording_rows(monkeypatch)
    assert hilbert_check(hochster_betti(m, fld), m)
    assert (len(rows), sum(w for _, w in rows), sum(h * w for h, w in rows)) == work
    assert len(rows) == sum(comb(k, 2) for k in _lead_groups(m).values())


def _textbook_rank(columns: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of columns given as row -> entry, by textbook
    elimination on each column's lowest row, with no packed lanes."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = min(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            f = col[low] * pow(piv[low], -1, p) % p
            for r, v in piv.items():
                if x := (col.get(r, 0) - f * v) % p:
                    col[r] = x
                else:
                    del col[r]
    return len(pivots)


@pytest.mark.parametrize("fld", [GF2, GF3, PrimeField(5)], ids=lambda f: f"GF{f.p}")
@pytest.mark.parametrize("name", ["g1", "ring17"])
def test_core_rank_is_its_number_of_lead_rows(name, fld):
    # The law the sweep certifies: the core of every sigma, its columns
    # signed by the standard orientation, has as its rank the number of
    # distinct leads (largest bases) of its columns.
    m = _sweep_graph(name)
    bases = set(m.bases())
    for sigma, ts in _cores(m).items():
        cols = [{t ^ 1 << e: (-1) ** k for k, e in enumerate(bits(t)) if t ^ 1 << e in bases} for t in ts]
        assert _textbook_rank(cols, fld.p) == len({max(col) for col in cols}), sigma


def test_a_failed_certificate_is_refused(monkeypatch, capsys):
    # A rank that calls every matrix independent fails the first certificate:
    # the sweep raises rather than return a count it has not proved, and the
    # command line maps that to exit 2.
    monkeypatch.setattr(BETTI_MODULE, "_rank", lambda cols, p: len(cols))
    with pytest.raises(ValidationError, match="certificate"):
        hochster_betti(cycle_matroid(fixture("g1")), GF3)
    assert main(["betti", "--input", "g1", "--algorithm", "hochster"]) == 2
    assert "certificate" in capsys.readouterr().err


@pytest.mark.parametrize("fld", [GF2, GF3, PrimeField(5)], ids=lambda f: f"GF{f.p}")
def test_certificate_columns_but_the_last_have_distinct_leads(monkeypatch, fld):
    # The lemma in ``hochster_betti``: the columns U - y led below B have
    # pairwise distinct leads, so each certificate matrix but its last column
    # T' is in echelon form, and one elimination decides it. Every matrix
    # handed to elimination is recorded, on g1, the 17-edge ring and the
    # random linear matroids over GF(2), GF(3) and GF(5).
    matrices = []
    rank = BETTI_MODULE._rank
    monkeypatch.setattr(BETTI_MODULE, "_rank", lambda cols, p: matrices.append(cols) or rank(cols, p))
    width = lane_width(fld.p)
    for cases in ([_sweep_graph("g1"), _sweep_graph("ring17")], *map(structure_cases, ("gf2", "gf3", "gf5"))):
        matrices.clear()
        for m in cases:
            hochster_betti(m, fld)
        assert matrices
        for cols in matrices:
            leads = {(c.bit_length() - 1) // width for c in cols[:-1]}
            assert len(leads) == len(cols) - 1 >= 1
            assert rank(cols, fld.p) == len(cols) - 1


@pytest.mark.parametrize("name", ["g1", "ring17"])
def test_every_field_eliminates_the_same_matrices(monkeypatch, name):
    # A core's rows are the bases of its block, whatever the field, so the
    # sweep hands GF(2), GF(3) and GF(5) matrices of the same heights and
    # widths, in the same order.
    m = _sweep_graph(name)
    rows = _recording_rows(monkeypatch)
    shapes = []
    for fld in (GF2, GF3, PrimeField(5)):
        rows.clear()
        hochster_betti(m, fld)
        shapes.append(list(rows))
    assert shapes[0]
    assert shapes[0] == shapes[1] == shapes[2]


def test_sweep_packs_each_core_with_its_columns(monkeypatch):
    # Over GF(2) the column of T has a 1 in row j for the j-th basis through
    # max T inside T. Each certificate matrix holds core columns through one
    # top element, and its two longest share a lead that no other reaches.
    m = cycle_matroid(fixture("g1"))
    row = {}
    for b in m.bases():
        row[b] = sum(c.bit_length() == b.bit_length() for c in row)
    packed: dict[int, set[int]] = {}  # top -> the packed columns through it
    for t in {t for ts in _cores(m).values() for t in ts}:
        col = sum(1 << row[t ^ (1 << e)] for e in bits(t) if t ^ (1 << e) in row)
        packed.setdefault(t.bit_length(), set()).add(col)
    matrices = []
    gf2_rank = complexes.gf2_rank
    monkeypatch.setattr(complexes, "gf2_rank", lambda cols: matrices.append(cols) or gf2_rank(cols))
    hochster_betti(m)
    assert len(matrices) == 36
    for cols in matrices:
        assert any(set(cols) <= block for block in packed.values())
        lengths = [0, *sorted(c.bit_length() for c in cols)]
        assert lengths[-1] == lengths[-2] > lengths[-3], lengths


@pytest.mark.parametrize(
    "m", [cycle_matroid(fixture("g3")), uniform(3, 6), uniform(0, 3)], ids=["g3", "U(3,6)", "rank-0"]
)
def test_fine_json_keys_list_each_sigma(m):
    table = betti(m, fine=True)
    fine = table.to_json_dict()["fine"]
    expected: dict[str, dict[str, int]] = {}
    for s, v in sorted(table.fine.items(), key=lambda item: (item[0].bit_count(), item[0])):
        expected.setdefault(str(s.bit_count() - table.rank_r), {})[",".join(map(str, bits(s)))] = v
    assert fine == expected
    assert list(fine) == list(expected)
    assert all(list(fine[i]) == list(expected[i]) for i in fine)


# -- block product ---------------------------------------------------------------


def test_block_product_on_two_triangles():
    tri = hochster_betti(uniform(2, 3))
    prod = block_product_betti([tri, tri])
    assert prod.global_ == (9, 12, 4)
    assert prod.rank_r == 4
    assert prod.n == 6
    assert prod.agrees_with(hochster_betti(two_triangles_matroid()))


def test_block_product_single_table_is_identity():
    tri = hochster_betti(uniform(2, 3))
    assert block_product_betti([tri]) is tri


def test_block_product_with_coloop_block():
    coloop = hochster_betti(uniform(1, 1))
    tri = hochster_betti(uniform(2, 3))
    prod = block_product_betti([tri, coloop])
    # A coloop shifts every degree up by one but keeps the vector.
    assert prod.global_ == (3, 2)
    assert prod.rank_r == 3
    assert prod.coarse == {(0, 3): 3, (1, 4): 2}
    assert prod.agrees_with(hochster_betti(multi_uniform([(2, 3), (1, 1)])))


def test_block_product_matches_naive_convolution():
    for m in multiblock_suite()[:8]:
        tables = [hochster_betti(b.matroid) for b in m.blocks().blocks]
        prod = block_product_betti(tables)
        assert list(prod.global_) == convolve_naive([list(t.global_) for t in tables])
        assert prod.rank_r == m.full_rank
        assert prod.n == m.n
        assert prod.agrees_with(hochster_betti(m))


def test_block_product_rejects_empty_input():
    with pytest.raises(ValueError, match="at least one"):
        block_product_betti([])


# -- closed form for circuit unions -----------------------------------------------


def test_closed_form_example_3_4_5():
    p = CycleProfile([3, 4, 5])
    assert p.sigma == (1, 12, 47, 60)
    t = cactus_betti(p)
    assert t.global_ == (60, 133, 98, 24)
    assert t.rank_r == 9
    assert t.n == 12
    assert t.degrees() == (9, 12)


def test_closed_form_matches_block_product_of_sweeps():
    for t_cycles in range(1, 5):
        for lengths in combinations_with_replacement(range(2, 7), t_cycles):
            closed = cactus_betti(CycleProfile(lengths))
            swept = block_product_betti(
                [hochster_betti(uniform(l - 1, l)) for l in lengths]
            )
            assert closed.agrees_with(swept), lengths
            assert closed.global_ == swept.global_, lengths


@pytest.mark.parametrize("lengths", [[1], [1, 3], [1, 1, 4]])
def test_closed_form_with_loops(lengths):
    # Loops contribute trailing zeros that the closed form keeps.
    closed = cactus_betti(CycleProfile(lengths))
    assert len(closed.global_) == len(lengths) + 1
    loops = sum(1 for x in lengths if x == 1)
    assert all(v == 0 for v in closed.global_[len(lengths) + 1 - loops :])
    blocks = [
        hochster_betti(uniform(0, 1) if l == 1 else uniform(l - 1, l))
        for l in lengths
    ]
    swept = block_product_betti(blocks) if len(blocks) > 1 else blocks[0]
    assert closed.agrees_with(swept)


def test_closed_form_of_no_cycle_is_the_unit_table():
    # A forest's profile is empty, and the empty block product is the unit
    # ideal on no elements: one generator in degree zero.
    t = cactus_betti(CycleProfile([]))
    assert t == BettiTable(0, 0, (1,))
    assert t.coarse == {(0, 0): 1}
    with pytest.raises(ValidationError, match=">= 1"):
        CycleProfile([0, 3])


# -- inversion --------------------------------------------------------------------


def test_invert_named_examples():
    assert invert_cactus_betti((60, 133, 98, 24), 0).lengths == (3, 4, 5)
    assert invert_cactus_betti((3, 2, 0), 0).lengths == (3,)
    assert invert_cactus_betti((3, 2, 0), 1).lengths == (1, 3)
    with pytest.raises(ValidationError, match="not a cactus Betti vector"):
        invert_cactus_betti((9, 13, 4), 0)


@pytest.mark.parametrize("lengths", [(1009,) * 6, (10**12, 10**12 + 7)])
def test_invert_large_lengths_is_fast(lengths):
    beta = cactus_betti(lengths).global_
    start = time.perf_counter()
    assert invert_cactus_betti(beta, 0).lengths == lengths
    assert time.perf_counter() - start < 1.0


def test_invert_divides_out_many_loops_at_once():
    # Each loop is a known root 1; without dividing (X - 1)^3000 out first,
    # the bisection would run on a polynomial of degree 3001.
    start = time.perf_counter()
    profile = invert_cactus_betti((3, 2), 3000)
    assert time.perf_counter() - start < 1.0
    assert profile.lengths == (1,) * 3000 + (3,)


def test_invert_roundtrip_seeded_profiles():
    rng = random.Random(1207)
    for _ in range(300):
        lengths = [
            rng.choice((1, 2, 3, rng.randint(2, 50), rng.randint(2, 10**9)))
            for _ in range(rng.randint(1, 7))
        ]
        p = CycleProfile(lengths)
        assert invert_cactus_betti(cactus_betti(p).global_, p.loops) == p, lengths


def test_invert_roundtrip_small_profiles():
    for t_cycles in range(1, 4):
        for lengths in combinations_with_replacement(range(1, 10), t_cycles):
            p = CycleProfile(lengths)
            back = invert_cactus_betti(cactus_betti(p).global_, p.loops)
            assert back == p, lengths


def test_invert_is_a_left_inverse_on_seeded_vectors():
    # Random short vectors, cactus vectors, and cactus vectors nudged by one
    # at one entry, with 0-2 loops: every answer is either a refusal or a profile whose
    # closed form gives the input back up to trailing zeros.
    rng = random.Random(SEED + 8)
    answered = refused = 0
    for k in range(3000):
        loops = rng.randint(0, 2)
        if k % 2:
            vec = [rng.randint(0, 30) for _ in range(rng.randint(1, 5))]
        else:
            lengths = [rng.randint(2, 9) for _ in range(rng.randint(1, 4))]
            vec = list(cactus_betti(lengths + [1] * loops).global_)
            if k % 4:
                vec[rng.randrange(len(vec))] += rng.choice((-1, 1))
        try:
            p = invert_cactus_betti(vec, loops)
        except ValidationError:
            refused += 1
            continue
        answered += 1
        back = cactus_betti(p).global_ if p.t else (1,)
        assert p.loops == loops, (vec, loops)
        assert back[: len(vec)] == tuple(vec)[: len(back)], (vec, loops)
        assert not any(back[len(vec) :]) and not any(vec[len(back) :]), (vec, loops)
    assert answered >= 700 and refused >= 700


def test_invert_rejects_malformed_vectors():
    with pytest.raises(ValidationError, match="negative"):
        invert_cactus_betti((3, -2), 0)
    with pytest.raises(ValidationError, match="no nonzero"):
        invert_cactus_betti((0, 0), 0)
    with pytest.raises(ValidationError, match="no nonzero"):
        invert_cactus_betti((), 0)
    with pytest.raises(ValidationError, match="sigma_0"):
        invert_cactus_betti((1, 1), 0)
    with pytest.raises(ValueError, match="loop count"):
        invert_cactus_betti((3, 2), -1)
    with pytest.raises(ValueError, match="loop count"):
        invert_cactus_betti((3, 2), True)


@pytest.mark.parametrize(
    ("build", "error"),
    [
        (lambda v: invert_cactus_betti([v, 12, 4], 0), ValueError),
        (lambda v: CycleProfile([v, 2]), ValidationError),
        (lambda v: block_weights([[v, 4]]), ValueError),
        (lambda v: WeightHierarchy((1, v)), ValidationError),
    ],
    ids=["invert_cactus_betti", "CycleProfile", "block_weights", "WeightHierarchy"],
)
@pytest.mark.parametrize("value", [9.9, 3.0, "3", True], ids=repr)
def test_public_constructors_accept_only_ints(build, error, value):
    # A float, a numeric string or a bool is refused, not truncated or parsed.
    with pytest.raises(error, match="integers"):
        build(value)


# -- dispatcher -------------------------------------------------------------------


def test_auto_algorithm_selection():
    assert resolve_algorithm(two_triangles_matroid()) == "blocks"
    assert resolve_algorithm(uniform(4, 5)) == "cactus"
    assert resolve_algorithm(cycle_matroid(fixture("g3"))) == "hochster"
    # A fine table pins auto to the sweep, the only fine producer.
    assert resolve_algorithm(two_triangles_matroid(), fine=True) == "hochster"
    with pytest.raises(ValueError, match="fine tables"):
        resolve_algorithm(uniform(2, 3), "blocks", fine=True)
    with pytest.raises(ValueError, match="unknown algorithm"):
        resolve_algorithm(uniform(2, 3), "fastest")


def test_routes_list_the_valid_algorithms_in_auto_order():
    # blocks when there are two or more blocks, cactus when every block is a
    # circuit, a loop or a coloop, hochster always; auto takes the first.
    cases = [
        (two_triangles_matroid(), ["blocks", "cactus", "hochster"]),
        (multi_uniform([(2, 3), (2, 4)]), ["blocks", "hochster"]),
        (uniform(4, 5), ["cactus", "hochster"]),
        (uniform(0, 1), ["cactus", "hochster"]),
        (cycle_matroid(fixture("g3")), ["hochster"]),
    ]
    for m, want in cases:
        assert list(BETTI_MODULE._routes(m)) == want
        assert resolve_algorithm(m) == want[0]
        for name in want:
            assert betti(m, name).agrees_with(betti(m, "hochster")), name


def test_dispatcher_routes_agree():
    m = two_triangles_matroid()
    auto = betti(m)
    assert auto.agrees_with(betti(m, "hochster"))
    assert auto.agrees_with(betti(m, "blocks"))
    assert auto.agrees_with(betti(m, "cactus"))
    c5 = uniform(4, 5)
    assert betti(c5).global_ == (5, 4)
    assert betti(c5, "cactus").agrees_with(betti(c5, "hochster"))


def test_cactus_algorithm_rejects_non_cactus():
    with pytest.raises(ValidationError, match="cactus algorithm requires"):
        betti(cycle_matroid(fixture("g1")), "cactus")


def test_cactus_algorithm_on_free_matroid():
    t = betti(uniform(3, 3), "cactus")
    assert t.global_ == (1,)
    assert t.coarse == {(0, 3): 1}
    assert t.agrees_with(betti(uniform(3, 3), "hochster"))


def test_fine_dispatch_produces_fine_table():
    t = betti(two_triangles_matroid(), fine=True)
    assert t.fine is not None
    assert t.global_ == (9, 12, 4)


# -- consistency checks and the dual distance ---------------------------------------


def test_hilbert_series_check_accepts_true_tables():
    for m in [uniform(2, 3), uniform(3, 3), two_triangles_matroid()]:
        assert hilbert_check(betti(m, "hochster"), m)


def test_hilbert_series_check_rejects_tampered_tables():
    m = uniform(2, 3)
    wrong_count = BettiTable(2, 3, (3, 3))
    assert not hilbert_check(wrong_count, m)
    # A vector running past degree n = 3 is refused, not indexed past the end.
    wrong_degree = BettiTable(2, 3, (3, 2, 1))
    assert not hilbert_check(wrong_degree, m)


def test_hilbert_check_rejects_the_true_vector_under_a_wrong_rank_or_size():
    for m in [uniform(2, 3), cycle_matroid(fixture("g3"))]:
        t = hochster_betti(m)
        assert hilbert_check(t, m)
        assert not hilbert_check(BettiTable(t.rank_r - 1, t.n, t.global_), m)
        assert not hilbert_check(BettiTable(t.rank_r + 1, t.n, t.global_), m)
        assert not hilbert_check(BettiTable(t.rank_r, t.n + 1, t.global_), m)
        assert not hilbert_check(BettiTable(t.rank_r, t.n - 1, t.global_), m)


def test_hilbert_check_asks_only_large_sets():
    # Every set of fewer than r = 9 elements is a face, so only the
    # sum of C(14, k) over k >= 9, 3,473 sets, goes to the oracle; counting
    # every face by the oracle asks about all 16,384.
    g1 = cycle_matroid(fixture("g1"))
    table = betti(g1, "hochster")
    m, evaluated = counting(g1)
    assert hilbert_check(table, m)
    assert len(evaluated) <= sum(comb(14, k) for k in range(9, 15)) == 3473
    tampered = BettiTable(9, 14, (392,) + table.global_[1:])
    assert not hilbert_check(tampered, m)


def _oracle_scan(m: Matroid) -> tuple[tuple[int, ...], list[int]]:
    """Bases and spanning counts of ``m`` from its rank oracle alone, through
    a copy that carries no edges."""
    copy, _ = counting(m)
    assert edges_of(copy) is None
    return copy.bases(), copy._spanning_counts()


def test_frontier_search_matches_the_oracle_scan():
    # 300 seeded multigraphs and the fixtures, each with all its blocks: the
    # bases (in the scan's order) and the spanning counts from the frontier
    # search equal those of the oracle scan.
    rng = random.Random(SEED + 15)
    graphs = [random_graph(rng) for _ in range(300)]
    graphs += [fixture(name) for name in ("g1", "g2", "g3", "g4")]
    graphs += [Graph(3, ((0, 0), (1, 1), (1, 1), (2, 2))), Graph(2, ())]  # r = 0
    shapes = Counter()
    for g in graphs:
        m = cycle_matroid(g)
        on_edges = {v for e in g.edges for v in e}
        shapes.update(
            loops=any(u == v for u, v in g.edges),
            parallel=len(set(map(frozenset, g.edges))) < len(g.edges),
            isolated=len(on_edges) < g.vertex_count,
            disconnected=m.full_rank < len(on_edges) - 1,
            empty=not g.edges,
        )
        for sub in (m, *(b.matroid for b in m.blocks().blocks)):
            assert edges_of(sub) is not None
            assert (sub.bases(), sub._spanning_counts()) == _oracle_scan(sub), g
    assert min(shapes[k] for k in ("loops", "parallel", "isolated", "disconnected", "empty")) >= 5
    ring = graph_matroid(12, CHORDED_RING_17)
    assert len(ring.bases()) == 3343
    assert (ring.bases(), ring._spanning_counts()) == _oracle_scan(ring)


def test_spanning_counts_give_the_matrix_tree_count():
    # s_r, counted by the frontier search without listing a basis, is the
    # number of bases; Kirchhoff's theorem counts them by a determinant. The
    # two larger rings have 307,936 and 2,087,853 bases, past listing.
    rng = random.Random(SEED + 15)
    graphs = [random_graph(rng) for _ in range(300)]
    graphs += [fixture(name) for name in ("g1", "g2", "g3", "g4")]
    graphs += [Graph(12, tuple(CHORDED_RING_17))]
    for g in graphs:
        m = cycle_matroid(g)
        assert m._spanning_counts()[m.full_rank] == matrix_tree_count(g.vertex_count, g.edges), g
    for shape, bases in (((12, 6), 5489), ((15, 10), 307_936), ((20, 10), 2_087_853)):
        m = chorded_ring(random.Random(5), *shape)
        vertices, edges = shape[0], edges_of(m)
        s = m._spanning_counts()
        assert s[m.full_rank] == matrix_tree_count(vertices, edges) == bases
        assert s[:m.full_rank] == [0] * m.full_rank and s[m.n] == 1
    for m in structure_cases("multigraphs"):
        edges = edges_of(m)
        vertices = max(map(max, edges), default=-1) + 1
        assert m._spanning_counts()[m.full_rank] == matrix_tree_count(vertices, edges)


def test_frontier_search_keeps_the_frontier_narrow():
    # Taking the edges in breadth-first order keeps at most this many
    # partitions of the live vertices alive on the 17- and 18-edge rings,
    # listing or counting; an edge order that widens the frontier fails here.
    rings = (graph_matroid(12, CHORDED_RING_17), chorded_ring(random.Random(5), 12, 6))
    for m, peak in zip(rings, (41, 40)):
        g = m._presentation
        for counts in (False, True):
            assert max(map(len, _frontier(g.ends, len(g.roots), counts))) == peak


def _uniform_sums() -> list[Matroid]:
    """Every uniform sum of the seeded suites, seeded sums of up to four parts
    (empty parts, loops and coloops among them) and restrictions of those."""
    cases = [
        m for family in ("uniform", "multiblock", "free_and_rank0")
        for m in structure_cases(family) if parts_of(m) is not None
    ]
    rng = random.Random(SEED + 18)
    for _ in range(60):
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        cases.append(multi_uniform([(rng.randint(0, k), k) for k in sizes]))
    cases += [m.restrict(rng.getrandbits(m.n)) for m in cases[-30:]]
    assert sum(len(parts_of(m)) > 1 for m in cases) >= 30
    return cases


def test_uniform_sum_spanning_counts_match_the_oracle_scan():
    # The product of one factor per part, against C(n, k) rank evaluations
    # per level on a copy without parts.
    for m in _uniform_sums():
        assert parts_of(m) is not None
        assert (m.bases(), m._spanning_counts()) == _oracle_scan(m), parts_of(m)


def test_only_graphs_and_their_restrictions_carry_edges():
    g = cycle_matroid(fixture("g3"))
    assert edges_of(g.restrict(0b100000101)) == tuple(edges_of(g)[i] for i in (0, 2, 8))
    for m in (g.dual(), direct_sum(g, g), counting(g)[0], uniform(2, 3),
              from_bases(3, [[0, 1], [0, 2]]), g.dual().restrict(0b111)):
        assert edges_of(m) is None


def test_graph_betti_and_hilbert_check_skip_the_subset_scans(monkeypatch):
    # Listing g1's bases through the oracle asks about all C(14, 9) = 2,002
    # 9-sets, and counting its spanning sets about 3,473 sets of 9 or more
    # edges. The frontier search asks none; what is left are the greedy basis,
    # the blocks and the auto choice. (The counting copies of other tests
    # still bound the scans.)
    evaluated = set()
    rank = Matroid.rank

    def recording(self, sigma):
        evaluated.add((id(self), sigma))
        return rank(self, sigma)

    monkeypatch.setattr(Matroid, "rank", recording)
    m = cycle_matroid(fixture("g1"))
    table = betti(m)
    assert hilbert_check(table, m)
    assert len(evaluated) <= 100


def test_dual_minimum_distance_small_cases():
    assert dual_min_distance(uniform(2, 3)) == 2
    assert dual_min_distance(uniform(1, 3)) == 3
    assert dual_min_distance(multi_uniform([(1, 1), (2, 3)])) == 1
    with pytest.raises(ValidationError, match="no circuits"):
        dual_min_distance(uniform(0, 4))


def test_dual_minimum_distance_stops_at_first_dependent_set():
    # Every pair of g1's dual is tested only until the first dependent one;
    # counting all C(14, 2) pairs takes 106 distinct evaluations.
    m, evaluated = counting(cycle_matroid(fixture("g1")))
    assert dual_min_distance(m) == 2
    assert len(evaluated) <= 20
    for m in structure_cases("multigraphs")[:40]:
        cocircuits = brute_circuits(m.dual())
        if cocircuits:
            assert dual_min_distance(m) == cocircuits[0].bit_count()


def test_dual_minimum_distance_takes_the_least_block_past_level_two():
    # k parallel edges and a self-loop have blocks U(1, k) and U(0, 1): no
    # dual circuit of 1 or 2 elements, and the parallel class answers k
    # from its profile. Scanning the complements doubled per edge (0.47 s at
    # k = 16), so k = 63 did not finish. The small cases, a bare direct sum
    # and sums with a graph block go against the smallest circuit of the dual.
    start = time.perf_counter()
    assert dual_min_distance(graph_matroid(2, [(0, 1)] * 63 + [(0, 0)])) == 63
    assert time.perf_counter() - start < 1.0
    cases = [graph_matroid(2, [(0, 1)] * k + [(0, 0)]) for k in range(1, 8)]
    cases += [
        direct_sum(uniform(3, 6), uniform(0, 1)),
        direct_sum(uniform(2, 6), uniform(4, 7), uniform(1, 1)),
        direct_sum(graph_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), uniform(2, 5)),
        graph_matroid(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 4)]),
    ]
    for m in cases:
        assert dual_min_distance(m) == brute_circuits(m.dual())[0].bit_count(), m


def test_dual_minimum_distance_of_uniform_sums(monkeypatch):
    # The closed form on the parts against the smallest circuit of the dual,
    # found by testing every subset. U(10, 40) is answered without listing
    # the sets of each size i, about 10^12 sets up to i = 31.
    k_subsets = BETTI_MODULE.k_subsets

    def listing(n, k):
        assert comb(n, k) <= 10_000, f"listing the C({n}, {k}) sets"
        return k_subsets(n, k)

    monkeypatch.setattr(BETTI_MODULE, "k_subsets", listing)
    for m in _uniform_sums():
        if m.full_rank and m.n <= 10:
            assert dual_min_distance(m) == brute_circuits(m.dual())[0].bit_count(), parts_of(m)
    start = time.perf_counter()
    assert dual_min_distance(uniform(10, 40)) == 31
    assert dual_min_distance(multi_uniform([(0, 5), (10, 40), (3, 4)])) == 2
    assert time.perf_counter() - start < 1.0
