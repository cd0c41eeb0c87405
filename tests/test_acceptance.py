"""Acceptance gate: one test per contracted criterion, numbered 01-11.

Heavy objects (the chorded-ring tables, the 52-matroid seeded suite and its
tables) are computed once at module scope and shared across criteria.
"""

import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from matroidbetti import (
    CycleProfile,
    GF2,
    PrimeField,
    betti,
    block_product_betti,
    block_weights,
    cactus_betti,
    cycle_matroid,
    dual_min_distance,
    fixture,
    hilbert_check,
    hochster_betti,
    invert_cactus_betti,
    multi_uniform,
    uniform,
    weight_hierarchy,
)

from oracles import (
    absolute_betti,
    convolve_naive,
    degree_of_nonredundancy,
    dual_alexander_complex,
    hilbert_global,
    induced,
    reduced_betti,
)
from util import SEED, assert_diagonal_fine, multiblock_suite

GF3 = PrimeField(3)

G_EXPECTED = {
    "g1": ((393, 1459, 2187, 1652, 628, 96), (9, 14), (3, 6, 8, 11, 14)),
    "g2": ((393, 1459, 2187, 1652, 628, 96), (9, 14), (3, 6, 9, 11, 14)),
    "g3": ((41, 92, 70, 18), (6, 9), (3, 6, 9)),
    "g4": ((39, 86, 64, 16), (6, 9), (3, 6, 9)),
}


@pytest.fixture(scope="module")
def g_data():
    out = {}
    for name in G_EXPECTED:
        m = cycle_matroid(fixture(name))
        out[name] = (m, hochster_betti(m))
    return out


@pytest.fixture(scope="module")
def suite():
    return multiblock_suite()


@pytest.fixture(scope="module")
def suite_tables(suite):
    return [(m, hochster_betti(m, fine=True)) for m in suite]


@pytest.fixture(scope="module")
def blocks_tables(suite):
    return [(m, betti(m, "blocks")) for m in suite]


@pytest.fixture(scope="module")
def cactus_results():
    out = []
    for t in range(1, 5):
        for lengths in combinations_with_replacement(range(2, 7), t):
            closed = cactus_betti(CycleProfile(lengths))
            product = block_product_betti(
                [hochster_betti(uniform(l - 1, l)) for l in lengths]
            )
            out.append((lengths, closed, product))
    return out


def test_criterion_01_chorded_ring_betti_reproduction(g_data):
    for name in ("g1", "g2"):
        _, table = g_data[name]
        expected_global, expected_degrees, _ = G_EXPECTED[name]
        assert table.global_ == expected_global, name
        assert table.degrees() == expected_degrees, name
    print("criterion 1: g1 and g2 global Betti numbers reproduced exactly")


def test_criterion_02_chorded_ring_weight_separation(g_data):
    for name in ("g1", "g2"):
        m, _ = g_data[name]
        assert weight_hierarchy(m).weights == G_EXPECTED[name][2], name
    print("criterion 2: g1/g2 weight hierarchies separate the two graphs")


def test_criterion_03_small_ring_reversal(g_data):
    for name in ("g3", "g4"):
        m, table = g_data[name]
        expected_global, expected_degrees, expected_weights = G_EXPECTED[name]
        assert table.global_ == expected_global, name
        assert table.degrees() == expected_degrees, name
        assert weight_hierarchy(m).weights == expected_weights, name
    # The Betti tables order g3 above g4 while the hierarchies coincide.
    assert g_data["g3"][1].global_ > g_data["g4"][1].global_
    print("criterion 3: g3/g4 Betti and weight values reproduced exactly")


def test_criterion_04_dual_minimum_distance(g_data):
    assert dual_min_distance(g_data["g1"][0]) == 2
    assert dual_min_distance(g_data["g2"][0]) == 2
    print("criterion 4: dual minimum distance is 2 for g1 and g2")


def test_criterion_05_block_oracle_equivalence(suite, suite_tables, blocks_tables):
    assert len(suite) >= 50
    for (m, swept), (m2, product) in zip(suite_tables, blocks_tables):
        assert m is m2
        assert m.n <= 10
        assert len(m.blocks().blocks) >= 2
        assert product.coarse == swept.coarse, (m.provenance, m.n)
        assert product.agrees_with(swept)
    print(f"criterion 5: blocks == hochster on {len(suite)} seeded matroids")


def test_criterion_06_closed_form_oracle_equivalence(cactus_results):
    assert len(cactus_results) == 125
    for lengths, closed, product in cactus_results:
        assert closed.agrees_with(product), lengths
        assert closed.global_ == product.global_, lengths
    print("criterion 6: closed form == block product on all 125 profiles")


def test_criterion_07_inversion_round_trip():
    count = 0
    for t in range(1, 6):
        for lengths in combinations_with_replacement(range(1, 10), t):
            profile = CycleProfile(lengths)
            table = cactus_betti(profile)
            back = invert_cactus_betti(table.global_, profile.loops)
            assert back == profile, lengths
            count += 1
    assert count == 2001
    print(f"criterion 7: inversion round trip exact on {count} profiles")


def test_criterion_08_nonredundancy_degree_identity(suite):
    small = [m for m in suite if m.n <= 8]
    assert len(small) >= 10
    for m in small:
        for sigma in range(1 << m.n):
            nullity = sigma.bit_count() - m.rank(sigma)
            assert degree_of_nonredundancy(m, sigma) == nullity, (m.n, bin(sigma))
    print(f"criterion 8: degree == nullity on all subsets of {len(small)} matroids")


def test_criterion_09_block_weight_composition(suite):
    for m in suite:
        per_block = [weight_hierarchy(b.matroid) for b in m.blocks().blocks]
        assert block_weights(per_block).weights == weight_hierarchy(m).weights, (
            m.provenance,
            m.n,
        )
    print(f"criterion 9: block weight composition exact on {len(suite)} matroids")


def test_criterion_10_linearity_and_field_independence(suite_tables):
    rng = random.Random(SEED + 10)
    exhaustive_count = 0
    for m, over_2 in suite_tables:
        # Keyed by sigma alone, entry sigma sits at i = |sigma| - r.
        r = m.full_rank
        levels = [0] * len(over_2.global_)
        for s, v in over_2.fine.items():
            assert s.bit_count() >= r, (m.provenance, bin(s))
            levels[s.bit_count() - r] += v
        assert tuple(levels) == over_2.global_, (m.provenance, m.n)
        over_3 = hochster_betti(m, GF3, fine=True)
        assert over_3.coarse == over_2.coarse, (m.provenance, m.n)
        assert over_3.fine == over_2.fine, (m.provenance, m.n)
        if m.n <= 8:
            # Exhaustive: sweep every (i, subset) pair; nothing may appear off
            # the diagonal |subset| = rank + i.
            assert_diagonal_fine(over_2, absolute_betti(m))
            exhaustive_count += 1
        else:
            # Sampled off-diagonal vanishing for the larger ground sets.
            V = dual_alexander_complex(m)
            for _ in range(60):
                sigma = rng.randrange(1, 1 << m.n)
                size = sigma.bit_count()
                i = rng.randint(0, m.n - r)
                if size == r + i:
                    continue
                degree = size - i - 2
                if degree < -1 or degree > size - 1:
                    continue
                assert reduced_betti(induced(V, sigma), degree) == 0, (
                    m.n,
                    bin(sigma),
                    i,
                )
    assert exhaustive_count >= 10
    print("criterion 10: linearity and GF(2) == GF(3) across the seeded suite")


def _spanning_counts(lengths):
    """Exact spanning-set counts of a disjoint union of circuits, by
    convolving per-circuit counts (a circuit of length l spans exactly when
    at least l-1 of its elements are present)."""
    return convolve_naive(
        [[comb(l, k) if k >= l - 1 else 0 for k in range(l + 1)] for l in lengths]
    )


def test_criterion_11_hilbert_cross_check(
    g_data, suite_tables, blocks_tables, cactus_results
):
    for name, (m, table) in g_data.items():
        assert hilbert_check(table, m), name
    for m, table in suite_tables:
        assert hilbert_check(table, m), (m.provenance, m.n)
    for m, table in blocks_tables:
        assert hilbert_check(table, m), (m.provenance, m.n)
    checked_by_enumeration = 0
    for lengths, closed, product in cactus_results:
        n, r = sum(lengths), sum(lengths) - len(lengths)
        expected = hilbert_global(n, r, _spanning_counts(lengths))
        assert (closed.rank_r, closed.n, closed.global_) == (r, n, expected), lengths
        assert (product.rank_r, product.n, product.global_) == (r, n, expected), lengths
        if n <= 12:
            # On moderate ground sets, tie the counts route to the direct
            # enumeration route.
            m = multi_uniform([(l - 1, l) for l in lengths])
            assert hilbert_check(closed, m), lengths
            checked_by_enumeration += 1
    assert checked_by_enumeration >= 25
    print("criterion 11: Hilbert consistency on every table from criteria 1-6")
