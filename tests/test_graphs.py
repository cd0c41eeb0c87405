"""Graphs, cycle matroids, the bundled benchmark graphs, cactus recognition,
and the seeded random cactus generator."""

import importlib
import math
import random

import pytest

from matroidbetti import (
    CycleProfile,
    Graph,
    ValidationError,
    betti,
    cactus_betti,
    cactus_weights,
    cycle_matroid,
    fixture,
    is_cactus,
    mask_of,
    uniform,
    weight_hierarchy,
)

from oracles import graph_rank
from util import SEED, random_cactus, random_graph, two_triangles

BETTI_MODULE = importlib.import_module("matroidbetti.betti")


# -- the graph container ----------------------------------------------------------


def test_graph_validation():
    g = Graph(3, ((0, 1), (1, 2), (2, 0), (0, 0), (0, 1)))
    assert g.edge_count == 5  # loops and parallel edges are fine
    with pytest.raises(ValueError, match="vertex_count"):
        Graph(0, ())
    with pytest.raises(ValueError, match="vertex_count"):
        Graph(True, ())
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError, match="pair"):
        Graph(3, ((0, 1, 2),))


def test_json_roundtrip_is_one_indexed():
    g = Graph(3, ((0, 1), (2, 2)))
    d = g.to_json_dict()
    assert d == {"vertices": 3, "edges": [[1, 2], [3, 3]]}
    assert Graph.from_json_dict(d) == g


def test_json_errors():
    with pytest.raises(ValueError, match="missing"):
        Graph.from_json_dict({"vertices": 3})
    with pytest.raises(ValueError, match="must be an int"):
        Graph.from_json_dict({"vertices": True, "edges": []})
    with pytest.raises(ValueError, match="list"):
        Graph.from_json_dict({"vertices": 3, "edges": "1 2"})
    with pytest.raises(ValueError, match="1-indexed"):
        Graph.from_json_dict({"vertices": 3, "edges": [[0, 1]]})
    with pytest.raises(ValueError, match="pair"):
        Graph.from_json_dict({"vertices": 3, "edges": [[1, 2, 3]]})


def test_edge_text_parsing():
    text = """
    # a triangle with a pendant edge
    1 2
    2 3
    3 1   # closing edge
    3 4
    """
    g = Graph.from_edge_text(text)
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 0), (2, 3))
    with pytest.raises(ValueError, match="expected 'u v'"):
        Graph.from_edge_text("1 2 3")
    with pytest.raises(ValueError, match="non-integer"):
        Graph.from_edge_text("1 x")
    with pytest.raises(ValueError, match="1-indexed"):
        Graph.from_edge_text("0 1")
    with pytest.raises(ValueError, match="empty"):
        Graph.from_edge_text("# nothing\n\n")


# -- cycle matroids -----------------------------------------------------------------


def test_cycle_matroid_triangle():
    m = cycle_matroid(Graph(3, ((0, 1), (1, 2), (2, 0))))
    assert m.provenance == "cycle_matroid"
    assert m.full_rank == 2
    assert m.circuits() == (0b111,)
    assert sorted(m.bases()) == [0b011, 0b101, 0b110]


def test_cycle_matroid_loops_and_parallels():
    m = cycle_matroid(Graph(2, ((0, 0), (0, 1), (0, 1))))
    assert m.full_rank == 1
    assert sorted(m.circuits()) == [0b001, 0b110]


def test_cycle_matroid_disconnected_rank():
    m = cycle_matroid(Graph(4, ((0, 1), (2, 3))))
    assert m.full_rank == 2  # vertices minus components


def test_cycle_matroid_matches_breadth_first_rank():
    # Every subset of 120 seeded multigraphs and of g3, against vertices
    # touched minus components. The sample must reach every shape the
    # union-find has to handle.
    rng = random.Random(SEED + 7)
    graphs = [random_graph(rng) for _ in range(120)] + [fixture("g3")]
    shapes = set()
    for g in graphs:
        m = cycle_matroid(g)
        for s in range(1 << g.edge_count):
            assert m.rank(s) == graph_rank(g.vertex_count, g.edges, s), (g, s)
        touched = {v for e in g.edges for v in e}
        if any(u == v for u, v in g.edges):
            shapes.add("loop")
        if len(set(g.edges)) < g.edge_count:
            shapes.add("parallel")
        if len(touched) < g.vertex_count:
            shapes.add("isolated")
        if len(touched) - m.full_rank > 1:  # two components with edges
            shapes.add("disconnected")
    assert {"loop", "parallel", "isolated", "disconnected"} <= shapes


# -- bundled benchmark graphs ---------------------------------------------------------


def test_fixture_shapes():
    g1, g2 = fixture("g1"), fixture("g2")
    assert (g1.vertex_count, g1.edge_count) == (10, 14)
    assert (g2.vertex_count, g2.edge_count) == (10, 14)
    assert g1.edges != g2.edges
    g3, g4 = fixture("g3"), fixture("g4")
    assert (g3.vertex_count, g3.edge_count) == (7, 9)
    assert (g4.vertex_count, g4.edge_count) == (7, 9)
    diff = set(g3.edges) ^ set(g4.edges)
    assert len(diff) == 2  # they differ in exactly one chord
    assert cycle_matroid(g1).full_rank == 9
    assert cycle_matroid(g3).full_rank == 6


def test_fixture_lookup():
    assert fixture("G1") == fixture("g1")
    with pytest.raises(ValueError, match="g1, g2, g3, g4"):
        fixture("g9")


# -- cactus recognition ----------------------------------------------------------------


def test_two_triangles_are_a_cactus():
    part = is_cactus(two_triangles())
    assert part.is_cactus
    assert part.masks("circuit", "loop") == (0b000111, 0b111000)
    assert part.masks("coloop") == ()
    assert part.masks("general") == ()
    assert part.masks("loop") == ()
    assert part.cycle_lengths() == (3, 3)


def test_tree_is_a_cactus_with_no_cycles():
    part = is_cactus(Graph(3, ((0, 1), (1, 2))))
    assert part.is_cactus
    assert part.masks("circuit", "loop") == ()
    assert set(part.masks("coloop")) == {0b01, 0b10}
    assert part.cycle_lengths() == ()


def test_loop_and_bridge():
    part = is_cactus(Graph(2, ((0, 0), (0, 1))))
    assert part.is_cactus
    assert part.masks("circuit", "loop") == (0b01,)
    assert part.masks("loop") == (0b01,)
    assert part.masks("coloop") == (0b10,)
    assert part.masks() == (0b01, 0b10)
    assert part.cycle_lengths() == (1,)


def test_chorded_ring_is_not_a_cactus():
    part = is_cactus(fixture("g1"))
    assert not part.is_cactus
    assert part.masks("general")
    with pytest.raises(ValidationError, match="cactus algorithm requires"):
        part.cycle_lengths()


def test_disconnected_graph_is_rejected():
    with pytest.raises(ValidationError, match=r"not connected.*\[3, 4\]"):
        is_cactus(Graph(4, ((0, 1),)))


# -- seeded random cacti -----------------------------------------------------------------


def test_random_cactus_is_recognized():
    rng = random.Random(SEED)
    for _ in range(10):
        cycles = rng.randint(1, 3)
        bridges = rng.randint(0, 2)
        loops = rng.randint(0, 1)
        g = random_cactus(rng, cycles, (2, 5), bridges=bridges, loops=loops)
        part = is_cactus(g)
        assert part.is_cactus
        assert len(part.masks("circuit", "loop")) == cycles + loops
        assert len(part.masks("coloop")) == bridges
        assert len(part.masks("loop")) == loops


def test_random_cactus_spanning_tree_count():
    # A cactus has exactly (product of cycle lengths) spanning trees: drop
    # one edge per cycle, keep every bridge, and loops never participate.
    rng = random.Random(SEED + 1)
    for _ in range(5):
        g = random_cactus(rng, rng.randint(1, 3), (2, 4), bridges=1, loops=1)
        lengths = is_cactus(g).cycle_lengths()
        assert len(cycle_matroid(g).bases()) == math.prod(lengths)


def test_random_cactus_routes_agree():
    # One classification, read three ways: ``is_cactus``, the route list and
    # the cactus algorithm answer alike on seeded cacti (with loops and
    # bridges), multi-block graphs and graphs that are not cacti. On a cactus
    # the closed forms match the sweep; bridges are coloops, which shift
    # degrees but not the global vector and add nothing to the weights.
    rng = random.Random(SEED + 2)
    graphs = [two_triangles(), Graph(1, ((0, 0),)), Graph(2, ((0, 1),)), fixture("g3")]
    for _ in range(6):
        graphs.append(
            random_cactus(rng, rng.randint(0, 3), (2, 4), bridges=rng.randint(0, 2),
                          loops=rng.randint(0, 2))
        )
    for _ in range(40):
        g = random_graph(rng)
        if cycle_matroid(g).full_rank == g.vertex_count - 1:  # connected
            graphs.append(g)
    seen = set()
    for g in graphs:
        part = is_cactus(g)
        m = cycle_matroid(g)
        routes = list(BETTI_MODULE._routes(m))
        assert ("cactus" in routes) == part.is_cactus, g
        seen.add((part.is_cactus, len(part.blocks) >= 2, bool(part.masks("loop")),
                  bool(part.masks("coloop"))))
        if not part.is_cactus:
            with pytest.raises(ValidationError, match="cactus algorithm requires"):
                betti(m, "cactus")
            continue
        assert betti(m, "cactus").agrees_with(betti(m, "hochster")), g
        assert betti(m).global_ == cactus_betti(part.cycle_lengths()).global_
        assert cactus_weights(part.cycle_lengths()) == weight_hierarchy(m), g
    # cactus and not, multi-block, with loops and with bridges all occur
    assert {c for c, *_ in seen} == {True, False}
    assert all(any(key[i] for key in seen) for i in (1, 2, 3)), seen


def test_random_cactus_invalid_parameters():
    rng = random.Random(SEED)
    with pytest.raises(ValueError, match="invalid"):
        random_cactus(rng, -1)
    with pytest.raises(ValueError, match="invalid"):
        random_cactus(rng, 2, (1, 3))
