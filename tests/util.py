"""Shared fixtures and helpers for the test suite: a seeded pool of
multi-block matroids (direct sums of small uniforms and graphic matroids),
seeded graph generators, matroid axiom checks, and a couple of named
graphs."""

from __future__ import annotations

import random

from matroidbetti import (
    BettiTable,
    Graph,
    Matroid,
    bits,
    cycle_matroid,
    direct_sum,
    from_bases,
    multi_uniform,
    uniform,
)
from matroidbetti.matroid import _Graph, _UniformSum

from oracles import dense_modp_rank

SEED = 20260816
SUITE_SIZE = 52


def two_triangles() -> Graph:
    """Two triangles glued at one vertex: the smallest interesting cactus."""
    return Graph(5, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)))


def random_cactus(
    rng: random.Random,
    cycles: int,
    length_range: tuple[int, int] = (2, 6),
    bridges: int = 0,
    loops: int = 0,
) -> Graph:
    """A random connected cactus with the requested number of cycles (each of
    a length drawn from ``length_range``), bridge edges and self-loops."""
    lo, hi = length_range
    if cycles < 0 or bridges < 0 or loops < 0 or lo < 2 or hi < lo:
        raise ValueError("invalid cactus parameters")
    vertices = [0]
    edges: list[tuple[int, int]] = []
    for _ in range(cycles):
        attach = rng.choice(vertices)
        length = rng.randint(lo, hi)
        ring = [attach]
        for _ in range(length - 1):
            vertices.append(len(vertices))
            ring.append(vertices[-1])
        for i in range(length):
            edges.append((ring[i], ring[(i + 1) % length]))
    for _ in range(bridges):
        attach = rng.choice(vertices)
        vertices.append(len(vertices))
        edges.append((attach, vertices[-1]))
    for _ in range(loops):
        attach = rng.choice(vertices)
        edges.append((attach, attach))
    rng.shuffle(edges)
    return Graph(len(vertices), tuple(edges))


def graph_matroid(vertices: int, edges) -> Matroid:
    return cycle_matroid(Graph(vertices, tuple(edges)))


def random_multigraph(rng: random.Random) -> Matroid:
    """The cycle matroid of ``random_graph(rng)``."""
    return cycle_matroid(random_graph(rng))


def chorded_ring(rng: random.Random, vertices: int, chords: int) -> Matroid:
    """The cycle matroid of a ``vertices``-cycle with ``chords`` distinct
    seeded chords between non-adjacent vertices: one block, not a cactus."""
    picked: set[tuple[int, int]] = set()
    while len(picked) < chords:
        a, b = sorted(rng.sample(range(vertices), 2))
        if b - a not in (1, vertices - 1):
            picked.add((a, b))
    return graph_matroid(vertices, [(i, (i + 1) % vertices) for i in range(vertices)] + sorted(picked))


def random_graph(rng: random.Random) -> Graph:
    """A seeded multigraph of up to 9 edges with loops, parallel edges and,
    being sparse, usually some bridges, isolated vertices and several
    components."""
    vertices = rng.randint(1, 6)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 9)):
        roll = rng.random()
        if roll < 0.15:
            u = rng.randrange(vertices)
            edges.append((u, u))
        elif roll < 0.3 and edges:
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.randrange(vertices), rng.randrange(vertices)))
    return Graph(vertices, tuple(edges))


def random_linear(rng: random.Random, p: int) -> Matroid:
    """The column matroid of a seeded matrix over GF(p) with up to 11
    columns and up to 5 rows; small p gives zero and parallel columns."""
    n = rng.randint(1, 11)
    rows = rng.randint(0, min(n, 5))
    cols = [[rng.randrange(p) for _ in range(rows)] for _ in range(n)]
    return Matroid(n, lambda s: dense_modp_rank([cols[e] for e in bits(s)], p))


def counting(m: Matroid) -> tuple[Matroid, set[int]]:
    """A fresh copy of ``m`` (cold cache) and the set of subsets its rank
    oracle has been asked about; a matroid caches ranks, so the set's size is
    the number of distinct evaluations."""
    evaluated: set[int] = set()

    def oracle(sigma: int) -> int:
        evaluated.add(sigma)
        return m.rank(sigma)

    return Matroid(m.n, oracle), evaluated


def edges_of(m: Matroid) -> tuple[tuple[int, int], ...] | None:
    """The edges of the graph ``m`` is presented by, or None."""
    p = m._presentation
    return p.ends if isinstance(p, _Graph) else None


def parts_of(m: Matroid) -> tuple[tuple[int, int], ...] | None:
    """The (member mask, rank) parts of the uniform sum ``m`` is presented
    by, or None."""
    p = m._presentation
    return p.parts if isinstance(p, _UniformSum) else None


def _component_pool() -> list[tuple[int, object]]:
    return [
        (1, lambda: uniform(0, 1)),  # a loop
        (1, lambda: uniform(1, 1)),  # a coloop
        (2, lambda: uniform(1, 2)),  # a parallel pair
        (3, lambda: uniform(2, 3)),
        (3, lambda: uniform(1, 3)),
        (3, lambda: graph_matroid(3, ((0, 1), (1, 2), (2, 0)))),
        (4, lambda: uniform(2, 4)),
        (4, lambda: uniform(3, 4)),
        (4, lambda: graph_matroid(4, ((0, 1), (1, 2), (2, 3), (3, 0)))),
        (5, lambda: uniform(2, 5)),
        # the diamond: a 4-cycle with one chord
        (5, lambda: graph_matroid(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))),
        # the complete graph on four vertices
        (6, lambda: graph_matroid(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))),
    ]


def random_multiblock(rng: random.Random) -> Matroid:
    """A direct sum of 2+ connected components with at most 10 elements."""
    pool = _component_pool()
    cap = rng.randint(5, 10)
    chosen = []
    size = 0
    while True:
        fits = [(n, mk) for n, mk in pool if size + n <= cap]
        if not fits or (len(chosen) >= 2 and rng.random() < 0.35):
            break
        n, mk = fits[rng.randrange(len(fits))]
        chosen.append(mk)
        size += n
    while len(chosen) < 2:
        n, mk = pool[rng.randrange(3)]  # only the size <= 2 fillers
        chosen.append(mk)
        size += n
    return direct_sum(*[mk() for mk in chosen])


def multiblock_suite() -> list[Matroid]:
    """The seeded suite: 52 matroids, each with <= 10 elements and >= 2
    connectivity blocks, mixing uniform and graphic components."""
    rng = random.Random(SEED)
    out = [
        direct_sum(uniform(0, 1), uniform(2, 3)),
        direct_sum(uniform(1, 1), uniform(0, 1), uniform(2, 3)),
        direct_sum(uniform(2, 4), uniform(1, 2)),
        multi_uniform([(2, 3), (2, 3)]),
        multi_uniform([(1, 3), (2, 3)]),
        direct_sum(uniform(1, 2), uniform(1, 2), uniform(1, 2)),
        direct_sum(
            graph_matroid(3, ((0, 1), (1, 2), (2, 0))),
            graph_matroid(4, ((0, 1), (1, 2), (2, 3), (3, 0))),
        ),
    ]
    while len(out) < SUITE_SIZE:
        out.append(random_multiblock(rng))
    return out


def structure_cases(family: str) -> list[Matroid]:
    """Seeded matroids of one family, for checking derived structure
    (circuits, weights) against its definition."""
    rng = random.Random(SEED + 53)
    if family == "multigraphs":
        return [random_multigraph(rng) for _ in range(120)]
    if family == "uniform":
        return [uniform(r, n) for n in range(9) for r in range(n + 1)]
    if family == "multiblock":
        return multiblock_suite()
    if family == "from_bases":
        cases = [random_multigraph(rng) for _ in range(20)] + multiblock_suite()[::5]
        return [from_bases(m.n, [list(bits(b)) for b in m.bases()]) for m in cases]
    if family == "free_and_rank0":
        return [uniform(k, k) for k in range(6)] + [uniform(0, k) for k in range(1, 6)]
    p = int(family.removeprefix("gf"))
    return [random_linear(rng, p) for _ in range(25)]


STRUCTURE_FAMILIES = (
    "multigraphs", "uniform", "multiblock", "from_bases", "free_and_rank0",
    "gf2", "gf3", "gf5", "gf7",
)


def assert_diagonal_fine(table: BettiTable, fine: dict[tuple[int, int], int]) -> None:
    """Check a sweep's table against an exhaustive fine map keyed (i, sigma)
    (as from ``oracles.absolute_betti``): every key has |sigma| = rank + i, so
    nothing lies off the diagonal, the map keyed by sigma alone is the
    table's, and the sums over each level i are the global vector."""
    r = table.rank_r
    assert all(sigma.bit_count() == r + i for i, sigma in fine), sorted(fine)
    assert {sigma: v for (_, sigma), v in fine.items()} == table.fine
    sums = [0] * len(table.global_)
    for (i, _), v in fine.items():
        sums[i] += v
    assert tuple(sums) == table.global_


def rank_table(m: Matroid) -> dict[int, int]:
    return {s: m.rank(s) for s in range(1 << m.n)}


def assert_rank_axioms(m: Matroid, rng: random.Random, samples: int = 200) -> None:
    """Normalization, unit growth, monotonicity and submodularity, either
    exhaustively (small ground sets) or on seeded samples."""
    n = m.n
    full = (1 << n) - 1
    assert m.rank(0) == 0
    if n <= 4:
        pairs = [(a, b) for a in range(1 << n) for b in range(1 << n)]
    else:
        pairs = [
            (rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(samples)
        ]
    for a, b in pairs:
        ra, rb = m.rank(a), m.rank(b)
        assert 0 <= ra <= a.bit_count()
        assert m.rank(a | b) + m.rank(a & b) <= ra + rb, (
            f"submodularity fails at {a:#x}, {b:#x}"
        )
        if a & b == a:
            assert ra <= rb, f"monotonicity fails at {a:#x} <= {b:#x}"
    subsets = range(1 << n) if n <= 10 else [rng.randrange(1 << n) for _ in range(samples)]
    for s in subsets:
        rs = m.rank(s)
        for e in range(n):
            if not s & (1 << e):
                grown = m.rank(s | (1 << e))
                assert grown in (rs, rs + 1), f"unit growth fails at {s:#x} + {e}"
    assert m.rank(full) == m.full_rank
