"""Seeded workloads: the items each pass sends to the CLI, with their answers.

An item is one CLI invocation (``argv``, always with ``--output json``) and a
closure that computes its expected answer from ``reference``. Only the
generated inputs reach the library. The seed fixes every random choice; the
sizes are stratified, so every seed draws the same number of items of each
shape and size and only the placements (chords, cycle lengths, attachment
points, edge order, uniform ranks) change.

Why each workload exists:

* ``sweep-gf2``: the paper's default path. ``auto`` resolves to the Hochster
  sweep over GF(2); most time goes to the sweep itself, ``complexes`` face
  tests and ``matroid`` rank calls. The uniform inputs hit the
  complete-skeleton shortcut in ``boundary_rank`` and the ``--fine`` items
  give CLI rendering a measurable share.
* ``sweep-odd``: the same sweep over GF(3) and GF(5), where the dense
  odd-prime elimination ``linalg.modp_rank`` dominates. GF(3) cost grows much
  faster with size than GF(2), so inputs stay at 12 edges or fewer.
* ``structure``: work outside the homology sweep: circuit enumeration and the
  graph rank oracle behind ``blocks``, cactus recognition, weight routes,
  block and closed-form convolution and ``invert`` trial division. Sweep or
  ``linalg`` changes should leave it unchanged. The ``invert`` items are
  sized so the trial-division cost shows (0.06 to 0.6 s each). The case
  that does not finish (six cycles of length 1009) is left to a regression
  test in the library's suite (ROADMAP open item 4): one such item would
  stall the pass.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

import reference as ref

DEFAULT_SEED = 1
# Expected answers for DEFAULT_SEED; rewrite with ``python3 perfbench/workloads.py``.
REFERENCE_FILE = Path(__file__).resolve().parent / f"reference_seed{DEFAULT_SEED}.json"

FIXTURES = {
    "g1": (10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                (8, 9), (9, 0), (0, 2), (0, 5), (0, 8), (8, 6)]),
    "g2": (10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
                (8, 9), (9, 0), (0, 3), (0, 4), (0, 8), (8, 6)]),
    "g3": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (0, 5)]),
    "g4": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 2), (0, 5)]),
}

# Strata. Each seed draws the same number of inputs of each shape, and the
# counts are chosen so that the median and the tail percentile of item time
# fall inside a group of similar items rather than on a gap between groups.
# Chorded rings: (vertices, chords, plain copies, --fine copies) over GF(2),
# and (vertices, chords, copies per field) over GF(3) and GF(5).
GF2_RINGS = [(7, 3, 2, 1), (8, 3, 8, 1), (8, 4, 2, 0), (9, 4, 4, 0), (10, 4, 1, 0)]
ODD_RINGS = [(6, 3, 1), (7, 3, 2), (8, 3, 5), (9, 3, 2), (8, 4, 2)]
# Median spanning-tree count of a random chorded ring, per (vertices, chords),
# from 200 draws. The sweep's work tracks this count closely (over 14
# placements of 8 vertices and 4 chords, GF(3) elimination work had
# correlation -0.94 with it and varied by 17%), so rings are redrawn until
# their count is within 5% of the median: seeds change the graphs, not the work.
SPANNING_TREES = {(6, 3): 64, (7, 3): 88, (8, 3): 118, (9, 3): 164, (8, 4): 254,
                  (9, 4): 360, (10, 4): 478}
# Cacti: (edges, cycles, bridges, loops, copies).
CACTI = [(10, 3, 1, 1, 1), (12, 3, 1, 1, 3), (14, 4, 1, 1, 1), (16, 4, 2, 1, 1)]
# Two rings glued at a cut vertex, each given as (vertices, chords).
GLUED = [((5, 1), (6, 2)), ((6, 2), (6, 1))]
# Block sizes of the multi-uniform sums.
SUMS = [[3, 4, 5], [2, 3, 4]]
# Cactus vectors to invert: (cycles, product of the lengths, copies). Trial
# division costs about the square root of the product, so fixing the product
# fixes the cost while the lengths vary.
INVERT = [(4, 2e11, 2), (5, 2e12, 2), (6, 1.5e13, 5)]


class Item:
    __slots__ = ("id", "argv", "want", "expect")

    def __init__(self, id: str, argv: list[str], want: Callable[[], dict]):
        self.id = id
        self.argv = argv + ["--output", "json"]
        self.want = want
        self.expect: dict | None = None


class Workload:
    """The items of one workload for one seed, plus what the generator must
    guarantee about them (checked against the library by ``guarantee``)."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.rng = random.Random(f"{name}/{seed}")
        self.items: list[Item] = []
        self.hochster_graphs: list[tuple[int, list]] = []
        self.cactus_graphs: list[tuple[int, list]] = []
        self.multiblock_graphs: list[tuple[int, list]] = []

    def add(self, id: str, argv: list[str], want: Callable[[], dict]) -> None:
        self.items.append(Item(id, argv, want))


def _graph_json(vertices: int, edges) -> str:
    return json.dumps({"vertices": vertices, "edges": [[u + 1, v + 1] for u, v in edges]})


def chorded_ring(rng: random.Random, vertices: int, chords: int) -> list[tuple[int, int]]:
    """A cycle on ``vertices`` plus distinct chords between non-adjacent
    vertices: 2-connected and not a circuit, so one block, not a cactus."""
    picked: set[tuple[int, int]] = set()
    while len(picked) < chords:
        a, b = sorted(rng.sample(range(vertices), 2))
        if b - a not in (1, vertices - 1):
            picked.add((a, b))
    return [(i, (i + 1) % vertices) for i in range(vertices)] + sorted(picked)


def typical_ring(rng: random.Random, vertices: int, chords: int) -> list[tuple[int, int]]:
    """A chorded ring whose spanning-tree count is within 5% of the median
    for its size (see ``SPANNING_TREES``)."""
    target = SPANNING_TREES[vertices, chords]
    while True:
        edges = chorded_ring(rng, vertices, chords)
        if abs(ref.spanning_trees(vertices, edges) - target) <= 0.05 * target:
            return edges


def _composition(rng: random.Random, total: int, parts: int, low: int) -> list[int]:
    sizes = [low] * parts
    for _ in range(total - low * parts):
        sizes[rng.randrange(parts)] += 1
    return sizes


def cactus(rng: random.Random, n: int, cycles: int, bridges: int, loops: int):
    """A connected cactus with exactly ``n`` edges in shuffled order.

    Returns the vertex count, the edges and, per edge position, a group tag:
    ``("cycle", j)``, ``("bridge", j)`` or ``("loop", j)``.
    """
    lengths = _composition(rng, n - bridges - loops, cycles, 2)
    vertex_count = 1
    tagged = []
    for j, m in enumerate(lengths):
        ring = [rng.randrange(vertex_count)] + list(range(vertex_count, vertex_count + m - 1))
        vertex_count += m - 1
        tagged += [((ring[i], ring[(i + 1) % m]), ("cycle", j)) for i in range(m)]
    for j in range(bridges):
        tagged.append(((rng.randrange(vertex_count), vertex_count), ("bridge", j)))
        vertex_count += 1
    for j in range(loops):
        v = rng.randrange(vertex_count)
        tagged.append(((v, v), ("loop", j)))
    rng.shuffle(tagged)
    return vertex_count, [e for e, _ in tagged], [t for _, t in tagged]


def glued_rings(rng: random.Random, a: tuple[int, int], b: tuple[int, int]):
    """Two chorded rings sharing one cut vertex, edges shuffled; returns the
    vertex count, the edges and the ring (0 or 1) of each edge position."""
    ea = chorded_ring(rng, *a)
    eb = chorded_ring(rng, *b)
    shift = a[0] - 1

    def relabel(v: int) -> int:
        return 0 if v == 0 else v + shift

    tagged = [(e, 0) for e in ea] + [((relabel(u), relabel(v)), 1) for u, v in eb]
    rng.shuffle(tagged)
    return a[0] + b[0] - 1, [e for e, _ in tagged], [t for _, t in tagged]


def _groups(tags) -> dict:
    out: dict = {}
    for pos, tag in enumerate(tags):
        out.setdefault(tag, []).append(pos)
    return out


# -- sweep-gf2 and sweep-odd ---------------------------------------------------


def _betti_item(w: Workload, id: str, vertices: int, edges, field: int = 2,
                fine: bool = False, source: str | None = None) -> None:
    argv = ["betti", "--input", source or _graph_json(vertices, edges)]
    if field != 2:
        argv += ["--field", str(field)]
    if fine:
        argv.append("--fine")
    w.add(id, argv, lambda: {
        "exit": 0, "kind": "betti",
        "table": ref.euler_betti(len(edges), ref.graph_rank(vertices, edges), fine),
    })


def build_sweep_gf2(w: Workload) -> None:
    for name in ("g1", "g2", "g3", "g4"):
        _betti_item(w, name, *FIXTURES[name], source=name)
    for name in ("g3", "g4"):
        _betti_item(w, f"{name}-fine", *FIXTURES[name], fine=True, source=name)
    for v, c, plain, fine in GF2_RINGS:
        for copy in range(plain + fine):
            edges = typical_ring(w.rng, v, c)
            w.hochster_graphs.append((v, edges))
            _betti_item(w, f"ring{v}+{c}-{copy}", v, edges, fine=copy >= plain)
    # Middle ranks: the cost of U(r, n) is flat there, so seeds differ little.
    for n in (8, 10, 12):
        for copy in range(2):
            _uniform_item(w, f"u{n}-{copy}", w.rng.randint(n // 2 - 2, n // 2), n)
    _uniform_item(w, "u10-fine", w.rng.randint(3, 5), 10, fine=True)
    w.add("verify-paper", ["verify-paper"],
          lambda: {"exit": 0, "kind": "verify-paper", "min_checks": 37})


def _uniform_item(w: Workload, id: str, r: int, n: int, fine: bool = False) -> None:
    argv = ["betti", "--input", json.dumps({"uniform": [r, n]})]
    if fine:
        argv.append("--fine")
    w.add(id, argv, lambda: {
        "exit": 0, "kind": "betti", "table": ref.euler_betti(n, ref.uniform_rank(r), fine),
    })


def build_sweep_odd(w: Workload) -> None:
    for name in ("g3", "g4"):
        for field in (3, 5):
            _betti_item(w, f"{name}-gf{field}", *FIXTURES[name], field=field, source=name)
    for v, c, copies in ODD_RINGS:
        for field in (3, 5):
            for copy in range(copies):
                edges = typical_ring(w.rng, v, c)
                w.hochster_graphs.append((v, edges))
                _betti_item(w, f"ring{v}+{c}-gf{field}-{copy}", v, edges, field=field)


# -- structure -----------------------------------------------------------------


def _structure_graph(w: Workload, id: str, vertices: int, edges, blocks: list,
                     is_cactus: bool, table: Callable[[], dict], d: Callable[[], list],
                     profile: list[int] | None = None) -> None:
    """The five per-graph commands: betti, blocks, cactus, weights, dual-d1.

    ``blocks`` lists each block as (element positions, kind)."""
    source = _graph_json(vertices, edges)
    w.add(f"{id}-betti", ["betti", "--input", source],
          lambda: {"exit": 0, "kind": "betti", "table": table()})
    w.add(f"{id}-blocks", ["blocks", "--input", source],
          lambda: {"exit": 0, "kind": "blocks", "blocks": sorted([e, k] for e, k in blocks)})
    if is_cactus:
        want_cactus = lambda: {"exit": 0, "kind": "cactus", "is_cactus": True,
                               "profile": sorted(profile), "d": d(), "table": table()}
    else:
        want_cactus = lambda: {"exit": 0, "kind": "cactus", "is_cactus": False,
                               "offending": sorted(e for e, k in blocks if k == "general")}
    w.add(f"{id}-cactus", ["cactus", "--input", source], want_cactus)
    w.add(f"{id}-weights", ["weights", "--input", source, "--crosscheck"],
          lambda: {"exit": 0, "kind": "weights", "d": d()})
    w.add(f"{id}-d1", ["dual-d1", "--input", source],
          lambda: {"exit": 0, "kind": "dual-d1",
                   "d1": ref.dual_d1(len(edges), ref.graph_rank(vertices, edges))})


def _add_cactus(w: Workload, id: str, n: int, cycles: int, bridges: int, loops: int) -> None:
    vertices, edges, tags = cactus(w.rng, n, cycles, bridges, loops)
    w.cactus_graphs.append((vertices, edges))
    kinds = {"cycle": "circuit", "bridge": "coloop", "loop": "loop"}
    groups = _groups(tags).items()
    blocks = [(pos, kinds[tag[0]]) for tag, pos in groups]
    lengths = [len(pos) for tag, pos in groups if tag[0] != "bridge"]
    _structure_graph(
        w, id, vertices, edges, blocks, True,
        table=lambda: ref.cactus_table(lengths, bridges),
        d=lambda: ref.cactus_weights(lengths), profile=lengths,
    )


def _add_glued(w: Workload, a: tuple[int, int], b: tuple[int, int], index: int) -> None:
    vertices, edges, tags = glued_rings(w.rng, a, b)
    w.multiblock_graphs.append((vertices, edges))
    parts = []
    for ring in (0, 1):
        positions = [p for p, t in enumerate(tags) if t == ring]
        sub = [edges[p] for p in positions]
        used = sorted({v for e in sub for v in e})
        index_of = {v: i for i, v in enumerate(used)}
        parts.append((positions, len(used), [(index_of[u], index_of[v]) for u, v in sub]))
    blocks = [(pos, "general") for pos, _, _ in parts]
    id = f"glued{index}"
    _structure_graph(
        w, id, vertices, edges, blocks, False,
        table=lambda: ref.sum_table([ref.euler_betti(len(e), ref.graph_rank(v, e))
                                     for _, v, e in parts]),
        d=lambda: ref.min_plus([ref.weights(len(e), ref.graph_rank(v, e))
                                for _, v, e in parts]),
    )
    if index == 0:
        w.add(f"{id}-cactus-route",
              ["betti", "--input", _graph_json(vertices, edges), "--algorithm", "cactus"],
              lambda: {"exit": 2, "kind": "betti"})


def _add_multi_uniform(w: Workload, sizes: list[int], index: int) -> None:
    pairs = [[w.rng.randint(1, n - 1) if n <= 3 else w.rng.randint(2, n - 2), n]
             for n in w.rng.sample(sizes, len(sizes))]
    source = json.dumps({"blocks": pairs})
    total = sum(n for _, n in pairs)
    blocks, start = [], 0
    for r, n in pairs:
        blocks.append([list(range(start, start + n)), "circuit" if r == n - 1 else "general"])
        start += n

    def rank(mask: int) -> int:
        out, shift = 0, 0
        for r, n in pairs:
            out += min(r, (mask >> shift & ((1 << n) - 1)).bit_count())
            shift += n
        return out

    id = f"blocks{index}"
    w.add(f"{id}-betti", ["betti", "--input", source],
          lambda: {"exit": 0, "kind": "betti",
                   "table": ref.sum_table([ref.uniform_table(r, n) for r, n in pairs])})
    w.add(f"{id}-blocks", ["blocks", "--input", source],
          lambda: {"exit": 0, "kind": "blocks", "blocks": sorted(blocks)})
    w.add(f"{id}-weights", ["weights", "--input", source, "--crosscheck"],
          lambda: {"exit": 0, "kind": "weights",
                   "d": ref.min_plus([[r + i for i in range(1, n - r + 1)] for r, n in pairs])})
    w.add(f"{id}-d1", ["dual-d1", "--input", source],
          lambda: {"exit": 0, "kind": "dual-d1", "d1": ref.dual_d1(total, rank)})


def _invert_item(w: Workload, id: str, lengths: list[int], loops: int = 0,
                 perturb: bool = False) -> None:
    vec = ref.cactus_table(lengths + [1] * loops, 0)["global"]
    if perturb:
        # Raising the last entry moves sigma_0 off 1: no cactus has this vector.
        vec[-1] += 1
        if ref.cactus_sigma(vec, loops) is not None:
            raise RuntimeError(f"perturbed vector {vec} still inverts")
    argv = ["invert", "--betti", ",".join(map(str, vec)), "--loops", str(loops)]
    if perturb:
        w.add(id, argv, lambda: {"exit": 2, "kind": "invert"})
    else:
        w.add(id, argv, lambda: {"exit": 0, "kind": "invert",
                                 "lengths": sorted(lengths + [1] * loops), "roundtrip": vec})


def _lengths_with_product(rng: random.Random, t: int, product: float) -> list[int]:
    typical = product ** (1 / t)
    lengths = [rng.randint(int(typical * 0.8), int(typical * 1.25)) for _ in range(t - 1)]
    prefix = 1
    for m in lengths:
        prefix *= m
    return lengths + [max(2, round(product / prefix))]


def build_structure(w: Workload) -> None:
    for n, cycles, bridges, loops, copies in CACTI:
        for copy in range(copies):
            _add_cactus(w, f"cactus{n}-{copy}", n, cycles, bridges, loops)
    first = w.items[0]  # betti of the first cactus
    w.add(f"{first.id}-cactus-route", ["betti", "--input", first.argv[2], "--algorithm", "cactus"],
          first.want)
    for index, (a, b) in enumerate(GLUED):
        _add_glued(w, a, b, index)
    for index, sizes in enumerate(SUMS):
        _add_multi_uniform(w, sizes, index)
    for t, product, copies in INVERT:
        for copy in range(copies):
            _invert_item(w, f"invert{t}-{copy}", _lengths_with_product(w.rng, t, product))
    _invert_item(w, "invert-loop", _lengths_with_product(w.rng, 4, 2e11), loops=1)
    _invert_item(w, "invert-none", _lengths_with_product(w.rng, 4, 2e11), perturb=True)
    _invert_item(w, "invert-none-loop", [w.rng.randint(2, 30) for _ in range(3)],
                 loops=1, perturb=True)
    # Documented non-zero exits: 1 for malformed input, 2 for a contract
    # violation.
    for id, argv, code in (
        ("malformed-uniform", ["betti", "--input", '{"uniform": [5, 3]}'], 1),
        ("field-not-prime", ["betti", "--input", "g3", "--field", "4"], 1),
        ("cactus-of-uniform", ["cactus", "--input", '{"uniform": [2, 3]}'], 1),
        ("cactus-route-on-uniform", ["betti", "--input", '{"blocks": [[2, 4], [2, 3]]}',
                                     "--algorithm", "cactus"], 2),
        ("invert-negative", ["invert", "--betti", "3,-1", "--loops", "0"], 2),
    ):
        w.add(id, argv, lambda code=code, kind=argv[0]: {"exit": code, "kind": kind})


BUILDERS = {
    "sweep-gf2": build_sweep_gf2,
    "sweep-odd": build_sweep_odd,
    "structure": build_structure,
}


def generate(name: str, seed: int) -> Workload:
    """The items of workload ``name`` for ``seed``, in their seeded order."""
    w = Workload(name, seed)
    BUILDERS[name](w)
    w.rng.shuffle(w.items)
    return w


def guarantee(w: Workload, lib, after_each: Callable[[], None]) -> None:
    """Check, against the library, that every generated input has the shape
    its workload relies on, calling ``after_each`` after each input. ``lib``
    is the imported ``matroidbetti`` package."""
    for vertices, edges in w.hochster_graphs:
        m = lib.cycle_matroid(lib.Graph(vertices, tuple(edges)))
        if lib.resolve_algorithm(m) != "hochster":
            raise RuntimeError(f"{w.name}: chorded ring {edges} does not resolve to hochster")
        after_each()
    for vertices, edges in w.cactus_graphs:
        if not lib.is_cactus(lib.Graph(vertices, tuple(edges))).is_cactus:
            raise RuntimeError(f"{w.name}: generated cactus {edges} is not a cactus")
        after_each()
    for vertices, edges in w.multiblock_graphs:
        m = lib.cycle_matroid(lib.Graph(vertices, tuple(edges)))
        if len(m.blocks().blocks) < 2:
            raise RuntimeError(f"{w.name}: glued graph {edges} has fewer than 2 blocks")
        after_each()


if __name__ == "__main__":
    answers = {}
    for name in BUILDERS:
        answers[name] = {item.id: item.want() for item in generate(name, DEFAULT_SEED).items}
    REFERENCE_FILE.write_text(json.dumps(answers, sort_keys=True, separators=(",", ":")) + "\n")
