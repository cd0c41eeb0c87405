"""Matroids on a ground set of at most 64 elements, given by rank oracles.

A matroid is stored as its rank function on subsets (bit masks). A matroid
built from a presentation keeps it in the private ``_presentation`` slot,
takes the presentation's own rank as its oracle (``_presented`` builds every
such matroid), and answers its structural queries (the greedy basis,
fundamental circuits, closures of a graph, the basis list and the size-rank
table, the product of its blocks' tables, which holds the spanning counts)
from it without the oracle:

* ``_Graph``: the edges of a graph (``graphs.cycle_matroid``), as pairs of
  vertex indices; bases and the size-rank table by the frontier search
  ``_frontier``, the rest by ``_union``;
* ``_UniformSum``: the (member mask, rank) pairs of a uniform sum
  (``uniform``, ``multi_uniform``), each mask a run of consecutive elements,
  in ascending order, read by ``_uniform_profile``, the one uniform test
  behind every closed form.

``restrict`` restricts the presentation, so a presented restriction ranks by
its own presentation, not through its matroid. ``from_bases`` fills the cache
``_bases`` of ``bases()`` with the sorted list it was given. Every other
matroid (``dual``, ``direct_sum``, ``Matroid(n, rank_fn)``) derives all of it
from the oracle, and so do circuits past the fundamental ones. Instances are
immutable; rank values, bases, circuits, the block partition and the
size-rank table are cached on first use.

Blocks are the classes of the connectivity relation: two elements are
related when some circuit contains both. They are found without listing the
circuits. Fix one basis B; for e outside B the fundamental circuit of e is e
together with every b in B for which B - b + e is again a basis. The blocks
of the matroid are the connected components of the graph that joins each
such e to those b (the fundamental graph), so about n + (n - r) * r rank
evaluations decide them, and none on a graph or a uniform sum. Loops and
coloops lie on no edge of that graph and come out as singleton blocks.
``Block.kind`` names what a block is: a loop, a coloop, a circuit, or none
of these; ``BlockPartition`` groups the blocks by kind, which is all that
cactus recognition and its closed forms read.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import comb
from typing import Any, Callable, Iterable, Iterator, Sequence

from .bitset import bits, check_ground, check_subset, k_subsets, mask_of
from .errors import ValidationError

Provenance = str  # "cycle_matroid" | "uniform" | "multi_uniform" | "explicit_bases"
#                 | "dual_of" | "restriction_of" | "direct_sum" | "explicit"
SizeRank = dict[tuple[int, int], int]  # (k, rho) -> the number of k-sets of rank rho


class Matroid:
    """A matroid presented by its rank oracle."""

    __slots__ = (
        "n", "provenance", "labels", "_rank_fn", "_cache", "_full", "_bases", "_circuits",
        "_blocks", "_presentation", "_table",
    )

    def __init__(
        self,
        n: int,
        rank_fn: Callable[[int], int],
        provenance: Provenance = "explicit",
        labels: tuple[int, ...] | None = None,
    ):
        check_ground(n)
        self.n = n
        self.provenance = provenance
        self.labels = labels
        self._rank_fn = rank_fn
        self._cache: dict[int, int] = {}
        self._full: int | None = None
        self._bases: tuple[int, ...] | None = None
        self._circuits: tuple[int, ...] | None = None
        self._blocks: BlockPartition | None = None
        self._presentation: _Graph | _UniformSum | None = None
        self._table: SizeRank | None | bool = False  # False until _size_rank builds it

    # -- rank oracle -------------------------------------------------------

    def rank(self, sigma: int) -> int:
        """Rank of the subset encoded by ``sigma``."""
        check_subset(sigma, self.n)
        r = self._cache.get(sigma)
        if r is None:
            r = self._rank_fn(sigma)
            self._cache[sigma] = r
        return r

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def full_rank(self) -> int:
        if self._full is None:
            self._full = self.rank(self.full_mask)
        return self._full

    # -- derived data ------------------------------------------------------

    def greedy_basis(self) -> int:
        """The basis found by scanning the elements in order and keeping each
        one that raises the rank of those kept so far: on a graph the forest
        of one union-find pass, on a uniform sum the lowest r_j members of
        each part, else by the oracle. On an oracle that is not a matroid rank
        function the result may fall short of full_rank."""
        if self._presentation is not None:
            return self._presentation.greedy_basis()
        basis = 0
        for e in range(self.n):
            if self.rank(basis | (1 << e)) > self.rank(basis):
                basis |= 1 << e
        return basis

    def bases(self) -> tuple[int, ...]:
        """All maximal independent sets, ascending by bit-vector value: on a
        graph the spanning forests that a frontier search over its edges
        lists (``_frontier``), as the product of each part's r_j-sets on a
        uniform sum, else from C(n, r) ranks (``from_bases`` keeps its
        list)."""
        if self._bases is None:
            if self._presentation is not None:
                self._bases = self._presentation.bases()
            else:
                r = self.full_rank
                self._bases = tuple(s for s in k_subsets(self.n, r) if self.rank(s) == r)
        return self._bases

    def circuits(self) -> tuple[int, ...]:
        """All minimal dependent sets, ordered by cardinality then mask value.

        The list starts from the fundamental circuits of the greedy basis and
        is closed under circuit elimination: for circuits C1 != C2 and e in
        both, (C1 | C2) - e is dependent, and when no known circuit lies
        inside it, it is shrunk to a new circuit by dropping every element
        whose removal keeps it dependent. A list that holds the fundamental
        circuits of a basis and meets every such pair with a circuit inside
        (C1 | C2) - e is the whole circuit family (Khachiyan, Boros,
        Elbassioni, Gurvich and Makino, "On the complexity of some
        enumeration problems for matroids", SIAM J. Discrete Math. 19, 2005).

        The closure costs about the cube of the number of circuits, which is
        large on dense matroids (U(6, 12) has 792). Its work is therefore
        bounded by the work of the definition-based scan, which visits the
        sets of at most full_rank + 1 elements, each at the cost of a rank
        evaluation or more; past that bound the scan runs instead. A rank
        evaluation while shrinking counts one unit and a containment test,
        one ``&`` of two ints, a quarter unit.
        """
        if self._circuits is None:
            n, r = self.n, self.full_rank
            budget = 4 * sum(comb(n, k) for k in range(1, min(n, r + 1) + 1))
            found = self._eliminate(budget)
            if found is None:
                found = self._scan_circuits()
            self._circuits = tuple(sorted(found, key=lambda c: (c.bit_count(), c)))
        return self._circuits

    def _fundamental_circuits(self) -> list[int]:
        """The fundamental circuit of each element e outside the greedy basis
        B, ascending by e: e together with every b in B for which B - b + e
        is a basis. On a graph that is e and the forest path between its
        ends; on a uniform sum, e and the basis within e's part."""
        basis = self.greedy_basis()
        if self._presentation is not None:
            return self._presentation.fundamental_circuits(basis)
        r = basis.bit_count()
        out = []
        for e in bits(self.full_mask ^ basis):
            c = 1 << e
            for b in bits(basis):
                if self.rank((basis ^ (1 << b)) | (1 << e)) == r:
                    c |= 1 << b
            out.append(c)
        return out

    def _closure(self, x: int) -> tuple[int, int]:
        """The closure of ``x`` (every element whose addition keeps the rank)
        and its rank. On a graph: the edges whose ends the edges of x join. A
        uniform sum takes the oracle path: only the cyclic flats of
        ``weights`` ask for closures, and its weights come from its parts."""
        if isinstance(self._presentation, _Graph):
            return self._presentation.closure(x)
        rx = self.rank(x)
        if rx == self.full_rank:  # a spanning set closes to E, with no more queries
            return self.full_mask, rx
        for e in bits(self.full_mask ^ x):
            if self.rank(x | (1 << e)) == rx:
                x |= 1 << e
        return x, rx

    def _spanning_counts(self) -> list[int]:
        """s_0 .. s_n, s_k the number of spanning k-sets: N(k, r), read off the
        size-rank table (``_size_rank``); without a presentation, from the
        ranks of the sets of r or more elements (no smaller set spans); on a
        graph past ``FRONTIER_BUDGET``, ValidationError instead of that scan."""
        n, r = self.n, self.full_rank
        table = self._size_rank()
        if table is not None:
            return [table.get((k, r), 0) for k in range(n + 1)]
        if self._presentation is not None:
            sets = sum(comb(n, k) for k in range(r, n + 1))
            raise ValidationError(
                f"the size-rank table of this graph passes the frontier budget of "
                f"{FRONTIER_BUDGET:,} bits; the spanning counts would rank {sets:,} sets"
            )
        return [0] * r + [sum(self.rank(s) == r for s in k_subsets(n, k)) for k in range(r, n + 1)]

    def _size_rank(self) -> SizeRank | None:
        """N(k, rho), the number of k-sets of rank rho, for each nonzero one,
        built once and kept: a uniform sum's or a single block's by its
        presentation (a graph's by the frontier search, None past
        ``FRONTIER_BUDGET``), else the product of the blocks' kept tables."""
        if self._table is False:
            p = self._presentation
            blocks = self.blocks().blocks if isinstance(p, _Graph) else ()
            if len(blocks) < 2:
                self._table = None if p is None else p.size_rank()
            else:
                table: SizeRank | None = {(0, 0): 1}
                for block in blocks:
                    bm = block.matroid
                    if bm._table is False:  # one block: no partition of its own needed
                        bm._table = bm._presentation.size_rank()
                    if bm._table is None:
                        table = None
                        break
                    table = _table_mul(table, bm._table)
                self._table = table
        return self._table  # type: ignore[return-value]

    def _uniform_profile(self) -> list[tuple[int, int]] | None:
        """The (r_j, k_j) of each part of a uniform sum, as ``multi_uniform``
        takes them, for the closed forms: a presented sum's parts; [(r, n)]
        when r <= 1 or n - r <= 1 and every r-set has rank r, by at most n rank
        calls, the r-sets being the singletons or their complements (a cycle,
        a parallel class, a forest, loops); else None at once, with no basis
        counted. On a graph that is exact, since U(2, 4) is not graphic."""
        p = self._presentation
        if isinstance(p, _UniformSum):
            return [(r, mask.bit_count()) for mask, r in p.parts]
        n, r = self.n, self.full_rank
        if min(r, n - r) <= 1 and all(self.rank(s) == r for s in k_subsets(n, r)):
            return [(r, n)]
        return None

    def _eliminate(self, budget: int) -> list[int] | None:
        """The circuit family by elimination from the fundamental circuits,
        or None once the work passes ``budget``, counted in quarter units: 1
        per containment test, 4 per rank evaluation."""
        found = self._fundamental_circuits()
        work = 0
        j = 0
        while j < len(found):
            for i in range(j):
                common = found[i] & found[j]
                union = found[i] | found[j]
                for e in bits(common):
                    u = union ^ (1 << e)
                    for c in found:
                        work += 1
                        if c & ~u == 0:
                            break
                    else:
                        for x in bits(u):
                            work += 4
                            smaller = u ^ (1 << x)
                            if self.rank(smaller) < smaller.bit_count():
                                u = smaller
                        found.append(u)
                    if work > budget:
                        return None
            j += 1
        return found

    def _scan_circuits(self) -> list[int]:
        """Circuits by definition: every set of at most full_rank + 1 elements
        that is dependent while each deletion of one element is independent."""
        out = []
        for k in range(1, min(self.n, self.full_rank + 1) + 1):
            for s in k_subsets(self.n, k):
                if self.rank(s) < k and all(
                    self.rank(s ^ (1 << e)) == k - 1 for e in bits(s)
                ):
                    out.append(s)
        return out

    # -- constructions on top of self ---------------------------------------

    def dual(self) -> "Matroid":
        """The dual matroid: rank*(s) = |s| + rank(complement) - rank(E)."""
        full = self.full_mask
        fr = self.full_rank

        def rank_fn(sigma: int) -> int:
            return sigma.bit_count() + self.rank(full ^ sigma) - fr

        return Matroid(self.n, rank_fn, "dual_of")

    def restrict(self, sigma: int) -> "Matroid":
        """Restriction to the subset ``sigma``, relabelled to 0..k-1.

        ``labels`` on the result maps the new indices back to the old ones.
        A presented matroid restricts its presentation: the members' edges,
        or the parts, where the j members of a U(r, k) part form a
        U(min(r, j), j) part and a part with no member is dropped. Any other
        restriction reads this matroid's oracle, not its cache.
        """
        check_subset(sigma, self.n)
        members = tuple(bits(sigma))
        if self._presentation is not None:
            p = self._presentation.restrict(sigma)
            return _presented(len(members), p, "restriction_of", members)
        parent_rank = self._rank_fn

        def rank_fn(sub: int) -> int:
            return parent_rank(sum(1 << members[i] for i in bits(sub)))

        return Matroid(len(members), rank_fn, "restriction_of", labels=members)

    def blocks(self) -> "BlockPartition":
        """Partition of the ground set into connectivity blocks.

        Elements e and f share a block exactly when e == f or some circuit
        contains both. With B the greedy basis, each e outside B is joined to
        every b in B for which B - b + e is a basis, and the blocks are the
        components of these joins (of the fundamental graph of B). Blocks are
        ordered by their smallest element and carry their restricted matroid.
        The partition is built on the first call and kept.
        """
        if self._blocks is None:
            self._blocks = BlockPartition(
                self.n, tuple(Block(m, self.restrict(m)) for m in self._block_masks())
            )
        return self._blocks

    def _block_masks(self) -> tuple[int, ...]:
        """The components of the fundamental graph: each fundamental circuit
        merges the blocks it meets, starting from one block per element."""
        masks = [1 << e for e in range(self.n)]
        for c in self._fundamental_circuits():
            masks = [b for b in masks if not b & c] + [sum(b for b in masks if b & c)]
        return tuple(sorted(masks, key=lambda m: m & -m))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank}, provenance={self.provenance!r})"


def _presented(n: int, p: "_Graph | _UniformSum", provenance: Provenance, labels=None) -> Matroid:
    """The matroid that ``p`` presents on n elements, ranked by p's own oracle."""
    m = Matroid(n, p.rank, provenance, labels)
    m._presentation = p
    return m


def _union(ends: Sequence[tuple[int, int]], parent: list[int], x: int) -> int:
    """Join the ends of each pair in ``x``, lowest first, in the union-find
    ``parent``: the pairs that joined two trees (on a graph the greedy
    spanning forest of x). It is the whole of the graph rank oracle, the
    innermost call of every sweep over graphs, so path halving is written
    out inline."""
    forest = 0
    while x:
        low = x & -x
        x ^= low
        u, v = ends[low.bit_length() - 1]
        # Targets bind left to right: parent[u] is set before u moves;
        # ``u = parent[u] = ...`` would write the wrong slot.
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            forest |= low
    return forest


class _Graph:
    """The edges of a graph, as pairs of vertex indices, and the union-find
    list of its vertices, each its own root, which every query copies. Built
    from a graph's edges, it numbers only the vertices that lie on an edge,
    in the order they first appear, so isolated vertices cost nothing; a
    restriction keeps the numbering and the list."""

    __slots__ = ("ends", "roots")

    def __init__(self, edges: Sequence[tuple[int, int]], roots: list[int] | None = None):
        if roots is None:
            index = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(edges)))}
            edges, roots = [(index[u], index[v]) for u, v in edges], list(range(len(index)))
        self.ends, self.roots = tuple(edges), roots

    def rank(self, x: int) -> int:
        return _union(self.ends, self.roots[:], x).bit_count()

    def greedy_basis(self) -> int:
        return _union(self.ends, self.roots[:], (1 << len(self.ends)) - 1)

    def bases(self) -> tuple[int, ...]:
        return tuple(sorted(self._final(False)))

    def fundamental_circuits(self, forest: int) -> list[int]:
        """The fundamental circuit of each edge outside the spanning
        ``forest``, ascending by edge: the edge and the forest path between
        its ends, found by climbing from the deeper end of each tree rooted by
        a depth-first walk."""
        edges, size = self.ends, len(self.roots)
        adjacent: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        for i in bits(forest):
            u, v = edges[i]
            adjacent[u].append((v, i))
            adjacent[v].append((u, i))
        up = [(0, 0)] * size  # (the vertex above, the edge to it)
        depth = [-1] * size
        for root in range(size):
            if depth[root] < 0:
                depth[root] = 0
                stack = [root]
                while stack:
                    u = stack.pop()
                    for v, i in adjacent[u]:
                        if depth[v] < 0:
                            depth[v] = depth[u] + 1
                            up[v] = (u, i)
                            stack.append(v)
        out = []
        for i in bits(((1 << len(edges)) - 1) ^ forest):
            u, v = edges[i]
            c = 1 << i
            while u != v:
                if depth[u] < depth[v]:
                    u, v = v, u
                u, e = up[u]
                c |= 1 << e
            out.append(c)
        return out

    def closure(self, x: int) -> tuple[int, int]:
        """x and every other edge whose ends x's forest already joins, read
        off the roots of one union-find pass over x."""
        parent = self.roots[:]
        rank = _union(self.ends, parent, x).bit_count()
        for u, v in enumerate(parent):  # point each vertex at its root
            while parent[v] != v:
                parent[u] = v = parent[v]
        rest = ((1 << len(self.ends)) - 1) ^ x
        return x | sum(1 << i for i in bits(rest) if parent[self.ends[i][0]] == parent[self.ends[i][1]]), rank

    def restrict(self, sigma: int) -> "_Graph":
        return _Graph([self.ends[i] for i in bits(sigma)], self.roots)

    def size_rank(self) -> SizeRank | None:
        """N(k, rho), the number of k-edge sets of rank rho, for each nonzero
        one, by the frontier search building the table; None when it stops
        past ``FRONTIER_BUDGET``."""
        n, r = len(self.ends), self.greedy_basis().bit_count()
        packed = self._final(True)
        if packed is None:
            return None
        out, field, width = {}, 0, n + 1
        while packed:
            if c := packed & ((1 << width) - 1):
                j, rho = divmod(field, r + 1)
                out[j + rho, rho] = c
            packed >>= width
            field += 1
        return out

    def _final(self, table: bool):
        """The value of the final state of the frontier search, or None when
        a table stopped before its last edge. Between components the
        frontier is empty too, so the layers are counted."""
        layers = 0
        for states in _frontier(self.ends, len(self.roots), table):
            layers += 1
        return states[""] if layers == len(self.ends) + 1 else None


class _UniformSum:
    """A direct sum of uniform matroids: the (member mask, rank) pair of each
    part of at least one element, each mask a run of consecutive elements,
    in ascending order."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[tuple[int, int]]):
        self.parts = tuple(parts)

    def rank(self, x: int) -> int:
        return sum(min(r, (x & mask).bit_count()) for mask, r in self.parts)

    def greedy_basis(self) -> int:
        return sum((mask & -mask) * ((1 << r) - 1) for mask, r in self.parts)

    def bases(self) -> tuple[int, ...]:
        # Each part lies above the ones before it, so taking its sets in the
        # outer loop keeps the list ascending.
        found = [0]
        for mask, k in self.parts:
            low = mask & -mask
            found = [s * low | b for s in k_subsets(mask.bit_count(), k) for b in found]
        return tuple(found)

    def fundamental_circuits(self, basis: int) -> list[int]:
        return [(1 << e) | (basis & mask) for mask, _ in self.parts for e in bits(mask & ~basis)]

    def restrict(self, sigma: int) -> "_UniformSum":
        # A part's members in sigma are consecutive there too, starting after
        # the members of sigma below the part.
        return _UniformSum(
            (((1 << j) - 1) << (sigma & ((mask & -mask) - 1)).bit_count(), min(r, j))
            for mask, r in self.parts
            if (j := (mask & sigma).bit_count())
        )

    def size_rank(self) -> SizeRank:
        """N(k, rho): the product over the parts, a U(r_j, k_j) part taking
        C(k_j, t) at (t, min(t, r_j))."""
        parts = ({(t, min(t, rj)): comb(mask.bit_count(), t) for t in range(mask.bit_count() + 1)}
                 for mask, rj in self.parts)
        return reduce(_table_mul, parts, {(0, 0): 1})


def _table_mul(a: SizeRank, b: SizeRank) -> SizeRank:
    """The size-rank table of a direct sum from those of its summands: sizes
    and ranks add, counts multiply."""
    out: SizeRank = {}
    for (k, rho), x in a.items():
        for (k2, rho2), y in b.items():
            out[k + k2, rho + rho2] = out.get((k + k2, rho + rho2), 0) + x * y
    return out


# A size-rank table stops once its states times the bits of a full packed
# value pass this many. On complete graphs, where nearly every partition of
# the frontier occurs, K10's table peaks at 21,147 states and takes 0.2-0.4 s,
# and K11 stops at edge 37 of 55 after 0.2 s (Python 3.11, a shared 2-vCPU
# host); the 50-edge ring chorded_ring(Random(5), 30, 20) peaks at 11,721.
FRONTIER_BUDGET = 1 << 30


def _frontier(
    ends: Sequence[tuple[int, int]], size: int, table: bool
) -> Iterator[dict[str, Any]]:
    """Frontier search over the edge sets of a graph on vertices 0..size-1
    (Sekine, Imai and Tani, ISAAC 1995): yields its states before the first
    edge and after each edge. The last yield holds one state, the empty
    frontier keyed "", whose value is the answer: the spanning forests (the
    bases) as masks in no set order; when ``table``, the number of k-sets of
    each rank rho, packed into one int at bit ((k - rho) * (r + 1) + rho) *
    (n + 1), n = len(ends), r the rank of the graph. A table stops, with no
    more yields, at the first edge after which its states times the
    (n - r + 1) * (r + 1) * (n + 1) bits of a full packed value pass
    ``FRONTIER_BUDGET``.

    The edges go one component after another in breadth-first order: sorted
    by their later end, then their earlier one, in a breadth-first numbering
    of the vertices. A vertex is live from its first edge to its last. A
    state is a partition of the live vertices into the classes the taken
    edges join, with the edge sets that reach it (an edge inside a class
    closes a cycle, which only a ``table`` takes). A state whose class loses
    its last live vertex while others still live can no longer span, and a
    listing drops it; a table counts every edge set. Its key holds one
    character per live vertex, in the order they retire: the label of its
    class, that of the member retiring last. So retiring vertices head the
    key, a class lives on exactly when its label is that of a vertex that
    stays, a join is one ``str.replace`` and no label changes as vertices
    retire. The steps are planned once.
    """
    n = len(ends)
    adjacent: list[list[int]] = [[] for _ in range(size)]
    for u, v in ends:
        adjacent[u].append(v)
        adjacent[v].append(u)
    place = [-1] * size  # breadth-first number
    seen = rank = 0
    for root in range(size):
        if place[root] < 0:
            place[root], seen, queue = seen, seen + 1, [root]
            for u in queue:  # the loop reaches the vertices appended in it
                for w in adjacent[u]:
                    if place[w] < 0:
                        place[w], seen = seen, seen + 1
                        queue.append(w)
            rank += len(queue) - 1
    later = []  # by the later end, then the earlier one
    for u, v in ends:
        p, q = place[u], place[v]
        later.append(p * size + q if p > q else q * size + p)
    order = sorted(range(n), key=later.__getitem__)
    last = [0] * size  # the step of each vertex's last edge
    for step, i in enumerate(order):
        u, v = ends[i]
        last[u] = last[v] = step
    label = [chr(last[w] * size + place[w]) for w in range(size)]  # ascending as vertices retire
    live: list[str] = []  # the labels of the live vertices, ascending
    plan = []
    for step, i in enumerate(order):
        u, v = ends[i]
        x, y = label[u], label[v]
        enter = []  # (index in the key, label) of each end that goes live
        for z in (x, y):
            if z not in live:
                q = bisect(live, z)
                live.insert(q, z)
                enter.append((q, z))
        gone = (last[u] == step) + (last[v] == step and u != v)  # the ends that retire
        top = live[gone - 1] if gone else ""
        plan.append((1 << i, enter, live.index(x), live.index(y), gone, top, gone == len(live)))
        del live[:gone]
    width = n + 1
    cycle = (rank + 1) * width  # a table's shift for a cycle edge; a join's is width
    cap = FRONTIER_BUDGET // ((n - rank + 1) * cycle)  # states
    states: dict[str, Any] = {"": 1 if table else [0]}
    yield states
    for bit, enter, a, b, gone, top, whole in plan:
        new: dict[str, Any] = {}
        for key, val in states.items():
            for q, x in enter:
                key = key[:q] + x + key[q:]
            cu, cv = key[a], key[b]
            if cu != cv:
                joined = key.replace(cu, cv) if cu < cv else key.replace(cv, cu)
                taken = val << width if table else [m | bit for m in val]
                children: tuple = ((joined, taken), (key, val))
            else:
                children = ((key, val + (val << cycle) if table else val),)
            for k, w in children:
                if gone:
                    # A retiring class that nothing joins to the rest: drop.
                    if not table and (
                        (k[0] != k[gone - 1]) if whole else (k[0] <= top or k[gone - 1] <= top)
                    ):
                        continue
                    k = k[gone:]
                got = new.get(k)
                new[k] = w if got is None else got + w
        if table and len(new) > cap:
            return
        states = new
        yield states


@dataclass(frozen=True)
class Block:
    """One connectivity block: its member mask and the restricted matroid."""

    members: int
    matroid: Matroid

    @property
    def kind(self) -> str:
        """"loop", "coloop", "circuit" or "general".

        A single element is a loop or a coloop by its rank. A block of k >= 2
        elements is a circuit exactly when it has rank k - 1: a block is
        connected, so it has no loop and no coloop, and a matroid of nullity
        one without coloops is the circuit it contains.
        """
        bm = self.matroid
        k = bm.n
        if k == 1:
            return "loop" if bm.full_rank == 0 else "coloop"
        return "circuit" if bm.full_rank == k - 1 else "general"


@dataclass(frozen=True)
class BlockPartition:
    """Pairwise-disjoint blocks whose union is the whole ground set.

    A connected graph is a cactus exactly when every block of its cycle
    matroid is a circuit, a loop or a single coloop: its cycles, self-loops
    and bridges.
    """

    n: int
    blocks: tuple[Block, ...]

    def masks(self, *kinds: str) -> tuple[int, ...]:
        """Member masks in block order: of the blocks whose ``kind`` is one
        of ``kinds``, or of every block when none is given."""
        return tuple(b.members for b in self.blocks if not kinds or b.kind in kinds)

    @property
    def is_cactus(self) -> bool:
        """True when no block is "general"."""
        return all(b.kind != "general" for b in self.blocks)

    def cycle_lengths(self) -> tuple[int, ...]:
        """Sorted sizes of the circuits and loops (a loop has size 1);
        ValidationError unless ``is_cactus``."""
        if not self.is_cactus:
            raise ValidationError(
                "cactus algorithm requires every block to be a circuit, a loop "
                "or a single coloop"
            )
        return tuple(sorted(m.bit_count() for m in self.masks("circuit", "loop")))


# -- constructors ------------------------------------------------------------


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid U(r, n): every subset of size <= r is independent,
    presented as one part (none when n = 0)."""
    check_ground(n)
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r!r}, n={n}")
    return _presented(n, _UniformSum([((1 << n) - 1, r)] if n else []), "uniform")


def multi_uniform(profile: Iterable[tuple[int, int]]) -> Matroid:
    """Direct sum of uniform matroids U(r_1, n_1) + ... + U(r_t, n_t).

    The ground set is the concatenation of the component ground sets in the
    given order. The components of at least one element are its parts, as in
    ``uniform``.
    """
    pairs = [tuple(p) for p in profile]
    if not pairs:
        raise ValueError("multi_uniform needs at least one (r, n) pair")
    offset = 0
    parts: list[tuple[int, int]] = []  # (block mask shifted into place, r)
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"profile entries must be (r, n) pairs, got {pair!r}")
        r, n = pair
        check_ground(n)
        if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n:
            raise ValueError(f"uniform block needs 0 <= r <= n, got r={r!r}, n={n}")
        if n:
            parts.append((((1 << n) - 1) << offset, r))
        offset += n
    check_ground(offset)
    return _presented(offset, _UniformSum(parts), "multi_uniform")


def from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Matroid from an explicit basis family, checked on every pair of bases
    and kept sorted for ``Matroid.bases``.

    The family must be non-empty, equicardinal, and satisfy the basis
    exchange axiom: for all bases B1, B2 and e in B1 - B2 there is an
    f in B2 - B1 with B1 - e + f again a basis. A violation raises
    ValidationError naming a violating pair, a repeated element ValueError.
    """
    return _from_bases(n, bases, 0)


def _from_bases(n: int, bases: Iterable[Iterable[int]], first: int) -> Matroid:
    """``from_bases`` on elements numbered from ``first``, as its messages name them."""
    check_ground(n)
    masks: list[int] = []
    for b in map(list, bases):
        m = mask_of(b)
        if m.bit_count() != len(b):
            raise ValueError(f"basis {b} repeats an element")
        check_subset(m >> first, n)
        masks.append(m)
    if not masks:
        raise ValidationError("a matroid needs at least one basis; got an empty family")
    card = masks[0].bit_count()
    for m in masks:
        if m.bit_count() != card:
            raise ValidationError(
                "bases have mixed cardinalities: "
                f"{sorted(bits(masks[0]))} vs {sorted(bits(m))}"
            )
    bset = dict.fromkeys(masks)  # a set that keeps the input order for the messages
    for b1 in bset:
        for b2 in bset:
            move = b1 & ~b2
            into = b2 & ~b1
            for e in bits(move):
                if not any((b1 ^ (1 << e)) | (1 << f) in bset for f in bits(into)):
                    raise ValidationError(
                        "basis exchange fails for bases "
                        f"{sorted(bits(b1))} and {sorted(bits(b2))} at element {e}"
                    )
    btuple = tuple(sorted(b >> first for b in bset))

    def rank_fn(sigma: int) -> int:
        return max((sigma & b).bit_count() for b in btuple)

    m = Matroid(n, rank_fn, "explicit_bases")
    m._bases = btuple
    return m


def direct_sum(*matroids: Matroid) -> Matroid:
    """Direct sum on the concatenation of the ground sets."""
    if not matroids:
        raise ValueError("direct_sum needs at least one matroid")
    offsets = []
    offset = 0
    for m in matroids:
        offsets.append(offset)
        offset += m.n
    check_ground(offset)
    parts = tuple(zip(matroids, offsets))
    total = offset

    def rank_fn(sigma: int) -> int:
        return sum(m.rank((sigma >> off) & m.full_mask) for m, off in parts)

    return Matroid(total, rank_fn, "direct_sum")
