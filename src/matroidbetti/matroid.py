"""Matroids on a ground set of at most 64 elements, given by rank oracles.

A matroid is stored as its rank function on subsets (bit masks). A matroid
built from a presentation also keeps it in a private slot, and answers its
structural queries (the greedy basis, fundamental circuits, closures and the
basis list) from it without the oracle:

* ``_edges``: the edges of a graph (``graphs.cycle_matroid``), as pairs of
  vertex indices; bases by ``_forest_search``, the rest by union-find;
* ``_parts``: the (member mask, rank) pairs of a uniform sum (``uniform``,
  ``multi_uniform``), each mask a run of consecutive elements, in ascending
  order;
* ``_bases``: the cache of ``bases()``, which ``from_bases`` fills with the
  sorted list it was given.

``restrict`` maps ``_edges`` and ``_parts``. Every other matroid (``dual``,
``direct_sum``, ``Matroid(n, rank_fn)``) derives all of it from the oracle,
and so do circuits past the fundamental ones. Instances are immutable; rank
values, bases, circuits and the block partition are cached on first use.

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

from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable

from .bitset import bits, check_ground, check_subset, k_subsets, mask_of
from .errors import ValidationError

Provenance = str  # "graphic" | "uniform" | "multi_uniform" | "explicit_bases"
#                 | "dual_of" | "restriction_of" | "direct_sum" | "explicit"


class Matroid:
    """A matroid presented by its rank oracle."""

    __slots__ = (
        "n", "provenance", "labels", "_rank_fn", "_cache", "_full", "_bases", "_circuits",
        "_blocks", "_edges", "_parts",
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
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._parts: tuple[tuple[int, int], ...] | None = None

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
        if self._edges is not None:
            return _union(self._edges, self.full_mask)[1]
        if self._parts is not None:
            return sum((mask & -mask) * ((1 << r) - 1) for mask, r in self._parts)
        basis = 0
        for e in range(self.n):
            if self.rank(basis | (1 << e)) > self.rank(basis):
                basis |= 1 << e
        return basis

    def bases(self) -> tuple[int, ...]:
        """All maximal independent sets, ascending by bit-vector value: by
        ``_forest_search`` on a graph, as the product of each part's r_j-sets
        on a uniform sum, else from C(n, r) ranks (``from_bases`` keeps its
        list)."""
        if self._bases is None:
            r = self.full_rank
            if self._edges is not None:
                self._bases = tuple(sorted(b for b, _ in _forest_search(self._edges, r)))
            elif self._parts is not None:
                # Each part lies above the ones before it, so taking its sets
                # in the outer loop keeps the list ascending.
                found = [0]
                for mask, k in self._parts:
                    low = mask & -mask
                    found = [s * low | b for s in k_subsets(mask.bit_count(), k) for b in found]
                self._bases = tuple(found)
            else:
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
        large on dense matroids (U(6, 12) has 792). Its work, counted as
        containment tests plus rank evaluations while shrinking, is therefore
        bounded by the number of sets the definition-based scan would visit,
        those of at most full_rank + 1 elements; past that bound the scan runs
        instead.
        """
        if self._circuits is None:
            n, r = self.n, self.full_rank
            budget = sum(comb(n, k) for k in range(1, min(n, r + 1) + 1))
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
        if self._edges is not None:
            return _tree_paths(self._edges, basis)
        if self._parts is not None:
            return [
                (1 << e) | (basis & mask) for mask, _ in self._parts for e in bits(mask & ~basis)
            ]
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
        and its rank. On a graph: the edges whose ends the edges of x join.
        On a uniform sum: x, plus each part of which x holds r_j members."""
        if self._edges is not None:
            parent, forest = _union(self._edges, x)
            flat = 0
            for i, (u, v) in enumerate(self._edges):
                if _find(parent, u) == _find(parent, v):
                    flat |= 1 << i
            return flat, forest.bit_count()
        if self._parts is not None:
            flat = rank = 0
            for mask, r in self._parts:
                k = (x & mask).bit_count()
                flat |= mask if k >= r else x & mask
                rank += min(r, k)
            return flat, rank
        rx = self.rank(x)
        if rx == self.full_rank:  # a spanning set closes to E, with no more queries
            return self.full_mask, rx
        for e in bits(self.full_mask ^ x):
            if self.rank(x | (1 << e)) == rx:
                x |= 1 << e
        return x, rx

    def _is_uniform(self) -> bool:
        """True when every full_rank-set is a basis: at once for a uniform sum
        of at most one part, else by counting the bases, C(n, r) of them."""
        if self._parts is not None and len(self._parts) <= 1:
            return True
        return len(self.bases()) == comb(self.n, self.full_rank)

    def _eliminate(self, budget: int) -> list[int] | None:
        """The circuit family by elimination from the fundamental circuits,
        or None once the work passes ``budget``."""
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
                            work += 1
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
        The result reads this matroid's oracle, not its cache. It keeps the
        members' edges, if any, and maps the parts, if any: the j members of
        a U(r, k) part form a U(min(r, j), j) part, and a part with no member
        is dropped.
        """
        check_subset(sigma, self.n)
        members = tuple(bits(sigma))
        parent_rank = self._rank_fn

        def rank_fn(sub: int) -> int:
            m = 0
            for i in bits(sub):
                m |= 1 << members[i]
            return parent_rank(m)

        sub = Matroid(len(members), rank_fn, "restriction_of", labels=members)
        if self._edges is not None:
            sub._edges = tuple(self._edges[i] for i in members)
        if self._parts is not None:
            # A part's members in sigma are consecutive there too, starting
            # after the members of sigma below the part.
            sub._parts = tuple(
                (((1 << j) - 1) << (sigma & ((mask & -mask) - 1)).bit_count(), min(r, j))
                for mask, r in self._parts
                if (j := (mask & sigma).bit_count())
            )
        return sub

    def blocks(self) -> "BlockPartition":
        """Partition of the ground set into connectivity blocks.

        Elements e and f share a block exactly when e == f or some circuit
        contains both. With B the greedy basis, each e outside B is joined to
        every b in B for which B - b + e is a basis, and the blocks are the
        union-find components of these joins (the components of the
        fundamental graph of B). Blocks are ordered by their smallest element
        and carry their restricted matroid. The partition is built on the
        first call and kept.
        """
        if self._blocks is None:
            self._blocks = BlockPartition(
                self.n, tuple(Block(m, self.restrict(m)) for m in self._block_masks())
            )
        return self._blocks

    def _block_masks(self) -> tuple[int, ...]:
        parent = list(range(self.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for c in self._fundamental_circuits():
            root = find((c & -c).bit_length() - 1)
            for b in bits(c):
                rb = find(b)
                if rb != root:
                    parent[rb] = root
        groups: dict[int, int] = {}
        for e in range(self.n):
            root = find(e)
            groups[root] = groups.get(root, 0) | (1 << e)
        return tuple(sorted(groups.values(), key=lambda m: m & -m))

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank}, provenance={self.provenance!r})"


def _find(parent: list[int], u: int) -> int:
    """The root of u, halving its path."""
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    return u


def _union(edges: tuple[tuple[int, int], ...], x: int) -> tuple[list[int], int]:
    """Union-find over the edges in ``x``, in index order: the parent list,
    and the edges that joined two trees (the greedy spanning forest of x)."""
    parent = list(range(max(map(max, edges), default=-1) + 1))
    forest = 0
    for i in bits(x):
        u, v = edges[i]
        u, v = _find(parent, u), _find(parent, v)
        if u != v:
            parent[u] = v
            forest |= 1 << i
    return parent, forest


def _tree_paths(edges: tuple[tuple[int, int], ...], forest: int) -> list[int]:
    """The fundamental circuit of each edge outside the spanning ``forest``,
    ascending by edge: the edge and the forest path between its ends, found
    by climbing from the deeper end of each tree rooted by a depth-first walk."""
    size = max(map(max, edges), default=-1) + 1
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


def _forest_search(edges: tuple[tuple[int, int], ...], r: int) -> list[tuple[int, int]]:
    """The bases B of the rank-r cycle matroid of ``edges``, in no set order,
    each with the number a of edges that may join B in a spanning set whose
    greedy basis in index order is B (the edges after max B, and those before
    it that close a cycle with B's earlier edges), so s_(r + t) = sum C(a, t).

    The walk skips an edge inside a tree of the forest taken so far. It takes
    one joining two trees, and skips it too when the forest and the later
    edges still join its ends (Read and Tarjan, Networks 5, 1975), pushing
    that branch with a copy of the forest's union-find on an explicit stack.
    """
    found: list[tuple[int, int]] = []
    # (i, taken, a so far, union-find parents) of each branch that skips edge i - 1
    stack = [(0, 0, 0, list(range(max(map(max, edges), default=-1) + 1)))]
    while stack:
        i, taken, a, parent = stack.pop()
        k = taken.bit_count()
        while k < r:
            u, v = edges[i]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                a += 1
            else:
                # The bridge test: do the forest and the later edges join u and v?
                t = parent[:]
                x, y = u, v
                for p, q in edges[i + 1:]:
                    while t[p] != p:
                        p = t[p]
                    while t[q] != q:
                        q = t[q]
                    if p != q:
                        t[p] = q
                        if p == x:
                            x = q
                        elif p == y:
                            y = q
                        if x == y:
                            stack.append((i + 1, taken, a, parent[:]))
                            break
                parent[u] = v
                taken |= 1 << i
                k += 1
            i += 1
        found.append((taken, a + len(edges) - i))
    return found


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
    """The uniform matroid U(r, n): every subset of size <= r is independent.

    It keeps itself as one part in the ``_parts`` slot (none when n = 0),
    set after construction as ``graphs.cycle_matroid`` sets ``_edges``:
    ``perfbench/tracing.py`` wraps the constructor's signature."""
    check_ground(n)
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r!r}, n={n}")
    m = Matroid(n, lambda s: min(r, s.bit_count()), "uniform")
    m._parts = (((1 << n) - 1, r),) if n else ()
    return m


def multi_uniform(profile: Iterable[tuple[int, int]]) -> Matroid:
    """Direct sum of uniform matroids U(r_1, n_1) + ... + U(r_t, n_t).

    The ground set is the concatenation of the component ground sets in the
    given order. The components of at least one element go in the ``_parts``
    slot, as in ``uniform``.
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
        parts.append((((1 << n) - 1) << offset, r))
        offset += n
    check_ground(offset)
    total = offset

    def rank_fn(sigma: int) -> int:
        return sum(min(r, (sigma & m).bit_count()) for m, r in parts)

    m = Matroid(total, rank_fn, "multi_uniform")
    m._parts = tuple((mask, r) for mask, r in parts if mask)
    return m


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
