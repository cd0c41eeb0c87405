"""Weight hierarchies of matroids and the independent routes that check them.

The i-th weight of a matroid is the smallest size of a subset with nullity i
(nullity = size minus rank). The hierarchy d_1 < d_2 < ... < d_{n-r} is
strictly increasing and ends at d_{n-r} = n.

``weight_hierarchy`` reads the weights off a table before it lists a
circuit. A uniform sum answers in closed form. A graph of two or more blocks
answers by the paper's block theorem: the hierarchy of a direct sum is the
min-plus convolution of its parts' (``block_weights``), each block taking
the single-block routes with no partition of its own. A single block reads the size-rank table N(k, rho), the number
of k-sets of rank rho (``weights_via_size_rank``, from the table that
``Matroid._size_rank`` builds once per matroid): d_i = min{k : N(k, k - i)
> 0}. Only bare oracles, basis lists and graphs whose frontier search passes
``matroid.FRONTIER_BUDGET`` reach the cyclic flats (closed unions of
circuits), listed from ``Matroid.circuits``: the 14-edge fixture g1 has 30
cyclic flats against 2^14 subsets. For a disjoint union of circuits with
lengths n_1 <= ... <= n_t the hierarchy is the sequence of prefix sums of the
sorted lengths (``cactus_weights``).

``weights --crosscheck`` compares the cyclic flats (reported as ``sweep``,
or the closed form on a uniform sum) with the block route (on two or more
blocks) and with one more route, chosen in this order:

* ``cactus_weights``, when every block is a circuit, a loop or a coloop;
* ``weights_via_size_rank``, when the matroid has a size-rank table (every
  block a graph whose frontier search stays within the budget, or a uniform
  sum);
* ``weights_via_circuits`` otherwise (basis lists, bare oracles and graphs
  past the budget). A circuit C with an element e outside a set X raises
  the nullity by at least one, nullity(X | C) >= nullity(X) + 1, since
  C - e spans e. So a chain of i circuits, each adding an element to the
  union of those before it, has a union of nullity at least i; and a set
  of nullity i holds such a chain, the fundamental circuits of the i
  elements outside one of its bases, in any order. Hence d_i is the
  smallest union of such a chain.

The tests check every route against a sweep over every subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from .betti import CycleProfile
from .bitset import k_subsets  # noqa: F401  perfbench/tracing.py wraps weights.k_subsets
from .errors import ValidationError
from .matroid import Matroid


@dataclass(frozen=True)
class WeightHierarchy:
    """The weights d_1 < d_2 < ... of a matroid, possibly empty (free matroid)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        w = tuple(self.weights)
        object.__setattr__(self, "weights", w)
        if any(type(x) is not int or x < 1 for x in w):
            raise ValidationError(f"weights must be positive integers, got {w}")
        if any(b <= a for a, b in zip(w, w[1:])):
            raise ValidationError(f"weights must be strictly increasing, got {w}")

    def d(self, i: int) -> int:
        """1-based accessor: d(1) is the first weight."""
        if not 1 <= i <= len(self.weights):
            raise IndexError(f"weight index {i} out of range 1..{len(self.weights)}")
        return self.weights[i - 1]

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[int]:
        return iter(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]


def weight_hierarchy(m: Matroid) -> WeightHierarchy:
    """All weights d_1..d_{n-r}: on a presented matroid of two or more
    blocks that is not a uniform sum, the paper's block theorem over the
    blocks, each sent straight to the single-block routes with no partition
    of its own (``_one_block_weights``); else those routes on the whole."""
    if m._presentation is not None and m._uniform_profile() is None:
        blocks = m.blocks().blocks
        if len(blocks) > 1:
            return block_weights(_one_block_weights(b.matroid) for b in blocks)
    return _one_block_weights(m)


def _one_block_weights(m: Matroid) -> WeightHierarchy:
    """The first route that applies to one block, or to a matroid taken
    whole: a uniform sum's closed form (d_i of U(r, k) is r + i;
    ``Matroid._uniform_profile`` also finds a cycle, a parallel class, a
    forest or loops uniform); its presentation's size-rank table, unless the
    search passed the budget; else the cyclic flats."""
    profile = m._uniform_profile()
    if profile is not None:
        return block_weights(range(rj + 1, k + 1) for rj, k in profile)
    if m._block_size_rank() is None:
        return _cyclic_flat_weights(m)
    return weights_via_size_rank(m)  # reads the table just kept


def _cyclic_flat_weights(m: Matroid) -> WeightHierarchy:
    """All weights from the cyclic flats (closed unions of circuits):

        d_i = i + min{ r(Z) : Z a cyclic flat with |Z| - r(Z) >= i }.

    A set sigma of nullity i gives a cyclic flat no larger in rank: deleting
    the coloops of M|sigma keeps its nullity and leaves a union of circuits,
    whose closure Z has the same rank and no smaller nullity, so
    |sigma| >= r(Z) + i. Conversely a basis of Z plus i more elements of Z
    has rank r(Z) and nullity i.

    The least cyclic flat is cl(empty set), the loops. Any other Z is the
    closure of the union of the circuits inside it, so adding them one at a
    time, Z' -> cl(Z' | C), reaches Z from cl(empty set); and cl(Z' | C) is
    always a cyclic flat. The flats are that closure, by ``Matroid._closure``.
    """
    bottom, r0 = m._closure(0)
    flats = {bottom: r0}
    todo = [bottom]
    seen = set()
    circuits = m.circuits()
    while todo:
        z = todo.pop()
        for c in circuits:
            x = z | c
            if x == z or x in seen:
                continue
            seen.add(x)
            flat, rank = m._closure(x)
            if flat not in flats:
                flats[flat] = rank
                todo.append(flat)
    corank = m.n - m.full_rank
    weights = []
    for i in range(1, corank + 1):
        ranks = [rz for z, rz in flats.items() if z.bit_count() - rz >= i]
        if not ranks:
            raise ValidationError(
                f"rank oracle is inconsistent: no cyclic flat has nullity {i} or more "
                f"but corank is {corank}"
            )
        weights.append(i + min(ranks))
    return WeightHierarchy(tuple(weights))


def weights_via_circuits(m: Matroid) -> WeightHierarchy:
    """The hierarchy as smallest unions of circuit chains, in which each
    circuit adds an element to the union of those before it (the module
    docstring gives the lemma).

    d_i is a depth-first search over chains of exactly i circuits, taken in
    index order, minimizing the union. A chain that still needs ``need``
    circuits adds at least one element per circuit, so a union u with
    |u| + need >= best is a dead end; and since the hierarchy is strictly
    increasing the search for d_i stops as soon as it reaches d_{i-1} + 1.
    ``seen`` keeps the least ``start`` at which each (need, union) was
    entered: an entry at a later start has only circuits the earlier one
    had, and ``best`` has only fallen since.
    """
    n, r = m.n, m.full_rank
    corank = n - r
    if corank == 0:
        return WeightHierarchy(())
    circuits = m.circuits()
    k = len(circuits)
    weights: list[int] = []
    prev = 0
    for i in range(1, corank + 1):
        best = n + 1
        lower = prev + 1
        seen: dict[tuple[int, int], int] = {}

        def extend(start: int, need: int, union: int) -> None:
            nonlocal best
            if need == 0:
                best = union.bit_count()  # the prune below keeps it under best
                return
            if seen.get((need, union), k) <= start:
                return
            seen[need, union] = start
            for idx in range(start, k - need + 1):
                c = circuits[idx]
                if c & ~union == 0:
                    continue  # adds no element, so maybe no nullity
                new_union = union | c
                if new_union.bit_count() + (need - 1) >= best:
                    continue
                extend(idx + 1, need - 1, new_union)
                if best <= lower:
                    return

        extend(0, i, 0)
        if best > n:
            raise ValidationError(
                f"no chain of {i} circuits, each adding an element, exists, "
                f"but the corank is {corank}"
            )
        weights.append(best)
        prev = best
    return WeightHierarchy(tuple(weights))


def weights_via_size_rank(m: Matroid) -> WeightHierarchy | None:
    """The hierarchy read off the size-rank table (``Matroid._size_rank``):
    d_i is the least k with a k-set of rank k - i. None when there is no
    table: the matroid is neither a graph nor a uniform sum, or the frontier
    search of a block passes the budget."""
    table = m._size_rank()
    if table is None:
        return None
    least = {k - rho: k for k, rho in sorted(table, reverse=True)}  # the least k per nullity
    return WeightHierarchy(tuple(k for i, k in sorted(least.items()) if i))


def block_weights(parts: Iterable[Iterable[int]]) -> WeightHierarchy:
    """Hierarchy of a direct sum: min-plus convolution of the parts.

    Each part enters as [0, d_1, d_2, ...] (cost of covering 0 nullity is 0)
    and the combined d_i is the cheapest split of i among the parts.
    """
    conv = [0]
    for part in parts:
        cur = [0, *part]
        if any(type(x) is not int for x in cur):
            raise ValueError(f"block weights must be integers, got {cur[1:]}")
        out = [None] * (len(conv) + len(cur) - 1)
        for a, x in enumerate(conv):
            for b, y in enumerate(cur):
                s = x + y
                if out[a + b] is None or s < out[a + b]:
                    out[a + b] = s
        conv = out  # type: ignore[assignment]
    return WeightHierarchy(tuple(conv[1:]))


def cactus_weights(lengths: Iterable[int]) -> WeightHierarchy:
    """Hierarchy of a disjoint union of circuits: prefix sums of the sorted
    lengths (loops count as length 1)."""
    return WeightHierarchy(tuple(accumulate(CycleProfile(lengths).lengths)))
