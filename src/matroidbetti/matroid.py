"""Matroids on a ground set of at most 64 elements, given by rank oracles.

A matroid is stored as its rank function on subsets (bit masks). Bases,
circuits and blocks are derived from the oracle, so every constructor gets
identical treatment and derived data always agrees with the oracle.
Instances are immutable; rank values, bases and circuits are cached on first
use.

Blocks are the classes of the connectivity relation: two elements are
related when some circuit contains both. They are found without listing the
circuits. Fix one basis B; for e outside B the fundamental circuit of e is e
together with every b in B for which B - b + e is again a basis. The blocks
of the matroid are the connected components of the graph that joins each
such e to those b (the fundamental graph), so about n + (n - r) * r rank
evaluations decide them. Loops and coloops lie on no edge of that graph and
come out as singleton blocks. ``Block.kind`` names what a block is: a loop,
a coloop, a circuit, or none of these.
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

    __slots__ = ("n", "provenance", "labels", "_rank_fn", "_cache", "_full", "_bases", "_circuits")

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
        one that raises the rank of those kept so far. On an oracle that is
        not a matroid rank function the result may fall short of full_rank."""
        basis = 0
        for e in range(self.n):
            if self.rank(basis | (1 << e)) > self.rank(basis):
                basis |= 1 << e
        return basis

    def bases(self) -> tuple[int, ...]:
        """All maximal independent sets, ascending by bit-vector value."""
        if self._bases is None:
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
        B: e together with every b in B for which B - b + e is a basis."""
        basis = self.greedy_basis()
        r = basis.bit_count()
        out = []
        for e in bits(self.full_mask ^ basis):
            c = 1 << e
            for b in bits(basis):
                if self.rank((basis ^ (1 << b)) | (1 << e)) == r:
                    c |= 1 << b
            out.append(c)
        return out

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
        """
        check_subset(sigma, self.n)
        members = tuple(bits(sigma))

        def rank_fn(sub: int) -> int:
            m = 0
            for i in bits(sub):
                m |= 1 << members[i]
            return self.rank(m)

        return Matroid(len(members), rank_fn, "restriction_of", labels=members)

    def blocks(self) -> "BlockPartition":
        """Partition of the ground set into connectivity blocks.

        Elements e and f share a block exactly when e == f or some circuit
        contains both. With B the greedy basis, each e outside B is joined to
        every b in B for which B - b + e is a basis, and the blocks are the
        union-find components of these joins (the components of the
        fundamental graph of B). Blocks are ordered by their smallest element
        and carry their restricted matroid.
        """
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
        masks = sorted(groups.values(), key=lambda m: m & -m)
        return BlockPartition(
            self.n, tuple(Block(m, self.restrict(m)) for m in masks)
        )

    def __repr__(self) -> str:
        return f"Matroid(n={self.n}, rank={self.full_rank}, provenance={self.provenance!r})"


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
    """Pairwise-disjoint blocks whose union is the whole ground set."""

    n: int
    blocks: tuple[Block, ...]

    def masks(self) -> tuple[int, ...]:
        return tuple(b.members for b in self.blocks)


# -- constructors ------------------------------------------------------------


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid U(r, n): every subset of size <= r is independent."""
    check_ground(n)
    if not isinstance(r, int) or isinstance(r, bool) or not 0 <= r <= n:
        raise ValueError(f"uniform matroid needs 0 <= r <= n, got r={r!r}, n={n}")
    return Matroid(n, lambda s: min(r, s.bit_count()), "uniform")


def multi_uniform(profile: Iterable[tuple[int, int]]) -> Matroid:
    """Direct sum of uniform matroids U(r_1, n_1) + ... + U(r_t, n_t).

    The ground set is the concatenation of the component ground sets in the
    given order.
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

    return Matroid(total, rank_fn, "multi_uniform")


def from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Matroid from an explicit basis family, checked on every pair of bases.

    The family must be non-empty, equicardinal, and satisfy the basis
    exchange axiom: for all bases B1, B2 and e in B1 - B2 there is an
    f in B2 - B1 with B1 - e + f again a basis. A violation raises
    ValidationError naming a violating pair.
    """
    check_ground(n)
    masks: list[int] = []
    for b in bases:
        m = mask_of(b)
        check_subset(m, n)
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
    bset = frozenset(masks)
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
    btuple = tuple(sorted(bset))

    def rank_fn(sigma: int) -> int:
        return max((sigma & b).bit_count() for b in btuple)

    return Matroid(n, rank_fn, "explicit_bases")


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
