"""Weight hierarchies of matroids and their circuit-family characterization.

The i-th weight of a matroid is the smallest size of a subset with nullity i
(nullity = size minus rank). The hierarchy d_1 < d_2 < ... < d_{n-r} is
strictly increasing and ends at d_{n-r} = n.

An equivalent description goes through circuits: call a family of circuits
non-redundant when every member keeps an element outside the union of the
others. The degree of non-redundancy of a subset (the largest non-redundant
family of circuits inside it) equals its nullity, and consequently d_i is
the smallest union of a non-redundant family of i circuits. Both routes are
implemented independently here and cross-checked in the tests.

For direct sums the hierarchy is the min-plus convolution of the parts, and
for a disjoint union of circuits with lengths n_1 <= ... <= n_t it is simply
the sequence of prefix sums of the sorted lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bitset import k_subsets
from .errors import ValidationError
from .matroid import Matroid


@dataclass(frozen=True)
class WeightHierarchy:
    """The weights d_1 < d_2 < ... of a matroid, possibly empty (free matroid)."""

    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        w = tuple(int(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x < 1 for x in w):
            raise ValidationError(f"weights must be positive, got {w}")
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


def is_nonredundant(circuit_masks: Sequence[int]) -> bool:
    """True when every circuit keeps an element outside the others' union."""
    k = len(circuit_masks)
    if k <= 1:
        return True
    prefix = [0] * (k + 1)
    for i, c in enumerate(circuit_masks):
        prefix[i + 1] = prefix[i] | c
    suffix = 0
    for i in range(k - 1, -1, -1):
        others = prefix[i] | suffix
        if circuit_masks[i] & ~others == 0:
            return False
        suffix |= circuit_masks[i]
    return True


def weight_hierarchy(m: Matroid) -> WeightHierarchy:
    """All weights d_1..d_{n-r} by a size-ascending subset sweep.

    For each cardinality s in increasing order, every subset of size s is
    inspected and the first time a nullity value appears its weight is
    recorded. The sweep stops once all n - r values are known.
    """
    n, r = m.n, m.full_rank
    corank = n - r
    if corank == 0:
        return WeightHierarchy(())
    found: dict[int, int] = {}
    for s in range(1, n + 1):
        for sigma in k_subsets(n, s):
            nullity = s - m.rank(sigma)
            if nullity >= 1 and nullity not in found:
                found[nullity] = s
                if len(found) == corank:
                    return WeightHierarchy(tuple(found[i] for i in range(1, corank + 1)))
    raise ValidationError(
        f"rank oracle is inconsistent: found nullities {sorted(found)} "
        f"but corank is {corank}"
    )


def degree_of_nonredundancy(m: Matroid, sigma: int) -> int:
    """Size of the largest non-redundant family of circuits inside ``sigma``.

    Equals the nullity of ``sigma``; the tests verify that identity, so this
    function deliberately stays on the circuit side and never consults the
    rank of ``sigma`` itself.
    """
    cands = [c for c in m.circuits() if c & ~sigma == 0]
    if not cands:
        return 0
    total_union = 0
    for c in cands:
        total_union |= c
    # Any non-redundant family contains some full circuit plus one private
    # element per additional member, so its size is at most:
    ub = total_union.bit_count() - min(c.bit_count() for c in cands) + 1
    best = 1  # a single circuit is always non-redundant
    k = len(cands)

    def extend(start: int, family: list[int]) -> None:
        nonlocal best
        if len(family) > best:
            best = len(family)
        if best >= ub:
            return
        for idx in range(start, k):
            if len(family) + (k - idx) <= best:
                break
            family.append(cands[idx])
            if is_nonredundant(family):
                extend(idx + 1, family)
            family.pop()
            if best >= ub:
                return

    extend(0, [])
    return best


def weights_via_circuits(m: Matroid) -> WeightHierarchy:
    """The hierarchy as smallest unions of non-redundant circuit families.

    d_i is computed by a depth-first search over families of exactly i
    circuits, minimizing the union size. Two admissible prunes keep it fast:
    a partial family with union u needs at least one new element per missing
    member (so u + (i - k) >= current best is a dead end), and since the
    hierarchy is strictly increasing the search for d_i can stop as soon as
    it reaches d_{i-1} + 1.
    """
    n, r = m.n, m.full_rank
    corank = n - r
    if corank == 0:
        return WeightHierarchy(())
    circuits = sorted(m.circuits(), key=lambda c: (c.bit_count(), c))
    k = len(circuits)
    weights: list[int] = []
    prev = 0
    for i in range(1, corank + 1):
        best = n + 1
        lower = prev + 1

        def extend(start: int, family: list[int], union: int) -> None:
            nonlocal best
            need = i - len(family)
            if need == 0:
                if union.bit_count() < best:
                    best = union.bit_count()
                return
            if best <= lower:
                return
            for idx in range(start, k):
                if k - idx < need:
                    break
                c = circuits[idx]
                if c & ~union == 0:
                    continue  # adds nothing new: the family would be redundant
                new_union = union | c
                if new_union.bit_count() + (need - 1) >= best:
                    continue
                family.append(c)
                if is_nonredundant(family):
                    extend(idx + 1, family, new_union)
                family.pop()
                if best <= lower:
                    return

        extend(0, [], 0)
        if best > n:
            raise ValidationError(
                f"no non-redundant family of {i} circuits exists, "
                f"but the corank is {corank}"
            )
        weights.append(best)
        prev = best
    return WeightHierarchy(tuple(weights))


def block_weights(parts: Iterable[WeightHierarchy | Sequence[int]]) -> WeightHierarchy:
    """Hierarchy of a direct sum: min-plus convolution of the parts.

    Each part enters as [0, d_1, d_2, ...] (cost of covering 0 nullity is 0)
    and the combined d_i is the cheapest split of i among the parts.
    """
    conv = [0]
    for part in parts:
        ws = list(part.weights) if isinstance(part, WeightHierarchy) else [
            int(x) for x in part
        ]
        cur = [0, *ws]
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
    ls = sorted(int(x) for x in lengths)
    if any(x < 1 for x in ls):
        raise ValidationError(f"cycle lengths must be >= 1, got {tuple(ls)}")
    out = []
    acc = 0
    for x in ls:
        acc += x
        out.append(acc)
    return WeightHierarchy(tuple(out))
