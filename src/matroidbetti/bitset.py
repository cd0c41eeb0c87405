"""Subsets of a small ground set as integer bit masks.

Element ``i`` of the ground set corresponds to bit ``1 << i``. Ground sets
are capped at 64 elements so that every subset fits comfortably in a single
Python int and set operations are single machine words. All enumeration
helpers return masks in ascending numeric order, which fixes a deterministic
"lexicographic by bit-vector value" order everywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator

MAX_GROUND = 64


def check_ground(n: int) -> None:
    """Validate a ground set size."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"ground set size must be a non-negative integer, got {n!r}")
    if n > MAX_GROUND:
        raise ValueError(f"ground set size {n} exceeds the supported cap of {MAX_GROUND}")


def check_subset(mask: int, n: int) -> None:
    """Validate that ``mask`` encodes a subset of ``range(n)``."""
    if not isinstance(mask, int) or isinstance(mask, bool) or mask < 0 or mask >> n:
        raise ValueError(f"subset {mask!r} out of range for a ground set of size {n}")


def bits(mask: int) -> Iterator[int]:
    """Yield the element indices of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def k_subsets(n: int, k: int) -> list[int]:
    """All k-element subsets of ``range(n)``, ascending as integers.

    Uses Gosper's hack to step from one mask to the next mask of equal
    popcount, so the output is sorted without a sort.
    """
    if k < 0 or k > n:
        return []
    if k == 0:
        return [0]
    out = []
    v = (1 << k) - 1
    limit = 1 << n
    while v < limit:
        out.append(v)
        u = v & -v
        w = v + u
        v = w | (((v ^ w) >> 2) // u)
    return out

