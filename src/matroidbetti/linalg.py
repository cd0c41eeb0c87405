"""Exact matrix rank over prime fields, on sparse columns.

Callers hand ``pack`` boundary columns as the masks of a face and of the
elements it drops. Rows are numbered as columns first touch them. Over
GF(2) a column becomes one bit mask and elimination is XOR; over an odd
prime it becomes a dict from row to residue, eliminated with ``%`` and
modular inverses. Both pivot on a column's highest row. The library
eliminates no matrix: the tests' reference homology
(``complexes.boundary_rank``) and their lead-certificate oracle do.
Everything is exact integer arithmetic; there is no floating point anywhere
in this package.
"""

from __future__ import annotations

from typing import Iterable, Sequence

# The strong probable-prime test to the first thirteen prime bases is exact
# for every n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015). Twelve bases (2..37) are not enough here:
# 318665857834031151167461 = 399165290221 * 798330580441 passes all twelve.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(p: int) -> bool:
    """Deterministic primality test for ``p < PRIME_TEST_BOUND``.

    Raises:
        ValueError: when ``p`` is at or above ``PRIME_TEST_BOUND``, where the
            fixed witness set no longer decides primality.
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        return False
    if p >= PRIME_TEST_BOUND:
        raise ValueError(
            f"cannot decide whether {p} is prime: the test is exact only below "
            f"{PRIME_TEST_BOUND}"
        )
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def pack(columns: Iterable[tuple[int, int]], p: int) -> list:
    """The columns (f, d), d inside f, over GF(p): column (f, d) has the
    entry (-1)^k in the row of the face f - z for each element z of d, z the
    k-th smallest element of f (the standard orientation). The rows are just
    the faces the columns touch, numbered as a column first touches each.
    Over GF(2) a column is the bit mask of its rows, over an odd prime a
    ``{row: residue}`` dict."""
    row: dict[int, int] = {}
    packed: list = []
    for f, d in columns:
        col = {}
        while d:
            z = d & -d
            d ^= z
            col[row.setdefault(f ^ z, len(row))] = p - 1 if (f & (z - 1)).bit_count() & 1 else 1
        packed.append(sum(1 << i for i in col) if p == 2 else col)
    return packed


def gf2_rank(columns: Iterable[int]) -> int:
    """Rank over GF(2) of the matrix whose columns are the given bit masks,
    bit ``i`` set when row ``i`` holds a 1."""
    pivots: dict[int, int] = {}
    for v in columns:
        while v:
            w = pivots.get(top := v.bit_length())
            if w is None:
                pivots[top] = v
                break
            v ^= w
    return len(pivots)


def modp_rank(columns: Sequence, p: int) -> int:
    """Rank over GF(p) of the matrix whose columns are ``{row: residue}``
    dicts, as ``pack`` gives them; GF(2) columns, bit masks, go to
    ``gf2_rank``."""
    if p == 2:
        return gf2_rank(columns)
    pivots: dict[int, dict[int, int]] = {}  # row -> the column pivoting there, scaled to 1
    for col in columns:
        cur = {r: v % p for r, v in col.items() if v % p}
        while cur:
            top = max(cur)
            piv = pivots.get(top)
            if piv is None:
                inv = pow(cur[top], -1, p)
                pivots[top] = {r: v * inv % p for r, v in cur.items()}
                break
            f = cur[top]
            for r, v in piv.items():
                if x := (cur.get(r, 0) - f * v) % p:
                    cur[r] = x
                else:
                    del cur[r]
    return len(pivots)
