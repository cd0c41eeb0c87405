"""Exact matrix rank over prime fields, on bit-packed columns.

Matrices arrive column by column, and every column is one Python int. Row
``i`` of a column occupies the ``i``-th lane of ``lane_width(p)`` bits and
holds a residue in ``[0, p)``; a column is ``sum(value_i << (i * width))``.
Over GF(2) a lane is one bit, so a column is a plain bit mask and
elimination is XOR. Over an odd prime a lane is wide enough that one
elimination step ``cur + (p - f) * pivot`` cannot carry into the next lane,
and one Barrett multiply-shift then reduces every lane mod p at once (see
``lane_layout``). Every step is a handful of whole-int operations, whatever
the number of rows and whatever the prime. Eliminations pivot on a column's
highest nonzero lane, which ``int.bit_length`` finds without a pass over the
column, and each step shortens the column. Everything is exact integer
arithmetic; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

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


class LaneLayout(NamedTuple):
    """Lane parameters for packed columns over an odd prime p.

    A lane value after one elimination step is at most p(p - 1), which fits
    in ``value_bits`` = w bits. With ``shift`` = s = w + bitlen(p) and
    ``multiplier`` = M = ceil(2^s / p), floor(x * M / 2^s) = floor(x / p)
    for every x < 2^w. ``width`` = L is wide enough that x * M (< 2^L) never
    spills into the next lane and the quotient (< p) fits in the L - s bits
    above the shift, so a whole column reduces as
    ``x - p * ((x * M >> s) & mask)``, where ``mask`` keeps the low L - s
    bits of every lane.
    """

    width: int
    value_bits: int
    shift: int
    multiplier: int


def lane_layout(p: int) -> LaneLayout:
    """The packed-lane parameters for GF(p), p an odd prime."""
    w = (p * (p - 1)).bit_length()
    s = w + p.bit_length()
    mult = -(-(1 << s) // p)
    width = max((((1 << w) - 1) * mult).bit_length(), s + p.bit_length())
    return LaneLayout(width, w, s, mult)


def lane_width(p: int) -> int:
    """Bits per row in a packed column over GF(p): one bit for p = 2."""
    return 1 if p == 2 else lane_layout(p).width


def gf2_rank(columns: Iterable[int]) -> int:
    """Rank over GF(2) of the matrix whose columns are the given bit masks.

    Args:
        columns: each int encodes one column, bit ``i`` set when row ``i``
            holds a 1 (the packed format with one-bit lanes).

    Returns:
        The rank.
    """
    pivots: dict[int, int] = {}
    rank = 0
    for v in columns:
        while v:
            top = v.bit_length()
            w = pivots.get(top)
            if w is None:
                pivots[top] = v
                rank += 1
                break
            v ^= w
    return rank


def modp_rank(columns: Sequence[int], p: int) -> int:
    """Rank over GF(p) of the matrix whose columns are packed ints.

    Args:
        columns: one int per column; row ``i`` is the lane of
            ``lane_width(p)`` bits at bit ``i * lane_width(p)``, holding a
            residue in ``[0, p)``.
        p: a prime. GF(2) input goes to ``gf2_rank``.

    Returns:
        The rank.
    """
    if p == 2:
        return gf2_rank(columns)
    width, _, shift, mult = lane_layout(p)
    top = max((c.bit_length() for c in columns), default=0)
    lanes = -(-top // width)
    ones = ((1 << (lanes * width)) - 1) // ((1 << width) - 1)
    qmask = ((1 << (width - shift)) - 1) * ones
    pivots: dict[int, int] = {}
    rank = 0
    for cur in columns:
        while cur:
            at = (cur.bit_length() - 1) // width * width
            f = cur >> at
            piv = pivots.get(at)
            if piv is None:
                if f != 1:
                    cur *= pow(f, -1, p)
                    cur -= p * (((cur * mult) >> shift) & qmask)
                pivots[at] = cur
                rank += 1
                break
            # The lead lane becomes f + (p - f) = p and reduces to 0.
            cur += (p - f) * piv
            cur -= p * (((cur * mult) >> shift) & qmask)
    return rank
