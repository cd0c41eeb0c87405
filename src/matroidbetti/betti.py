"""Graded Betti numbers of the basis-monomial ideal of a matroid.

The ideal generated by the basis monomials of a matroid M (its facet ideal)
is the Stanley-Reisner ideal of the Alexander dual of the dual matroid. Its
minimal free resolution is linear: step i sits in total degree rank + i, so
the whole table is determined by the vector of global Betti numbers plus the
rank, and ``BettiTable`` stores just that vector; every producer and check
here reads it.

Fine Betti numbers come from Hochster's formula. With V the Alexander dual
of the dual matroid, the multidegree-sigma entry in homological position i is
the dimension of reduced homology of the induced subcomplex V|sigma in degree
|sigma| - i - 2. This is the indexing under which a basis sigma contributes
exactly beta_{0,sigma} = 1 and the cycle matroid of a single m-cycle resolves
as 0 <- S(-(m-1))^m <- S(-m)^(m-1) <- 0. The sweep ranks one relative boundary
map per sigma, first cut by unit pivots and dd = 0 to a core, a reduction that
is exact over every field (``hochster_betti``).

Three independent algorithms produce the same table and are cross-checked in
the tests and the command line tool: the Hochster sweep, a block-by-block
product (convolution of the per-block global vectors), and a closed form for
matroids all of whose blocks are circuits, loops or single coloops (cycle
matroids of cactus graphs). The closed form is the block product with one
factor n + (n - 1)x per circuit of length n, and it inverts: given a cactus
Betti vector and the number of loops, the multiset of cycle lengths is
recovered exactly.

The resolution is linear, so summing Hochster's formula over the sigma of
each size gives beta_i = sum_k (-1)^(r+k) C(n-k, r+i-k) s_k, s_k the number
of spanning k-sets; ``hilbert_check`` compares a table with that image.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, count
from math import comb
from operator import lshift
from typing import Iterable, Iterator, Sequence

from .bitset import bits, k_subsets
from .complexes import (
    GF2,
    PrimeField,
    _rank,
    boundary_rank,  # noqa: F401  perfbench/tracing.py wraps betti.boundary_rank
    face_numbers,  # noqa: F401  perfbench/tracing.py wraps betti.face_numbers
)
from .errors import ValidationError
from .linalg import lane_width
from .matroid import BlockPartition, Matroid, _forest_search


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass
class BettiTable:
    """A graded Betti table of a linear resolution, stored as its global vector.

    ``global_`` lists the ungraded numbers beta_0 .. beta_{n-r}, always
    n - r + 1 of them: the resolution has length at most n - r, and trailing
    zeros (one per loop) are kept. Step i sits in total degree rank + i, so
    the graded table ``coarse`` is read off the vector. ``fine`` maps
    (i, subset mask) to multiplicities when requested.
    """

    rank_r: int
    n: int
    global_: tuple[int, ...]
    fine: dict[tuple[int, int], int] | None = None

    @property
    def coarse(self) -> dict[tuple[int, int], int]:
        """(homological position i, total degree rank + i) to beta_i, for
        each nonzero beta_i."""
        return {(i, self.rank_r + i): v for i, v in enumerate(self.global_) if v}

    def degrees(self) -> tuple[int, int]:
        """Smallest and largest total degree carrying a generator."""
        nonzero = [self.rank_r + i for i, v in enumerate(self.global_) if v]
        if not nonzero:
            return (self.rank_r, self.rank_r)
        return (nonzero[0], nonzero[-1])

    def agrees_with(self, other: "BettiTable") -> bool:
        """Cross-algorithm equality: same rank, ground size and global vector."""
        return (
            self.rank_r == other.rank_r
            and self.n == other.n
            and self.global_ == other.global_
        )

    def to_json_dict(self) -> dict:
        coarse: dict[str, dict[str, int]] = {}
        for (i, j), v in sorted(self.coarse.items()):
            coarse.setdefault(str(i), {})[str(j)] = v
        out = {
            "rank": self.rank_r,
            "n": self.n,
            "global": list(self.global_),
            "coarse": coarse,
        }
        if self.fine is not None:
            fine: dict[str, dict[str, int]] = {}
            for (i, s), v in sorted(self.fine.items()):
                key = ",".join(str(e) for e in bits(s))
                fine.setdefault(str(i), {})[key] = v
            out["fine"] = fine
        return out

    def resolution_text(self) -> str:
        """The resolution in arrow form, e.g. ``0 <- S(-2)^3 <- S(-3)^2 <- 0``."""
        terms = []
        for i, b in enumerate(self.global_):
            if b == 0:
                continue
            j = self.rank_r + i
            if j == 0:
                terms.append("S" if b == 1 else f"S^{b}")
            else:
                terms.append(f"S(-{j})^{b}")
        return " <- ".join(["0", *terms, "0"])


@dataclass(frozen=True)
class CycleProfile:
    """A multiset of cycle lengths, each >= 1, with loops encoded as length 1.
    The empty multiset is the profile of a forest (no cycle at all).
    """

    lengths: tuple[int, ...]

    def __init__(self, lengths: Iterable[int]):
        ls = tuple(sorted(int(x) for x in lengths))
        if any(x < 1 for x in ls):
            raise ValidationError(f"cycle lengths must be >= 1, got {ls}")
        object.__setattr__(self, "lengths", ls)

    @property
    def sigma(self) -> tuple[int, ...]:
        """The elementary symmetric polynomials of the lengths, sigma_0 = 1
        through sigma_t = their product: the coefficients of
        prod_k (1 + n_k X), computed on each access."""
        loops = self.loops
        row = [1]  # the loops' (1 + X)^L, by C(L, j + 1) = C(L, j)(L - j)/(j + 1)
        for j in range(loops):
            row.append(row[-1] * (loops - j) // (j + 1))
        return tuple(reduce(_poly_mul, ([1, x] for x in self.lengths if x > 1), row))

    @property
    def t(self) -> int:
        return len(self.lengths)

    @property
    def loops(self) -> int:
        return sum(1 for x in self.lengths if x == 1)


# -- Hochster sweep -----------------------------------------------------------


def _below(s: int) -> list[int]:
    """The one-bit masks of the elements below max s that are not in s."""
    rest = ((1 << (s.bit_length() - 1)) - 1) & ~s
    out = []
    while rest:
        low = rest & -rest
        out.append(low)
        rest ^= low
    return out


def _relative_homology(
    m: Matroid, fld: PrimeField, fine: bool
) -> Iterator[tuple[int, dict[int, int]]]:
    """Level by level, i = 0 .. n - r: the sum of h(sigma) over the sets
    sigma of r + i elements and, when ``fine``, the map sigma -> h(sigma)
    (else empty), with h(sigma) = #(bases of sigma through max sigma) -
    rank(core) over GF(p) (see ``hochster_betti``).

    Each core column T (a spanning (r + 1)-set with T - max T not a basis) is
    packed once and pushed into every sigma = T | A, A an (i - 1)-subset of
    ``_below(T)``. The level total needs no count per sigma: a basis B lies
    in C(B.bit_length() - r, i) sets of r + i elements with the same largest
    element. Only the fine map pushes each B into those sets, B | A with A an
    i-subset of ``_below(B)``, each B's list computed once per sweep.

    The rows of a core are bases through x = max sigma = max T, and the
    sorted bases through x form one contiguous block, the masks in
    [2^x, 2^(x+1)). Row j of a column is the j-th basis of its block, in the
    lane format of ``linalg``, so one packed int per column serves every
    field and every sigma that contains it, and a core's columns go to
    ``complexes._rank`` as they are. A core of one column has rank 1 without
    elimination, its entries being +-1, units in every field.

    Over an odd prime a lane is several bits wide. A core with a row past
    the first 96 lanes of its block has its rows renumbered in the order they
    first appear (``_renumbered``), and a column with such a row is never
    packed. Renumbering costs a lookup and a shift per entry, more than
    eliminating a core of short ints, while an elimination step costs in
    proportion to the width of the int. 96 lanes is about the highest
    threshold at which no more work is eliminated than with every core
    renumbered: on the tests' 17-edge ring over GF(3), rows times columns
    summed over the eliminated matrices come to 10,304,317 against
    10,305,514. A rule on the column count cannot do this, since it leaves
    wide cores of two or three columns packed: "3 or more columns and 1,024
    bits" gives 11.1 million, "4 or more and 4,096 bits" 13.1 million. In
    process (Python 3.11, a shared 2-vCPU host), against renumbering every
    core, this rule took 0.78 times the sweep time of a seed-1 ``sweep-odd``
    pass of the benchmark and 0.96 to 0.97 times on the 17-edge ring and an
    18-edge one (5,489 bases). Packing every core took 0.91 times this rule's
    time on that pass but 1.2 to 2.2 times on those rings.
    """
    n, r, p = m.n, m.full_rank, fld.p
    bases = m.bases()
    yield len(bases), dict.fromkeys(bases, 1) if fine else {}
    is_basis = set(bases)
    width = lane_width(p)
    tall = 96 * width  # the packed lanes of an odd-prime block
    sign = (1, p - 1)
    # The fine map reads each basis's list again at every level.
    belows = list(map(_below, bases)) if fine else map(_below, bases)
    columns: dict[int, tuple[list[int], list[int]]] = {}
    first = top = 0
    for j, (b, below) in enumerate(zip(bases, belows)):
        if b.bit_length() != top:
            top, first = b.bit_length(), j
        x, row = 1 << (top - 1), (j - first) * width
        for a in below:
            t = b | a
            if t ^ x in is_basis:
                continue
            rows, signs = columns.setdefault(t, ([], []))
            rows.append(row)
            # T - a carries the sign (-1)^k when a is the k-th smallest element of T.
            signs.append(sign[(t & (a - 1)).bit_count() & 1])

    def packed(rows: list[int], signs: list[int]):
        # Over GF(2) a column is its packed int. Over an odd prime it keeps
        # its rows and signs for renumbering, and a column with a row past the
        # packed lanes sends every core through it there, so it is not packed.
        if p == 2:
            return sum(map(lshift, signs, rows))
        return (sum(map(lshift, signs, rows)) if rows[-1] < tall else None, rows, signs)

    def rank(cols: list) -> int:
        if len(cols) == 1:
            return 1
        if p == 2:
            return _rank(cols, 2)
        lanes = [col for col, _, _ in cols]
        return _rank(_renumbered(cols, width) if None in lanes else lanes, p)

    # Taken by reversed bit strings, the spanning sets reach each sigma in
    # the lexicographic order of A = sigma - T: for A1 and A2 of one size,
    # the least element of A1 ^ A2 = T1 ^ T2 lies in A1 exactly when it lies
    # in T2. Elimination cost depends on column order; over GF(3) on a
    # 17-edge ring, taking T in the order the bases first meet it was about
    # 10% slower.
    order = sorted(columns, key=lambda t: f"{t:0{n}b}"[::-1])
    pushes = [(t, packed(*columns.pop(t)), _below(t)) for t in order]
    below = Counter(b.bit_length() - r for b in bases)  # |_below(B)| = B.bit_length() - r
    for i in range(1, n - r + 1):
        pushed: defaultdict[int, list] = defaultdict(list)
        for t, col, outside in pushes:
            for a in map(sum, combinations(outside, i - 1)):
                pushed[t | a].append(col)
        ranks = {sigma: rank(cols) for sigma, cols in pushed.items()}
        total = sum(c * comb(k, i) for k, c in below.items()) - sum(ranks.values())
        tops: Counter[int] = Counter()
        if fine:
            tops.update(b | sum(a) for b, bs in zip(bases, belows) for a in combinations(bs, i))
            tops.subtract(ranks)
        yield total, tops


def _renumbered(cols: list[tuple], width: int) -> list[int]:
    """The columns of an odd-prime core, each given with its rows and signs,
    packed with the rows numbered in the order they first appear."""
    found = dict.fromkeys(chain.from_iterable(rows for _, rows, _ in cols))
    at = dict(zip(found, count(0, width)))
    return [sum(map(lshift, s, map(at.__getitem__, rows))) for _, rows, s in cols]


def hochster_betti(
    m: Matroid,
    fld: PrimeField = GF2,
    *,
    fine: bool = False,
) -> BettiTable:
    """Betti table of the basis-monomial ideal via Hochster's formula.

    The sweep visits only multidegrees sigma with |sigma| = rank + i
    (the resolution is linear, and the tests verify that off-diagonal
    homology vanishes), all in degree r - 2 (r the rank). The simplex 2^sigma
    is acyclic and every set of fewer than r elements is a face of V, so the
    exact sequence of the pair gives H~_{r-2}(V|sigma) = H_{r-1}(2^sigma,
    V|sigma). Its chains are the non-faces, the spanning subsets of sigma:
    none in degree r - 2, the bases in degree r - 1, the spanning (r + 1)-sets
    in degree r. So the entry is the number of bases inside sigma minus the
    rank of one boundary map d, and a sigma that does not span has none.

    The sweep eliminates a core of d. With x = max sigma, the columns through
    x span the image: for a spanning (r + 1)-set T without x, U = T + x spans,
    and dd U = 0 writes dT as a +-1 combination of the d(U - c), c != x, each
    through x or zero. A basis B without x meets one of those, B + x, with
    entry +-1: a unit pivot. Taking them all leaves the core, with the bases
    of sigma through x as rows and the spanning (r + 1)-sets T through x with
    T - x not a basis as columns, and the entry is #(bases of sigma through
    x) - rank(core) (``_relative_homology``). Exact sequences, dd = 0 and unit
    pivots hold with any coefficients, so this is exact over every GF(p), and
    the sweep, still eliminating over GF(p), tests field independence.
    """
    n, r = m.n, m.full_rank
    if r == 0:
        # The ideal generated by the empty-set monomial is the whole ring: one
        # generator in degree zero and nothing else.
        return BettiTable(0, n, (1,) + (0,) * n, {(0, 0): 1} if fine else None)
    # Greedy probe: a sane rank oracle always yields a basis; a broken one
    # would make the ideal zero and the sweep meaningless.
    if m.rank(m.greedy_basis()) != r:
        raise ValidationError("zero ideal: the rank oracle admits no basis")
    if m._is_uniform():
        # Every r-set is a basis: the pair is (simplex, its (r-2)-skeleton), and
        # each of the C(n, k) sigma of k elements carries C(k - 1, r - 1).
        levels = range(r, n + 1)
        return BettiTable(
            r, n, tuple(comb(n, k) * comb(k - 1, r - 1) for k in levels),
            {(k - r, s): comb(k - 1, r - 1) for k in levels for s in k_subsets(n, k)} if fine else None,
        )
    fine_map: dict[tuple[int, int], int] = {}
    glob: list[int] = []
    for i, (total, level) in enumerate(_relative_homology(m, fld, fine)):
        glob.append(total)
        fine_map.update(((i, sigma), h) for sigma, h in level.items() if h)
    return BettiTable(r, n, tuple(glob), fine_map if fine else None)


# -- block product ------------------------------------------------------------


def block_product_betti(tables: Sequence[BettiTable]) -> BettiTable:
    """Combine per-block tables of a direct sum into the table of the whole.

    The global vector of the sum is the convolution (polynomial product) of
    the per-block global vectors; ranks and ground sizes add. A single input
    is returned unchanged.
    """
    ts = list(tables)
    if not ts:
        raise ValueError("block_product_betti needs at least one table")
    if len(ts) == 1:
        return ts[0]
    glob = reduce(_poly_mul, (t.global_ for t in ts))
    return BettiTable(sum(t.rank_r for t in ts), sum(t.n for t in ts), tuple(glob))


# -- cactus closed form -------------------------------------------------------


def cactus_betti(profile: CycleProfile | Iterable[int]) -> BettiTable:
    """Closed-form Betti table for a disjoint union of circuits (a cactus).

    A circuit of length n resolves as 0 <- S(-(n-1))^n <- S(-n)^(n-1) <- 0,
    so by the block product the global vector of t circuits of lengths
    n_1..n_t is the coefficient list of

        prod_k (n_k + (n_k - 1) x)  =  sum_j sigma_j (1 + x)^j (-x)^(t-j),

    with sigma_j the elementary symmetric polynomials of the lengths
    (``CycleProfile.sigma``). A loop enters as a cycle of length 1, the
    factor 1 + 0x, so the vector keeps all t + 1 entries, one trailing zero
    per loop. With no cycle at all the product is empty: the unit table
    of rank 0 on no elements, one generator.
    """
    if not isinstance(profile, CycleProfile):
        profile = CycleProfile(profile)
    n = sum(profile.lengths)
    beta = reduce(_poly_mul, ([x, x - 1] for x in profile.lengths if x > 1), [1])
    return BettiTable(n - profile.t, n, tuple(beta) + (0,) * profile.loops)


def _cactus_table(part: BlockPartition) -> BettiTable:
    """The table of a matroid whose blocks are circuits, loops and single
    coloops: ``cactus_betti`` of the cycles, and each bridge (a coloop, the
    factor 1 of the block product) adds 1 to the rank and to n."""
    core = cactus_betti(part.cycle_lengths())
    bridges = part.n - core.n
    return BettiTable(core.rank_r + bridges, part.n, core.global_)


def _shift_nonnegative(poly: list[int], x: int) -> bool:
    """True when every coefficient of poly(x + Y) is >= 0, where ``poly`` is
    little-endian and monic. Taylor shift by repeated synthetic division:
    pass i fixes the coefficient of Y^i."""
    c = list(poly)
    deg = len(c) - 1
    for i in range(deg):
        for k in range(deg - 1, i - 1, -1):
            c[k] += x * c[k + 1]
        if c[i] < 0:
            return False
    return True


def _divide_out(coeffs: list[int], root: int) -> list[int] | None:
    """Quotient of a little-endian polynomial by (X - root), or None when
    the remainder is not zero."""
    deg = len(coeffs) - 1
    out = [0] * deg
    carry = coeffs[deg]
    for k in range(deg - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out if carry == 0 else None


def invert_cactus_betti(global_betti: Iterable[int], loops: int) -> CycleProfile:
    """Recover the cycle lengths of a cactus from its global Betti vector.

    The loop count cannot be read off the vector (loops only contribute
    trailing zeros), so it is an explicit argument. The closed form of
    ``cactus_betti`` at x = -X / (X - 1), times (X - 1)^t, t the number of
    cycles, is

        prod_k (X - n_k) = sum_i (-1)^i beta_i X^i (X - 1)^(t-i).

    Every term carries (X - 1)^loops, the loops' known roots, so that factor
    is divided out first: with t the index of the last nonzero beta, the
    right-hand side is then P(X) = X^t - sigma_1 X^{t-1} + ... +
    (-1)^t sigma_t, sigma_j the elementary symmetric polynomials of the other
    lengths, and those lengths are the roots of P. They are found largest
    first, each by bisection on [1, sigma_1]: when P splits over the reals,
    P(x + Y) has no negative coefficient exactly when x is at least its
    largest root, and the least such x is checked to be a root and divided
    out. Any failure along the way (a non-positive sigma, sigma_0 != 1, or a
    root that is not a positive integer) raises ValidationError: the vector
    is not a cactus Betti vector. The vector (1,) with no loops inverts to
    the empty profile, that of a forest.
    """
    vals = [int(v) for v in global_betti]
    if not isinstance(loops, int) or isinstance(loops, bool) or loops < 0:
        raise ValueError(f"loop count must be a non-negative integer, got {loops!r}")
    if any(v < 0 for v in vals):
        raise ValidationError("not a cactus Betti vector: negative entry")
    while vals and vals[-1] == 0:
        vals.pop()
    if not vals:
        raise ValidationError("not a cactus Betti vector: no nonzero entry")
    t = len(vals) - 1
    # P little-endian, by Horner's rule in (X - 1): U_0 = beta_0 and
    # U_j = (X - 1) U_{j-1} + (-1)^j beta_j X^j, so U_t = P in O(t^2) additions.
    poly = vals[:1]
    for j in range(1, t + 1):
        poly = [lo - hi for lo, hi in zip([0, *poly], [*poly, 0])]
        poly[j] += -vals[j] if j & 1 else vals[j]
    sig = [(-1) ** j * poly[t - j] for j in range(t + 1)]  # sig[j] = sigma_j
    for j in range(t, -1, -1):
        if sig[j] <= 0:
            raise ValidationError(f"not a cactus Betti vector: sigma_{j} = {sig[j]}")
    if sig[0] != 1:
        raise ValidationError(f"not a cactus Betti vector: sigma_0 = {sig[0]}")

    roots: list[int] = []
    hi = sig[1] if t else 0  # positive roots summing to sigma_1 are <= sigma_1
    while len(poly) > 1:
        # The least x >= 1 at which poly(x + Y) has no negative coefficient
        # is the largest root when that root is a positive integer.
        if not _shift_nonnegative(poly, hi):
            break
        lo = 1
        while lo < hi:
            mid = (lo + hi) // 2
            if _shift_nonnegative(poly, mid):
                hi = mid
            else:
                lo = mid + 1
        quotient = _divide_out(poly, hi)
        if quotient is None:
            break
        roots.append(hi)
        poly = quotient
    if len(poly) != 1:
        raise ValidationError(
            "not a cactus Betti vector: the length polynomial does not split "
            "over the positive integers"
        )
    return CycleProfile(roots + [1] * loops)


# -- dispatcher ---------------------------------------------------------------


_ALGORITHMS = ("auto", "hochster", "blocks", "cactus")


def _routes(m: Matroid) -> Iterator[str]:
    """The algorithms valid for ``m``, in the order ``auto`` prefers them:
    ``blocks`` for two or more blocks, ``cactus`` when every block is a
    circuit, a loop or a single coloop, and ``hochster`` always."""
    part = m.blocks()
    if len(part.blocks) >= 2:
        yield "blocks"
    if part.is_cactus:
        yield "cactus"
    yield "hochster"


def resolve_algorithm(m: Matroid, algorithm: str = "auto", *, fine: bool = False) -> str:
    """The concrete algorithm ``betti`` will run for this matroid.

    ``auto`` picks the first of ``_routes(m)``. A fine-table request pins
    auto to hochster, the only producer of fine tables, and rejects the
    other algorithms.
    """
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if fine and algorithm not in ("auto", "hochster"):
        raise ValueError("fine tables are only produced by the hochster algorithm")
    if algorithm != "auto":
        return algorithm
    return "hochster" if fine else next(_routes(m))


def betti(
    m: Matroid,
    algorithm: str = "auto",
    fld: PrimeField = GF2,
    *,
    fine: bool = False,
) -> BettiTable:
    """Betti table of the basis-monomial ideal of ``m``.

    ``algorithm`` is one of:

    * ``"hochster"``: the homology sweep (the only mode that can fill the
      fine table).
    * ``"blocks"``: Hochster per block, combined by the product formula.
    * ``"cactus"``: the closed form; valid only when every block of ``m`` is
      a circuit, a loop or a single coloop.
    * ``"auto"``: see ``resolve_algorithm``.
    """
    algorithm = resolve_algorithm(m, algorithm, fine=fine)
    if algorithm == "hochster":
        return hochster_betti(m, fld, fine=fine)
    if algorithm == "blocks":
        tables = [hochster_betti(b.matroid, fld) for b in m.blocks().blocks]
        return block_product_betti(tables)
    return _cactus_table(m.blocks())


# -- consistency checks and derived invariants --------------------------------


def _spanning_counts(m: Matroid) -> list[int]:
    """s_0 .. s_n, s_k the number of spanning k-sets: by a forest search of
    its own, not ``m.bases()``, when ``m`` has edges, else from the ranks of
    the sets of r or more elements (no smaller set spans)."""
    n, r = m.n, m.full_rank
    if m._edges is not None:
        free = Counter(a for _, a in _forest_search(m._edges, r))
        return [0] * r + [sum(c * comb(a, t) for a, c in free.items()) for t in range(n - r + 1)]
    return [0] * r + [sum(m.rank(s) == r for s in k_subsets(n, k)) for k in range(r, n + 1)]


def _global_from_spanning(n: int, r: int, spanning: Sequence[int]) -> tuple[int, ...]:
    """beta_0 .. beta_{n-r} from the spanning counts (see the module docstring)."""
    return tuple(
        sum((-1) ** (r + k) * comb(n - k, r + i - k) * spanning[k] for k in range(r, r + i + 1))
        for i in range(n - r + 1)
    )


def hilbert_check(table: BettiTable, m: Matroid) -> bool:
    """Exact consistency check of a Betti table against ``m``: the same rank
    and ground size, and the global vector the image of the spanning counts
    of ``m``. Equation i of that map is the coefficient of s^(r+i) in the
    Hilbert-series identity 1 - sum_i (-1)^i beta_i s^(r+i) =
    sum_k f_k s^k (1-s)^(n-k), f_k the number of non-spanning k-sets. The
    counts never read the bases the sweep used."""
    n, r = m.n, m.full_rank
    expected = _global_from_spanning(n, r, _spanning_counts(m))
    return (table.rank_r, table.n, table.global_) == (r, n, expected)


def dual_min_distance(m: Matroid) -> int:
    """Smallest i at which the dual matroid has fewer than C(n, i) independent
    sets of size i; equivalently the size of the smallest circuit of the dual.
    A set s is dependent in the dual exactly when its complement does not
    span, so each level asks the rank of complements and stops at the first
    that falls short of r; at i = n the complement is empty.

    Raises ValidationError when the dual is free (rank 0 on the primal side),
    since then the dual has no circuits at all.
    """
    n, r, full = m.n, m.full_rank, m.full_mask
    if r == 0:
        raise ValidationError("dual has no circuits; d_1 undefined")
    return next(i for i in count(1) if any(m.rank(full ^ s) < r for s in k_subsets(n, i)))
