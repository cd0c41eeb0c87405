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
as 0 <- S(-(m-1))^m <- S(-m)^(m-1) <- 0. The sweep cuts each relative boundary
map by unit pivots and dd = 0 to a core, whose rank it reads off the lead rows
under certificates exact over every field (``hochster_betti``).

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

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, count, groupby
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .bitset import k_subsets
from .complexes import (
    boundary_rank,  # noqa: F401  perfbench/tracing.py wraps betti.boundary_rank
    face_numbers,  # noqa: F401  perfbench/tracing.py wraps betti.face_numbers
)
from .errors import ValidationError
from .matroid import BlockPartition, Matroid


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _key(keys: dict[int, str], s: int) -> str:
    """The elements of mask s, comma-separated, from the key of s less max s (kept in keys)."""
    if s not in keys:
        x = s.bit_length() - 1
        keys[s] = f"{_key(keys, s ^ (1 << x))},{x}".lstrip(",")
    return keys[s]


@dataclass
class BettiTable:
    """A graded Betti table of a linear resolution, stored as its global vector.

    ``global_`` lists the ungraded numbers beta_0 .. beta_{n-r}, always
    n - r + 1 of them: the resolution has length at most n - r, and trailing
    zeros (one per loop) are kept. Step i sits in total degree rank + i, so
    the graded table ``coarse`` is read off the vector. ``fine``, when
    requested, maps each subset mask sigma to beta_{|sigma|-rank,sigma} > 0.
    """

    rank_r: int
    n: int
    global_: tuple[int, ...]
    fine: dict[int, int] | None = None

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
        out = {
            "rank": self.rank_r,
            "n": self.n,
            "global": list(self.global_),
            "coarse": {str(i): {str(j): v} for (i, j), v in sorted(self.coarse.items())},
        }
        if self.fine is not None:
            keys = {0: ""}
            fine: dict[str, dict[str, int]] = {}
            for s in sorted(self.fine, key=lambda s: (s.bit_count(), s)):
                fine.setdefault(str(s.bit_count() - self.rank_r), {})[_key(keys, s)] = self.fine[s]
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
        ls = tuple(lengths)
        if any(type(x) is not int or x < 1 for x in ls):
            raise ValidationError(f"cycle lengths must be integers >= 1, got {ls}")
        object.__setattr__(self, "lengths", tuple(sorted(ls)))

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


def _through(t: int, mask: int) -> list[int]:
    """t | S for each submask S of mask."""
    out, s = [t | mask], mask
    while s:
        s = (s - 1) & mask
        out.append(t | s)
    return out


def _certified(get: Callable[[int, int], int], b: int, ys: list[int], t: int, t2: int) -> bool:
    """Whether T = t < T' = t2 led by b pass their lead certificate (``hochster_betti``)."""
    u = t | t2
    led = {y: lead for y in ys if (d := get(c := u ^ y, 0)) and (lead := c ^ (d & -d)) < b}
    seen = todo = u ^ t2  # the component of a, the element of U outside T'
    while todo:
        v = todo & -todo
        new = get(u ^ v, 0) & ~seen
        seen, todo = seen | new, todo ^ v | new
    return not seen & ~(sum(led) | u ^ t | u ^ t2) and len(set(led.values())) == len(led)


def _relative_homology(m: Matroid, fine: bool) -> tuple[list[int], Counter[int]]:
    """The totals, the sum of h(sigma) over the sets sigma of r + i elements
    for i = 0 .. n - r, and, when ``fine``, the map sigma -> h(sigma) > 0
    (else empty), read off the lead rows of the core columns as
    ``hochster_betti`` proves. A core column T through the top element x is
    the mask of the z with T - z a basis through x, its rows, and its lead
    is T less the least of them. No field eliminates a matrix."""
    n, r = m.n, m.full_rank
    bases = m.bases()
    is_basis = set(bases)
    free: Counter[int] = Counter()  # |P(B)| -> the number of bases B
    h: Counter[int] = Counter()  # sigma -> h(sigma), when fine

    for top, block in groupby(bases, int.bit_length):
        x = 1 << (top - 1)
        rows = list(block)
        columns: dict[int, int] = {}  # T -> the elements it drops to a basis through x
        for b in rows:
            bx = b ^ x
            rest = (x - 1) & ~b
            while rest:
                a = rest & -rest
                rest ^= a
                if bx | a not in is_basis:
                    t = b | a
                    columns[t] = columns.get(t, 0) | a
        get, below = columns.get, [1 << e for e in range(top - 1)]
        led: dict[int, int] = {}  # B -> B | every column led by B, for each B leading one
        for t, d in columns.items():
            b = t ^ (d & -d)
            led[b] = led.get(b, b) | t
        for b, u in led.items():
            if (group := u ^ b) & (group - 1) == 0:  # the a of each B + a led by B; one needs no certificate
                continue
            ys = [y for y in below if b & y]
            for t, t2 in combinations([b | a for a in below if group & a], 2):
                if not _certified(get, b, ys, t, t2):
                    raise ValidationError(f"core columns {t:#x} and {t2:#x} fail their lead certificate")
        free[top - r] += len(rows) - len(led)  # a B leading no column has P(B) = all below x outside B
        free.update(map(int.bit_count, map((2 * x - 1).__xor__, led.values())))
        if fine:
            for b in rows:
                h.update(_through(b, (x - 1) & ~led.get(b, b)))
    totals = [sum(c * comb(k, i) for k, c in free.items()) for i in range(n - r + 1)]
    return totals, h


def hochster_betti(m: Matroid, *, fine: bool = False) -> BettiTable:
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

    The sweep cuts d to a core. With x = max sigma, the columns through x
    span the image: for a spanning (r + 1)-set T without x, U = T + x spans,
    and dd U = 0 writes dT as a +-1 combination of the d(U - c), c != x, each
    through x or zero. A basis B without x meets one of those, B + x, with
    entry +-1: a unit pivot. Taking them all leaves the core: rows the bases
    of sigma through x, columns the spanning (r + 1)-sets T through x with
    T - x not a basis, and the entry #(bases of sigma through x) -
    rank(core). With rows in ascending mask order, the lead of a column T,
    its highest nonzero row, is the largest basis B inside T; columns of
    distinct leads are independent over any field. Take T = B + a <
    T' = B + a' led by one B, and U = T | T'. The columns U - y (y in B - x)
    led below B have distinct leads: were L the lead of U - y1 and U - y2,
    then L = U - y1 - y2, and exchange between B and L at y1 makes T - y1 or
    T' - y1 a basis, so a < y1 (B leads both), and a < y2 likewise;
    T' - y1 > L is then no basis, T - y1 is, and L > T - y1 forces a' > y2,
    and a' > y1 likewise; so a' = max(a, a', y1, y2) lies in L, and L > B.
    In the graph G on U - x with y ~ z when U - y - z is a basis, the mask
    of a core column U - v is v's neighbourhood. Scaled by (-1)^(the position
    of v in U), dd U = 0 gives each row U - y - z the entries +1 and -1 in
    U - y and U - z: on S, a, a' and the y of those columns, a signed
    incidence matrix, where an edge leaving S is a row with one entry. So
    over every field T' = U - a is in the span of the others iff the
    component of a in G[S] has no edge leaving S (its scaled columns sum to
    0, and a vanishing combination is constant on components and 0 where an
    edge leaves S), for any family of r-sets. ``_certified`` walks it and
    checks the leads; a failure (only a rank oracle that breaks basis
    exchange gives one) raises ValidationError. So, ordered by (lead, mask),
    a core column not first in its lead group lies in the span of earlier
    ones of the same core (T | T' lies in sigma): rank(core) is the number
    of distinct leads inside sigma, and the entry counts the B through x
    inside sigma that lead no column inside sigma. Level i totals
    sum_B C(|P(B)|, i), P(B) the elements below x outside every column led
    by B, and the fine map pushes each B into B | F for F inside P(B)
    (``_relative_homology``): the linear quotients of basis ideals (Herzog
    and Takayama 2002; Conca and Herzog 2003), each step proved. Exact
    sequences, dd = 0 and unit pivots hold with any coefficients and the
    walks do no arithmetic, so the table is the same over every field and
    the sweep takes none. A uniform profile of one part
    (``Matroid._uniform_profile``) skips the sweep.
    """
    n, r = m.n, m.full_rank
    if r == 0:
        # The ideal generated by the empty-set monomial is the whole ring: one
        # generator in degree zero and nothing else.
        return BettiTable(0, n, (1,) + (0,) * n, {0: 1} if fine else None)
    # Greedy probe: a sane rank oracle always yields a basis; a broken one
    # would make the ideal zero and the sweep meaningless.
    if m.rank(m.greedy_basis()) != r:
        raise ValidationError("zero ideal: the rank oracle admits no basis")
    if len(m._uniform_profile() or ()) == 1:
        # U(r, n), one part: the pair is (simplex, its (r-2)-skeleton), and each
        # of the C(n, k) sigma of k elements carries C(k - 1, r - 1). A sum of
        # several parts has core columns and is swept.
        levels = range(r, n + 1)
        return BettiTable(
            r, n, tuple(comb(n, k) * comb(k - 1, r - 1) for k in levels),
            {s: comb(k - 1, r - 1) for k in levels for s in k_subsets(n, k)} if fine else None,
        )
    totals, h = _relative_homology(m, fine)
    return BettiTable(r, n, tuple(totals), dict(h) if fine else None)


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


def _divide_out(coeffs: list[int], root: int) -> list[int]:
    """Quotient of a little-endian polynomial by (X - root), one of its
    roots."""
    deg = len(coeffs) - 1
    out = [0] * deg
    carry = coeffs[deg]
    for k in range(deg - 1, -1, -1):
        out[k] = carry
        carry = coeffs[k] + root * carry
    return out


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
    first by integer Newton steps from above, starting at sigma_1 and, after
    each root, at that root: x <- x - max(1, floor(P(x) / P'(x))), until
    P(x) = 0, when x is divided out. If P is real-rooted and every root is
    <= x, then P'(x) / P(x) = sum_k 1 / (x - r_k), so x - P(x) / P'(x) is
    still >= the largest root, and so is its floor when that root is an
    integer; a step of 1 is safe too, since P / P' < 1 puts that root at or
    below x - 1. So P(x) < 0, P'(x) <= 0 or x < 1 can only come of a vector
    that is not a cactus's. Any failure along the way (a non-positive sigma,
    sigma_0 != 1, or a root that is not a positive integer) raises
    ValidationError: the vector is not a cactus Betti vector. The vector
    (1,) with no loops inverts to the empty profile, that of a forest.
    """
    vals = list(global_betti)
    for v in vals:
        if type(v) is not int:
            raise ValueError(f"Betti entries must be integers, got {v!r}")
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
    x = sig[1] if t else 0  # positive roots summing to sigma_1 are <= sigma_1
    while len(poly) > 1 and x >= 1:
        p = dp = 0  # poly(x) and poly'(x), by one Horner pass
        for c in reversed(poly):
            dp = dp * x + p
            p = p * x + c
        if p == 0:
            roots.append(x)
            poly = _divide_out(poly, x)
        elif p < 0 or dp <= 0:
            break
        else:
            x -= max(1, p // dp)
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


def betti(m: Matroid, algorithm: str = "auto", *, fine: bool = False) -> BettiTable:
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
        return hochster_betti(m, fine=fine)
    if algorithm == "blocks":
        tables = [hochster_betti(b.matroid) for b in m.blocks().blocks]
        return block_product_betti(tables)
    return _cactus_table(m.blocks())


# -- consistency checks and derived invariants --------------------------------


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
    counts never read the bases the sweep used: s_k = N(k, r) is read off the
    size-rank table of a graph or a uniform sum, whose frontier search lists
    no basis at all (``Matroid._spanning_counts``)."""
    n, r = m.n, m.full_rank
    expected = _global_from_spanning(n, r, m._spanning_counts())
    return (table.rank_r, table.n, table.global_) == (r, n, expected)


def dual_min_distance(m: Matroid) -> int:
    """Smallest i at which the dual matroid has fewer than C(n, i) independent
    sets of size i; equivalently the size of the smallest circuit of the dual.
    A set s is dependent in the dual exactly when its complement does not
    span, so each level asks the rank of complements and stops at the first
    that falls short of r; at i = n the complement is empty.

    On a uniform sum (``Matroid._uniform_profile``: a cycle or a parallel
    class too) the smallest dual circuit is the complement of a hyperplane
    within one part of rank r_j >= 1: k_j - r_j + 1 of its k_j members.
    Otherwise levels 1 (a coloop) and 2 take at most n + C(n, 2) rank calls.
    Past them the answer is the least over the blocks of rank >= 1, since
    every circuit of the dual lies in one block; each block answers from its
    own profile, else from its kept size-rank table (a graph's, by the
    frontier search), else scans on from level 3, and so does a single
    block.

    Raises ValidationError when the dual is free (rank 0 on the primal side),
    since then the dual has no circuits at all.
    """
    if m.full_rank == 0:
        raise ValidationError("dual has no circuits; d_1 undefined")
    least = _dual_girth(m, 1, 3)
    if least is None:
        blocks = m.blocks().blocks
        parts = [b.matroid for b in blocks if b.matroid.full_rank] if len(blocks) > 1 else [m]
        least = min(_dual_girth(p, 3) for p in parts)
    return least


def _dual_girth(m: Matroid, start: int, stop: int | None = None) -> int | None:
    """The least i in [start, stop) at which m, of rank >= 1, has an i-set
    whose complement does not span, or None. A uniform profile answers at
    once, and with no stop, m one block, so does its kept size-rank table
    (``_block_size_rank``): the least i with N(n - i, r) < C(n, i). No
    circuit of the dual may be smaller than ``start``."""
    n, r, full = m.n, m.full_rank, m.full_mask
    profile = m._uniform_profile()
    if profile is not None:
        return min(k - rj + 1 for rj, k in profile if rj)
    table = m._block_size_rank() if stop is None else None
    if table is not None:
        return next(i for i in count(start) if table.get((n - i, r), 0) < comb(n, i))
    levels = count(start) if stop is None else range(start, stop)
    return next((i for i in levels if any(m.rank(full ^ s) < r for s in k_subsets(n, i))), None)
