"""Graded Betti numbers of the basis-monomial ideal of a matroid.

The ideal generated by the basis monomials of a matroid M (its facet ideal)
is the Stanley-Reisner ideal of the Alexander dual of the dual matroid. Its
minimal free resolution is linear: step i sits in total degree rank + i, so
the whole table is determined by the vector of global Betti numbers plus the
rank.

Fine Betti numbers come from Hochster's formula. With V the Alexander dual
of the dual matroid, the multidegree-sigma entry in homological position i is
the dimension of reduced homology of the induced subcomplex V|sigma in degree
|sigma| - i - 2. This is the indexing under which a basis sigma contributes
exactly beta_{0,sigma} = 1 and the cycle matroid of a single m-cycle resolves
as 0 <- S(-(m-1))^m <- S(-m)^(m-1) <- 0.

Three independent algorithms produce the same table and are cross-checked in
the tests and the command line tool: the Hochster sweep, a block-by-block
product (convolution of the per-block global vectors), and a closed form in
elementary symmetric polynomials of cycle lengths for matroids all of whose
blocks are circuits, loops or single coloops (cycle matroids of cactus
graphs). The closed form also inverts: given a cactus Betti vector and the
number of loops, the multiset of cycle lengths is recovered exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, count
from math import comb
from operator import lshift
from typing import Callable, Iterable, Sequence

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
from .matroid import BlockPartition, Matroid


def _comb0(n: int, k: int) -> int:
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(vec: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros but always keep the index-0 entry."""
    last = 0
    for i, v in enumerate(vec):
        if v:
            last = i
    return tuple(vec[: last + 1])


@dataclass
class BettiTable:
    """A graded Betti table of a linear resolution.

    ``coarse`` maps (homological position i, total degree j) to a positive
    multiplicity; zero entries are omitted. ``global_`` lists the ungraded
    numbers beta_0, beta_1, ... (a presentation detail: the cactus closed
    form keeps indices up to the number of cycles, including trailing zeros
    contributed by loops, while the other producers trim trailing zeros).
    ``fine`` maps (i, subset mask) to multiplicities when requested.
    """

    rank_r: int
    n: int
    coarse: dict[tuple[int, int], int]
    global_: tuple[int, ...]
    fine: dict[tuple[int, int], int] | None = None

    def degrees(self) -> tuple[int, int]:
        """Smallest and largest total degree carrying a generator."""
        if not self.coarse:
            return (self.rank_r, self.rank_r)
        js = [j for _, j in self.coarse]
        return (min(js), max(js))

    def is_linear(self) -> bool:
        """True when every entry sits in total degree rank + i."""
        if any(j != self.rank_r + i for (i, j) in self.coarse):
            return False
        if self.fine is not None and any(
            s.bit_count() != self.rank_r + i for (i, s) in self.fine
        ):
            return False
        return True

    def agrees_with(self, other: "BettiTable") -> bool:
        """Cross-algorithm equality: same rank, ground size and coarse table."""
        return (
            self.rank_r == other.rank_r
            and self.n == other.n
            and self.coarse == other.coarse
        )

    def to_json_dict(self, include_fine: bool = False) -> dict:
        coarse: dict[str, dict[str, int]] = {}
        for (i, j), v in sorted(self.coarse.items()):
            coarse.setdefault(str(i), {})[str(j)] = v
        out = {
            "rank": self.rank_r,
            "n": self.n,
            "global": list(self.global_),
            "coarse": coarse,
        }
        if include_fine and self.fine is not None:
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

    ``sigma`` holds the elementary symmetric polynomials of the lengths,
    sigma_0 = 1 through sigma_t = product of the lengths.
    """

    lengths: tuple[int, ...]
    sigma: tuple[int, ...] = field(init=False)

    def __init__(self, lengths: Iterable[int]):
        ls = tuple(sorted(int(x) for x in lengths))
        if any(x < 1 for x in ls):
            raise ValidationError(f"cycle lengths must be >= 1, got {ls}")
        object.__setattr__(self, "lengths", ls)
        # Coefficients of prod_i (1 + length_i * X), built one factor at a time.
        sig = [1]
        for length in ls:
            sig = (
                [1]
                + [sig[j] + length * sig[j - 1] for j in range(1, len(sig))]
                + [length * sig[-1]]
            )
        object.__setattr__(self, "sigma", tuple(sig))

    @property
    def t(self) -> int:
        return len(self.lengths)

    @property
    def loops(self) -> int:
        return sum(1 for x in self.lengths if x == 1)


# -- Hochster sweep -----------------------------------------------------------


def _relative_homology(m: Matroid, fld: PrimeField) -> Callable[[int], int]:
    """sigma -> dim H~_{r-2}(V|sigma) over GF(p), for |sigma| >= r, as the
    number of bases inside sigma minus the rank of the boundary from the
    spanning (r + 1)-subsets of sigma onto them (see ``hochster_betti``).

    The bases are listed once (C(n, r) rank evaluations), and each spanning
    (r + 1)-set is stored with the bases among its facets and their signs.
    Per sigma, rows are numbered in the order the bases first appear among
    the columns' facets, so a matrix has at most #bases(sigma) rows; every
    basis of sigma appears, because adding any other element of sigma to it
    spans. Packed columns are never kept across sigma.
    """
    n, r, p = m.n, m.full_rank, fld.p
    bases = m.bases()
    if len(bases) == comb(n, r):
        # Every r-subset is a basis: the pair is (simplex, its (r-2)-skeleton).
        return lambda sigma: comb(sigma.bit_count() - 1, r - 1)
    is_basis = frozenset(bases)
    width = lane_width(p)
    sign = (1, p - 1)
    # T - e carries the sign (-1)^t when e is the t-th smallest element of T.
    facets: dict[int, tuple[list[int], list[int]]] = {}
    for b in bases:
        for e in bits(m.full_mask ^ b):
            t = b | (1 << e)
            rows, signs = facets.setdefault(t, ([], []))
            rows.append(b)
            signs.append(sign[(t & ((1 << e) - 1)).bit_count() & 1])

    def homology(sigma: int) -> int:
        s = sigma.bit_count()
        if s == r:
            return int(sigma in is_basis)
        members = [1 << e for e in bits(sigma)]
        outside = map(sum, combinations(members, s - r - 1))
        cols = list(filter(None, map(facets.get, map(sigma.__sub__, outside))))
        if not cols:
            return 0
        # The bases of sigma, in the order they first appear.
        found = dict.fromkeys(chain.from_iterable(rows for rows, _ in cols))
        at = dict(zip(found, count(0, width)))
        packed = [sum(map(lshift, signs, map(at.__getitem__, rows))) for rows, signs in cols]
        return len(found) - _rank(packed, p)

    return homology


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
    V|sigma). Its chains are the non-faces: the bases inside sigma in degree
    r - 1, the spanning (r + 1)-subsets of sigma in degree r, and none in
    degree r - 2, so the entry is the number of bases inside sigma minus the
    rank of one boundary map (``_relative_homology``). Exact sequences and
    the acyclicity of a simplex hold with any coefficients, so the identity
    holds over every GF(p), and the sweep still tests field independence.
    """
    n, r = m.n, m.full_rank
    if r == 0:
        # The ideal generated by the empty-set monomial is the whole ring: one
        # generator in degree zero and nothing else.
        return BettiTable(0, n, {(0, 0): 1}, (1,), {(0, 0): 1} if fine else None)
    # Greedy probe: a sane rank oracle always yields a basis; a broken one
    # would make the ideal zero and the sweep meaningless.
    if m.rank(m.greedy_basis()) != r:
        raise ValidationError("zero ideal: the rank oracle admits no basis")
    fine_map: dict[tuple[int, int], int] = {}
    coarse: dict[tuple[int, int], int] = {}
    homology = _relative_homology(m, fld)
    for i in range(n - r + 1):
        total = 0
        for sigma in k_subsets(n, r + i):
            h = homology(sigma)
            if h:
                total += h
                if fine:
                    fine_map[(i, sigma)] = h
        if total:
            coarse[(i, r + i)] = total
    glob = _trim([coarse.get((i, r + i), 0) for i in range(n - r + 1)])
    return BettiTable(r, n, coarse, glob, fine_map if fine else None)


# -- block product ------------------------------------------------------------


def block_product_betti(tables: Sequence[BettiTable]) -> BettiTable:
    """Combine per-block tables of a direct sum into the table of the whole.

    The global vector of the sum is the convolution (polynomial product) of
    the per-block global vectors; ranks and ground sizes add. Inputs must be
    linear. A single input is returned unchanged.
    """
    ts = list(tables)
    if not ts:
        raise ValueError("block_product_betti needs at least one table")
    for t in ts:
        if not t.is_linear():
            raise ValidationError(
                f"block Betti table is not linear: rank {t.rank_r}, coarse {t.coarse}"
            )
    if len(ts) == 1:
        return ts[0]
    rank = sum(t.rank_r for t in ts)
    n = sum(t.n for t in ts)
    g: list[int] = [1]
    for t in ts:
        g = _poly_mul(g, list(t.global_))
    glob = _trim(g)
    coarse = {(i, rank + i): v for i, v in enumerate(glob) if v}
    return BettiTable(rank, n, coarse, glob, None)


# -- cactus closed form -------------------------------------------------------


def cactus_betti(profile: CycleProfile | Iterable[int]) -> BettiTable:
    """Closed-form Betti table for a disjoint union of circuits (a cactus).

    With t cycles of lengths n_1..n_t and sigma_j their elementary symmetric
    polynomials,

        beta_i = sum_{j=0}^{i} (-1)^j C(t-j, i-j) sigma_{t-j},   i = 0..t.

    Loops enter as length-1 cycles and force beta_t = ... = beta_{t-l+1} = 0;
    those trailing zeros are retained so the indices run all the way to t.
    """
    if not isinstance(profile, CycleProfile):
        profile = CycleProfile(profile)
    t = profile.t
    if t == 0:
        raise ValidationError("cactus Betti numbers need at least one cycle")
    sig = profile.sigma
    beta = [
        sum(((-1) ** j) * _comb0(t - j, i - j) * sig[t - j] for j in range(i + 1))
        for i in range(t + 1)
    ]
    rank = sum(x - 1 for x in profile.lengths)
    n = sum(profile.lengths)
    coarse = {(i, rank + i): v for i, v in enumerate(beta) if v}
    return BettiTable(rank, n, coarse, tuple(beta), None)


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
    trailing zeros), so it is an explicit argument. The elementary symmetric
    polynomials are recovered by the triangular recursion

        sigma_t = beta_0,
        sigma_{t-i} = (-1)^i ( beta_i - sum_{j<i} (-1)^j C(t-j, i-j) sigma_{t-j} ),

    and the lengths are the integer roots of
    P(X) = X^t - sigma_1 X^{t-1} + ... + (-1)^t sigma_t. They are found
    largest first, each by bisection on [1, sigma_1]: when P splits over the
    reals, P(x + Y) has no negative coefficient exactly when x is at least
    its largest root, and the least such x is checked to be a root and
    divided out. Any failure along the way (a non-positive sigma,
    sigma_0 != 1, or a root that is not a positive integer) raises
    ValidationError: the vector is not a cactus Betti vector.
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
    t = len(vals) - 1 + loops

    def beta(i: int) -> int:
        return vals[i] if i < len(vals) else 0

    sig = [0] * (t + 1)  # sig[j] = sigma_j
    for i in range(t + 1):
        acc = beta(i)
        for j in range(i):
            acc -= ((-1) ** j) * _comb0(t - j, i - j) * sig[t - j]
        sig[t - i] = ((-1) ** i) * acc
        if sig[t - i] <= 0:
            raise ValidationError(
                f"not a cactus Betti vector: sigma_{t - i} = {sig[t - i]}"
            )
    if sig[0] != 1:
        raise ValidationError(f"not a cactus Betti vector: sigma_0 = {sig[0]}")

    # Monic polynomial with the sigmas as signed coefficients, little-endian:
    # coeff of X^k is (-1)^(t-k) sigma_{t-k}. Its roots are the lengths.
    poly = [((-1) ** (t - k)) * sig[t - k] for k in range(t + 1)]
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
    return CycleProfile(roots)


# -- dispatcher ---------------------------------------------------------------


def _cactus_profile(part: BlockPartition) -> tuple[list[int], int] | None:
    """Cycle lengths and coloop count when every block is a circuit, a loop
    or a single coloop; None otherwise."""
    lengths: list[int] = []
    coloops = 0
    for block in part.blocks:
        kind = block.kind
        if kind == "general":
            return None
        if kind == "coloop":
            coloops += 1
        else:
            lengths.append(block.matroid.n)  # a loop is a cycle of length 1
    return lengths, coloops


_COLOOP_TABLE = BettiTable(1, 1, {(0, 1): 1}, (1,), None)


def resolve_algorithm(m: Matroid, algorithm: str = "auto", *, fine: bool = False) -> str:
    """The concrete algorithm ``betti`` will run for this matroid.

    ``auto`` picks blocks for a decomposable matroid, the closed form when
    every block is a circuit, a loop or a single coloop, and the Hochster
    sweep otherwise. A fine-table request pins auto to hochster, the only
    producer of fine tables, and rejects the other algorithms.
    """
    if algorithm not in ("auto", "hochster", "blocks", "cactus"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if fine and algorithm not in ("auto", "hochster"):
        raise ValueError("fine tables are only produced by the hochster algorithm")
    if algorithm != "auto":
        return algorithm
    if fine:
        return "hochster"
    part = m.blocks()
    if len(part.blocks) >= 2:
        return "blocks"
    if _cactus_profile(part) is not None:
        return "cactus"
    return "hochster"


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
    info = _cactus_profile(m.blocks())
    if info is None:
        raise ValidationError(
            "cactus algorithm requires every block to be a circuit, a loop "
            "or a single coloop"
        )
    lengths, coloops = info
    if not lengths:
        # Nothing but coloops (a free matroid): a single generator.
        return BettiTable(m.full_rank, m.n, {(0, m.full_rank): 1}, (1,), None)
    table = cactus_betti(CycleProfile(lengths))
    if coloops:
        table = block_product_betti([table] + [_COLOOP_TABLE] * coloops)
    return table


# -- consistency checks and derived invariants --------------------------------


def hilbert_check_counts(
    table: BettiTable, n: int, face_counts: Sequence[int]
) -> bool:
    """Exact Hilbert-series consistency check from precomputed face counts.

    ``face_counts[k]`` is the number of k-element non-spanning subsets (the
    faces of the complex whose minimal non-faces are the bases). The
    alternating sum of the table must reproduce the numerator of the Hilbert
    series of the quotient by the ideal:

        1 - sum_i (-1)^i beta_{i,j} s^j  ==  sum_k count_k s^k (1-s)^(n-k).

    Both sides are integer polynomials and the comparison is exact. This
    entry point exists for ground sets too large to enumerate directly, where
    the caller can obtain the counts some other exact way (for a direct sum,
    say, by convolving per-block counts).
    """
    if any(j > n or j < 0 for (_, j) in table.coarse):
        return False
    if len(face_counts) > n + 1:
        raise ValueError(
            f"face_counts has {len(face_counts)} entries but the ground set "
            f"has only {n} elements"
        )
    one_minus_s = [1, -1]
    powers = [[1]]
    for _ in range(n):
        powers.append(_poly_mul(powers[-1], one_minus_s))
    lhs = [0] * (n + 1)
    for k, count in enumerate(face_counts):
        if count:
            base = powers[n - k]
            for idx, coef in enumerate(base):
                lhs[k + idx] += count * coef
    rhs = [0] * (n + 1)
    rhs[0] = 1
    for (i, j), v in table.coarse.items():
        rhs[j] -= ((-1) ** i) * v
    return lhs == rhs


def hilbert_check(table: BettiTable, m: Matroid) -> bool:
    """Exact Hilbert-series consistency check of a Betti table against ``m``,
    counting the faces of the Alexander dual of the dual matroid (the sets
    that do not span). A set of fewer than r elements never spans, so those
    C(n, k) are counted without the oracle, which is asked only about the
    sets of r or more elements. See ``hilbert_check_counts`` for the
    identity being tested."""
    n, r = m.n, m.full_rank
    counts = [
        comb(n, k) if k < r else sum(1 for s in k_subsets(n, k) if m.rank(s) < r)
        for k in range(n + 1)
    ]
    return hilbert_check_counts(table, n, counts)


def dual_min_distance(m: Matroid) -> int:
    """Smallest i at which the dual matroid has fewer than C(n, i) independent
    sets of size i; equivalently the size of the smallest circuit of the dual.

    Raises ValidationError when the dual is free (rank 0 on the primal side),
    since then the dual has no circuits at all.
    """
    n = m.n
    if m.full_rank == 0:
        raise ValidationError("dual has no circuits; d_1 undefined")
    mstar = m.dual()
    for i in range(1, n + 1):
        count = sum(1 for s in k_subsets(n, i) if mstar.rank(s) == i)
        if count != comb(n, i):
            return i
    raise ValidationError("dual has no circuits; d_1 undefined")
