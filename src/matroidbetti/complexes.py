"""Simplicial complexes as membership oracles, with exact reduced homology.

Conventions used throughout the package:

* The empty set is a face of every complex except the void complex, which
  has no faces at all.
* A face with k elements spans chain degree k - 1, so the complex whose only
  face is the empty set has a one-dimensional chain group in degree -1 and
  reduced homology of dimension 1 there.
* The void complex has vanishing reduced homology in every degree, and
  ``reduced_betti`` returns 0 for any degree outside -1..dim rather than
  erroring.
* The chain complex includes the augmentation, so ``h~_0`` of k isolated
  points is k - 1.

Boundary matrices are assembled with the standard orientation (vertices of
a face in ascending order; removing the j-th smallest vertex carries sign
(-1)^j), one packed int per column in the lane format of ``linalg``, and
ranks are computed exactly over a prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, count
from math import comb
from typing import Callable, Sequence

from .bitset import bits, check_ground, check_subset, k_subsets
from .linalg import gf2_rank, is_prime, lane_width, modp_rank


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p. The package default is GF(2).

    A non-prime order raises ValueError, and so does any order at or above
    ``linalg.PRIME_TEST_BOUND``, where primality is no longer decided.
    """

    p: int = 2

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p!r}")


GF2 = PrimeField(2)


class SimplicialComplex:
    """An abstract simplicial complex on vertices 0..n-1, given by an oracle.

    The oracle answers "is this mask a face". Answers are cached, and faces
    are enumerated per cardinality on demand. The oracle must be downward
    closed; nothing here enforces that, but the homology routines assume it.
    """

    __slots__ = ("n", "labels", "_oracle", "_cache", "_by_size")

    def __init__(
        self,
        n: int,
        face_oracle: Callable[[int], bool],
        labels: tuple[int, ...] | None = None,
    ):
        check_ground(n)
        self.n = n
        self.labels = labels
        self._oracle = face_oracle
        self._cache: dict[int, bool] = {}
        self._by_size: dict[int, tuple[int, ...]] = {}

    def is_face(self, mask: int) -> bool:
        check_subset(mask, self.n)
        v = self._cache.get(mask)
        if v is None:
            v = bool(self._oracle(mask))
            self._cache[mask] = v
        return v

    @property
    def is_void(self) -> bool:
        """True when the complex has no faces at all, not even the empty set."""
        return not self.is_face(0)

    def faces_of_size(self, k: int) -> tuple[int, ...]:
        """All faces with exactly k elements, ascending by mask value."""
        if k < 0 or k > self.n:
            return ()
        got = self._by_size.get(k)
        if got is None:
            got = tuple(s for s in k_subsets(self.n, k) if self.is_face(s))
            self._by_size[k] = got
        return got

    def induced(self, sigma: int) -> "SimplicialComplex":
        """The induced subcomplex on the vertex subset ``sigma``, relabelled.

        ``labels`` on the result maps new vertex indices to old ones.
        """
        check_subset(sigma, self.n)
        members = tuple(bits(sigma))

        def oracle(sub: int) -> bool:
            m = 0
            for i in bits(sub):
                m |= 1 << members[i]
            return self.is_face(m)

        return SimplicialComplex(len(members), oracle, labels=members)


@dataclass(frozen=True)
class FVector:
    """Face counts by cardinality: ``counts[k]`` is the number of k-element faces."""

    counts: tuple[int, ...]

    def f(self, dim: int) -> int:
        """Number of faces of the given dimension (f_{-1} counts the empty face)."""
        k = dim + 1
        if 0 <= k < len(self.counts):
            return self.counts[k]
        return 0

    def reduced_euler(self) -> int:
        """Alternating sum over all faces, empty face included with sign -1."""
        return sum((1 if k % 2 else -1) * c for k, c in enumerate(self.counts))


def face_numbers(c: SimplicialComplex) -> FVector:
    """The f-vector of the complex, computed by full enumeration."""
    return FVector(tuple(len(c.faces_of_size(k)) for k in range(c.n + 1)))


def dual_alexander_complex(m) -> SimplicialComplex:
    """The Alexander dual of the dual matroid of ``m``, as a complex on E.

    A subset sigma is a face exactly when its complement is dependent in the
    dual matroid. The minimal non-faces are precisely the bases of ``m``, so
    this is the complex whose Stanley-Reisner ideal is generated by the basis
    monomials of ``m``.
    """
    mstar = m.dual()
    full = m.full_mask

    def oracle(sigma: int) -> bool:
        co = full ^ sigma
        return mstar.rank(co) < co.bit_count()

    return SimplicialComplex(m.n, oracle)


def _rank(columns: list[int], p: int) -> int:
    return gf2_rank(columns) if p == 2 else modp_rank(columns, p)


def boundary_rank(
    cols: Sequence[int], rows: Sequence[int], n_vertices: int, p: int = 2
) -> int:
    """Rank of one simplicial boundary map over GF(p).

    ``cols`` are the faces spanning the source (all of one cardinality k) and
    ``rows`` the faces spanning the target (cardinality k - 1), both as masks
    over the same vertex set of size ``n_vertices``. Facets missing from
    ``rows`` are left out of the matrix.

    When both levels are complete skeleta of the simplex (face counts equal
    the binomials), the rank is the classical value C(n_vertices - 1, k - 1)
    and no elimination is performed. Otherwise each column is packed into
    one int in the ``linalg`` lane format, with coefficient 1 or p - 1 by the
    parity of the removed vertex's position, and eliminated exactly.
    """
    if not cols or not rows:
        return 0
    ck = cols[0].bit_count()
    if ck == 0:
        return 0
    if len(cols) == comb(n_vertices, ck) and len(rows) == comb(n_vertices, ck - 1):
        return comb(n_vertices - 1, ck - 1)
    width = lane_width(p)
    row_at = {f: i * width for i, f in enumerate(rows)}
    sign = (1, p - 1)
    packed = []
    for f in cols:
        v = 0
        for t, e in enumerate(bits(f)):
            at = row_at.get(f ^ (1 << e))
            if at is not None:
                v |= sign[t & 1] << at
        packed.append(v)
    return _rank(packed, p)


class InducedHomology:
    """Reduced homology in one degree d of the induced subcomplexes c|sigma.

    Made once per sweep and called once per sigma. Degree d touches the
    faces of sizes d + 1 (the chains) and d + 2 (the boundaries into them);
    both levels are read once, through ``faces_of_size``. A level that holds
    every k-subset of the ground set holds every k-subset of each sigma, so
    it is taken whole; any other level is matched per sigma by walking the
    k-subsets of sigma and looking each up in the level's face set. Faces of
    c|sigma are named by their position among the k-subsets of sigma, so no
    ``is_face`` call is made per sigma. Because c is downward closed, every
    facet of a face is a face: rows are indexed by position among all
    (k - 1)-subsets of sigma, and the size d level is never read.

    Boundary columns are built in sigma-local coordinates from a table of
    facet row offsets, made once per (|sigma|, k) and shared by every sigma
    of that size (C(s, k) * k small ints); only the tables of the latest
    |sigma| are kept, since a sweep visits sigma by size. Packed columns are
    rebuilt per sigma and never cached, because together they would grow as
    C(s, k) * C(s, k - 1).
    """

    def __init__(self, c: SimplicialComplex, d: int, fld: PrimeField = GF2):
        self._d = d
        self._p = fld.p
        self._width = lane_width(fld.p)
        self._sign = (1, fld.p - 1)
        self._levels = [(k, self._level(c, k)) for k in (d + 1, d + 2)]
        self._table_size = -1
        self._tables: dict[int, list[tuple[int, ...]]] = {}

    @staticmethod
    def _level(c: SimplicialComplex, k: int) -> frozenset[int] | None:
        """The k-faces of c, or None when every k-subset is a face."""
        if k < 0:
            return frozenset()
        faces = c.faces_of_size(k)
        return None if len(faces) == comb(c.n, k) else frozenset(faces)

    def __call__(self, sigma: int) -> int:
        s = sigma.bit_count()
        # Walking a descending member list, combinations() yields the
        # k-subsets of sigma in descending mask order, the tables' order.
        members = [1 << e for e in bits(sigma)][::-1]
        mid, hi = (self._within(members, k, level) for k, level in self._levels)
        k = self._d + 1
        n_mid = comb(s, k) if mid is None else len(mid)
        if not n_mid:
            return 0
        return n_mid - self._boundary_rank(s, k, mid) - self._boundary_rank(s, k + 1, hi)

    @staticmethod
    def _within(members: list[int], k: int, level: frozenset[int] | None) -> list[int] | None:
        """Positions of the k-faces among the k-subsets of sigma (None: all)."""
        if level is None:
            return None
        if not level:
            return []
        in_level = map(level.__contains__, map(sum, combinations(members, k)))
        return list(compress(count(), in_level))

    def _boundary_rank(self, s: int, k: int, cols: list[int] | None) -> int:
        """Rank of the boundary from the k-faces of c|sigma at positions
        ``cols`` (None: all of them) to the (k - 1)-faces, with |sigma| = s."""
        if k <= 0:
            return 0
        every = comb(s, k)
        if cols is None or len(cols) == every:
            return comb(s - 1, k - 1) if every else 0
        if not cols:
            return 0
        if s != self._table_size:
            self._tables.clear()
            self._table_size = s
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = self._facet_table(s, k)
        sign = self._sign
        packed = []
        for j in cols:
            v = 0
            for t, at in enumerate(table[j]):
                v |= sign[t & 1] << at
            packed.append(v)
        return _rank(packed, self._p)

    def _facet_table(self, s: int, k: int) -> list[tuple[int, ...]]:
        """For each k-subset of range(s), in descending mask order, the bit
        offsets of its k facets' rows; entry t drops the t-th smallest
        vertex, so it carries the sign (-1)^t. Rows are in descending mask
        order too, so eliminations that pivot on the top lane start from the
        facet that drops the largest vertex."""
        width = self._width
        row_at = {f: i * width for i, f in enumerate(k_subsets(s, k - 1)[::-1])}
        return [tuple(row_at[f ^ (1 << e)] for e in bits(f)) for f in k_subsets(s, k)[::-1]]


def reduced_betti(c: SimplicialComplex, d: int, fld: PrimeField = GF2) -> int:
    """Dimension over GF(p) of the reduced homology of ``c`` in degree ``d``.

    Computed as dim ker - dim im from the two boundary maps touching degree
    d: h~_d = f_d - rank(boundary_d) - rank(boundary_{d+1}), by the same
    kernel that the Hochster sweep runs on each induced subcomplex.
    """
    return InducedHomology(c, d, fld)((1 << c.n) - 1)
