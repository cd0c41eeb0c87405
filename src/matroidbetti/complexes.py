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

The Hochster sweep in ``betti`` needs only one degree of the complex V of
non-spanning sets of a rank-r matroid, and reads it as relative homology.
The simplex 2^sigma is acyclic and every set of fewer than r elements is a
face of V, so the long exact sequence of the pair (2^sigma, V|sigma) gives
H~_{r-2}(V|sigma) = H_{r-1}(2^sigma, V|sigma). The relative chains are the
non-faces: the bases inside sigma in degree r - 1, the spanning
(r + 1)-subsets of sigma in degree r, and none in degree r - 2, so the
homology is the number of bases minus the rank of one boundary map. Exact
sequences and the acyclicity of a simplex hold with any coefficients, so
the identity holds over every GF(p). The sweep eliminates through this
module's ``_rank``, as ``boundary_rank`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    dual matroid. Since rank*(E - sigma) = |E - sigma| + rank(sigma) - rank(E),
    that holds exactly when sigma does not span, so the faces are read off the
    rank oracle of ``m`` itself. The minimal non-faces are precisely the bases
    of ``m``, so this is the complex whose Stanley-Reisner ideal is generated
    by the basis monomials of ``m``.
    """
    r = m.full_rank
    return SimplicialComplex(m.n, lambda sigma: m.rank(sigma) < r)


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


def reduced_betti(c: SimplicialComplex, d: int, fld: PrimeField = GF2) -> int:
    """Dimension over GF(p) of the reduced homology of ``c`` in degree ``d``.

    Computed as dim ker - dim im from the two boundary maps touching degree
    d: h~_d = f_d - rank(boundary_d) - rank(boundary_{d+1}), with the faces of
    sizes d, d + 1 and d + 2 read through ``faces_of_size``.
    """
    below, chains, above = (c.faces_of_size(k) for k in (d, d + 1, d + 2))
    return (
        len(chains)
        - boundary_rank(chains, below, c.n, fld.p)
        - boundary_rank(above, chains, c.n, fld.p)
    )
