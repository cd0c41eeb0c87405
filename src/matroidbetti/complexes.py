"""Prime fields, simplicial complexes as membership oracles, and boundary ranks.

Boundary matrices are assembled with the standard orientation (vertices of
a face in ascending order; removing the j-th smallest vertex carries sign
(-1)^j) by ``linalg.pack``, and ranks are computed exactly over a prime
field. The Hochster sweep in ``betti`` eliminates through this module's
``_rank``, as ``boundary_rank`` does. The library builds no complex
itself: ``SimplicialComplex``, ``face_numbers`` and ``boundary_rank`` carry
the reference homology of the tests, and the benchmark's trace hooks wrap
them by these names.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .bitset import bits, check_ground, check_subset, k_subsets
from .linalg import gf2_rank, is_prime, modp_rank, pack


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
    closed; nothing here enforces that, but homology computed from the
    complex assumes it.
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

    def reduced_euler(self) -> int:
        """Alternating sum over all faces, empty face included with sign -1."""
        return sum((1 if k % 2 else -1) * c for k, c in enumerate(self.counts))


def face_numbers(c: SimplicialComplex) -> FVector:
    """The f-vector of the complex, computed by full enumeration."""
    return FVector(tuple(len(c.faces_of_size(k)) for k in range(c.n + 1)))


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
    and no elimination is performed. Otherwise each column is handed to
    ``linalg.pack`` with the vertices whose removal gives a face of ``rows``,
    and the packed matrix is eliminated exactly.
    """
    if not cols or not rows:
        return 0
    ck = cols[0].bit_count()
    if ck == 0:
        return 0
    if len(cols) == comb(n_vertices, ck) and len(rows) == comb(n_vertices, ck - 1):
        return comb(n_vertices - 1, ck - 1)
    faces = set(rows)
    drops = [sum(1 << e for e in bits(f) if f ^ (1 << e) in faces) for f in cols]
    return _rank(pack(zip(cols, drops), p), p)
