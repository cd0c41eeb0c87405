"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own computational routes:
homology of the generator-subset (Taylor) complex over the rationals instead
of induced-subcomplex homology over GF(p), absolute homology of every induced
subcomplex in every degree instead of the relative chains of the diagonal
sweep (only the boundary ranks come from the library), a multi-index
convolution instead of iterated polynomial products, dense Fraction/GF(2)/
GF(p) eliminations over lists instead of the packed-integer pivoting in the
package, graph ranks by breadth-first search instead of union-find, blocks
from a union-find over every circuit instead of over the fundamental
circuits of one basis, circuits and weight hierarchies read off
every subset by their definitions instead of by circuit elimination and
cyclic flats, the degree of non-redundancy by a search over circuit
families instead of the rank, global Betti vectors read off the
Hilbert-series numerator over every degree instead of the library's map
from spanning counts, and basis counts of graphs by the matrix-tree
theorem instead of a search over edge sets. Agreement between these and
the library is therefore a genuine two-route check.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Sequence

from matroidbetti import (
    GF2,
    Matroid,
    PrimeField,
    ValidationError,
    WeightHierarchy,
    bits,
    k_subsets,
)
from matroidbetti.complexes import SimplicialComplex, boundary_rank


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Row-echelon rank over the rationals, textbook elimination."""
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        pv = mat[pivot_row][col]
        mat[pivot_row] = [x / pv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(mat):
            break
    return rank


def dense_gf2_rank(rows: list[list[int]]) -> int:
    """Dense GF(2) elimination over 0/1 lists (no bit packing)."""
    mat = [[x & 1 for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(cols):
        pivot = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                mat[r] = [(a + b) & 1 for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(mat):
            break
    return rank


def dense_modp_rank(columns: list[list[int]], p: int) -> int:
    """Textbook GF(p) elimination over lists of residues (no lane packing):
    pivot on the first nonzero entry of each column, clear it from the rest."""
    mat = [[x % p for x in col] for col in columns]
    rank = 0
    for i, col in enumerate(mat):
        lead = next((r for r, x in enumerate(col) if x), None)
        if lead is None:
            continue
        rank += 1
        inv = pow(col[lead], -1, p)
        for other in mat[i + 1 :]:
            f = other[lead] * inv % p
            if f:
                for r, x in enumerate(col):
                    other[r] = (other[r] - f * x) % p
    return rank


def _subset_lcm(gens: list[int], indices: tuple[int, ...]) -> int:
    out = 0
    for a in indices:
        out |= gens[a]
    return out


def _strand_boundary(
    cols: list[tuple[int, ...]], rows: list[tuple[int, ...]]
) -> list[list[Fraction]]:
    """Signed boundary matrix of generator subsets, restricted to one
    multidegree strand (entries for faces that leave the strand vanish)."""
    row_index = {r: i for i, r in enumerate(rows)}
    matrix = []
    for col in cols:
        vec = [Fraction(0)] * len(rows)
        for pos in range(len(col)):
            face = col[:pos] + col[pos + 1 :]
            idx = row_index.get(face)
            if idx is not None:
                vec[idx] = Fraction(-1 if pos % 2 else 1)
        matrix.append(vec)
    # fraction_rank eliminates by rows; transpose so columns become rows.
    return [list(r) for r in zip(*matrix)] if matrix and rows else []


def taylor_fine_betti(gens: list[int]) -> dict[tuple[int, int], int]:
    """Fine Betti numbers of the squarefree monomial ideal with the given
    generator masks, via rational homology of the generator-subset complex.

    The multidegree-sigma strand in homological degree j has one basis
    element per j-subset of generators with union sigma; its boundary keeps
    only faces with the same union. The ideal's beta_{i, sigma} is the
    homology of that strand in degree i + 1.
    """
    k = len(gens)
    if k == 0:
        return {}
    strands: dict[int, dict[int, list[tuple[int, ...]]]] = {}
    for j in range(k + 1):
        for indices in combinations(range(k), j):
            sigma = _subset_lcm(gens, indices)
            strands.setdefault(sigma, {}).setdefault(j, []).append(indices)
    out: dict[tuple[int, int], int] = {}
    for sigma, by_j in strands.items():
        if sigma == 0:
            continue
        for j in sorted(by_j):
            if j == 0:
                continue
            mid = by_j[j]
            lo = by_j.get(j - 1, [])
            hi = by_j.get(j + 1, [])
            rank_down = fraction_rank(_strand_boundary(mid, lo)) if lo else 0
            rank_up = fraction_rank(_strand_boundary(hi, mid)) if hi else 0
            h = len(mid) - rank_down - rank_up
            assert h >= 0
            if h:
                out[(j - 1, sigma)] = h
    return out


def taylor_global_betti(gens: list[int]) -> tuple[int, ...]:
    fine = taylor_fine_betti(gens)
    if not fine:
        return ()
    top = max(i for i, _ in fine)
    vec = [0] * (top + 1)
    for (i, _), v in fine.items():
        vec[i] += v
    return tuple(vec)


def convolve_naive(vectors: list[list[int]]) -> list[int]:
    """Multi-index convolution: out[i] = sum over u_1+...+u_t = i of the
    entry products. Independent of the pairwise polynomial product used in
    the package."""
    if not vectors:
        return [1]
    out = [0] * (sum(len(v) - 1 for v in vectors) + 1)
    for combo in product(*[range(len(v)) for v in vectors]):
        term = 1
        for vec, u in zip(vectors, combo):
            term *= vec[u]
        out[sum(combo)] += term
    return out


def minplus_naive(parts: list[list[int]]) -> list[int]:
    """Min-plus convolution of weight lists (each implicitly prefixed with
    d_0 = 0), by explicit enumeration of index splits."""
    padded = [[0] + list(p) for p in parts]
    size = sum(len(p) - 1 for p in padded)
    best = [None] * (size + 1)
    for combo in product(*[range(len(p)) for p in padded]):
        total = sum(p[u] for p, u in zip(padded, combo))
        i = sum(combo)
        if best[i] is None or total < best[i]:
            best[i] = total
    return [b for b in best[1:]]


def graph_rank(vertex_count: int, edges, mask: int) -> int:
    """Rank of an edge subset in the cycle matroid, as the number of vertices
    its edges touch minus the number of connected components they form,
    found by breadth-first search."""
    chosen = [edges[e] for e in bits(mask)]
    adjacent: dict[int, set[int]] = {}
    for u, v in chosen:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    components = 0
    seen: set[int] = set()
    for start in adjacent:
        if start in seen:
            continue
        components += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            for w in adjacent[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return len(adjacent) - components


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by Bareiss's fraction-free
    elimination (Math. Comp. 22, 1968): every division is exact."""
    a = [row[:] for row in matrix]
    size, sign, previous = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // previous
        previous = a[k][k]
    return sign * a[-1][-1] if size else 1


def matrix_tree_count(vertex_count: int, edges) -> int:
    """The number of bases (spanning forests) of the cycle matroid of a
    multigraph, by Kirchhoff's matrix-tree theorem: the determinant of its
    Laplacian (loops left out, parallel edges counted) with the row and
    column of one vertex of each component struck out, which multiplies the
    spanning-tree counts of the components."""
    laplacian = [[0] * vertex_count for _ in range(vertex_count)]
    for u, v in edges:
        if u != v:
            laplacian[u][u] += 1
            laplacian[v][v] += 1
            laplacian[u][v] -= 1
            laplacian[v][u] -= 1
    roots: set[int] = set()
    seen: set[int] = set()
    for start in range(vertex_count):
        if start in seen:
            continue
        roots.add(start)
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in range(vertex_count):
                if laplacian[u][w] and w not in seen:
                    seen.add(w)
                    queue.append(w)
    keep = [w for w in range(vertex_count) if w not in roots]
    return bareiss_determinant([[laplacian[i][j] for j in keep] for i in keep])


def circuit_blocks(m: Matroid) -> tuple[int, ...]:
    """Block masks of ``m``, ordered by smallest element, from the defining
    relation: e and f share a block when some circuit contains both."""
    parent = list(range(m.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for c in m.circuits():
        first = (c & -c).bit_length() - 1
        for e in bits(c):
            parent[find(e)] = find(first)
    groups: dict[int, int] = {}
    for e in range(m.n):
        groups[find(e)] = groups.get(find(e), 0) | (1 << e)
    return tuple(sorted(groups.values(), key=lambda g: g & -g))


def dual_alexander_complex(m: Matroid) -> SimplicialComplex:
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


def reduced_betti(c: SimplicialComplex, d: int, fld: PrimeField = GF2) -> int:
    """Dimension over GF(p) of the reduced homology of ``c`` in degree ``d``.

    Conventions:

    * The empty set is a face of every complex except the void complex, which
      has no faces at all.
    * A face with k elements spans chain degree k - 1, so the complex whose
      only face is the empty set has a one-dimensional chain group in degree
      -1 and reduced homology of dimension 1 there.
    * The void complex has vanishing reduced homology in every degree, and
      any degree outside -1..dim gives 0 rather than an error.
    * The chain complex includes the augmentation, so h~_0 of k isolated
      points is k - 1.

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


def induced(c: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """The induced subcomplex of ``c`` on the vertex subset ``sigma``,
    relabelled to 0..|sigma|-1; ``labels`` maps new vertices to old ones."""
    members = tuple(bits(sigma))

    def oracle(sub: int) -> bool:
        return c.is_face(sum(1 << members[i] for i in bits(sub)))

    return SimplicialComplex(len(members), oracle, labels=members)


def absolute_betti(m: Matroid, fld: PrimeField = GF2) -> dict[tuple[int, int], int]:
    """The fine Betti numbers of the basis-monomial ideal of ``m``, from
    Hochster's formula read in absolute homology: every pair (i, sigma) with
    h~_{|sigma|-i-2}(V|sigma) nonzero, V the non-spanning complex, mapped to
    that dimension.

    No degree is assumed: every sigma and every homological position is
    visited, so a key with |sigma| != rank + i would show homology off the
    diagonal that the library's sweep never visits.
    """
    n = m.n
    if m.full_rank == 0:
        return {(0, 0): 1}
    V = dual_alexander_complex(m)
    fine: dict[tuple[int, int], int] = {}
    for sigma in range(1, 1 << n):
        sub = induced(V, sigma)
        s = sigma.bit_count()
        for i in range(s):
            h = reduced_betti(sub, s - i - 2, fld)
            if h:
                fine[(i, sigma)] = h
    return fine


def euler_fine_betti(m: Matroid) -> dict[int, int]:
    """The nonzero fine Betti numbers of the basis-monomial ideal of ``m``,
    keyed by sigma alone, from the Euler-characteristic form of Hochster's
    formula: beta_{|sigma| - r, sigma} = |sum of (-1)^|tau| over spanning tau
    in sigma|.

    The resolution is linear, so V|sigma (V the complex of non-spanning sets)
    has homology in one degree only and its dimension is the absolute reduced
    Euler characteristic; the sum over all subsets of a nonempty sigma
    vanishes, so the sum over faces is minus the sum over spanning sets. One
    subset-sum transform over the 2^n subsets gives every sigma at once, with
    no linear algebra.
    """
    n, r = m.n, m.full_rank
    g = [
        (-1) ** k if k >= r and m.rank(tau) == r else 0
        for tau, k in ((tau, tau.bit_count()) for tau in range(1 << n))
    ]
    for e in range(n):
        bit = 1 << e
        for base in range(0, 1 << n, bit << 1):
            for sigma in range(base + bit, base + (bit << 1)):
                g[sigma] += g[sigma - bit]
    return {sigma: abs(v) for sigma, v in enumerate(g) if v}


def hilbert_global(n: int, r: int, spanning: list[int]) -> tuple[int, ...]:
    """beta_0 .. beta_{n-r} read off the Hilbert series of the quotient by
    the basis-monomial ideal of a rank-r matroid on n elements, of which
    ``spanning[k]`` k-sets span. The non-spanning sets are the faces of the
    complex of the ideal, f_k = C(n, k) - spanning[k] in size k, so the
    numerator of the Hilbert series is sum_k f_k s^k (1 - s)^(n - k); a
    linear resolution makes it 1 - sum_i (-1)^i beta_i s^(r+i), and every
    coefficient below s^r but the constant 1 must vanish."""
    f = [comb(n, k) - c for k, c in enumerate(spanning)]
    h = [
        sum((-1) ** (j - k) * comb(n - k, j - k) * f[k] for k in range(j + 1))
        for j in range(n + 1)
    ]
    h[0] -= 1
    assert not any(h[:r]), f"Hilbert numerator has terms below degree {r}: {h[:r]}"
    return tuple((-1) ** (i + 1) * h[r + i] for i in range(n - r + 1))


def brute_circuits(m: Matroid) -> tuple[int, ...]:
    """Every minimal dependent set of ``m``, by testing each nonempty subset
    and each of its one-element deletions; ordered by size, then mask."""
    out = []
    for k in range(1, m.n + 1):
        for s in k_subsets(m.n, k):
            if m.rank(s) < k and all(m.rank(s ^ (1 << e)) == k - 1 for e in bits(s)):
                out.append(s)
    return tuple(out)


def sweep_weights(m: Matroid) -> WeightHierarchy:
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
