"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own computational routes:
homology of the generator-subset (Taylor) complex over the rationals instead
of induced-subcomplex homology over GF(p), a multi-index convolution instead
of iterated polynomial products, and dense Fraction/GF(2)/GF(p) eliminations
over lists instead of the packed-integer pivoting in the package, and blocks
from a union-find over every circuit instead of over the fundamental circuits
of one basis. Agreement between these and the library is therefore a genuine
two-route check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from matroidbetti import Matroid, SimplicialComplex, bits


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


def induced(c: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """The induced subcomplex of ``c`` on the vertex subset ``sigma``,
    relabelled to 0..|sigma|-1; ``labels`` maps new vertices to old ones."""
    members = tuple(bits(sigma))

    def oracle(sub: int) -> bool:
        return c.is_face(sum(1 << members[i] for i in bits(sub)))

    return SimplicialComplex(len(members), oracle, labels=members)
