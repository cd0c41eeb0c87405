"""Reference answers computed without the library, and the answer checker.

Nothing here imports ``matroidbetti``: the expected answers come from a
rank oracle of the benchmark's own and from the paper's closed identities,
so a defect in the library cannot make its own answers look right.

* Betti tables use the Euler-characteristic form of Hochster's formula. The
  resolution is linear, so the homology of the induced complex on a subset
  sigma sits in one degree and its rank is (-1)^r times the signed count of
  spanning subsets of sigma. The coarse table follows from the counts s_k of
  spanning sets of each size:
  beta_i = (-1)^r * sum_k (-1)^k * C(n - k, r + i - k) * s_k.
  The fine table is the subset-sum (zeta) transform of the signed spanning
  indicator.
* Direct sums convolve the per-block global vectors, a cycle of length m
  contributes (m, m - 1), and a bridge or a loop contributes (1).
* Weights are the smallest sizes of subsets of each nullity. They are found
  per block by brute force, combined by min-plus convolution, and given by
  prefix sums of the sorted cycle lengths for a cactus.
* The dual minimum distance is the smallest number of elements whose
  removal lowers the rank.

``check`` compares what the CLI printed with an expected answer by
mathematical content only: the exit code, the coarse and fine tables, the
global vector without trailing zeros, weights, d1, block element lists and
cactus lengths. JSON members it does not know are ignored.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb
from typing import Callable, Sequence

RankFn = Callable[[int], int]


def graph_rank(vertices: int, edges: Sequence[tuple[int, int]]) -> RankFn:
    """Cycle-matroid rank of an edge subset (0-indexed vertices)."""

    def rank(mask: int) -> int:
        parent = list(range(vertices))
        r = 0
        e = 0
        while mask:
            if mask & 1:
                u, v = edges[e]
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    r += 1
            mask >>= 1
            e += 1
        return r

    return rank


def spanning_trees(vertices: int, edges: Sequence[tuple[int, int]]) -> int:
    """Number of bases of the cycle matroid of a connected graph."""
    rank = graph_rank(vertices, edges)
    count = 0
    for combo in combinations(range(len(edges)), vertices - 1):
        mask = 0
        for e in combo:
            mask |= 1 << e
        if rank(mask) == vertices - 1:
            count += 1
    return count


def uniform_rank(r: int) -> RankFn:
    return lambda mask: min(r, mask.bit_count())


def _trim(vec: Sequence[int]) -> list[int]:
    out = list(vec)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _table(rank: int, n: int, glob: Sequence[int], fine: dict | None = None) -> dict:
    coarse: dict[str, dict[str, int]] = {}
    for i, v in enumerate(glob):
        if v:
            coarse[str(i)] = {str(rank + i): v}
    table = {"rank": rank, "n": n, "global": _trim(glob), "coarse": coarse}
    if fine is not None:
        table["fine"] = fine
    return table


def euler_betti(n: int, rank: RankFn, fine: bool = False) -> dict:
    """Betti table of the basis ideal of the matroid (n, rank) in the JSON
    shape the CLI prints, from signed spanning-set counts."""
    full = (1 << n) - 1
    r = rank(full)
    if r == 0:
        return _table(0, n, [1], {"0": {"": 1}} if fine else None)
    sign_r = -1 if r % 2 else 1
    counts = [0] * (n + 1)
    signed = [0] * (1 << n) if fine else None
    for mask in range(1 << n):
        k = mask.bit_count()
        if k >= r and rank(mask) == r:
            counts[k] += 1
            if fine:
                signed[mask] = -1 if k % 2 else 1
    glob = []
    for i in range(n - r + 1):
        glob.append(
            sign_r
            * sum(
                (-1 if k % 2 else 1) * comb(n - k, r + i - k) * counts[k]
                for k in range(r, r + i + 1)
            )
        )
    fine_map = None
    if fine:
        for b in range(n):
            bit = 1 << b
            for mask in range(1 << n):
                if mask & bit:
                    signed[mask] += signed[mask ^ bit]
        fine_map = {}
        for mask in range(1 << n):
            h = sign_r * signed[mask]
            if h:
                i = mask.bit_count() - r
                key = ",".join(str(e) for e in range(n) if mask >> e & 1)
                fine_map.setdefault(str(i), {})[key] = h
    return _table(r, n, glob, fine_map)


def convolve(vectors: Sequence[Sequence[int]]) -> list[int]:
    out = [1]
    for vec in vectors:
        nxt = [0] * (len(out) + len(vec) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(vec):
                nxt[i + j] += x * y
        out = nxt
    return out


def sum_table(parts: Sequence[dict]) -> dict:
    """Betti table of a direct sum from the tables of its blocks."""
    rank = sum(p["rank"] for p in parts)
    n = sum(p["n"] for p in parts)
    return _table(rank, n, convolve([p["global"] for p in parts]))


def cactus_table(lengths: Sequence[int], bridges: int) -> dict:
    """Closed form for a cactus: one (m, m - 1) factor per cycle of length
    m >= 2; loops and bridges contribute a factor 1."""
    cycles = [m for m in lengths if m >= 2]
    rank = sum(m - 1 for m in cycles) + bridges
    n = sum(lengths) + bridges
    return _table(rank, n, convolve([(m, m - 1) for m in cycles]))


def uniform_table(r: int, n: int) -> dict:
    glob = [comb(n, r + i) * comb(r + i - 1, i) for i in range(n - r + 1)]
    return _table(r, n, glob)


def weights(n: int, rank: RankFn) -> list[int]:
    """Smallest subset size of each nullity 1..n-r, by brute force."""
    corank = n - rank((1 << n) - 1)
    best = [0] * (corank + 1)
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        nul = k - rank(mask)
        if nul and (not best[nul] or k < best[nul]):
            best[nul] = k
    return best[1:]


def min_plus(parts: Sequence[Sequence[int]]) -> list[int]:
    conv = [0]
    for part in parts:
        cur = [0, *part]
        out = [None] * (len(conv) + len(cur) - 1)
        for a, x in enumerate(conv):
            for b, y in enumerate(cur):
                if out[a + b] is None or x + y < out[a + b]:
                    out[a + b] = x + y
        conv = out
    return conv[1:]


def cactus_weights(lengths: Sequence[int]) -> list[int]:
    out, acc = [], 0
    for m in sorted(lengths):
        acc += m
        out.append(acc)
    return out


def dual_d1(n: int, rank: RankFn) -> int | None:
    """Fewest elements whose removal lowers the rank; None for rank 0."""
    full = (1 << n) - 1
    r = rank(full)
    if r == 0:
        return None
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            s = 0
            for e in combo:
                s |= 1 << e
            if rank(full ^ s) < r:
                return k
    return None


def cactus_sigma(global_betti: Sequence[int], loops: int) -> list[int] | None:
    """Elementary symmetric polynomials recovered from a cactus Betti vector,
    or None when the recursion already shows there is no preimage."""
    vals = _trim(global_betti)
    t = len(vals) - 1 + loops
    sig = [0] * (t + 1)
    for i in range(t + 1):
        acc = vals[i] if i < len(vals) else 0
        for j in range(i):
            acc -= (-1) ** j * comb(t - j, i - j) * sig[t - j]
        sig[t - i] = (-1) ** i * acc
        if sig[t - i] <= 0:
            return None
    return sig if sig[0] == 1 else None


# -- the checker ---------------------------------------------------------------


def _table_diff(got: dict, want: dict) -> str | None:
    for key in ("rank", "n", "coarse"):
        if got.get(key) != want[key]:
            return f"table {key}: got {got.get(key)!r}, want {want[key]!r}"
    if _trim(got.get("global", [])) != want["global"]:
        return f"table global: got {got.get('global')!r}, want {want['global']!r}"
    if "fine" in want and got.get("fine") != want["fine"]:
        return "table fine differs"
    return None


def check(want: dict, code: int, out: str) -> str | None:
    """None when the CLI's exit code and output carry the expected answer,
    else a one-line reason."""
    if code != want["exit"]:
        return f"exit code {code}, want {want['exit']}"
    if code != 0:
        return None
    try:
        got = json.loads(out)
    except ValueError:
        return "output is not one JSON document"
    kind = want["kind"]
    if got.get("command") != kind:
        return f"command {got.get('command')!r}, want {kind!r}"
    if kind == "betti":
        return _table_diff(got.get("table", {}), want["table"])
    if kind == "weights":
        return None if got.get("d") == want["d"] else f"d: got {got.get('d')}, want {want['d']}"
    if kind == "dual-d1":
        return None if got.get("d1") == want["d1"] else f"d1: got {got.get('d1')}, want {want['d1']}"
    if kind == "blocks":
        rows = sorted([b.get("elements"), b.get("kind")] for b in got.get("blocks", []))
        return None if rows == want["blocks"] else f"blocks: got {rows}, want {want['blocks']}"
    if kind == "cactus":
        if got.get("is_cactus") != want["is_cactus"]:
            return f"is_cactus: got {got.get('is_cactus')}, want {want['is_cactus']}"
        if not want["is_cactus"]:
            off = sorted(got.get("offending", []))
            return None if off == want["offending"] else f"offending: got {off}"
        if sorted(got.get("profile", [])) != want["profile"]:
            return f"profile: got {got.get('profile')}, want {want['profile']}"
        if got.get("d") != want["d"]:
            return f"d: got {got.get('d')}, want {want['d']}"
        return _table_diff(got.get("table", {}), want["table"])
    if kind == "invert":
        if sorted(got.get("lengths", [])) != want["lengths"]:
            return f"lengths: got {got.get('lengths')}, want {want['lengths']}"
        if _trim(got.get("roundtrip", [])) != want["roundtrip"]:
            return f"roundtrip: got {got.get('roundtrip')}"
        return None
    if kind == "verify-paper":
        if got.get("failed") != 0 or got.get("total", 0) < want["min_checks"]:
            return f"verify-paper: {got.get('failed')} of {got.get('total')} failed"
        return None
    return f"unknown answer kind {kind!r}"
