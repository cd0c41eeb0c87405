"""Simplicial complexes and exact homology over prime fields."""

import random
from math import comb

import pytest

from matroidbetti import (
    GF2,
    PrimeField,
    SimplicialComplex,
    boundary_rank,
    dual_alexander_complex,
    face_numbers,
    mask_of,
    reduced_betti,
    uniform,
)

from matroidbetti.linalg import (
    PRIME_TEST_BOUND,
    is_prime,
    lane_layout,
    lane_width,
    modp_rank,
)

from oracles import dense_gf2_rank, dense_modp_rank, induced
from util import graph_matroid, two_triangles

GF3 = PrimeField(3)


def from_facets(n, facets):
    masks = [mask_of(f) for f in facets]

    def oracle(sigma):
        return any(sigma & ~f == 0 for f in masks)

    return SimplicialComplex(n, oracle)


def test_prime_field_validation():
    assert PrimeField(2).p == 2
    assert PrimeField(13).p == 13
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_primality_is_exact_and_bounded():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial_division(n) for n in range(-3, 20000))
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # strong pseudoprimes to every prime base up to 31 and up to 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    for too_big in (PRIME_TEST_BOUND, 10**29 + 1, 2**127 - 1):
        with pytest.raises(ValueError):
            PrimeField(too_big)


def test_faces_of_size_and_induced():
    c = from_facets(4, [(0, 1, 2), (2, 3)])
    assert c.faces_of_size(0) == (0,)
    assert c.faces_of_size(1) == (1, 2, 4, 8)
    assert c.faces_of_size(2) == (
        mask_of((0, 1)),
        mask_of((0, 2)),
        mask_of((1, 2)),
        mask_of((2, 3)),
    )
    assert c.faces_of_size(3) == (mask_of((0, 1, 2)),)
    assert c.faces_of_size(4) == ()
    ind = induced(c, mask_of((0, 1, 3)))
    assert ind.n == 3
    assert ind.labels == (0, 1, 3)
    # inside {0,1,3} the faces are 0, 1, 3 and the edge {0,1}
    assert ind.faces_of_size(2) == (0b011,)


def test_homology_conventions():
    # the empty complex {[]} has reduced homology only in degree -1
    empty = from_facets(3, [()])
    assert reduced_betti(empty, -1) == 1
    assert reduced_betti(empty, 0) == 0
    # the void complex (no faces at all) has none anywhere
    void = SimplicialComplex(3, lambda s: False)
    assert void.is_void
    assert reduced_betti(void, -1) == 0
    assert reduced_betti(void, 0) == 0
    # a single point is acyclic
    point = from_facets(1, [(0,)])
    for d in (-1, 0, 1):
        assert reduced_betti(point, d) == 0
    # two points: one reduced 0-class
    two = from_facets(2, [(0,), (1,)])
    assert reduced_betti(two, 0) == 1
    assert reduced_betti(two, -1) == 0
    # out-of-range degrees are zero, not errors
    assert reduced_betti(two, -2) == 0
    assert reduced_betti(two, 5) == 0


def test_circle_and_sphere():
    # boundary of a triangle: a circle
    circle = from_facets(3, [(0, 1), (1, 2), (0, 2)])
    assert reduced_betti(circle, 0) == 0
    assert reduced_betti(circle, 1) == 1
    # boundary of a tetrahedron: a 2-sphere
    sphere = from_facets(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert reduced_betti(sphere, 1) == 0
    assert reduced_betti(sphere, 2) == 1
    assert reduced_betti(sphere, 2, GF3) == 1


def rp2():
    # the 6-vertex triangulation of the real projective plane: 10 triangles,
    # every one of the 15 edges shared by exactly two of them
    facets = [
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 4),
        (0, 4, 5),
        (0, 1, 5),
        (1, 2, 4),
        (1, 3, 4),
        (1, 3, 5),
        (2, 3, 5),
        (2, 4, 5),
    ]
    return from_facets(6, facets)


def test_field_dependence_projective_plane():
    c = rp2()
    # f-vector sanity: 6 vertices, 15 edges, 10 triangles
    fv = face_numbers(c)
    assert fv.counts[1] == 6
    assert fv.counts[2] == 15
    assert fv.counts[3] == 10
    # 2-torsion: homology differs between characteristic 2 and 3
    assert reduced_betti(c, 1, GF2) == 1
    assert reduced_betti(c, 2, GF2) == 1
    assert reduced_betti(c, 1, GF3) == 0
    assert reduced_betti(c, 2, GF3) == 0


def test_euler_characteristic_identity():
    # alternating sum of reduced homology equals the reduced Euler
    # characteristic over any field
    rng = random.Random(5)
    complexes = [
        rp2(),
        from_facets(5, [(0, 1, 2), (2, 3), (3, 4), (1, 3)]),
        dual_alexander_complex(uniform(2, 5)),
        dual_alexander_complex(graph_matroid(5, two_triangles().edges)),
    ]
    def signed_homology_sum(c, fld):
        return sum(
            (-1 if d % 2 else 1) * reduced_betti(c, d, fld) for d in range(-1, c.n)
        )

    for c in complexes:
        fv = face_numbers(c)
        for fld in (GF2, GF3):
            assert signed_homology_sum(c, fld) == fv.reduced_euler()
        # and on a few induced subcomplexes
        for _ in range(5):
            ind = induced(c, rng.randrange(1 << c.n))
            assert signed_homology_sum(ind, GF2) == face_numbers(ind).reduced_euler()


def test_dual_alexander_faces_are_nonspanning_sets():
    for m in (
        uniform(2, 4),
        uniform(0, 3),
        uniform(3, 3),
        graph_matroid(5, two_triangles().edges),
    ):
        V = dual_alexander_complex(m)
        r = m.full_rank
        mstar = m.dual()
        full = m.full_mask
        for s in range(1 << m.n):
            by_rank = m.rank(s) < r
            by_dual = mstar.rank(full ^ s) < (full ^ s).bit_count()
            assert by_rank == by_dual
            assert V.is_face(s) == by_rank


def test_dual_alexander_minimal_nonfaces_are_bases():
    m = graph_matroid(5, two_triangles().edges)
    V = dual_alexander_complex(m)
    minimal_nonfaces = []
    for s in range(1, 1 << m.n):
        if not V.is_face(s):
            if all(V.is_face(s ^ (1 << e)) for e in range(m.n) if s & (1 << e)):
                minimal_nonfaces.append(s)
    assert sorted(minimal_nonfaces) == sorted(m.bases())


def _complete_skeleton_lists(nverts, k):
    from itertools import combinations

    cols = [mask_of(c) for c in combinations(range(nverts), k)]
    rows = [mask_of(c) for c in combinations(range(nverts), k - 1)]
    return cols, rows


def test_boundary_rank_complete_skeleton_shortcut():
    # the counts-driven shortcut must agree with an independent dense
    # elimination on the same matrix
    for nverts in (4, 5, 6):
        for k in range(1, nverts + 1):
            cols, rows = _complete_skeleton_lists(nverts, k)
            got = boundary_rank(cols, rows, nverts, 2)
            assert got == comb(nverts - 1, k - 1)
            row_index = {r: i for i, r in enumerate(rows)}
            dense = []
            for col in cols:
                vec = [0] * len(rows)
                for e in range(nverts):
                    if col & (1 << e):
                        vec[row_index[col ^ (1 << e)]] = 1
                dense.append(vec)
            assert dense_gf2_rank(dense) == got


def test_boundary_rank_partial_matrices_match_dense_elimination():
    rng = random.Random(17)
    for _ in range(40):
        nverts = rng.randint(3, 7)
        k = rng.randint(1, nverts)
        all_cols, all_rows = _complete_skeleton_lists(nverts, k)
        cols = [c for c in all_cols if rng.random() < 0.6]
        rows = [r for r in all_rows if rng.random() < 0.8]
        got = boundary_rank(cols, rows, nverts, 2)
        row_index = {r: i for i, r in enumerate(rows)}
        dense = []
        for col in cols:
            vec = [0] * len(rows)
            for e in range(nverts):
                if col & (1 << e) and (col ^ (1 << e)) in row_index:
                    vec[row_index[col ^ (1 << e)]] = 1
            dense.append(vec)
        assert got == dense_gf2_rank(dense)


def test_boundary_rank_odd_characteristic_signs():
    # over GF(3) the triangle boundary has rank 2 (kernel = the circle class)
    circle = from_facets(3, [(0, 1), (1, 2), (0, 2)])
    cols = list(circle.faces_of_size(2))
    rows = list(circle.faces_of_size(1))
    assert boundary_rank(cols, rows, 3, 3) == 2
    # a path of two edges: both columns independent over every field
    path = from_facets(3, [(0, 1), (1, 2)])
    pcols = list(path.faces_of_size(2))
    prows = list(path.faces_of_size(1))
    for p in (2, 3, 5, 17, 65537):
        assert boundary_rank(pcols, prows, 3, p) == 2
    # complete skeleta of the 5-simplex match the closed form over GF(3)
    for k in range(1, 6):
        cols, rows = _complete_skeleton_lists(6, k)
        assert boundary_rank(cols, rows, 6, 3) == comb(5, k - 1)


def test_face_numbers_of_uniform_dual_complex():
    # for U(r, n) the non-spanning sets are those with fewer than r elements
    m = uniform(3, 6)
    fv = face_numbers(dual_alexander_complex(m))
    for k in range(7):
        assert fv.counts[k] == (comb(6, k) if k < 3 else 0)


WIDE_PRIMES = (3, 5, 7, 13, 17, 101, 65537, 2**61 - 1)


def pack(column, p):
    width = lane_width(p)
    return sum((x % p) << (i * width) for i, x in enumerate(column))


def test_modp_rank_matches_dense_reference():
    rng = random.Random(23)
    for p in (2, *WIDE_PRIMES):
        cases = [[], [[]], [[0, 0, 0]], [[p - 1]], [[1], [p - 1], [0]]]
        for _ in range(30):
            nrows = rng.randint(0, 9)
            ncols = rng.randint(0, 9)
            # small residues make dependencies likely; the rest are uniform
            top = rng.choice((1, 2, p - 1))
            cols = [[rng.randint(0, top) for _ in range(nrows)] for _ in range(ncols)]
            if cols:
                cols.append(list(cols[rng.randrange(len(cols))]))
                cols.append([0] * nrows)
                cols.append([p - 1] * nrows)
                # a combination of two earlier columns
                a, b = rng.choice(cols), rng.choice(cols)
                f = rng.randrange(p)
                cols.append([(x + f * y) % p for x, y in zip(a, b)])
            rng.shuffle(cols)
            cases.append(cols)
        for cols in cases:
            assert modp_rank([pack(c, p) for c in cols], p) == dense_modp_rank(cols, p)


def test_lane_layout_leaves_no_carry():
    for p in WIDE_PRIMES:
        width, w, s, mult = lane_layout(p)
        assert p * (p - 1) < 1 << w  # one elimination step fits in w bits
        assert ((1 << w) - 1) * mult < 1 << width  # x * M stays in its lane
        assert 0 <= mult * p - (1 << s) < p
        assert (mult * p - (1 << s)) << w <= 1 << s  # Barrett is exact below 2^w
        assert p < 1 << (width - s)  # the quotient fits above the shift
        # the reduction of whole columns, lanes at their extremes
        values = [0, 1, p - 1, p, p + 1, p * (p - 1), (1 << w) - 1] * 3
        x = sum(v << (i * width) for i, v in enumerate(values))
        ones = sum(1 << (i * width) for i in range(len(values)))
        qmask = ((1 << (width - s)) - 1) * ones
        reduced = x - p * (((x * mult) >> s) & qmask)
        lanes = [(reduced >> (i * width)) & ((1 << width) - 1) for i in range(len(values))]
        assert lanes == [v % p for v in values]
        assert reduced >> (len(values) * width) == 0
