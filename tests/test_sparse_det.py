"""Sparse elimination (sparse_det) against the dense oracle ff_det."""

import random
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmat import (
    BadShape,
    CoeffRef,
    DEFAULT_PRIME,
    MultiHomoSystem,
    NotPrime,
    build_matrix,
    draw_coefficients,
    ff_det,
    greedy_closure,
    greedy_closure_multi,
    principal_submatrix,
    sparse_det,
    specialize,
    specialize_rows,
)
from resmat.cli import load_system
from resmat.multihomo import lattice_points_multi
from resmat.oracles import _DENSE_AT, _MR_LIMIT, _is_prime
from resmat.subdivision import lattice_points
from resmat.systems import validate_zonotope

SPECS = Path(__file__).resolve().parent.parent / "specs"
PRIMES = (3, 7, 2**31 - 1)
# the largest prime below _MR_LIMIT: 82 bits, the widest slots of the dense tail
TOP_PRIME = 3_317_044_064_679_887_385_961_813
WIDE_PRIMES = (2, 3, 7, 2**31 - 1, TOP_PRIME)


def to_rows(dense):
    return [{c: v for c, v in enumerate(row) if v} for row in dense]


def principal(dense, idx):
    idx = sorted(idx)
    return [[dense[r][c] for c in idx] for r in idx]


def inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


@st.composite
def sparse_cases(draw):
    """(dense matrix, p, index set): sparse, possibly singular or with zero
    rows; the index set picks a principal block."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(0, 7))
    dense = [[0] * n for _ in range(n)]
    if n:
        cell = st.tuples(
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(-3 * p, 3 * p),
        )
        for r, c, v in draw(st.lists(cell, max_size=2 * n * n)):
            dense[r][c] = v
        for r in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            dense[r] = [0] * n
        if n >= 2 and draw(st.booleans()):
            # a scaled copy of another row forces a singular matrix
            src, dst = draw(
                st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                         unique=True)
            )
            k = draw(st.integers(0, p - 1))
            dense[dst] = [k * v for v in dense[src]]
    lead = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return dense, p, lead


class TestSparseDetProperties:
    @settings(max_examples=300, deadline=None)
    @given(sparse_cases())
    def test_matches_dense_oracle(self, case):
        dense, p, lead = case
        rows = to_rows(dense)
        before = [dict(r) for r in rows]
        assert sparse_det(rows, p) == ff_det(dense, p)
        assert rows == before
        block = principal(dense, lead)
        assert sparse_det(to_rows(block), p) == ff_det(block, p)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(PRIMES),
        st.permutations(range(6)),
        st.lists(st.integers(1, 10**6), min_size=6, max_size=6),
    )
    def test_permutation_sign(self, p, perm, scales):
        # row r holds its one entry in column perm[r]
        dense = [[0] * 6 for _ in range(6)]
        for r, c in enumerate(perm):
            dense[r][c] = scales[r]
        product = 1
        for v in scales:
            product = product * v % p
        sign = -1 if inversions(perm) % 2 else 1
        assert sparse_det(to_rows(dense), p) == sign * product % p
        assert sign * product % p == ff_det(dense, p)


class TestSparseDetEdges:
    def test_empty(self):
        assert sparse_det([], 7) == 1

    def test_swap_is_minus_one(self):
        assert sparse_det([{1: 1}, {0: 1}], 7) == 6

    def test_zero_row(self):
        assert sparse_det([{0: 1, 1: 2}, {}], 7) == 0

    def test_zero_column(self):
        assert sparse_det([{0: 1}, {0: 2}], 7) == 0

    def test_entries_reduced_mod_p(self):
        assert sparse_det([{0: 7}], 7) == 0
        assert sparse_det([{0: -1}], 7) == 6

    def test_column_out_of_range(self):
        with pytest.raises(BadShape):
            sparse_det([{1: 1}], 7)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            sparse_det([{0: 1}], 9)


@st.composite
def banded_cases(draw):
    """(dense matrix, p): a band plus scattered entries, sizes 8 to 48.

    Markowitz fill-in inside the band crosses the dense-tail threshold part
    way through.  Optionally singular: a scaled duplicate row, or a scaled
    copy of a full column, which only goes zero late in the dense phase.
    """
    p = draw(st.sampled_from(WIDE_PRIMES))
    n = draw(st.integers(8, 48))
    band = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    dense = [
        [rng.randrange(p) if abs(r - c) <= band else 0 for c in range(n)]
        for r in range(n)
    ]
    for _ in range(draw(st.integers(0, 2 * n))):
        dense[rng.randrange(n)][rng.randrange(n)] = rng.randrange(-p, 2 * p)
    src, dst = rng.sample(range(n), 2)
    k = rng.randrange(p)
    singular = draw(st.sampled_from(("none", "row", "column")))
    if singular == "row":
        dense[dst] = [k * v for v in dense[src]]
    elif singular == "column":
        for row in dense:
            row[src] = rng.randrange(1, p)
            row[dst] = k * row[src]
    return dense, p


class TestDenseTail:
    def test_top_prime(self):
        assert _is_prime(TOP_PRIME)
        assert not any(map(_is_prime, range(TOP_PRIME + 1, _MR_LIMIT)))

    @settings(max_examples=120, deadline=None)
    @given(banded_cases())
    def test_banded_matches_dense_oracle(self, case):
        dense, p = case
        assert sparse_det(to_rows(dense), p) == ff_det(dense, p)

    @pytest.mark.parametrize("p", WIDE_PRIMES)
    def test_all_max_entries(self, p):
        # every slot starts at p - 1 and takes the largest multipliers
        n = 40
        ones = [[p - 1] * n for _ in range(n)]
        assert sparse_det(to_rows(ones), p) == 0 == ff_det(ones, p)
        shifted = [[1 if r == c else p - 1 for c in range(n)] for r in range(n)]
        assert sparse_det(to_rows(shifted), p) == ff_det(shifted, p)
        rng = random.Random(p)
        near = [[p - 1 - rng.randrange(3) for _ in range(n)] for _ in range(n)]
        assert sparse_det(to_rows(near), p) == ff_det(near, p)

    @pytest.mark.parametrize("p", WIDE_PRIMES)
    def test_singular_tail_after_odd_permutation(self, p):
        # rows 0..7 are singletons with rows 6 and 7 swapped, pivoted before
        # the switch; rows 8..15 hold min(i, j) + 1, of determinant 1
        n = 16
        dense = [[0] * n for _ in range(n)]
        for r in range(8):
            dense[r][{6: 7, 7: 6}.get(r, r)] = 1
        for i in range(8):
            dense[8 + i][8:] = [min(i, j) + 1 for j in range(8)]
        assert 8 + 64 < _DENSE_AT * n * n  # the sparse phase runs first
        assert sparse_det(to_rows(dense), p) == p - 1 == ff_det(dense, p)
        dense[15][8:] = [2 * v for v in dense[8][8:]]
        assert sparse_det(to_rows(dense), p) == 0 == ff_det(dense, p)


def _matrices(spec):
    sys_, _ = load_system(str(SPECS / spec))
    if isinstance(sys_, MultiHomoSystem):
        full = list(lattice_points_multi(sys_))
        greedy = list(greedy_closure_multi(sys_))
    else:
        full = list(lattice_points(sys_))
        greedy = list(greedy_closure(sys_))
    return sys_, [build_matrix(full, sys_), build_matrix(greedy, sys_)]


@pytest.mark.parametrize("spec", ["zonotope_n2_unit.json", "multihomo_221.json"])
@pytest.mark.parametrize("p", [3, DEFAULT_PRIME])
def test_spec_matrices_match_dense(spec, p):
    # H and H_G, each with its non-mixed block E
    sys_, mats = _matrices(spec)
    for draw in range(5):
        coeffs = draw_coefficients(sys_, random.Random(draw), p)
        for h in mats:
            for m in (h, principal_submatrix(h)):
                assert sparse_det(specialize_rows(m, coeffs, p), p) == ff_det(
                    specialize(m, coeffs, p), p
                )


def test_specialize_rows_matches_dense():
    sys_, (h, *_) = _matrices("zonotope_n2_unit.json")
    coeffs = draw_coefficients(sys_, random.Random(3), 7)
    rows = specialize_rows(h, coeffs, 7)
    assert rows == to_rows(specialize(h, coeffs, 7))
    assert all(0 < v < 7 for row in rows for v in row.values())


# sparse_det of [[2,2,2]]*4 under draw_coefficients(Random(draw)), as
# computed by the Markowitz-only elimination before the dense tail
BOX_222_DETS = {
    (3, 0): dict(H=0, E=0, H_G=0, E_G=0, H_R=0, E_R=0),
    (3, 1): dict(H=0, E=0, H_G=0, E_G=0, H_R=0, E_R=0),
    (DEFAULT_PRIME, 0): dict(
        H=848366366, E=873453978, H_G=1218723712,
        E_G=550189777, H_R=728789514, E_R=1335027606,
    ),
    (DEFAULT_PRIME, 1): dict(
        H=1977253591, E=384307179, H_G=1244412631,
        E_G=184314437, H_R=1157999658, E_R=834489709,
    ),
}


@pytest.fixture(scope="module")
def box_222():
    sys_ = validate_zonotope([[2, 2, 2]] * 4)
    h = build_matrix(lattice_points(sys_), sys_)
    h_g = build_matrix(greedy_closure(sys_), sys_)
    mats = dict(H=h, H_G=h_g)
    for name, m in list(mats.items()):
        mats[name.replace("H", "E")] = principal_submatrix(m)
    return sys_, mats


@pytest.mark.parametrize("p, draw", sorted(BOX_222_DETS))
def test_box_222_pinned(box_222, p, draw):
    # at DEFAULT_PRIME all four reach the dense tail, at k = 71 to 137; the
    # reflected H_R and E_R are H and E at the flipped draw u[i][a_i - a]
    sys_, mats = box_222
    coeffs = draw_coefficients(sys_, random.Random(draw), p)
    flip = {CoeffRef(i, tuple(map(sub, sys_.bounds[i], a))): v
            for (i, a), v in coeffs.items()}
    dets = {k: sparse_det(specialize_rows(m, coeffs, p), p) for k, m in mats.items()}
    for k in "HE":
        dets[k + "_R"] = sparse_det(specialize_rows(mats[k], flip, p), p)
    assert dets == BOX_222_DETS[p, draw]
