"""Sparse elimination (sparse_det) against the dense oracle ff_det."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmat import (
    BadShape,
    DEFAULT_PRIME,
    MultiHomoSystem,
    NotPrime,
    build_matrix,
    draw_coefficients,
    ff_det,
    greedy_closure,
    greedy_closure_multi,
    lattice_points,
    lattice_points_multi,
    principal_submatrix,
    sparse_det,
    specialize,
    specialize_rows,
)
from resmat.cli import load_system

SPECS = Path(__file__).resolve().parent.parent / "specs"
PRIMES = (3, 7, 2**31 - 1)


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


def _matrices(spec):
    sys_, _ = load_system(str(SPECS / spec))
    if isinstance(sys_, MultiHomoSystem):
        full = list(lattice_points_multi(sys_))
        greedy = list(greedy_closure_multi(sys_))
    else:
        full = list(lattice_points(sys_))
        greedy = list(greedy_closure(sys_))
    mats = [build_matrix(full, sys_), build_matrix(greedy, sys_)]
    if not isinstance(sys_, MultiHomoSystem):
        mats.append(build_matrix(full, sys_, reflected=True))
    return sys_, mats


@pytest.mark.parametrize("spec", ["zonotope_n2_unit.json", "multihomo_221.json"])
@pytest.mark.parametrize("p", [3, DEFAULT_PRIME])
def test_spec_matrices_match_dense(spec, p):
    # H, H_G (and H_R for boxes), each with its non-mixed block E
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
