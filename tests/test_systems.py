import math

import pytest

from resmat import (
    BadShape,
    MultiHomoSystem,
    NonPositiveBound,
    OrderingViolated,
    SingularGenerators,
    ZonotopeSystem,
    normalize_zonotope,
    validate_multihomo,
    validate_zonotope,
)
from resmat.systems import type_vector_of

UNIT2 = [[1, 1], [1, 1], [1, 1]]


class TestValidateZonotope:
    def test_accepts_unit_bounds(self):
        s = validate_zonotope(UNIT2)
        assert isinstance(s, ZonotopeSystem)
        assert s.n == 2
        assert s.bounds == ((1, 1), (1, 1), (1, 1))

    def test_accepts_unsorted_last_row(self):
        # only rows 0..n-1 carry the ordering constraint
        s = validate_zonotope([[1, 2], [2, 2], [3, 1]])
        assert s.column_totals == (6, 5)

    def test_too_few_rows(self):
        with pytest.raises(BadShape):
            validate_zonotope([[1, 1]])

    def test_ragged_rows(self):
        with pytest.raises(BadShape):
            validate_zonotope([[1, 1], [1], [1, 1]])

    def test_zero_bound(self):
        with pytest.raises(NonPositiveBound):
            validate_zonotope([[1, 0], [1, 1], [1, 1]])

    def test_negative_bound(self):
        with pytest.raises(NonPositiveBound):
            validate_zonotope([[1, 1], [1, -2], [1, 1]])

    def test_ordering_violation(self):
        with pytest.raises(OrderingViolated) as exc:
            validate_zonotope([[2, 2], [1, 1], [1, 1]])
        assert "permute" in str(exc.value)

    def test_lattice_size(self):
        assert validate_zonotope(UNIT2).lattice_size() == 9
        assert validate_zonotope([[2, 2], [2, 2], [1, 1]]).lattice_size() == 25

    def test_column_prefixes(self):
        s = validate_zonotope([[1, 2], [2, 2], [3, 1]])
        assert s.column_prefixes == ((0, 1, 3, 6), (0, 2, 4, 5))

    def test_support(self):
        s = validate_zonotope([[1, 2], [2, 2], [1, 1]])
        pts = list(s.support(0))
        assert pts == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        support = set(s.support(0))
        assert len(support) == 6
        assert (1, 2) in support
        assert (2, 0) not in support
        assert (0, -1) not in support

    def test_hashable_and_frozen(self):
        s = validate_zonotope(UNIT2)
        assert hash(s) == hash(validate_zonotope(UNIT2))
        with pytest.raises(AttributeError):
            s.bounds = ()


class TestNormalizeZonotope:
    def test_identity_generators(self):
        s, k = normalize_zonotope([[1, 0], [0, 1]], UNIT2)
        assert k == 1
        assert s.bounds == ((1, 1), (1, 1), (1, 1))

    def test_unimodular_generators(self):
        _, k = normalize_zonotope([[1, 1], [0, 1]], UNIT2)
        assert k == 1

    def test_scaling_generators(self):
        _, k = normalize_zonotope([[2, 0], [0, 3]], UNIT2)
        assert k == 6

    def test_negative_determinant_gives_positive_exponent(self):
        _, k = normalize_zonotope([[0, 1], [1, 0]], UNIT2)
        assert k == 1

    def test_singular_generators(self):
        with pytest.raises(SingularGenerators):
            normalize_zonotope([[1, 2], [2, 4]], UNIT2)

    def test_wrong_shape(self):
        with pytest.raises(BadShape):
            normalize_zonotope([[1, 0, 0], [0, 1, 0]], UNIT2)


class TestTypeVector:
    def test_counts_preimages(self):
        assert type_vector_of((0, 1), 2) == (1, 1, 0)
        assert type_vector_of((2, 2), 2) == (0, 0, 2)
        assert type_vector_of((1, 0, 2), 3) == (1, 1, 1, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(BadShape):
            type_vector_of((0, 3), 2)
        with pytest.raises(BadShape):
            type_vector_of((-1, 0), 2)


class TestMultiHomoSystem:
    def test_validate(self):
        s = validate_multihomo((2,), [[2], [2], [1]])
        assert isinstance(s, MultiHomoSystem)
        assert s.n == 2
        assert s.s == 1
        assert s.degree_totals == (5,)
        assert s.group_slices == ((0, 2),)

    def test_two_groups(self):
        s = validate_multihomo((1, 1), [[1, 1], [1, 1], [1, 1]])
        assert s.n == 2
        assert s.group_slices == ((0, 1), (1, 2))

    def test_degree_rows_must_match_group_count(self):
        with pytest.raises(BadShape):
            validate_multihomo((2,), [[2, 1], [2, 1], [1, 1]])

    def test_needs_n_plus_one_rows(self):
        with pytest.raises(BadShape):
            validate_multihomo((2,), [[2], [2]])

    def test_nonpositive_degree(self):
        with pytest.raises(NonPositiveBound):
            validate_multihomo((2,), [[2], [0], [1]])

    def test_ordering(self):
        with pytest.raises(OrderingViolated):
            validate_multihomo((2,), [[2], [1], [1]])

    def test_support_is_simplex_product(self):
        s = validate_multihomo((2,), [[2], [2], [1]])
        pts = list(s.support(0))
        assert len(pts) == len(set(pts)) == math.comb(4, 2)
        assert all(sum(p) <= 2 and min(p) >= 0 for p in pts)
        assert pts == sorted(pts)
        assert (1, 1) in set(pts)
        assert (2, 1) not in set(pts)

    def test_support_two_groups(self):
        s = validate_multihomo((1, 2), [[1, 2], [1, 2], [2, 2], [1, 1]])
        # one factor of degree 1 in 1 slot, one of degree 2 in 2 slots
        pts = list(s.support(0))
        assert len(set(pts)) == len(pts) == 2 * math.comb(4, 2)
        assert all(p[0] <= 1 and p[1] + p[2] <= 2 for p in pts)

    def test_lattice_size(self):
        assert validate_multihomo((2,), [[2], [2], [1]]).lattice_size() == 10
        bi = validate_multihomo((1, 1), [[1, 1], [1, 1], [1, 1]])
        assert bi.lattice_size() == 9

    def test_lattice_size_minimal_degrees(self):
        # all degrees 1 on one block of size 2: shifted window of degree 1
        s = validate_multihomo((2,), [[1], [1], [1]])
        assert s.lattice_size() == 3
