import pytest

from pointwise import cell_points, column_support
from resmat import BadShape, PointOutOfRange, validate_zonotope
from resmat.subdivision import (
    is_mixed,
    lattice_points,
    reflect_point,
    row_content_of,
    type_function_of,
)
from resmat.systems import type_vector_of

UNIT2 = validate_zonotope([[1, 1], [1, 1], [1, 1]])
MIX2 = validate_zonotope([[1, 2], [2, 2], [3, 1]])


class TestLatticePoints:
    def test_unit_window(self):
        pts = list(lattice_points(UNIT2))
        assert len(pts) == 9
        assert pts == sorted(pts)
        assert pts[0] == (0, 0) and pts[-1] == (2, 2)

    def test_window_shape(self):
        pts = list(lattice_points(MIX2))
        assert len(pts) == 6 * 5 == MIX2.lattice_size()
        assert all(0 <= b[0] < 6 and 0 <= b[1] < 5 for b in pts)


class TestTypeFunction:
    def test_unit_values(self):
        assert type_function_of((0, 0), UNIT2) == (0, 0)
        assert type_function_of((0, 1), UNIT2) == (0, 1)
        assert type_function_of((2, 1), UNIT2) == (2, 1)

    def test_interval_boundaries_are_half_open(self):
        # column 0 of MIX2 splits [0,6) into [0,1), [1,3), [3,6)
        expected = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}
        for c, phi in expected.items():
            assert type_function_of((c, 0), MIX2)[0] == phi

    def test_out_of_window(self):
        with pytest.raises(PointOutOfRange):
            type_function_of((3, 0), UNIT2)
        with pytest.raises(PointOutOfRange):
            type_function_of((0, -1), UNIT2)

    def test_wrong_arity(self):
        with pytest.raises(BadShape):
            type_function_of((0, 0, 0), UNIT2)


class TestRowContent:
    def test_unit_examples(self):
        rc = row_content_of((0, 1), UNIT2)
        assert rc.poly == 2 and rc.vertex == (0, 0)
        rc = row_content_of((2, 2), UNIT2)
        assert rc.poly == 1 and rc.vertex == (1, 1)
        rc = row_content_of((0, 0), UNIT2)
        assert rc.poly == 2 and rc.vertex == (0, 0)

    def test_content_index_is_max_zero_of_type_vector(self):
        for sys_ in (UNIT2, MIX2):
            for b in lattice_points(sys_):
                t = type_vector_of(type_function_of(b, sys_), sys_.n)
                rc = row_content_of(b, sys_)
                assert t[rc.poly] == 0
                assert all(t[i] != 0 for i in range(rc.poly + 1, sys_.n + 1))

    def test_vertex_is_support_vertex(self):
        for b in lattice_points(MIX2):
            rc = row_content_of(b, MIX2)
            for j, v in enumerate(rc.vertex):
                assert v in (0, MIX2.bounds[rc.poly][j])


class TestMixedFlag:
    def test_examples(self):
        assert is_mixed((1, 1, 0))
        assert is_mixed((1, 0, 1))
        assert not is_mixed((2, 0, 0))
        assert not is_mixed((0, 0, 2))
        assert not is_mixed((1, 1, 1, 0, 0))


class TestCellPoints:
    def test_cells_partition_window(self):
        for sys_ in (UNIT2, MIX2):
            seen = {}
            n = sys_.n
            from itertools import product

            for phi in product(range(n + 1), repeat=n):
                for b in cell_points(phi, sys_):
                    assert b not in seen
                    seen[b] = phi
                    assert type_function_of(b, sys_) == phi
            assert len(seen) == sys_.lattice_size()

    def test_bad_phi(self):
        with pytest.raises(BadShape):
            list(cell_points((0, 5), UNIT2))


class TestColumnSupport:
    def test_unit_example(self):
        cols = list(column_support((0, 1), UNIT2))
        assert cols == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_columns_stay_in_window(self, system_family):
        for sys_ in system_family[:6]:
            window = set(lattice_points(sys_))
            for b in window:
                for col in column_support(b, sys_):
                    assert col in window


class TestReflection:
    def test_involution(self):
        for b in lattice_points(MIX2):
            assert reflect_point(reflect_point(b, MIX2), MIX2) == b

    def test_reflected_contents_partition(self):
        # reflected classification must also assign every point a valid
        # polynomial and vertex of its support
        for b in lattice_points(MIX2):
            rc = row_content_of(b, MIX2, reflected=True)
            for j, v in enumerate(rc.vertex):
                assert v in (0, MIX2.bounds[rc.poly][j])

    def test_reflected_columns_stay_in_window(self):
        window = set(lattice_points(MIX2))
        for b in window:
            for col in column_support(b, MIX2, reflected=True):
                assert col in window

    def test_reflected_type_vector_counts_match_mixed_volume_totals(self):
        # both orientations produce the same number of mixed points
        def mixed_count(reflected):
            return sum(
                is_mixed(
                    type_vector_of(
                        type_function_of(b, MIX2, reflected=reflected), MIX2.n
                    )
                )
                for b in lattice_points(MIX2)
            )

        assert mixed_count(False) == mixed_count(True)
