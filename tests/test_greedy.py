from itertools import product

from pointwise import cell_points
from resmat import greedy_closure, predicted_size_zonotope, validate_zonotope
from resmat.greedy import KeyedWindow, cell_table, check_no_escape, is_greedy
from resmat.subdivision import is_mixed, lattice_points, row_content_of, type_function_of
from resmat.systems import type_vector_of


def all_ones(n):
    return validate_zonotope([[1] * n] * (n + 1))


class TestIsGreedy:
    def test_known_vectors(self):
        assert is_greedy((1, 1, 0))
        assert is_greedy((0, 2, 0))
        assert is_greedy((0, 0, 2))
        assert not is_greedy((2, 0, 0))
        assert not is_greedy((1, 2, 0, 0))
        assert is_greedy((1, 1, 1, 0))

    def test_prefix_rule_exhaustive(self):
        # reference implementation straight from the prefix inequality
        n = 3
        for phi in product(range(n + 1), repeat=n):
            t = type_vector_of(phi, n)
            expected = all(
                sum(t[: i + 1]) <= i + 1 for i in range(n)
            )
            assert is_greedy(t) == expected

    def test_mixed_implies_greedy(self):
        for n in (2, 3, 4):
            for phi in product(range(n + 1), repeat=n):
                t = type_vector_of(phi, n)
                if is_mixed(t):
                    assert is_greedy(t)


class TestPredictedSize:
    def test_frozen_unit_values(self):
        assert predicted_size_zonotope(all_ones(2)) == 8
        assert predicted_size_zonotope(all_ones(3)) == 50
        assert predicted_size_zonotope(all_ones(4)) == 432
        assert predicted_size_zonotope(all_ones(5)) == 4802

    def test_mixed_bounds(self):
        s = validate_zonotope([[2, 2], [2, 2], [1, 1]])
        assert predicted_size_zonotope(s) == 21


class TestGreedyClosure:
    def test_unit_excluded_point(self):
        cl = greedy_closure(all_ones(2))
        assert len(cl) == 8
        assert (0, 0) not in cl
        rc = cl[(0, 1)]
        assert rc.poly == 2 and rc.vertex == (0, 0)

    def test_closure_equals_predicate(self, system_family):
        for sys_ in system_family:
            cl = greedy_closure(sys_)
            predicate = {
                b
                for b in lattice_points(sys_)
                if is_greedy(type_vector_of(type_function_of(b, sys_), sys_.n))
            }
            assert set(cl) == predicate

    def test_contents_match_direct_computation(self):
        s = validate_zonotope([[1, 2], [2, 2], [3, 1]])
        for b, rc in greedy_closure(s).items():
            assert rc == row_content_of(b, s)


class TestNoEscape:
    def test_family(self, system_family):
        for sys_ in system_family:
            cells = KeyedWindow(sys_).greedy_cells(cell_table(sys_))
            assert check_no_escape(sys_, cells)


class TestCellTable:
    def test_partition_total(self, system_family):
        for sys_ in system_family[:8]:
            rows = cell_table(sys_)
            assert sum(r[2] for r in rows) == sys_.lattice_size()

    def test_cell_metadata_consistent(self):
        s = validate_zonotope([[1, 2], [2, 2], [3, 1]])
        for phi, t, count, mixed, greedy, rc in cell_table(s):
            assert t == type_vector_of(phi, s.n)
            assert mixed == is_mixed(t)
            assert greedy == is_greedy(t)
            pts = list(cell_points(phi, s))
            assert len(pts) == count
            for b in pts:
                assert row_content_of(b, s) == rc

    def test_unit_cell_counts(self):
        rows = cell_table(all_ones(2))
        assert len(rows) == 9
        assert sum(r[3] for r in rows) == 6
        assert sum(r[4] for r in rows) == 8
