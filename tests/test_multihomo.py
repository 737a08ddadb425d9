import math
from itertools import product

import pytest

from pointwise import (
    column_support_multi,
    in_lattice_multi,
    row_content_multi,
    type_function_multi,
)
from resmat import (
    InvariantViolated,
    PointOutOfRange,
    greedy_closure_multi,
    predicted_size_multihomo,
    validate_multihomo,
)
from resmat.greedy import is_greedy
from resmat.multihomo import (
    cell_table_multi,
    check_no_escape_multi,
    embed,
    is_valid_group_typefn,
    keyed_window,
    lattice_points_multi,
)
from resmat.subdivision import lattice_points, type_function_of
from resmat.systems import type_vector_of

# one block of size 2, degrees (2, 2, 1): the worked 9x9 example
TRI = validate_multihomo((2,), [[2], [2], [1]])
BI = validate_multihomo((1, 1), [[1, 1], [1, 1], [1, 1]])
# two blocks, sizes (1, 2): a 3-variable cross-check system
MIXG = validate_multihomo((1, 2), [[1, 1], [1, 2], [2, 2], [1, 1]])


class TestEmbed:
    def test_bounds_repeat_block_degrees(self):
        zsys, _ = embed(TRI)
        assert zsys.bounds == ((2, 2), (2, 2), (1, 1))

    def test_bilinear_is_identity(self):
        zsys, emb = embed(BI)
        assert emb.to_window((1, 0)) == (1, 0)
        assert zsys.bounds == ((1, 1), (1, 1), (1, 1))

    def test_vertex_preimage_rejects_non_staircase(self):
        _, emb = embed(TRI)
        assert emb.vertex_preimage((0, 2)) == (2, 0)
        with pytest.raises(InvariantViolated):
            emb.vertex_preimage((2, 0))

    def test_ordering_violations_propagate(self):
        from resmat import OrderingViolated

        with pytest.raises(OrderingViolated):
            validate_multihomo((2,), [[2], [1], [2]])


class TestWindowCoords:
    def test_suffix_sums(self):
        _, emb = embed(TRI)
        assert emb.to_window((1, 1)) == (1, 3)
        assert emb.to_window((0, 0)) == (0, 1)

    def test_single_slots_are_identity(self):
        _, emb = embed(BI)
        assert emb.to_window((1, 0)) == (1, 0)
        assert emb.to_window((0, 1)) == (0, 1)

    @pytest.mark.parametrize("sys_", [TRI, BI, MIXG], ids=["tri", "bi", "mixg"])
    def test_from_window_inverts_to_window(self, sys_):
        _, emb = embed(sys_)
        for b in lattice_points_multi(sys_):
            assert emb.from_window(emb.to_window(b)) == b


class TestGroupTypefn:
    def test_examples(self):
        _, emb = embed(TRI)
        assert is_valid_group_typefn((0, 1), emb)
        assert not is_valid_group_typefn((1, 0), emb)
        assert is_valid_group_typefn((2, 2), emb)

    def test_single_slots_impose_nothing(self):
        _, emb = embed(BI)
        for phi in product(range(3), repeat=2):
            assert is_valid_group_typefn(phi, emb)


class TestLatticePointsMulti:
    def test_triangle_window(self):
        pts = list(lattice_points_multi(TRI))
        assert len(pts) == 10 == TRI.lattice_size()
        assert all(sum(b) <= 3 and min(b) >= 0 for b in pts)
        assert pts == sorted(pts)

    def test_bilinear_window(self):
        assert len(list(lattice_points_multi(BI))) == 9

    def test_univariate_window(self):
        s = validate_multihomo((1,), [[1], [1]])
        assert list(lattice_points_multi(s)) == [(0,), (1,)]

    def test_in_lattice_agrees(self):
        pts = set(lattice_points_multi(TRI))
        for b in product(range(-1, 6), repeat=2):
            assert in_lattice_multi(b, TRI) == (b in pts)


class TestEmbeddingConsistency:
    @pytest.mark.parametrize("sys_", [TRI, BI, MIXG], ids=["tri", "bi", "mixg"])
    def test_image_is_the_strictly_increasing_staircase_set(self, sys_):
        zsys, emb = embed(sys_)
        image = {emb.to_window(b) for b in lattice_points_multi(sys_)}
        assert len(image) == sys_.lattice_size()

        # the per-coordinate shifts make block coordinates strictly increase,
        # and that is exactly what cuts the image out of the window
        def staircase(e):
            return all(
                e[j] < e[j + 1]
                for start, stop in emb.group_slices
                for j in range(start, stop - 1)
            )

        assert image == {e for e in lattice_points(zsys) if staircase(e)}

        # monotone group types are necessary but not sufficient: equal
        # neighboring coordinates share a type without being an image point
        for e in image:
            assert is_valid_group_typefn(type_function_of(e, zsys), emb)

    def test_type_functions_of_window_points_are_monotone(self):
        _, emb = embed(TRI)
        for b in lattice_points_multi(TRI):
            assert is_valid_group_typefn(type_function_multi(b, TRI), emb)

    def test_negative_point_rejected(self):
        with pytest.raises(PointOutOfRange):
            type_function_multi((-1, 2), TRI)


class TestRowContentMulti:
    def test_vertices_are_simplex_vertices(self):
        for sys_ in (TRI, BI, MIXG):
            for b in lattice_points_multi(sys_):
                rc = row_content_multi(b, sys_)
                for l, (start, stop) in enumerate(sys_.group_slices):
                    seg = rc.vertex[start:stop]
                    d = sys_.degrees[rc.poly][l]
                    assert sum(seg) in (0, d)
                    assert all(v in (0, d) for v in seg)

    def test_columns_stay_in_window(self):
        for sys_ in (TRI, BI, MIXG):
            window = set(lattice_points_multi(sys_))
            for b in window:
                for col in column_support_multi(b, sys_):
                    assert col in window


class TestPredictedSizeMulti:
    def test_worked_example(self):
        assert predicted_size_multihomo(TRI) == 9

    def test_bilinear(self):
        assert predicted_size_multihomo(BI) == 8

    def test_univariate_is_degree_sum(self):
        for d0, d1 in [(1, 1), (2, 3), (3, 4)]:
            s = validate_multihomo((1,), [[d0], [d1]])
            assert predicted_size_multihomo(s) == d0 + d1

    def test_matches_exhaustive_count(self):
        for sys_ in (TRI, BI, MIXG):
            count = sum(
                1
                for b in lattice_points_multi(sys_)
                if is_greedy(
                    type_vector_of(type_function_multi(b, sys_), sys_.n)
                )
            )
            assert predicted_size_multihomo(sys_) == count


class TestClosureMulti:
    def test_worked_example_size(self):
        assert len(greedy_closure_multi(TRI)) == 9

    def test_closure_equals_predicate(self):
        for sys_ in (TRI, BI, MIXG):
            cl = set(greedy_closure_multi(sys_))
            predicate = {
                b
                for b in lattice_points_multi(sys_)
                if is_greedy(
                    type_vector_of(type_function_multi(b, sys_), sys_.n)
                )
            }
            assert cl == predicate

    def test_no_escape(self):
        for sys_ in (TRI, BI, MIXG):
            cells = keyed_window(sys_).greedy_cells(cell_table_multi(sys_))
            assert check_no_escape_multi(sys_, cells)

    def test_excluded_point_of_worked_example(self):
        cl = greedy_closure_multi(TRI)
        missing = set(lattice_points_multi(TRI)) - set(cl)
        assert missing == {(0, 0)}
        t = type_vector_of(type_function_multi((0, 0), TRI), TRI.n)
        assert t == (2, 0, 0)


class TestCellTableMulti:
    def test_worked_example_cells(self):
        rows = cell_table_multi(TRI)
        table = {phi: count for phi, _, count, _, _, _ in rows}
        assert table == {
            (0, 0): 1,
            (0, 1): 4,
            (0, 2): 2,
            (1, 1): 1,
            (1, 2): 2,
            (2, 2): 0,
        }
        greedy_counts = [
            count for phi, t, count, mixed, greedy, rc in rows if greedy
        ]
        assert greedy_counts == [4, 2, 1, 2, 0]
        assert sum(greedy_counts) == 9

    def test_counts_match_enumeration(self):
        for sys_ in (TRI, BI, MIXG):
            by_phi = {}
            for b in lattice_points_multi(sys_):
                phi = type_function_multi(b, sys_)
                by_phi[phi] = by_phi.get(phi, 0) + 1
            for phi, t, count, mixed, greedy, rc in cell_table_multi(sys_):
                assert count == by_phi.get(phi, 0)
            assert sum(by_phi.values()) == sys_.lattice_size()

    def test_binomial_formula_shape(self):
        # a greedy diagonal cell exceeding its degree must count zero
        rows = {phi: count for phi, _, count, _, _, _ in cell_table_multi(TRI)}
        assert rows[(2, 2)] == math.comb(1, 2) * 1

    def test_contents_match_point_contents(self):
        for phi, t, count, mixed, greedy, rc in cell_table_multi(TRI):
            for b in lattice_points_multi(TRI):
                if type_function_multi(b, TRI) == phi:
                    assert row_content_multi(b, TRI) == rc
