"""The keyed engine against brute force.

The references here are written from the per-point functions only (module
pointwise and resmat.subdivision): a breadth-first closure over point tuples
driven by column_support / column_support_multi, a cell sum over all
(n+1)^n type functions, and the per-point greedy predicate and no-escape
scan, against the closure, the size program and the greedy-cell walk.
"""

import math
import tracemalloc
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointwise
from pointwise import (
    column_support,
    column_support_multi,
    row_content_multi,
    type_function_multi,
)
from resmat import (
    MultiHomoSystem,
    OrderingViolated,
    PointOutOfRange,
    ZonotopeSystem,
    greedy_closure,
    greedy_closure_multi,
    predicted_size_multihomo,
    predicted_size_zonotope,
)
from resmat import greedy
from resmat.greedy import KeyedWindow, check_no_escape
from resmat.multihomo import check_no_escape_multi, keyed_window, lattice_points_multi
from resmat.subdivision import is_mixed, lattice_points, row_content_of, type_function_of
from resmat.systems import type_vector_of


def tuple_closure(seeds, content, columns):
    contents = {}
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        b = queue.popleft()
        contents[b] = content(b)
        for col in columns(b):
            if col not in seen:
                seen.add(col)
                queue.append(col)
    return dict(sorted(contents.items()))


def box_reference(sys_):
    seeds = [
        b for b in lattice_points(sys_)
        if is_mixed(type_vector_of(type_function_of(b, sys_), sys_.n))
    ]
    return tuple_closure(
        seeds,
        lambda b: row_content_of(b, sys_),
        lambda b: column_support(b, sys_),
    )


def multi_reference(sys_):
    seeds = [
        b for b in lattice_points_multi(sys_)
        if is_mixed(type_vector_of(type_function_multi(b, sys_), sys_.n))
    ]
    return tuple_closure(
        seeds,
        lambda b: row_content_multi(b, sys_),
        lambda b: column_support_multi(b, sys_),
    )


def greedy_prefix(t):
    return all(sum(t[: k + 1]) <= k + 1 for k in range(len(t) - 1))


@st.composite
def box_systems(draw, ordered):
    n = draw(st.integers(1, 3))
    cols = []
    for _ in range(n):
        col = draw(st.lists(st.integers(1, 4), min_size=n + 1, max_size=n + 1))
        cols.append(sorted(col[:n]) + col[n:] if ordered else col)
    return ZonotopeSystem(tuple(zip(*cols)))


@st.composite
def multi_systems(draw, ordered=True):
    sizes = draw(st.sampled_from(
        [(1,), (2,), (3,), (4,), (1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]
    ))
    n = sum(sizes)
    top = 3 if n <= 3 else 2
    cols = []
    for _ in sizes:
        col = draw(st.lists(st.integers(1, top), min_size=n + 1, max_size=n + 1))
        cols.append(sorted(col[:n]) + col[n:] if ordered else col)
    return MultiHomoSystem(sizes, tuple(zip(*cols)))


class TestClosureMatchesTupleBFS:
    @settings(max_examples=30, deadline=None)
    @given(box_systems(ordered=True))
    def test_ordered_boxes(self, sys_):
        cl = greedy_closure(sys_)
        ref = box_reference(sys_)
        assert list(cl.items()) == list(ref.items())

    @settings(max_examples=30, deadline=None)
    @given(box_systems(ordered=False))
    def test_unordered_boxes(self, sys_):
        assert list(greedy_closure(sys_).items()) == list(box_reference(sys_).items())

    @settings(max_examples=40, deadline=None)
    @given(multi_systems())
    def test_multihomogeneous(self, sys_):
        cl = greedy_closure_multi(sys_)
        ref = multi_reference(sys_)
        assert list(cl.items()) == list(ref.items())

    # the strategies draw boxes with n <= 3 only
    @pytest.mark.parametrize("bounds", [
        ((1, 1, 1, 1),) * 5,
        ((1, 1, 1, 1), (1, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 2), (1, 1, 3, 1)),
    ], ids=["all-ones", "mixed-bounds"])
    def test_boxes_n4(self, bounds):
        sys_ = ZonotopeSystem(bounds)
        assert list(greedy_closure(sys_).items()) == list(box_reference(sys_).items())

    def test_multihomogeneous_groups_22(self):
        sys_ = MultiHomoSystem((2, 2), ((1, 1), (1, 1), (1, 2), (2, 2), (2, 1)))
        cl = greedy_closure_multi(sys_)
        assert list(cl.items()) == list(multi_reference(sys_).items())

    def test_one_large_group(self):
        # each block's mixed values are listed as increasing sets; a walk
        # over all 11! orders of the values took minutes here
        sys_ = MultiHomoSystem((10,), ((1,),) * 11)
        cl = greedy_closure_multi(sys_)
        assert list(cl.items()) == list(multi_reference(sys_).items())
        assert len(cl) == predicted_size_multihomo(sys_)

    @settings(max_examples=20, deadline=None)
    @given(multi_systems(ordered=False))
    def test_unordered_multihomogeneous_rejected_alike(self, sys_):
        try:
            ref = multi_reference(sys_)
        except OrderingViolated:
            with pytest.raises(OrderingViolated):
                greedy_closure_multi(sys_)
        else:
            assert list(greedy_closure_multi(sys_).items()) == list(ref.items())


def check_mixed_seeds(sys_, window, points, type_function):
    """The seeds are the per-point mixed window points, cell by cell in phi
    order and in key order inside a cell."""
    phis = {w: type_function(w) for w in map(window.to_window, points)}
    mixed = [w for w, phi in phis.items() if is_mixed(type_vector_of(phi, sys_.n))]
    seeds = list(window.mixed_window_points())
    assert seeds == sorted(mixed, key=lambda w: (phis[w], w))


class TestMixedSeeds:
    @settings(max_examples=30, deadline=None)
    @given(box_systems(ordered=False))
    def test_boxes(self, sys_):
        check_mixed_seeds(
            sys_, KeyedWindow(sys_), lattice_points(sys_),
            lambda w: type_function_of(w, sys_),
        )

    @settings(max_examples=40, deadline=None)
    @given(multi_systems())
    def test_multihomogeneous(self, sys_):
        window = keyed_window(sys_)
        check_mixed_seeds(
            sys_, window, lattice_points_multi(sys_),
            lambda w: type_function_multi(window.from_window(w), sys_),
        )


class TestSizeProgramMatchesCellSum:
    @settings(max_examples=60, deadline=None)
    @given(box_systems(ordered=False))
    def test_boxes(self, sys_):
        n = sys_.n
        total = 0
        for phi in product(range(n + 1), repeat=n):
            if greedy_prefix(type_vector_of(phi, n)):
                total += math.prod(sys_.bounds[v][j] for j, v in enumerate(phi))
        assert predicted_size_zonotope(sys_) == total

    @settings(max_examples=40, deadline=None)
    @given(multi_systems())
    def test_multihomogeneous(self, sys_):
        n = sys_.n
        total = 0
        for phi in product(range(n + 1), repeat=n):
            if not greedy_prefix(type_vector_of(phi, n)):
                continue
            count = 1
            for l, (start, stop) in enumerate(sys_.group_slices):
                seg = phi[start:stop]
                if list(seg) != sorted(seg):
                    count = 0
                    break
                for k in range(n + 1):
                    count *= math.comb(sys_.degrees[k][l], seg.count(k))
            total += count
        assert predicted_size_multihomo(sys_) == total


def greedy_cells(window):
    """The nonempty greedy cells with their points, from one cell walk."""
    return window.greedy_cells(window.cells())


def walk_predicate(cells):
    """The greedy points, as the union of the greedy cells' points."""
    return {b for _, points in cells for b in points}


class TestGreedyCellWalk:
    """The walk's predicate and no-escape check against the per-point scan."""

    @settings(max_examples=30, deadline=None)
    @given(box_systems(ordered=True))
    def test_ordered_boxes(self, sys_):
        cells = greedy_cells(KeyedWindow(sys_))
        assert walk_predicate(cells) == pointwise.greedy_points(sys_)
        assert check_no_escape(sys_, cells) is pointwise.no_escape(sys_) is True

    @settings(max_examples=30, deadline=None)
    @given(multi_systems())
    def test_ordered_multihomogeneous(self, sys_):
        cells = greedy_cells(keyed_window(sys_))
        assert walk_predicate(cells) == pointwise.greedy_points(sys_)
        assert all(points for _, points in cells)
        assert check_no_escape_multi(sys_, cells) is pointwise.no_escape(sys_) is True

    @settings(max_examples=40, deadline=None)
    @given(box_systems(ordered=False))
    def test_unordered_boxes(self, sys_):
        cells = greedy_cells(KeyedWindow(sys_))
        assert walk_predicate(cells) == pointwise.greedy_points(sys_)
        assert check_no_escape(sys_, cells) is pointwise.no_escape(sys_)

    def test_unordered_boxes_can_escape(self):
        # every 2-variable box system with bounds in {1, 2}; some escape
        verdicts = []
        for flat in product((1, 2), repeat=6):
            sys_ = ZonotopeSystem((flat[0:2], flat[2:4], flat[4:6]))
            verdicts.append(check_no_escape(sys_, greedy_cells(KeyedWindow(sys_))))
            assert verdicts[-1] is pointwise.no_escape(sys_)
        assert True in verdicts and False in verdicts

    def test_content_and_points_per_cell(self):
        sys_ = ZonotopeSystem(((1, 2), (2, 2), (3, 1)))
        for rc, points in greedy_cells(KeyedWindow(sys_)):
            assert points
            assert all(row_content_of(b, sys_) == rc for b in points)


class TestRowsFitTheWindow:
    """Every window point's row passes the closure's column-box test, so
    build_matrix needs only the lookup of each column key."""

    @settings(max_examples=40, deadline=None)
    @given(box_systems(ordered=False))
    def test_boxes(self, sys_):
        window = keyed_window(sys_)
        assert all(window.fits(w, window.record(w)) for w in lattice_points(sys_))

    @settings(max_examples=40, deadline=None)
    @given(multi_systems())
    def test_multihomogeneous(self, sys_):
        window = keyed_window(sys_)
        points = map(window.to_window, lattice_points_multi(sys_))
        assert all(window.fits(w, window.record(w)) for w in points)


class TestCellPoints:
    @settings(max_examples=30, deadline=None)
    @given(box_systems(ordered=False))
    def test_boxes(self, sys_):
        window = KeyedWindow(sys_)
        check_cell_points(sys_, window, lambda w: type_function_of(w, sys_))

    @settings(max_examples=30, deadline=None)
    @given(multi_systems())
    def test_multihomogeneous(self, sys_):
        window = keyed_window(sys_)
        check_cell_points(
            sys_, window, lambda w: type_function_multi(window.from_window(w), sys_)
        )


def check_cell_points(sys_, window, type_function):
    """cell_points(phi) holds count points of type phi; the cells tile the window."""
    total = 0
    for phi, _, count, *_ in window.cells():
        points = list(window.cell_points(phi))
        assert len(points) == count
        assert points == sorted(set(points))  # key order, no repeats
        assert all(type_function(w) == phi for w in points)
        total += count
    assert total == sys_.lattice_size()


class TestBitsetSplit:
    """The closure keeps a dict of bitsets; every split of the key is exact."""

    @pytest.mark.parametrize("dense", [1, 4, 10**9], ids=["sparse", "split", "dense"])
    @pytest.mark.parametrize("sys_", [
        ZonotopeSystem(((1, 2, 1), (1, 2, 2), (2, 2, 3), (1, 3, 1))),
        MultiHomoSystem((2, 2), ((1, 1), (1, 1), (1, 2), (2, 2), (2, 1))),
        MultiHomoSystem((1, 3), ((1, 1), (1, 1), (2, 1), (2, 2), (1, 2))),
        MultiHomoSystem((4,), ((2,),) * 5),
    ], ids=["box", "groups-22", "groups-13", "group-4"])
    def test_any_split_matches_reference(self, monkeypatch, dense, sys_):
        boxed = isinstance(sys_, ZonotopeSystem)
        ref = box_reference(sys_) if boxed else multi_reference(sys_)
        monkeypatch.setattr(greedy, "_DENSE_BITS", dense)
        window = keyed_window(sys_)
        assert list(window.closure().items()) == list(ref.items())

    @pytest.mark.parametrize("dense", [1, 4, 10**9], ids=["sparse", "split", "dense"])
    def test_any_split_names_the_same_row(self, monkeypatch, dense):
        monkeypatch.setattr(greedy, "_DENSE_BITS", dense)
        window = KeyedWindow(ZonotopeSystem(((1, 1), (1, 2), (1, 1))), (2,))
        with pytest.raises(PointOutOfRange, match=r"row \(2, 3\) leaves the window"):
            window.closure()

    def test_large_group_memory_follows_the_window(self):
        # the embedded box holds 14^6 = 7.5M keys for 3,003 window points
        sys_ = MultiHomoSystem((6,), ((2,),) * 7)
        ref = multi_reference(sys_)
        tracemalloc.start()
        try:
            cl = greedy_closure_multi(sys_)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert list(cl.items()) == list(ref.items())
        assert peak < 1000 * sys_.lattice_size()

    def test_group_of_eight(self):
        # 43,758 window points in a box of 18^8 = 1.1e10 keys
        sys_ = MultiHomoSystem((8,), ((2,),) * 9)
        size = len(greedy_closure_multi(sys_))
        assert size == predicted_size_multihomo(sys_) == 25194


class TestEscape:
    def test_escaping_column_raises(self):
        # Validated systems never escape: each coordinate's column range
        # stays inside its own interval block.  A block whose coordinates
        # do not share their bounds is no embedded simplex, and there the
        # support image of the last polynomial leaves the window.
        zsys = ZonotopeSystem(((1, 1), (1, 1), (2, 1)))
        window = KeyedWindow(zsys, (2,))
        with pytest.raises(PointOutOfRange):
            window.closure()

    @pytest.mark.parametrize("bounds, groups", [
        (((1, 1), (1, 2), (1, 1)), (2,)),
        (((1, 1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 1)), (2, 1)),
    ])
    def test_reached_row_escapes(self, bounds, groups):
        # every mixed seed fits, so the escaping row is one the search reached
        window = KeyedWindow(ZonotopeSystem(bounds), groups)
        seeds = list(window.mixed_window_points())
        assert all(window.fits(w, window.record(w)) for w in seeds)
        with pytest.raises(PointOutOfRange):
            window.closure()

    def test_escaping_row_is_named(self):
        window = KeyedWindow(ZonotopeSystem(((1, 1), (1, 2), (1, 1))), (2,))
        assert (2, 3) not in set(window.mixed_window_points())
        with pytest.raises(PointOutOfRange, match=r"row \(2, 3\) leaves the window"):
            window.closure()

    def test_escape_check_is_exact(self):
        # the O(n) test agrees with checking every column point
        for flat in product((1, 2), repeat=6):
            zsys = ZonotopeSystem((flat[0:2], flat[2:4], flat[4:6]))
            window = KeyedWindow(zsys, (2,))
            # the block's coordinates can have different intervals, where a
            # product of runs holds points that do not increase; none is a seed
            assert all(w[0] < w[1] for w in window.mixed_window_points())
            try:
                window.closure()
                escaped = False
            except PointOutOfRange:
                escaped = True
            assert escaped == _escapes_pointwise(window)


def _escapes_pointwise(window):
    zsys = window.zsys
    valid = {w for w in lattice_points(zsys) if w[0] < w[1]}
    seen = set(window.mixed_window_points())
    queue = deque(seen)
    while queue:
        w = queue.popleft()
        poly, vertex = row_content_of(w, zsys)
        d = zsys.bounds[poly][0]
        for a, b in product(range(d + 1), repeat=2):
            if a > b:
                continue
            col = (w[0] - vertex[0] + a, w[1] - vertex[1] + b)
            if col not in valid:
                return True
            if col not in seen:
                seen.add(col)
                queue.append(col)
    return False
