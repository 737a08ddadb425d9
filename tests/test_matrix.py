import gc
import random
from operator import sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pointwise
import resmat.matrix
import resmat.multihomo
import resmat.subdivision
from pointwise import (
    column_support,
    column_support_multi,
    reflected_row_content,
    reflected_type_function,
    row_content_multi,
    type_function_multi,
)
from resmat import (
    BadShape,
    CoeffRef,
    DEFAULT_PRIME,
    MultiHomoSystem,
    NotClosed,
    PointOutOfRange,
    UnsupportedFormat,
    build_matrix,
    draw_coefficients,
    export_matrix,
    greedy_closure,
    greedy_closure_multi,
    principal_submatrix,
    sparse_det,
    specialize_rows,
    validate_multihomo,
    validate_zonotope,
)
from resmat.cli import load_system
from resmat.greedy import is_greedy
from resmat.multihomo import lattice_points_multi
from resmat.subdivision import is_mixed, lattice_points, row_content_of, type_function_of
from resmat.systems import type_vector_of

UNIT2 = validate_zonotope([[1, 1], [1, 1], [1, 1]])
UNIT3 = validate_zonotope([[1, 1, 1]] * 4)
TRI = validate_multihomo((2,), [[2], [2], [1]])


def greedy_matrix(sys_):
    if hasattr(sys_, "degrees"):
        return build_matrix(list(greedy_closure_multi(sys_)), sys_)
    return build_matrix(list(greedy_closure(sys_)), sys_)


class TestBuildMatrix:
    def test_unit_greedy_is_8x8(self):
        m = greedy_matrix(UNIT2)
        assert m.size == 8

    def test_unit_full_is_9x9(self):
        m = build_matrix(list(lattice_points(UNIT2)), UNIT2)
        assert m.size == 9

    def test_pinned_row_entries(self):
        m = greedy_matrix(UNIT2)
        ri = m.points.index((0, 1))
        entries = {m.points[c]: ref for c, ref in m.rows[ri]}
        assert entries == {
            (0, 1): CoeffRef(2, (0, 0)),
            (1, 1): CoeffRef(2, (1, 0)),
            (0, 2): CoeffRef(2, (0, 1)),
            (1, 2): CoeffRef(2, (1, 1)),
        }

    def test_diagonal_is_content_label(self):
        for m in (greedy_matrix(UNIT2), greedy_matrix(TRI)):
            for r, rc in enumerate(m.row_contents):
                assert dict(m.rows[r])[r] == CoeffRef(rc.poly, rc.vertex)

    def test_row_touches_single_polynomial(self):
        m = build_matrix(list(lattice_points(UNIT3)), UNIT3)
        for r in range(m.size):
            polys = {ref.poly for _, ref in m.rows[r]}
            assert polys == {m.row_contents[r].poly}

    def test_row_entry_count_is_support_size(self):
        m = greedy_matrix(UNIT3)
        for r in range(m.size):
            expected = set(UNIT3.support(m.row_contents[r].poly))
            assert len(m.rows[r]) == len(expected)
            assert {ref.support for _, ref in m.rows[r]} == expected

    def test_point_order_greedy_mixed_first(self):
        m = build_matrix(list(lattice_points(UNIT2)), UNIT2)
        ranks = [
            0 if g and x else (1 if g else 2)
            for g, x in zip(m.greedy_flags, m.mixed_flags)
        ]
        assert ranks == sorted(ranks)
        for rank in range(3):
            seg = [b for b, r in zip(m.points, ranks) if r == rank]
            assert seg == sorted(seg)

    def test_block_triangular_in_full_order(self, system_family):
        for sys_ in system_family[:6]:
            m = build_matrix(list(lattice_points(sys_)), sys_)
            for (r, c) in m.entries:
                if m.greedy_flags[r]:
                    assert m.greedy_flags[c]

    def test_not_closed_witness(self):
        points = [b for b in greedy_closure(UNIT2) if b != (1, 2)]
        with pytest.raises(NotClosed) as exc:
            build_matrix(points, UNIT2)
        assert exc.value.missing_point == (1, 2)
        assert "closed" in str(exc.value)

    def test_multihomo_worked_example_is_9x9(self):
        m = greedy_matrix(TRI)
        assert m.size == 9
        full = build_matrix(list(lattice_points_multi(TRI)), TRI)
        assert full.size == 10


@st.composite
def ordered_boxes(draw):
    n = draw(st.integers(1, 3))
    cols = []
    for _ in range(n):
        col = draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1))
        cols.append(sorted(col[:n]) + col[n:])
    return validate_zonotope(list(zip(*cols)))


@st.composite
def ordered_multihomo(draw):
    sizes = draw(st.sampled_from([(1,), (2,), (3,), (1, 1), (1, 2), (2, 1)]))
    n = sum(sizes)
    cols = []
    for _ in sizes:
        col = draw(st.lists(st.integers(1, 2), min_size=n + 1, max_size=n + 1))
        cols.append(sorted(col[:n]) + col[n:])
    return validate_multihomo(sizes, list(zip(*cols)))


def expected_rows(m, sys_):
    """Each row as a set of (column index, label), from the per-point functions."""
    index = {b: i for i, b in enumerate(m.points)}
    out = []
    for b in m.points:
        if isinstance(sys_, MultiHomoSystem):
            poly = row_content_multi(b, sys_).poly
            cols = column_support_multi(b, sys_)
        else:
            poly = row_content_of(b, sys_).poly
            cols = column_support(b, sys_)
        out.append({
            (index[col], CoeffRef(poly, a))
            for col, a in zip(cols, sys_.support(poly))
        })
    return out


def classify(b, sys_):
    """(mixed, greedy, row content) of b from the per-point classifiers."""
    if isinstance(sys_, MultiHomoSystem):
        phi, rc = type_function_multi(b, sys_), row_content_multi(b, sys_)
    else:
        phi, rc = type_function_of(b, sys_), row_content_of(b, sys_)
    t = type_vector_of(phi, sys_.n)
    return is_mixed(t), is_greedy(t), rc


def expected_order(points, sys_):
    """Greedy-mixed, then greedy, then the rest, lexicographic in each class."""
    def rank(b):
        mixed, greedy, _ = classify(b, sys_)
        return (not greedy, not mixed, b)

    return sorted(set(map(tuple, points)), key=rank)


def check_rows(points, sys_):
    """Build the matrix over points and check it against the per-point route."""
    m = build_matrix(points, sys_)
    assert list(m.points) == expected_order(points, sys_)
    mixed, greedy, contents = zip(*(classify(b, sys_) for b in m.points))
    assert m.mixed_flags == mixed
    assert m.greedy_flags == greedy
    assert m.row_contents == contents
    assert [set(row) for row in m.rows] == expected_rows(m, sys_)
    # one CoeffRef object per label, shared by every row that carries it
    refs = [ref for row in m.rows for _, ref in row]
    assert len(set(map(id, refs))) == len(set(refs))
    for row in m.rows:
        cols = [c for c, _ in row]
        assert all(a < b for a, b in zip(cols, cols[1:]))
    assert len(m.entries) == sum(len(row) for row in m.rows)
    e = principal_submatrix(m)
    assert principal_submatrix(e) == e


class TestRowsMatchColumnSupport:
    @settings(max_examples=25, deadline=None)
    @given(ordered_boxes())
    def test_ordered_boxes(self, sys_):
        check_rows(list(greedy_closure(sys_)), sys_)
        check_rows(list(lattice_points(sys_)), sys_)

    @settings(max_examples=25, deadline=None)
    @given(ordered_multihomo())
    def test_ordered_multihomogeneous(self, sys_):
        check_rows(list(greedy_closure_multi(sys_)), sys_)
        check_rows(list(lattice_points_multi(sys_)), sys_)


SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))


def check_leading_block(sys_):
    """H_G is the leading block of H: verify's block-determinant-product
    takes det H_G from the greedy build and det H_RR from H's trailing rows."""
    multi = isinstance(sys_, MultiHomoSystem)
    closure = greedy_closure_multi(sys_) if multi else greedy_closure(sys_)
    points = lattice_points_multi(sys_) if multi else lattice_points(sys_)
    full = build_matrix(list(points), sys_)
    greedy = build_matrix(list(closure), sys_)
    k = sum(full.greedy_flags)
    assert greedy.size == k
    assert greedy.points == full.points[:k]
    assert greedy.rows == full.rows[:k]


class TestGreedyIsLeadingBlock:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.stem)
    def test_specs(self, spec):
        check_leading_block(load_system(str(spec))[0])

    @settings(max_examples=25, deadline=None)
    @given(ordered_boxes())
    def test_ordered_boxes(self, sys_):
        check_leading_block(sys_)

    @settings(max_examples=25, deadline=None)
    @given(ordered_multihomo())
    def test_ordered_multihomogeneous(self, sys_):
        check_leading_block(sys_)


def reflected_rows(sys_, coeffs, p, principal=False):
    """Specialised rows of the reflected-orientation H (or E), point by point.

    Rows and columns are the window points (non-mixed ones for E) in
    lexicographic order; each row comes from the per-point reflected
    classification, with no keyed window involved.
    """
    points = [
        b for b in lattice_points(sys_)
        if not principal
        or not is_mixed(type_vector_of(reflected_type_function(b, sys_), sys_.n))
    ]
    index = {b: r for r, b in enumerate(points)}
    rows = []
    for b in points:
        poly = reflected_row_content(b, sys_).poly
        cols = column_support(b, sys_, reflected=True)
        pairs = ((index.get(col), coeffs[CoeffRef(poly, a)])
                 for col, a in zip(cols, sys_.support(poly)))
        rows.append({c: v for c, v in pairs if c is not None and v})
    return rows


class TestReflectedIsFlippedDraw:
    """det H_R(u) = det H(u_flip) and det E_R(u) = det E(u_flip), where
    u_flip[i][a] = u[i][a_i - a]: verify's check e reads the reflected
    determinants off H and E at that draw."""

    @settings(max_examples=25, deadline=None)
    @given(ordered_boxes(), st.integers(0, 2**32))
    def test_ordered_boxes(self, sys_, seed):
        assume(sys_.lattice_size() <= 200)
        p = DEFAULT_PRIME
        coeffs = draw_coefficients(sys_, random.Random(seed), p)
        flip = {CoeffRef(i, tuple(map(sub, sys_.bounds[i], a))): v
                for (i, a), v in coeffs.items()}
        h = build_matrix(lattice_points(sys_), sys_)
        for m, principal in ((h, False), (principal_submatrix(h), True)):
            want = sparse_det(reflected_rows(sys_, coeffs, p, principal), p)
            assert sparse_det(specialize_rows(m, flip, p), p) == want


def per_point_witness(points, sys_):
    """First row in matrix order with a missing column, and that column."""
    present = set(points)
    for b in expected_order(points, sys_):
        if isinstance(sys_, MultiHomoSystem):
            cols = column_support_multi(b, sys_)
        else:
            cols = column_support(b, sys_)
        for col in cols:
            if col not in present:
                return b, col
    return None


def check_witness(points, sys_):
    expected = per_point_witness(points, sys_)
    if expected is None:
        build_matrix(points, sys_)
        return None
    with pytest.raises(NotClosed) as exc:
        build_matrix(points, sys_)
    assert (exc.value.row_point, exc.value.missing_point) == expected
    return expected


def drop_some(data, points, sys_):
    """points without a random nonempty set of their non-mixed points."""
    candidates = [b for b in points if not classify(b, sys_)[0]]
    dropped = data.draw(st.sets(st.sampled_from(candidates), min_size=1, max_size=3))
    return [b for b in points if b not in dropped], dropped


class TestNotClosedWitness:
    @settings(max_examples=25, deadline=None)
    @given(ordered_boxes(), st.data())
    def test_ordered_boxes(self, sys_, data):
        closure = list(greedy_closure(sys_))
        if all(classify(b, sys_)[0] for b in closure):
            return
        kept, dropped = drop_some(data, closure, sys_)
        # the closure reaches every point from a mixed one, so a row breaks
        assert check_witness(kept, sys_)[1] in dropped
        full, _ = drop_some(data, list(lattice_points(sys_)), sys_)
        check_witness(full, sys_)

    @settings(max_examples=25, deadline=None)
    @given(ordered_multihomo(), st.data())
    def test_ordered_multihomogeneous(self, sys_, data):
        closure = list(greedy_closure_multi(sys_))
        if all(classify(b, sys_)[0] for b in closure):
            return
        kept, dropped = drop_some(data, closure, sys_)
        assert check_witness(kept, sys_)[1] in dropped


BAD_POINTS = [
    (UNIT2, (0, 3), PointOutOfRange),
    (UNIT2, (-1, 0), PointOutOfRange),
    (UNIT2, (0, 0, 0), BadShape),
    (UNIT2, (1,), BadShape),
    (TRI, (-1, 0), PointOutOfRange),
    (TRI, (2, 2), PointOutOfRange),
    (TRI, (0, 0, 0), BadShape),
    (TRI, (1,), BadShape),
]


class TestBadPoints:
    @pytest.mark.parametrize("sys_, bad, error", BAD_POINTS)
    def test_same_error_as_per_point_route(self, sys_, bad, error):
        multi = isinstance(sys_, MultiHomoSystem)
        full = list(lattice_points_multi(sys_) if multi else lattice_points(sys_))
        with pytest.raises(error) as want:
            classify(bad, sys_)
        with pytest.raises(error) as got:
            build_matrix(full + [bad], sys_)
        assert str(got.value) == str(want.value)


def forbid_per_point(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("per-point function called")

    names = (
        "type_function_of", "row_content_of", "column_support",
        "type_function_multi", "row_content_multi", "column_support_multi",
    )
    for module in (resmat.subdivision, resmat.multihomo, resmat.matrix, pointwise):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)


class TestKeyedSuccessPath:
    def test_no_per_point_classifier(self, monkeypatch):
        cases = [
            (list(greedy_closure(UNIT3)), UNIT3),
            (list(lattice_points(UNIT3)), UNIT3),
            (list(lattice_points_multi(TRI)), TRI),
        ]
        expected = [build_matrix(*case) for case in cases]
        forbid_per_point(monkeypatch)
        assert [build_matrix(*case) for case in cases] == expected

    def test_error_path_without_per_point_classifier(self, monkeypatch):
        forbid_per_point(monkeypatch)
        with pytest.raises(NotClosed) as exc:
            build_matrix([b for b in greedy_closure(UNIT2) if b != (1, 2)], UNIT2)
        assert exc.value.missing_point == (1, 2)
        with pytest.raises(PointOutOfRange):
            build_matrix([(0, 3)], UNIT2)
        with pytest.raises(PointOutOfRange):
            build_matrix([(2, 2)], TRI)


class TestGcPause:
    def test_paused_during_build_and_restored(self):
        states = []

        def points():
            states.append(gc.isenabled())
            yield from lattice_points(UNIT2)

        assert gc.isenabled()
        build_matrix(points(), UNIT2)
        assert states == [False]
        assert gc.isenabled()
        principal_submatrix(greedy_matrix(UNIT2))
        assert gc.isenabled()

    def test_restored_after_not_closed(self):
        points = [b for b in greedy_closure(UNIT2) if b != (1, 2)]
        with pytest.raises(NotClosed):
            build_matrix(points, UNIT2)
        assert gc.isenabled()
        with pytest.raises(PointOutOfRange):
            build_matrix([(5, 5)], UNIT2)
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        m = greedy_matrix(UNIT2)
        points = [b for b in greedy_closure(UNIT2) if b != (1, 2)]
        gc.disable()
        try:
            build_matrix(m.points, UNIT2)
            assert not gc.isenabled()
            principal_submatrix(m)
            assert not gc.isenabled()
            with pytest.raises(NotClosed):
                build_matrix(points, UNIT2)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestEntriesView:
    def test_view_matches_rows(self):
        m = greedy_matrix(UNIT2)
        view = m.entries
        assert len(view) == 32
        assert list(view) == [(r, c) for r, row in enumerate(m.rows) for c, _ in row]
        for (r, c), ref in view.items():
            assert (c, ref) in m.rows[r]
            assert view[(r, c)] is ref

    def test_missing_entry(self):
        view = greedy_matrix(UNIT2).entries
        zero = next((r, c) for r in range(8) for c in range(8) if (r, c) not in view)
        assert view.get(zero) is None
        for key in (zero, (-1, 0), (8, 0)):
            with pytest.raises(KeyError):
                view[key]


class TestPrincipalSubmatrix:
    def test_unit_principal_is_2x2(self):
        e = principal_submatrix(greedy_matrix(UNIT2))
        assert e.size == 2
        assert e.points == ((1, 1), (2, 2))
        assert e.rows == (
            ((0, CoeffRef(2, (0, 0))), (1, CoeffRef(2, (1, 1)))),
            ((0, CoeffRef(1, (0, 0))), (1, CoeffRef(1, (1, 1)))),
        )

    def test_univariate_principal_is_empty(self):
        for bounds in ([[1], [1]], [[2], [3]]):
            s = validate_zonotope(bounds)
            m = build_matrix(list(lattice_points(s)), s)
            assert principal_submatrix(m).size == 0

    def test_unit3_greedy_principal_is_26(self):
        e = principal_submatrix(greedy_matrix(UNIT3))
        assert e.size == 26

    def test_idempotent(self):
        m = greedy_matrix(UNIT2)
        e = principal_submatrix(m)
        again = principal_submatrix(e)
        assert again.points == e.points
        assert again.rows == e.rows

    def test_no_mixed_rows(self):
        e = principal_submatrix(greedy_matrix(UNIT3))
        assert not any(e.mixed_flags)


class TestExport:
    def test_triplet_record_count(self):
        data = export_matrix(greedy_matrix(UNIT2), "triplets").decode()
        lines = data.strip().splitlines()
        assert lines[0] == "# n=2"
        assert lines[1] == "# rows=8"
        assert lines[2] == "# order=greedy-first-lex"
        assert len(lines) - 3 == 32

    def test_triplet_record_shape(self):
        data = export_matrix(greedy_matrix(UNIT2), "triplets").decode()
        record = data.strip().splitlines()[3]
        parts = [p.strip() for p in record.split(";")]
        assert len(parts) == 4
        assert parts[0] == "0,1"

    def test_dense_diagonal(self):
        e = principal_submatrix(greedy_matrix(UNIT2))
        data = export_matrix(e, "dense").decode()
        grid = data.strip().splitlines()[3:]
        assert grid[0].split() == ["u[2][0,0]", "u[2][1,1]"]
        assert grid[1].split() == ["u[1][0,0]", "u[1][1,1]"]

    def test_empty_matrix_header(self):
        s = validate_zonotope([[1], [1]])
        m = build_matrix(list(lattice_points(s)), s)
        e = principal_submatrix(m)
        data = export_matrix(e, "triplets").decode()
        assert data == "# n=0\n# rows=0\n# order=greedy-first-lex\n"

    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormat):
            export_matrix(greedy_matrix(UNIT2), "csv")

    def test_deterministic(self):
        a = export_matrix(greedy_matrix(UNIT2), "triplets")
        b = export_matrix(greedy_matrix(UNIT2), "triplets")
        assert a == b

    def test_dense_zero_fill(self):
        m = greedy_matrix(UNIT2)
        data = export_matrix(m, "dense").decode()
        grid = data.strip().splitlines()[3:]
        assert len(grid) == 8
        row = grid[0].split()
        assert len(row) == 8
        assert row.count("0") == 4
