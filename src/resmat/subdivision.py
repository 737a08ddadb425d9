"""The mixed subdivision of a box system, one point at a time.

Every coordinate axis j is cut into n+1 consecutive half-open intervals of
lengths a_0j, ..., a_nj.  The interval index of each coordinate of a lattice
point is its type function; points sharing a type function form one cell of
the mixed subdivision.  The half-open window encodes the generic small
negative translation of the cells, so no lifting or translation values are
ever materialized.

type_function_of and row_content_of classify one point at a time.  The
library classifies through greedy.KeyedWindow; these per-point functions
are the reference it is tested against.  Both accept reflected=True, which
computes the subdivision of the opposite orientation (the one induced by
positive instead of negative lifting slopes).  A point is then classified by
reflecting it coordinatewise through the window, b_j -> total_j - 1 - b_j,
and the returned support vertex is flipped back through its box.  The
reflected subdivision is used for cross-validation only.  _check_window
gives the error of a point outside the window.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import Iterator, Sequence

from .errors import BadShape, InvariantViolated, PointOutOfRange
from .systems import Point, RowContent, TypeFunction, ZonotopeSystem, type_vector_of


def lattice_points(sys_: ZonotopeSystem) -> Iterator[Point]:
    """All points of the half-open window, in lexicographic order.

    These are exactly the lattice points of the generically translated
    Minkowski sum of the supports, and they index the rows of the full
    resultant matrix.
    """
    return product(*(range(t) for t in sys_.column_totals))


def reflect_point(b: Sequence[int], sys_: ZonotopeSystem) -> Point:
    """Reflect a window point coordinatewise, b_j -> total_j - 1 - b_j."""
    return tuple(t - 1 - c for c, t in zip(b, sys_.column_totals))


def type_function_of(
    b: Sequence[int], sys_: ZonotopeSystem, reflected: bool = False
) -> TypeFunction:
    """Interval index of every coordinate of b.

    Coordinate j has type i when it falls in the i-th half-open interval
    [a_0j + ... + a_(i-1)j, a_0j + ... + a_ij) of the window.
    """
    _check_window(b, sys_)
    pt = reflect_point(b, sys_) if reflected else tuple(b)
    prefixes = sys_.column_prefixes
    # bisect_right returns the first prefix strictly above b_j; the interval
    # index is one less.
    return tuple(
        bisect_right(prefixes[j], c) - 1 for j, c in enumerate(pt)
    )


def _check_window(b: Sequence[int], sys_: ZonotopeSystem) -> None:
    if len(b) != sys_.n:
        raise BadShape(f"point {tuple(b)} has {len(b)} coordinates, expected {sys_.n}")
    for j, (c, t) in enumerate(zip(b, sys_.column_totals)):
        if not 0 <= c < t:
            raise PointOutOfRange(
                f"coordinate {j} of {tuple(b)} is outside the window [0, {t})"
            )


def row_content_of(
    b: Sequence[int], sys_: ZonotopeSystem, reflected: bool = False
) -> RowContent:
    """Polynomial index and support vertex of the cell containing b.

    The polynomial index is the largest i whose type count vanishes, and the
    vertex picks, per coordinate, the box corner on the side of the interval
    block where the coordinate lies: 0 below the i-th interval, a_ij above.
    The coordinate can never lie inside the i-th interval itself because the
    i-th type count is zero.
    """
    _check_window(b, sys_)
    pt = reflect_point(b, sys_) if reflected else tuple(b)
    prefixes = sys_.column_prefixes
    phi = tuple(bisect_right(prefixes[j], c) - 1 for j, c in enumerate(pt))
    t = type_vector_of(phi, sys_.n)
    i = max(k for k, cnt in enumerate(t) if cnt == 0)
    vertex = []
    for j, c in enumerate(pt):
        if phi[j] == i:
            raise InvariantViolated(
                "type count of the content index must be zero"
            )
        if c < prefixes[j][i]:
            vertex.append(0)
        else:
            vertex.append(sys_.bounds[i][j])
    if reflected:
        vertex = [a - v for a, v in zip(sys_.bounds[i], vertex)]
    return RowContent(i, tuple(vertex))


def is_mixed(t: Sequence[int]) -> bool:
    """True when exactly one type count is zero.

    Since the counts sum to n over n+1 slots, a single zero forces every
    other count to equal 1, which is the mixed-cell shape.
    """
    return sum(1 for c in t if c == 0) == 1
