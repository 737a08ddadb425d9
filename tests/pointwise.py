"""Per-point reference functions: the oracle the keyed engine is tested against.

The library classifies window points through greedy.KeyedWindow.  The
functions here classify one point at a time, from the interval arithmetic of
resmat.subdivision, through the embedding for multihomogeneous systems.
They share no code with KeyedWindow beyond the system records.

The reflected functions classify a point in the subdivision of the opposite
orientation (positive instead of negative lifting slopes): reflect the point
coordinatewise through the window, b_j -> total_j - 1 - b_j, classify it,
and flip the support vertex back through its box, v -> a_i - v.
"""

from itertools import product
from operator import sub
from typing import Iterator, Sequence

from resmat import BadShape, MultiHomoSystem, ZonotopeSystem
from resmat.greedy import is_greedy
from resmat.multihomo import embed, lattice_points_multi
from resmat.subdivision import (
    _check_window, lattice_points, row_content_of, type_function_of
)
from resmat.systems import Point, RowContent, TypeFunction, type_vector_of


def cell_points(
    phi: Sequence[int], sys_: ZonotopeSystem
) -> Iterator[Point]:
    """Lattice points whose type function equals phi, in lexicographic order.

    The cell of phi is a box with side lengths a_phi(j)j, so the fiber is a
    coordinate product of intervals.
    """
    n = sys_.n
    prefixes = sys_.column_prefixes
    ranges = []
    for j, v in enumerate(phi):
        if not 0 <= v <= n:
            raise BadShape(f"type function value {v} outside 0..{n}")
        ranges.append(range(prefixes[j][v], prefixes[j][v + 1]))
    return product(*ranges)


def reflect_point(b: Sequence[int], sys_: ZonotopeSystem) -> Point:
    """Reflect a point coordinatewise through the window, b_j -> total_j - 1 - b_j."""
    return tuple(t - 1 - c for c, t in zip(b, sys_.column_totals))


def reflected_type_function(b: Sequence[int], sys_: ZonotopeSystem) -> TypeFunction:
    """Type function of b in the subdivision of the opposite orientation."""
    _check_window(b, sys_)
    return type_function_of(reflect_point(b, sys_), sys_)


def reflected_row_content(b: Sequence[int], sys_: ZonotopeSystem) -> RowContent:
    """Polynomial and support vertex of b in the opposite orientation."""
    _check_window(b, sys_)
    poly, vertex = row_content_of(reflect_point(b, sys_), sys_)
    return RowContent(poly, tuple(map(sub, sys_.bounds[poly], vertex)))


def column_support(
    b: Sequence[int], sys_: ZonotopeSystem, reflected: bool = False
) -> Iterator[Point]:
    """Candidate column points of row b: b - vertex + (support of its poly).

    Every yielded point lies in the window again; the matrix row of b has
    its potential entries exactly on these points.
    """
    content = reflected_row_content if reflected else row_content_of
    poly, vertex = content(b, sys_)
    base = tuple(c - v for c, v in zip(b, vertex))
    for a in sys_.support(poly):
        yield tuple(c + x for c, x in zip(base, a))


def in_lattice_multi(b: Sequence[int], sys_: MultiHomoSystem) -> bool:
    if len(b) != sys_.n or any(c < 0 for c in b):
        return False
    for l, (start, stop) in enumerate(sys_.group_slices):
        if sum(b[start:stop]) > sys_.degree_totals[l] - sys_.group_sizes[l]:
            return False
    return True


def type_function_multi(b: Sequence[int], sys_: MultiHomoSystem) -> TypeFunction:
    """Type function of a multihomogeneous point, in embedded coordinates."""
    zsys, emb = embed(sys_)
    return type_function_of(emb.to_window(b), zsys)


def row_content_multi(b: Sequence[int], sys_: MultiHomoSystem) -> RowContent:
    """Polynomial index and simplex-product vertex of the cell containing b."""
    zsys, emb = embed(sys_)
    poly, embedded_vertex = row_content_of(emb.to_window(b), zsys)
    return RowContent(poly, emb.vertex_preimage(embedded_vertex))


def column_support_multi(
    b: Sequence[int], sys_: MultiHomoSystem
) -> Iterator[Point]:
    """Candidate column points of row b, in the natural exponent coordinates."""
    poly, vertex = row_content_multi(b, sys_)
    base = tuple(c - v for c, v in zip(b, vertex))
    for a in sys_.support(poly):
        yield tuple(c + x for c, x in zip(base, a))


def greedy_points(sys_) -> set[Point]:
    """Window points whose per-point type vector passes the greedy rule."""
    if isinstance(sys_, MultiHomoSystem):
        points, type_function = lattice_points_multi(sys_), type_function_multi
    else:
        points, type_function = lattice_points(sys_), type_function_of
    return {
        b for b in points
        if is_greedy(type_vector_of(type_function(b, sys_), sys_.n))
    }


def no_escape(sys_) -> bool:
    """True when the per-point columns of greedy points are greedy points."""
    greedy = greedy_points(sys_)
    multi = isinstance(sys_, MultiHomoSystem)
    columns = column_support_multi if multi else column_support
    return all(col in greedy for b in greedy for col in columns(b, sys_))
