"""Multihomogeneous systems via embedding into a box system.

Simplex-product supports embed into box supports: inside a block of size m,
the sums of the last k coordinates (k = 1..m) range over [0, d] exactly when
the block's exponents are nonnegative with total at most d.  The embedded
system is therefore a box system whose bounds repeat the block degree across
the block, and the whole subdivision engine is reused through that lens.

Two bookkeeping details make the reuse exact rather than approximate:

* embedded coordinate k of a block is the sum of the block's last k
  coordinates, so the natural within-block order is reversed; and
* the lattice-point window of embedded coordinate k is shifted by k - 1.

The shift encodes that the generic translation of a simplex cuts its
diagonal facet deeper than a box facet: a translated simplex of degree d
and dimension m keeps binom(d, m) lattice points.  With these offsets the
half-open box window pulls back exactly to the multihomogeneous point set,
and the embedded type functions of its points are nondecreasing inside
every block.  No separate simplex subdivision code exists.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from typing import Iterator, Sequence

from .errors import BadShape, InvariantViolated, PointOutOfRange
from .greedy import greedy_type_functions, is_greedy
from .subdivision import is_mixed, row_content_of, type_function_of
from .systems import (
    MultiHomoSystem,
    Point,
    RowContent,
    TypeFunction,
    ZonotopeSystem,
    _simplex_points,
    type_vector_of,
    validate_zonotope,
)


@dataclass(frozen=True)
class Embedding:
    """Coordinate bookkeeping for one multihomogeneous system.

    W holds the zonotope generator columns of the embedded system (1 on the
    diagonal, -1 on the block superdiagonal), H the dual pairing columns
    (block lower-triangular of ones); both are in the natural coordinate
    order.  layout maps each embedded coordinate to (block, natural
    position), recording the within-block reversal, and offsets holds the
    per-coordinate window shift k - 1.
    """

    group_sizes: tuple[int, ...]
    W: tuple[tuple[int, ...], ...]
    H: tuple[tuple[int, ...], ...]
    layout: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]

    @cached_property
    def group_slices(self) -> tuple[tuple[int, int], ...]:
        out = []
        start = 0
        for size in self.group_sizes:
            out.append((start, start + size))
            start += size
        return tuple(out)

    def to_window(self, b: Sequence[int]) -> Point:
        """Embedded window coordinates of a multihomogeneous point.

        Coordinate k of a block is the sum of the block's last k exponents
        plus the shift k - 1.
        """
        n = sum(self.group_sizes)
        if len(b) != n:
            raise BadShape(f"point {tuple(b)} has {len(b)} coordinates, expected {n}")
        for j, c in enumerate(b):
            if c < 0:
                raise PointOutOfRange(
                    f"coordinate {j} of {tuple(b)} is negative; exponent "
                    f"vectors must be nonnegative"
                )
        out = []
        for start, stop in self.group_slices:
            acc = 0
            for k in range(1, stop - start + 1):
                acc += b[stop - k]
                out.append(acc + k - 1)
        return tuple(out)

    def support_image(self, a: Sequence[int]) -> Point:
        """Embedded coordinates of a support point (no window shift)."""
        out = []
        for start, stop in self.group_slices:
            acc = 0
            for k in range(1, stop - start + 1):
                acc += a[stop - k]
                out.append(acc)
        return tuple(out)

    def vertex_preimage(self, v: Sequence[int]) -> Point:
        """Pull an embedded box vertex back to a simplex-product vertex.

        Inside each block the embedded entries must form a nondecreasing
        staircase of 0s then a constant d; the preimage is then either the
        origin or d times a unit vector of the block.
        """
        out = [0] * len(v)
        for start, stop in self.group_slices:
            seg = v[start:stop]
            m = stop - start
            for k in range(m - 1):
                if seg[k] > seg[k + 1]:
                    raise InvariantViolated(
                        "embedded vertex is not a staircase; the cell "
                        "vertex does not come from a simplex vertex"
                    )
            # natural position p holds the difference of the last-(m+1-p)
            # and last-(m-p) sums
            prev = 0
            for k in range(m):
                out[stop - 1 - k] = seg[k] - prev
                prev = seg[k]
        return tuple(out)


def embed(sys_: MultiHomoSystem) -> tuple[ZonotopeSystem, Embedding]:
    """Embedded box system plus the coordinate bookkeeping.

    The embedded bounds repeat each block degree across the block, so the
    box-system validation (including row ordering) applies verbatim and its
    errors propagate.
    """
    return _embed_cached(sys_)


@lru_cache(maxsize=None)
def _embed_cached(sys_: MultiHomoSystem) -> tuple[ZonotopeSystem, Embedding]:
    n = sys_.n
    bounds = []
    for row in sys_.degrees:
        flat = []
        for l, m in enumerate(sys_.group_sizes):
            flat.extend([row[l]] * m)
        bounds.append(flat)
    zsys = validate_zonotope(bounds)

    W = [[0] * n for _ in range(n)]
    H = [[0] * n for _ in range(n)]
    layout = []
    offsets = []
    start = 0
    for l, m in enumerate(sys_.group_sizes):
        for k in range(m):
            W[start + k][start + k] = 1
            if k + 1 < m:
                W[start + k][start + k + 1] = -1
            for r in range(k, m):
                H[start + r][start + k] = 1
            layout.append((l, m - k))
            offsets.append(k)
        start += m
    emb = Embedding(
        sys_.group_sizes,
        tuple(tuple(r) for r in W),
        tuple(tuple(r) for r in H),
        tuple(layout),
        tuple(offsets),
    )
    return zsys, emb


def zono_coords(b: Sequence[int], emb: Embedding) -> Point:
    """Suffix sums within each block, in the natural coordinate order.

    These are the coefficients of the point in the zonotope generator basis
    W.  Note the subdivision engine works in the reversed-and-shifted window
    coordinates instead (Embedding.to_window).
    """
    out = []
    for start, stop in emb.group_slices:
        for p in range(start, stop):
            out.append(sum(b[p:stop]))
    return tuple(out)


def is_valid_group_typefn(phi: Sequence[int], emb: Embedding) -> bool:
    """True when phi is nondecreasing along positions inside every block.

    Only such type functions occur among multihomogeneous points; cells with
    any other type function carry no points of the lattice window.
    """
    for start, stop in emb.group_slices:
        for k in range(start, stop - 1):
            if phi[k] > phi[k + 1]:
                return False
    return True


def lattice_points_multi(sys_: MultiHomoSystem) -> Iterator[Point]:
    """Points of the multihomogeneous half-open window, lexicographically.

    Block l ranges over the lattice points of the simplex of degree
    (sum_i d_il) - group_size_l; equivalently these are the exponent vectors
    whose shifted window coordinates stay inside the embedded box window.
    """
    blocks = []
    for l, m in enumerate(sys_.group_sizes):
        blocks.append(_simplex_points(sys_.degree_totals[l] - m, m))
    for combo in product(*blocks):
        yield tuple(c for block in combo for c in block)


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


def greedy_closure_multi(sys_: MultiHomoSystem) -> dict[Point, RowContent]:
    """Close the mixed multihomogeneous points under column supports."""
    zsys, emb = embed(sys_)
    n = sys_.n
    contents: dict[Point, RowContent] = {}
    seen: set[Point] = set()
    queue: deque[Point] = deque()
    for b in lattice_points_multi(sys_):
        t = type_vector_of(type_function_of(emb.to_window(b), zsys), n)
        if is_mixed(t):
            seen.add(b)
            queue.append(b)
    while queue:
        b = queue.popleft()
        contents[b] = row_content_multi(b, sys_)
        for col in column_support_multi(b, sys_):
            if col not in seen:
                seen.add(col)
                queue.append(col)
    return {b: contents[b] for b in sorted(contents)}


def check_no_escape_multi(sys_: MultiHomoSystem) -> bool:
    """Column supports of greedy points stay greedy and inside the window."""
    zsys, emb = embed(sys_)
    n = sys_.n
    greedy_set = set()
    for b in lattice_points_multi(sys_):
        t = type_vector_of(type_function_of(emb.to_window(b), zsys), n)
        if is_greedy(t):
            greedy_set.add(b)
    for b in greedy_set:
        for col in column_support_multi(b, sys_):
            if col not in greedy_set:
                return False
    return True


def predicted_size_multihomo(sys_: MultiHomoSystem) -> int:
    """Greedy matrix size by the per-cell binomial formula.

    A greedy cell with a block-monotone type function phi holds
    prod_l prod_k binom(d_kl, #{positions of block l with phi = k}) points,
    with binom(d, m) = 0 whenever m > d.
    """
    _, emb = embed(sys_)
    n = sys_.n
    total = 0
    for phi in greedy_type_functions(n):
        if is_valid_group_typefn(phi, emb):
            total += _cell_count(phi, sys_, emb)
    return total


def _cell_count(phi: Sequence[int], sys_: MultiHomoSystem, emb: Embedding) -> int:
    count = 1
    for l, (start, stop) in enumerate(emb.group_slices):
        seg = phi[start:stop]
        for k in range(sys_.n + 1):
            count *= math.comb(sys_.degrees[k][l], seg.count(k))
    return count


def cell_table_multi(
    sys_: MultiHomoSystem,
) -> list[tuple[TypeFunction, tuple[int, ...], int, bool, bool, RowContent]]:
    """Summary of every block-monotone cell, in lexicographic phi order.

    Non-monotone cells carry no points and are omitted.  Counts may be zero
    (a diagonal cell whose simplex dimension exceeds its degree).
    """
    zsys, emb = embed(sys_)
    n = sys_.n
    out = []
    for phi in product(range(n + 1), repeat=n):
        if not is_valid_group_typefn(phi, emb):
            continue
        t = type_vector_of(phi, n)
        count = _cell_count(phi, sys_, emb)
        i = max(k for k, c in enumerate(t) if c == 0)
        embedded_vertex = tuple(
            0 if phi[k] < i else zsys.bounds[i][k] for k in range(n)
        )
        vertex = emb.vertex_preimage(embedded_vertex)
        out.append((phi, t, count, is_mixed(t), is_greedy(t), RowContent(i, vertex)))
    return out
