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

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from typing import Iterator, Sequence

from .errors import BadShape, InvariantViolated, PointOutOfRange
from .greedy import CellRow, GreedyCell, KeyedWindow, greedy_cells_closed
from .systems import (
    MultiHomoSystem,
    Point,
    RowContent,
    ZonotopeSystem,
    _simplex_points,
    validate_zonotope,
)


@dataclass(frozen=True)
class Embedding:
    """Coordinate bookkeeping for one multihomogeneous system.

    Embedded coordinate k of a block is the sum of the block's last k
    exponents, shifted by k - 1 for window points.
    """

    group_slices: tuple[tuple[int, int], ...]

    def to_window(self, b: Sequence[int]) -> Point:
        """Embedded window coordinates of a multihomogeneous point.

        Coordinate k of a block is the sum of the block's last k exponents
        plus the shift k - 1.
        """
        n = self.group_slices[-1][1]
        if len(b) != n:
            raise BadShape(f"point {tuple(b)} has {len(b)} coordinates, expected {n}")
        for j, c in enumerate(b):
            if c < 0:
                raise PointOutOfRange(
                    f"coordinate {j} of {tuple(b)} is negative; exponent "
                    f"vectors must be nonnegative"
                )
        out: list[int] = []
        for start, stop in self.group_slices:
            sums = accumulate(reversed(b[start:stop]))
            out.extend(acc + k for k, acc in enumerate(sums))
        return tuple(out)

    def vertex_preimage(self, v: Sequence[int]) -> Point:
        """Pull an embedded box vertex back to a simplex-product vertex.

        Inside each block the embedded entries must form a nondecreasing
        staircase of 0s then a constant d; the preimage is then either the
        origin or d times a unit vector of the block.
        """
        if not is_valid_group_typefn(v, self):
            raise InvariantViolated(
                "embedded vertex is not a staircase; the cell "
                "vertex does not come from a simplex vertex"
            )
        return self._unstack(v, 0)

    def from_window(self, w: Sequence[int]) -> Point:
        """Exponent vector of an embedded window point (inverse of to_window)."""
        return self._unstack(w, 1)

    def _unstack(self, e: Sequence[int], shift: int) -> Point:
        # window coordinate k mirrors to natural position stop-1-(k-start);
        # it holds the step between consecutive suffix sums, less the shift
        out = [0] * len(e)
        for start, stop in self.group_slices:
            prev = -shift
            for k in range(start, stop):
                out[stop - 1 - (k - start)] = e[k] - prev - shift
                prev = e[k]
        return tuple(out)


@lru_cache(maxsize=None)
def embed(sys_: MultiHomoSystem) -> tuple[ZonotopeSystem, Embedding]:
    """Embedded box system plus the coordinate bookkeeping.

    The embedded bounds repeat each block degree across the block, so the
    box-system validation (including row ordering) applies verbatim and its
    errors propagate.
    """
    bounds = [
        [d for d, m in zip(row, sys_.group_sizes) for _ in range(m)]
        for row in sys_.degrees
    ]
    return validate_zonotope(bounds), Embedding(sys_.group_slices)


def is_valid_group_typefn(phi: Sequence[int], emb: Embedding) -> bool:
    """True when phi is nondecreasing along positions inside every block.

    Only such type functions occur among multihomogeneous points; cells with
    any other type function carry no points of the lattice window.  Cell
    vertices are nondecreasing inside blocks for the same reason.
    """
    blocks = emb.group_slices
    return all(phi[k] <= phi[k + 1] for a, b in blocks for k in range(a, b - 1))


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


def keyed_window(sys_: ZonotopeSystem | MultiHomoSystem) -> KeyedWindow:
    """Integer-keyed window of a box system or of an embedded grouped system."""
    if isinstance(sys_, MultiHomoSystem):
        zsys, emb = embed(sys_)
        pre = emb.vertex_preimage
        return KeyedWindow(
            zsys, sys_.group_sizes, emb.from_window, lambda i, v: pre(v), emb.to_window
        )
    return KeyedWindow(sys_)


def greedy_closure_multi(sys_: MultiHomoSystem) -> dict[Point, RowContent]:
    """Close the mixed multihomogeneous points under column supports."""
    return keyed_window(sys_).closure()


def check_no_escape_multi(sys_: MultiHomoSystem, cells: list[GreedyCell]) -> bool:
    """Column supports of greedy points stay greedy and inside the window."""
    return greedy_cells_closed(sys_, cells)


def predicted_size_multihomo(sys_: MultiHomoSystem) -> int:
    """Greedy matrix size by the per-cell binomial formula.

    A greedy cell with a block-monotone type function phi holds
    prod_l prod_k binom(d_kl, #{positions of block l with phi = k}) points,
    with binom(d, m) = 0 whenever m > d.
    """
    return keyed_window(sys_).predicted_size()


def cell_table_multi(sys_: MultiHomoSystem) -> list[CellRow]:
    """Summary of every block-monotone cell, in lexicographic phi order."""
    return list(keyed_window(sys_).cells())
