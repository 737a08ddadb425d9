"""Core data model: box-support systems and multihomogeneous systems.

A box system consists of n+1 supports in Z^n, the i-th being the axis
aligned box {b : 0 <= b_j <= a_ij}.  A multihomogeneous system groups the
variables into s blocks and gives every polynomial a per-block degree; its
supports are products of dilated standard simplices, one per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    BadShape,
    NonPositiveBound,
    OrderingViolated,
    SingularGenerators,
)

Point = tuple[int, ...]
TypeFunction = tuple[int, ...]
TypeVector = tuple[int, ...]


class RowContent(NamedTuple):
    """Row label of a lattice point: a polynomial index and a support vertex."""

    poly: int
    vertex: Point


class CoeffRef(NamedTuple):
    """Symbolic coefficient: the monomial `support` of polynomial `poly`."""

    poly: int
    support: Point


@dataclass(frozen=True)
class ZonotopeSystem:
    """n+1 axis-aligned box supports in Z^n, given by their bound rows.

    bounds[i][j] is the j-th side length of the i-th box.  Rows 0..n-1 must
    be coordinatewise nondecreasing (row n is exempt); this ordering is what
    the greedy reduction theorems rely on.  Use validate_zonotope to build
    instances from untrusted data.
    """

    bounds: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.bounds) - 1

    @cached_property
    def column_totals(self) -> tuple[int, ...]:
        """Per coordinate j, the window length sum_i a_ij."""
        return tuple(sum(col) for col in zip(*self.bounds))

    @cached_property
    def column_prefixes(self) -> tuple[tuple[int, ...], ...]:
        """Per coordinate j, cumulative sums (0, a_0j, a_0j+a_1j, ..., total).

        Entry i and i+1 delimit the half-open interval of points whose type
        at coordinate j is i.
        """
        return tuple(tuple(accumulate(col, initial=0)) for col in zip(*self.bounds))

    def lattice_size(self) -> int:
        """Number of points in the half-open window, prod_j sum_i a_ij."""
        return math.prod(self.column_totals)

    def support(self, i: int) -> Iterator[Point]:
        """Lattice points of the i-th box, in lexicographic order."""
        return product(*(range(a + 1) for a in self.bounds[i]))


def validate_zonotope(bounds: Sequence[Sequence[int]]) -> ZonotopeSystem:
    """Check shape, positivity and row ordering; return the frozen system.

    Raises BadShape, NonPositiveBound or OrderingViolated.
    """
    rows = [tuple(int(x) for x in row) for row in bounds]
    if len(rows) < 2:
        raise BadShape(f"need at least 2 rows of bounds, got {len(rows)}")
    n = len(rows) - 1
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadShape(
                f"row {i} has {len(row)} entries, expected {n} "
                f"(bounds must be (n+1) x n)"
            )
        for j, a in enumerate(row):
            if a < 1:
                raise NonPositiveBound(f"bound a[{i}][{j}] = {a} must be >= 1")
    for i in range(n - 1):
        for j in range(n):
            if rows[i][j] > rows[i + 1][j]:
                raise OrderingViolated(
                    f"rows 0..{n - 1} must be coordinatewise nondecreasing, "
                    f"but a[{i}][{j}] = {rows[i][j]} > a[{i + 1}][{j}] = "
                    f"{rows[i + 1][j]}; permute the polynomial indices to "
                    f"restore the ordering (the resultant is symmetric under "
                    f"reindexing)"
                )
    return ZonotopeSystem(tuple(rows))


def _int_det(columns: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(columns)
    m = [[int(columns[c][r]) for c in range(n)] for r in range(n)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def normalize_zonotope(
    generators: Sequence[Sequence[int]], bounds: Sequence[Sequence[int]]
) -> tuple[ZonotopeSystem, int]:
    """Reduce a zonotope system with generator columns v_1..v_n to boxes.

    The supports {sum_j c_j v_j : 0 <= c_j <= a_ij} pull back through the
    generator matrix to plain boxes with the same bounds.  Returns the box
    system together with the exponent |det V|: the resultant of the original
    system is the box-system resultant raised to that exponent.
    """
    sys_ = validate_zonotope(bounds)
    cols = [tuple(int(x) for x in col) for col in generators]
    if len(cols) != sys_.n or any(len(c) != sys_.n for c in cols):
        raise BadShape(
            f"generator matrix must be {sys_.n} columns of length {sys_.n}"
        )
    det = _int_det(cols)
    if det == 0:
        raise SingularGenerators("generator columns are linearly dependent")
    return sys_, abs(det)


def type_vector_of(phi: Sequence[int], n: int) -> TypeVector:
    """Count the preimages of each value 0..n under a type function."""
    counts = [0] * (n + 1)
    for v in phi:
        if not 0 <= v <= n:
            raise BadShape(f"type function value {v} outside 0..{n}")
        counts[v] += 1
    return tuple(counts)


@dataclass(frozen=True)
class MultiHomoSystem:
    """n+1 simplex-product supports for variables grouped into s blocks.

    group_sizes[l] is the number of variables in block l; degrees[i][l] is
    the degree of polynomial i in block l.  The i-th support is the set of
    exponent vectors that are nonnegative and sum to at most degrees[i][l]
    inside every block.  Rows 0..n-1 of degrees must be coordinatewise
    nondecreasing (row n is exempt), mirroring the box-system ordering.
    """

    group_sizes: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]

    @property
    def s(self) -> int:
        return len(self.group_sizes)

    @property
    def n(self) -> int:
        return sum(self.group_sizes)

    @cached_property
    def group_slices(self) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges of each block in the flat coordinate order."""
        out = []
        start = 0
        for size in self.group_sizes:
            out.append((start, start + size))
            start += size
        return tuple(out)

    @cached_property
    def degree_totals(self) -> tuple[int, ...]:
        """Per block l, sum_i degrees[i][l]."""
        return tuple(sum(col) for col in zip(*self.degrees))

    def support(self, i: int) -> Iterator[Point]:
        """Exponent vectors of polynomial i, in lexicographic order."""
        blocks = [
            _simplex_points(self.degrees[i][l], m)
            for l, m in enumerate(self.group_sizes)
        ]
        for combo in product(*blocks):
            yield tuple(c for block in combo for c in block)

    def lattice_size(self) -> int:
        # Block l contributes the lattice points of a simplex of degree
        # degree_totals[l] - group_sizes[l] (the half-open window).
        return math.prod(
            math.comb(max(t - m, -1) + m, m)
            for t, m in zip(self.degree_totals, self.group_sizes)
        )


def _simplex_points(degree: int, dim: int) -> list[Point]:
    """Lattice points x >= 0 with sum(x) <= degree, lexicographic order."""
    if degree < 0:
        return []
    if dim == 0:
        return [()]
    out = []
    for first in range(degree + 1):
        for rest in _simplex_points(degree - first, dim - 1):
            out.append((first,) + rest)
    return out


def validate_multihomo(
    group_sizes: Sequence[int], degrees: Sequence[Sequence[int]]
) -> MultiHomoSystem:
    """Check shapes, positivity and row ordering for a grouped system."""
    sizes = tuple(int(g) for g in group_sizes)
    if not sizes:
        raise BadShape("need at least one variable group")
    if any(g < 1 for g in sizes):
        raise BadShape(f"group sizes must be >= 1, got {sizes}")
    n = sum(sizes)
    rows = [tuple(int(x) for x in row) for row in degrees]
    if len(rows) != n + 1:
        raise BadShape(
            f"need n+1 = {n + 1} degree rows for {n} variables, got {len(rows)}"
        )
    for i, row in enumerate(rows):
        if len(row) != len(sizes):
            raise BadShape(
                f"degree row {i} has {len(row)} entries, expected {len(sizes)}"
            )
        for l, d in enumerate(row):
            if d < 1:
                raise NonPositiveBound(f"degree d[{i}][{l}] = {d} must be >= 1")
    for i in range(n - 1):
        for l in range(len(sizes)):
            if rows[i][l] > rows[i + 1][l]:
                raise OrderingViolated(
                    f"degree rows 0..{n - 1} must be coordinatewise "
                    f"nondecreasing, but d[{i}][{l}] = {rows[i][l]} > "
                    f"d[{i + 1}][{l}] = {rows[i + 1][l]}; permute the "
                    f"polynomial indices to restore the ordering"
                )
    return MultiHomoSystem(sizes, tuple(rows))
