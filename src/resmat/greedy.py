"""Greedy row selection for box systems, and the keyed closure engine.

A type vector t is greedy when its prefix sums satisfy
t_0 + ... + t_I <= I + 1 for every I < n.  The greedy point set is the
closure of the mixed-cell points under column supports; for ordered bounds
it coincides with the set of points whose type vector is greedy, which gives
a closed-form size prediction.

KeyedWindow runs the closure for box and multihomogeneous systems alike.
Its window coordinates come in blocks that share one bound per polynomial,
as the constructor checks: a box coordinate is a block of size 1, and a
multihomogeneous block is the embedded image of one variable group (see
multihomo).  Inside a block, window points strictly increase and support
images are nondecreasing in [0, bound], so a row's columns are window points.
The closure classifies whole bitsets of keys with per-polynomial masks and
returns a mapping over them, so |G| and the mixed counts are popcounts.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from collections.abc import Mapping
from functools import cache, cached_property, reduce
from itertools import (accumulate, chain, combinations, combinations_with_replacement,
                       groupby, product)
from operator import add, and_, ge, getitem, mul, or_, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InvariantViolated, ResmatError
from .subdivision import _check_window, is_mixed
from .systems import (
    CoeffRef, Point, RowContent, TypeFunction, ZonotopeSystem, type_vector_of
)

# (phi, type vector, point count, mixed, greedy, row content) of one cell
CellRow = tuple[TypeFunction, tuple[int, ...], int, bool, bool, RowContent]
# (content, points in the caller's coordinates) of one nonempty greedy cell
GreedyCell = tuple[RowContent, list[Point]]


# the closure's bitsets hold at most this many bits per window point
_DENSE_BITS = 64


def _bitsets(keys: Iterable[int], span: int) -> dict[int, int]:
    """Keys hi * span + lo as {hi: bitset of their lo}, set through bytearrays."""
    arrays: dict[int, bytearray] = defaultdict(lambda: bytearray(span // 8 + 1))
    for key in keys:
        hi, lo = divmod(key, span)
        arrays[hi][lo >> 3] |= 1 << (lo & 7)
    return {hi: int.from_bytes(a, "little") for hi, a in arrays.items()}


class Closure(Mapping):
    """Read-only {caller point: row content} view of the closure's key bitsets.

    len is a popcount, a lookup tests one bit, and iteration decodes every key
    once, in sorted order.  mixed_by_poly[i] counts the mixed rows of poly i.
    """

    def __init__(self, window: KeyedWindow, seen: dict[int, int], span: int, mixed: list[int]):
        self._window, self._seen, self._span, self.mixed_by_poly = window, seen, span, mixed

    def __len__(self) -> int:
        return sum(m.bit_count() for m in self._seen.values())

    def __iter__(self) -> Iterator[Point]:
        window, span = self._window, self._span
        keys = (hi * span + one.start() for hi, m in self._seen.items()
                for one in re.finditer("1", format(m, "b")[::-1]))
        return iter(sorted(map(window.from_window, map(window.coords, keys))))

    def __getitem__(self, b: Point) -> RowContent:
        try:
            _check_window(w := self._window.to_window(b), self._window.zsys)
        except ResmatError:
            raise KeyError(b) from None
        hi, lo = divmod(self._window.key(w), self._span)
        if not self._seen.get(hi, 0) >> lo & 1:
            raise KeyError(b)
        return self._window.record(w)[0]


def is_greedy(t: Sequence[int]) -> bool:
    """Prefix-sum test: t_0 + ... + t_I <= I + 1 for all I < n."""
    n = sum(t)
    acc = 0
    for i in range(n):
        acc += t[i]
        if acc > i + 1:
            return False
    return True


class KeyedWindow:
    """Mixed-radix integer keys over the window of a box system.

    Point w has key sum_k w_k * strides[k]: key order is lexicographic, and
    a column of row w is key - vertex key + the key of a support image.
    group_sizes splits the axes into blocks that share one bound per
    polynomial (InvariantViolated otherwise; default: size 1).  to_window
    maps the caller's points into the window, from_window maps them back,
    and preimage(i, v) maps a vertex or support image v of polynomial i to
    the caller's coordinates (default: as is).
    """

    def __init__(
        self,
        zsys: ZonotopeSystem,
        group_sizes: Sequence[int] | None = None,
        from_window: Callable[[Sequence[int]], Point] = tuple,
        preimage: Callable[[int, Sequence[int]], Point] = lambda i, v: tuple(v),
        to_window: Callable[[Sequence[int]], Sequence[int]] = tuple,
    ):
        n = zsys.n
        self.zsys = zsys
        self.from_window = from_window
        self.preimage = preimage
        self.to_window = to_window
        self.totals = zsys.column_totals
        self.strides = tuple(math.prod(self.totals[k + 1 :]) for k in range(n))
        sizes = tuple(group_sizes or (1,) * n)
        self.blocks = tuple(zip(accumulate(sizes, initial=0), accumulate(sizes)))
        if any(len(set(row[a:b])) > 1 for row in zsys.bounds for a, b in self.blocks):
            raise InvariantViolated("a block must share one bound per polynomial")
        # per axis, coordinate value -> 1 << (type of that value)
        self.type_bits = tuple(
            dict(enumerate(1 << i for i, a in enumerate(col) for _ in range(a)))
            for col in zip(*zsys.bounds)
        )
        self._full = (1 << (n + 1)) - 1
        self._parts: dict[tuple, list[Point]] = {}
        self._lows = [tuple(p[i] for p in zsys.column_prefixes) for i in range(n + 1)]
        # per polynomial and block, the image parts: nondecreasing in [0, bound]
        parts = [[list(combinations_with_replacement(range(row[a] + 1), b - a))
                  for a, b in self.blocks] for row in zsys.bounds]
        # the support images are the parts' product; a key is linear, so an
        # image's key is the sum of one part offset per block
        self.images = [[sum(ps, ()) for ps in product(*row)] for row in parts]
        self.offsets = [
            [[self.key(p, a) for p in ps] for (a, _), ps in zip(self.blocks, row)]
            for row in parts]
        self._records: dict[tuple, tuple] = {}

    def key(self, w: Sequence[int], start: int = 0) -> int:
        """Key of w, or of a part w placed at coordinates start, start + 1, ..."""
        return sum(map(mul, w, self.strides[start:]))

    def coords(self, key: int) -> list[int]:
        return [key // s % t for s, t in zip(self.strides, self.totals)]

    def cell_points(self, phi: TypeFunction) -> Iterator[Point]:
        """Window points of the cell phi, in key order.

        phi is nondecreasing inside each block.  A run of m equal values v
        from coordinate k takes the m-subsets of v's interval at k, a block
        the increasing products of its runs, the cell the product of blocks.
        """
        prefixes, parts = self.zsys.column_prefixes, []
        for a, b in self.blocks:
            if (seg := (a, phi[a:b])) not in self._parts:
                runs = []
                for v, ks in groupby(range(a, b), phi.__getitem__):
                    k, m = next(ks), 1 + sum(1 for _ in ks)
                    runs.append(combinations(range(*prefixes[k][v : v + 2]), m))
                # the block's coordinates share intervals, so runs increase
                self._parts[seg] = [sum(r, ()) for r in product(*runs)]
            parts.append(self._parts[seg])
        return map(tuple, map(chain.from_iterable, product(*parts)))

    def mixed_window_points(self) -> Iterator[Point]:
        """Window points of the mixed cells, cell by cell, in phi order.

        A mixed type function takes n distinct values; inside a block it must
        increase, or its cell holds no window point.  So each block takes an
        increasing set of the values that the blocks before it left unused.
        """
        values = frozenset(range(self.zsys.n + 1))
        phis: list[tuple[int, ...]] = [()]
        for a, b in self.blocks:
            phis = [phi + c for phi in phis
                    for c in combinations(sorted(values.difference(phi)), b - a)]
        return chain.from_iterable(map(self.cell_points, phis))

    def record(self, w: Sequence[int]) -> tuple:
        """The record shared by every row with w's polynomial and vertex."""
        used = reduce(or_, map(getitem, self.type_bits, w))
        # the largest type whose count is zero, so no coordinate has type i
        i = (self._full & ~used).bit_length() - 1
        above = tuple(map(ge, w, self._lows[i]))
        rec = self._records.get((i, above))
        if rec is None:
            rec = self._records[i, above] = self._record(i, above)
        return rec

    @cached_property
    def labels(self) -> list[list[CoeffRef]]:
        """Per polynomial, the label of each support image; built on first use."""
        pre, images = self.preimage, enumerate(self.images)
        return [[CoeffRef(i, pre(i, v)) for v in vs] for i, vs in images]

    def _record(self, i: int, above: tuple[bool, ...]) -> tuple:
        """Content and column deltas of a row."""
        vertex = [a if up else 0 for a, up in zip(self.zsys.bounds[i], above)]
        # column keys relative to the row key: support image minus vertex
        voff = self.key(vertex)
        deltas = [self.key(img) - voff for img in self.images[i]]
        return RowContent(i, self.preimage(i, vertex)), deltas

    def closure(self) -> Closure:
        """Close the mixed points under column supports, as a Closure mapping.

        It runs in rounds over bitsets of keys, hi * span + lo as bit lo of the
        bitset at hi, and no round decodes a key.  Masks over lo pick the rows
        of polynomial i (type i absent, every type above it present) and, per
        lo axis k, those whose vertex coordinate k is a_ik.  The hi coordinates
        of a bitset are constant: their types choose the masks, and their
        vertex moves hi.  A round moves each polynomial's frontier rows to
        their bases (key minus vertex key) by one masked shift per lo axis,
        then by one part offset per block in turn, which reaches every column
        (shared block bounds keep it in the window); unseen columns are the
        next frontier.
        """
        blocks, totals, strides = self.blocks, self.totals, self.strides
        n, bounds, prefixes = self.zsys.n, self.zsys.bounds, self.zsys.column_prefixes

        def spread(k: int) -> int:
            """Window prefixes up to coordinate k, times the box from k on."""
            ends = [(a, b, min(k, b)) for a, b in blocks if a < k]
            return math.prod(totals[k:]) * math.prod(
                math.comb(totals[a] - b + c, c - a) for a, b, c in ends)

        # split where bitsets at every window prefix hold <= _DENSE_BITS bits per point
        cut = next(k for k in range(n + 1) if spread(k) <= _DENSE_BITS * spread(n))
        span = math.prod(totals[cut:])
        # a part offset moves a key by (hi, lo); coordinates never carry
        moves = [[[divmod(d, span) for d in ds] for ds in row] for row in self.offsets]

        def slab(k: int, start: int, stop: int) -> int:
            """The lo keys whose coordinate k lies in [start, stop), by doubling."""
            s, period = strides[k], strides[k] * totals[k]
            mask = ((1 << (stop - start) * s) - 1) << start * s
            while period < span:
                mask, period = mask | mask << period, 2 * period
            return mask

        # per type j, the lo keys with some coordinate of type j
        present = [reduce(or_, [slab(k, *prefixes[k][j : j + 2]) for k in range(cut, n)], 0)
                   for j in range(n + 1)]
        # per polynomial, (rows with vertex coordinate k = a_ik, move by a_ik) per lo axis
        lowers = [[(slab(k, prefixes[k][i], totals[k]), row[k] * strides[k])
                   for k in range(cut, n)] for i, row in enumerate(bounds)]
        # per hi axis k and value v, each polynomial's vertex move of hi
        steps = [[[row[k] * strides[k] // span * (v >= low) for row, low in
                   zip(bounds, prefixes[k])] for v in range(totals[k])] for k in range(cut)]

        @cache
        def rows_of(used: int) -> list[int]:
            """Per polynomial, the lo mask of its rows, given the bitmask of hi types."""
            return [0 if used >> i & 1 else reduce(and_, [present[j] for j in range(
                i + 1, n + 1) if not used >> j & 1], ~present[i]) for i in range(n + 1)]

        @cache
        def at(hi: int) -> tuple[list[int], list[int]]:
            """Per polynomial, the lo mask of its rows at hi and its vertex's move of hi."""
            c = self.coords(hi * span)[:cut]
            used = reduce(or_, map(getitem, self.type_bits, c), 0)
            return rows_of(used), [*map(sum, zip([0] * (n + 1), *map(getitem, steps, c)))]

        seen: dict[int, int] = {}
        fresh = _bitsets(map(self.key, self.mixed_window_points()), span)
        mixed = [sum((m & at(hi)[0][i]).bit_count() for hi, m in fresh.items())
                 for i in range(n + 1)]
        while fresh:
            bases: list[dict[int, int]] = [defaultdict(int) for _ in moves]
            for hi, m in fresh.items():
                seen[hi] = seen.get(hi, 0) | m
                for i, (rows, dh, lower) in enumerate(zip(*at(hi), lowers)):
                    x = m & rows
                    for u, d in lower:
                        if y := x & u:
                            x = x ^ y | y >> d
                    if x:
                        bases[i][hi - dh] |= x
            reached: dict[int, int] = defaultdict(int)
            for masks, row in zip(bases, moves):
                for block in row:
                    moved: dict[int, int] = defaultdict(int)
                    for (h, m), (dh, dl) in product(masks.items(), block):
                        moved[h + dh] |= m << dl
                    masks = moved
                for h, m in masks.items():
                    reached[h] |= m
            fresh = {h: f for h, m in reached.items() if (f := m & ~seen.get(h, 0))}
        return Closure(self, seen, span, mixed)

    def predicted_size(self) -> int:
        """Greedy matrix size by a dynamic program over blocks.

        The state is the type vector of the blocks placed so far, dropped as
        soon as a prefix sum breaks the greedy rule (later blocks only add to
        it).  A block of size m adds a count vector c, one per monotone type
        function on the block, weighted by its cell count prod_k
        binom(bound_k, c_k); a box coordinate adds a unit vector e_k with
        weight a_kj.  Only the vectors with every c_k <= bound_k are built,
        coordinate by coordinate, since the others weigh zero.
        """
        states = {(0,) * (self.zsys.n + 1): 1}
        for start, stop in self.blocks:
            counts, m = [()], stop - start
            for k, cap in enumerate(caps := [row[start] for row in self.zsys.bounds]):
                counts = [c + (x,) for c in counts for x in range(cap + 1)
                          if 0 <= m - sum(c) - x <= sum(caps[k + 1 :])]
            moves = [(c, self._cell_count(start, c)) for c in counts]
            nxt: dict[tuple[int, ...], int] = defaultdict(int)
            for t, count in states.items():
                for c, weight in moves:
                    t2 = tuple(map(add, t, c))
                    # a partial vector obeys the rule beyond its own sum
                    if is_greedy(t2):
                        nxt[t2] += count * weight
            states = nxt
        return sum(states.values())

    def _cell_count(self, start: int, c: Sequence[int]) -> int:
        """Points of a block cell whose type function takes value k c_k times."""
        bounds = self.zsys.bounds
        return math.prod(math.comb(row[start], ck) for row, ck in zip(bounds, c))

    def cells(self) -> Iterator[CellRow]:
        """Every cell as (phi, t, point count, mixed, greedy, content), by phi.

        Cells whose type function decreases inside a block hold no point and
        are omitted; counts may still be zero (a diagonal block cell whose
        simplex dimension exceeds its degree).  A cell picks one monotone
        type function per block, and its count is the product of their
        counts.  The content vertex is derived from phi alone, which doubles
        as a cross check against the per-point row contents.
        """
        n, bounds = self.zsys.n, self.zsys.bounds
        per_block = [
            [(phi, self._cell_count(a, type_vector_of(phi, n)))
             for phi in combinations_with_replacement(range(n + 1), b - a)]
            for a, b in self.blocks
        ]
        # the cells share one object per distinct type vector and content,
        # which cuts the all-ones n=6 table from about 49 MB to 21 MB
        vectors: dict[tuple[int, ...], tuple[int, ...]] = {}
        contents: dict[tuple, RowContent] = {}
        for parts in product(*per_block):
            phi = tuple(chain.from_iterable(p for p, _ in parts))
            t = vectors.setdefault(t := type_vector_of(phi, n), t)
            i = max(k for k, c in enumerate(t) if c == 0)
            vertex = tuple(0 if v < i else a for v, a in zip(phi, bounds[i]))
            if (rc := contents.get((i, vertex))) is None:
                rc = contents[i, vertex] = RowContent(i, self.preimage(i, vertex))
            yield phi, t, math.prod(c for _, c in parts), is_mixed(t), is_greedy(t), rc

    def greedy_cells(self, rows: Iterable[CellRow]) -> list[GreedyCell]:
        """Content and points of each nonempty greedy cell of a cell table.

        The points are in the caller's coordinates (from_window).
        """
        return [
            (rc, list(map(self.from_window, self.cell_points(phi))))
            for phi, _, count, _, greedy, rc in rows if greedy and count
        ]


def greedy_cells_closed(sys_, cells: list[GreedyCell]) -> bool:
    """Whether every column b - vertex + a of a greedy point b is greedy.

    The columns come from sys_.support in the caller's coordinates, not from
    the window's key deltas, so this stays a route apart from the closure.
    """
    greedy = {b for _, points in cells for b in points}
    supports = [list(sys_.support(i)) for i in range(sys_.n + 1)]
    for (poly, vertex), points in cells:
        for b in points:
            base = tuple(map(sub, b, vertex))
            if not all(tuple(map(add, base, a)) in greedy for a in supports[poly]):
                return False
    return True


def predicted_size_zonotope(sys_: ZonotopeSystem) -> int:
    """Greedy matrix size by the cell-sum formula.

    Each greedy cell phi contributes prod_j a_phi(j)j points, so the size of
    the greedy point set is the sum of these products.
    """
    return KeyedWindow(sys_).predicted_size()


def greedy_closure(sys_: ZonotopeSystem) -> Closure:
    """The mixed points closed under column supports, as a read-only mapping
    from each point, in lexicographic order, to its row content."""
    return KeyedWindow(sys_).closure()


def check_no_escape(sys_: ZonotopeSystem, cells: list[GreedyCell]) -> bool:
    """Exhaustive check that column supports never leave the greedy set."""
    return greedy_cells_closed(sys_, cells)


def cell_table(sys_: ZonotopeSystem) -> list[CellRow]:
    """Summary of every cell: (phi, t, point count, mixed, greedy, content)."""
    return list(KeyedWindow(sys_).cells())
