"""Symbolic matrix assembly over a closed point set, plus export.

Rows and columns are indexed by the same ordered point list.  The row of a
point b holds one entry per support point of its cell's polynomial: the
column b - vertex + a carries the label u_{poly, a}.  The diagonal entry is
therefore always u_{poly, vertex}.  Entries are labels only; numeric
specialization lives in the oracles module.

Point order is fixed to greedy-mixed, then greedy-non-mixed, then the rest,
lexicographic inside each class.  The greedy-first order makes the full
matrix visibly block triangular (greedy rows never touch non-greedy
columns), which the verification suite exploits.
"""

from __future__ import annotations

import functools
import gc
from collections.abc import Mapping
from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, Sequence

from .errors import NotClosed, UnsupportedFormat
from .greedy import is_greedy
from .multihomo import keyed_window
from .subdivision import _check_window, is_mixed
from .systems import (
    CoeffRef,
    MultiHomoSystem,
    Point,
    RowContent,
    ZonotopeSystem,
    type_vector_of,
)


class _Entries(Mapping):
    """Read-only {(row, col): CoeffRef} view of a row list, in row order."""

    def __init__(self, rows: Sequence[Sequence[tuple[int, CoeffRef]]]):
        self._rows = rows

    def __getitem__(self, key: tuple[int, int]) -> CoeffRef:
        r, c = key
        if 0 <= r < len(self._rows) and (ref := dict(self._rows[r]).get(c)):
            return ref
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((r, c) for r, row in enumerate(self._rows) for c, _ in row)

    def __len__(self) -> int:
        return sum(map(len, self._rows))


@dataclass(frozen=True)
class SymbolicMatrix:
    """Square sparse matrix of coefficient labels, stored as rows.

    rows[r] holds the nonzeros of row r as (column index, CoeffRef) pairs in
    increasing column order; both indices refer to positions in the points
    tuple.  A CoeffRef object is shared by every row that carries its label.
    """

    n: int
    points: tuple[Point, ...]
    rows: tuple[tuple[tuple[int, CoeffRef], ...], ...]
    mixed_flags: tuple[bool, ...]
    greedy_flags: tuple[bool, ...]
    row_contents: tuple[RowContent, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def entries(self) -> Mapping[tuple[int, int], CoeffRef]:
        """The nonzeros as a read-only mapping (row, col) -> CoeffRef."""
        return _Entries(self.rows)


def _gc_paused(fn):
    """Run fn with the cyclic collector off: its row tuples hold no cycles."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_gc_paused
def build_matrix(
    points: Iterable[Point], sys_: ZonotopeSystem | MultiHomoSystem
) -> SymbolicMatrix:
    """Assemble the symbolic matrix over a point set closed under columns.

    The set must contain every column point generated by its rows; the
    first missing one aborts the build with a NotClosed witness pair.  Both
    system kinds run on their keyed_window: each cell is classified once,
    and a row's columns are its key plus its record's deltas.
    """
    window = keyed_window(sys_)
    n, tables = sys_.n, window.type_bits
    cells: dict[tuple[int, ...], tuple] = {}
    # greedy-mixed, then greedy, then the rest (a mixed point is greedy);
    # points arrive sorted, so each class is in lexicographic order
    classes: tuple[list, ...] = ([], [], [])
    for b in sorted(set(map(tuple, points))):
        w = window.to_window(b)
        cell = tuple(map(dict.get, tables, w))
        if len(b) != n or None in cell:
            # the error a per-point classifier gives the window point w
            _check_window(w, window.zsys)
        if (info := cells.get(cell)) is None:
            t = type_vector_of([bit.bit_length() - 1 for bit in cell], n)
            info = cells[cell] = (is_mixed(t), is_greedy(t), window.record(w))
        classes[0 if info[0] else 2 - info[1]].append((b, w, info))
    ordered = classes[0] + classes[1] + classes[2]
    pos = {window.key(w): r for r, (_, w, _) in enumerate(ordered)}
    rows = []
    for key, (b, w, (_, _, rec)) in zip(pos, ordered):
        found = list(map(pos.get, map(key.__add__, rec[1])))
        if None in found:
            raise _not_closed(b, rec[0], sys_, {d[0] for d in ordered})
        pairs = zip(found, window.labels[rec[0].poly])
        rows.append(tuple(sorted(pairs, key=itemgetter(0))))

    return SymbolicMatrix(
        n=n,
        points=tuple(d[0] for d in ordered),
        rows=tuple(rows),
        mixed_flags=tuple(d[2][0] for d in ordered),
        greedy_flags=tuple(d[2][1] for d in ordered),
        row_contents=tuple(d[2][2][0] for d in ordered),
    )


def _not_closed(b: Point, rc: RowContent, sys_, present) -> NotClosed:
    """NotClosed(b, col) for the first column of b, in support order, not in present."""
    base = tuple(map(sub, b, rc.vertex))
    cols = (tuple(map(add, base, a)) for a in sys_.support(rc.poly))
    return NotClosed(b, next(c for c in cols if c not in present))


@_gc_paused
def principal_submatrix(m: SymbolicMatrix) -> SymbolicMatrix:
    """Restrict to the non-mixed rows and columns, preserving order.

    Mixed rows are dropped, and each kept row loses its pairs in mixed
    columns while the remaining columns are renumbered; this is a pure
    restriction, so applying it twice returns the same matrix.
    """
    keep = [i for i, mixed in enumerate(m.mixed_flags) if not mixed]
    remap = {old: new for new, old in enumerate(keep)}
    rows = tuple(
        tuple([(remap[c], ref) for c, ref in m.rows[r] if c in remap])
        for r in keep
    )
    return SymbolicMatrix(
        n=m.n,
        points=tuple(m.points[i] for i in keep),
        rows=rows,
        mixed_flags=tuple(False for _ in keep),
        greedy_flags=tuple(m.greedy_flags[i] for i in keep),
        row_contents=tuple(m.row_contents[i] for i in keep),
    )


def _coords(p: Sequence[int]) -> str:
    return ",".join(map(str, p))


def export_matrix(m: SymbolicMatrix, format: str) -> bytes:
    """Serialize deterministically to UTF-8 text.

    triplets: one line per entry, `row ; col ; poly ; support`, points as
    comma-joined coordinates, rows in order and columns increasing.  dense:
    one line per row of space-separated tokens u[i][a_1,...,a_n] and 0.  An
    empty matrix exports its header section only, with n=0.
    """
    if format not in ("triplets", "dense"):
        raise UnsupportedFormat(f"unknown export format {format!r}")
    # one encoded chunk per row, so no full-size str is held beside the bytes
    chunks = [
        f"# n={m.n if m.size else 0}\n# rows={m.size}\n"
        "# order=greedy-first-lex".encode()
    ]
    refs = {ref for row in m.rows for _, ref in row}
    if format == "triplets":
        coords = [_coords(p) for p in m.points]
        tail = {ref: f" ; {ref.poly} ; {_coords(ref.support)}" for ref in refs}
        for r, row in enumerate(m.rows):
            head = coords[r] + " ; "
            if row:
                text = "\n".join([head + coords[c] + tail[ref] for c, ref in row])
                chunks.append(text.encode())
    else:
        token = {ref: f"u[{ref.poly}][{_coords(ref.support)}]" for ref in refs}
        for row in m.rows:
            tokens = ["0"] * m.size
            for c, ref in row:
                tokens[c] = token[ref]
            chunks.append(" ".join(tokens).encode())
    chunks.append(b"")
    return b"\n".join(chunks)
