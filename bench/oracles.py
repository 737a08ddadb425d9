"""Reference computations and output checkers for the benchmark.

Nothing here imports resmat.  Every figure the CLI prints is recomputed from
the spec file alone, by the closed-form rules of the construction:

* the window B is the box of column totals, or for a multihomogeneous
  system the product of simplices of degree (sum_i d_il) - n_l;
* a point's type vector counts, per polynomial i, the coordinates that fall
  in the i-th half-open interval cut by the prefix sums of the bounds, and
  the point is greedy when t_0 + ... + t_I <= I + 1 for every I < n;
* the mixed volume of n boxes is the permanent of their bounds, and of n
  simplex-product supports the multihomogeneous Bezout number.

Multihomogeneous points are classified through the coordinate map of the
paper's embedding (coordinate k of a block is the sum of its last k
exponents plus k - 1), written out again here.

The checkers return lists of (name, passed, detail) triples so that the
runner can count attempted and failed checks.
"""

from __future__ import annotations

import json
import math
import random
import re
from bisect import bisect_right
from functools import cached_property
from itertools import product
from pathlib import Path

Check = tuple[str, bool, str]

PRIME = 2147483647  # the CLI's default prime, 2^31 - 1


def _simplex(degree: int, dim: int) -> list[tuple[int, ...]]:
    """Lattice points x >= 0 of dimension dim with sum(x) <= degree, lex order."""
    if degree < 0:
        return []
    if dim == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(degree + 1)
        for rest in _simplex(degree - first, dim - 1)
    ]


class System:
    """A spec file read as plain data, with the oracle's view of its window."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        if self.kind == "zonotope":
            self.bounds = [list(row) for row in spec["bounds"]]
            self.n = len(self.bounds) - 1
            self.box_bounds = self.bounds
        elif self.kind == "multihomogeneous":
            self.groups = list(spec["groups"])
            self.degrees = [list(row) for row in spec["degrees"]]
            self.n = sum(self.groups)
            # Each block degree repeats across the block in the embedded box.
            self.box_bounds = [
                [d for d, m in zip(row, self.groups) for _ in range(m)]
                for row in self.degrees
            ]
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        self.prefixes = []
        for col in zip(*self.box_bounds):
            acc = [0]
            for a in col:
                acc.append(acc[-1] + a)
            self.prefixes.append(acc)

    @classmethod
    def read(cls, path: str | Path) -> "System":
        return cls(json.loads(Path(path).read_text(encoding="utf-8")))

    @property
    def multi(self) -> bool:
        return self.kind == "multihomogeneous"

    def window_size(self) -> int:
        """|B|: the product of the column totals, or prod_l C(D_l, n_l)."""
        if not self.multi:
            return math.prod(p[-1] for p in self.prefixes)
        totals = [sum(col) for col in zip(*self.degrees)]
        return math.prod(math.comb(t, m) for t, m in zip(totals, self.groups))

    def window(self) -> list[tuple[int, ...]]:
        """Every point of B, in lexicographic order."""
        if not self.multi:
            return list(product(*(range(p[-1]) for p in self.prefixes)))
        totals = [sum(col) for col in zip(*self.degrees)]
        blocks = [_simplex(t - m, m) for t, m in zip(totals, self.groups)]
        return [sum(combo, ()) for combo in product(*blocks)]

    def to_box(self, b: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of b in the (embedded) box window."""
        if not self.multi:
            return b
        out = []
        start = 0
        for m in self.groups:
            acc = 0
            for k in range(1, m + 1):
                acc += b[start + m - k]
                out.append(acc + k - 1)
            start += m
        return tuple(out)

    def support(self, i: int) -> list[tuple[int, ...]]:
        """Exponent vectors of polynomial i, in lexicographic order."""
        if not self.multi:
            return list(product(*(range(a + 1) for a in self.bounds[i])))
        blocks = [_simplex(d, m) for d, m in zip(self.degrees[i], self.groups)]
        return [sum(combo, ()) for combo in product(*blocks)]

    @cached_property
    def classes(self) -> dict[tuple[int, ...], tuple[bool, bool, int, tuple | None]]:
        """Per point of B: (greedy, mixed, row polynomial, row vertex).

        The row polynomial is the largest i with t_i = 0.  The vertex is
        computed for box systems only (0 below the i-th interval, a_ij
        above it); multihomogeneous rows carry None.
        """
        n = self.n
        out = {}
        for b in self.window():
            box = self.to_box(b)
            phi = [bisect_right(p, c) - 1 for p, c in zip(self.prefixes, box)]
            t = [0] * (n + 1)
            for v in phi:
                t[v] += 1
            acc = 0
            greedy = True
            for i in range(n):
                acc += t[i]
                if acc > i + 1:
                    greedy = False
                    break
            mixed = t.count(0) == 1
            poly = max(k for k in range(n + 1) if t[k] == 0)
            vertex = None
            if not self.multi:
                vertex = tuple(
                    0 if c < self.prefixes[j][poly] else self.bounds[poly][j]
                    for j, c in enumerate(box)
                )
            out[b] = (greedy, mixed, poly, vertex)
        return out

    def rows(self, which: str) -> list[tuple[int, ...]]:
        """Row points of a matrix export in the CLI's documented order.

        which is "greedy", "principal" (the non-mixed part of the greedy
        set) or "full" (the window); the order is greedy-mixed, then greedy
        non-mixed, then the rest, lexicographic inside each class.
        """
        ranked = {0: [], 1: [], 2: []}
        for b, (greedy, mixed, _, _) in self.classes.items():
            ranked[0 if greedy and mixed else 1 if greedy else 2].append(b)
        keep = {"greedy": (0, 1), "principal": (1,), "full": (0, 1, 2)}[which]
        return [b for r in keep for b in sorted(ranked[r])]

    def greedy_count(self) -> int:
        """|G| by brute force over the window."""
        return sum(1 for g, _, _, _ in self.classes.values() if g)

    def mixed_volumes(self) -> list[int]:
        """Per excluded polynomial, the mixed volume of the other n supports."""
        if not self.multi:
            return [
                permanent([r for k, r in enumerate(self.bounds) if k != i])
                for i in range(self.n + 1)
            ]
        return [
            bezout_number(self.groups, [r for k, r in enumerate(self.degrees) if k != i])
            for i in range(self.n + 1)
        ]


def permanent(rows: list[list[int]]) -> int:
    """Permanent of a square matrix, by dynamic programming over column sets."""
    n = len(rows)
    ways = {0: 1}
    for row in rows:
        nxt: dict[int, int] = {}
        for used, w in ways.items():
            for c in range(n):
                if not used >> c & 1 and row[c]:
                    key = used | 1 << c
                    nxt[key] = nxt.get(key, 0) + w * row[c]
        ways = nxt
    return ways.get((1 << n) - 1, 0)


def bezout_number(groups: list[int], degrees: list[list[int]]) -> int:
    """Multihomogeneous Bezout number of n polynomials in the given groups.

    The coefficient of prod_l mu_l^{n_l} in prod_i (sum_l d_il mu_l).  This
    is the coefficient of prod_i lambda_i in prod_l (sum_i d_il lambda_i)^{n_l}
    divided by prod_l n_l!, and equals the permanent when all groups have
    size 1.
    """
    poly = {(0,) * len(groups): 1}
    for row in degrees:
        nxt: dict[tuple[int, ...], int] = {}
        for mono, coef in poly.items():
            for l, d in enumerate(row):
                if mono[l] < groups[l] and d:
                    key = mono[:l] + (mono[l] + 1,) + mono[l + 1:]
                    nxt[key] = nxt.get(key, 0) + coef * d
        poly = nxt
    return poly.get(tuple(groups), 0)


def det_mod_p(matrix: list[list[int]], p: int) -> int:
    """Determinant mod a prime p by Gaussian elimination on dense rows."""
    m = [[x % p for x in row] for row in matrix]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        tail = m[c][c:]
        det = det * tail[0] % p
        inv = pow(tail[0], -1, p)
        for r in range(c + 1, n):
            row = m[r]
            if row[c]:
                f = row[c] * inv % p
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
    return det % p


def draw_coefficients(
    system: System, rng: random.Random, p: int, planted: bool
) -> dict[tuple[int, tuple[int, ...]], int]:
    """Uniform nonzero coefficients, optionally with a planted common root.

    With planted=True a point x* of (F_p^*)^n is drawn and each constant
    coefficient is reset so that every polynomial vanishes at x*; the
    resultant, and with it det H_G, is then 0 mod p.
    """
    root = [rng.randrange(1, p) for _ in range(system.n)]
    coeffs = {}
    for i in range(system.n + 1):
        value = 0
        for a in system.support(i):
            c = rng.randrange(1, p)
            coeffs[(i, a)] = c
            if any(a):
                value += c * math.prod(pow(x, e, p) for x, e in zip(root, a))
        if planted:
            coeffs[(i, (0,) * system.n)] = -value % p
    return coeffs


# ----------------------------------------------------------------------------
# Output checkers


def _header(lines: list[str]) -> dict[str, str]:
    out = {}
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, value = line[1:].strip().partition("=")
        out[key] = value
    return out


def _point(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def parse_triplets(data: bytes):
    """Header and entries (row, col, poly, support) of a triplet export."""
    lines = data.decode("utf-8").splitlines()
    head = _header(lines)
    entries = []
    for line in lines[len(head):]:
        r, c, i, a = line.split(" ; ")
        entries.append((_point(r), _point(c), int(i), _point(a)))
    return head, entries


_TOKEN = re.compile(r"u\[(\d+)\]\[([\d,]+)\]")


def dense_to_triplets(data: bytes, rows: list[tuple[int, ...]]):
    """Read a dense export as triplets, labelling rows and columns by rows.

    Returns (header, entries, problems); problems lists malformed lines.
    """
    lines = data.decode("utf-8").splitlines()
    head = _header(lines)
    body = lines[len(head):]
    entries = []
    problems = []
    if len(body) != len(rows):
        problems.append(f"{len(body)} dense lines for {len(rows)} rows")
    for r, line in zip(rows, body):
        tokens = line.split(" ")
        if len(tokens) != len(rows):
            problems.append(f"row {r}: {len(tokens)} tokens")
            continue
        for c, tok in zip(rows, tokens):
            if tok == "0":
                continue
            m = _TOKEN.fullmatch(tok)
            if m is None:
                problems.append(f"row {r}: bad token {tok!r}")
                continue
            entries.append((r, c, int(m.group(1)), _point(m.group(2))))
    return head, entries, problems


def check_entries(
    system: System, head: dict, entries: list, which: str, label: str
) -> list[Check]:
    """Check a matrix export, given as triplets, against the oracle.

    * the header row count and order tag;
    * the row set and row order equal the greedy set, its non-mixed part or
      the window (which = greedy, principal, full);
    * each row has one polynomial and a constant col - support;
    * the row polynomial, and for box systems the vertex, match the oracle;
    * greedy and full rows have one entry per support point of their
      polynomial, diagonal included; principal rows have exactly the
      support shifts that land on a kept row;
    * entries of a row come in the order of their columns.
    """
    want = system.rows(which)
    checks = [
        (
            f"{label}.header",
            head.get("rows") == str(len(want))
            and head.get("order") == "greedy-first-lex",
            f"header {head}",
        )
    ]
    by_row: dict[tuple, list] = {}
    order = []
    for r, c, i, a in entries:
        if r not in by_row:
            by_row[r] = []
            order.append(r)
        by_row[r].append((c, i, a))
    checks.append(
        (f"{label}.rows", order == want, f"{len(order)} rows, expected {len(want)}")
    )

    position = {b: k for k, b in enumerate(want)}
    kept = set(want)
    bad_shape, bad_content, bad_count, bad_order = [], [], [], []
    support_cache: dict[int, list] = {}
    for r, row in by_row.items():
        cols = [position.get(c, -1) for c, _, _ in row]
        if cols != sorted(set(cols)):
            bad_order.append(r)
        polys = {i for _, i, _ in row}
        bases = {tuple(x - y for x, y in zip(c, a)) for c, _, a in row}
        if len(polys) != 1 or len(bases) != 1:
            bad_shape.append(r)
            continue
        (i,), (base,) = polys, bases
        cls = system.classes.get(r)
        vertex = tuple(x - y for x, y in zip(r, base))
        if cls is None or cls[2] != i or (cls[3] is not None and cls[3] != vertex):
            bad_content.append(r)
            continue
        if i not in support_cache:
            support_cache[i] = system.support(i)
        expect = {
            (tuple(x + y for x, y in zip(base, a)), a) for a in support_cache[i]
        }
        if which == "principal":
            expect = {(c, a) for c, a in expect if c in kept}
        # A greedy or full row must reach only kept rows (closure), hold each
        # expected entry once, and hold its diagonal entry.
        closed = which == "principal" or all(c in kept for c, _ in expect)
        if (
            not closed
            or {(c, a) for c, _, a in row} != expect
            or len(row) != len(expect)
            or (r, vertex) not in expect
        ):
            bad_count.append(r)
    checks.append(
        (f"{label}.one-poly-const-offset", not bad_shape, f"rows {bad_shape[:3]}")
    )
    checks.append((f"{label}.row-content", not bad_content, f"rows {bad_content[:3]}"))
    checks.append((f"{label}.entries-per-row", not bad_count, f"rows {bad_count[:3]}"))
    checks.append((f"{label}.column-order", not bad_order, f"rows {bad_order[:3]}"))
    return checks


def check_triplets(system: System, data: bytes, which: str, label: str) -> list[Check]:
    head, entries = parse_triplets(data)
    return check_entries(system, head, entries, which, label)


def check_dense(system: System, data: bytes, which: str, label: str) -> list[Check]:
    """A dense export read with the oracle's row order must pass the
    triplet checks, so its tokens agree with the triplets of that matrix."""
    head, entries, problems = dense_to_triplets(data, system.rows(which))
    checks = [(f"{label}.dense-shape", not problems, "; ".join(problems[:3]))]
    return checks + check_entries(system, head, entries, which, label)


def dense_matrix(
    system: System, data: bytes, which: str,
    coeffs: dict[tuple[int, tuple[int, ...]], int],
) -> list[list[int]]:
    """Numeric rows of a dense export under a coefficient assignment."""
    rows = system.rows(which)
    index = {b: k for k, b in enumerate(rows)}
    out = [[0] * len(rows) for _ in rows]
    for r, c, i, a in dense_to_triplets(data, rows)[1]:
        out[index[r]][index[c]] = coeffs[(i, a)]
    return out


def check_planted_root(
    system: System, data: bytes, seed: int, label: str, p: int = PRIME
) -> list[Check]:
    """det H_G of a dense greedy export vanishes at a planted root only.

    A generic draw must give a nonzero determinant (a false alarm has
    probability at most deg/p); the same draw with the constant terms reset
    to plant a common root in the torus must give zero.
    """
    out = []
    for planted in (False, True):
        rng = random.Random(f"{seed}:planted")
        coeffs = draw_coefficients(system, rng, p, planted)
        det = det_mod_p(dense_matrix(system, data, "greedy", coeffs), p)
        if planted:
            out.append((f"{label}.planted-root-det-zero", det == 0, f"det {det}"))
        else:
            out.append((f"{label}.generic-det-nonzero", det != 0, "det 0"))
    return out


_SIZES = re.compile(r"\|B\|=(\d+) \|G\|=(\d+) predicted=(\d+)")


def _per_poly(text: str, prefix: str) -> list[int] | None:
    for line in text.splitlines():
        if line.startswith(prefix + ": "):
            return [int(tok.split(":")[1]) for tok in line[len(prefix) + 2:].split()]
    return None


def check_sizes(system: System, stdout: bytes, label: str) -> list[Check]:
    """`resmat sizes`: |B|, |G|, the prediction and the mixed counts."""
    text = stdout.decode("utf-8")
    m = _SIZES.search(text)
    b, g, pred = (int(x) for x in m.groups()) if m else (None, None, None)
    vols = system.mixed_volumes()
    checks = [
        (f"{label}.window-size", b == system.window_size(), f"|B|={b}"),
        (f"{label}.greedy-size", g == system.greedy_count(), f"|G|={g}"),
        (f"{label}.predicted-size", pred == system.greedy_count(), f"predicted={pred}"),
        (
            f"{label}.mixed-counts",
            _per_poly(text, "mixed points per polynomial") == vols,
            f"expected {vols}",
        ),
    ]
    second = (
        "mixed points per polynomial (cell formula)"
        if system.multi
        else "mixed volumes per polynomial"
    )
    checks.append((f"{label}.mixed-second-route", _per_poly(text, second) == vols, second))
    return checks


_STRUCTURAL = {
    "closure-equals-greedy-predicate",
    "no-escape",
    "cell-partition",
    "predicted-size",
    "block-triangular",
    "block-determinant-product",
}


def check_verify(system: System, stdout: bytes, trials: int, label: str) -> list[Check]:
    """`resmat verify` with matrix-level checks on: the SUMMARY line.

    Every structural check is present and true, and every quotient check
    that is not skipped passed exactly `trials` times.
    """
    summary = {}
    for line in stdout.decode("utf-8").splitlines():
        if line.startswith("SUMMARY "):
            summary = json.loads(line[len("SUMMARY "):])
    b, g = system.window_size(), system.greedy_count()
    mixed = sum(system.mixed_volumes())
    names = set(_STRUCTURAL)
    if not system.multi:
        names.add("mixed-count-vs-mixed-volume")
    structural = summary.get("structural") or {}
    quotient = summary.get("quotient") or {}
    skipped = set()
    if system.n != 1:
        skipped.add("c")
    if system.multi:
        skipped.add("e")
    passes = quotient.get("passes") or {}
    counted = {k: passes.get(k) for k in "abcde" if k not in skipped}
    sizes = {
        "full": b,
        "full_principal": b - mixed,
        "greedy": g,
        "greedy_principal": g - mixed,
    }
    return [
        (f"{label}.summary", summary.get("ok") is True, "no SUMMARY with ok true"),
        (
            f"{label}.structural",
            set(structural) == names and all(v is True for v in structural.values()),
            f"structural {structural}",
        ),
        (
            f"{label}.sizes",
            summary.get("b_size") == b and summary.get("greedy_size") == g
            and quotient.get("sizes") == sizes,
            f"expected {sizes}",
        ),
        (
            f"{label}.quotient-passes",
            quotient.get("trials") == trials
            and set(quotient.get("skipped") or {}) == skipped
            and not quotient.get("failures")
            and all(v == trials for v in counted.values()),
            f"passes {counted} for {trials} trials",
        ),
    ]
