"""Independent verification machinery.

Everything here is deliberately separate from the subdivision engine: mixed
volumes come from brute-force polynomial expansion (with a permanent as a
second, independent route), univariate resultants from the classical
Sylvester layout, and the quotient identity is tested by randomized
specialization over a prime field rather than symbolic expansion.

The univariate Sylvester layout is pinned to match the greedy matrix of a
univariate system exactly: the shifted rows of the second polynomial come
first, then the shifted rows of the first.  The classical convention with
the blocks swapped differs by (-1)^(d0*d1); field equality in the checks
needs the block order fixed this way.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .errors import BadShape, NotPrime, ResmatError
from .greedy import greedy_closure
from .matrix import SymbolicMatrix, build_matrix, principal_submatrix
from .multihomo import greedy_closure_multi, lattice_points_multi
from .subdivision import lattice_points
from .systems import CoeffRef, MultiHomoSystem, ZonotopeSystem

DEFAULT_PRIME = 2147483647  # 2^31 - 1

# The first 13 primes as Miller-Rabin witnesses decide primality for every
# p below _MR_LIMIT (Sorenson and Webster, Math. Comp. 2017); larger moduli are
# refused rather than accepted as probable primes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _MR_BASES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if p >= _MR_LIMIT:
        raise NotPrime(
            f"{p} is not below {_MR_LIMIT}, where witnesses 2..41 prove primality"
        )
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")


def permanent(rows: Sequence[Sequence[int]]) -> int:
    """Permanent of a square integer matrix by direct column expansion."""
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise BadShape("permanent needs a square matrix")

    def expand(r: int, used: int) -> int:
        if r == n:
            return 1
        total = 0
        for c in range(n):
            if not used & (1 << c) and rows[r][c]:
                total += rows[r][c] * expand(r + 1, used | (1 << c))
        return total

    return expand(0, 0)


def mixed_volume(bounds: Sequence[Sequence[int]], excluded_row: int) -> int:
    """Mixed volume of the boxes with one row left out.

    Brute-force route: expand prod_j (sum_i lambda_i a_ij) over the
    non-excluded rows i as an honest polynomial and read off the coefficient
    of the squarefree monomial.  The permanent of the same submatrix is the
    closed form; tests compare the two.
    """
    if not bounds:
        raise BadShape("bounds must be nonempty")
    n = len(bounds) - 1
    for row in bounds:
        if len(row) != n:
            raise BadShape(f"bounds rows must have length {n}")
    if not 0 <= excluded_row <= n:
        raise BadShape(f"excluded row {excluded_row} out of range 0..{n}")
    rows = [bounds[i] for i in range(n + 1) if i != excluded_row]

    poly: dict[tuple[int, ...], int] = {(0,) * n: 1}
    for j in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for mono, coef in poly.items():
            for k in range(n):
                a = rows[k][j]
                if a == 0:
                    continue
                bumped = list(mono)
                bumped[k] += 1
                key = tuple(bumped)
                nxt[key] = nxt.get(key, 0) + coef * a
        poly = nxt
    return poly.get((1,) * n, 0)


def ff_det(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Determinant in Z/p by pivoted elimination; det of a 0x0 matrix is 1."""
    _require_prime(p)
    n = len(matrix)
    rows = []
    for row in matrix:
        if len(row) != n:
            raise BadShape("determinant needs a square matrix")
        rows.append([x % p for x in row])
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = p - det
        pivot = rows[col][col]
        det = det * pivot % p
        inv = pow(pivot, -1, p)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % p
            if f:
                upper = rows[col]
                lower = rows[r]
                for c in range(col, n):
                    lower[c] = (lower[c] - f * upper[c]) % p
    return det % p


# share of nonzeros in the active submatrix that starts the dense phase
_DENSE_AT = 0.4


def sparse_det(rows: Sequence[dict[int, int]], p: int) -> int:
    """Determinant in Z/p of a square matrix given by sparse rows.

    rows[r] maps column index to value for the nonzero entries of row r;
    the input is not modified.  Markowitz-style pivoting (Markowitz 1957):
    each pivot is in the active column with the fewest nonzeros, in its
    shortest row.  Ties go to the largest column and the smallest row
    index; on the greedy-first matrices of build_matrix that fills in less
    than taking the smallest column.

    Once the active k x k submatrix holds _DENSE_AT * k^2 nonzeros, each of
    its rows is packed into one int of k slots, W >= 2 bitlen(p) + bitlen(k)
    + 1 bits each, and a row update is one big-int multiply-add R += f * X,
    with X the pivot row reduced mod p and f < p.  Slots are reduced only
    when read (pivot search, multiplier, pivot row): a slot starts below p
    and takes at most k - 1 additions below p^2, so it stays below
    k p^2 < 2^W and never carries into the next.  The sign is the parity of
    the row -> pivot column permutation of both phases.
    """
    _require_prime(p)
    n = len(rows)
    active: dict[int, dict[int, int]] = {}  # the rows not yet pivoted
    cols: list[set[int] | None] = [set() for _ in range(n)]  # None: pivoted
    for r, row in enumerate(rows):
        kept = {}
        for c, v in row.items():
            if not 0 <= c < n:
                raise BadShape("determinant needs a square matrix")
            v %= p
            if v:
                kept[c] = v
                cols[c].add(r)
        active[r] = kept
    nnz = sum(map(len, active.values()))

    heap = [(len(rs), -c) for c, rs in enumerate(cols)]
    heapq.heapify(heap)
    pivot_col: dict[int, int] = {}
    det = 1
    while nnz < _DENSE_AT * len(active) ** 2:
        count, c = heapq.heappop(heap)
        c = -c
        col = cols[c]
        if col is None or len(col) != count:
            continue  # stale entry: pivoted, or its count changed
        if not col:
            return 0
        r = min(col, key=lambda s: (len(active[s]), s))
        prow = active.pop(r)
        v = prow.pop(c)
        det = det * v % p
        inv = pow(v, -1, p)
        pivot_col[r] = c
        cols[c] = None
        col.discard(r)
        nnz -= len(prow) + 1
        for cc in prow:
            cols[cc].discard(r)
        entries = list(prow.items())
        for s in col:
            srow = active[s]
            before = len(srow)
            f = p - srow.pop(c) * inv % p
            for cc, x in entries:
                y = srow.get(cc)
                if y is None:
                    srow[cc] = f * x % p
                    cols[cc].add(s)
                else:
                    y = (y + f * x) % p
                    if y:
                        srow[cc] = y
                    else:
                        del srow[cc]
                        cols[cc].discard(s)
            nnz += len(srow) - before
        for cc in prow:
            heapq.heappush(heap, (len(cols[cc]), -cc))

    rest_cols = [c for c, col in enumerate(cols) if col is not None]
    k = len(active)
    width = (2 * p.bit_length() + k.bit_length() + 8) // 8  # bytes per slot
    bits, mask = 8 * width, (1 << 8 * width) - 1

    def pack(values: list[int]) -> int:
        chunks = b"".join([v.to_bytes(width, "little") for v in values])
        return int.from_bytes(chunks, "little")

    dense = {r: pack([row.get(c, 0) for c in rest_cols]) for r, row in active.items()}
    for j, c in enumerate(rest_cols):
        r = next((r for r, y in dense.items() if (y & mask) % p), None)
        if r is None:
            return 0
        pivot_col[r] = c
        raw = dense.pop(r).to_bytes((k - j) * width, "little")
        slots = range(0, len(raw), width)
        v, *tail = [int.from_bytes(raw[t : t + width], "little") % p for t in slots]
        det = det * v % p
        f = p - pow(v, -1, p)  # -1/v: row R becomes R - (R[j] / v) * pivot row
        top = pack(tail)
        dense = {s: (y >> bits) + (y & mask) * f % p * top for s, y in dense.items()}

    # the sign is the parity of the row -> pivot column permutation
    seen: set[int] = set()
    odd = False
    for start in pivot_col:
        x = start
        while x not in seen:
            seen.add(x)
            x = pivot_col[x]
            if x != start:
                odd = not odd
    return p - det if odd else det


def sylvester_resultant(
    coeffs0: Sequence[int], coeffs1: Sequence[int], p: int
) -> int:
    """Univariate resultant from the (d0+d1)-square Sylvester layout.

    Coefficient lists are ascending in the variable.  Rows are the d0 shifts
    of the second polynomial followed by the d1 shifts of the first, which
    is the same matrix the greedy construction produces for one variable.
    """
    _require_prime(p)
    d0 = len(coeffs0) - 1
    d1 = len(coeffs1) - 1
    if d0 < 1 or d1 < 1:
        raise BadShape("both polynomials need degree at least 1")
    size = d0 + d1
    m = [[0] * size for _ in range(size)]
    for k in range(d0):
        for a, cf in enumerate(coeffs1):
            m[k][k + a] = cf % p
    for k in range(d1):
        for a, cf in enumerate(coeffs0):
            m[d0 + k][k + a] = cf % p
    return ff_det(m, p)


def specialize(
    m: SymbolicMatrix, coeffs: dict[CoeffRef, int], p: int
) -> list[list[int]]:
    """Dense numeric rows of a symbolic matrix under a coefficient draw."""
    dense = [[0] * m.size for _ in range(m.size)]
    for out, row in zip(dense, m.rows):
        for c, ref in row:
            out[c] = coeffs[ref] % p
    return dense


def specialize_rows(
    m: SymbolicMatrix, coeffs: dict[CoeffRef, int], p: int
) -> list[dict[int, int]]:
    """Sparse numeric rows, {column: value} for the nonzero entries."""
    values = {ref: v % p for ref, v in coeffs.items()}
    return [{c: v for c, ref in row if (v := values[ref])} for row in m.rows]


def draw_coefficients(
    sys_: ZonotopeSystem | MultiHomoSystem, rng: random.Random, p: int
) -> dict[CoeffRef, int]:
    """One uniform value per coefficient label, in a fixed deterministic order.

    Zero is allowed on purpose; it exercises the sparse structure.
    """
    return {
        CoeffRef(i, a): rng.randrange(p)
        for i in range(sys_.n + 1)
        for a in sys_.support(i)
    }


@dataclass
class QuotientReport:
    """Aggregated outcome of the randomized quotient checks.

    Checks per trial: (a) the greedy principal minor is nonzero, (b) the
    greedy determinant is nonzero, (c) in one variable the quotient equals
    the classical resultant, (d) the full and greedy quotients agree
    (compared cross-multiplied, so a singular full principal minor cannot
    produce a false alarm), (e) the reflected-orientation quotient agrees
    with the canonical one up to one sign fixed per system.

    Singular draws of the greedy principal minor are retried and then
    recorded as incidents, never as check failures.

    Each trial's final draw also tests det H = det H_G * det H_RR, with H_RR
    the trailing non-greedy block of H; block-triangular (greedy rows of H
    touch only greedy columns) implies it.  block_checks holds both checks
    as (name, passed, detail), outside ok and to_dict: verify reports them
    as structural checks.
    """

    kind: str
    n: int
    p: int
    trials: int
    seed: int
    sizes: dict[str, int]
    passes: dict[str, int] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    singular: list[dict] = field(default_factory=list)
    skipped: dict[str, str] = field(default_factory=dict)
    e_sign: int | None = None
    block_checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def _record(self, check: str, passed: bool, trial: int, message: str) -> None:
        if passed:
            self.passes[check] = self.passes.get(check, 0) + 1
        else:
            self.failures.append(
                {"check": check, "trial": trial, "message": message}
            )

    def completed(self, check: str) -> int:
        done = self.passes.get(check, 0)
        done += sum(1 for f in self.failures if f["check"] == check)
        return done

    def text(self) -> str:
        lines = [
            f"quotient verification: kind={self.kind} n={self.n} "
            f"p={self.p} trials={self.trials} seed={self.seed}",
            "matrix sizes: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.sizes.items())),
        ]
        labels = {
            "a": "det E_G nonzero",
            "b": "det H_G nonzero",
            "c": "univariate classical resultant match",
            "d": "full vs greedy quotient",
            "e": "reflected orientation quotient",
        }
        for check in "abcde":
            if check in self.skipped:
                lines.append(f"check {check} ({labels[check]}): skipped, "
                             f"{self.skipped[check]}")
                continue
            done = self.completed(check)
            note = ""
            if check == "e" and self.e_sign is not None:
                note = f" (sign {self.e_sign:+d})"
            lines.append(
                f"check {check} ({labels[check]}): "
                f"{self.passes.get(check, 0)}/{done}{note}"
            )
        lines.append(f"singular principal-minor incidents: {len(self.singular)}")
        for f in self.failures:
            lines.append(
                f"FAIL check {f['check']} trial {f['trial']}: {f['message']}"
            )
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["block_checks"]
        return {**out, "ok": self.ok}


def verify_quotient(
    sys_: ZonotopeSystem | MultiHomoSystem,
    p: int = DEFAULT_PRIME,
    trials: int = 50,
    seed: int = 0,
) -> QuotientReport:
    """Randomized identity testing of the determinant-quotient formula.

    Per trial, every coefficient label gets a fresh uniform value mod p and
    the checks listed on QuotientReport run.  Draws are deterministic in
    (seed, trial, attempt), so failures are reproducible from the report.
    """
    _require_prime(p)
    if trials < 1:
        raise ResmatError(f"trials must be at least 1, got {trials}")
    multi = isinstance(sys_, MultiHomoSystem)
    if multi:
        h_full = build_matrix(lattice_points_multi(sys_), sys_)
        h_greedy = build_matrix(greedy_closure_multi(sys_), sys_)
        h_refl = e_refl = None
    else:
        h_full = build_matrix(lattice_points(sys_), sys_)
        h_greedy = build_matrix(greedy_closure(sys_), sys_)
        h_refl = build_matrix(h_full.points, sys_, reflected=True)
        e_refl = principal_submatrix(h_refl)
    e_full, e_greedy = principal_submatrix(h_full), principal_submatrix(h_greedy)

    def det(m: SymbolicMatrix, coeffs: dict[CoeffRef, int]) -> int:
        return sparse_det(specialize_rows(m, coeffs, p), p)

    report = QuotientReport(
        kind="multihomogeneous" if multi else "zonotope",
        n=sys_.n,
        p=p,
        trials=trials,
        seed=seed,
        sizes={
            "full": h_full.size,
            "full_principal": e_full.size,
            "greedy": h_greedy.size,
            "greedy_principal": e_greedy.size,
        },
    )
    if sys_.n != 1:
        report.skipped["c"] = "only defined for one variable"
    if multi:
        report.skipped["e"] = "reflected orientation applies to box systems only"

    # greedy rows touch only greedy columns, so H_G leads a block triangular H
    flags = h_full.greedy_flags
    greedy_rows = (row for row, f in zip(h_full.rows, flags) if f)
    triangular = all(flags[c] for row in greedy_rows for c, _ in row)
    k, m = sum(flags), h_greedy.size
    product = None if k == m else f"H has {k} greedy rows, H_G has {m}"
    for trial in range(trials):
        for attempt in range(3):
            draw = f"{seed}:{trial}:{attempt}"
            coeffs = draw_coefficients(sys_, random.Random(draw), p)
            det_eg = det(e_greedy, coeffs)
            if det_eg != 0:
                break
            report.singular.append({"trial": trial, "attempt": attempt, "seed": draw})
        report._record("a", det_eg != 0, trial,
                       "det E_G stayed zero after 3 attempts")

        # det H = det H_G * det H_RR when H is block triangular
        h_rows = specialize_rows(h_full, coeffs, p)
        det_h = sparse_det(h_rows, p)
        det_hg = det(h_greedy, coeffs)
        if k == m:
            det_rr = sparse_det(
                [{c - k: v for c, v in row.items() if c >= k} for row in h_rows[k:]], p
            )
            if det_h != det_hg * det_rr % p and product is None:
                product = f"trial {trial}: {det_h} != {det_hg}*{det_rr} mod p"
        if det_eg == 0:
            continue

        report._record("b", det_hg != 0, trial, "det H_G = 0")
        det_e = det(e_full, coeffs)

        if sys_.n == 1:
            c0 = [coeffs[CoeffRef(0, a)] for a in sys_.support(0)]
            c1 = [coeffs[CoeffRef(1, a)] for a in sys_.support(1)]
            quotient = det_hg * pow(det_eg, -1, p) % p
            expected = sylvester_resultant(c0, c1, p)
            report._record(
                "c", quotient == expected, trial,
                f"quotient {quotient} != classical resultant {expected}",
            )

        lhs = det_h * det_eg % p
        rhs = det_hg * det_e % p
        report._record(
            "d", lhs == rhs, trial,
            f"det(H)det(E_G) = {lhs} != det(H_G)det(E) = {rhs}",
        )

        if not multi:
            det_hr = det(h_refl, coeffs)
            det_er = det(e_refl, coeffs)
            lhs = det_hr * det_e % p
            rhs = det_h * det_er % p
            if lhs == rhs and lhs == (p - rhs) % p:
                report._record("e", True, trial, "")
            elif lhs == rhs or lhs == (p - rhs) % p:
                sign = 1 if lhs == rhs else -1
                if report.e_sign is None:
                    report.e_sign = sign
                report._record(
                    "e", sign == report.e_sign, trial,
                    f"orientation sign flipped to {sign:+d} "
                    f"(established {report.e_sign:+d})",
                )
            else:
                report._record(
                    "e", False, trial,
                    f"reflected quotient differs beyond sign: "
                    f"{lhs} vs +/-{rhs}",
                )
    report.block_checks = [
        ("block-triangular", triangular, ""),
        ("block-determinant-product", product is None, product or ""),
    ]
    return report
