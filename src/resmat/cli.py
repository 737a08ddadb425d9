"""Command-line front end.

Four subcommands over a JSON system file: sizes (point and matrix counts),
subdivision (cell listing), matrix (export), verify (structural checks plus
randomized quotient testing).  Exit codes: 0 success, 2 bad input file or
bad arguments, 3 verification failure, 4 I/O trouble.

All output is deterministic given the input file, the flags and the seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .errors import (
    NotPrime,
    ResmatError,
    SpecInvalid,
    SpecParse,
)
from .greedy import cell_table, check_no_escape, greedy_closure, predicted_size_zonotope
from .matrix import build_matrix, export_matrix, principal_submatrix
from .multihomo import (
    cell_table_multi,
    check_no_escape_multi,
    greedy_closure_multi,
    keyed_window,
    lattice_points_multi,
    predicted_size_multihomo,
)
from .oracles import (
    DEFAULT_PRIME,
    _require_prime,
    mixed_volume,
    verify_quotient,
)
from .subdivision import lattice_points
from .systems import (
    MultiHomoSystem,
    ZonotopeSystem,
    normalize_zonotope,
    validate_multihomo,
    validate_zonotope,
)

GUARDRAIL = 10**7

# Published reference table for the total resultant degree of all-ones
# bounds.  The mixed-volume oracle gives (n+1) * n!; the n=4 and n=5 entries
# below disagree with that and the audit flags the divergence instead of
# adopting them.
_DEGREE_REFERENCE = {2: 6, 3: 24, 4: 360, 5: 3720}


class BadArgument(ResmatError):
    """A command-line option has a value outside its valid range."""


def _tup(t: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in t) + ")"


def _int_value(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise SpecInvalid(f"{where} must be an integer, got {x!r}")
    return x


def _int_list(data: dict, key: str) -> list[int]:
    value = data.get(key)
    if not isinstance(value, list) or not value:
        raise SpecInvalid(f"field {key!r} must be a nonempty array")
    return [_int_value(x, f"{key}[{i}]") for i, x in enumerate(value)]


def _int_matrix(data: dict, key: str) -> list[list[int]]:
    value = data.get(key)
    if not isinstance(value, list) or not value:
        raise SpecInvalid(f"field {key!r} must be a nonempty array of arrays")
    out = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise SpecInvalid(f"{key}[{i}] must be an array")
        out.append([_int_value(x, f"{key}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def load_system(
    path: str,
) -> tuple[ZonotopeSystem | MultiHomoSystem, dict]:
    """Parse a JSON system file into a validated system plus metadata."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecParse(f"{path}: not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecParse(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecInvalid(f"{path}: top level must be a JSON object")
    kind = data.get("kind")
    if kind == "zonotope":
        bounds = _int_matrix(data, "bounds")
        try:
            if "generators" in data:
                gens = _int_matrix(data, "generators")
                sys_, exponent = normalize_zonotope(gens, bounds)
                return sys_, {"exponent": exponent}
            return validate_zonotope(bounds), {}
        except ResmatError as exc:
            raise SpecInvalid(f"{path}: {exc}") from exc
    if kind == "multihomogeneous":
        groups = _int_list(data, "groups")
        degrees = _int_matrix(data, "degrees")
        try:
            return validate_multihomo(tuple(groups), degrees), {}
        except ResmatError as exc:
            raise SpecInvalid(f"{path}: {exc}") from exc
    raise SpecInvalid(
        f"{path}: unknown kind {kind!r}; expected 'zonotope' or "
        f"'multihomogeneous'"
    )


def _check_guardrail(count: int, what: str, force: bool) -> None:
    if count > GUARDRAIL and not force:
        raise SpecInvalid(
            f"{count} {what}, above the {GUARDRAIL} guardrail; pass --force to proceed"
        )


class _Engine(NamedTuple):
    closure: Callable
    predicted: Callable
    no_escape: Callable
    cell_table: Callable
    points: Callable


def _engine(sys_) -> _Engine:
    """The entry points of sys_'s kind, read from this module at each call,
    so that wrappers installed on its attributes see every call."""
    if isinstance(sys_, MultiHomoSystem):
        return _Engine(greedy_closure_multi, predicted_size_multihomo,
                       check_no_escape_multi, cell_table_multi, lattice_points_multi)
    return _Engine(greedy_closure, predicted_size_zonotope,
                   check_no_escape, cell_table, lattice_points)


def cmd_sizes(sys_, meta: dict) -> int:
    multi = isinstance(sys_, MultiHomoSystem)
    engine = _engine(sys_)
    b_size = sys_.lattice_size()
    closure = engine.closure(sys_)
    predicted = engine.predicted(sys_)
    g = len(closure)

    print(f"kind={'multihomogeneous' if multi else 'zonotope'} n={sys_.n}")
    print(f"|B|={b_size} |G|={g} predicted={predicted} ratio={b_size / g:.3f}")

    print(
        "mixed points per polynomial: "
        + " ".join(f"i={i}:{c}" for i, c in enumerate(closure.mixed_by_poly))
    )
    if multi:
        formula: Counter = Counter()
        for phi, t, count, mixed, greedy, rc in engine.cell_table(sys_):
            if mixed:
                formula[rc.poly] += count
        print(
            "mixed points per polynomial (cell formula): "
            + " ".join(f"i={i}:{formula.get(i, 0)}" for i in range(sys_.n + 1))
        )
    else:
        vols = [mixed_volume(sys_.bounds, i) for i in range(sys_.n + 1)]
        print(
            "mixed volumes per polynomial: "
            + " ".join(f"i={i}:{v}" for i, v in enumerate(vols))
        )
    if "exponent" in meta:
        print(f"generator normalization exponent: {meta['exponent']}")

    if predicted != g:
        print(
            f"INTERNAL ASSERTION FAILED: predicted size {predicted} differs "
            f"from closure size {g}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_subdivision(sys_) -> int:
    rows = _engine(sys_).cell_table(sys_)
    mixed_cells = 0
    greedy_cells = 0
    for phi, t, count, mixed, greedy, rc in rows:
        mixed_cells += mixed
        greedy_cells += greedy
        print(
            f"phi={_tup(phi)} t={_tup(t)} points={count} "
            f"mixed={'yes' if mixed else 'no'} "
            f"greedy={'yes' if greedy else 'no'} "
            f"content=i={rc.poly} vertex={_tup(rc.vertex)}"
        )
    print(f"cells={len(rows)} mixed={mixed_cells} greedy={greedy_cells}")
    return 0


def cmd_matrix(sys_, args) -> int:
    engine = _engine(sys_)
    points = engine.points(sys_) if args.full else engine.closure(sys_)
    if args.format == "dense":
        size = sys_.lattice_size() if args.full else len(points)
        _check_guardrail(size**2, f"entries in the dense export of {size} points", args.force)
    m = build_matrix(points, sys_)
    if args.principal:
        m = principal_submatrix(m)
    data = export_matrix(m, args.format)
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def _degree_audit(sys_: ZonotopeSystem, vols: list[int]) -> dict:
    n = sys_.n
    total = sum(vols)
    audit = {"total": total, "reference": None, "diverges": None}
    print(f"degree audit: per-polynomial mixed volumes {vols}, total {total}")
    all_ones = all(a == 1 for row in sys_.bounds for a in row)
    if all_ones and n in _DEGREE_REFERENCE:
        ref = _DEGREE_REFERENCE[n]
        audit["reference"] = ref
        audit["diverges"] = ref != total
        if ref != total:
            print(
                f"degree audit: reference table lists {ref} for n={n}; the "
                f"mixed-volume oracle gives {total}. DIVERGENCE flagged "
                f"(known discrepancy, informational)."
            )
        else:
            print(f"degree audit: matches the reference table value {ref}")
    return audit


def cmd_verify(sys_, args) -> int:
    _require_prime(args.prime)
    if args.trials < 1:
        raise BadArgument(f"--trials must be at least 1, got {args.trials}")
    if args.quotient_limit < 0:
        raise BadArgument(
            f"--quotient-limit must be nonnegative, got {args.quotient_limit}"
        )
    multi = isinstance(sys_, MultiHomoSystem)
    engine = _engine(sys_)
    b_size = sys_.lattice_size()
    closure = engine.closure(sys_)
    g = len(closure)
    print(f"kind={'multihomogeneous' if multi else 'zonotope'} n={sys_.n}")
    print(f"|B|={b_size} |G|={g}")

    structural: list[tuple[str, bool, str]] = []

    rows = engine.cell_table(sys_)
    cell_total = sum(r[2] for r in rows)
    cells = keyed_window(sys_).greedy_cells(rows)
    predicate = {b for _, points in cells for b in points}
    structural.append(
        (
            "closure-equals-greedy-predicate",
            set(closure) == predicate,
            f"closure {len(closure)} vs predicate {len(predicate)}",
        )
    )
    structural.append(("no-escape", engine.no_escape(sys_, cells), ""))
    structural.append(
        (
            "cell-partition",
            cell_total == b_size,
            f"cell counts sum to {cell_total}, window has {b_size}",
        )
    )
    predicted = engine.predicted(sys_)
    structural.append(
        (
            "predicted-size",
            predicted == g,
            f"formula {predicted} vs closure {g}",
        )
    )
    if not multi:
        mixed = closure.mixed_by_poly
        vols = [mixed_volume(sys_.bounds, i) for i in range(sys_.n + 1)]
        structural.append(
            ("mixed-count-vs-mixed-volume", mixed == vols, f"counts {mixed} vs volumes {vols}")
        )

    quotient = None
    gated = b_size <= args.quotient_limit
    if gated:
        quotient = verify_quotient(sys_, args.prime, args.trials, args.seed)
        structural += quotient.block_checks
    else:
        print(
            f"matrix-level checks skipped: |B|={b_size} exceeds "
            f"--quotient-limit {args.quotient_limit}"
        )

    for name, ok, detail in structural:
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"structural check {name}: {'PASS' if ok else 'FAIL'}{suffix}")

    audit = _degree_audit(sys_, vols) if not multi else None

    if gated:
        print(quotient.text())
    else:
        print(
            f"quotient checks skipped: |B|={b_size} exceeds "
            f"--quotient-limit {args.quotient_limit}"
        )

    ok = all(s[1] for s in structural) and (quotient is None or quotient.ok)
    summary = {
        "ok": ok,
        "b_size": b_size,
        "greedy_size": g,
        "structural": {name: passed for name, passed, _ in structural},
        "quotient": quotient.to_dict() if quotient is not None else None,
        "degree_audit": audit,
    }
    print("SUMMARY " + json.dumps(summary, sort_keys=True))
    return 0 if ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resmat",
        description=(
            "Sparse-resultant matrices from combinatorial mixed "
            "subdivisions of box and multihomogeneous systems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to a JSON system file")
        p.add_argument(
            "--force",
            action="store_true",
            help="ignore the size guardrails",
        )

    p_sizes = sub.add_parser("sizes", help="point and matrix size report")
    common(p_sizes)

    p_sub = sub.add_parser("subdivision", help="cell-by-cell listing")
    common(p_sub)

    p_mat = sub.add_parser("matrix", help="export a symbolic matrix")
    common(p_mat)
    which = p_mat.add_mutually_exclusive_group()
    which.add_argument(
        "--greedy",
        action="store_true",
        default=True,
        help="greedy closure points (default)",
    )
    which.add_argument(
        "--full",
        action="store_true",
        default=False,
        help="all window points",
    )
    p_mat.add_argument(
        "--principal",
        action="store_true",
        help="restrict to the non-mixed principal submatrix",
    )
    p_mat.add_argument(
        "--format",
        choices=("triplets", "dense"),
        default="triplets",
    )
    p_mat.add_argument("--out", help="output path (default stdout)")

    p_ver = sub.add_parser("verify", help="structural and quotient checks")
    common(p_ver)
    p_ver.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p_ver.add_argument("--trials", type=int, default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--quotient-limit",
        type=int,
        default=128,
        help=(
            "skip matrix-level checks when the window has more points "
            "than this"
        ),
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sys_, meta = load_system(args.spec)
        _check_guardrail(sys_.lattice_size(), "points in the lattice window", args.force)
        if args.command == "sizes":
            return cmd_sizes(sys_, meta)
        if args.command == "subdivision":
            return cmd_subdivision(sys_)
        if args.command == "matrix":
            return cmd_matrix(sys_, args)
        return cmd_verify(sys_, args)
    except (SpecParse, SpecInvalid, NotPrime, BadArgument) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
