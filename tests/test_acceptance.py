"""Acceptance gate: every criterion, at its stated tolerance and budget.

Each test pins the frozen expected values and asserts its runtime bound.
Randomized identity checks run at a fixed 31-bit prime with deterministic
seeds, so failures are reproducible.
"""

import json
import math
import random
import time

from resmat import (
    DEFAULT_PRIME,
    build_matrix,
    cli,
    draw_coefficients,
    ff_det,
    greedy_closure,
    greedy_closure_multi,
    predicted_size_multihomo,
    predicted_size_zonotope,
    specialize,
    validate_multihomo,
    validate_zonotope,
    verify_quotient,
)
from resmat.greedy import KeyedWindow, cell_table, check_no_escape, is_greedy
from resmat.multihomo import cell_table_multi
from resmat.oracles import mixed_volume
from resmat.subdivision import is_mixed, lattice_points, type_function_of
from resmat.systems import type_vector_of

FROZEN_UNIT_SIZES = {2: (9, 8), 3: (64, 50), 4: (625, 432), 5: (7776, 4802)}


def all_ones(n):
    return validate_zonotope([[1] * n] * (n + 1))


def test_criterion_1_unit_bound_size_table():
    start = time.monotonic()
    for n, (expect_b, expect_g) in FROZEN_UNIT_SIZES.items():
        s = all_ones(n)
        assert s.lattice_size() == expect_b
        closure_size = len(greedy_closure(s))
        formula_size = predicted_size_zonotope(s)
        assert closure_size == expect_g
        assert formula_size == expect_g
    assert time.monotonic() - start < 10.0


def test_criterion_2_multihomo_worked_example():
    start = time.monotonic()
    s = validate_multihomo((2,), [[2], [2], [1]])
    m = build_matrix(list(greedy_closure_multi(s)), s)
    assert m.size == 9
    assert predicted_size_multihomo(s) == 9
    greedy_counts = [
        count for phi, t, count, mixed, greedy, rc in cell_table_multi(s)
        if greedy
    ]
    assert greedy_counts == [4, 2, 1, 2, 0]
    assert sum(greedy_counts) == 9
    assert time.monotonic() - start < 1.0


def test_criterion_3_bilinear_example():
    s = all_ones(2)
    points = list(lattice_points(s))
    assert len(points) == 9
    closure = greedy_closure(s)
    m = build_matrix(list(closure), s)
    assert m.size == 8

    def tv(b):
        return type_vector_of(type_function_of(b, s), s.n)

    excluded = sorted(set(points) - set(closure))
    assert excluded == [(0, 0)]
    assert [b for b in points if tv(b) == (2, 0, 0)] == [(0, 0)]

    # the same system written multihomogeneously gives the same counts
    bi = validate_multihomo((1, 1), [[1, 1], [1, 1], [1, 1]])
    assert bi.lattice_size() == 9
    assert predicted_size_multihomo(bi) == 8
    assert len(greedy_closure_multi(bi)) == 8


def test_criterion_4_theorem_suite_random_family(system_family):
    start = time.monotonic()
    assert len(system_family) >= 20
    for s in system_family:
        n = s.n

        def tv(b):
            return type_vector_of(type_function_of(b, s), n)

        closure = greedy_closure(s)
        predicate = {b for b in lattice_points(s) if is_greedy(tv(b))}
        assert set(closure) == predicate

        table = cell_table(s)
        assert check_no_escape(s, KeyedWindow(s).greedy_cells(table))
        assert sum(r[2] for r in table) == s.lattice_size()

        mixed_by_i = {}
        for b, rc in closure.items():
            if is_mixed(tv(b)):
                mixed_by_i[rc.poly] = mixed_by_i.get(rc.poly, 0) + 1
        for i in range(n + 1):
            assert mixed_by_i.get(i, 0) == mixed_volume(s.bounds, i)
    assert time.monotonic() - start < 60.0


def test_criterion_5_quotient_suite():
    start = time.monotonic()

    # univariate: exact classical-resultant equality, no tolerated singulars
    for d0 in range(1, 4):
        for d1 in range(1, 5):
            s = validate_zonotope([[d0], [d1]])
            rep = verify_quotient(s, p=DEFAULT_PRIME, trials=50, seed=416)
            assert rep.ok, rep.text()
            assert rep.passes["c"] == 50
            assert not rep.singular

    # two variables: property checks on the two pinned systems
    for bounds in ([[1, 1], [1, 1], [1, 1]], [[2, 2], [2, 2], [1, 1]]):
        s = validate_zonotope(bounds)
        rep = verify_quotient(s, p=DEFAULT_PRIME, trials=50, seed=416)
        assert rep.ok, rep.text()
        for check in ("a", "b", "d", "e"):
            assert rep.passes[check] == 50
    assert time.monotonic() - start < 120.0


def test_criterion_6_block_triangularity(system_family):
    for s in system_family:
        full = build_matrix(list(lattice_points(s)), s)
        for (r, c) in full.entries:
            if full.greedy_flags[r]:
                assert full.greedy_flags[c]

    # determinant multiplicativity across the diagonal blocks
    small = [s for s in system_family if s.lattice_size() <= 100][:3]
    small.append(all_ones(2))
    p = DEFAULT_PRIME
    for s in small:
        full = build_matrix(list(lattice_points(s)), s)
        k = sum(full.greedy_flags)
        for draw in range(10):
            rng = random.Random(f"blocks:{draw}")
            coeffs = draw_coefficients(s, rng, p)
            dense = specialize(full, coeffs, p)
            whole = ff_det(dense, p)
            top = ff_det([row[:k] for row in dense[:k]], p)
            rest = ff_det([row[k:] for row in dense[k:]], p)
            assert whole == top * rest % p


def test_criterion_7_degree_audit():
    totals = {}
    for n in (2, 3, 4, 5):
        bounds = [[1] * n] * (n + 1)
        totals[n] = sum(mixed_volume(bounds, i) for i in range(n + 1))
        assert totals[n] == (n + 1) * math.factorial(n)
    assert [totals[n] for n in (2, 3, 4, 5)] == [6, 24, 120, 720]

    # the oracle agrees with the published table at n=2,3 and the audit
    # must flag the published 360 / 3720 at n=4,5 instead of matching them
    for n, diverges in ((2, False), (3, False), (4, True), (5, True)):
        s = all_ones(n)
        audit = cli._degree_audit(s, [mixed_volume(s.bounds, i) for i in range(n + 1)])
        assert audit["reference"] is not None
        assert audit["diverges"] is diverges
        if diverges:
            assert audit["total"] == (n + 1) * math.factorial(n)
            assert audit["reference"] in (360, 3720)


def test_criterion_7_verify_report_carries_the_flag(tmp_path, capsys):
    spec = tmp_path / "n4.json"
    spec.write_text(json.dumps({"kind": "zonotope", "bounds": [[1] * 4] * 5}))
    code = cli.main(["verify", str(spec), "--quotient-limit", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DIVERGENCE" in out
    summary = json.loads(out.rsplit("SUMMARY ", 1)[1])
    assert summary["degree_audit"]["diverges"] is True
    assert summary["degree_audit"]["total"] == 120
    assert summary["degree_audit"]["reference"] == 360
