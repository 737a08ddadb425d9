import dataclasses
import random

import pytest

from resmat import oracles
from resmat import (
    BadShape,
    CoeffRef,
    DEFAULT_PRIME,
    NotPrime,
    ResmatError,
    build_matrix,
    draw_coefficients,
    ff_det,
    greedy_closure,
    principal_submatrix,
    specialize,
    validate_multihomo,
    validate_zonotope,
    verify_quotient,
)
from resmat.oracles import _require_prime, mixed_volume, permanent, sylvester_resultant
from resmat.subdivision import lattice_points

P = DEFAULT_PRIME


class TestPermanent:
    def test_examples(self):
        assert permanent([[1, 2], [2, 3]]) == 7
        assert permanent([[1, 0], [0, 1]]) == 1
        assert permanent([[1, 1], [1, 1]]) == 2

    def test_empty(self):
        assert permanent([]) == 1

    def test_not_square(self):
        with pytest.raises(BadShape):
            permanent([[1, 2, 3], [4, 5, 6]])


class TestMixedVolume:
    def test_unit_values(self):
        assert [mixed_volume([[1, 1]] * 3, i) for i in range(3)] == [2, 2, 2]
        assert [mixed_volume([[1, 1, 1]] * 4, i) for i in range(4)] == [6] * 4

    def test_pinned_expansion(self):
        assert mixed_volume([[9, 9], [1, 2], [2, 3]], 0) == 7

    def test_matches_permanent_route(self, system_family):
        for sys_ in system_family:
            n = sys_.n
            for i in range(n + 1):
                rows = [sys_.bounds[k] for k in range(n + 1) if k != i]
                assert mixed_volume(sys_.bounds, i) == permanent(rows)

    def test_total_degrees_unit(self):
        import math

        for n in (2, 3, 4, 5):
            bounds = [[1] * n] * (n + 1)
            total = sum(mixed_volume(bounds, i) for i in range(n + 1))
            assert total == (n + 1) * math.factorial(n)

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            mixed_volume([[1, 1], [1, 1], [1, 1]], 5)
        with pytest.raises(BadShape):
            mixed_volume([[1], [1, 1]], 0)


class TestFfDet:
    def test_examples(self):
        assert ff_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7) == 1
        assert ff_det([[1, 2], [3, 4]], 7) == 5
        assert ff_det([[1, 2], [1, 2]], 7) == 0

    def test_empty_matrix(self):
        assert ff_det([], 7) == 1

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            ff_det([[1]], 9)
        with pytest.raises(NotPrime):
            ff_det([[1]], 1)

    def test_not_square(self):
        with pytest.raises(BadShape):
            ff_det([[1, 2]], 7)

    def test_matches_integer_determinant(self):
        from resmat.systems import _int_det

        rng = random.Random(5)
        for _ in range(25):
            k = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
            cols = [[rows[r][c] for r in range(k)] for c in range(k)]
            assert ff_det(rows, P) == _int_det(cols) % P

    def test_pivoting_needed(self):
        assert ff_det([[0, 1], [1, 0]], 7) == 6


class TestSylvester:
    def test_two_by_two(self):
        # the univariate greedy layout puts the second polynomial's rows
        # first, so the 2x2 value is u10*u01 - u11*u00
        got = sylvester_resultant([2, 3], [5, 7], 101)
        assert got == (5 * 3 - 7 * 2) % 101

    def test_common_root_vanishes(self):
        p = 101
        assert sylvester_resultant([p - 1, 1], [p - 1, 1], p) == 0
        # (x-2)(x-3) and (x-2)(x-5) share the root 2
        f = [6, p - 5, 1]
        g = [10, p - 7, 1]
        assert sylvester_resultant(f, g, p) == 0

    def test_matches_explicit_layout_2_3(self):
        rng = random.Random(11)
        c0 = [rng.randrange(P) for _ in range(3)]
        c1 = [rng.randrange(P) for _ in range(4)]
        m = [
            [c1[0], c1[1], c1[2], c1[3], 0],
            [0, c1[0], c1[1], c1[2], c1[3]],
            [c0[0], c0[1], c0[2], 0, 0],
            [0, c0[0], c0[1], c0[2], 0],
            [0, 0, c0[0], c0[1], c0[2]],
        ]
        assert sylvester_resultant(c0, c1, P) == ff_det(m, P)

    def test_degree_zero_rejected(self):
        with pytest.raises(BadShape):
            sylvester_resultant([1], [1, 2], P)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            sylvester_resultant([1, 2], [3, 4], 10)


class TestSpecialize:
    def test_round_trip(self):
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        m = build_matrix(list(greedy_closure(s)), s)
        rng = random.Random(0)
        coeffs = draw_coefficients(s, rng, P)
        dense = specialize(m, coeffs, P)
        assert len(dense) == 8 and all(len(r) == 8 for r in dense)
        for (r, c), ref in m.entries.items():
            assert dense[r][c] == coeffs[ref]

    def test_draw_determinism(self):
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        a = draw_coefficients(s, random.Random("x"), P)
        b = draw_coefficients(s, random.Random("x"), P)
        assert a == b
        assert len(a) == 12


class TestVerifyQuotient:
    def test_univariate_minimal(self):
        s = validate_zonotope([[1], [1]])
        rep = verify_quotient(s, trials=5, seed=1)
        assert rep.ok
        assert rep.passes == {"a": 5, "b": 5, "c": 5, "d": 5, "e": 5}
        assert rep.sizes == {
            "full": 2,
            "full_principal": 0,
            "greedy": 2,
            "greedy_principal": 0,
        }
        assert not rep.singular

    def test_univariate_quotient_matches_sylvester_by_hand(self):
        s = validate_zonotope([[1], [1]])
        m = build_matrix(list(lattice_points(s)), s)
        rng = random.Random(4)
        coeffs = draw_coefficients(s, rng, P)
        det = ff_det(specialize(m, coeffs, P), P)
        c0 = [coeffs[CoeffRef(0, (0,))], coeffs[CoeffRef(0, (1,))]]
        c1 = [coeffs[CoeffRef(1, (0,))], coeffs[CoeffRef(1, (1,))]]
        assert det == sylvester_resultant(c0, c1, P)

    def test_report_structure(self):
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        rep = verify_quotient(s, trials=3, seed=9)
        assert rep.ok
        d = rep.to_dict()
        assert d["ok"] is True
        assert d["passes"]["d"] == 3
        assert d["skipped"]["c"]
        assert "result: PASS" in rep.text()
        # the block checks are reported by verify as structural checks
        assert rep.block_checks == [
            ("block-triangular", True, ""), ("block-determinant-product", True, "")
        ]
        assert "block_checks" not in d

    def test_product_needs_greedy_leading_block(self, monkeypatch):
        # H_G built over every window point is not H's leading greedy block
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        monkeypatch.setattr(oracles, "greedy_closure", lattice_points)
        rep = verify_quotient(s, trials=1)
        assert rep.block_checks == [
            ("block-triangular", True, ""),
            ("block-determinant-product", False, "H has 8 greedy rows, H_G has 9"),
        ]

    def test_triangular_fails_on_a_non_greedy_row_flagged_greedy(self, monkeypatch):
        # the first non-greedy row of H reaches a non-greedy column other
        # than its own; flagged greedy, it breaks the block structure
        s = validate_zonotope([[2, 2], [2, 2], [1, 1]])
        real = oracles.build_matrix

        def flag_first_non_greedy_row(points, sys_, reflected=False):
            m = real(points, sys_, reflected)
            if m.size < sys_.lattice_size() or reflected:
                return m
            flags = list(m.greedy_flags)
            flags[flags.index(False)] = True
            return dataclasses.replace(m, greedy_flags=tuple(flags))

        monkeypatch.setattr(oracles, "build_matrix", flag_first_non_greedy_row)
        rep = verify_quotient(s, trials=2)
        assert rep.block_checks == [
            ("block-triangular", False, ""),
            ("block-determinant-product", False, "H has 22 greedy rows, H_G has 21"),
        ]
        # checks a-e do not read the flags
        assert rep.ok and rep.passes["d"] == 2

    def test_multihomo_skips_reflection(self):
        s = validate_multihomo((2,), [[2], [2], [1]])
        rep = verify_quotient(s, trials=3, seed=2)
        assert rep.ok
        assert "e" in rep.skipped
        assert rep.e_sign is None

    def test_singular_draws_are_retried_and_reported(self):
        # a tiny field makes singular principal minors likely; the report
        # must record incidents without failing checks unrelated to them
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        rep = verify_quotient(s, p=3, trials=30, seed=0)
        assert rep.singular
        for event in rep.singular:
            assert "seed" in event and "trial" in event
        failed_checks = {f["check"] for f in rep.failures}
        assert failed_checks <= {"a", "b"}
        # det H = det H_G * det H_RR holds on singular draws too
        assert rep.block_checks[1] == ("block-determinant-product", True, "")

    def test_not_prime(self):
        s = validate_zonotope([[1], [1]])
        with pytest.raises(NotPrime):
            verify_quotient(s, p=12, trials=1)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        with pytest.raises(ResmatError, match="trials must be at least 1"):
            verify_quotient(s, trials=trials)


class TestRequirePrime:
    def test_strong_pseudoprimes_rejected(self):
        # the least composites passing Miller-Rabin for the first 12 and
        # the first 13 prime bases (Sorenson and Webster)
        for p in (318665857834031151167461, 3317044064679887385961981):
            with pytest.raises(NotPrime):
                _require_prime(p)

    def test_proven_range(self):
        _require_prime(DEFAULT_PRIME)
        _require_prime(2**61 - 1)
        with pytest.raises(NotPrime, match="2..41"):
            _require_prime(2**89 - 1)


class TestDegenerateSpecialization:
    def test_constant_polynomial_ratio(self):
        # freeze one polynomial to a constant at its lowest vertex; the
        # quotient then scales as that constant to the power of the
        # excluded-row mixed volume, so ratios of two runs expose the
        # exponent exactly
        s = validate_zonotope([[1, 1], [1, 1], [1, 1]])
        hg = build_matrix(list(greedy_closure(s)), s)
        eg = principal_submatrix(hg)

        def quotient(coeffs):
            dh = ff_det(specialize(hg, coeffs, P), P)
            de = ff_det(specialize(eg, coeffs, P), P)
            return dh * pow(de, -1, P) % P

        rng = random.Random("degenerate")
        base = draw_coefficients(s, rng, P)
        for excluded in range(3):
            mv = mixed_volume(s.bounds, excluded)
            c1, c2 = 1234567, 7654321
            values = []
            for c in (c1, c2):
                co = dict(base)
                for a in s.support(excluded):
                    co[CoeffRef(excluded, a)] = c if a == (0, 0) else 0
                values.append(quotient(co))
            lhs = values[0] * pow(values[1], -1, P) % P
            rhs = pow(c1 * pow(c2, -1, P), mv, P)
            assert lhs == rhs
