import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest

from resmat import cli, oracles
from resmat.greedy import KeyedWindow

SPECS = Path(__file__).resolve().parent.parent / "specs"
BENCH_SPECS = SPECS.parent / "bench" / "specs"
UNIT2_SPEC = str(SPECS / "zonotope_n2_unit.json")
TRI_SPEC = str(SPECS / "multihomo_221.json")


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadSystem:
    def test_zonotope(self):
        sys_, meta = cli.load_system(UNIT2_SPEC)
        assert sys_.bounds == ((1, 1), (1, 1), (1, 1))
        assert meta == {}

    def test_multihomo(self):
        sys_, meta = cli.load_system(TRI_SPEC)
        assert sys_.group_sizes == (2,)
        assert sys_.degrees == ((2,), (2,), (1,))

    def test_generators(self, tmp_path):
        path = write_spec(
            tmp_path,
            "gen.json",
            {
                "kind": "zonotope",
                "bounds": [[1, 1], [1, 1], [1, 1]],
                "generators": [[2, 0], [0, 1]],
            },
        )
        _, meta = cli.load_system(path)
        assert meta == {"exponent": 2}

    def test_rejects_unknown_kind(self, tmp_path):
        path = write_spec(tmp_path, "bad.json", {"kind": "torus"})
        with pytest.raises(cli.SpecInvalid):
            cli.load_system(path)

    def test_rejects_non_integers(self, tmp_path):
        path = write_spec(
            tmp_path,
            "bad.json",
            {"kind": "zonotope", "bounds": [[1, 1], [1, 1], [1, 1.5]]},
        )
        with pytest.raises(cli.SpecInvalid):
            cli.load_system(path)

    def test_rejects_booleans(self, tmp_path):
        path = write_spec(
            tmp_path,
            "bad.json",
            {"kind": "zonotope", "bounds": [[1, 1], [1, 1], [1, True]]},
        )
        with pytest.raises(cli.SpecInvalid):
            cli.load_system(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(cli.SpecParse):
            cli.load_system(str(path))


SIZES_REPORTS = {
    "ones5": (
        {"kind": "zonotope", "bounds": [[1] * 5] * 6},
        "kind=zonotope n=5\n"
        "|B|=7776 |G|=4802 predicted=4802 ratio=1.619\n"
        "mixed points per polynomial: i=0:120 i=1:120 i=2:120 i=3:120 i=4:120 i=5:120\n"
        "mixed volumes per polynomial: "
        "i=0:120 i=1:120 i=2:120 i=3:120 i=4:120 i=5:120\n",
    ),
    "box222": (
        {"kind": "zonotope", "bounds": [[2, 2, 2]] * 4},
        "kind=zonotope n=3\n"
        "|B|=512 |G|=400 predicted=400 ratio=1.280\n"
        "mixed points per polynomial: i=0:48 i=1:48 i=2:48 i=3:48\n"
        "mixed volumes per polynomial: i=0:48 i=1:48 i=2:48 i=3:48\n",
    ),
    "box456": (
        {"kind": "zonotope", "bounds": [[4, 4], [5, 5], [6, 6]]},
        "kind=zonotope n=2\n"
        "|B|=225 |G|=209 predicted=209 ratio=1.077\n"
        "mixed points per polynomial: i=0:60 i=1:48 i=2:40\n"
        "mixed volumes per polynomial: i=0:60 i=1:48 i=2:40\n",
    ),
    "multi32": (
        {"kind": "multihomogeneous", "groups": [3, 2], "degrees": [[2, 2]] * 6},
        "kind=multihomogeneous n=5\n"
        "|B|=14520 |G|=9464 predicted=9464 ratio=1.534\n"
        "mixed points per polynomial: i=0:320 i=1:320 i=2:320 i=3:320 i=4:320 i=5:320\n"
        "mixed points per polynomial (cell formula): "
        "i=0:320 i=1:320 i=2:320 i=3:320 i=4:320 i=5:320\n",
    ),
}


class TestSizes:
    @pytest.mark.parametrize("name", sorted(SIZES_REPORTS))
    def test_exact_report(self, name, tmp_path, capsys):
        payload, expected = SIZES_REPORTS[name]
        path = write_spec(tmp_path, f"{name}.json", payload)
        assert cli.main(["sizes", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == ""

    def test_unit_report(self, capsys):
        assert cli.main(["sizes", UNIT2_SPEC]) == 0
        out = capsys.readouterr().out
        assert "|B|=9 |G|=8" in out
        assert "predicted=8" in out
        assert "mixed volumes per polynomial: i=0:2 i=1:2 i=2:2" in out

    def test_multihomo_report(self, capsys):
        assert cli.main(["sizes", TRI_SPEC]) == 0
        out = capsys.readouterr().out
        assert "|G|=9" in out
        assert "|B|=10" in out

    def test_generator_exponent_line(self, capsys, tmp_path):
        path = write_spec(
            tmp_path,
            "gen.json",
            {
                "kind": "zonotope",
                "bounds": [[1, 1], [1, 1], [1, 1]],
                "generators": [[3, 0], [0, 1]],
            },
        )
        assert cli.main(["sizes", path]) == 0
        assert "generator normalization exponent: 3" in capsys.readouterr().out


class TestSubdivision:
    def test_unit_summary(self, capsys):
        assert cli.main(["subdivision", UNIT2_SPEC]) == 0
        out = capsys.readouterr().out
        assert "cells=9 mixed=6 greedy=8" in out

    def test_multihomo_cells(self, capsys):
        assert cli.main(["subdivision", TRI_SPEC]) == 0
        out = capsys.readouterr().out
        assert "cells=6 mixed=3 greedy=5" in out
        assert "phi=(0,1) t=(1,1,0) points=4" in out


class TestMatrixCommand:
    def test_greedy_triplets(self, tmp_path, capsys):
        out_path = tmp_path / "m.txt"
        code = cli.main(
            ["matrix", UNIT2_SPEC, "--greedy", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[1] == "# rows=8"
        assert len(lines) - 3 == 32

    def test_full_stdout(self, capsys):
        assert cli.main(["matrix", UNIT2_SPEC, "--full"]) == 0
        out = capsys.readouterr().out
        assert "# rows=9" in out

    def test_principal_dense(self, capsys):
        code = cli.main(
            ["matrix", UNIT2_SPEC, "--principal", "--format", "dense"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# rows=2" in out
        assert "u[2][0,0]" in out

    def test_out_directory_missing(self, tmp_path):
        code = cli.main(
            ["matrix", UNIT2_SPEC, "--out", str(tmp_path / "no" / "m.txt")]
        )
        assert code == 4


# SHA-256 of `resmat sizes` stdout and the exit code, one per spec.
SIZES_SHA256 = {
    "zonotope_n2_unit": ("e609cdb0bf0cc84de629d7d40017df6c3b149067abd2171f10eb9f3f4c984d2c", 0),
    "multihomo_221": ("e8de8d409fdc33982a24b2aef0379f7126f2aead7b1573cbf71f73303ef908db", 0),
    "bench/box_n3_222": ("65155f32b65fdb87363b893f5ca3085b7bb29f1787317f09c078f513a6e350e2", 0),
    "bench/box_n5_unit": ("e4ff77baa37c9cf1455021a09296d584765c5dd56678adf19fbfe3cc8db0e834", 0),
    "bench/multihomo_21_d2":
        ("c985753ebe96c902fa6277839ead068ae3bc8cd3729bf6c1430ba6a9bc625d60", 0),
    "bench/multihomo_32_d2":
        ("ca5ddfa983cf7652e43a28c7041fb165ca1925e571deb91e2d37f80176bc9590", 0),
}


def spec_path(spec):
    """specs/<spec>.json, or bench/specs/<name>.json for 'bench/<name>'."""
    if spec.startswith("bench/"):
        return BENCH_SPECS / f"{spec.removeprefix('bench/')}.json"
    return SPECS / f"{spec}.json"


class TestSizesBytes:
    @pytest.mark.parametrize("spec", sorted(SIZES_SHA256))
    def test_pinned_sha256(self, spec, capsysbinary):
        code = cli.main(["sizes", str(spec_path(spec))])
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        assert (hashlib.sha256(captured.out).hexdigest(), code) == SIZES_SHA256[spec]

    def test_every_spec_is_pinned(self):
        assert {p.stem for p in SPECS.glob("*.json")} <= set(SIZES_SHA256)


# SHA-256 of `resmat matrix` stdout, one per spec and variant.
MATRIX_VARIANTS = {
    "greedy": [],
    "principal": ["--principal"],
    "full": ["--full"],
    "dense": ["--format", "dense"],
}
MATRIX_SHA256 = {
    ("zonotope_n2_unit", "greedy"): "d52431fc408582686e59be70b96d402cd56f942136d1cb0d18d8b5fb8a8a1638",
    ("zonotope_n2_unit", "principal"): "3be3e3a1739c643363c3ec2c33916ad6bbf96a955a2facd9bde3d61b94ddb332",
    ("zonotope_n2_unit", "full"): "3a5b32a3f456b668ee2aaab6488cf8050c9a6ec0edff5bc82512b2160ac6d7dd",
    ("zonotope_n2_unit", "dense"): "afef8b21a798e746ee0100d22166f4f9d316192421b1ac6e675abcee359fa3f3",
    ("multihomo_221", "greedy"): "bc430475e912fa0c720fb85883391f738b234e0d18bd400ca087a9f88ca98db8",
    ("multihomo_221", "principal"): "11de661a6545d04a8d54389442d78594676e5689fa6a3d20bad9596ddc829dfd",
    ("multihomo_221", "full"): "eab7a07a7edf1586476daafe6c76ff14b750cae4051a787fb8d6f2540a9c9e35",
    ("multihomo_221", "dense"): "3504cdcdc8d7fa83132554433ad560781dd6baef9d151afb2d499eaa12d70373",
    ("box222", "greedy"): "441f1dcb7c4c3f65ac0627cd564936e9e628273649bc5875c4a4a3bf3d98785c",
    ("box222", "principal"): "2b2064e514f21a646acf7b44f52caa4bc8531f5bf5935897cf9d72e20b1da3a1",
    ("box222", "full"): "f50ae0cea75a1eb5d6cd20c99a36693b9b2859b2f9b9b91ae944925457cbe96d",
    ("box222", "dense"): "ff8da53bb940b2602d2bf2800307bc5ccdbcba9d42a5d3651528a9b03fe962f5",
}


class TestMatrixBytes:
    @pytest.mark.parametrize("spec, variant", sorted(MATRIX_SHA256))
    def test_pinned_sha256(self, spec, variant, tmp_path, capsysbinary):
        if spec == "box222":
            path = write_spec(tmp_path, "box222.json", SIZES_REPORTS["box222"][0])
        else:
            path = str(SPECS / f"{spec}.json")
        assert cli.main(["matrix", path, *MATRIX_VARIANTS[variant]]) == 0
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        digest = hashlib.sha256(captured.out).hexdigest()
        assert digest == MATRIX_SHA256[(spec, variant)]

    def test_every_spec_is_pinned(self):
        pinned = {spec for spec, _ in MATRIX_SHA256}
        assert {p.stem for p in SPECS.glob("*.json")} <= pinned


# SHA-256 of `resmat verify` stdout and the exit code.  The small primes pin
# a known false failure: det H_G or det E_G vanishes by chance at p = 3, 7.
VERIFY_SHA256 = {
    ("zonotope_n2_unit",): ("67b74b7622f80b8202569c4f233d766ed4010912d98e0984dd2f390c900de45c", 0),
    ("zonotope_n2_unit", "--prime", "3"): ("ec226532ebdb0372653e90af1763e75be7d345e756173ef77a79e2e051d9ee41", 3),
    ("zonotope_n2_unit", "--prime", "7"): ("4ed744fcc79d4e7f9e4f7cc88e5ae957dd6e5aaed1daedfad234972f2404f02f", 3),
    ("multihomo_221",): ("6d7074b35fd6498c00e3cf0f9fae4640107aae8a3085d79d504a3081532913d9", 0),
    ("multihomo_221", "--prime", "3"): ("4a44cbf3fdc7b715e5570f6cc3ed2e43c5499be44f9d22f35836db3b4a7f9266", 3),
    ("multihomo_221", "--prime", "7"): ("629815b2aa5d4220c46308935055a635f5a3ef0c6a5d7632f38e19b1422e06f8", 3),
    ("bench/box_n3_222", "--trials", "2", "--quotient-limit", "512"):
        ("af879669eb380c4d4cf00bd0cb66f24c11a578aa0e00a7b3ccdb8119f3c1d497", 0),
    ("bench/multihomo_21_d2", "--trials", "10", "--quotient-limit", "512", "--seed", "1"):
        ("9f828a927cd0c55ed6a1821ab3ca06244587c4705f714f0bacbc8026a3a1b78c", 0),
}


class TestVerifyBytes:
    @pytest.mark.parametrize("case", sorted(VERIFY_SHA256), ids=" ".join)
    def test_pinned_sha256(self, case, capsysbinary):
        spec, *flags = case
        code = cli.main(["verify", str(spec_path(spec)), *flags])
        captured = capsysbinary.readouterr()
        assert captured.err == b""
        assert (hashlib.sha256(captured.out).hexdigest(), code) == VERIFY_SHA256[case]


@pytest.fixture
def skewed_trailing_block(monkeypatch):
    """sparse_det off by one on every matrix that specialize_rows did not
    build.  In verify that is H_RR, the trailing non-greedy block of H; the
    returned list collects the size of each such pass."""
    specialized, passes = [], []
    real_rows, real_det = oracles.specialize_rows, oracles.sparse_det

    def rows(m, coeffs, p):
        specialized.append(real_rows(m, coeffs, p))
        return specialized[-1]

    def det(rows, p):
        if any(rows is s for s in specialized):
            return real_det(rows, p)
        passes.append(len(rows))
        return (real_det(rows, p) + 1) % p

    monkeypatch.setattr(oracles, "specialize_rows", rows)
    monkeypatch.setattr(oracles, "sparse_det", det)
    return passes


class TestBlockDeterminantProduct:
    @pytest.mark.parametrize("spec", [UNIT2_SPEC, TRI_SPEC], ids=lambda s: Path(s).stem)
    def test_wrong_trailing_block_fails(self, spec, skewed_trailing_block, capsys):
        assert cli.main(["verify", spec]) == 3
        out = capsys.readouterr().out
        assert "structural check block-determinant-product: FAIL (trial 0: " in out
        summary = json.loads(out.rsplit("SUMMARY ", 1)[1])
        assert summary["structural"]["block-determinant-product"] is False
        assert summary["quotient"]["ok"] is True
        # one H_RR pass per trial, 50 trials by default, on the 1x1 block
        assert skewed_trailing_block == [1] * 50

    def test_runs_on_trials_that_fail_check_a(self, skewed_trailing_block, capsys):
        # at p = 2 and seed 10, det E_G vanishes on all three attempts of
        # every trial; the product check still runs on each third attempt
        argv = ["verify", UNIT2_SPEC, "--prime", "2", "--seed", "10", "--trials", "4"]
        assert cli.main(argv) == 3
        summary = json.loads(capsys.readouterr().out.rsplit("SUMMARY ", 1)[1])
        failures = summary["quotient"]["failures"]
        assert [(f["check"], f["trial"]) for f in failures] == [("a", t) for t in range(4)]
        assert len(skewed_trailing_block) == 4


class TestVerifyCommand:
    def test_unit_passes(self, capsys):
        code = cli.main(["verify", UNIT2_SPEC, "--trials", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "structural check closure-equals-greedy-predicate: PASS" in out
        assert "structural check block-triangular: PASS" in out
        assert "result: PASS" in out
        summary = json.loads(out.rsplit("SUMMARY ", 1)[1])
        assert summary["ok"] is True
        assert (summary["b_size"], summary["greedy_size"]) == (9, 8)
        assert summary["quotient"]["passes"]["d"] == 5

    def test_multihomo_passes(self, capsys):
        code = cli.main(["verify", TRI_SPEC, "--trials", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "|B|=10 |G|=9" in out
        summary = json.loads(out.rsplit("SUMMARY ", 1)[1])
        assert summary["ok"] is True

    @pytest.mark.parametrize("spec, closure_name", [
        (UNIT2_SPEC, "greedy_closure"), (TRI_SPEC, "greedy_closure_multi"),
    ])
    def test_predicate_is_a_separate_route(
        self, spec, closure_name, monkeypatch, capsys
    ):
        # a closure that lost a point must fail the check against the cell walk
        real = getattr(cli, closure_name)

        class Short(dict):
            """The closure's points and mixed counts, one point fewer."""

        def short(sys_):
            closure = real(sys_)
            points = Short(closure)
            points.pop(next(reversed(points)))
            points.mixed_by_poly = closure.mixed_by_poly
            return points

        monkeypatch.setattr(cli, closure_name, short)
        assert cli.main(["verify", spec, "--quotient-limit", "0"]) == 3
        summary = json.loads(capsys.readouterr().out.rsplit("SUMMARY ", 1)[1])
        assert summary["structural"]["closure-equals-greedy-predicate"] is False
        assert summary["structural"]["no-escape"] is True

    @pytest.mark.parametrize(
        "spec",
        [*map(str, sorted(SPECS.glob("*.json"))), str(BENCH_SPECS / "box_n5_unit.json")],
        ids=lambda s: Path(s).stem,
    )
    def test_one_cell_walk(self, spec, monkeypatch, capsys):
        # the three cell checks share one cell table
        walks = []
        real = KeyedWindow.cells

        def counted(window):
            walks.append(window)
            yield from real(window)

        monkeypatch.setattr(KeyedWindow, "cells", counted)
        assert cli.main(["verify", spec]) == 0
        assert len(walks) == 1

    def test_mixed_volumes_once(self, tmp_path, monkeypatch, capsys):
        # the degree audit reuses the volumes of mixed-count-vs-mixed-volume
        bounds = [[1, 1], [2, 1], [2, 3]]
        spec = write_spec(tmp_path, "s.json", {"kind": "zonotope", "bounds": bounds})
        calls = []
        real = cli.mixed_volume

        def counted(b, i):
            calls.append(i)
            return real(b, i)

        monkeypatch.setattr(cli, "mixed_volume", counted)
        assert cli.main(["verify", spec, "--quotient-limit", "0"]) == 0
        assert calls == [0, 1, 2]
        out = capsys.readouterr().out
        assert "degree audit: per-polynomial mixed volumes [8, 5, 3], total 16" in out

    def test_quotient_gating(self, capsys):
        code = cli.main(
            ["verify", UNIT2_SPEC, "--trials", "5", "--quotient-limit", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quotient checks skipped" in out
        summary = json.loads(out.rsplit("SUMMARY ", 1)[1])
        assert summary["quotient"] is None

    def test_unordered_bounds_exit_2(self, tmp_path, capsys):
        path = write_spec(
            tmp_path,
            "bad.json",
            {"kind": "zonotope", "bounds": [[2, 2], [1, 1], [1, 1]]},
        )
        assert cli.main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "nondecreasing" in err

    def test_not_prime_exit_2(self, capsys):
        assert cli.main(["verify", UNIT2_SPEC, "--prime", "10"]) == 2

    def test_prime_beyond_proven_range_exit_2(self, capsys):
        # 2^89 - 1 is prime, but above the range where the fixed witnesses
        # are proven to decide primality
        assert cli.main(["verify", UNIT2_SPEC, "--prime", str(2**89 - 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_trials_below_one_exit_2(self, capsys):
        assert cli.main(["verify", UNIT2_SPEC, "--trials", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --trials must be at least 1, got 0\n"

    def test_negative_trials_and_quotient_limit_exit_2(self, capsys):
        argv = ["verify", UNIT2_SPEC, "--trials", "-3", "--quotient-limit", "-5"]
        assert cli.main(argv) == 2
        assert cli.main(["verify", UNIT2_SPEC, "--quotient-limit", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: --trials must be at least 1, got -3",
            "error: --quotient-limit must be nonnegative, got -5",
        ]

    def test_missing_file_exit_4(self, capsys, tmp_path):
        assert cli.main(["sizes", str(tmp_path / "absent.json")]) == 4

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("]")
        assert cli.main(["sizes", str(path)]) == 2

    @pytest.mark.parametrize("raw", [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["not-utf8", "deep-array"])
    def test_unparsable_spec_exit_2(self, raw, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert cli.main(["sizes", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestGuardrail:
    def test_refusal_and_force(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GUARDRAIL", 5)
        assert cli.main(["sizes", UNIT2_SPEC]) == 2
        assert "guardrail" in capsys.readouterr().err
        assert cli.main(["sizes", UNIT2_SPEC, "--force"]) == 0

    @pytest.mark.parametrize("which, size", [("--greedy", 65536), ("--full", 117649)])
    def test_dense_export_refused_above_guardrail(self, which, size, capsys):
        # all-ones n=6 is under the lattice guardrail, but size^2 tokens are not
        spec = str(BENCH_SPECS / "box_n6_unit.json")
        assert cli.main(["matrix", spec, which, "--format", "dense"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert f"dense export of {size} points" in lines[0] and "--force" in lines[0]

    def test_dense_export_forced(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "GUARDRAIL", 63)
        assert cli.main(["matrix", UNIT2_SPEC, "--format", "dense"]) == 2
        assert "pass --force" in capsys.readouterr().err
        assert cli.main(["matrix", UNIT2_SPEC, "--format", "dense", "--force"]) == 0
        assert "# rows=8" in capsys.readouterr().out


class TestSizesCounts:
    def test_all_ones_n7(self, tmp_path, capsys):
        # |G| and the mixed counts are popcounts: no point of the closure is decoded
        path = write_spec(tmp_path, "ones7.json", {"kind": "zonotope", "bounds": [[1] * 7] * 8})
        tracemalloc.start()
        try:
            code = cli.main(["sizes", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "|G|=1062882 predicted=1062882" in out
        assert "mixed points per polynomial: " + " ".join(f"i={k}:5040" for k in range(8)) in out
        assert peak < 100 * 2**20
