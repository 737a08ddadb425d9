"""Tests of the benchmark's oracles and output checkers.

Run from the root of the checkout:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from resmat import cli  # noqa: E402

SPECS = {
    "unit": ROOT / "specs" / "zonotope_n2_unit.json",
    "multihomo": ROOT / "specs" / "multihomo_221.json",
}


def run_cli(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    assert code == 0
    return buf.getvalue().encode("utf-8")


def export(tmp_path, spec, *flags) -> bytes:
    out = tmp_path / "m.txt"
    run_cli("matrix", spec, *flags, "--out", out)
    return out.read_bytes()


def failed(checks):
    return [name for name, ok, _ in checks if not ok]


@pytest.fixture(params=sorted(SPECS))
def spec(request):
    return SPECS[request.param]


def test_reference_counts():
    unit = oracles.System.read(SPECS["unit"])
    # only (0, 0) breaks t_0 <= 1
    assert (unit.window_size(), unit.greedy_count()) == (9, 8)
    assert unit.mixed_volumes() == [2, 2, 2]
    multi = oracles.System.read(SPECS["multihomo"])
    assert multi.window_size() == len(multi.window()) == 10  # C(5, 2)
    # (2mu)(mu), (2mu)(mu), (2mu)(2mu): coefficients of mu^2
    assert multi.mixed_volumes() == [2, 2, 4]


def test_bezout_with_singleton_groups_is_the_permanent():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        rows = [[rng.randint(1, 4) for _ in range(n)] for _ in range(n)]
        assert oracles.bezout_number([1] * n, rows) == oracles.permanent(rows)


def test_det_mod_p_matches_leibniz():
    p = 101
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        total = 0
        for perm in permutations(range(n)):
            inversions = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            term = (-1) ** inversions
            for r, c in enumerate(perm):
                term *= m[r][c]
            total += term
        assert oracles.det_mod_p(m, p) == total % p


def test_sizes_output_matches_the_oracles(spec):
    system = oracles.System.read(spec)
    assert not failed(oracles.check_sizes(system, run_cli("sizes", spec), "sizes"))


@pytest.mark.parametrize("which", ["greedy", "principal", "full"])
def test_exports_match_the_oracles(tmp_path, spec, which):
    system = oracles.System.read(spec)
    flags = {"greedy": (), "principal": ("--principal",), "full": ("--full",)}[which]
    triplets = export(tmp_path, spec, *flags)
    assert not failed(oracles.check_triplets(system, triplets, which, which))
    dense = export(tmp_path, spec, *flags, "--format", "dense")
    assert not failed(oracles.check_dense(system, dense, which, which))


def test_planted_root_kills_det_h_g(tmp_path, spec):
    system = oracles.System.read(spec)
    dense = export(tmp_path, spec, "--format", "dense")
    for seed in range(3):
        assert not failed(oracles.check_planted_root(system, dense, seed, "g"))


def test_tampered_triplets_are_rejected(tmp_path):
    system = oracles.System.read(SPECS["unit"])
    lines = export(tmp_path, SPECS["unit"]).decode().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    k = body[len(body) // 2]
    row, col, poly, support = lines[k].split(" ; ")
    for bad in (
        f"{row} ; {col} ; {poly} ; {','.join(str(int(x) + 1) for x in support.split(','))}",
        f"{row} ; {col} ; {(int(poly) + 1) % 3} ; {support}",  # wrong polynomial
        None,  # dropped entry
    ):
        tampered = lines[:k] + ([bad] if bad else []) + lines[k + 1:]
        data = ("\n".join(tampered) + "\n").encode()
        assert failed(oracles.check_triplets(system, data, "greedy", "g"))


def test_verify_summary_checker(spec):
    system = oracles.System.read(spec)
    out = run_cli("verify", spec, "--trials", 3, "--seed", 5)
    assert not failed(oracles.check_verify(system, out, 3, "v"))
    assert failed(oracles.check_verify(system, out, 4, "v"))
    text = out.decode()
    head, _, summary = text.rpartition("SUMMARY ")
    data = json.loads(summary)
    data["quotient"]["passes"]["a"] -= 1
    short = (head + "SUMMARY " + json.dumps(data) + "\n").encode()
    assert failed(oracles.check_verify(system, short, 3, "v")) == ["v.quotient-passes"]


def test_runner_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sizes-box-n6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
