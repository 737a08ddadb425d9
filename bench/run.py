"""End-to-end benchmark of the resmat CLI of this checkout.

Run from the root of the checkout:

    python3 bench/run.py --workload sizes-box-n6 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                      # every workload in turn

With --trace 0 each CLI invocation is its own process, started through
launcher.py with the checkout's src on PYTHONPATH, and the run reports
wall_s, setup_s and peak_rss_mb.  With --trace 1 the same invocations run in-process, once
untraced and once with spans around resmat's public functions, and the run
reports the per-layer metrics.  Every output is checked against the
benchmark's own oracles (oracles.py).  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracles
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPECS = BENCH / "specs"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 4
VERIFY_DENSE_TRIALS = 1
VERIFY_MULTI_TRIALS = 10
QUOTIENT_LIMIT = "512"


@dataclass(frozen=True)
class Invocation:
    """One `resmat` command line and how to check what it writes.

    check is "sizes", "verify", "triplets" or "dense"; which names the
    matrix for exports (greedy, principal, full); out is the --out file.
    """

    label: str
    spec: str
    args: tuple[str, ...]
    check: str
    which: str = ""
    trials: int = 0
    out: str = ""

    def argv(self, workdir: Path) -> list[str]:
        argv = [self.args[0], str(SPECS / f"{self.spec}.json"), *self.args[1:]]
        if self.out:
            argv += ["--out", str(workdir / self.out)]
        return argv


def _export(label, spec, which, fmt="triplets"):
    flags = {"greedy": (), "principal": ("--principal",), "full": ("--full",)}[which]
    return Invocation(
        label, spec, ("matrix", *flags, "--format", fmt), fmt, which=which,
        out=f"{label}.txt",
    )


def _verify(label, spec, trials, seed):
    args = (
        "verify", "--trials", str(trials), "--seed", str(seed),
        "--quotient-limit", QUOTIENT_LIMIT,
    )
    return Invocation(label, spec, args, "verify", trials=trials)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
def workload(name: str, seed: int) -> list[Invocation]:
    if name == "sizes-box-n6":
        return [Invocation("sizes-n6", "box_n6_unit", ("sizes",), "sizes")]
    if name == "verify-box-dense":
        return [_verify("verify-222", "box_n3_222", VERIFY_DENSE_TRIALS, seed)]
    if name == "matrix-box-n5":
        return [
            _export("greedy-n5", "box_n5_unit", "greedy"),
            _export("principal-n5", "box_n5_unit", "principal"),
            _export("full-n5", "box_n5_unit", "full"),
            _export("dense-222", "box_n3_222", "greedy", "dense"),
        ]
    if name == "multihomo-mixed":
        return [
            Invocation("sizes-32", "multihomo_32_d2", ("sizes",), "sizes"),
            _verify("verify-21", "multihomo_21_d2", VERIFY_MULTI_TRIALS, seed),
        ]
    raise ValueError(name)


WORKLOADS = ("sizes-box-n6", "verify-box-dense", "matrix-box-n5", "multihomo-mixed")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Checker:
    """Runs the oracle checks on invocation outputs.

    Results are kept per (invocation, SHA-256 of its output), so a round
    whose output is byte-identical to one already checked reuses the
    verdicts; every round still reports the same number of checks.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.systems: dict[str, oracles.System] = {}
        self.cache: dict[tuple[str, str], list] = {}

    def system(self, spec: str) -> oracles.System:
        if spec not in self.systems:
            self.systems[spec] = oracles.System.read(SPECS / f"{spec}.json")
        return self.systems[spec]

    def __call__(self, inv: Invocation, data: bytes) -> list[oracles.Check]:
        key = (inv.label, hashlib.sha256(data).hexdigest())
        if key not in self.cache:
            self.cache[key] = self._run(inv, data)
        return self.cache[key]

    def _run(self, inv: Invocation, data: bytes) -> list[oracles.Check]:
        system = self.system(inv.spec)
        label = inv.label
        try:
            if inv.check == "sizes":
                return oracles.check_sizes(system, data, label)
            if inv.check == "verify":
                return oracles.check_verify(system, data, inv.trials, label)
            if inv.check == "triplets":
                return oracles.check_triplets(system, data, inv.which, label)
            return oracles.check_dense(
                system, data, inv.which, label
            ) + oracles.check_planted_root(system, data, self.seed, label)
        except (ValueError, KeyError, AttributeError, UnicodeDecodeError) as exc:
            return [(f"{label}.parse", False, repr(exc))]


class Tally:
    """Attempted and failed operations: CLI invocations and output checks."""

    def __init__(self):
        self.invocations = [0, 0]  # attempted, failed
        self.checks_run = [0, 0]
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return self.invocations[0] + self.checks_run[0]

    @property
    def failed(self) -> int:
        return self.invocations[1] + self.checks_run[1]

    def invocation(self, label: str, code: int) -> None:
        self.invocations[0] += 1
        if code != 0:
            self.invocations[1] += 1
            self.messages.append(f"{label}: exit code {code}")

    def checks(self, checks: list[oracles.Check]) -> None:
        for name, ok, detail in checks:
            self.checks_run[0] += 1
            if not ok:
                self.checks_run[1] += 1
                self.messages.append(f"check {name} failed: {detail}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


CLI = "import sys\nfrom resmat.cli import main\nsys.exit(main())"
SETUP = (
    "import sys\nimport resmat\nfrom resmat.cli import load_system\n"
    "for spec in sys.argv[1:]:\n    load_system(spec)\nprint(resmat.__file__)"
)


class Launcher:
    """Starts child interpreters through launcher.py and waits for each.

    Returns (wall s, exit code, peak RSS MB) per child.  The helper runs one
    job at a time; leaving the context closes its input, and it exits once
    the running child has ended.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], stdout_path: Path) -> tuple[float, int, float]:
        job = [
            [sys.executable, *argv], str(stdout_path),
            str(stdout_path.with_suffix(".err")), child_env(), str(ROOT),
        ]
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("the launcher process ended unexpectedly")
        wall, code, rss_kib = json.loads(line)
        return wall, code, rss_kib / 1024.0


def setup_samples(launcher: Launcher, specs: list[str], workdir: Path, count: int):
    """Wall times of fresh interpreters importing resmat and loading the
    workload's spec files with cli.load_system."""
    argv = ["-c", SETUP, *(str(SPECS / f"{s}.json") for s in specs)]
    times = []
    for _ in range(count):
        wall, code, _ = launcher.run(argv, workdir / "setup.out")
        if code != 0:
            raise SystemExit(f"setup failed: {(workdir / 'setup.err').read_text()}")
        loaded = Path((workdir / "setup.out").read_text().strip()).resolve()
        if SRC.resolve() not in loaded.parents:
            raise SystemExit(f"resmat was imported from {loaded}, not from {SRC}")
        times.append(wall)
    return times


def output_of(inv: Invocation, workdir: Path) -> bytes:
    path = workdir / (inv.out or f"{inv.label}.out")
    return path.read_bytes() if path.exists() else b""


def run_untraced(name: str, seed: int, seconds: float, workdir: Path):
    invs = workload(name, seed)
    specs = sorted({inv.spec for inv in invs})
    checker = Checker(seed)
    tally = Tally()
    walls, peaks, setups, hashes = [], [], [], {}
    measured = 0.0
    with Launcher() as launcher:
        # The first start writes bytecode and is not timed.  Set-up is then
        # sampled before the first round and after every round, so that its
        # median spans the whole run, as the rounds do.
        setup_samples(launcher, specs, workdir, 1)
        setups += setup_samples(launcher, specs, workdir, SETUP_SAMPLES)
        # Start another round only while it is expected to end in time.
        while not walls or measured * (len(walls) + 1) / len(walls) <= seconds:
            round_wall, round_peak = 0.0, 0.0
            for inv in invs:
                if inv.out:
                    (workdir / inv.out).unlink(missing_ok=True)
                wall, code, rss = launcher.run(
                    ["-c", CLI, *inv.argv(workdir)], workdir / f"{inv.label}.out"
                )
                round_wall += wall
                round_peak = max(round_peak, rss)
                tally.invocation(inv.label, code)
            measured += round_wall
            walls.append(round_wall)
            peaks.append(round_peak)
            setups += setup_samples(launcher, specs, workdir, SETUP_SAMPLES)
            for inv in invs:
                data = output_of(inv, workdir)
                hashes[inv.label] = hashlib.sha256(data).hexdigest()
                tally.checks(checker(inv, data))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(peaks),
    }
    record = {"rounds": len(walls), "round_wall_s": walls, "outputs": hashes}
    return metrics, tally, record


def run_inprocess(invs: list[Invocation], workdir: Path) -> tuple[float, list[int]]:
    """Call resmat.cli.main once per invocation; stdout goes to a file."""
    from resmat import cli

    total, codes = 0.0, []
    for inv in invs:
        if inv.out:
            (workdir / inv.out).unlink(missing_ok=True)
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(inv.argv(workdir))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        total += perf_counter() - start
        (workdir / f"{inv.label}.out").write_text(buf.getvalue(), encoding="utf-8")
        codes.append(code)
    return total, codes


def standalone_layers(specs: list[str], checker: Checker) -> dict[str, float]:
    """Time the per-point functions by direct calls on the workload's specs.

    Box specs: enumerate B, type_function_of over B, row_content_of over G.
    Multihomogeneous specs: enumerate B with lattice_points_multi, then the
    same two subdivision calls on the embedded window coordinates.
    """
    from resmat.cli import load_system
    from resmat.multihomo import embed, lattice_points_multi
    from resmat.subdivision import lattice_points, row_content_of, type_function_of

    out = dict.fromkeys(
        ("subdivision.lattice_points_s", "subdivision.classify_s",
         "subdivision.row_content_s", "multihomo.lattice_points_s"),
        0.0,
    )
    for spec in specs:
        sys_, _ = load_system(str(SPECS / f"{spec}.json"))
        ref = checker.system(spec)
        greedy = ref.rows("greedy")
        start = perf_counter()
        if ref.multi:
            deque(lattice_points_multi(sys_), maxlen=0)
            out["multihomo.lattice_points_s"] += perf_counter() - start
            zsys, emb = embed(sys_)
            points = [emb.to_window(b) for b in ref.window()]
            greedy = [emb.to_window(b) for b in greedy]
        else:
            deque(lattice_points(sys_), maxlen=0)
            out["subdivision.lattice_points_s"] += perf_counter() - start
            zsys = sys_
            points = ref.window()
        start = perf_counter()
        for b in points:
            type_function_of(b, zsys)
        out["subdivision.classify_s"] += perf_counter() - start
        start = perf_counter()
        for b in greedy:
            row_content_of(b, zsys)
        out["subdivision.row_content_s"] += perf_counter() - start
    return out


PER_LAYER_UNITS = {"matrix.export_bytes": "bytes"}


def run_traced(name: str, seed: int, workdir: Path):
    invs = workload(name, seed)
    checker = Checker(seed)
    tally = Tally()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import resmat

    if SRC.resolve() not in Path(resmat.__file__).resolve().parents:
        raise SystemExit(f"resmat was imported from {resmat.__file__}, not from {SRC}")
    untraced, _ = run_inprocess(invs, workdir)
    with spans.patched(spans.Tracer()) as tracer:
        traced, codes = run_inprocess(invs, workdir)
    hashes = {}
    for inv, code in zip(invs, codes):
        tally.invocation(inv.label, code)
        data = output_of(inv, workdir)
        hashes[inv.label] = hashlib.sha256(data).hexdigest()
        tally.checks(checker(inv, data))
    (workdir / "spans.json").write_text(json.dumps(tracer.dump()))

    self_times = tracer.self_times()
    metrics = {f"{label}_s": self_times.get(label, 0.0) for label in spans.SPAN_LABELS}
    metrics.update({c: tracer.counts.get(c, 0) for c in spans.COUNTERS})
    metrics.update(standalone_layers(sorted({inv.spec for inv in invs}), checker))
    metrics["trace.overhead_s"] = traced - untraced
    record = {
        "traced_wall_s": traced, "untraced_wall_s": untraced,
        "spans": len(tracer.spans), "outputs": hashes,
    }
    return metrics, tally, record


def _unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "resmat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_sha = proc.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def run_one(name: str, seed: int, seconds: float, traced: bool):
    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    if traced:
        metrics, tally, record = run_traced(name, seed, workdir)
    else:
        metrics, tally, record = run_untraced(name, seed, seconds, workdir)
    record = {"workload": name, "seed": seed, "trace": int(traced), **provenance(), **record}
    result = {
        "correct": tally.checks_run[1] == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    counts = (
        f"invocations={tally.invocations[0]} failed={tally.invocations[1]} "
        f"checks={tally.checks_run[0]} failed={tally.checks_run[1]}"
    )
    return result, record, tally.messages, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resmat" / "cli.py").is_file():
        print(f"error: no resmat sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record, messages, counts = run_one(
            name, args.seed, args.seconds, bool(args.trace)
        )
        results[name] = result
        for message in messages:
            print(f"{name}: {message}")
        print("RECORD " + json.dumps(record, sort_keys=True))
        print(f"{name}: {counts} correct={str(result['correct']).lower()}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
