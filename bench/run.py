"""Benchmark of the stablesum CLI: time to verdict, set-up time and memory.

Run from the repository root:

    python3 bench/run.py --workload oracle-deep --seed 20240601 --seconds 15 --trace 0

A workload is one CLI run (`stablesum oracle|verify`) on a fixed config.  It
is driven in-process through `stablesum.cli.main` from `src/`, with
`--threads 1`, the benchmark seed as `--seed-override` and every `--out-dir`
in a temporary directory under bench/out/ that is removed at the end.  Each
run's outputs are checked against bench/reference.json (see check_output).

--trace 0 prints the end-to-end metrics:
  wall_s       median wall time of one run, config to verdict, after a
               warm-up run, over the runs that fit in --seconds, rounded up
               to whole rounds over the CPUs the runs take turns on
  setup_s      median over SETUP_REPEATS fresh interpreters of the time to
               import stablesum.cli (numpy and scipy included) and parse the
               config
  peak_rss_mb  peak resident memory (MiB) of this process once its first
               run ends: import, harness and one run
--trace 1 alternates untraced and traced runs the same way and prints the
per-layer metrics of the traced runs (bench/tracer.py), their wall time and
its overhead over the untraced runs, and the two-thread speed-up of
normalized_fdd_sample on the verify-stable inputs.

Human-readable lines come first; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json lists for the mode.  The spans of the last traced run and the
run record go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE_SEED = 20240601
SETUP_REPEATS = 5
# On a shared VM each vCPU runs fast or slow for minutes at a time (CMS
# sampling took 0.17 s on one vCPU and 0.25 s on the other at the same
# moment), so timed runs take turns on up to PINNED_CPUS CPUs, in whole
# rounds, and wall_s is their median.
PINNED_CPUS = 2
# floor of the oracle comparison where the certified tail bound is smaller
ORACLE_FLOOR = 1e-12
# absolute accuracy target of the Gil-Pelaez CDF behind ks_marginal
MC_TOL = 1e-6

# name -> (subcommand, config).  Why each exists is in BENCHMARK.json.
WORKLOADS = {
    "oracle-deep": ("oracle", ROOT / "scripts/configs/oracle_sym15.ini"),
    "oracle-supgrid": ("oracle", BENCH / "configs/oracle_supgrid.ini"),
    "verify-stable": ("verify", ROOT / "scripts/configs/verify_sym15.ini"),
    "verify-pareto-logh": ("verify", BENCH / "configs/verify_pareto_logh.ini"),
}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from stablesum.cli import parse_config; parse_config(sys.argv[2])"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summary(values, unit):
    """Median with its sample count, plus the highest whole percentile that
    has at least ten samples beyond it."""
    text = f"{statistics.median(values):.6g} {unit} (median of {len(values)}"
    if len(values) >= 20:
        pct = int(100 * (1 - 10 / len(values)))
        text += f"; p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.6g} {unit}"
    return text + ")"


def measure_setup(config: Path) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                       check=True, stdin=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def import_cli():
    sys.path.insert(0, str(SRC))
    from stablesum import cli
    if Path(cli.__file__).resolve().parent != SRC / "stablesum":
        raise RuntimeError(f"imported stablesum from {cli.__file__}, not from {SRC}")
    return cli


def run_record(args) -> dict:
    import numpy
    import scipy
    commit = None
    with contextlib.suppress(OSError, ValueError, subprocess.SubprocessError):
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            check=True, capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit}


def _close(got, want, tol):
    return got is None if want is None else got is not None and abs(got - want) <= tol


def check_output(workload, out_dir: Path, rc: int, seed: int, reference: dict):
    """None when the run is right, else the reason it is not.

    Oracle distances and past parts match the reference within the row's
    certified tail bound (floored at ORACLE_FLOOR) at any seed.  Verify runs
    exit 0, so every verdict passes; at the reference seed the Monte-Carlo
    columns also match within MC_TOL and the verdicts are identical.
    """
    if rc != 0:
        return f"exit code {rc}"
    command = WORKLOADS[workload][0]
    want = reference["workloads"][workload]
    if command == "oracle":
        rows = json.loads((out_dir / "oracle.json").read_text())["rows"]
        oracle_cols, mc_cols = ("distance", "past_part"), ()
    else:
        report = json.loads((out_dir / "report.json").read_text())
        rows = report["rows"]
        oracle_cols = ("oracle_distance", "past_part")
        mc_cols = ("ecf_distance", "ks_marginal") if seed == reference["seed"] else ()
        if not all(report["verdicts"].values()):
            return f"verdicts {report['verdicts']}"
        if mc_cols and report["verdicts"] != want["verdicts"]:
            return f"verdicts {report['verdicts']} differ from {want['verdicts']}"
    if [r["n"] for r in rows] != [r["n"] for r in want["rows"]]:
        return "N grid differs from the reference"
    for got, ref in zip(rows, want["rows"]):
        tol = max(ref.get("tail_bound") or 0.0, ORACLE_FLOOR)
        for col, t in [(c, tol) for c in oracle_cols] + [(c, MC_TOL) for c in mc_cols]:
            if not _close(got[col], ref[col], t):
                return f"N={got['n']} {col}={got[col]!r}, reference {ref[col]!r} +- {t:.3g}"
    return None


def cli_argv(workload, out_dir: Path, seed: int) -> list:
    command, config = WORKLOADS[workload]
    return [command, "--config", str(config), "--out-dir", str(out_dir),
            "--threads", "1", "--seed-override", str(seed)]


class Runner:
    """Runs one workload through cli.main and checks each run's outputs."""

    def __init__(self, cli, workload, seed, reference, tmp: Path):
        self.cli, self.workload, self.seed = cli, workload, seed
        self.reference, self.tmp = reference, tmp
        self.attempted = self.failed = 0

    def run(self, main=None) -> float:
        """One timed run (main defaults to cli.main); returns its wall time."""
        main = main or self.cli.main
        out_dir = self.tmp / f"run{self.attempted}"
        argv, log = cli_argv(self.workload, out_dir, self.seed), io.StringIO()
        with contextlib.redirect_stdout(log):
            t0 = time.perf_counter()
            rc = main(argv)
            wall = time.perf_counter() - t0
        self.attempted += 1
        try:
            problem = check_output(self.workload, out_dir, rc, self.seed, self.reference)
        except (OSError, KeyError, ValueError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            print(f"run {self.attempted} failed: {problem}", file=sys.stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall


def thread_speedup(cli, seed):
    """normalized_fdd_sample at threads=2 against threads=1 on the verify-stable
    inputs at the largest N; the two results must be identical."""
    from stablesum import linear_process as lp
    cfg = cli.parse_config(WORKLOADS["verify-stable"][1])
    process = lp.ProcessSpec(cfg.ell, cfg.innovation, cfg.truncation)
    times, results = {1: [], 2: []}, {}
    for order in ((1, 2), (2, 1)):
        for threads in order:
            t0 = time.perf_counter()
            results[threads] = lp.normalized_fdd_sample(
                process, cfg.n_list[-1], cfg.fdd, cfg.reps, seed, threads=threads)
            times[threads].append(time.perf_counter() - t0)
    same = bool((results[1] == results[2]).all())
    return statistics.median(times[1]) / statistics.median(times[2]), same


def turns(seconds):
    """Yields the index of each timed run, with the calling thread pinned to
    the CPU whose turn it is, until `seconds` have passed and every CPU has
    had as many runs as the others."""
    allowed = sorted(os.sched_getaffinity(0))
    cpus, k, t0 = allowed[:PINNED_CPUS], 0, time.perf_counter()
    try:
        while k % len(cpus) or k == 0 or time.perf_counter() - t0 < seconds:
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            yield k
            k += 1
    finally:
        os.sched_setaffinity(0, allowed)


def measure_untraced(args, runner) -> tuple:
    """End-to-end values but setup_s, and human-readable lines."""
    runner.run()  # warm-up, and the one run behind peak_rss_mb
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [runner.run() for _ in turns(args.seconds)]
    values = {"wall_s": statistics.median(walls), "peak_rss_mb": peak_mb}
    return values, [f"wall_s {summary(walls, 's')}",
                    f"peak_rss_mb {peak_mb:.6g} MiB"]


def measure_traced(args, cli, runner) -> tuple:
    """Per-layer values and human-readable lines."""
    from tracer import MODULES, Tracer

    runner.run()  # warm-up
    plain, traced, layers = [], [], []
    for _ in turns(args.seconds):
        plain.append(runner.run())
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(runner.run(tracer.wrap("cli", cli.main)))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
    if tracer.missing:
        print(f"not traced (missing): {', '.join(tracer.missing)}", file=sys.stderr)
    values = {key: statistics.fmean(layer[key] for layer in layers) for key in layers[0]}
    speedup, same = thread_speedup(cli, args.seed)
    runner.attempted += 1
    if not same:
        runner.failed += 1
        print("normalized_fdd_sample differs between threads=1 and threads=2",
              file=sys.stderr)
    values.update({
        "linear_process.fdd_sample.t2_speedup": speedup,
        "trace.wall_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    accounted = sum(values[f"{m}.self_s"] for m in MODULES)
    lines = [f"traced wall_s {summary(traced, 's')}; untraced {summary(plain, 's')}",
             f"module self times account for {accounted:.6g} s of "
             f"{statistics.fmean(traced):.6g} s mean traced wall time"]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"spans": tracer.spans}) + "\n")
    lines.append(f"spans of the last traced run: {spans}")
    return values, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        for workload in WORKLOADS:
            rc = subprocess.run([sys.executable, __file__, "--workload", workload,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
            if rc:
                return rc
        return 0
    config = WORKLOADS[args.workload][1]
    for need in (SRC / "stablesum" / "cli.py", config, ROOT / "BENCHMARK.json"):
        if not need.is_file():
            print(f"error: {need} not found; run from a stablesum checkout",
                  file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    reference = json.loads((BENCH / "reference.json").read_text())

    setup = None if args.trace else measure_setup(config)
    cli = import_cli()
    record = run_record(args)
    print("record " + json.dumps(record, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        runner = Runner(cli, args.workload, args.seed, reference, tmp)
        if args.trace:
            values, lines = measure_traced(args, cli, runner)
        else:
            values, lines = measure_untraced(args, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if setup is not None:
        values["setup_s"] = statistics.median(setup)
        lines.append(f"setup_s {summary(setup, 's')}")
    lines.append(f"failed_frac {runner.failed / runner.attempted:.6g} "
                 f"({runner.failed} of {runner.attempted} runs)")
    record.update(attempted=runner.attempted, failed=runner.failed, values=values)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    for line in lines:
        print(f"{args.workload}: {line}")
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
