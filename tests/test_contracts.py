"""The CLI's exit-code contracts: one table, one runner.

Every run ends in exit 0, exit 2 with a `config error:` line or exit 1 with
an `error:` line.  A Row of TABLE is one run: command, base config, line
edits (old: new, each must change the text), argv, exit code, a pattern for
stderr's first line (re.match; "" means empty stderr; by default the code's
prefix), an optional RLIMIT_AS and an optional check of stdout and the
out-dir.  TABLE files each row under the test that runs it: test_contract,
or the test of tests/test_cli.py whose id it keeps.  A new contract is one row.

run() drives cli.main in-process with warnings as errors; a row with an
address limit runs `python -W error -m stablesum` in a subprocess under it.
It asserts the code, the pattern, no traceback, no failed allocation and no
`np.float64(` on stdout.  An error line comes alone (after the usage line of
a usage error) and leaves no out-dir; a config error prints no stdout.
"""

import io
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from stablesum import cli

ROOT = Path(__file__).resolve().parents[1]

BASE = """
[process]
ell_kind = constant
ell_c = 1.0
innovation = stable
alpha = 1.5
beta = 0.0
scale = 1.0
truncation = 200

[simulate]
n = 20

[fdd]
times = 0.5, 1.0
freqs = 1.0, -0.5

[sweep]
n_list = 20, 50
reps = 60
seed = 4242
"""

PARETO = BASE.replace("innovation = stable",
                      "innovation = pareto\nsigma1 = 1.0\nsigma2 = 1.0")
TOL = "\n[tolerance]\nmax_ks = 1.0\n"
# ulimit -v 1500000: 1.5 GB of address space
LIMIT = 1_500_000 * 1024


@dataclass(frozen=True)
class Row:
    id: str
    command: str
    base: str | None = None
    edits: dict = field(default_factory=dict)
    argv: str = ""
    code: int = 2
    err: str | None = None
    rlimit_as: int | None = None
    check: Callable | None = None


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _in_process(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error: argparse exits
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def _under_address_limit(argv, limit):
    cap = (limit, limit)
    done = subprocess.run([sys.executable, "-W", "error", "-m", "stablesum", *argv],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
                          capture_output=True, text=True, timeout=120)
    assert "Unable to allocate" not in done.stderr
    return done.returncode, done.stdout, done.stderr


def edited(text, edits):
    for old, new in edits.items():
        assert old in text and old != new, f"the edit of {old!r} changes nothing"
        text = text.replace(old, new)
    return text


def run(row: Row, tmp_path: Path) -> None:
    out = tmp_path / "out"
    argv = [row.command, *row.argv.split()]
    if row.base is not None:
        config = write(tmp_path, edited(row.base, row.edits))
        argv[1:1] = ["--config", config, "--out-dir", str(out)]
    if row.rlimit_as is None:
        code, stdout, stderr = _in_process(argv)
    else:
        code, stdout, stderr = _under_address_limit(argv, row.rlimit_as)
    assert code == row.code, stderr
    assert "Traceback" not in stderr and "np.float64(" not in stdout
    err = {0: "", 1: "error:", 2: "config error:"}[code] if row.err is None else row.err
    lines = stderr.splitlines()
    if err:
        assert re.match(err, lines[0] if lines else ""), stderr
        assert len(lines) == 1 + lines[0].startswith("usage:"), stderr
        assert not out.exists()
    else:
        assert stderr == ""
    if code == 2:
        assert stdout == ""
    assert row.check is None or row.check(stdout, out), stdout


def contract(test):
    """The test that runs the rows filed under test ("Class.name" or "name"):
    parametrized over their ids, or running the one row of an empty id."""
    rows = TABLE[test]

    def one(tmp_path):
        run(rows[0], tmp_path)

    @pytest.mark.parametrize("row", [pytest.param(row, id=row.id) for row in rows])
    def each(row, tmp_path):
        run(row, tmp_path)

    chosen = each if rows[0].id else one
    return staticmethod(chosen) if "." in test else chosen


# the checks: predicates of stdout and the out-dir
def printed(*patterns):
    return lambda stdout, out: all(re.search(pattern, stdout, re.M) for pattern in patterns)


def finite_report_rows(stdout, out):
    rows = json.loads((out / "report.json").read_text())["rows"]
    return all(np.isfinite([r["ecf_distance"], r["ks_marginal"]]).all() for r in rows)


def certified_at_fixed_depth(stdout, out):
    rows = json.loads((out / "oracle.json").read_text())["rows"]
    return ([row["n"] for row in rows] == [100, 10_000, 1_000_000]
            and all(row["j_depth"] == 10_000 and row["tail_bound"] <= 1e-8 for row in rows))


def bad_input(id, command, edits=None, argv="", err=None):
    """A bad value, refused before any work with 1 and with 2 threads."""
    return [Row(f"{id}-{threads}", command, BASE, edits or {}, f"--threads {threads} {argv}",
                err=err) for threads in (1, 2)]


PATH_1E8 = {"truncation = 200": "truncation = 100000000", "\nn = 20\n": "\nn = 30\n"}
BUDGET = r"error: .*memory budget"
PARETO_H_OVERFLOW = {"innovation = stable": "innovation = pareto\nsigma1 = 1.0\nsigma2 = 2.0"
                                            "\nh_kind = log_power\nh_c = 1e307\nh_p = 0.5"}
SEED = "seed = 4242"
H_OVERFLOW_AUTO = {"alpha = 1.5": "alpha = 2.0", "truncation = 200":
                   "truncation = auto\nh_kind = log_power\nh_c = 1e307\nh_p = 2"}
# H_alpha(N) is finite, but h overflows on the exact tails the draws read
DRAWS_OVERFLOW = {"sigma2 = 1.0": "sigma2 = 2.0\nh_kind = log_power\nh_c = 5e306\nh_p = 0.5"}
# m = 9: the strided sup grid is 64 of the 8^9 points of the full product
M9 = {"times = 0.5, 1.0": "times = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0",
      "freqs = 1.0, -0.5": "freqs = 1.0, -0.5, 0.25, 1.0, -0.5, 0.25, 1.0, -0.5, 0.25",
      SEED: f"{SEED}\nsup_grid = true"}


def one_n(tolerance):
    """BASE's edits to a one-N grid verdicted against the [tolerance] lines."""
    return {"n_list = 20, 50": "n_list = 50", SEED: f"{SEED}\n\n[tolerance]\n{tolerance}"}


TABLE = {
    "test_contract": [
        # the law verify refuses on its H (pareto-h-overflow), simulate on its exact tails
        Row("simulate-h-overflow", "simulate", BASE, PARETO_H_OVERFLOW,
            err="config error: h overflows a double"),
        # the same refusal whatever the truncation: the law is checked first
        Row("simulate-h-overflow-auto", "simulate", PARETO, H_OVERFLOW_AUTO,
            err="config error: h overflows a double", rlimit_as=LIMIT),
        # verify refuses the law on its draws before any work, as simulate
        # does: it once passed its H check and exited 1 on the first draw
        Row("verify-draws-overflow", "verify", PARETO, DRAWS_OVERFLOW,
            err="config error: h overflows a double"),
        Row("verify-draws-overflow-auto", "verify", PARETO,
            {**DRAWS_OVERFLOW, "truncation = 200": "truncation = auto"},
            err="config error: h overflows a double"),
        # the grid once listed all 8^9 points first: a bare MemoryError line
        Row("oracle-sup_grid-m9", "oracle", BASE, M9, code=0, rlimit_as=LIMIT,
            check=printed("^N=50 distance=")),
        # [tolerance] is the last section of the shipped config
        Row("verify_pareto-require_decreasing", "verify",
            (ROOT / "scripts/configs/verify_pareto.ini").read_text(),
            {"max_ks = 0.2": "max_ks = 0.2\nrequire_decreasing = true"}),
        # a criterion that reads one N at a time stays valid on a one-N grid
        Row("one-N-max_ks-max_ecf", "verify", BASE, one_n("max_ks = 1.0\nmax_ecf = 1.0"),
            code=0, check=printed(r"^verdict=PASS \(2/2 criteria\)$")),
        Row("readme-halpha-log-power", "halpha",
            argv="--alpha 1.5 --kind log_power --c 1 --p -2 --n 100000", code=0,
            check=printed("^residual=")),
    ],
    "test_bad_input_exit_2": [
        *bad_input("n_list-decreasing", "oracle", {"n_list = 20, 50": "n_list = 50, 20"}),
        *bad_input("n_list-repeated", "oracle", {"n_list = 20, 50": "n_list = 20, 20"}),
        *bad_input("n_list-zero", "oracle", {"n_list = 20, 50": "n_list = 0, 20"}),
        *bad_input("n_list-negative", "oracle", {"n_list = 20, 50": "n_list = -5, 20"}),
        *bad_input("reps-1", "verify", {"reps = 60": "reps = 1"}),
        *bad_input("j_tol-0", "oracle", {SEED: f"{SEED}\nj_tolerance = 0"}),
        *bad_input("j_tol-negative", "oracle", {SEED: f"{SEED}\nj_tolerance = -1e-8"}),
        *bad_input("j_tol-nan", "oracle", {SEED: f"{SEED}\nj_tolerance = nan"}),
        *bad_input("j_tol-inf", "oracle", {SEED: f"{SEED}\nj_tolerance = inf"}),
        *bad_input("freqs-nan", "oracle", {"freqs = 1.0, -0.5": "freqs = 1.0, nan"}),
        *bad_input("freqs-inf", "oracle", {"freqs = 1.0, -0.5": "freqs = inf, -0.5"}),
        *bad_input("simulate-n-negative", "simulate", {"\nn = 20\n": "\nn = -5\n"}),
        *bad_input("seed-negative", "verify", {SEED: "seed = -1"}),
        *bad_input("seed-override-negative", "verify", argv="--seed-override -1"),
        *bad_input("n_list-beyond-2**53", "oracle",
                   {"n_list = 20, 50": "n_list = 20, 1000000000000000000000"}),
        *bad_input("n_t_m-beyond-2**53", "oracle", {"times = 0.5, 1.0": "times = 0.5, 1e300"}),
        *bad_input("simulate-n-beyond-2**53", "simulate",
                   {"\nn = 20\n": "\nn = 9007199254740994\n"}),
        # no t, so no [n t]: refused as an unknown key
        *bad_input("simulate-n-t-beyond-2**53", "simulate",
                   {"\nn = 20\n": "\nn = 2251799813685249\nt = 4.0\n"}),
        *bad_input("threads-0", "oracle", argv="--threads 0", err="usage:"),
        *bad_input("threads-negative", "oracle", argv="--threads -2", err="usage:"),
        *(row for key in ("max_ks", "max_ecf", "max_distance_ratio", "max_past_ratio")
          for value in ("nan", "inf", "0", "-1")
          for row in bad_input(f"{key}-{value}", "verify",
                               {SEED: f"{SEED}\n\n[tolerance]\n{key} = {value}"})),
        # a trend criterion compares N's: on a one-N grid the ratios once
        # compared d(50) with itself (exit 1 at 0.9, exit 0 at 1.5) and the
        # flags passed vacuously
        *(row for id, tolerance, named in (
            ("max_distance_ratio-0.9", "max_distance_ratio = 0.9", "'max_distance_ratio'"),
            ("max_distance_ratio-1.5", "max_distance_ratio = 1.5", "'max_distance_ratio'"),
            ("require_decreasing", "require_decreasing = true", "'require_decreasing'"),
            ("require_decreasing_past", "require_decreasing_past = true",
             "'require_decreasing_past'"),
            ("max_past_ratio", "max_past_ratio = 0.9", "'max_past_ratio'"),
            ("all", "max_ks = 1.0\nrequire_decreasing = true\nmax_past_ratio = 0.9",
             "'require_decreasing', 'max_past_ratio'"))
          for row in bad_input(f"one-N-{id}", "verify", one_n(tolerance),
                               err=re.escape(f"config error: [tolerance] [{named}] compare N's"))),
        # [simulate] t is no key: the path length is [simulate] n, whatever t says
        *(row for name, value in (("zero", "0"), ("negative", "-1.0"), ("nan", "nan"),
                                  ("inf", "inf"))
          for row in bad_input(f"t-{name}", "simulate",
                               {"\nn = 20\n": f"\nn = 20\nt = {value}\n"})),
        # laws whose CF scale is not a finite positive double
        *(row for value in ("1e300", "1e-320")
          for row in bad_input(f"scale-{value}", "verify", {"scale = 1.0": f"scale = {value}"})),
        *(row for s1, s2 in (("nan", "1.0"), ("1.0", "inf"), ("1e308", "1.0"))
          for row in bad_input(f"pareto-sigma1-{s1}-sigma2-{s2}", "verify", {
              "innovation = stable": f"innovation = pareto\nsigma1 = {s1}\nsigma2 = {s2}"})),
        # a Pareto h whose H_alpha(N) overflows a double: once exit 1 after sampling
        *bad_input("pareto-h-overflow", "verify", PARETO_H_OVERFLOW,
                   err="config error: H overflows a double"),
        # a required key left blank is missing: it once reached the code as None (exit 1)
        *(row for id, command, edits in (
            ("alpha", "simulate", {"alpha = 1.5": "alpha ="}),
            ("times", "oracle", {"times = 0.5, 1.0": "times ="}),
            ("freqs", "oracle", {"freqs = 1.0, -0.5": "freqs ="}),
            ("pareto-sigma1", "simulate",
             {"innovation = stable": "innovation = pareto\nsigma1 =\nsigma2 = 1.0"}))
          for row in bad_input(f"blank-{id}", command, edits,
                               err="config error: missing required key")),
        # every key a file gives is checked the same way for every command and
        # family, whether or not the run reads it; a stable sigma1 and a Pareto
        # beta were once never converted (exit 0)
        Row("simulate-j_tolerance", "simulate", BASE, {SEED: f"{SEED}\nj_tolerance = -1"},
            err="config error: bad value for 'j_tolerance'"),
        Row("verify-simulate-n", "verify", BASE + TOL, {"\nn = 20\n": "\nn = 0\n"},
            err=re.escape("config error: need 1 <= [simulate] n")),
        Row("oracle-reps", "oracle", BASE, {"reps = 60": "reps = 1"},
            err=re.escape("config error: need [sweep] reps >= 2")),
        Row("oracle_sym15-max_ks", "oracle",
            (ROOT / "scripts/configs/oracle_sym15.ini").read_text(),
            {"[tolerance]\n": "[tolerance]\nmax_ks = -1\n"},
            err="config error: bad value for 'max_ks'"),
        Row("stable-sigma1", "simulate", BASE, {"scale = 1.0": "scale = 1.0\nsigma1 = abc"},
            err="config error: bad value for 'sigma1'"),
        Row("pareto-beta", "simulate", PARETO, {"beta = 0.0": "beta = abc"},
            err="config error: bad value for 'beta'"),
        # the tail check once ran on x0 = inf: a RuntimeWarning, then exit 0
        Row("pareto-x0-inf", "simulate", PARETO,
            {"truncation = 200": "truncation = 200\nx0 = inf"},
            err=re.escape("config error: need a finite x0 > 0")),
        # configparser copied [DEFAULT]'s keys into every section, so the
        # error once named [process]
        Row("DEFAULT-section", "simulate", BASE,
            {"\n[process]\n": "\n[DEFAULT]\nseed = 1\n\n[process]\n"},
            err=re.escape("config error: unknown section [DEFAULT]")),
    ],
    # the path length is [simulate] n alone, and every run writes its CSV and JSON
    "TestParse.test_removed_keys_exit_2": [
        Row("simulate-t", "simulate", BASE, {"\nn = 20\n": "\nn = 20\nt = 1.0\n"},
            err="config error: unknown"),
        Row("output", "oracle", BASE, {SEED: f"{SEED}\n\n[output]\nformats = csv"},
            err="config error: unknown"),
        # the removed hook families and their key: every innovation is a law that draws
        *(Row(name, "simulate", BASE, {"innovation = stable": f"innovation = {name}"},
              err="config error: unknown innovation family")
          for name in ("hook_zero", "hook_const", "hook_impulse")),
        Row("hook_value", "simulate", BASE,
            {"truncation = 200": "truncation = 200\nhook_value = 1.0"},
            err="config error: unknown"),
    ],
    # n = 30, M = 1e8: the stable path passed a one-array check, then failed to allocate
    "TestSimulate.test_path_peak_refused_under_address_limit": [
        Row("stable", "simulate", BASE, PATH_1E8, code=1, err=BUDGET, rlimit_as=LIMIT),
        Row("pareto", "simulate", BASE, {**PATH_1E8, "innovation = stable":
                                         "innovation = pareto\nsigma1 = 1.0\nsigma2 = 1.0"},
            code=1, err=BUDGET, rlimit_as=LIMIT),
    ],
    "TestParse.test_bad_domain_is_config_error": [
        Row("", "simulate", BASE, {"alpha = 1.5": "alpha = 0.5"})],
    "TestSimulate.test_missing_seed_is_config_error": [Row("", "simulate", BASE, {SEED: ""})],
    "TestSimulate.test_malformed_config_exit_2": [Row("", "simulate", "][ not ini")],
    # the past panels of this grid refine beyond 2**17 elements; capped
    # there, their estimates stall near 1e-7 and no N meets tol
    "TestOracle.test_log_power_m3_sup_grid_certified": [Row("", "oracle", BASE, {
        "ell_kind = constant": "ell_kind = log_power\nell_p = 1.0",
        "times = 0.5, 1.0": "times = 0.2, 0.7, 1.0",
        "freqs = 1.0, -0.5": "freqs = 1.0, -0.5, 0.25",
        "n_list = 20, 50": "n_list = 100, 10000, 1000000\nsup_grid = true"},
        code=0, check=certified_at_fixed_depth)],
    # an overflowing term or weight is named in one error line
    "TestOracle.test_non_finite_terms_exit_1": [
        Row(f"change{i}-{named}", "oracle", BASE, edits, code=1, err=re.escape(f"error: {named}"))
        for i, (edits, named) in enumerate([
            ({"freqs = 1.0, -0.5": "freqs = 1e300, 1.0"}, "non-finite limit log-CF term"),
            ({"ell_kind = constant": "ell_kind = log_power\nell_p = 200"},
             "non-finite coefficient weight"),
            ({"ell_kind = constant": "ell_kind = log_power\nell_p = 400"},
             "non-finite coefficient a_i = ell(i)/i at i = 362"),
            # a_1 = ln(e + 1)^p is subnormal below p = -2599.5 and 0 below
            # p = -2734.3: dividing by A_N overflowed and warned
            *(({"ell_kind = constant": f"ell_kind = log_power\nell_p = {p}",
                "truncation = 200": "truncation = 10000"}, f"A_N at N = 20 is {A_N}, not")
              for p, A_N in ((-2650, "1.72376e-313"), (-3000, "0")))])
    ] + [
        Row("verify-pareto", "verify", PARETO + TOL, {
            "ell_kind = constant": "ell_kind = log_power\nell_p = -3000",
            "truncation = 200": "truncation = 10000"},
            code=1, err=re.escape("error: A_N at N = 20 is 0, not"))
    ],
    "TestOracle.test_pareto_rejected": [Row("", "oracle", PARETO)],
    "TestVerify.test_impossible_criteria_fail": [
        Row("", "verify", BASE + "\n[tolerance]\nmax_ks = 1e-9\n", code=1, err="")],
    # [1 * 0.5] = 0: stable innovations failed on a zero scale, Pareto
    # scored an identically zero sample
    "TestVerify.test_empty_window_exit_2": [
        Row(family, "verify", base, {"n_list = 20, 50": "n_list = 1, 2",
                                     "times = 0.5, 1.0": "times = 0.25, 0.5"},
            err=r"config error: need \[N t_m\] >= 1")
        for family, base in (("stable", BASE), ("pareto", PARETO))
    ],
    # truncation = auto with an h that overflows H at alpha = 2: refused on
    # its H before the truncation tail runs, which once ran out of memory on it
    "TestVerify.test_overflowing_truncation_tail_exit_2": [Row(
        "", "verify", PARETO + TOL, H_OVERFLOW_AUTO,
        err="config error: H overflows a double", rlimit_as=LIMIT)],
    # x0^-a overflowed in the mass check, and the x-form bisection put a
    # threshold beyond 2**512 at inf (tail masses 0, or non-finite samples)
    "TestVerify.test_extreme_pareto_laws_run_without_warning": [
        Row(id, "verify", PARETO + TOL, {"truncation = 200": f"truncation = 200\n{law}"},
            code=0, check=finite_report_rows)
        for id, law in (("x0-constant", "x0 = 1e-300"),
                        ("x0-log_power", "x0 = 1e-300\nh_kind = log_power\nh_p = 0.5"),
                        ("h_c-1e300", "h_kind = log_power\nh_c = 1e300"),
                        ("h_c-1e300-p", "h_kind = log_power\nh_c = 1e300\nh_p = 0.5"),
                        ("h_c-1e230-p", "h_kind = log_power\nh_c = 1e230\nh_p = 0.5"))
    ],
    "TestVerify.test_replicate_budget_exit_1": [
        Row("", "verify", BASE, {"reps = 60": "reps = 10000000000"}, code=1, err=BUDGET)],
    # the peak count refuses M = 1e8 before window_weights (it once failed to allocate)
    "TestVerify.test_sampling_peak_refused_under_address_limit": [
        Row("stable-1e8", "verify", BASE + TOL, {"truncation = 200": "truncation = 100000000"},
            code=1, err=BUDGET, rlimit_as=LIMIT),
        Row("pareto-auto", "verify", PARETO + TOL,
            {"alpha = 1.5": "alpha = 1.0001", "truncation = 200": "truncation = auto"},
            code=1, err=BUDGET, rlimit_as=LIMIT),
    ],
    "TestHalpha.test_constant": [
        Row("", "halpha", argv="--alpha 1.5 --kind constant --c 1.0 --n 1000", code=0,
            check=printed(r"^h_alpha=1\.0$", r"^residual=0\.0$"))],
    "TestHalpha.test_log_power_residual": [
        Row("", "halpha", argv="--alpha 2.0 --kind log_power --c 1.0 --p 1.0 --n 100000", code=0,
            check=lambda stdout, out: float(stdout.split("residual=")[1].split()[0]) < 1e-10)],
    "TestHalpha.test_invalid_alpha_exit_2": [Row("", "halpha", argv="--alpha 0.5 --n 100")],
    # the constant-h shortcut printed h_alpha=1.0 for N = nan; the solver exited 1 on the others
    "TestHalpha.test_non_finite_n_exit_2": [
        Row(f"argv{i}", "halpha", argv=argv) for i, argv in enumerate([
            "--alpha 1.5 --n nan", "--alpha 1.5 --kind log_power --c 1 --p -2 --n nan",
            "--alpha 2 --n inf", "--alpha 2 --n 1e400"])
    ],
    # H(N^{1/alpha}) or a later iterate overflows (once a RuntimeWarning and exit 1)
    "TestHalpha.test_overflowing_h_exit_2": [
        Row(f"argv{i}", "halpha", argv=f"{argv} --n 10", err="config error: .*overflow")
        for i, argv in enumerate([
            "--alpha 1.5 --kind log_power --c 1e308 --p 2",
            "--alpha 1.5 --kind log_power --c 1e304 --p 2",
            "--alpha 2 --kind log_power --c 1e307 --p 2", "--alpha 2 --kind constant --c 1e308"])
    ],
    # the largest root of one Newton solve, printed as plain floats with a count of evaluations
    "TestHalpha.test_alpha2_constant_prints_plain_floats": [
        Row("", "halpha", argv="--alpha 2 --c 10 --n 1", code=0,
            check=printed(r"\Ah_alpha=35\.77", r"^iterations=\d+$"))],
    # p = 8 > 6.2923864: H(t) = h(1) - h(t) + 2 int_1^t h/x decreases somewhere
    "TestHalpha.test_steep_h_at_alpha2_exit_2": [
        Row(f"{c}-{n}", "halpha", argv=f"--alpha 2 --kind log_power --c {c} --p 8 --n {n}",
            err=r"config error: need p <= 6\.2923864 at alpha = 2")
        for c, n in (("1e4", "10"), ("1", "1"))
    ],
    "TestHalpha.test_steep_bound_still_solves": [
        Row("", "halpha", argv="--alpha 2 --kind log_power --c 1e4 --p 6.29 --n 10", code=0,
            check=printed(r"\Ah_alpha="))],
    "TestHalpha.test_no_fixed_point_exit_1": [
        Row("", "halpha", argv="--alpha 2.0 --kind constant --c 1.0 --n 1", code=1)],
}

test_contract = contract("test_contract")


def test_no_isinstance_dispatch_on_a_family():
    # each innovation family answers for itself
    pattern = re.compile(r"isinstance\(.*\b(ExactStable|ParetoTail)\b")
    for path in (ROOT / "src" / "stablesum").glob("*.py"):
        assert (hit := pattern.search(path.read_text())) is None, (path.name, hit)
