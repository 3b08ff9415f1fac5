import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stablesum import cf_oracle, cli
from stablesum.cli import ConfigError, main, parse_config
from stablesum.slowly_varying import coefficient, constant

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
t = 1.0

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


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def exit_code(argv):
    """main's return value, or the status of a usage error (argparse exits)."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParse:
    def test_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, BASE))
        assert cfg.ell == constant(1.0)
        assert cfg.seed == 4242
        assert cfg.truncation == 200

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, BASE + "\n[process]\nbogus = 1\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "nope.ini"))

    # printable values that survive INI parsing whole: no comment prefixes,
    # no line breaks, not blank after stripping
    bad_truncation = st.text(
        st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                      blacklist_characters=";#"), min_size=1
    ).filter(lambda s: s.strip() != "" and s.strip() != "auto"
             and not (s.strip().isascii() and s.strip().isdigit() and int(s.strip()) >= 1))

    @given(bad_truncation)
    @example("abc")
    @example("0")
    @example("-3")
    @example("1.5")
    @example("1e4")
    @example("5%")
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_malformed_truncation_exit_2(self, tmp_path, value):
        text = BASE.replace("truncation = 200", f"truncation = {value}")
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_undecodable_config_exit_2(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(BASE.replace("truncation = 200", "truncation = \xe9").encode("latin-1"))
        code = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_bad_domain_is_config_error(self, tmp_path):
        bad = BASE.replace("alpha = 1.5", "alpha = 0.5")
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, bad))


# (command, BASE line, its replacement, extra flags): one bad value each
BAD_INPUTS = [
    pytest.param("oracle", "n_list = 20, 50", "n_list = 50, 20", [], id="n_list-decreasing"),
    pytest.param("oracle", "n_list = 20, 50", "n_list = 20, 20", [], id="n_list-repeated"),
    pytest.param("oracle", "n_list = 20, 50", "n_list = 0, 20", [], id="n_list-zero"),
    pytest.param("oracle", "n_list = 20, 50", "n_list = -5, 20", [], id="n_list-negative"),
    pytest.param("verify", "reps = 60", "reps = 1", [], id="reps-1"),
    pytest.param("oracle", "seed = 4242", "seed = 4242\nj_tolerance = 0", [], id="j_tol-0"),
    pytest.param("oracle", "seed = 4242", "seed = 4242\nj_tolerance = -1e-8", [],
                 id="j_tol-negative"),
    pytest.param("oracle", "seed = 4242", "seed = 4242\nj_tolerance = nan", [], id="j_tol-nan"),
    pytest.param("oracle", "seed = 4242", "seed = 4242\nj_tolerance = inf", [], id="j_tol-inf"),
    pytest.param("oracle", "freqs = 1.0, -0.5", "freqs = 1.0, nan", [], id="freqs-nan"),
    pytest.param("oracle", "freqs = 1.0, -0.5", "freqs = inf, -0.5", [], id="freqs-inf"),
    pytest.param("simulate", "t = 1.0", "t = 0", [], id="t-zero"),
    pytest.param("simulate", "t = 1.0", "t = -1.0", [], id="t-negative"),
    pytest.param("simulate", "t = 1.0", "t = nan", [], id="t-nan"),
    pytest.param("simulate", "t = 1.0", "t = inf", [], id="t-inf"),
    pytest.param("simulate", "\nn = 20\n", "\nn = -5\n", [], id="simulate-n-negative"),
    pytest.param("verify", "seed = 4242", "seed = -1", [], id="seed-negative"),
    pytest.param("verify", "", "", ["--seed-override", "-1"], id="seed-override-negative"),
    pytest.param("oracle", "", "", ["--threads", "0"], id="threads-0"),
    pytest.param("oracle", "", "", ["--threads", "-2"], id="threads-negative"),
] + [
    pytest.param("verify", "seed = 4242", f"seed = 4242\n\n[tolerance]\n{key} = {value}", [],
                 id=f"{key}-{value}")
    for key in ("max_ks", "max_ecf", "max_distance_ratio", "max_past_ratio")
    for value in ("nan", "inf", "0", "-1")
] + [
    pytest.param("simulate", "innovation = stable",
                 f"innovation = hook_const\nhook_value = {value}", [], id=f"hook_value-{value}")
    for value in ("nan", "inf")
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command, line, replacement, flags", BAD_INPUTS)
def test_bad_input_exit_2(tmp_path, command, line, replacement, flags, threads):
    text = BASE.replace(line, replacement) if line else BASE
    out = tmp_path / "out"
    argv = [command, "--config", write(tmp_path, text), "--out-dir", str(out),
            "--threads", str(threads)] + flags
    assert exit_code(argv) == 2
    assert not out.exists()


class TestSimulate:
    def test_hook_zero(self, tmp_path):
        text = BASE.replace("innovation = stable", "innovation = hook_zero")
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "simulate.csv").read_text().strip().split("\n")
        assert lines[0] == "n,x"
        assert len(lines) == 21
        assert all(line.endswith(",0.0") for line in lines[1:])

    def test_hook_impulse_reproduces_coefficients(self, tmp_path):
        text = BASE.replace("innovation = stable", "innovation = hook_impulse")
        main(["simulate", "--config", write(tmp_path, text),
              "--out-dir", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "simulate.csv").read_text().strip().split("\n")[1:]
        xs = np.array([float(line.split(",")[1]) for line in lines])
        want = coefficient(constant(1.0), np.arange(1.0, 21.0))
        np.testing.assert_allclose(xs, want, rtol=1e-15)

    def test_hook_const_sums_all_lags(self, tmp_path):
        # constant innovations give X_n = value * sum_{i<=M} a_i at every n
        text = BASE.replace("innovation = stable", "innovation = hook_const\nhook_value = 2.5")
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "simulate.csv").read_text().strip().split("\n")[1:]
        xs = np.array([float(line.split(",")[1]) for line in lines])
        assert xs.shape == (20,)
        np.testing.assert_allclose(xs, 2.5 * np.sum(1.0 / np.arange(1.0, 201.0)), rtol=1e-13)

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, BASE)
        main(["simulate", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["simulate", "--config", path, "--out-dir", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "simulate.csv").read_bytes()
                == (tmp_path / "b" / "simulate.csv").read_bytes())

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        text = BASE.replace("seed = 4242", "")
        code = main(["simulate", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_config_exit_2(self, tmp_path):
        code = main(["simulate", "--config", write(tmp_path, "][ not ini"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2


class TestOracle:
    def test_schema_and_zero_frequencies(self, tmp_path):
        text = BASE.replace("freqs = 1.0, -0.5", "freqs = 0.0, 0.0")
        code = main(["oracle", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "oracle.csv").read_text().strip().split("\n")
        assert lines[0] == "N,distance,past_part,wall_ms"
        for line in lines[1:]:
            assert float(line.split(",")[1]) == 0.0
        doc = json.loads((tmp_path / "out" / "oracle.json").read_text())
        assert doc["config"]["process"]["innovation"] == "stable"
        assert [row["n"] for row in doc["rows"]] == [20, 50]

    def test_rows_carry_depth_and_bound(self, tmp_path):
        code = main(["oracle", "--config", write(tmp_path, BASE),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        header = (tmp_path / "out" / "oracle.csv").read_text().split("\n")[0]
        assert header == "N,distance,past_part,wall_ms"
        rows = json.loads((tmp_path / "out" / "oracle.json").read_text())["rows"]
        for row in rows:
            assert set(row) == {"n", "distance", "past_part", "wall_ms",
                                "j_depth", "tail_bound"}
            assert row["j_depth"] == 10_000
            assert 0.0 <= row["tail_bound"] <= 1e-8

    def test_large_n_exit_0(self, tmp_path, capsys):
        # N = 1e9 was refused on memory; the window closure needs no array
        # that grows with N
        text = BASE.replace("n_list = 20, 50", "n_list = 1000000000")
        code = main(["oracle", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().err == ""
        row, = json.loads((tmp_path / "out" / "oracle.json").read_text())["rows"]
        assert row["n"] == 10**9 and row["j_depth"] == 10_000
        assert 0.0 < row["distance"] < 0.1 and row["tail_bound"] <= 1e-8

    def test_j_policy_tightening_stable(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        main(["oracle", "--config", write(tmp_path, BASE), "--out-dir", str(out1)])
        tight = BASE + "\nj_tolerance = 1e-9\n"
        main(["oracle", "--config", write(tmp_path, tight, "tight.ini"),
              "--out-dir", str(out2)])
        a = json.loads((out1 / "oracle.json").read_text())["rows"]
        b = json.loads((out2 / "oracle.json").read_text())["rows"]
        for ra, rb in zip(a, b):
            assert abs(ra["distance"] - rb["distance"]) < 1e-8

    def test_log_power_m3_sup_grid_certified(self, tmp_path):
        # the past panels of this grid refine beyond 2**17 elements; capped
        # there, their estimates stall near 1e-7 and no N meets tol
        text = (BASE.replace("ell_kind = constant", "ell_kind = log_power\nell_p = 1.0")
                .replace("times = 0.5, 1.0", "times = 0.2, 0.7, 1.0")
                .replace("freqs = 1.0, -0.5", "freqs = 1.0, -0.5, 0.25")
                .replace("n_list = 20, 50", "n_list = 100, 10000, 1000000\nsup_grid = true"))
        assert main(["oracle", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "oracle.json").read_text())["rows"]
        assert [row["n"] for row in rows] == [100, 10_000, 1_000_000]
        for row in rows:
            assert row["j_depth"] == 10_000 and row["tail_bound"] <= 1e-8

    @pytest.mark.parametrize("change, named", [
        (("freqs = 1.0, -0.5", "freqs = 1e300, 1.0"), "non-finite limit log-CF term"),
        (("ell_kind = constant", "ell_kind = log_power\nell_p = 200"),
         "non-finite coefficient weight"),
    ])
    def test_non_finite_terms_exit_1(self, tmp_path, capsys, change, named):
        # an overflowing term or weight is named in one error line, with no
        # RuntimeWarning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["oracle", "--config", write(tmp_path, BASE.replace(*change)),
                         "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {named}")

    def test_pareto_rejected(self, tmp_path):
        code = main(["oracle", "--config", write(tmp_path, PARETO),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 2


class TestVerify:
    def test_loose_criteria_pass(self, tmp_path):
        text = BASE + "\n[tolerance]\nmax_ks = 1.0\nmax_ecf = 1.0\n"
        code = main(["verify", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out"), "--threads", "2"])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == {"ks_max": True, "ecf_max": True}
        csv_lines = (tmp_path / "out" / "report.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "N,oracle_distance,past_part,ecf_distance,ks_marginal,wall_time"

    def test_impossible_criteria_fail(self, tmp_path):
        text = BASE + "\n[tolerance]\nmax_ks = 1e-9\n"
        code = main(["verify", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_seed_override_changes_samples(self, tmp_path):
        text = BASE + "\n[tolerance]\nmax_ks = 1.0\n"
        path = write(tmp_path, text)
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "b"),
              "--seed-override", "7"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["metadata"]["seed"] == 4242 and b["metadata"]["seed"] == 7
        assert a["rows"] != b["rows"]

    def test_report_body_deterministic(self, tmp_path):
        text = BASE + "\n[tolerance]\nmax_ks = 1.0\n"
        path = write(tmp_path, text)
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "b")])
        strip = lambda doc: {k: v for k, v in doc.items()} | {
            "rows": [{k: v for k, v in row.items() if k != "wall_time_s"}
                     for row in doc["rows"]]}
        a = strip(json.loads((tmp_path / "a" / "report.json").read_text()))
        b = strip(json.loads((tmp_path / "b" / "report.json").read_text()))
        assert a == b

    @pytest.mark.parametrize("criterion", ["require_decreasing = true",
                                           "max_distance_ratio = 0.5",
                                           "require_decreasing_past = true",
                                           "max_past_ratio = 0.5"])
    def test_oracle_criterion_off_stable_exit_2(self, tmp_path, capsys, monkeypatch,
                                                criterion):
        # the oracle's columns exist for exactly stable innovations only; the
        # mismatch is refused before the depth search, the sweep or sampling
        calls = []
        for module, name in ((cli, "default_truncation_depth"),
                             (cli, "normalized_fdd_sample"),
                             (cf_oracle, "cf_convergence_sweep")):
            monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
        text = (PARETO.replace("truncation = 200", "truncation = auto")
                + f"\n[tolerance]\nmax_ks = 1.0\n{criterion}\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", write(tmp_path, text), "--out-dir", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("family", ["stable", "pareto"])
    def test_empty_window_exit_2(self, tmp_path, capsys, family):
        # [1 * 0.5] = 0: stable innovations failed on a zero scale, Pareto
        # scored an identically zero sample
        text = (BASE if family == "stable" else PARETO).replace(
            "n_list = 20, 50", "n_list = 1, 2").replace(
            "times = 0.5, 1.0", "times = 0.25, 0.5")
        out = tmp_path / "out"
        code = main(["verify", "--config", write(tmp_path, text), "--out-dir", str(out)])
        assert code == 2
        assert "[N t_m] >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_truncation_tail_exit_1(self, tmp_path, capsys):
        # truncation = auto with an h that overflows H at alpha = 2: the
        # truncation tail names the non-finite panel instead of halving it
        # until memory runs out
        text = PARETO.replace("alpha = 1.5", "alpha = 2.0").replace(
            "truncation = 200", "truncation = auto\nh_kind = log_power\nh_c = 1e307\nh_p = 2")
        text += "\n[tolerance]\nmax_ks = 1.0\n"
        code = main(["verify", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: non-finite integral") and "allocate" not in err

    def test_replicate_budget_exit_1(self, tmp_path, capsys):
        text = BASE.replace("reps = 60", "reps = 10000000000")
        code = main(["verify", "--config", write(tmp_path, text),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1
        assert "memory budget" in capsys.readouterr().err


class TestThreads:
    @staticmethod
    def outputs(tmp_path, threads):
        path = write(tmp_path, BASE)
        out = tmp_path / f"threads{threads}"
        flags = ["--config", path, "--threads", str(threads)]
        assert main(["oracle", "--out-dir", str(out / "oracle")] + flags) == 0
        assert main(["verify", "--out-dir", str(out / "verify")] + flags) == 0
        oracle = json.loads((out / "oracle" / "oracle.json").read_text())["rows"]
        report = json.loads((out / "verify" / "report.json").read_text())
        for row in oracle:
            del row["wall_ms"]
        for row in report["rows"]:
            del row["wall_time_s"]
        return oracle, report

    def test_thread_count_does_not_change_outputs(self, tmp_path):
        assert self.outputs(tmp_path, 1) == self.outputs(tmp_path, 3)

    def test_verify_calls_oracle_once_per_n(self, tmp_path, monkeypatch):
        calls = []
        original = cf_oracle.exact_fdd_log_cf

        def counted(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(cf_oracle, "exact_fdd_log_cf", counted)
        assert main(["verify", "--config", write(tmp_path, BASE),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == [20, 50]


class TestImportFootprint:
    """numpy is the only runtime dependency: no run loads a scipy module,
    including the ones that need quadrature (log-power h with an automatic
    truncation depth, H and the Gaussian CDF at alpha = 2)."""

    CLI = (
        "from stablesum import cli\n"
        "if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:\n"
        "    sys.exit('run failed')\n"
    )
    LOG_POWER_H = """
[process]
ell_kind = log_power
ell_c = 1.0
ell_p = -2.0
innovation = pareto
alpha = {alpha}
sigma1 = 1.0
sigma2 = 2.0
h_kind = log_power
h_c = 1.0
h_p = 0.5
truncation = auto

[fdd]
times = 0.5, 1.0
freqs = 1.0, -0.5

[sweep]
n_list = 50
reps = 20
seed = 4242

[tolerance]
max_ks = 1.0
"""

    @staticmethod
    def scipy_modules(code, argv=()):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = ("import sys\n" + code + "print(sorted(m for m in sys.modules "
                  "if m == 'scipy' or m.startswith('scipy.')))\n")
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    @pytest.mark.parametrize("command", [None, "oracle", "verify", "simulate"])
    def test_no_scipy_module_loaded(self, tmp_path, command):
        argv = [] if command is None else [
            command, "--config", write(tmp_path, BASE + "\n[tolerance]\nmax_ks = 1.0\n"),
            "--out-dir", str(tmp_path / "out")]
        assert self.scipy_modules(self.CLI, argv) == "[]"

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_no_scipy_in_log_power_h_verify(self, tmp_path, alpha):
        argv = ["verify", "--config", write(tmp_path, self.LOG_POWER_H.format(alpha=alpha)),
                "--out-dir", str(tmp_path / "out")]
        assert self.scipy_modules(self.CLI, argv) == "[]"


class TestHalpha:
    def test_constant(self, capsys):
        assert main(["halpha", "--alpha", "1.5", "--kind", "constant",
                     "--c", "1.0", "--n", "1000"]) == 0
        out = capsys.readouterr().out
        assert "h_alpha=1.0" in out
        assert "residual=0.0" in out

    def test_log_power_residual(self, capsys):
        assert main(["halpha", "--alpha", "2.0", "--kind", "log_power",
                     "--c", "1.0", "--p", "1.0", "--n", "100000"]) == 0
        out = capsys.readouterr().out
        residual = float(out.split("residual=")[1].split("\n")[0])
        assert residual < 1e-10

    def test_invalid_alpha_exit_2(self):
        assert main(["halpha", "--alpha", "0.5", "--n", "100"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1.5", "--n", "nan"],
        ["--alpha", "1.5", "--kind", "log_power", "--c", "1", "--p", "-2", "--n", "nan"],
        ["--alpha", "2", "--n", "inf"],
        ["--alpha", "2", "--n", "1e400"],
    ])
    def test_non_finite_n_exit_2(self, capsys, argv):
        # the constant-h shortcut printed h_alpha=1.0 for N = nan; the solver
        # exited 1 on the others
        assert main(["halpha", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1.5", "--kind", "log_power", "--c", "1e308", "--p", "2"],
        ["--alpha", "1.5", "--kind", "log_power", "--c", "1e304", "--p", "2"],
        ["--alpha", "2", "--kind", "log_power", "--c", "1e307", "--p", "2"],
        ["--alpha", "2", "--kind", "constant", "--c", "1e308"],
    ])
    def test_overflowing_h_exit_2(self, capsys, argv):
        # H(N^{1/alpha}) or a later iterate overflows: once a RuntimeWarning
        # and exit 1 (residual inf); at alpha = 2 the quadrature of an
        # overflowing h never settled
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["halpha", *argv, "--n", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and "overflow" in captured.err
        assert captured.out == ""

    def test_no_fixed_point_exit_1(self):
        assert main(["halpha", "--alpha", "2.0", "--kind", "constant",
                     "--c", "1.0", "--n", "1"]) == 1
