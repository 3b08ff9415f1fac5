import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_contracts import BASE, PARETO, TOL, Row, contract, edited, printed, run, write

from stablesum import cf_oracle, cli, innovations, slowly_varying
from stablesum import linear_process as lp
from stablesum.cli import ConfigError, main, parse_config
from stablesum.verification import evaluate_verdicts

from reference import constant, log_power

# test_x = contract(...): the rows of tests/test_contracts.py filed under test_x


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
        run(Row("", "simulate", BASE, {"truncation = 200": f"truncation = {value}"}), tmp_path)

    def test_undecodable_config_exit_2(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(BASE.replace("truncation = 200", "truncation = \xe9").encode("latin-1"))
        code = main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 2

    test_removed_keys_exit_2 = contract("TestParse.test_removed_keys_exit_2")

    def test_tolerance_keys_are_the_criteria(self, tmp_path):
        # each [tolerance] key is a key of verification.CRITERIA; a criterion
        # is left out of the parsed dict when its key is absent or a false flag
        assert cli._KNOWN_KEYS.keys() == {"process", "simulate", "fdd", "sweep", "tolerance"}
        assert sum(map(len, cli._KNOWN_KEYS.values())) == 28
        keys = ["max_ks", "max_ecf", "require_decreasing", "max_distance_ratio",
                "require_decreasing_past", "max_past_ratio"]
        assert cli._KNOWN_KEYS["tolerance"] == set(keys)
        values = ["0.5", "0.25", "true", "0.75", "yes", "0.125"]
        text = BASE + "\n[tolerance]\n" + "".join(f"{k} = {v}\n" for k, v in zip(keys, values))
        assert parse_config(write(tmp_path, text)).criteria == {
            "max_ks": 0.5, "max_ecf": 0.25, "require_decreasing": True,
            "max_distance_ratio": 0.75, "require_decreasing_past": True, "max_past_ratio": 0.125}
        assert parse_config(write(tmp_path, BASE, "bare.ini")).criteria == {}
        off = BASE + "\n[tolerance]\nrequire_decreasing = false\n"
        assert parse_config(write(tmp_path, off, "off.ini")).criteria == {}

    test_bad_domain_is_config_error = contract("TestParse.test_bad_domain_is_config_error")


test_bad_input_exit_2 = contract("test_bad_input_exit_2")


class TestSimulate:
    @staticmethod
    def simulated(tmp_path, edits):
        """The text rows of a 20-value path of BASE under edits."""
        run(Row("", "simulate", BASE, edits, code=0), tmp_path)
        lines = (tmp_path / "out" / "simulate.csv").read_text().splitlines()
        assert lines[0] == "n,x" and len(lines) == 21
        return [line.split(",")[1] for line in lines[1:]]

    @pytest.mark.parametrize("edits", [
        {},
        {"innovation = stable": "innovation = pareto\nsigma1 = 1.0\nsigma2 = 1.0"},
        {"innovation = stable": "innovation = pareto\nsigma1 = 1.0\nsigma2 = 2.0"
                                "\nh_kind = log_power\nh_p = 0.5"},
    ], ids=["stable", "pareto", "pareto-log_power"])
    def test_law_path_is_simulate_path(self, tmp_path, edits):
        # the CSV holds simulate_path at the row's seed, each value by its repr
        xs = self.simulated(tmp_path, edits)
        cfg = parse_config(write(tmp_path, edited(BASE, edits), "law.ini"))
        path = lp.simulate_path(lp.ProcessSpec(cfg.ell, cfg.innovation, cfg.truncation),
                                20, cfg.seed)
        assert xs == [repr(x) for x in path.tolist()]

    def test_deterministic_output(self, tmp_path):
        path = write(tmp_path, BASE)
        main(["simulate", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["simulate", "--config", path, "--out-dir", str(tmp_path / "b")])
        assert ((tmp_path / "a" / "simulate.csv").read_bytes()
                == (tmp_path / "b" / "simulate.csv").read_bytes())

    test_path_peak_refused_under_address_limit = contract(
        "TestSimulate.test_path_peak_refused_under_address_limit")

    def test_stable_run_within_its_count(self, tmp_path):
        # the CSV is written in blocks: at n = 2e5 and M = 10 the run peaked
        # at 29.0 MB, about 145 B a row of text, against the 16.0 MB that the
        # budget counts; now the sampler's peak is the run's
        n, M = 200_000, 10
        cfg = parse_config(write(tmp_path, BASE.replace("truncation = 200", f"truncation = {M}")
                                 .replace("\nn = 20\n", f"\nn = {n}\n")))
        count = cfg.innovation.peak_arrays * (n + M - 1)
        cli.cmd_simulate(cfg, tmp_path / "warm")
        tracemalloc.start()
        try:
            assert cli.cmd_simulate(cfg, tmp_path / "out") == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * count + 2**16
        # the bytes of the former one-string CSV, across the block seams
        path = lp.simulate_path(lp.ProcessSpec(cfg.ell, cfg.innovation, M), n, cfg.seed)
        want = "n,x\n" + "".join(f"{i},{float(x)!r}\n" for i, x in enumerate(path, start=1))
        assert (tmp_path / "out" / "simulate.csv").read_text() == want

    test_missing_seed_is_config_error = contract("TestSimulate.test_missing_seed_is_config_error")
    test_malformed_config_exit_2 = contract("TestSimulate.test_malformed_config_exit_2")


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
            assert set(row) == {"n", "distance", "past_part", "window_part", "wall_ms",
                                "j_depth", "tail_bound"}
            assert row["window_part"] > row["past_part"] > 0.0
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

    test_log_power_m3_sup_grid_certified = contract(
        "TestOracle.test_log_power_m3_sup_grid_certified")
    test_non_finite_terms_exit_1 = contract("TestOracle.test_non_finite_terms_exit_1")
    test_pareto_rejected = contract("TestOracle.test_pareto_rejected")


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

    test_impossible_criteria_fail = contract("TestVerify.test_impossible_criteria_fail")

    def test_seed_override_changes_samples(self, tmp_path):
        text = BASE + TOL
        path = write(tmp_path, text)
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "a")])
        main(["verify", "--config", path, "--out-dir", str(tmp_path / "b"),
              "--seed-override", "7"])
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["metadata"]["seed"] == 4242 and b["metadata"]["seed"] == 7
        assert a["rows"] != b["rows"]

    def test_report_body_deterministic(self, tmp_path):
        text = BASE + TOL
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
    def test_oracle_criterion_off_stable_exit_2(self, tmp_path, monkeypatch, criterion):
        # the oracle's columns exist for exactly stable innovations only; the
        # mismatch is refused before the depth search, the sweep or sampling
        calls = []
        for module, name in ((cli, "default_truncation_depth"),
                             (cli, "joint_fdd_sample"),
                             (cf_oracle, "cf_convergence_sweep")):
            monkeypatch.setattr(module, name, lambda *a, _n=name, **k: calls.append(_n))
        run(Row("", "verify", PARETO + TOL + f"{criterion}\n",
                {"truncation = 200": "truncation = auto"}), tmp_path)
        assert calls == []

    def test_pareto_h_alpha_solved_once_per_n(self, tmp_path, monkeypatch):
        # the pre-check before any work and A_N read one value per N, kept
        # with the law; each run parses a new law and solves again
        calls = []
        original = innovations.h_alpha_info

        def counted(h, alpha, N):
            calls.append(N)
            return original(h, alpha, N)

        monkeypatch.setattr(innovations, "h_alpha_info", counted)
        text = edited(PARETO + TOL, {"sigma2 = 1.0": "sigma2 = 1.0\nh_kind = log_power\nh_p = 0.5"})
        path = write(tmp_path, text)
        for out in ("a", "b"):
            assert main(["verify", "--config", path, "--out-dir", str(tmp_path / out)]) == 0
        assert calls == [20, 50, 20, 50]

    def test_one_store_of_sums_per_run(self, tmp_path, monkeypatch):
        # each run parses a new ell, whose partial sums from 0 are built from
        # 0 once and then only extended, and are read as a view by the
        # oracle's prefix sums and by every N's window; a second run in the
        # same process builds as many elements again
        built, made = [], []
        build = slowly_varying.coefficient_prefix_sums

        def counting(*args, **kwargs):
            out = build(*args, **kwargs)
            built.append((kwargs.get("start", 0), len(out)))
            return out

        class Recording(lp.PrefixSums):
            def __init__(self, ell, spans):
                super().__init__(ell, spans)
                made.append((ell, self))

        monkeypatch.setattr(slowly_varying, "coefficient_prefix_sums", counting)
        monkeypatch.setattr(cf_oracle, "PrefixSums", Recording)
        monkeypatch.setattr(lp, "PrefixSums", Recording)
        path = write(tmp_path, BASE)
        runs = []
        for out in ("a", "b"):
            built.clear()
            made.clear()
            assert main(["verify", "--config", path, "--out-dir", str(tmp_path / out)]) == 0
            ell = made[0][0]
            held = slowly_varying.held_prefix_sums(ell)
            assert all(e is ell for e, _ in made) and len(made) == 4  # 2 oracle N, 2 windows
            assert [start for start, _ in built].count(0) == 1
            assert sum(n for _, n in built) == held.size == 10_051
            assert all(np.shares_memory(S._parts[0], held) for _, S in made[2:])
            runs.append((list(built), ell))
        assert runs[0][0] == runs[1][0] and runs[0][1] is not runs[1][1]

    def test_one_normalizer_for_target_and_samples(self, tmp_path, monkeypatch):
        # the ECF target (the oracle sweep) and the samples divide by one
        # A_N: each namespace that binds normalizer calls it once per N, and
        # the two get equal values
        calls = {cf_oracle: [], lp: []}
        original = lp.normalizer
        for module, seen in calls.items():
            def recorded(ell, law, N, _seen=seen):
                A = original(ell, law, N)
                _seen.append((N, A))
                return A

            monkeypatch.setattr(module, "normalizer", recorded)
        assert main(["verify", "--config", write(tmp_path, BASE),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert [N for N, _ in calls[cf_oracle]] == [20, 50]
        assert calls[cf_oracle] == calls[lp]

    test_empty_window_exit_2 = contract("TestVerify.test_empty_window_exit_2")
    test_overflowing_truncation_tail_exit_2 = contract(
        "TestVerify.test_overflowing_truncation_tail_exit_2")
    test_extreme_pareto_laws_run_without_warning = contract(
        "TestVerify.test_extreme_pareto_laws_run_without_warning")
    test_replicate_budget_exit_1 = contract("TestVerify.test_replicate_budget_exit_1")
    test_sampling_peak_refused_under_address_limit = contract(
        "TestVerify.test_sampling_peak_refused_under_address_limit")


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

    def test_no_thread_started(self, tmp_path, monkeypatch):
        # --threads is accepted and ignored: a verify run at 64 starts no
        # thread and reports what a run at 1 does
        _, expected = self.outputs(tmp_path, 1)

        def refused(self):
            raise RuntimeError("verify started a thread")

        monkeypatch.setattr(threading.Thread, "start", refused)
        out = tmp_path / "threads64"
        assert main(["verify", "--config", write(tmp_path, BASE), "--out-dir", str(out),
                     "--threads", "64"]) == 0
        report = json.loads((out / "report.json").read_text())
        for row in report["rows"]:
            del row["wall_time_s"]
        assert report == expected

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


class TestOutputFormats:
    """Each output file is pinned by re-rendering it, byte for byte, from
    its own JSON: a JSON file is its parsed body dumped with sorted keys, and
    each CSV line is rebuilt from the JSON rows in order."""

    @staticmethod
    def parsed(path):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        return json.loads(text)

    def test_oracle(self, tmp_path):
        run(Row("", "oracle", BASE + TOL, code=0), tmp_path)
        rows = self.parsed(tmp_path / "out" / "oracle.json")["rows"]
        lines = (tmp_path / "out" / "oracle.csv").read_text().splitlines(keepends=True)
        assert lines == ["N,distance,past_part,wall_ms\n"] + [
            f"{r['n']},{r['distance']!r},{r['past_part']!r},{r['wall_ms']:.3f}\n" for r in rows]

    @pytest.mark.parametrize("base", [BASE, PARETO], ids=["stable", "pareto"])
    def test_verify(self, tmp_path, base):
        run(Row("", "verify", base + TOL, code=0), tmp_path)
        report = self.parsed(tmp_path / "out" / "report.json")
        columns = ["oracle_distance", "past_part", "ecf_distance", "ks_marginal", "wall_time_s"]
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines(keepends=True)
        assert lines == ["N,oracle_distance,past_part,ecf_distance,ks_marginal,wall_time\n"] + [
            ",".join([str(r["n"]), *("" if r[c] is None else repr(float(r[c])) for c in columns)])
            + "\n" for r in report["rows"]]
        criteria = parse_config(str(tmp_path / "run.ini")).criteria
        verdicts = evaluate_verdicts(report["rows"], criteria)
        assert verdicts == report["verdicts"] == {"ks_max": True}


class TestImportFootprint:
    """numpy is the only runtime dependency: no run loads a scipy module,
    including the ones that need quadrature (log-power h with an automatic
    truncation depth, H and the Gaussian CDF at alpha = 2).  Nor does a run
    load numpy's masked arrays, which the package never uses."""

    CLI = (
        "from stablesum import cli\n"
        "if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:\n"
        "    sys.exit('run failed')\n"
    )
    LOG_POWER_H = edited(PARETO + TOL, {
        "ell_kind = constant": "ell_kind = log_power\nell_p = -2.0",
        "alpha = 1.5": "alpha = {alpha}",
        "sigma2 = 1.0": "sigma2 = 2.0\nh_kind = log_power\nh_c = 1.0\nh_p = 0.5",
        "truncation = 200": "truncation = auto", "n_list = 20, 50": "n_list = 50",
        "reps = 60": "reps = 20"})

    @staticmethod
    def loaded(code, argv=(), package="scipy"):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = ("import sys\n" + code + "print(sorted(m for m in sys.modules "
                  f"if m == {package!r} or m.startswith({package + '.'!r})))\n")
        done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    @pytest.mark.parametrize("command", [None, "oracle", "verify", "simulate"])
    def test_no_scipy_module_loaded(self, tmp_path, command):
        argv = [] if command is None else [
            command, "--config", write(tmp_path, BASE + TOL),
            "--out-dir", str(tmp_path / "out")]
        assert self.loaded(self.CLI, argv) == "[]"

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_no_scipy_in_log_power_h_verify(self, tmp_path, alpha):
        argv = ["verify", "--config", write(tmp_path, self.LOG_POWER_H.format(alpha=alpha)),
                "--out-dir", str(tmp_path / "out")]
        assert self.loaded(self.CLI, argv) == "[]"

    def test_verify_loads_no_masked_arrays(self, tmp_path):
        # the KS distance's CDF groups its bands by index: np.unique without
        # index outputs imports numpy.ma
        argv = ["verify", "--config", write(tmp_path, BASE), "--out-dir", str(tmp_path / "out")]
        assert self.loaded(self.CLI, argv, "numpy.ma") == "[]"


class TestHalpha:
    test_constant = contract("TestHalpha.test_constant")
    test_log_power_residual = contract("TestHalpha.test_log_power_residual")
    test_invalid_alpha_exit_2 = contract("TestHalpha.test_invalid_alpha_exit_2")
    test_non_finite_n_exit_2 = contract("TestHalpha.test_non_finite_n_exit_2")
    test_overflowing_h_exit_2 = contract("TestHalpha.test_overflowing_h_exit_2")
    test_alpha2_constant_prints_plain_floats = contract(
        "TestHalpha.test_alpha2_constant_prints_plain_floats")
    test_steep_h_at_alpha2_exit_2 = contract("TestHalpha.test_steep_h_at_alpha2_exit_2")
    test_steep_bound_still_solves = contract("TestHalpha.test_steep_bound_still_solves")
    test_no_fixed_point_exit_1 = contract("TestHalpha.test_no_fixed_point_exit_1")

    def test_residual_above_the_gate_exit_1(self, tmp_path, monkeypatch):
        # a root whose residual exceeds 1e-12 exits 1 with its iterate and
        # residual, as a missing root does
        monkeypatch.setattr(slowly_varying, "newton_root", lambda fn, z, w, lo, hi: w)
        run(Row("", "halpha", argv="--alpha 1.5 --kind log_power --c 1 --p 2 --n 10000",
                code=1, err=r"error: .* has residual .* above 1e-12",
                check=printed(r"^last_iterate=\d", r"^residual=\d")), tmp_path)
