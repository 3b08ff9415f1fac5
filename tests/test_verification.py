import math

import numpy as np
import pytest

from stablesum.cf_oracle import SweepRow
from stablesum.innovations import ParetoTail, sample_innovations
from stablesum.slowly_varying import constant
from stablesum.stable_law import StandardStable, cdf, sample
from stablesum.verification import (
    REPORT_CSV_HEADER,
    CriteriaConfig,
    MCRow,
    build_report,
    ecf,
    evaluate_verdicts,
    ks_distance,
    report_rows_to_csv,
    report_to_json,
    tail_ratio_check,
)


class TestEcf:
    def test_zero_samples(self):
        est, se = ecf(np.zeros((10, 2)), [0.3, -1.0])
        assert est == 1.0 + 0.0j
        assert se == 0.0

    def test_zero_frequency_exact(self):
        est, _ = ecf(np.random.default_rng(0).normal(size=(50, 2)), [0.0, 0.0])
        assert est == 1.0 + 0.0j

    def test_stable_value(self):
        x = sample(StandardStable(1.5, 0.0, 1.0), 10**5, 13)
        est, se = ecf(x[:, None], [1.0])
        assert abs(est - math.exp(-1.0)) < 0.013
        assert se <= 1.0 / math.sqrt(10**5)

    def test_modulus_bounded(self):
        x = np.random.default_rng(1).normal(size=(1000, 1)) * 50
        est, _ = ecf(x, [0.7])
        assert abs(est) <= 1.0

    def test_needs_replicates(self):
        with pytest.raises(ValueError):
            ecf(np.zeros((1, 2)), [1.0, 1.0])


class TestKsDistance:
    def test_quantile_construction(self):
        n = 50
        samples = (np.arange(1, n + 1) - 0.5) / n  # quantiles of U(0,1)
        assert ks_distance(samples, lambda x: min(1.0, max(0.0, x))) <= 1.0 / (2 * n) + 1e-12

    def test_single_median(self):
        assert ks_distance([0.0], lambda x: 0.5) == pytest.approx(0.5)

    def test_stable_samples_against_cdf(self):
        std = StandardStable(1.5, 0.0, 1.0)
        x = sample(std, 10**4, 6)
        assert ks_distance(x, lambda v: cdf(std, v)) < 0.02

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        base_cdf = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
        d1 = ks_distance(x, base_cdf)
        d2 = ks_distance(np.exp(x), lambda v: base_cdf(math.log(v)))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda v: 0.5)
        with pytest.raises(ValueError):
            ks_distance([np.nan], lambda v: 0.5)


class TestTailRatio:
    def test_symmetric_family(self):
        spec = ParetoTail(1.5, 0.5, 0.5, constant(1.0))
        x = sample_innovations(spec, 10**6, 3)
        res = tail_ratio_check(x, 1.5, constant(1.0), [0.99])
        assert res.sigma1_hat[0] == pytest.approx(res.sigma2_hat[0], rel=0.15)

    def test_recovers_constants(self):
        spec = ParetoTail(1.5, 1.0, 2.0, constant(1.0))
        x = sample_innovations(spec, 10**6, 8)
        res = tail_ratio_check(x, 1.5, constant(1.0), [0.99])
        assert res.sigma2_hat[0] == pytest.approx(2.0, rel=0.10)
        assert res.sigma1_hat[0] == pytest.approx(1.0, rel=0.10)

    def test_levels_validated(self):
        with pytest.raises(ValueError):
            tail_ratio_check([1.0, 2.0], 1.5, constant(1.0), [1.2])
        with pytest.raises(ValueError):
            tail_ratio_check([1.0, 2.0], 1.5, constant(1.0), [0.0])

    def test_warning_on_thin_levels(self):
        x = np.linspace(-5, 5, 2000)
        res = tail_ratio_check(x, 1.5, constant(1.0), [0.999])
        assert res.warnings  # 2 exceedances only


def _oracle_rows():
    return [SweepRow(100, 0.3, 0.05, 10.0, 10_000, 1e-12),
            SweepRow(1000, 0.2, 0.03, 20.0, 10_000, 1e-12)]


def _mc_rows():
    return [MCRow(100, 0.01, 0.015, 1.0), MCRow(1000, 0.012, 0.013, 2.0)]


class TestReport:
    def test_oracle_only_marks_mc_absent(self):
        rep = build_report(_oracle_rows(), None, CriteriaConfig(require_decreasing_distance=True))
        assert all(r.ecf_distance is None and r.ks_marginal is None for r in rep.rows)
        assert rep.verdicts == {"distance_decreasing": True}
        assert rep.passed

    def test_deterministic_body(self):
        a = build_report(_oracle_rows(), _mc_rows(), CriteriaConfig(max_ks=0.02), {"seed": 1})
        b = build_report(_oracle_rows(), _mc_rows(), CriteriaConfig(max_ks=0.02), {"seed": 1})
        assert (report_to_json(a, include_timing=False)
                == report_to_json(b, include_timing=False))

    def test_verdicts_recomputable_from_rows(self):
        criteria = CriteriaConfig(max_ks=0.02, require_decreasing_distance=True,
                                  max_distance_ratio=0.9)
        rep = build_report(_oracle_rows(), _mc_rows(), criteria)
        assert rep.verdicts == evaluate_verdicts(rep.rows, criteria)
        assert rep.verdicts == {"distance_decreasing": True, "distance_ratio": True,
                                "ks_max": True}

    def test_failing_verdict(self):
        rep = build_report(_oracle_rows(), _mc_rows(), CriteriaConfig(max_ks=0.01))
        assert not rep.passed

    def test_inconsistent_grids_rejected(self):
        bad = [MCRow(100, 0.01, 0.015, 1.0), MCRow(2000, 0.012, 0.013, 2.0)]
        with pytest.raises(ValueError):
            build_report(_oracle_rows(), bad, CriteriaConfig())

    def test_criterion_without_column_rejected(self):
        with pytest.raises(ValueError):
            build_report(_oracle_rows(), None, CriteriaConfig(max_ks=0.02))

    def test_csv_schema(self):
        rep = build_report(_oracle_rows(), None, CriteriaConfig())
        text = report_rows_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == REPORT_CSV_HEADER
        assert lines[1].startswith("100,0.3,0.05,,,")

    def test_needs_some_rows(self):
        with pytest.raises(ValueError):
            build_report(None, None, CriteriaConfig())
