import math

import numpy as np
import pytest
from scipy.special import erf

from stablesum.innovations import ParetoTail, sample_innovations
from stablesum.stable_law import StandardStable, cdf, sample
from stablesum.verification import (
    REPORT_CSV_HEADER,
    ConvergenceReport,
    CriteriaConfig,
    ReportRow,
    ecf,
    evaluate_verdicts,
    ks_distance,
    report_rows_to_csv,
    report_to_json,
)

from reference import constant, tail_ratio_check


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
        assert ks_distance(samples, lambda x: np.clip(x, 0.0, 1.0)) <= 1.0 / (2 * n) + 1e-12

    def test_single_median(self):
        assert ks_distance([0.0], lambda x: np.full_like(x, 0.5)) == pytest.approx(0.5)

    def test_stable_samples_against_cdf(self):
        std = StandardStable(1.5, 0.0, 1.0)
        x = sample(std, 10**4, 6)
        assert ks_distance(x, lambda v: cdf(std, v)) < 0.02

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        base_cdf = lambda v: 0.5 * (1.0 + erf(v / math.sqrt(2.0)))
        d1 = ks_distance(x, base_cdf)
        d2 = ks_distance(np.exp(x), lambda v: base_cdf(np.log(v)))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda v: np.full_like(v, 0.5))
        with pytest.raises(ValueError):
            ks_distance([np.nan], lambda v: np.full_like(v, 0.5))


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


def _rows(mc=True):
    """Two N of a stable verify run; mc=False leaves the Monte-Carlo columns
    absent."""
    ecf_ks = [(0.01, 0.015), (0.012, 0.013)] if mc else [(None, None)] * 2
    return [ReportRow(100, 0.3, 0.05, *ecf_ks[0], 1.01),
            ReportRow(1000, 0.2, 0.03, *ecf_ks[1], 2.02)]


def _report(criteria, rows=None, metadata=None):
    rows = _rows() if rows is None else rows
    return ConvergenceReport(dict(metadata or {}), rows, evaluate_verdicts(rows, criteria))


class TestReport:
    def test_oracle_only_marks_mc_absent(self):
        rep = _report(CriteriaConfig(require_decreasing=True), _rows(mc=False))
        assert all(r.ecf_distance is None and r.ks_marginal is None for r in rep.rows)
        assert rep.verdicts == {"distance_decreasing": True}
        assert rep.passed

    def test_deterministic_body(self):
        a = _report(CriteriaConfig(max_ks=0.02), metadata={"seed": 1})
        b = _report(CriteriaConfig(max_ks=0.02), metadata={"seed": 1})
        assert report_to_json(a) == report_to_json(b)

    def test_verdicts_recomputable_from_rows(self):
        criteria = CriteriaConfig(max_ks=0.02, require_decreasing=True,
                                  max_distance_ratio=0.9)
        rep = _report(criteria)
        assert rep.verdicts == {"distance_decreasing": True, "distance_ratio": True,
                                "ks_max": True}

    def test_every_criterion_verdicts_its_column(self):
        criteria = CriteriaConfig(max_ks=0.014, max_ecf=0.02,
                                  require_decreasing=True, max_distance_ratio=0.5,
                                  require_decreasing_past=True, max_past_ratio=0.7)
        assert evaluate_verdicts(_rows(), criteria) == {
            "ks_max": False, "ecf_max": True, "distance_decreasing": True,
            "distance_ratio": False, "past_decreasing": True, "past_ratio": True}
        assert criteria.columns() == {"ks_marginal", "ecf_distance", "oracle_distance",
                                      "past_part"}

    def test_columns_of_configured_criteria_only(self):
        assert CriteriaConfig().columns() == set()
        assert CriteriaConfig(max_ks=0.1).columns() == {"ks_marginal"}
        assert CriteriaConfig(require_decreasing_past=True).columns() == {"past_part"}
        assert CriteriaConfig(require_decreasing=False,
                              max_distance_ratio=0.9).columns() == {"oracle_distance"}

    def test_failing_verdict(self):
        rep = _report(CriteriaConfig(max_ks=0.01))
        assert not rep.passed

    def test_criterion_without_column_rejected(self):
        with pytest.raises(ValueError, match="ks_marginal"):
            evaluate_verdicts(_rows(mc=False), CriteriaConfig(max_ks=0.02))

    def test_csv_schema(self):
        rep = _report(CriteriaConfig(), _rows(mc=False))
        text = report_rows_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == REPORT_CSV_HEADER
        assert lines[1].startswith("100,0.3,0.05,,,")
