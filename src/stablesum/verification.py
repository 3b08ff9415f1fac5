"""Statistical verification machinery and convergence reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ecf",
    "ks_distance",
    "MCRow",
    "ReportRow",
    "CriteriaConfig",
    "ConvergenceReport",
    "build_report",
    "report_to_json",
    "report_rows_to_csv",
    "REPORT_CSV_HEADER",
]


def ecf(samples: np.ndarray, u) -> tuple:
    """Empirical CF (1/reps) sum_r exp(i <u, sample_r>) and its standard error.

    The summands are bounded by 1, so the per-component standard error is at
    most 1/sqrt(reps).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    reps = samples.shape[0]
    if reps < 2:
        raise ValueError("need at least 2 replicates")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (samples.shape[1],):
        raise ValueError("frequency vector does not match the sample width")
    z = np.exp(1j * (samples @ u))
    est = complex(np.mean(z))
    se = max(float(np.std(z.real)), float(np.std(z.imag))) / np.sqrt(reps)
    return est, se


def ks_distance(samples, cdf) -> float:
    """sup_x |empirical CDF - cdf(x)| over the sample's jump points.

    cdf maps the sorted sample, as one array, to the array of its values.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("need a nonempty sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("need finite samples")
    F = np.asarray(cdf(xs), dtype=float)
    if F.shape != xs.shape:
        raise ValueError("cdf must return one value per sample point")
    k = np.arange(1, n + 1)
    d_plus = np.max(k / n - F)
    d_minus = np.max(F - (k - 1) / n)
    return float(max(d_plus, d_minus, 0.0))


@dataclass(frozen=True)
class MCRow:
    n: int
    ecf_distance: float
    ks_marginal: float
    wall_time_s: float


@dataclass(frozen=True)
class ReportRow:
    n: int
    oracle_distance: float | None
    past_part: float | None
    ecf_distance: float | None
    ks_marginal: float | None
    wall_time_s: float


@dataclass(frozen=True)
class CriteriaConfig:
    """Thresholds to verdict against; None disables a check."""

    max_ks: float | None = None
    max_ecf_distance: float | None = None
    require_decreasing_distance: bool = False
    max_distance_ratio: float | None = None
    require_decreasing_past: bool = False
    max_past_ratio: float | None = None


@dataclass
class ConvergenceReport:
    metadata: dict
    rows: list
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def _column(rows, name):
    vals = [getattr(r, name) for r in rows]
    return None if any(v is None for v in vals) else vals


def evaluate_verdicts(rows, criteria: CriteriaConfig) -> dict:
    """Pass/fail flags recomputable from the rows alone."""
    verdicts = {}
    dist = _column(rows, "oracle_distance")
    past = _column(rows, "past_part")
    ks = _column(rows, "ks_marginal")
    ecf_d = _column(rows, "ecf_distance")

    def need(col, label):
        if col is None:
            raise ValueError(f"criterion {label!r} configured but its column is absent")
        return col

    if criteria.require_decreasing_distance:
        col = need(dist, "require_decreasing_distance")
        verdicts["distance_decreasing"] = all(a > b for a, b in zip(col, col[1:]))
    if criteria.max_distance_ratio is not None:
        col = need(dist, "max_distance_ratio")
        verdicts["distance_ratio"] = col[-1] < criteria.max_distance_ratio * col[0]
    if criteria.require_decreasing_past:
        col = need(past, "require_decreasing_past")
        verdicts["past_decreasing"] = all(a > b for a, b in zip(col, col[1:]))
    if criteria.max_past_ratio is not None:
        col = need(past, "max_past_ratio")
        verdicts["past_ratio"] = col[-1] < criteria.max_past_ratio * col[0]
    if criteria.max_ks is not None:
        col = need(ks, "max_ks")
        verdicts["ks_max"] = max(col) < criteria.max_ks
    if criteria.max_ecf_distance is not None:
        col = need(ecf_d, "max_ecf_distance")
        verdicts["ecf_max"] = max(col) < criteria.max_ecf_distance
    return verdicts


def build_report(oracle_rows, mc_rows, criteria: CriteriaConfig,
                 metadata: dict | None = None) -> ConvergenceReport:
    """Merge oracle-sweep and Monte-Carlo rows on their N grids and verdict.

    Either result set may be None (its columns are reported absent); when both
    are present their N grids must agree.
    """
    if oracle_rows is None and mc_rows is None:
        raise ValueError("need at least one result set")
    o_ns = [r.n for r in oracle_rows] if oracle_rows else None
    m_ns = [r.n for r in mc_rows] if mc_rows else None
    if o_ns is not None and m_ns is not None and o_ns != m_ns:
        raise ValueError("oracle and Monte-Carlo N grids differ")
    ns = o_ns if o_ns is not None else m_ns
    if len(set(ns)) != len(ns):
        raise ValueError("duplicate N in result rows")

    rows = []
    for idx, n in enumerate(ns):
        orow = oracle_rows[idx] if oracle_rows else None
        mrow = mc_rows[idx] if mc_rows else None
        rows.append(ReportRow(
            n=n,
            oracle_distance=orow.distance if orow else None,
            past_part=orow.past_part if orow else None,
            ecf_distance=mrow.ecf_distance if mrow else None,
            ks_marginal=mrow.ks_marginal if mrow else None,
            wall_time_s=(orow.wall_ms / 1e3 if orow else 0.0)
                        + (mrow.wall_time_s if mrow else 0.0),
        ))
    verdicts = evaluate_verdicts(rows, criteria)
    return ConvergenceReport(dict(metadata or {}), rows, verdicts)


def report_to_json(report: ConvergenceReport, *, include_timing: bool = True) -> str:
    """Deterministic JSON body; timing excluded for byte-identity checks."""
    rows = []
    for r in report.rows:
        d = {"n": r.n, "oracle_distance": r.oracle_distance,
             "past_part": r.past_part, "ecf_distance": r.ecf_distance,
             "ks_marginal": r.ks_marginal}
        if include_timing:
            d["wall_time_s"] = r.wall_time_s
        rows.append(d)
    doc = {"metadata": report.metadata, "rows": rows, "verdicts": report.verdicts}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


REPORT_CSV_HEADER = "N,oracle_distance,past_part,ecf_distance,ks_marginal,wall_time"


def report_rows_to_csv(report: ConvergenceReport) -> str:
    def cell(v):
        return "" if v is None else repr(float(v))

    lines = [REPORT_CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([str(r.n), cell(r.oracle_distance), cell(r.past_part),
                               cell(r.ecf_distance), cell(r.ks_marginal),
                               cell(r.wall_time_s)]))
    return "\n".join(lines) + "\n"
