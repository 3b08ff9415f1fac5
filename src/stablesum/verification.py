"""Statistical verification machinery and convergence reports.

`verify` turns each N of its grid into one ReportRow (the Monte-Carlo ECF
and KS distances, plus the oracle sweep's distance and past part for exactly
stable innovations) and verdicts the rows against the [tolerance] criteria.
Each criterion is one entry of _CRITERIA: its [tolerance] key, its verdict
key, the ReportRow column it reads and its test.  CriteriaConfig is built
from the table, one field per key, and the CLI reads the [tolerance] keys
and their types from the fields, so each key is spelled once."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, make_dataclass

import numpy as np

__all__ = [
    "ecf",
    "ks_distance",
    "ReportRow",
    "CriteriaConfig",
    "ConvergenceReport",
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
class ReportRow:
    """One N of a verify run: the oracle sweep's distance and past part
    (None off the exactly stable family), the Monte-Carlo ECF and KS
    distances, and the N's wall time."""

    n: int
    oracle_distance: float | None
    past_part: float | None
    ecf_distance: float | None
    ks_marginal: float | None
    wall_time_s: float


def _decreasing(col, _):
    return all(a > b for a, b in zip(col, col[1:]))


def _ratio_below(col, ratio):
    return col[-1] < ratio * col[0]


def _max_below(col, bound):
    return max(col) < bound


# one entry per criterion: its [tolerance] key, which is also its
# CriteriaConfig field, its verdict key, the ReportRow column it reads, and
# its test of that column against the key's value
_CRITERIA = (
    ("require_decreasing", "distance_decreasing", "oracle_distance", _decreasing),
    ("max_distance_ratio", "distance_ratio", "oracle_distance", _ratio_below),
    ("require_decreasing_past", "past_decreasing", "past_part", _decreasing),
    ("max_past_ratio", "past_ratio", "past_part", _ratio_below),
    ("max_ks", "ks_max", "ks_marginal", _max_below),
    ("max_ecf", "ecf_max", "ecf_distance", _max_below),
)


def _columns(self) -> set:
    """The ReportRow columns that the configured criteria read."""
    return {column for _, column, _, _ in _configured(self)}


# thresholds to verdict against, one field per _CRITERIA key: a flag
# (default False) for a _decreasing test, else a number or None; None (or
# False) disables a check
CriteriaConfig = make_dataclass(
    "CriteriaConfig",
    [(key, bool, field(default=False)) if test is _decreasing
     else (key, "float | None", field(default=None)) for key, _, _, test in _CRITERIA],
    namespace={"__module__": __name__, "columns": _columns}, frozen=True)


def _configured(criteria: CriteriaConfig):
    """(verdict key, column, test, value) of each enabled criterion."""
    for name, key, column, test in _CRITERIA:
        value = getattr(criteria, name)
        if value is not None and value is not False:
            yield key, column, test, value


@dataclass
class ConvergenceReport:
    metadata: dict
    rows: list
    verdicts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())


def evaluate_verdicts(rows, criteria: CriteriaConfig) -> dict:
    """Pass/fail flag of each configured criterion, recomputable from the
    rows alone; a ValueError if a row lacks a column a criterion reads."""
    verdicts = {}
    for key, column, test, value in _configured(criteria):
        col = [getattr(r, column) for r in rows]
        if any(v is None for v in col):
            raise ValueError(f"criterion {key!r} reads the absent column {column!r}")
        verdicts[key] = test(col, value)
    return verdicts


def report_to_json(report: ConvergenceReport) -> str:
    """Deterministic JSON body: keys sorted, so equal reports give equal
    bytes, and only wall_time_s differs between runs of one config."""
    rows = [{"n": r.n, "oracle_distance": r.oracle_distance, "past_part": r.past_part,
             "ecf_distance": r.ecf_distance, "ks_marginal": r.ks_marginal,
             "wall_time_s": r.wall_time_s} for r in report.rows]
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
