"""Statistical verification machinery and convergence reports.

`verify` turns each N of its grid into one row, the dict that report.json
holds: n, the oracle sweep's distance and past part (None off the exactly
stable family), the Monte-Carlo ECF and KS distances, and the N's wall
time.  It verdicts the rows against the [tolerance] criteria.  Each
criterion is one entry of CRITERIA: its [tolerance] key, its verdict key,
the row column it reads and its test.  The CLI reads the [tolerance] keys
and whether each is a flag from the table, so each key is spelled once."""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "ecf",
    "ks_distance",
    "CRITERIA",
    "evaluate_verdicts",
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


def _decreasing(col, _):
    return all(a > b for a, b in zip(col, col[1:]))


def _ratio_below(col, ratio):
    return col[-1] < ratio * col[0]


def _max_below(col, bound):
    return max(col) < bound


# each [tolerance] key: its verdict key, the report column it reads and its
# test of that column against the key's value.  A key whose test is
# _decreasing is a flag, every other key a positive threshold; every test but
# _max_below compares N's, so verify refuses it on a one-N grid
CRITERIA = {
    "require_decreasing": ("distance_decreasing", "oracle_distance", _decreasing),
    "max_distance_ratio": ("distance_ratio", "oracle_distance", _ratio_below),
    "require_decreasing_past": ("past_decreasing", "past_part", _decreasing),
    "max_past_ratio": ("past_ratio", "past_part", _ratio_below),
    "max_ks": ("ks_max", "ks_marginal", _max_below),
    "max_ecf": ("ecf_max", "ecf_distance", _max_below),
}


def evaluate_verdicts(rows, criteria: dict) -> dict:
    """Pass/fail flag of each criterion of criteria (the enabled [tolerance]
    keys and their values), recomputable from the rows alone; a ValueError
    if a row lacks a column a criterion reads."""
    verdicts = {}
    for name, value in criteria.items():
        key, column, test = CRITERIA[name]
        col = [r[column] for r in rows]
        if any(v is None for v in col):
            raise ValueError(f"criterion {key!r} reads the absent column {column!r}")
        verdicts[key] = test(col, value)
    return verdicts


def report_to_json(metadata: dict, rows: list, verdicts: dict) -> str:
    """Deterministic JSON body: keys sorted, so equal reports give equal
    bytes, and only wall_time_s differs between runs of one config."""
    doc = {"metadata": metadata, "rows": rows, "verdicts": verdicts}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


REPORT_CSV_HEADER = "N,oracle_distance,past_part,ecf_distance,ks_marginal,wall_time"
# the row column of each CSV column after N
_CSV_COLUMNS = ("oracle_distance", "past_part", "ecf_distance", "ks_marginal", "wall_time_s")


def report_rows_to_csv(rows: list) -> str:
    def cell(v):
        return "" if v is None else repr(float(v))

    lines = [REPORT_CSV_HEADER]
    lines += [",".join([str(r["n"]), *(cell(r[c]) for c in _CSV_COLUMNS)]) for r in rows]
    return "\n".join(lines) + "\n"
