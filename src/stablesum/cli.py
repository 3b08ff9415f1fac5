"""Command-line entry point: simulate | oracle | verify | halpha.

Configuration is a flat INI file with sections mirroring the run blocks
(process, simulate, fdd, sweep, tolerance); see scripts/configs/ for
annotated examples.  [simulate] n is the length of the simulated path.  The
[tolerance] keys are the keys of verification.CRITERIA, one per verdict
criterion.  All randomness flows from the [sweep] seed; a missing
seed is a configuration error, never an implicit clock seed.  `oracle`
writes oracle.csv and oracle.json, `verify` report.csv and report.json.

`--threads k` is accepted for compatibility (bench/run.py passes it; it
goes with ROADMAP item 23's benchmark half) and refused below 1, but
changes nothing and starts no thread: every command runs in the calling
thread, and OpenBLAS's own pool, which runs each `eps @ W` on the second
CPU, is a run's only parallelism.  `verify` computes the exact log-CF once
per N, in the oracle sweep, and takes its ECF target from the sweep row;
one sampling pass over the replicates serves every N
(linear_process.joint_fdd_sample).

Exit codes: 0 success (verify: all criteria pass), 1 runtime or criteria
failure (one "error:" line), 2 configuration error (one "config error:"
line) or usage error.  A run whose prefix sums, path or replicate sampling
would exceed the memory budget (linear_process.MEMORY_BUDGET_ELEMENTS
doubles) at its peak exits 1 before it allocates them.  Each contracted
input is a row of TABLE in tests/test_contracts.py.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cf_oracle, verification
from .innovations import ExactStable, InnovationSpec, ParetoTail
from .linear_process import (
    MAX_INDEX,
    FddSpec,
    ProcessSpec,
    default_truncation_depth,
    floor_index,
    joint_fdd_sample,
    simulate_path,
)
from .slowly_varying import (
    HAlphaConvergenceError,
    SlowlyVaryingSpec,
    h_alpha_info,
)
from .stable_law import StandardStable, cdf

__all__ = ["main", "ConfigError", "RunConfig", "parse_config"]


class ConfigError(Exception):
    pass


# simulate writes its CSV in blocks of this many rows, so that the path's n
# values are its only array that grows
_BLOCK_ROWS = 256


_KNOWN_KEYS = {
    "process": {"ell_kind", "ell_c", "ell_p", "innovation", "alpha", "beta",
                "scale", "sigma1", "sigma2", "h_kind", "h_c", "h_p", "x0",
                "truncation"},
    "simulate": {"n"},
    "fdd": {"times", "freqs"},
    "sweep": {"n_list", "reps", "seed", "j_tolerance", "sup_grid"},
    "tolerance": set(verification.CRITERIA),
}


@dataclass
class RunConfig:
    ell: SlowlyVaryingSpec
    innovation: InnovationSpec
    truncation: int | str       # an int or "auto"
    simulate_n: int | None
    fdd: FddSpec | None
    n_list: list | None
    reps: int | None
    seed: int | None
    j_tolerance: float
    sup_grid: bool
    criteria: dict              # the enabled [tolerance] keys and their values
    raw: dict


def _get(section, key, conv, default=None, required=False):
    """The converted value of key; a blank value counts as a missing key."""
    raw = section[key].strip() if key in section else ""
    if raw == "":
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def _bool(raw):
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _positive(raw):
    value = float(raw)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("need a finite number > 0")
    return value


def _float_list(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _int_list(raw):
    return [int(tok) for tok in raw.replace(",", " ").split()]


def _truncation(raw):
    if raw == "auto":
        return raw
    if not (raw.isascii() and raw.isdigit() and int(raw) >= 1):
        raise ValueError("need a positive integer or 'auto'")
    return int(raw)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _sv_spec(kind: str, c: float, p: float) -> SlowlyVaryingSpec:
    """The spec of the given kind; a constant ignores p."""
    return SlowlyVaryingSpec(kind, c, 0.0 if kind == "constant" else p)


def _sv_from(section, prefix):
    kind = _get(section, f"{prefix}_kind", str, default="constant")
    c = _get(section, f"{prefix}_c", float, default=1.0)
    p = _get(section, f"{prefix}_p", float, default=0.0)
    return _sv_spec(kind, c, p)


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # its message may span lines
        raise ConfigError("cannot parse config: " + " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(unknown)}")
    if "process" not in parser:
        raise ConfigError("missing [process] section")

    proc = parser["process"]
    # a spec's ValueError is a config error; _get and _require raise
    # ConfigError themselves
    try:
        ell = _sv_from(proc, "ell")
        family = _get(proc, "innovation", str, required=True)
        if family == "stable":
            innovation = ExactStable(_get(proc, "alpha", float, required=True),
                                     _get(proc, "beta", float, default=0.0),
                                     _get(proc, "scale", float, default=1.0))
        elif family == "pareto":
            innovation = ParetoTail(_get(proc, "alpha", float, required=True),
                                    _get(proc, "sigma1", float, required=True),
                                    _get(proc, "sigma2", float, required=True),
                                    _sv_from(proc, "h"),
                                    _get(proc, "x0", float, default=1.0))
        else:
            raise ConfigError(f"unknown innovation family {family!r}")

        truncation = _get(proc, "truncation", _truncation, default="auto")

        simulate_n = _get(parser["simulate"] if "simulate" in parser else {}, "n", int)
        _require(simulate_n is None or 1 <= simulate_n <= MAX_INDEX,
                 "need 1 <= [simulate] n <= 2**53")

        fdd = None
        if "fdd" in parser:
            times = _get(parser["fdd"], "times", _float_list, required=True)
            freqs = _get(parser["fdd"], "freqs", _float_list, required=True)
            fdd = FddSpec(tuple(times), tuple(freqs))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = parser["sweep"] if "sweep" in parser else {}
    n_list = _get(sweep, "n_list", _int_list)
    reps = _get(sweep, "reps", int)
    seed = _get(sweep, "seed", int)
    j_tol = _get(sweep, "j_tolerance", _positive, default=1e-8)
    sup_grid = _get(sweep, "sup_grid", _bool, default=False)
    _require(n_list is None or bool(n_list) and min(n_list) >= 1
             and all(b > a for a, b in zip(n_list, n_list[1:])),
             "need [sweep] n_list strictly increasing with every N >= 1")
    _require(n_list is None or n_list[-1] <= MAX_INDEX, "need every N of [sweep] n_list <= 2**53")
    _require(n_list is None or fdd is None or n_list[-1] * fdd.times[-1] <= MAX_INDEX,
             "need [N t_m] <= 2**53 for every N of [sweep] n_list")
    _require(reps is None or reps >= 2, "need [sweep] reps >= 2")
    _require(seed is None or seed >= 0, "need [sweep] seed >= 0")

    # a key whose test is _decreasing is a boolean flag, any other a positive
    # threshold, so only an absent key (None) and a false flag are falsy;
    # both leave their criterion out
    tol = parser["tolerance"] if "tolerance" in parser else {}
    values = {key: _get(tol, key, _bool if test is verification._decreasing else _positive)
              for key, (_, _, test) in verification.CRITERIA.items()}
    criteria = {key: value for key, value in values.items() if value}

    raw = {s: dict(parser[s]) for s in parser.sections()}
    return RunConfig(ell, innovation, truncation, simulate_n, fdd,
                     n_list, reps, seed, j_tol, sup_grid, criteria, raw)


def _atomic_write(path: Path, chunks) -> None:
    """Writes the strings of chunks, in turn, to path, or leaves it as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_truncation(cfg: RunConfig) -> int:
    if cfg.truncation != "auto":
        return int(cfg.truncation)
    return default_truncation_depth(cfg.ell, cfg.innovation)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("missing [sweep] seed (randomness requires an explicit seed)")
    return cfg.seed


def _check_law(cfg: RunConfig, n_list=()) -> None:
    """A ConfigError, before any work, for a law whose H_alpha(N), N of
    n_list, or whose draws would overflow a double: H_alpha first, so that
    a law failing both is refused on its H."""
    try:
        for n in n_list:
            cfg.innovation.h_alpha(n)
        cfg.innovation.check_draws()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.simulate_n is None:
        raise ConfigError("simulate needs [simulate] n")
    n = cfg.simulate_n
    _check_law(cfg)
    M = _resolve_truncation(cfg)
    path = simulate_path(ProcessSpec(cfg.ell, cfg.innovation, M), n, _require_seed(cfg))
    _atomic_write(out_dir / "simulate.csv", _path_csv(path))
    print(f"wrote {out_dir / 'simulate.csv'} ({n} rows)")
    return 0


def _path_csv(path: np.ndarray):
    """The lines of simulate.csv, _BLOCK_ROWS rows to a string."""
    yield "n,x\n"
    for start in range(0, len(path), _BLOCK_ROWS):
        block = path[start:start + _BLOCK_ROWS].tolist()
        yield "".join(f"{i},{x!r}\n" for i, x in enumerate(block, start=start + 1))


def _run_sweep(cfg: RunConfig):
    if not cfg.innovation.has_exact_log_cf:
        raise ConfigError("the CF oracle needs exactly stable innovations")
    if cfg.fdd is None or cfg.n_list is None:
        raise ConfigError("oracle needs [fdd] and [sweep] n_list")
    grid = cf_oracle.default_frequency_grid(cfg.fdd.m) if cfg.sup_grid else None
    return cf_oracle.cf_convergence_sweep(
        cfg.ell, cfg.innovation, cfg.fdd, cfg.n_list,
        tol=cfg.j_tolerance, freq_grid=grid)


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    rows = _run_sweep(cfg)
    lines = ["N,distance,past_part,wall_ms"]
    lines += [f"{r.n},{r.distance!r},{r.past_part!r},{r.wall_ms:.3f}" for r in rows]
    _atomic_write(out_dir / "oracle.csv", ["\n".join(lines) + "\n"])
    doc = {"config": cfg.raw,
           "rows": [{"n": r.n, "distance": r.distance, "past_part": r.past_part,
                     "window_part": r.window_part, "wall_ms": r.wall_ms,
                     "j_depth": r.j_depth, "tail_bound": r.tail_bound} for r in rows]}
    _atomic_write(out_dir / "oracle.json", [json.dumps(doc, indent=2, sort_keys=True) + "\n"])
    for r in rows:
        print(f"N={r.n} distance={r.distance:.6g} past_part={r.past_part:.6g}")
    return 0


def _marginal_cdf_target(cfg: RunConfig, W: np.ndarray, A: float):
    """The predicted marginal law of A_N^{-1} S(t_m): exact for a law with
    an exact log-CF, from the last column of the window weights W and A_N,
    and the Levy limit otherwise."""
    law = cfg.innovation
    if law.has_exact_log_cf:
        return law.weighted_sum(W[:, -1] / A)
    a = law.attractor
    return StandardStable.from_cf(a.alpha, a.sigma * cfg.fdd.times[-1], a.D)


def cmd_verify(cfg: RunConfig, out_dir: Path) -> int:
    """Oracle sweep (stable innovations only) plus Monte Carlo per N, one
    report row per N, verdicted against the [tolerance] criteria.

    The columns the criteria read are checked against the ones the
    innovation family produces (the oracle's distance and past part exist
    for exactly stable innovations only) before any work, as are a second N
    for a criterion that compares N's, [N t_m] >= 1 for every N and the law
    (_check_law).  The ECF target is the sweep row's
    exact log-CF for stable innovations and the Levy limit otherwise, so the
    exact log-CF is computed once per N; so are the window weights and A_N,
    which give the samples and the exact marginal law.  One
    joint_fdd_sample call guards the memory of the whole pass, builds every
    N's weights and A_N and draws every N's samples in one pass, each bit
    for bit those of its N alone; then ECF and KS run per N.  A row's
    wall_time_s holds its oracle row's time, its own ECF and KS, and a
    share of that call in proportion to its innovation count K_N.  With
    sup_grid the target comes from the call over the whole grid, at the
    same fixed past depth as a grid-free call and within both calls'
    tail_bound and round-off of its value; no shipped verify config sets
    sup_grid."""
    if cfg.fdd is None or cfg.n_list is None or cfg.reps is None:
        raise ConfigError("verify needs [fdd] and [sweep] n_list, reps")
    exact = cfg.innovation.has_exact_log_cf
    produced = {"ecf_distance", "ks_marginal"}
    if exact:
        produced |= {"oracle_distance", "past_part"}
    absent = sorted({verification.CRITERIA[key][1] for key in cfg.criteria} - produced)
    _require(not absent, f"[tolerance] criteria read {absent}, which only the oracle "
                         "sweep of exactly stable innovations produces")
    trend = [key for key in cfg.criteria
             if verification.CRITERIA[key][2] is not verification._max_below]
    _require(len(cfg.n_list) > 1 or not trend,
             f"[tolerance] {trend} compare N's, but [sweep] n_list has one N")
    _require(floor_index(cfg.n_list[0], cfg.fdd.times[-1]) >= 1,
             "need [N t_m] >= 1 for every N of [sweep] n_list")
    seed = _require_seed(cfg)
    _check_law(cfg, cfg.n_list)
    M = _resolve_truncation(cfg)
    process = ProcessSpec(cfg.ell, cfg.innovation, M)

    if exact:
        sweep = _run_sweep(cfg)
    else:
        sweep = [None] * len(cfg.n_list)
        limit = cf_oracle.limit_log_cf(cfg.innovation.attractor, cfg.fdd)

    t0 = time.perf_counter()
    joint = joint_fdd_sample(process, cfg.n_list, cfg.fdd, cfg.reps, seed)
    joint_s = time.perf_counter() - t0
    K_total = sum(W.shape[0] for W, _, _ in joint)
    rows = []
    for n, orow, (W, A, sample) in zip(cfg.n_list, sweep, joint):
        t0 = time.perf_counter()
        est, _ = verification.ecf(sample, cfg.fdd.freqs)
        target = limit if orow is None else orow.log_cf
        marginal = _marginal_cdf_target(cfg, W, A)
        ks = verification.ks_distance(sample[:, -1], lambda x: cdf(marginal, x))
        wall = time.perf_counter() - t0 + joint_s * W.shape[0] / K_total
        distance, past, oracle_s = ((None, None, 0.0) if orow is None else
                                    (orow.distance, orow.past_part, orow.wall_ms / 1e3))
        rows.append({"n": n, "oracle_distance": distance, "past_part": past,
                     "ecf_distance": float(abs(est - np.exp(target))),
                     "ks_marginal": float(ks), "wall_time_s": oracle_s + wall})

    metadata = {"config": cfg.raw, "seed": seed, "reps": cfg.reps,
                "truncation": M, "n_list": list(cfg.n_list)}
    verdicts = verification.evaluate_verdicts(rows, cfg.criteria)
    _atomic_write(out_dir / "report.json", [verification.report_to_json(metadata, rows, verdicts)])
    _atomic_write(out_dir / "report.csv", [verification.report_rows_to_csv(rows)])
    passed = all(verdicts.values())
    n_pass = sum(verdicts.values())
    print(f"verdict={'PASS' if passed else 'FAIL'} ({n_pass}/{len(verdicts)} criteria)")
    return 0 if passed else 1


def cmd_halpha(args) -> int:
    try:
        result = h_alpha_info(_sv_spec(args.kind, args.c, args.p), args.alpha, args.n)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HAlphaConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"last_iterate={exc.last_iterate!r}")
        print(f"residual={exc.residual!r}")
        return 1
    print(f"h_alpha={result.value!r}")
    print(f"residual={result.residual!r}")
    print(f"iterations={result.iterations}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stablesum",
                                     description="heavy-tailed linear process toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "oracle", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default="out")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed-override", type=int, default=None)
    p = sub.add_parser("halpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--kind", choices=("constant", "log_power"), default="constant")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--n", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "halpha":
        return cmd_halpha(args)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    try:
        cfg = parse_config(args.config)
        if args.seed_override is not None:
            _require(args.seed_override >= 0, "need --seed-override >= 0")
            cfg.seed = args.seed_override
        out_dir = Path(args.out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir)
        return cmd_verify(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
