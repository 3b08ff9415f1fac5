"""Command-line entry point: simulate | oracle | verify | halpha.

Configuration is a flat INI file with sections mirroring the run blocks
(process, simulate, fdd, sweep, output, tolerance); see scripts/configs/ for
annotated examples.  All randomness flows from the [sweep] seed; a missing
seed is a configuration error, never an implicit clock seed.

Exit codes: 0 success (verify: all criteria pass), 1 runtime or criteria
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import cf_oracle, verification
from .innovations import (
    ExactStable,
    ParetoTail,
    exact_stable,
    innovation_cf_params,
    tail_constants,
)
from .linear_process import (
    FddSpec,
    ProcessSpec,
    default_truncation_depth,
    floor_index,
    normalized_fdd_sample,
    path_from_innovations,
    process_normalizer,
    simulate_path,
    window_weights,
)
from .slowly_varying import (
    HAlphaConvergenceError,
    SlowlyVaryingSpec,
    h_alpha_info,
)
from .stable_law import SkewedStableParams, cdf, from_standard, to_standard

__all__ = ["main", "ConfigError", "RunConfig", "parse_config"]


class ConfigError(Exception):
    pass


_HOOKS = ("hook_zero", "hook_const", "hook_impulse")

_KNOWN_KEYS = {
    "process": {"ell_kind", "ell_c", "ell_p", "innovation", "alpha", "beta",
                "scale", "sigma1", "sigma2", "h_kind", "h_c", "h_p", "x0",
                "hook_value", "truncation"},
    "simulate": {"n", "t"},
    "fdd": {"times", "freqs"},
    "sweep": {"n_list", "reps", "seed", "j_tolerance", "sup_grid"},
    "output": {"formats"},
    "tolerance": {"max_ks", "max_ecf", "require_decreasing",
                  "max_distance_ratio", "require_decreasing_past",
                  "max_past_ratio"},
}


@dataclass
class RunConfig:
    ell: SlowlyVaryingSpec
    innovation: object          # InnovationSpec or ("hook", kind, value)
    truncation: object          # int or "auto"
    simulate_n: int | None
    simulate_t: float | None
    fdd: FddSpec | None
    n_list: list | None
    reps: int | None
    seed: int | None
    j_tolerance: float
    sup_grid: bool
    formats: tuple
    criteria: verification.CriteriaConfig
    raw: dict


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section[key].strip()
    if raw == "":
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


def _sv_from(section, prefix):
    kind = _get(section, f"{prefix}_kind", str, default="constant")
    c = _get(section, f"{prefix}_c", float, default=1.0)
    p = _get(section, f"{prefix}_p", float, default=0.0)
    try:
        if kind == "constant":
            return SlowlyVaryingSpec("constant", c)
        return SlowlyVaryingSpec(kind, c, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
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
    ell = _sv_from(proc, "ell")
    family = _get(proc, "innovation", str, required=True)
    try:
        if family == "stable":
            innovation = exact_stable(_get(proc, "alpha", float, required=True),
                                      _get(proc, "beta", float, default=0.0),
                                      _get(proc, "scale", float, default=1.0))
        elif family == "pareto":
            innovation = ParetoTail(_get(proc, "alpha", float, required=True),
                                    _get(proc, "sigma1", float, required=True),
                                    _get(proc, "sigma2", float, required=True),
                                    _sv_from(proc, "h"),
                                    _get(proc, "x0", float, default=1.0))
        elif family in _HOOKS:
            innovation = ("hook", family, _get(proc, "hook_value", float, default=1.0))
        else:
            raise ConfigError(f"unknown innovation family {family!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    truncation = _get(proc, "truncation", _truncation, default="auto")

    sim = parser["simulate"] if "simulate" in parser else {}
    simulate_n = _get(sim, "n", int) if sim else None
    simulate_t = _get(sim, "t", float, default=1.0) if sim else None

    fdd = None
    if "fdd" in parser:
        times = _get(parser["fdd"], "times", _float_list, required=True)
        freqs = _get(parser["fdd"], "freqs", _float_list, required=True)
        try:
            fdd = FddSpec(tuple(times), tuple(freqs))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    sweep = parser["sweep"] if "sweep" in parser else {}
    n_list = _get(sweep, "n_list", _int_list) if sweep else None
    reps = _get(sweep, "reps", int) if sweep else None
    seed = _get(sweep, "seed", int) if sweep else None
    j_tol = _get(sweep, "j_tolerance", float, default=1e-8) if sweep else 1e-8
    sup_grid = _get(sweep, "sup_grid", _bool, default=False) if sweep else False

    formats = ("csv", "json")
    if "output" in parser:
        fmts = _get(parser["output"], "formats", str, default="csv, json")
        formats = tuple(tok.strip() for tok in fmts.split(",") if tok.strip())
        bad = set(formats) - {"csv", "json"}
        if bad:
            raise ConfigError(f"unknown output format(s): {sorted(bad)}")

    tol = parser["tolerance"] if "tolerance" in parser else {}
    criteria = verification.CriteriaConfig(
        max_ks=_get(tol, "max_ks", float) if tol else None,
        max_ecf_distance=_get(tol, "max_ecf", float) if tol else None,
        require_decreasing_distance=_get(tol, "require_decreasing", _bool, default=False) if tol else False,
        max_distance_ratio=_get(tol, "max_distance_ratio", float) if tol else None,
        require_decreasing_past=_get(tol, "require_decreasing_past", _bool, default=False) if tol else False,
        max_past_ratio=_get(tol, "max_past_ratio", float) if tol else None,
    )

    raw = {s: dict(parser[s]) for s in parser.sections()}
    return RunConfig(ell, innovation, truncation, simulate_n, simulate_t, fdd,
                     n_list, reps, seed, j_tol, sup_grid, formats, criteria, raw)


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_truncation(cfg: RunConfig) -> int:
    if cfg.truncation != "auto":
        return int(cfg.truncation)
    if isinstance(cfg.innovation, tuple):
        return 10_000
    alpha = tail_constants(cfg.innovation).alpha
    return default_truncation_depth(cfg.ell, cfg.innovation, alpha)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("missing [sweep] seed (randomness requires an explicit seed)")
    return cfg.seed


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> int:
    if cfg.simulate_n is None:
        raise ConfigError("simulate needs [simulate] n")
    n, t = cfg.simulate_n, cfg.simulate_t
    n_out = floor_index(n, t)
    if n_out < 1:
        raise ConfigError("need [N*t] >= 1")
    M = _resolve_truncation(cfg)
    if isinstance(cfg.innovation, tuple):
        _, kind, value = cfg.innovation
        K = n_out + M - 1
        if kind == "hook_zero":
            eps = np.zeros(K)
        elif kind == "hook_const":
            eps = np.full(K, value)
        else:  # impulse at j = 0, i.e. array index M-1
            eps = np.zeros(K)
            eps[M - 1] = 1.0
        path = path_from_innovations(cfg.ell, M, eps, n_out)
    else:
        process = ProcessSpec(cfg.ell, cfg.innovation, M)
        path = simulate_path(process, n, t, _require_seed(cfg))
    lines = ["n,x"] + [f"{i},{float(x)!r}" for i, x in enumerate(path, start=1)]
    _atomic_write(out_dir / "simulate.csv", "\n".join(lines) + "\n")
    print(f"wrote {out_dir / 'simulate.csv'} ({n_out} rows)")
    return 0


def _oracle_params(cfg: RunConfig) -> SkewedStableParams:
    if isinstance(cfg.innovation, tuple) or not isinstance(cfg.innovation, ExactStable):
        raise ConfigError("the CF oracle needs exactly stable innovations")
    return from_standard(cfg.innovation.law)


def _run_sweep(cfg: RunConfig, threads: int):
    params = _oracle_params(cfg)
    if cfg.fdd is None or cfg.n_list is None:
        raise ConfigError("oracle needs [fdd] and [sweep] n_list")
    policy = cf_oracle.JPolicy(tol=cfg.j_tolerance)
    grid = cf_oracle.default_frequency_grid(cfg.fdd.m) if cfg.sup_grid else None
    if threads <= 1:
        return cf_oracle.cf_convergence_sweep(cfg.ell, params, cfg.fdd, cfg.n_list,
                                              j_policy=policy, freq_grid=grid)

    def one(n):
        return cf_oracle.cf_convergence_sweep(cfg.ell, params, cfg.fdd, [n],
                                              j_policy=policy, freq_grid=grid)[0]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, cfg.n_list))


def cmd_oracle(cfg: RunConfig, out_dir: Path, threads: int) -> int:
    rows = _run_sweep(cfg, threads)
    if "csv" in cfg.formats:
        lines = ["N,distance,past_part,wall_ms"]
        lines += [f"{r.n},{r.distance!r},{r.past_part!r},{r.wall_ms:.3f}" for r in rows]
        _atomic_write(out_dir / "oracle.csv", "\n".join(lines) + "\n")
    if "json" in cfg.formats:
        import json
        doc = {"config": cfg.raw,
               "rows": [{"n": r.n, "distance": r.distance, "past_part": r.past_part,
                         "wall_ms": r.wall_ms, "j_depth": r.j_depth,
                         "tail_bound": r.tail_bound} for r in rows]}
        _atomic_write(out_dir / "oracle.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for r in rows:
        print(f"N={r.n} distance={r.distance:.6g} past_part={r.past_part:.6g}")
    return 0


def _marginal_cdf_target(cfg: RunConfig, N: int, M: int):
    """CDF of the predicted marginal law of A_N^{-1} S(t_m)."""
    from .stable_law import StandardStable

    fdd = cfg.fdd
    if isinstance(cfg.innovation, ExactStable):
        # a nonnegative-weight sum of i.i.d. stables keeps beta and scales by
        # the l^alpha norm of the weights
        law = cfg.innovation.law
        W = window_weights(cfg.ell, N, fdd.times, M)[:, -1]
        A = process_normalizer(ProcessSpec(cfg.ell, cfg.innovation, M),
                               law.alpha, N)
        agg = float(np.sum(np.abs(W / A) ** law.alpha)) ** (1.0 / law.alpha)
        return StandardStable(law.alpha, law.beta, law.scale * agg)
    params = innovation_cf_params(cfg.innovation)
    t_m = fdd.times[-1]
    return to_standard(SkewedStableParams(params.alpha, params.sigma * t_m, params.D))


def cmd_verify(cfg: RunConfig, out_dir: Path, threads: int) -> int:
    if cfg.fdd is None or cfg.n_list is None or cfg.reps is None:
        raise ConfigError("verify needs [fdd] and [sweep] n_list, reps")
    if isinstance(cfg.innovation, tuple):
        raise ConfigError("verify needs a random innovation family")
    seed = _require_seed(cfg)
    M = _resolve_truncation(cfg)
    process = ProcessSpec(cfg.ell, cfg.innovation, M)
    stable = isinstance(cfg.innovation, ExactStable)

    oracle_rows = _run_sweep(cfg, threads) if stable else None

    mc_rows = []
    for n in cfg.n_list:
        t0 = time.perf_counter()
        samples = normalized_fdd_sample(process, n, cfg.fdd, cfg.reps, seed,
                                        threads=threads)
        est, _ = verification.ecf(samples, cfg.fdd.freqs)
        if stable:
            target = cf_oracle.exact_fdd_log_cf(
                cfg.ell, from_standard(cfg.innovation.law), n, cfg.fdd,
                j_policy=cf_oracle.JPolicy(tol=cfg.j_tolerance)).value
        else:
            target = cf_oracle.limit_log_cf(innovation_cf_params(cfg.innovation),
                                            cfg.fdd)
        ecf_distance = abs(est - np.exp(target))
        marginal = _marginal_cdf_target(cfg, n, M)
        ks = verification.ks_distance(samples[:, -1], lambda x: cdf(marginal, x))
        mc_rows.append(verification.MCRow(n, float(ecf_distance), float(ks),
                                          time.perf_counter() - t0))

    metadata = {"config": cfg.raw, "seed": seed, "reps": cfg.reps,
                "truncation": M, "n_list": list(cfg.n_list)}
    report = verification.build_report(oracle_rows, mc_rows, cfg.criteria, metadata)
    if "json" in cfg.formats:
        _atomic_write(out_dir / "report.json", verification.report_to_json(report))
    if "csv" in cfg.formats:
        _atomic_write(out_dir / "report.csv", verification.report_rows_to_csv(report))
    passed = report.passed
    n_pass = sum(report.verdicts.values())
    print(f"verdict={'PASS' if passed else 'FAIL'} ({n_pass}/{len(report.verdicts)} criteria)")
    return 0 if passed else 1


def cmd_halpha(args) -> int:
    try:
        if args.kind == "constant":
            spec = SlowlyVaryingSpec("constant", args.c)
        else:
            spec = SlowlyVaryingSpec(args.kind, args.c, args.p)
        if not (1.0 < args.alpha <= 2.0):
            raise ValueError("need alpha in (1, 2]")
        if args.n < 1:
            raise ValueError("need N >= 1")
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        result = h_alpha_info(spec, args.alpha, args.n)
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
    args = _build_parser().parse_args(argv)
    if args.command == "halpha":
        return cmd_halpha(args)
    try:
        cfg = parse_config(args.config)
        if args.seed_override is not None:
            cfg.seed = args.seed_override
        out_dir = Path(args.out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir, args.threads)
        return cmd_verify(cfg, out_dir, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
