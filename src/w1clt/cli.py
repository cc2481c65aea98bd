"""Command-line front end.

Subcommands: generate, w1, check, limit, experiment, compare, probe, report.
Each input has one source: a subcommand takes only the flags it reads, one
with a config takes no flag but --config, --out-dir and (experiment) --threads,
and every config key is either read or rejected.  Outputs have fixed names
under --out-dir.  Configs are JSON with schema_version 1 (see the README).
Exit codes: 0 on success, 1 on validation errors, 2 on numerical failures.
JSON output is strict: a non-finite number is written as null.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import conditions, harness, limitlaw
from .errors import (NumericalError, ValidationError, jsonable, read_key, read_tag,
                     reject_unknown_keys)
from .limitlaw import StatisticSample
from .models import model_from_dict
from .processes import coeffs_from_dict, generate, spec_from_dict
from .transport import w1_two_samples

__all__ = ["cli_main", "main"]

_GENERATE_KEYS = ("schema_version", "process", "n", "seed", "stream")
_LIMIT_KEYS = ("schema_version", "model", "grid", "replications", "seed")
_DEPENDENT_LIMIT_KEYS = ("process", "lag_cutoff", "sim_length")
_GRIDS = {"quantile": limitlaw.quantile_grid, "vartail": limitlaw.variance_length_grid}
_CHECK_KEYS = {
    "threshold": ("schema_version", "gamma", "a"),
    "phi": ("schema_version", "c1", "rho", "model"),
    "alpha": ("schema_version", "c_gamma", "gamma", "model"),
    "linear": ("schema_version", "coefficients", "innovation", "mode", "r", "marginal"),
}
_REPORT_KEYS = ("schema_version", "finite_n", "limit")


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict) or cfg.get("schema_version") != harness.SCHEMA_VERSION:
        raise ValidationError(f"config schema_version must be {harness.SCHEMA_VERSION}")
    return cfg


def _read_values(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return StatisticSample.read_csv_values(fh)


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _emit(obj, args, name: str) -> None:
    text = json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    print(text)
    with open(_out_path(args, name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _cmd_generate(args) -> int:
    what = "generate config"
    cfg = reject_unknown_keys(_load_config(args.config), _GENERATE_KEYS, what)
    spec = spec_from_dict(read_key(cfg, "process", dict, what))
    out = _out_path(args, "path.csv")
    path = generate(spec, read_key(cfg, "n", int, what), read_key(cfg, "seed", int, what, 0),
                    stream=read_key(cfg, "stream", int, what, 0))
    with open(out, "w", encoding="utf-8") as fh:
        path.to_csv(fh)
    print(out)
    return 0


def _cmd_w1(args) -> int:
    x = _read_values(args.x)
    y = _read_values(args.y)
    print(f"{w1_two_samples(x, y)!r}")
    return 0


def _cmd_check(args) -> int:
    cfg = _load_config(args.config)
    kind = read_tag(cfg, "kind", _CHECK_KEYS, "check config")
    what = f"{kind} check config"
    if kind == "threshold":
        report = conditions.check_intermittent_threshold(
            read_key(cfg, "gamma", float, what), read_key(cfg, "a", float, what)
        )
    elif kind == "phi":
        bound = conditions.PhiGeometric(read_key(cfg, "c1", float, what, 1.0),
                                        read_key(cfg, "rho", float, what))
        report = conditions.check_phi_condition(
            bound, model_from_dict(read_key(cfg, "model", dict, what))
        )
    elif kind == "alpha":
        bound = conditions.AlphaPolynomial(read_key(cfg, "c_gamma", float, what, 1.0),
                                           read_key(cfg, "gamma", float, what))
        report = conditions.check_alpha_condition(
            bound, model_from_dict(read_key(cfg, "model", dict, what))
        )
    else:
        marginal = read_key(cfg, "marginal", dict, what, None)
        report = conditions.check_linear_conditions(
            coeffs_from_dict(read_key(cfg, "coefficients", dict, what)),
            model_from_dict(read_key(cfg, "innovation", dict, what)),
            read_key(cfg, "mode", str, what),
            r=read_key(cfg, "r", float, what, None),
            marginal=None if marginal is None else model_from_dict(marginal),
        )
    _emit(report, args, "check.json")
    return 0


def _cmd_limit(args) -> int:
    what = "limit config"
    cfg = _load_config(args.config)
    dependent = "process" in cfg  # lag_cutoff and sim_length only mean something with it
    reject_unknown_keys(cfg, _LIMIT_KEYS + (_DEPENDENT_LIMIT_KEYS if dependent else ()), what)
    grid_cfg = reject_unknown_keys(cfg.get("grid", {}), ("size", "scheme"), "limit grid")
    scheme = read_key(grid_cfg, "scheme", str, "limit grid", "quantile")
    if scheme not in _GRIDS:
        raise ValidationError(f"limit grid scheme must be one of {sorted(_GRIDS)}, got {scheme!r}")
    size = read_key(grid_cfg, "size", int, "limit grid", 256)
    model = model_from_dict(read_key(cfg, "model", dict, what))
    seed = read_key(cfg, "seed", int, what, 0)
    replications = read_key(cfg, "replications", int, what, 10_000)
    out = _out_path(args, "limit.csv")
    grid = _GRIDS[scheme](model, size)
    if dependent:
        cg = limitlaw.covariance_dependent(
            spec_from_dict(cfg["process"]),
            grid,
            read_key(cfg, "lag_cutoff", int, what),
            read_key(cfg, "sim_length", int, what),
            seed,
        )
    else:
        cg = limitlaw.covariance_iid(model, grid)
    sample = limitlaw.sample_limit_functional(cg, replications, seed)
    with open(out, "w", encoding="utf-8") as fh:
        sample.to_csv(fh)
    _emit(
        {"covariance": {k: v for k, v in cg.to_dict().items() if k != "matrix"},
         "out": out, "metadata": sample.metadata},
        args, "limit.json",
    )
    return 0


def _cmd_experiment(args) -> int:
    cfg_dict = _load_config(args.config)
    cfg = harness.ExperimentConfig.from_dict(cfg_dict)
    samples = harness.run_clt_experiment(cfg, threads=args.threads)
    files = {}
    for n, sample in samples.items():
        out = _out_path(args, f"tn_{n}.csv")
        with open(out, "w", encoding="utf-8") as fh:
            sample.to_csv(fh)
        files[str(n)] = out
    _emit({"config": cfg_dict, "outputs": files}, args, "experiment.json")
    return 0


def _cmd_compare(args) -> int:
    # a statistic CSV does not say what it holds, so the verdict names the files
    a = StatisticSample(_read_values(args.a), "finite_n")
    b = StatisticSample(_read_values(args.b), "finite_n")
    report = harness.compare_distributions(a, b, names=(args.a, args.b))
    _emit(report, args, "compare.json")
    return 0


def _cmd_probe(args) -> int:
    report = harness.divergence_probe(
        args.gamma, args.a, args.n_values, args.replications, args.seed
    )
    _emit(report, args, "probe.json")
    return 0


def _cmd_report(args) -> int:
    what = "report config"
    cfg = reject_unknown_keys(_load_config(args.config), _REPORT_KEYS, what)
    finite_n = read_key(cfg, "finite_n", dict, what)
    finite = {}
    for key in finite_n:
        if not key.isdecimal() or int(key) in finite:
            raise ValidationError(f"{what} 'finite_n' keys must be distinct sample sizes, "
                                  f"got {key!r}")
        path = read_key(finite_n, key, str, f"{what} 'finite_n'")
        finite[int(key)] = StatisticSample(
            _read_values(path), "finite_n", metadata={"n": int(key)}
        )
    limit_sample = StatisticSample(
        _read_values(read_key(cfg, "limit", str, what)), "limit_functional"
    )
    report = harness.compare_against_limit(finite, limit_sample)
    _emit(report, args, "report.json")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is bad input: exit 1 through cli_main, not argparse's exit 2
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="w1clt",
        description="L1-Wasserstein empirical CLT simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = ("--config", {"required": True})
    threads = ("--threads", {"type": int, "default": 1, "help": (
        "processes computing T_n (>= 1): this one and forked helpers, at most one per "
        "usable CPU; 1 off Linux; outputs do not depend on it")})
    out_dir = ("--out-dir", {"default": "out"})
    commands = [
        ("generate", _cmd_generate, "simulate a trajectory to CSV", config, out_dir),
        ("w1", _cmd_w1, "exact W1 between two sample CSVs",
         ("--x", {"required": True}), ("--y", {"required": True})),
        ("check", _cmd_check, "evaluate a convergence condition", config, out_dir),
        ("limit", _cmd_limit, "covariance grid + limit functional sample", config, out_dir),
        ("experiment", _cmd_experiment, "finite-n Monte Carlo experiment",
         config, threads, out_dir),
        ("compare", _cmd_compare, "KS/W1/mean comparison of two statistic CSVs",
         ("--a", {"required": True}), ("--b", {"required": True}), out_dir),
        ("probe", _cmd_probe, "intermittent-map growth probe",
         ("--gamma", {"type": float, "required": True}),
         ("--a", {"type": float, "required": True}),
         ("--n-values", {"type": _int_list, "required": True}),
         ("--replications", {"type": int, "default": 200}),
         ("--seed", {"type": int, "default": 0}), out_dir),
        ("report", _cmd_report, "per-n comparison table against a limit sample",
         config, out_dir),
    ]
    for name, func, help_text, *flags in commands:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code == 0 else 1
    except (ValidationError, FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        diag = getattr(exc, "diagnostic", None)
        print(f"numerical failure: {exc}" + (f" [{diag}]" if diag else ""), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
