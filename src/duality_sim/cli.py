"""Command-line interface.

Subcommands:
  run            one configured experiment (config file + flag overrides)
  sweep-epsilon  phase-space sweep over classical drive amplitudes
  sphere         all seven named cases for one stage

Exit codes: 0 success, 2 configuration error, 3 numeric-tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, NumericError
from .runner import (ExperimentConfig, _write_json, epsilon_sweep, load_config, read_config,
                     run, sphere_suite)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duality-sim",
                                     description="Double-slit double-cavity duality simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default="out/run", help="output directory")
    p_run.add_argument("--stage", type=int)
    p_run.add_argument("--case")
    p_run.add_argument("--alpha", type=float)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--theta-int", type=float, dest="theta_int")
    p_run.add_argument("--t-prime", type=float, dest="t_prime")
    p_run.add_argument("--mode", choices=["dispersive", "exact"])
    p_run.add_argument("--kick", choices=["slit", "local"])
    p_run.add_argument("--readout", choices=["trace", "quadrature"])
    p_run.add_argument("--theta", type=float, help="quadrature angle for --readout quadrature")
    p_run.add_argument("--chi", help="quadrature outcome, a number or 'most-probable'")

    p_sweep = sub.add_parser("sweep-epsilon", help="classical-amplitude sweep")
    p_sweep.add_argument("--level", required=True, choices=["b", "c"])
    p_sweep.add_argument("--values", default="0,1,3,5,9",
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--config", help="optional base config; flags override it")
    p_sweep.add_argument("--alpha", type=float)
    p_sweep.add_argument("--out", default="out/sweep-epsilon")

    p_sphere = sub.add_parser("sphere", help="run the seven named cases")
    p_sphere.add_argument("--stage", required=True, type=int, choices=[1, 2, 3])
    p_sphere.add_argument("--alpha", type=float)
    p_sphere.add_argument("--epsilon", type=float, help="stage 3 only")
    p_sphere.add_argument("--t-prime", type=float, dest="t_prime")
    p_sphere.add_argument("--config", help="optional base config; flags override it")
    p_sphere.add_argument("--out", default="out/sphere")
    return parser


def _apply_run_overrides(data: dict, args: argparse.Namespace) -> dict:
    for key in ("stage", "case", "alpha", "epsilon", "theta_int", "t_prime", "mode", "kick"):
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if args.readout == "trace":
        data["readout"] = "trace"
    elif args.readout == "quadrature" or args.theta is not None or args.chi is not None:
        chi = args.chi if args.chi is not None else "most-probable"
        if chi != "most-probable":
            try:
                chi = float(chi)
            except ValueError:
                raise ConfigError("--chi must be a number or 'most-probable'")
        data["readout"] = {"type": "quadrature",
                           "theta": args.theta if args.theta is not None else 0.0,
                           "chi": chi}
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    data = load_config(args.config).to_dict()
    data = _apply_run_overrides(data, args)
    result = run(ExperimentConfig.from_dict(data))
    result.write(args.out)
    vis = "undefined" if result.visibility is None else f"{result.visibility:.6g}"
    print(f"wrote {args.out} (V0={result.metrics.V0:.4g} D0={result.metrics.D0:.4g} "
          f"C0={result.metrics.C0:.4g} visibility={vis})")
    return 0


def _base_config(args: argparse.Namespace, stage: int, **defaults) -> ExperimentConfig:
    """The config at stage: each value from its flag, else the base file, else defaults."""
    # a base file may leave out stage and case; what it holds is checked as written
    data = {"stage": stage, "case": "V1", **(read_config(args.config) if args.config else {})}
    ExperimentConfig.from_dict(data)
    flags = {key: getattr(args, key, None) for key in ("alpha", "epsilon", "t_prime")}
    data = {**defaults, **data, **{k: v for k, v in flags.items() if v is not None},
            "stage": stage}
    if stage < 3:  # stages 1 and 2 have no classical drive: a file's epsilon is dropped
        if flags["epsilon"] is not None:
            raise ConfigError(f"--epsilon drives stage 3 only; stage {stage} runs without drive")
        data["epsilon"] = 0.0
    return ExperimentConfig.from_dict(data)


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("--values must be a comma-separated list of numbers")
    if not values:
        raise ConfigError("--values must name at least one epsilon")
    tags = [f"{eps:g}".replace("-", "m").replace(".", "p") for eps in values]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:  # one file per value: refuse values that would share one
            raise ConfigError(f"--values {values[tags.index(tag)]!r} and {values[i]!r} "
                              f"would both write qgrid_eps_{tag}.csv")
    base = _base_config(args, stage=3)
    points = epsilon_sweep(base, values, args.level)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    for tag, point in zip(tags, points):
        point.qgrid.to_csv(out / f"qgrid_eps_{tag}.csv")
        summary.append({"epsilon": point.epsilon,
                        "overlap_with_initial": point.overlap_with_initial})
    _write_json(out / "summary.json", {"level": args.level, "points": summary})
    print(f"wrote {out} ({len(points)} sweep points, level {args.level})")
    return 0


def _cmd_sphere(args: argparse.Namespace) -> int:
    results = sphere_suite(_base_config(args, args.stage, epsilon=3.0))
    out = Path(args.out)
    for name, result in results.items():
        result.write(out / name)
    print(f"wrote {out} ({len(results)} cases, stage {args.stage})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep-epsilon": _cmd_sweep, "sphere": _cmd_sphere}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
