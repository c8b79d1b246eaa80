"""Command-line interface.

Subcommands:
  run            one configured experiment (config file + flag overrides)
  sweep-epsilon  phase-space sweep over classical drive amplitudes
  sphere         all seven named cases for one stage

Each builds its config by one rule (_config): a flag, else the file, else a default.

Exit codes: 0 success, 2 configuration error, 3 numeric-tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, NumericError
from .runner import (MOST_PROBABLE, ExperimentConfig, _write_json, epsilon_sweep, read_config,
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


# flags named after the config key they set; each subcommand's parser has some of them
_FLAG_KEYS = ("stage", "case", "alpha", "epsilon", "theta_int", "t_prime", "mode", "kick")


def _config(args: argparse.Namespace, stage: int | None = None, **defaults) -> ExperimentConfig:
    """The config a subcommand runs: each value from its flag, else the file, else defaults.

    The file is checked as written first.  stage, if given, is the subcommand's own: the
    file may then leave out stage and case, and below stage 3 its epsilon is dropped, so
    one file serves every stage.  A flag for a field the stage lacks is a ConfigError.
    """
    data = read_config(args.config) if args.config else {}
    if stage is not None:  # a base file without a stage is checked at 3, which has every field
        data = {"stage": 3, "case": "V1", **data}
    file_stage = ExperimentConfig.from_dict(data).stage  # the file, checked as written
    flags = {key: getattr(args, key) for key in _FLAG_KEYS if getattr(args, key, None) is not None}
    final = stage or flags.get("stage", file_stage)
    for key, first in (("alpha", 2), ("epsilon", 3)):  # the first stage that has the field
        if key in flags and final in range(1, first):
            raise ConfigError(f"--{key} needs stage {first} or above; this is stage {final}")
    data = {**defaults, **data, **flags, "stage": final}
    if stage in (1, 2):  # the subcommand's stage has no drive: the base file's is dropped
        data["epsilon"] = 0.0
    readout = {key: getattr(args, key) for key in ("theta", "chi")
               if getattr(args, key, None) is not None}
    if readout.get("chi", MOST_PROBABLE) != MOST_PROBABLE:
        try:
            readout["chi"] = float(readout["chi"])
        except ValueError:
            raise ConfigError("--chi must be a number or 'most-probable'")
    kind = getattr(args, "readout", None)
    if kind == "trace" and readout:
        raise ConfigError("--theta and --chi set a quadrature readout, not --readout trace")
    if kind == "trace":
        data["readout"] = "trace"
    elif kind == "quadrature" or readout:  # the same rule again: flag, else file, else default
        in_file = data.get("readout") if isinstance(data.get("readout"), dict) else {}
        data["readout"] = {**in_file, "type": "quadrature", **readout}
    return ExperimentConfig.from_dict(data)


def _cmd_run(args: argparse.Namespace) -> int:
    result = run(_config(args))
    result.write(args.out)
    vis = "undefined" if result.visibility is None else f"{result.visibility:.6g}"
    print(f"wrote {args.out} (V0={result.metrics.V0:.4g} D0={result.metrics.D0:.4g} "
          f"C0={result.metrics.C0:.4g} visibility={vis})")
    return 0


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
    points = epsilon_sweep(_config(args, stage=3), values, args.level)
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
    results = sphere_suite(_config(args, args.stage, epsilon=3.0))
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
