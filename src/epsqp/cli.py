"""Command-line entry point: run verification scenarios, export fields.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage
error (unknown scenario, bad flag, bad config file, an ``--out`` directory
that cannot be created), 3 a scenario raised (stderr names the scenario and
the exception type).  Reports go to stdout and are byte-identical across
repeated runs; wall-clock timing goes to stderr only.
"""

from __future__ import annotations

import os

# before numpy loads OpenBLAS: no report value goes through BLAS, whose idle pool would spin
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .scenarios import (
    REGISTRY,
    SCENARIO_ORDER,
    ScenarioConfig,
    ScenarioReport,
    run_scenario,
    to_json,
)

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsqp",
        description="phase-space quantum-distribution verification scenarios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario (or 'all') and print its report")
    run.add_argument("scenario", help="scenario name; see 'epsqp list'")
    run.add_argument("--grid-n", type=int, default=None, help="grid points per axis (power of two)")
    run.add_argument("--dt", type=float, default=None, help="time step for finite differences")
    run.add_argument(
        "--alphas",
        type=str,
        default=None,
        help="comma-separated shear parameters for the sweep (must include -0.5)",
    )
    run.add_argument("--out", type=str, default=None, help="directory for report.json and CSV exports")
    run.add_argument("--config", type=str, default=None, help="JSON file with config overrides")
    run.add_argument(
        "--fields",
        type=str,
        default=None,
        help="comma-separated field bundles to export as CSV (or 'all'); requires --out",
    )

    sub.add_parser("list", help="list registered scenarios")
    return parser


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _coerce(name: str, value):
    """A config-file value as the dataclass field's type: a JSON number, an integer
    for ``grid_n``, a list of numbers for ``alphas``.  Booleans, strings and
    fractional grid sizes are a ``TypeError``, never silently converted."""
    if name == "grid_n":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"expected an integer, got {value!r}")
        return value
    if name == "alphas":
        return tuple(_number(v) for v in value)
    return _number(value)


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        parser.error(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        parser.error("config file must hold a JSON object")
    overrides = {}
    for key, value in raw.items():
        if key not in _CONFIG_FIELDS:
            parser.error(f"unknown config key {key!r}")
        try:
            overrides[key] = _coerce(key, value)
        except (TypeError, OverflowError) as exc:
            parser.error(f"bad value for config key {key!r}: {exc}")
    return overrides


def _resolve_config(args, parser: argparse.ArgumentParser) -> ScenarioConfig:
    """defaults < config file < explicit flags."""
    overrides: dict = {}
    if args.config is not None:
        overrides.update(_load_config(args.config, parser))
    if args.grid_n is not None:
        overrides["grid_n"] = args.grid_n
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.alphas is not None:
        try:
            overrides["alphas"] = tuple(float(v) for v in args.alphas.split(","))
        except ValueError:
            parser.error("--alphas expects comma-separated numbers")
    try:
        return dataclasses.replace(ScenarioConfig(), **overrides)
    except (TypeError, ValueError) as exc:
        parser.error(f"bad configuration: {exc}")


def _write_csv(path: Path, bundle: dict) -> None:
    """One row per sample, ``%.17g`` coordinates, real and imaginary parts and a ``%d``
    masked flag, set where the value is NaN; a 2-D bundle's rows run over p within each q."""
    values = np.asarray(bundle["values"])
    masked = np.isnan(values)
    if bundle["kind"] == "2d":
        header = "q,p"
        axes = (
            np.broadcast_to(bundle["q"], values.shape),
            np.broadcast_to(np.asarray(bundle["p"])[:, None], values.shape),
        )
    else:
        header, axes = bundle["axis_name"], (bundle["axis"],)
    columns = [np.ravel(c, order="F") for c in (*axes, values.real, values.imag, masked)]
    np.savetxt(
        path, np.column_stack(columns), fmt=["%.17g"] * (len(columns) - 1) + ["%d"],
        delimiter=",", header=f"{header},re,im,masked", comments="",
    )


def _select_bundles(report: ScenarioReport, selector: str | None,
                    parser: argparse.ArgumentParser) -> dict:
    """The bundle builders ``--fields`` names ("scenario/name" under all); a usage error for unknown names."""
    if selector is None:
        return {}
    available = dict(report.field_bundles)
    for sub in report.subreports:
        available.update({f"{sub.name}/{name}": build for name, build in sub.field_bundles.items()})
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        parser.error("--fields got an empty selector")
    if names == ["all"]:
        names = sorted(available)
    else:
        unknown = [n for n in names if n not in available]
        if unknown:
            parser.error(
                f"unknown field bundle(s): {', '.join(unknown)}; "
                f"available: {', '.join(sorted(available)) or '(none)'}"
            )
    return {name: available[name] for name in names}


def _make_out_dir(out_dir: str, parser: argparse.ArgumentParser) -> list[Path]:
    """Create ``--out`` (a usage error if it cannot be); return the directories made."""
    out = Path(out_dir).resolve()
    made = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create the --out directory: {exc}")
    return made


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(n) for n in SCENARIO_ORDER + ("all",))
        for name in SCENARIO_ORDER + ("all",):
            print(f"{name:<{width}}  {REGISTRY[name][1]}")
        return 0

    if args.scenario not in REGISTRY:
        parser.error(
            f"unknown scenario {args.scenario!r}; choose from: "
            f"{', '.join(SCENARIO_ORDER + ('all',))}"
        )
    if args.fields is not None and args.out is None:
        parser.error("--fields requires --out")

    cfg = _resolve_config(args, parser)
    made = [] if args.out is None else _make_out_dir(args.out, parser)

    start = time.perf_counter()
    try:
        report = run_scenario(args.scenario, cfg)
        bundles = _select_bundles(report, args.fields, parser)  # before anything is printed or written
    except BaseException as exc:
        for directory in made:  # a run that prints no report leaves no --out directory
            directory.rmdir()
        if not isinstance(exc, Exception):  # the selector's usage error; what a scenario raises is exit 3
            raise
        import traceback  # imported on this path only: start-up imports stay as they were

        traceback.print_exc()
        print(f"numerical failure in scenario {args.scenario!r}: {exc!r}", file=sys.stderr)
        return 3
    elapsed = time.perf_counter() - start

    rendered = to_json(report)
    sys.stdout.write(rendered)
    print(f"scenario {args.scenario!r} finished in {elapsed:.2f}s", file=sys.stderr)

    if args.out is not None:
        (Path(args.out) / "report.json").write_text(rendered)
        for name, build in bundles.items():
            _write_csv(Path(args.out) / (name.replace("/", "--") + ".csv"), build())

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
