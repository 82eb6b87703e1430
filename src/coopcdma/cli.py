"""Command-line front end: config parsing, experiment dispatch, result files.

Configuration comes from a flat key=value text file plus flag overrides (flags
win). Results are emitted as CSV or JSON with 17-significant-digit numbers so
seeded runs can be compared byte for byte; every result file gets a manifest
alongside the curves in the JSON form.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__, harness, validation
from .errors import ConfigError
from .harness import ExperimentConfig

def _parse_bool(raw: str) -> bool:
    text = raw.lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


# each key's text is parsed by the exact type of its ExperimentConfig default,
# so a new field needs no edit here (type() is exact: a bool is not an int)
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_floats,
            str: str}
_KEY_PARSERS = {f.name: _PARSERS[type(f.default)]
                for f in dataclasses.fields(ExperimentConfig)}
KNOWN_KEYS = frozenset(_KEY_PARSERS)


def _coerce(key: str, raw):
    """Text parsed by the key's type; other values go to the config as given."""
    if key not in KNOWN_KEYS:
        raise ConfigError(f"{key}: unknown configuration key")
    if not isinstance(raw, str):
        return raw
    try:
        return _KEY_PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: invalid value {raw!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat key = value lines, each key once; '#' starts a comment."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"config: cannot read {path}: {reason}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key} given twice")
        values[key] = _coerce(key, raw)
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve defaults < config file < flag overrides into a full config."""
    values = read_config_file(path) if path is not None else {}
    for key, raw in (overrides or {}).items():
        if raw is not None:
            values[key] = _coerce(key, raw)
    return ExperimentConfig(**values)


def emit_config(cfg: ExperimentConfig) -> str:
    """Config serialized back to the flat file format (round-trippable)."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(f"{v:.17g}" for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def _environment() -> dict:
    """The Python and numpy versions and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


@dataclass
class RunManifest:
    """Provenance for one emitted result file."""

    config: dict
    version: str
    wall_time_s: float
    divergences: int
    outputs: list = field(default_factory=list)
    environment: dict = field(default_factory=_environment)


CSV_HEADER = "x_name,x_value,scheme,variant,ber_mean,ber_stderr,bit_count"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def curves_to_csv(curves) -> str:
    lines = [CSV_HEADER]
    for curve in curves:
        for x, mean, stderr, bits in curve.rows:
            lines.append(",".join([curve.x_name, _fmt(x), curve.scheme,
                                   curve.variant, _fmt(mean), _fmt(stderr),
                                   str(bits)]))
    return "\n".join(lines) + "\n"


def _json_number(v):
    """v, or None (null) for a non-finite float, which JSON cannot hold."""
    return v if not isinstance(v, float) or math.isfinite(v) else None


def curves_to_json(curves, manifest: RunManifest) -> str:
    payload = {
        "manifest": dataclasses.asdict(manifest),
        "curves": [{
            "x_name": c.x_name, "scheme": c.scheme, "variant": c.variant,
            "divergences": c.divergences,
            "rows": [{"x_value": _json_number(x),
                      "ber_mean": _json_number(mean),
                      "ber_stderr": _json_number(stderr),
                      "bit_count": bits} for x, mean, stderr, bits in c.rows],
        } for c in curves],
    }
    return json.dumps(payload, indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def emit_results(curves, manifest: RunManifest, fmt: str, out_path: str) -> None:
    """Write the aggregate curves to out_path, the manifest's one output."""
    manifest.outputs = [out_path]
    if fmt == "csv":
        text = curves_to_csv(curves)
    elif fmt == "json":
        text = curves_to_json(curves, manifest)
    else:
        raise ConfigError(f"format: unknown value {fmt!r}")
    with open(out_path, "w") as fh:
        fh.write(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int)
    # one trial count: --full-scale does not override --trials silently
    trials = parser.add_mutually_exclusive_group()
    trials.add_argument("--trials", type=int)
    parser.add_argument("--snr", help="SNR in dB; a comma-separated grid for sweep-snr")
    parser.add_argument("--users", help="comma-separated user counts (sweep-users) "
                                        "or a single count")
    parser.add_argument("--relays", type=int)
    parser.add_argument("--scheme", choices=harness.SCHEMES)
    parser.add_argument("--variant", choices=harness.VARIANTS)
    parser.add_argument("--out", default="results.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    trials.add_argument("--full-scale", action="store_true",
                        help="full-scale trial count (1000 packets per point)")


def _config_from_args(args) -> ExperimentConfig:
    overrides = {"seed": args.seed, "trials": args.trials,
                 "relays": args.relays, "scheme": args.scheme,
                 "variant": args.variant}
    if args.snr is not None:
        overrides["snr_grid"] = args.snr
    if args.users is not None and "," not in args.users:
        overrides["users"] = args.users
    elif args.users is not None and args.command != "sweep-users":
        raise ConfigError(f"users: a list of user counts ({args.users}) "
                          "is only valid for sweep-users")
    if args.full_scale:
        overrides["trials"] = 1000
    return parse_config(args.config, overrides)


def _users_grid(args):
    if args.users is None:
        return [2, 4, 6, 8]
    return [_coerce("users", v) for v in args.users.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coopcdma",
        description="Cooperative DS-CDMA joint power allocation and "
                    "interference suppression simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("sweep-snr", "BER versus SNR for one scheme"),
                       ("sweep-users", "BER versus user count at fixed SNR"),
                       ("learning-curve", "per-symbol BER convergence"),
                       ("validate", "run the built-in invariant suite")):
        p = sub.add_parser(name, help=desc)
        if name != "validate":
            _add_common(p)
    args = parser.parse_args(argv)

    if args.command == "validate":
        return 0 if validation.run_all() else 1

    try:
        cfg = _config_from_args(args)
        if not args.out:
            raise ConfigError("out: must name a file")
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ConfigError(f"out: directory of {args.out} does not exist")
        if os.path.isdir(args.out):
            raise ConfigError(f"out: {args.out} is a directory")
        users_grid = _users_grid(args) if args.command == "sweep-users" else None
        start = time.perf_counter()
        if args.command == "sweep-snr":
            curve = harness.run_experiment(cfg)
        elif args.command == "sweep-users":
            curve = harness.run_user_sweep(cfg, users_grid)
        else:
            curve = harness.learning_curve(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start

    label = f"{curve.scheme}/{curve.variant}"
    if curve.x_name == "symbol":  # per-symbol rows go to the output file only
        print(f"{label}: {len(curve.rows)} symbol rows")
    else:
        for x, mean, stderr, bits in curve.rows:
            print(f"{label} {curve.x_name}={x}: ber={mean:.6g} "
                  f"stderr={stderr:.3g} bits={bits}")
    manifest = RunManifest(config=dataclasses.asdict(cfg), version=__version__,
                           wall_time_s=wall, divergences=curve.divergences)
    try:
        emit_results([curve], manifest, args.format, args.out)
    except OSError as exc:
        print(f"error: out: cannot write {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out} in {wall:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
