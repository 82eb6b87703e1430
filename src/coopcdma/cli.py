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
import sys
import time
from dataclasses import dataclass, field

from . import __version__, harness, validation
from .errors import ConfigError
from .harness import ExperimentConfig

def _parse_bool(raw) -> bool:
    text = str(raw).lower()  # a bool gives "true" or "false"
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _parse_floats(raw) -> tuple:
    items = raw if isinstance(raw, (tuple, list)) else str(raw).split(",")
    return tuple(float(v) for v in items)


# each key is parsed by the exact type of its ExperimentConfig default, so a
# new field needs no edit here (type() is exact: a bool default is not an int)
_PARSERS = {bool: _parse_bool, int: int, float: float, tuple: _parse_floats,
            str: str}
_KEY_PARSERS = {f.name: _PARSERS[type(f.default)]
                for f in dataclasses.fields(ExperimentConfig)}
KNOWN_KEYS = frozenset(_KEY_PARSERS)


def _coerce(key: str, raw):
    try:
        return _KEY_PARSERS[key](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: invalid value {raw!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys rejected."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{key}: unknown configuration key")
            values[key] = _coerce(key, raw)
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve defaults < config file < flag overrides into a full config."""
    values = {}
    if path:
        values.update(read_config_file(path))
    for key, raw in (overrides or {}).items():
        if raw is None:
            continue
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{key}: unknown configuration key")
        values[key] = _coerce(key, raw)
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def emit_config(cfg: ExperimentConfig) -> str:
    """Config serialized back to the flat file format (round-trippable)."""
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(f"{v:.17g}" for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    """Provenance for one emitted result file."""

    config: dict
    version: str
    wall_time_s: float
    divergences: int
    outputs: list = field(default_factory=list)


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


def curves_to_json(curves, manifest: RunManifest) -> str:
    payload = {
        "manifest": dataclasses.asdict(manifest),
        "curves": [{
            "x_name": c.x_name, "scheme": c.scheme, "variant": c.variant,
            "divergences": c.divergences,
            "rows": [{"x_value": x, "ber_mean": mean, "ber_stderr": stderr,
                      "bit_count": bits} for x, mean, stderr, bits in c.rows],
        } for c in curves],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_results(curves, manifest: RunManifest, fmt: str, out_path: str) -> list:
    """Write the aggregate curves; returns the written paths."""
    if fmt == "csv":
        text = curves_to_csv(curves)
    elif fmt == "json":
        manifest.outputs = [out_path]
        text = curves_to_json(curves, manifest)
    else:
        raise ConfigError(f"format: unknown value {fmt!r}")
    with open(out_path, "w") as fh:
        fh.write(text)
    manifest.outputs = [out_path]
    return [out_path]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--snr", help="comma-separated SNR grid in dB")
    parser.add_argument("--users", help="comma-separated user counts (sweep-users) "
                                        "or a single count")
    parser.add_argument("--relays", type=int)
    parser.add_argument("--scheme", choices=harness.SCHEMES)
    parser.add_argument("--variant", choices=harness.VARIANTS)
    parser.add_argument("--out", default="results.csv")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--full-scale", action="store_true",
                        help="full-scale trial count (1000 packets per point)")


def _config_from_args(args) -> ExperimentConfig:
    overrides = {"seed": args.seed, "trials": args.trials,
                 "relays": args.relays, "scheme": args.scheme,
                 "variant": args.variant}
    if args.snr:
        overrides["snr_grid"] = args.snr
    if args.users and "," not in args.users:
        overrides["users"] = args.users
    elif args.users and args.command != "sweep-users":
        raise ConfigError(f"users: a list of user counts ({args.users}) "
                          "is only valid for sweep-users")
    if args.full_scale:
        overrides["trials"] = 1000
    return parse_config(args.config, overrides)


def _users_grid(args):
    if not args.users:
        return [2, 4, 6, 8]
    grid = [_coerce("users", v) for v in args.users.split(",")]
    if min(grid) < 1:
        raise ConfigError(f"users: must be >= 1, got {min(grid)}")
    return grid


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
        users_grid = _users_grid(args) if args.command == "sweep-users" else None
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    if args.command == "sweep-snr":
        curves = [harness.run_experiment(cfg)]
    elif args.command == "sweep-users":
        snr = cfg.snr_grid[0]
        curves = [harness.run_user_sweep(cfg, users_grid, snr)]
    else:
        curves = [harness.learning_curve(cfg)]
    wall = time.perf_counter() - start

    for curve in curves:
        if len(curve.rows) > 30:  # per-symbol curves go to the output file only
            print(f"{curve.scheme}/{curve.variant}: {len(curve.rows)} "
                  f"{curve.x_name} rows")
            continue
        for x, mean, stderr, bits in curve.rows:
            print(f"{curve.scheme}/{curve.variant} {curve.x_name}={x}: "
                  f"ber={mean:.6g} stderr={stderr:.3g} bits={bits}")
    manifest = RunManifest(config=dataclasses.asdict(cfg), version=__version__,
                           wall_time_s=wall,
                           divergences=sum(c.divergences for c in curves))
    emit_results(curves, manifest, args.format, args.out)
    print(f"wrote {args.out} in {wall:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
