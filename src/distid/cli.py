"""Command-line front end: config parsing, experiment runs, CSV/JSON output.

Subcommands
-----------
  distid bounds    --config FILE   pairwise-sum bound reports over n_grid
  distid simulate  --config FILE   Monte Carlo error estimates + matching bounds
  distid lemma     --config FILE   mean-gain inequality / expansion-identity sweep
  distid exponent  --config FILE   pairwise error-exponent fit over n_grid
  distid sweep     --config FILE   identifiability trend along a family sequence

Common flags (each overrides the config file): --config PATH, --seed U64,
--out PATH, --format csv|json, --workers INT.

Config file format: one `key = value` pair per line; blank lines and lines
starting with `#` are ignored.  Values are Python literals (numbers,
strings, booleans, nested lists).  Unknown keys are hard errors.

Keys
----
  all commands:    seed (default 0x5EED), out (default distid_<command>.<format>),
                   format ("csv" | "json", default csv), workers (default 1)
  family block:    family.kind = "explicit" | "binary-grid" | "random-simplex"
                   explicit:       family.pmfs = [[...], ...]
                   binary-grid:    family.size, family.theta_min, family.theta_max
                   random-simplex: family.size, family.alphabet, family.seed
  bounds:          family.*, and n = INT or n_grid = [INT, ...]
  simulate:        family.*, n or n_grid, trials
  lemma:           k, r (INT or "all"), trials (random graphs per (k, r))
  exponent:        family.* (exactly 2 members), n_grid, trials
  sweep:           family.* as the template (explicit templates are truncated
                   to the first A_n members; parametric ones are rebuilt per n;
                   omit family.size), growth.kind = "constant" | "polynomial" |
                   "exponential" with growth.size / growth.degree / growth.rate,
                   n_grid, pairs_budget

Exit codes: 0 success, 2 config parse or validation error, 3 precondition
violation in an operation, 4 I/O failure.

CSV output starts with a header row; floats are printed with 17 significant
digits so values round-trip exactly.  JSON carries the nested reports.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bounds as bounds_mod
from . import graphs, mc
from .bounds import _cell
from .distributions import make_family, philox_stream

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

DEFAULT_SEED = 0x5EED

_COMMANDS = ("bounds", "simulate", "lemma", "exponent", "sweep")

_COMMON_KEYS = {"seed", "out", "format", "workers"}
_FAMILY_KEYS = {"family.kind", "family.pmfs", "family.size", "family.theta_min",
                "family.theta_max", "family.alphabet", "family.seed"}
_GROWTH_KEYS = {"growth.kind", "growth.size", "growth.degree", "growth.rate"}

_KEYS_BY_COMMAND = {
    "bounds": _COMMON_KEYS | _FAMILY_KEYS | {"n", "n_grid"},
    "simulate": _COMMON_KEYS | _FAMILY_KEYS | {"n", "n_grid", "trials"},
    "lemma": _COMMON_KEYS | {"k", "r", "trials"},
    "exponent": _COMMON_KEYS | _FAMILY_KEYS | {"n_grid", "trials"},
    "sweep": _COMMON_KEYS | _FAMILY_KEYS | _GROWTH_KEYS | {"n_grid", "pairs_budget"},
}


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a flat dict.

    Values are Python literals.  Reports syntax errors with their line
    number; duplicate keys are errors.
    """
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if not key or not all(part.isidentifier() for part in key.split(".")):
            raise ConfigError(f"line {lineno}: invalid key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = ast.literal_eval(value_text)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(
                f"line {lineno}: cannot parse value for {key!r}: {exc}") from None
    return out


def _expect(raw: dict, key: str, types, what: str):
    value = raw[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be {what}, got {value!r}")
    return value


def _int_list(raw: dict, key: str) -> tuple[int, ...]:
    value = raw[key]
    if (not isinstance(value, (list, tuple)) or not value
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in value)):
        raise ConfigError(f"key {key!r} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass
class RunConfig:
    """Validated settings for one CLI run."""

    command: str
    seed: int = DEFAULT_SEED
    out: str = ""
    format: str = "csv"
    workers: int = 1
    family: dict | None = None
    growth: dict | None = None
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    trials: int = 10_000
    k: int | None = None
    r: object = None  # int or "all"
    pairs_budget: int = bounds_mod.DEFAULT_PAIRS_BUDGET


def build_config(command: str, raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate raw key-value pairs (plus flag overrides) into a RunConfig."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    raw = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    allowed = _KEYS_BY_COMMAND[command]
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")

    cfg = RunConfig(command=command)
    if "seed" in raw:
        cfg.seed = _expect(raw, "seed", int, "an integer")
        if not 0 <= cfg.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {cfg.seed}")
    if "format" in raw:
        fmt = _expect(raw, "format", str, "a string")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
        cfg.format = fmt
    cfg.out = (_expect(raw, "out", str, "a string") if "out" in raw
               else f"distid_{command}.{cfg.format}")
    if "workers" in raw:
        cfg.workers = _expect(raw, "workers", int, "an integer")
        if cfg.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {cfg.workers}")
    if "trials" in raw:
        cfg.trials = _expect(raw, "trials", int, "an integer")
        if cfg.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {cfg.trials}")

    family_keys = {k: v for k, v in raw.items() if k.startswith("family.")}
    if family_keys:
        cfg.family = {k.split(".", 1)[1]: v for k, v in family_keys.items()}

    if "n" in raw:
        cfg.n = _expect(raw, "n", int, "an integer")
        if cfg.n < 1:
            raise ConfigError(f"n must be >= 1, got {cfg.n}")
    if "n_grid" in raw:
        grid = _int_list(raw, "n_grid")
        if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ConfigError(
                f"n_grid must be strictly increasing positive integers, got {list(grid)}")
        cfg.n_grid = grid

    if command in ("bounds", "simulate"):
        if cfg.family is None:
            raise ConfigError(f"{command} needs a family.* block")
        if cfg.n is None and cfg.n_grid is None:
            raise ConfigError(f"{command} needs n or n_grid")
        if cfg.n is not None and cfg.n_grid is not None:
            raise ConfigError(f"{command} takes n or n_grid, not both")
    elif command == "lemma":
        if "k" not in raw:
            raise ConfigError("lemma needs k")
        cfg.k = _expect(raw, "k", int, "an integer")
        r = raw.get("r", "all")
        if r != "all" and (not isinstance(r, int) or isinstance(r, bool)):
            raise ConfigError(f"key 'r' must be an integer or 'all', got {r!r}")
        cfg.r = r
        if "trials" not in raw:
            cfg.trials = 1
    elif command == "exponent":
        if cfg.family is None:
            raise ConfigError("exponent needs a family.* block with 2 members")
        if cfg.n_grid is None:
            raise ConfigError("exponent needs n_grid")
    elif command == "sweep":
        if cfg.family is None:
            raise ConfigError("sweep needs a family.* template block")
        if "size" in cfg.family:
            raise ConfigError(
                "sweep templates take their size from the growth rule; "
                "remove family.size")
        if cfg.n_grid is None:
            raise ConfigError("sweep needs n_grid")
        growth_keys = {k: v for k, v in raw.items() if k.startswith("growth.")}
        if "growth.kind" not in growth_keys:
            raise ConfigError("sweep needs growth.kind")
        cfg.growth = {k.split(".", 1)[1]: v for k, v in growth_keys.items()}
        if "pairs_budget" in raw:
            cfg.pairs_budget = _expect(raw, "pairs_budget", int, "an integer")
            if cfg.pairs_budget < 1:
                raise ConfigError("pairs_budget must be >= 1")
    return cfg


def _growth_rule(growth: dict) -> bounds_mod.GrowthRule:
    kind = growth.get("kind")
    params = {"constant": "size", "polynomial": "degree", "exponential": "rate"}
    if kind not in params:
        raise ConfigError(f"growth.kind must be one of {sorted(params)}, got {kind!r}")
    param_key = params[kind]
    extra = set(growth) - {"kind", param_key}
    if extra:
        raise ConfigError(f"unexpected growth key(s) for {kind}: "
                          f"{', '.join('growth.' + k for k in sorted(extra))}")
    if param_key not in growth:
        raise ConfigError(f"{kind} growth needs growth.{param_key}")
    value = growth[param_key]
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"growth.{param_key} must be a number, got {value!r}")
    return bounds_mod.GrowthRule(kind=kind, param=float(value))


def _run_bounds(cfg: RunConfig):
    family = make_family(cfg.family)
    grid = cfg.n_grid if cfg.n_grid is not None else (cfg.n,)
    reports = [bounds_mod.BoundReport.from_family(family, n) for n in grid]
    return (bounds_mod.BoundReport.csv_header(), [r.csv_row() for r in reports],
            {"command": "bounds", "reports": [r.to_json_dict() for r in reports]})


def _run_simulate(cfg: RunConfig):
    family = make_family(cfg.family)
    grid = cfg.n_grid if cfg.n_grid is not None else (cfg.n,)
    estimates, reports = [], []
    for n in grid:
        estimates.append(mc.estimate_error_prob(
            family, n, cfg.trials, cfg.seed, workers=cfg.workers))
        reports.append(bounds_mod.BoundReport.from_family(family, n))
    header = (mc.McEstimate.csv_header(len(family))
              + bounds_mod.BoundReport.csv_header()[2:])  # n, A are already there
    rows = [est.csv_row() + rep.csv_row()[2:] for est, rep in zip(estimates, reports)]
    return header, rows, {"command": "simulate",
                          "estimates": [e.to_json_dict() for e in estimates],
                          "bounds": [r.to_json_dict() for r in reports]}


def _run_lemma(cfg: RunConfig):
    k = cfg.k
    if cfg.r == "all":
        r_values = list(range(2, k + 1))
    else:
        r_values = [cfg.r]
    header = ["kind", "k", "r", "trial", "lhs", "rhs", "holds"]
    rows: list[list[str]] = []
    checks, expansions = [], []
    for r in r_values:
        for trial in range(cfg.trials):
            rng = philox_stream(cfg.seed, (r << 32) + trial)
            weights = rng.random(k * (k - 1) // 2)
            graph = graphs.WeightedCompleteGraph(k, weights)
            res = graphs.check_mean_gain_bound(graph, r)
            checks.append((trial, res))
            rows.append([_cell(v) for v in ("mean-gain", k, r, trial,
                                             res.lhs, res.rhs, res.holds)])
        if r % 2 == 0 and k <= 6:
            exp_res = graphs.check_expansion_identities(k, r, seed=cfg.seed)
            expansions.append(exp_res)
            rhs = exp_res.incidence * exp_res.num_edges ** (r // 2)
            rows.append([_cell(v) for v in ("expansion", k, r, 0,
                                             exp_res.total_elements, rhs, exp_res.ok)])
    return header, rows, {
        "command": "lemma",
        "mean_gain": [{"k": res.k, "r": res.r, "trial": trial,
                       "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds}
                      for trial, res in checks],
        "expansion": [{"k": e.k, "r": e.r, "incidence": e.incidence,
                       "total_elements": e.total_elements,
                       "degree_per_edge": e.degree_per_edge,
                       "group_size": e.group_size, "ok": e.ok}
                      for e in expansions]}


def _run_exponent(cfg: RunConfig):
    family = make_family(cfg.family)
    if len(family) != 2:
        raise ConfigError(
            f"exponent needs a family of exactly 2 members, got {len(family)}")
    fit = mc.pairwise_error_exponent(family[0], family[1], cfg.n_grid,
                                     cfg.trials, cfg.seed, workers=cfg.workers)
    return (mc.ExponentFit.csv_header(), fit.csv_rows(),
            {"command": "exponent", "fit": fit.to_json_dict()})


def _run_sweep(cfg: RunConfig):
    spec = bounds_mod.FamilySequenceSpec(
        growth=_growth_rule(cfg.growth), template=cfg.family, n_grid=cfg.n_grid)
    report = bounds_mod.identifiability_trend(spec, pairs_budget=cfg.pairs_budget)
    print(f"verdict: {report.verdict}")
    return (bounds_mod.TrendReport.csv_header(), report.csv_rows(),
            {"command": "sweep", "trend": report.to_json_dict()})


# Each runner returns (CSV header, CSV rows, JSON payload); `run` writes one.
_RUNNERS = {
    "bounds": _run_bounds,
    "simulate": _run_simulate,
    "lemma": _run_lemma,
    "exponent": _run_exponent,
    "sweep": _run_sweep,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        header, rows, payload = _RUNNERS[cfg.command](cfg)
        if cfg.format == "csv":
            text = "\n".join(",".join(cells) for cells in [header, *rows]) + "\n"
        else:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        Path(cfg.out).write_text(text, encoding="ascii", newline="\n")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"{cfg.command}: wrote {len(rows)} row(s) to {cfg.out}")
    return 0


def _seed_flag(text: str) -> int:
    try:
        return int(text, 0)  # decimal or 0x-prefixed, as in a config file
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distid",
        description=("Identification experiments for families of finite-alphabet "
                     "distributions: bound reports, Monte Carlo error estimation, "
                     "cycle-gain inequality sweeps, exponent fits, and "
                     "identifiability trend sweeps."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
            ("bounds", "pairwise-sum bound reports over blocklengths"),
            ("simulate", "Monte Carlo error estimates with matching bounds"),
            ("lemma", "mean-gain inequality and expansion-identity checks"),
            ("exponent", "pairwise error-exponent fit"),
            ("sweep", "identifiability trend along a family sequence")]:
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--seed", type=_seed_flag, default=None,
                         help=f"64-bit seed (default {DEFAULT_SEED})")
        cmd.add_argument("--out", default=None, help="output path")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
        cmd.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        raw = parse_config(text)
        cfg = build_config(args.command, raw, overrides={
            "seed": args.seed, "out": args.out, "format": args.format,
            "workers": args.workers})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
