"""Command-line front end: config parsing, experiment runs, CSV/JSON output.

Subcommands
-----------
  distid bounds    --config FILE   pairwise-sum bound reports over n_grid
  distid simulate  --config FILE   Monte Carlo error estimates + matching bounds
  distid lemma     --config FILE   mean-gain inequality sweep over random graphs
  distid exponent  --config FILE   pairwise error-exponent fit over n_grid
  distid sweep     --config FILE   identifiability trend along a family sequence

Common flags (each overrides the config file): --config PATH, --seed U64,
--out PATH, --format csv|json, --workers INT.

Config file format: one `key = value` pair per line; blank lines and lines
starting with `#` are ignored.  Values are Python literals (numbers,
strings, booleans, nested lists).  Unknown keys are hard errors, and so
are family.* keys that the chosen family.kind does not take.  Values are
checked, before anything runs, by the library checks that use them.

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
  lemma:           k (2..10), r (INT or "all"), trials (random graphs per (k, r))
  exponent:        family.* (exactly 2 members), n_grid, trials
  sweep:           family.* as the template (explicit templates are truncated
                   to the first A_n members; parametric ones are rebuilt per n;
                   omit family.size), growth.kind = "constant" | "polynomial" |
                   "exponential" with growth.size / growth.degree / growth.rate,
                   n_grid, pairs_budget

Exit codes: 0 success; 2 the config text alone decides the error (say
family.size = 1, one explicit pmf row, a row that is not a pmf, rows of
unequal length, a 2-point exponent grid, a 3-member exponent family,
growth.size = 2.5, growth that gives a family size below 2 on the grid,
an explicit sweep template with fewer members than the growth asks for,
lemma r = 7 with k = 4); 3 a run found it (duplicate members, growth
overflow along the grid, a sweep over pairs_budget, too few exponent fit
points, a count above 2^63 - 1 that numpy's samplers would draw); 4 I/O.

Each subcommand is one `_COMMANDS` entry: help line, config keys (which
decide its config rules), runner, fewest n_grid points and family size.
A runner returns CSV rows, dicts from column name to value, and a JSON
payload; `run` alone writes one of them, the CSV as a header of the
first row's keys and one line of `_cell`s per row, with floats at 17
significant digits so that they round-trip exactly.

Each subcommand imports only the modules it runs: `bounds` in the
runners that report bounds and, for `sweep`, in `_allowed_keys` (the
growth keys) and `build_config` (the growth rule); `graphs` in the
`lemma` runner and in `build_config`, which checks k and r with it;
`mc` and `exact` in the runners that use them; `json` only for JSON
output; `argparse` only in `main`.  Importing this module loads
`distributions` alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .distributions import (_FAMILY_KIND_KEYS, _FIT_GRID_MIN, _TREND_GRID_MIN,
                            _check_family_spec, _check_grid, _check_seed, make_family,
                            philox_stream)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

DEFAULT_SEED = 0x5EED


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a flat dict.

    Values are Python literals.  A value that is not one is reported with
    its line, key and text; duplicate keys are errors.
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
        except (ValueError, TypeError, SyntaxError):
            # literal_eval's own message can name an AST node by its address
            raise ConfigError(
                f"line {lineno}: the value of {key!r} is not a Python literal: "
                f"{value_text!r} (values are numbers, booleans, lists or quoted "
                f"strings; a string needs quotes)") from None
    return out


def _expect(raw: dict, key: str, types, what: str):
    value = raw[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"key {key!r} must be {what}, got {value!r}")
    return value


def _at_least_one(raw: dict, key: str) -> int:
    value = _expect(raw, key, int, "an integer")
    if value < 1:
        raise ConfigError(f"{key} must be >= 1, got {value}")
    return value


class RunConfig(NamedTuple):
    """Validated settings for one CLI run, as `build_config` gives them."""

    command: str
    seed: int = DEFAULT_SEED
    out: str = ""
    format: str = "csv"
    workers: int = 1
    family: dict | None = None
    spec: object = None   # with a growth rule, a bounds.FamilySequenceSpec
    n_grid: tuple[int, ...] | None = None   # n = N is stored as (N,)
    trials: int = 10_000   # 1 where the command takes k
    k: int | None = None
    r: object = None  # int or "all"
    pairs_budget: int | None = None   # bounds.DEFAULT_PAIRS_BUDGET where it is taken


def _run_bounds(cfg: RunConfig):
    from . import bounds
    family = make_family(cfg.family)
    reports = [bounds.BoundReport.from_family(family, n) for n in cfg.n_grid]
    return [r.row() for r in reports], {"reports": [r.to_json_dict() for r in reports]}


def _run_simulate(cfg: RunConfig):
    from . import bounds, mc
    family = make_family(cfg.family)
    estimates = [mc.estimate_error_prob(family, n, cfg.trials, cfg.seed, workers=cfg.workers)
                 for n in cfg.n_grid]
    reports = [bounds.BoundReport.from_family(family, n) for n in cfg.n_grid]
    # the report's n and A equal the estimate's and keep their place
    rows = [{**est.row(), **rep.row()} for est, rep in zip(estimates, reports)]
    return rows, {"estimates": [e.to_json_dict() for e in estimates],
                  "bounds": [r.to_json_dict() for r in reports]}


def _run_lemma(cfg: RunConfig):
    from . import graphs
    k = cfg.k
    rows: list[dict] = []
    for r in range(2, k + 1) if cfg.r == "all" else [cfg.r]:
        for trial in range(cfg.trials):
            rng = philox_stream(cfg.seed, (r << 32) + trial)
            res = graphs.check_mean_gain_bound(k, rng.random(k * (k - 1) // 2), r)
            rows.append({"kind": "mean-gain", "k": k, "r": r, "trial": trial,
                         "lhs": res.lhs, "rhs": res.rhs, "holds": res.holds})
    return rows, {"mean_gain": [{key: value for key, value in row.items() if key != "kind"}
                                for row in rows]}


def _run_exponent(cfg: RunConfig):
    from . import exact
    family = make_family(cfg.family)
    fit = exact.pairwise_error_exponent(family[0], family[1], cfg.n_grid,
                                        cfg.trials, cfg.seed, workers=cfg.workers)
    return fit.rows(), {"fit": fit.to_json_dict()}


def _run_sweep(cfg: RunConfig):
    from . import bounds
    report = bounds.identifiability_trend(cfg.spec, pairs_budget=cfg.pairs_budget)
    print(f"verdict: {report.verdict}")
    return report.rows(), {"trend": report.to_json_dict()}


class _Command(NamedTuple):
    help: str
    keys: set[str]   # besides _COMMON_KEYS and the growth.kind parameter keys
    runner: Callable   # cfg -> (CSV rows, all with the same keys; JSON payload)
    grid_min: int = 1   # the fewest n_grid points
    members: int | None = None   # the family size the runner needs, if fixed


_COMMON_KEYS = {"seed", "out", "format", "workers"}
_FAMILY_KEYS = {"family.kind"} | {f"family.{key}" for keys in _FAMILY_KIND_KEYS.values()
                                   for key in keys}

_COMMANDS = {
    "bounds": _Command("pairwise-sum bound reports over blocklengths",
                       _FAMILY_KEYS | {"n", "n_grid"}, _run_bounds),
    "simulate": _Command("Monte Carlo error estimates with matching bounds",
                         _FAMILY_KEYS | {"n", "n_grid", "trials"}, _run_simulate),
    "lemma": _Command("mean-gain inequality checks on random weighted graphs",
                      {"k", "r", "trials"}, _run_lemma),
    "exponent": _Command("pairwise error-exponent fit", _FAMILY_KEYS | {"n_grid", "trials"},
                         _run_exponent, _FIT_GRID_MIN, members=2),
    "sweep": _Command("identifiability trend along a family sequence",
                      _FAMILY_KEYS | {"growth.kind", "n_grid", "pairs_budget"},
                      _run_sweep, _TREND_GRID_MIN),
}


def _allowed_keys(command: str) -> set[str]:
    """The config keys a command takes; its growth parameter keys load bounds."""
    keys = _COMMON_KEYS | _COMMANDS[command].keys
    if "growth.kind" not in keys:
        return keys
    from . import bounds
    return keys | {f"growth.{key}" for key in bounds.GrowthRule._PARAM_KEYS.values()}


def build_config(command: str, raw: dict, overrides: dict | None = None) -> RunConfig:
    """Validate raw key-value pairs (plus flag overrides) into a RunConfig.

    The known and required keys of each command and the literal types are
    checked here; every other rule is the library's own check, whose
    ValueError becomes a ConfigError.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    raw = {**raw, **{key: value for key, value in (overrides or {}).items()
                     if value is not None}}
    keys = _allowed_keys(command)
    unknown = set(raw) - keys
    if unknown:
        raise ConfigError(
            f"unknown key(s) for {command}: {', '.join(sorted(unknown))}")

    entry = _COMMANDS[command]
    cfg = {}   # the settings not set here keep RunConfig's defaults
    try:
        if "seed" in raw:
            cfg["seed"] = _check_seed(raw["seed"])
        fmt = cfg["format"] = (_expect(raw, "format", str, "a string")
                               if "format" in raw else "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
        cfg["out"] = (_expect(raw, "out", str, "a string") if "out" in raw
                      else f"distid_{command}.{fmt}")
        for key in ("workers", "trials"):
            if key in raw:
                cfg[key] = _at_least_one(raw, key)

        if "family.kind" in keys:
            family = cfg["family"] = {key.partition(".")[2]: value for key, value
                                      in raw.items() if key.startswith("family.")}
            _check_family_spec(family, template="growth.kind" in keys)
            if entry.members:   # checked before make_family builds every member
                size = len(family["pmfs"]) if family["kind"] == "explicit" else family["size"]
                if size != entry.members:
                    raise ConfigError(f"{command} needs a family of exactly "
                                      f"{entry.members} members, got {size}")
        if "n_grid" in keys:   # n = N stands for n_grid = [N] where it is a key
            grids = []
            if "n" in raw:
                grids.append((_at_least_one(raw, "n"),))
            if "n_grid" in raw:
                grid = _expect(raw, "n_grid", (list, tuple), "a list of integers")
                grids.append(_check_grid(grid, entry.grid_min))
            if len(grids) > 1:
                raise ConfigError(f"{command} takes n or n_grid, not both")
            if not grids:
                raise ConfigError(
                    f"{command} needs {'n or n_grid' if 'n' in keys else 'n_grid'}")
            cfg["n_grid"] = grids[0]
        if "k" in keys:
            if "k" not in raw:
                raise ConfigError(f"{command} needs k")
            k = cfg["k"] = _expect(raw, "k", int, "an integer")
            r = cfg["r"] = raw.get("r", "all")
            if r != "all" and (not isinstance(r, int) or isinstance(r, bool)):
                raise ConfigError(f"key 'r' must be an integer or 'all', got {r!r}")
            from . import graphs
            graphs._check_enumerable(k, 2 if r == "all" else r)
            cfg.setdefault("trials", 1)
        if "growth.kind" in keys:
            from . import bounds
            growth = bounds.GrowthRule._from_spec(
                {key.partition(".")[2]: value for key, value in raw.items()
                 if key.startswith("growth.")})
            cfg["spec"] = bounds.FamilySequenceSpec(growth, family, cfg["n_grid"])
            cfg["pairs_budget"] = (_at_least_one(raw, "pairs_budget")
                                   if "pairs_budget" in raw else bounds.DEFAULT_PAIRS_BUDGET)
    except (ValueError, OverflowError) as exc:   # a library check; ConfigError too
        raise ConfigError(str(exc)) from None
    return RunConfig(command, **cfg)


def _cell(value) -> str:
    """One CSV cell: None is nan, bools are true/false, floats keep 17
    significant digits so they parse back exactly, anything else is str."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    try:
        rows, payload = _COMMANDS[cfg.command].runner(cfg)
        if cfg.format == "csv":
            lines = [rows[0].keys(), *(map(_cell, row.values()) for row in rows)]
            text = "".join(",".join(cells) + "\n" for cells in lines)
        else:
            import json
            text = json.dumps({"command": cfg.command, **payload},
                              indent=2, sort_keys=True) + "\n"
        Path(cfg.out).write_text(text, encoding="ascii", newline="\n")
    except (ValueError, OverflowError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(f"{cfg.command}: wrote {len(rows)} row(s) to {cfg.out}")
    return 0


def main(argv=None) -> int:
    import argparse   # here, so that importing this module skips argparse

    def seed_flag(text: str) -> int:
        try:
            return int(text, 0)  # decimal or 0x-prefixed, as in a config file
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid seed {text!r}") from None

    parser = argparse.ArgumentParser(
        prog="distid",
        description=("Identification experiments for families of finite-alphabet "
                     "distributions: bound reports, Monte Carlo error estimation, "
                     "cycle-gain inequality sweeps, exponent fits, and "
                     "identifiability trend sweeps."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        cmd.add_argument("--config", required=True, help="path to a key=value config file")
        cmd.add_argument("--seed", type=seed_flag, default=None,
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
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
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
