"""Benchmark workloads: the distid config each one runs, and its output checks.

Each workload is one CLI call.  The benchmark seed reaches the program
only through `--seed`; the config text does not depend on it.  Why each
workload is here is written in `why` and, at more length, in NOTES.md.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

DEFAULT_SEED = 0x5EED
# Seed that later gain claims must also hold on; do not tune against it.
HELD_OUT_SEED = 0xC0DE5EED

VERDICTS = ("identifiable-trend", "not-identifiable-trend", "inconclusive")

_BINARY_GRID = {"family.kind": "binary-grid", "family.theta_min": 0.1,
                "family.theta_max": 0.9}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int
    config: dict
    why: str

    def config_text(self) -> str:
        return "".join(f"{key} = {value!r}\n" for key, value in self.config.items())

    def grid(self) -> list[int]:
        return list(self.config.get("n_grid") or [self.config["n"]])

    def work_units(self) -> int:
        """Trials times grid points; pair evaluations for sweep."""
        if self.command == "sweep":
            return sum(a * (a - 1) // 2 for a in map(sweep_size, self.grid()))
        return self.config["trials"] * len(self.grid())


def sweep_size(n: int) -> int:
    """Family size A_n of the sweep workload's growth rule (degree 1.5)."""
    return math.ceil(n ** 1.5)


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_small_a", "simulate", workers=2,
        config={**_BINARY_GRID, "family.size": 4, "n_grid": [10, 20, 40, 95],
                "trials": 8192},
        why="A=4 Monte Carlo, ~94% identity decodes: per-call decoder cost and "
            "any screen show here first; the only threaded decoder path"),
    Workload(
        "mc_large_a", "simulate", workers=1,
        config={**_BINARY_GRID, "family.size": 32, "n": 40, "trials": 1024},
        why="A=32 Monte Carlo, every trial an error and tie-heavy rows: O(A^3) "
            "decoding, a screen that clears nothing, score memory; single-threaded"),
    Workload(
        "exponent_pair", "exponent", workers=2,
        config={"family.kind": "explicit", "family.pmfs": [[0.5, 0.5], [0.9, 0.1]],
                "n_grid": [10, 20, 30, 40, 50, 60, 70, 80], "trials": 1_000_000},
        why="swap-event Monte Carlo with no decoder: numpy sampling and the second "
            "thread-pool dispatch; decoder changes must leave it unchanged"),
    Workload(
        "sweep_growing", "sweep", workers=1,
        config={"family.kind": "random-simplex", "family.alphabet": 8,
                "family.seed": 7, "growth.kind": "polynomial", "growth.degree": 1.5,
                "n_grid": [16, 36, 64, 100], "pairs_budget": 500_000},
        why="family grows to A=1000 on m=8: O(A^2) distinctness check and the "
            "pairwise sum; bypasses mc and decoder"),
)}


def _header(workload: Workload) -> list[str]:
    if workload.command == "simulate":
        size = workload.config["family.size"]
        return (["n", "A", "trials", "errors", "p_hat", "stderr"]
                + [f"r{r}_count" for r in range(2, size + 1)]
                + ["single_cycle_fraction", "S", "log_S", "upper",
                   "upper_applicable", "lower"])
    if workload.command == "exponent":
        return ["n", "trials", "errors", "p_hat", "used_in_fit", "slope", "target"]
    return ["n", "A", "S", "log_S", "slope", "verdict"]


def _check_row(workload: Workload, n: int, row: dict) -> list[str]:
    problems = []
    if workload.command in ("simulate", "exponent"):
        trials, errors = int(row["trials"]), int(row["errors"])
        if trials != workload.config["trials"]:
            problems.append(f"trials {trials} != {workload.config['trials']}")
        if float(row["p_hat"]) != errors / trials:
            problems.append(f"p_hat {row['p_hat']} != errors/trials = {errors}/{trials}")
    if workload.command == "simulate":
        size = workload.config["family.size"]
        if int(row["A"]) != size:
            problems.append(f"A {row['A']} != {size}")
        hist = sum(int(row[f"r{r}_count"]) for r in range(2, size + 1))
        if hist != errors:
            problems.append(f"r-histogram sums to {hist}, errors is {errors}")
        if row["upper_applicable"] == "true" and float(row["p_hat"]) > float(row["upper"]):
            problems.append(f"p_hat {row['p_hat']} above the upper bound {row['upper']}")
    if workload.command == "sweep":
        if int(row["A"]) != sweep_size(n):
            problems.append(f"A {row['A']} != ceil(n**1.5) = {sweep_size(n)}")
        if row["verdict"] not in VERDICTS:
            problems.append(f"verdict {row['verdict']!r} not in {VERDICTS}")
    return [f"n={n}: {p}" for p in problems]


def check_output(workload: Workload, text: str) -> list[str]:
    """Problems found in a workload's CSV output; empty when it passes."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        return ["output is empty"]
    header, rows = lines[0], lines[1:]
    expected = _header(workload)
    if header != expected:
        return [f"header {header} != {expected}"]
    grid = workload.grid()
    if len(rows) != len(grid):
        return [f"{len(rows)} rows, expected {len(grid)}"]
    problems = []
    for n, values in zip(grid, rows):
        if len(values) != len(header):
            problems.append(f"n={n}: {len(values)} columns, expected {len(header)}")
            continue
        row = dict(zip(header, values))
        try:
            if int(row["n"]) != n:
                problems.append(f"row n={row['n']}, expected {n}")
                continue
            problems += _check_row(workload, n, row)
        except ValueError as exc:
            problems.append(f"n={n}: unparsable value: {exc}")
    return problems
