"""The benchmark workloads' output bytes, pinned in process.

Each workload in `bench/workloads.py` runs through `cli.main` with the
benchmark's default seed and worker count, as `bench/run.py` runs it;
the configs are read from there, not copied.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from distid import cli

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses looks its module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

# sha256 of each workload's CSV at seed 0x5EED, recorded with numpy 2.4.6 on
# Python 3.11.7.  The Monte Carlo workloads draw through numpy's Philox
# generator and its samplers, so another numpy release may change theirs.
GOLDEN = {
    "mc_small_a": "1ec13650c541748a1be094134ce08d4399edafecce4cd1f78664075a0ab58641",
    "mc_large_a": "96fd2df03de1b0b77219d1413329af2beb6cd8c03e000947e3a2f2931bd0bac0",
    "exponent_pair": "25e541d7f7db7f40340f6ae009098899ebb4ad847f83bab9032837aff31af8c5",
    "sweep_growing": "193389d7f7d8c6f139aa0eb83737704864d162aebdbe38c6c10d1041a8c6c14e",
}


def run_workload(tmp_path, name: str) -> bytes:
    workload = workloads.WORKLOADS[name]
    config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
    config.write_text(workload.config_text())
    assert cli.main([workload.command, "--config", str(config),
                     "--seed", str(workloads.DEFAULT_SEED), "--out", str(out),
                     "--workers", str(workload.workers)]) == 0
    return out.read_bytes()


def test_every_workload_is_pinned():
    assert sorted(GOLDEN) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_workload_output_bytes(tmp_path, name):
    text = run_workload(tmp_path, name)
    assert workloads.check_output(workloads.WORKLOADS[name], text.decode()) == []
    assert hashlib.sha256(text).hexdigest() == GOLDEN[name]


def test_the_growing_sweep_makes_one_kernel_pass(tmp_path, kernel_passes):
    # its random-simplex families are prefixes of one another: one pass over
    # the largest family's blocks gives every grid point's sum
    run_workload(tmp_path, "sweep_growing")
    grid = workloads.WORKLOADS["sweep_growing"].grid()
    assert kernel_passes == [workloads.sweep_size(grid[-1])]
