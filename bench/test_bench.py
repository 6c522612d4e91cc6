"""Tests of the benchmark's own logic: spans, self time, output checks.

Run from the repository root with `python3 -m pytest -q bench`.
"""

import json
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYERS, PACKAGE, layer_metrics, tied_matrices  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import Layer, Span, TraceError, Tracer, self_times, union_ns  # noqa: E402
from workloads import WORKLOADS, check_output  # noqa: E402


def span(sid, start, end, parent=0, name="x", thread=1):
    return Span(sid, name, start, end, thread, parent)


class TestSelfTime:
    def test_union_merges_overlaps_and_gaps(self):
        assert union_ns([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26
        assert union_ns([]) == 0

    def test_overlapping_children_count_once(self):
        # two worker-thread children overlap in [30, 40]
        spans = [span(1, 0, 100), span(2, 10, 40, 1, thread=2),
                 span(3, 30, 60, 1, thread=3)]
        own = self_times(spans)
        assert own == {1: 100 - 50, 2: 30, 3: 30}

    def test_nested_and_clipped_children(self):
        # 3 is a grandchild; 4 starts before its parent and is clipped
        spans = [span(1, 0, 100), span(2, 20, 80, 1), span(3, 30, 50, 2),
                 span(4, 90, 120, 1)]
        own = self_times(spans)
        assert own[1] == 100 - 60 - 10
        assert own[2] == 60 - 20
        assert own[3] == 20


@pytest.fixture
def fakepkg(monkeypatch):
    """A package 'fakepkg' whose 'user' module imports 'work' names directly."""
    pkg = types.ModuleType("fakepkg")
    work = types.ModuleType("fakepkg.work")
    user = types.ModuleType("fakepkg.user")

    def inner(delay):
        time.sleep(delay)
        return threading.get_ident()

    def outer(delays):
        with ThreadPoolExecutor(max_workers=len(delays)) as pool:
            return list(pool.map(work.inner, delays))

    class Report:
        @classmethod
        def build(cls, x):
            return work.inner(x)

    work.inner, work.outer, work.Report = inner, outer, Report
    user.inner = inner        # a "from .work import inner" reference
    for module in (pkg, work, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return work, user


FAKE_LAYERS = (Layer("work", "outer", "outer"), Layer("work", "inner", "inner"),
               Layer("work", "Report.build", "build"))


class TestTracer:
    def test_worker_spans_take_the_callers_span_as_parent(self, fakepkg):
        work, _ = fakepkg
        with Tracer("fakepkg", FAKE_LAYERS) as tracer:
            worker_threads = work.outer([0.05, 0.05])
        (top,) = [s for s in tracer.spans if s.name == "outer"]
        children = [s for s in tracer.spans if s.name == "inner"]
        assert top.parent == 0 and top.thread == threading.get_ident()
        assert len(children) == 2
        assert {s.parent for s in children} == {top.sid}
        assert {s.thread for s in children} == set(worker_threads)
        own = self_times(tracer.spans)
        covered = union_ns((s.start, s.end) for s in children)
        assert own[top.sid] == (top.end - top.start) - covered
        # the children ran at the same time, so their union is less than their sum
        assert covered < sum(s.end - s.start for s in children)

    def test_wraps_every_reference_and_restores(self, fakepkg):
        work, user = fakepkg
        inner, build = work.inner, work.Report.build
        with Tracer("fakepkg", FAKE_LAYERS) as tracer:
            user.inner(0)
            work.Report.build(0)
            assert user.inner is work.inner is not inner
        assert [s.name for s in tracer.spans] == ["inner", "inner", "build"]
        assert tracer.spans[1].parent == tracer.spans[2].sid
        assert user.inner is work.inner is inner
        assert work.Report.build == build

    def test_kept_arguments_and_result(self, fakepkg):
        work, _ = fakepkg
        with Tracer("fakepkg", (Layer("work", "inner", "inner", keep=True),)) as tracer:
            ident = work.inner(0)
        assert tracer.spans[0].kept == ((0,), ident)

    def test_missing_name_is_a_clear_error(self, fakepkg):
        work, _ = fakepkg
        inner = work.inner
        layers = FAKE_LAYERS + (Layer("work", "renamed_away", "gone"),)
        with pytest.raises(TraceError, match=r"fakepkg\.work\.renamed_away no longer exists"):
            Tracer("fakepkg", layers)
        assert work.inner is inner

    def test_every_distid_layer_exists(self):
        Tracer(PACKAGE, LAYERS).close()


def test_tied_matrices():
    counts = np.array([[[3, 1], [2, 2], [3, 1]],     # rows 0 and 2 tie
                       [[4, 0], [2, 2], [1, 3]]])
    assert tied_matrices(counts) == (1, 2)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: unit for name, (_, unit) in layer_metrics([], 1).items()}
    assert per_layer == {**metrics, "trace_overhead_frac": "fraction"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


def run_cli(workload, tmp_path):
    from distid import cli
    config = tmp_path / "w.cfg"
    config.write_text(workload.config_text())
    out = tmp_path / "out.csv"
    assert cli.main([workload.command, "--config", str(config), "--out", str(out),
                     "--workers", str(workload.workers)]) == 0
    return out.read_text()


def edit(text, row, column, value):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][lines[0].index(column)] = value
    return "\n".join(",".join(line) for line in lines) + "\n"


class TestOutputChecks:
    def test_simulate(self, tmp_path):
        workload = WORKLOADS["mc_small_a"]
        workload = replace(workload, config={**workload.config, "trials": 300})
        text = run_cli(workload, tmp_path)
        assert check_output(workload, text) == []
        # move one error from the r=2 bin to nowhere: the histogram no longer sums
        r2 = int(text.splitlines()[1].split(",")[6])
        assert "r-histogram sums to" in " ".join(
            check_output(workload, edit(text, 1, "r2_count", str(r2 - 1))))
        assert "p_hat" in " ".join(check_output(workload, edit(text, 2, "p_hat", "0.5")))
        assert "upper bound" in " ".join(check_output(workload, edit(
            edit(text, 1, "upper_applicable", "true"), 1, "upper", "0")))
        assert "rows" in " ".join(check_output(workload, text.rsplit("\n", 2)[0] + "\n"))
        dropped = "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines())
        assert check_output(workload, dropped) != []
        assert check_output(workload, "") == ["output is empty"]
        assert "unparsable" in " ".join(check_output(workload, edit(text, 1, "errors", "x")))

    def test_sweep(self, tmp_path):
        workload = WORKLOADS["sweep_growing"]
        workload = replace(workload, config={**workload.config, "n_grid": [4, 9, 16]})
        text = run_cli(workload, tmp_path)
        assert check_output(workload, text) == []
        assert "ceil(n**1.5)" in " ".join(check_output(workload, edit(text, 1, "A", "9")))
        assert "verdict" in " ".join(check_output(workload, edit(text, 2, "verdict", "yes")))

    def test_exponent(self, tmp_path):
        workload = WORKLOADS["exponent_pair"]
        workload = replace(workload, config={**workload.config, "trials": 20000,
                                             "n_grid": [2, 4, 6]})
        text = run_cli(workload, tmp_path)
        assert check_output(workload, text) == []
        assert "trials" in " ".join(check_output(workload, edit(text, 1, "trials", "7")))
