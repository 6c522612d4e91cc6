#!/usr/bin/env python3
"""distid benchmark: the real CLI end to end, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload mc_small_a --seed 24301 --seconds 25 --trace 0

--trace 0 runs the `distid` CLI as a subprocess, one process at a time,
for at least --seconds seconds, checks every output, and reports the
end-to-end metrics (medians over the runs).  The speed of a shared
host can drift by half over minutes, so the gated times are relative:
each call's wall time over the time of a fixed pure-Python reference
loop run just before and just after it.  setup_s, which must be in
seconds, is the set-up spawn's time over that of a bare interpreter
spawn next to it, scaled to a host where the bare spawn takes
BARE_NOMINAL_S.  Raw seconds are printed too.

--trace 1 runs the same CLI call in-process, alternating untraced and
spanned calls, and reports the per-layer metrics of the spanned call
with the median wall time.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Each run
also writes its details (manifest, per-run times, output sha256, spans)
under .bench_work/ at the repository root.  Exit code 2 means the
benchmark could not run at all (no distid source tree, or a traced name
is gone); nothing is printed as a result then.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from layers import LAYERS, PACKAGE, first_score_block, largest_self_span, layer_metrics
from tracing import TraceError, Tracer
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, Workload, check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3            # CLI calls per measurement, however long they take
SETUP_SPAWNS = 9        # interpreter spawns behind the setup_s median, at least
REFERENCE_REPEATS = 9   # reference loops behind each reference time
REFERENCE_ITERATIONS = 300_000
BARE_NOMINAL_S = 0.2    # setup_s is in seconds on a host where BARE_PROBE takes this
CHILD_TIMEOUT_S = 120   # a CLI call that takes longer is killed and counted failed
SCIPY_REF_MATRICES = 200

# The end-to-end metrics of --trace 0 and their units, as in BENCHMARK.json.
END_TO_END = {"wall_rel": "ref", "trials_per_ref": "1/ref", "setup_s": "s",
              "peak_rss_mb": "MiB"}

SETUP_PROBE = """\
import sys
from pathlib import Path
from distid import cli
raw = cli.parse_config(Path(sys.argv[1]).read_text(encoding="utf-8"))
cli.build_config(sys.argv[2], raw, overrides={"seed": int(sys.argv[3]),
                                              "workers": int(sys.argv[4])})
print(cli.__file__)
"""
# The set-up probe without distid: interpreter start and the numpy import.
BARE_PROBE = "import numpy"


class BenchError(RuntimeError):
    """The benchmark cannot run in this tree."""


def cli_args(workload: Workload, seed: int, config: Path, out: Path) -> list[str]:
    return [workload.command, "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--workers", str(workload.workers)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MiB).

    The RSS is the child's ru_maxrss from os.wait4.  A child still
    running after CHILD_TIMEOUT_S is killed.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def setup_spawn(workload: Workload, seed: int, config: Path, work: Path) -> tuple[float, float]:
    """(seconds from interpreter start through config validation to exit,
    seconds of the same interpreter spawn that only imports numpy)."""
    argv = [sys.executable, "-c", SETUP_PROBE, str(config), workload.command,
            str(seed), str(workload.workers)]
    log = work / "setup.log"
    wall, code, _ = spawn(argv, work, log)
    if code != 0:
        raise BenchError(f"setup probe failed (exit {code}):\n{log.read_text()}")
    imported = Path(log.read_text().strip().splitlines()[-1]).resolve()
    if SRC not in imported.parents:
        raise BenchError(f"the setup probe imported distid from {imported}, not {SRC}")
    bare, code, _ = spawn([sys.executable, "-c", BARE_PROBE], work, log)
    if code != 0:
        raise BenchError(f"bare probe failed (exit {code}):\n{log.read_text()}")
    return wall, bare


def reference_s() -> float:
    """Median seconds of a fixed pure-Python loop: the host's current speed.

    The host is shared, and its speed drifts by up to half over minutes
    (bench/NOTES.md).  A call's wall time divided by this, measured next
    to it, cancels that drift; the loop does not touch distid, so a
    change to distid moves the ratio as it moves the wall time.
    """
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def check_file(workload: Workload, out: Path) -> tuple[list[str], str]:
    """(problems, sha256) for one output file."""
    try:
        data = out.read_bytes()
    except OSError as exc:
        return [f"no output: {exc}"], ""
    return (check_output(workload, data.decode("ascii", "replace")),
            hashlib.sha256(data).hexdigest())


def run_untraced(workload: Workload, seed: int, seconds: int, work: Path, report: dict):
    config = work / "config.cfg"
    out = work / "out.csv"
    argv = [sys.executable, "-m", "distid.cli"] + cli_args(workload, seed, config, out)
    setup_spawn(workload, seed, config, work)   # warms the file cache; not counted
    runs, setups = [], []   # setups: (set-up wall, bare-probe wall)
    ref_before = reference_s()
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        out.unlink(missing_ok=True)
        wall, code, rss = spawn(argv, work, work / "cli.log")
        problems, sha = check_file(workload, out)
        if code != 0:
            problems.insert(0, f"exit code {code}: {(work / 'cli.log').read_text()[-500:]}")
        setups.append(setup_spawn(workload, seed, config, work))   # spread over the run
        ref_after = reference_s()
        runs.append({"wall_s": wall, "ref_s": (ref_before + ref_after) / 2,
                     "peak_rss_mb": rss, "sha256": sha, "problems": problems})
        ref_before = ref_after
    while len(setups) < SETUP_SPAWNS:
        setups.append(setup_spawn(workload, seed, config, work))
    failed = sum(1 for r in runs if r["problems"])
    report["runs"] = runs
    report["setups"] = setups
    report["extra"] = {
        "wall_s": (statistics.median(r["wall_s"] for r in runs), "s"),
        "trials_per_s": (statistics.median(workload.work_units() / r["wall_s"]
                                           for r in runs), "1/s"),
        "raw_setup_s": (statistics.median(wall for wall, _ in setups), "s"),
        "bare_s": (statistics.median(bare for _, bare in setups), "s"),
        "reference_s": (statistics.median(r["ref_s"] for r in runs), "s"),
        "failed_frac": (failed / len(runs), "fraction"),
    }
    values = {
        "wall_rel": statistics.median(r["wall_s"] / r["ref_s"] for r in runs),
        "trials_per_ref": statistics.median(workload.work_units() * r["ref_s"] / r["wall_s"]
                                            for r in runs),
        "setup_s": statistics.median(wall / bare for wall, bare in setups) * BARE_NOMINAL_S,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    return len(runs), failed, {name: (values[name], unit) for name, unit in END_TO_END.items()}


def scipy_ref_ratio(block) -> float | None:
    """Median per-call ml_decode time over scipy's linear_sum_assignment.

    Timed on the first SCIPY_REF_MATRICES finite matrices of a score
    block, with no tracing active.  None when scipy cannot be imported.
    """
    try:
        from scipy.optimize import linear_sum_assignment
    except ImportError:
        return None
    from distid.decoder import ml_decode

    ours, ref = [], []
    for matrix in [m for m in block if np.isfinite(m).all()][:SCIPY_REF_MATRICES]:
        t0 = time.perf_counter_ns()
        ml_decode(matrix)
        t1 = time.perf_counter_ns()
        linear_sum_assignment(matrix, maximize=True)
        t2 = time.perf_counter_ns()
        ours.append(t1 - t0)
        ref.append(t2 - t1)
    return statistics.median(ours) / statistics.median(ref) if ours else None


def run_traced(workload: Workload, seed: int, seconds: int, work: Path, report: dict):
    sys.path.insert(0, str(SRC))
    import distid
    from distid import cli
    if SRC not in Path(distid.__file__).resolve().parents:
        raise BenchError(f"imported distid from {distid.__file__}, not {SRC}")
    config = work / "config.cfg"
    out = work / "out.csv"
    argv = cli_args(workload, seed, config, out)

    def call(traced: bool):
        out.unlink(missing_ok=True)
        tracer = Tracer(PACKAGE, LAYERS) if traced else contextlib.nullcontext()
        sink = io.StringIO()
        with tracer, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter_ns()
            code = cli.main(argv)
            wall = time.perf_counter_ns() - start
        problems, sha = check_file(workload, out)
        if code != 0:
            problems.insert(0, f"exit code {code}: {sink.getvalue()[-500:]}")
        return wall, tracer.spans if traced else None, problems, sha

    Tracer(PACKAGE, LAYERS).close()   # every traced name must exist before timing
    plain, traced, runs = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for is_traced in order:
            wall, spans, problems, sha = call(is_traced)
            (traced if is_traced else plain).append((wall, spans))
            runs.append({"traced": is_traced, "wall_s": wall / 1e9, "sha256": sha,
                         "problems": problems})
    wall_ns, spans = sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2]
    metrics = layer_metrics(spans, wall_ns)
    metrics["trace_overhead_frac"] = (
        statistics.median(w for w, _ in traced) / statistics.median(w for w, _ in plain)
        - 1.0, "fraction")
    extra = {}
    block = first_score_block(spans)
    ratio = scipy_ref_ratio(block) if block is not None else None
    if ratio is not None:
        extra["decoder.scipy_ref_ratio"] = (ratio, "ratio")
    failed = sum(1 for r in runs if r["problems"])
    extra["failed_frac"] = (failed / len(runs), "fraction")
    report["runs"] = runs
    report["extra"] = extra
    report["largest_self_span"] = largest_self_span(spans)
    report["spans"] = [[s.sid, s.name, s.start, s.end, s.thread, s.parent] for s in spans]
    return len(runs), failed, metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict:
    """Unified L2/L3 cache sizes of CPU 0 as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if (index / "type").read_text().strip() == "Unified":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def manifest() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "caches": cache_sizes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "loadavg_start": os.getloadavg(), "git_commit": git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED:#x}); gain claims must "
                             f"also hold on the held-out seed {HELD_OUT_SEED:#x}")
    parser.add_argument("--seconds", type=int, default=25,
                        help="measure for at least this long (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics of CLI subprocesses; "
                             "1: per-layer metrics of a traced in-process call")
    args = parser.parse_args(argv)

    if not (SRC / "distid" / "cli.py").is_file():
        print(f"error: no distid source tree at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**64   # distid takes unsigned 64-bit seeds
    work = WORK / workload.name
    work.mkdir(parents=True, exist_ok=True)
    (work / "config.cfg").write_text(workload.config_text(), encoding="utf-8")
    report = {"workload": workload.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "manifest": manifest()}
    runner = run_traced if args.trace else run_untraced
    try:
        attempted, failed, metrics = runner(workload, seed, args.seconds, work, report)
    except (BenchError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"error: cannot import distid from {SRC}: {exc}", file=sys.stderr)
        return 2

    print(f"# {workload.name} seed={seed:#x} trace={args.trace}: "
          f"{attempted} runs, {failed} failed")
    print(f"# manifest {json.dumps(report['manifest'])}")
    for run in report["runs"]:
        ref = f" ref={run['ref_s']:.4f}s" if "ref_s" in run else ""
        print(f"# run wall={run['wall_s']:.4f}s{ref} sha256={run['sha256'][:16]} "
              + ("ok" if not run["problems"] else "FAILED " + "; ".join(run["problems"])))
    if "largest_self_span" in report:
        print(f"# largest self-time span: {report['largest_self_span']}")
    for name, (value, unit) in {**metrics, **report["extra"]}.items():
        print(f"{name} = {value!r} {unit}")
    report["metrics"] = metrics
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps(report, default=str) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
