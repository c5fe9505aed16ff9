"""casimirgrav benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload energy-shift-grid --seed 1 --seconds 30 --trace 0

Each workload is a closed loop: one client sends its next op only after the
previous one completed, in one process with at most one child process at a
time. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` replays a fixed list of ops with and without module-boundary
spans and reports the per-layer metrics and the tracing overhead. Every op's
output is checked against a 50-digit mpmath reference. The last line of
standard output is one JSON object; a fuller record, with the environment, is
written to ``bench_results/``. Run from the root of a source checkout;
``--src`` points at another checkout's ``src`` directory (used by compare.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / "bench_results"
# Fresh interpreters per run, spread evenly over the timed loop's CPU time so
# that they see the same host phases as the ops; setup_s is their median.
SETUP_REPEATS = 11
IMPORT_REPEATS = 3  # `python -X importtime` processes per traced run

# One OpenBLAS thread, in this process and its children: casimirgrav does no
# threaded linear algebra, and idle BLAS threads spinning after numpy's import
# would add to an op's CPU time what a user never waits for.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402


@dataclass
class Outcome:
    passed: bool
    bounded: int
    missed: int
    detail: str
    cpu: float = 0.0  # seconds
    scaled: float = 0.0  # CPU seconds at the reference host speed


def judge(wl: workloads.Workload, op: dict, out, exc: BaseException | None, ref: dict,
          ctx: workloads.Context) -> Outcome:
    """An op fails if it raised or its output misses the reference."""
    if exc is not None:
        return Outcome(False, 0, 0, f"raised {exc!r}")
    check = wl.check(op, out, ref, ctx)
    return Outcome(check.ok, check.bounded, check.missed, check.detail)


def cpu_seconds() -> float:
    """CPU time of this process plus that of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _call(runner, op: dict, ctx: workloads.Context):
    """Run one op; returns (output, exception, CPU seconds).

    An op's latency is the CPU time it costs, its own process's and its
    child's: time stolen by other tenants of a shared host is not the
    program's. The timed loop scales it to the reference host speed.
    """
    cpu = cpu_seconds()
    try:
        out, exc = runner(op, ctx), None
    except Exception as e:  # a raising op is a failed op, not a crashed benchmark
        out, exc = None, e
    return out, exc, cpu_seconds() - cpu


# Interpreter-bound work that touches no casimirgrav code. A generator feeding
# float powers to math.fsum: of the kernels tried, its CPU time followed the
# host's speed changes most closely for every kind of in-process op the
# workloads run (within 3-4 % over 100 s, through a 30 % change).
KERNEL = "math.fsum(n ** -4.0 for n in range(1, 12_000))"
_KERNEL_CODE = compile(KERNEL, "<kernel>", "eval")


def kernel_seconds() -> float:
    """CPU seconds of one run of the kernel in this process."""
    start = process_time()
    eval(_KERNEL_CODE, {"math": math})
    return process_time() - start


def child_seconds() -> float:
    """CPU seconds of a fresh interpreter that imports numpy and runs the kernel.

    Work done in a child process, most of it interpreter start and imports,
    did not follow the in-process kernel: over minutes both moved by up to
    15 %, independently. A child of the same shape did follow it.
    """
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", f"import math, numpy; {KERNEL}"], check=True,
                   capture_output=True, timeout=120, cwd=ROOT)
    return cpu_seconds() - start


@dataclass(frozen=True)
class Calibration:
    """Host speed: ``measure`` is sampled after every ``every`` seconds of op
    CPU time, and timings are scaled to the speed at which it takes
    ``reference`` seconds.

    On a shared host the CPU time of the same work moves by up to 30 % as
    other tenants come and go; the calibration moves with it, so the ratio
    does not.
    """

    measure: Callable[[], float]
    reference: float
    every: float

    def scale(self, samples: list[float]) -> float:
        """Factor that turns CPU seconds measured next to ``samples`` into
        seconds at the reference speed."""
        return self.reference / statistics.median(samples)


IN_PROCESS = Calibration(kernel_seconds, reference=0.002, every=0.2)
IN_CHILD = Calibration(child_seconds, reference=0.2, every=1.0)


def child_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


# ---------------------------------------------------------------- set-up

def setup_command(name: str, seed: int, src: Path) -> list[str]:
    return [sys.executable, str(BENCH / "setup_child.py"), "--workload", name,
            "--seed", str(seed), "--src", str(src)]


def measure_setup(cmd: list[str]) -> float:
    """Set-up seconds of one fresh interpreter, scaled by a child calibration
    sample taken just after it."""
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) * IN_CHILD.scale([IN_CHILD.measure()])


def import_times(src: Path) -> tuple[float, float]:
    """Median cumulative import time, ms, of casimirgrav.cli and of numpy,
    from ``python -X importtime -c "import casimirgrav.cli"``."""
    cli, numpy = [], []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import casimirgrav.cli"],
                              capture_output=True, text=True, env=child_env(src), timeout=120,
                              cwd=ROOT)
        cumulative = {}
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)\s*$", line)
            if match:
                cumulative[match.group(2)] = int(match.group(1)) / 1e3
        cli.append(cumulative["casimirgrav.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(cli), statistics.median(numpy)


# ---------------------------------------------------------------- timed run

def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond). With 10 or fewer samples it
    is the maximum, with none beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def timed_run(wl: workloads.Workload, seed: int, seconds: float, ctx: workloads.Context,
              setup_cmd: list[str]):
    """Closed loop until the ops have used ``seconds`` of CPU time (or, on a
    host too busy to give them that, twice as much wall time).

    Between ops, outside their timers, a fresh interpreter is set up after
    every ``seconds / SETUP_REPEATS`` of op CPU time, and after the loop until
    there are SETUP_REPEATS of them.
    """
    measure_setup(setup_cmd)  # warm-up that compiles the bytecode caches, not counted
    _, exc, _ = _call(wl.run, next(wl.ops(seed)), ctx)  # warm-up, not counted
    if exc is not None:
        raise RuntimeError(f"warm-up op failed: {exc!r}")
    cal = IN_CHILD if wl.in_child else IN_PROCESS
    outcomes, setup = [], []
    busy = since_sample = 0.0
    samples, marks = [cal.measure()], [0]  # marks[j]: ops done before samples[j]
    deadline = perf_counter() + 2 * seconds
    for op in wl.ops(seed):
        if busy >= seconds or perf_counter() > deadline:
            break
        if busy >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup(setup_cmd))
        out, exc, cpu = _call(wl.run, op, ctx)
        busy += cpu
        since_sample += cpu
        # Checked between ops, outside their timers, so that no output is held
        # and the peak resident set is the program's alone.
        outcomes.append(judge(wl, op, out, exc, wl.reference(op), ctx))
        outcomes[-1].cpu = cpu
        if since_sample >= cal.every:
            samples.append(cal.measure())
            marks.append(len(outcomes))
            since_sample = 0.0
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(setup_cmd))
    # For cli-session this also covers the set-up and calibration children,
    # which only import.
    who = resource.RUSAGE_CHILDREN if wl.in_child else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    samples.append(cal.measure())
    marks.append(len(outcomes))
    # Each op is scaled by the samples nearest to it: the two that bracket it
    # and up to two more on either side. The pair alone followed in-process
    # ops a little more closely but cli-session's children, which may run on
    # the other core, less so.
    for j in range(len(marks) - 1):
        scale = cal.scale(samples[max(0, j - 2):j + 4])
        for o in outcomes[marks[j]:marks[j + 1]]:
            o.scaled = o.cpu * scale
    return outcomes, setup, rss_mb, statistics.median(samples)


def end_to_end(outcomes: list[Outcome], rss_mb: float, calibration_s: float, in_child: bool,
               setup: list[float]) -> tuple[dict, dict, dict]:
    """The gated metrics, the printed-only ones, and a note on each."""
    scaled = [o.scaled * 1e3 for o in outcomes]
    cpu = [o.cpu * 1e3 for o in outcomes]
    busy = sum(o.scaled for o in outcomes)
    passed = sum(o.passed for o in outcomes)
    bounded = sum(o.bounded for o in outcomes)
    missed = sum(o.missed for o in outcomes)
    # The tail is taken from CPU time as measured. Over four ten-seed sets its
    # spread was 3-6 %, scaled 3-25 %: the slowest ops do not follow the
    # calibration kernel when the host speeds up for short bursts. Nor did
    # cli-session's follow the child calibration: 10 % scaled, 6 % raw.
    tail_ms, pct, beyond = tail(cpu)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (passed / busy, "ops/s"),
        "op_p50_ms": (statistics.median(scaled), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "failed_ratio": ((len(outcomes) - passed) / len(outcomes), "ratio"),
        "bound_miss_ratio": (missed / bounded if bounded else 0.0, "ratio"),
        "calibration_ms": (calibration_s * 1e3, "ms"),
    }
    reference = "CPU time at reference speed"
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters spread over the run, {reference}",
        "throughput_ops_s": f"{passed} passed ops in {busy:.3f} s, {reference}",
        "op_p50_ms": f"{reference}, n={len(outcomes)}",
        "op_tail_ms": f"CPU time, p{pct:.2f}, {beyond} of {len(outcomes)} ops beyond",
        "calibration_ms": f"median CPU time of the {'child' if in_child else 'kernel'}"
                          " calibration on this host, not gated",
        "failed_ratio": f"{len(outcomes) - passed} of {len(outcomes)} ops",
        "bound_miss_ratio": f"{missed} of {bounded} values with an error bound",
    }
    return metrics, extra, notes


# ---------------------------------------------------------------- traced run

def traced_run(wl: workloads.Workload, seed: int, seconds: float, ctx: workloads.Context,
               src: Path):
    """Alternate untraced and traced passes over the same fixed ops until
    ``seconds`` have elapsed (at least one of each)."""
    ops = list(itertools.islice(wl.ops(seed), wl.trace_ops))
    refs = [wl.reference(op) for op in ops]
    plain_api = ctx.api
    tracer = tracing.Tracer()
    traced = tracing.traced_api(plain_api, tracer)
    _call(wl.replay, ops[0], ctx)  # warm-up, not counted

    def run_pass(tracing_on: bool) -> float:
        busy = 0.0
        for op, ref in zip(ops, refs):
            if tracing_on:
                with tracer.span(f"op.{op.get('kind', wl.name)}"):
                    out, exc, cpu = _call(wl.replay, op, ctx)
            else:
                out, exc, cpu = _call(wl.replay, op, ctx)
            busy += cpu
            outcomes.append(judge(wl, op, out, exc, ref, ctx))
        return busy

    outcomes: list[Outcome] = []
    plain, traced_busy, passes = [], [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        ctx.api = plain_api
        plain.append(run_pass(False))
        ctx.api = traced
        tracer.reset()
        baseline_evals = {}
        with tracing.installed(tracer):
            traced_busy.append(run_pass(True))
            for row, fn in workloads.baseline_rows(traced, ctx):
                before = (tracer.counts["numerics.evals"]
                          + tracer.counts["numerics.tail_bounded_power_sum.terms"])
                with tracer.span(f"probe.{row}"):
                    fn()
                baseline_evals[row] = (tracer.counts["numerics.evals"]
                                       + tracer.counts["numerics.tail_bounded_power_sum.terms"]
                                       - before)
        passes.append(tracing.pass_metrics(tracer, baseline_evals))
    ctx.api = plain_api
    metrics, counts_repeat = tracing.combine(passes)
    cli_ms, numpy_ms = import_times(src)
    metrics["cli.import_ms"] = (cli_ms, "ms")
    metrics["cli.import_numpy_ms"] = (numpy_ms, "ms")
    overhead = statistics.median(traced_busy) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    info = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "counts_repeat_across_passes": counts_repeat,
        "untraced_pass_s": plain,
        "traced_pass_s": traced_busy,
        "spans_of_last_pass": tracing.span_records(tracer),
    }
    return outcomes, metrics, info


# ---------------------------------------------------------------- environment

def environment(src: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(src.parent.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((src / "casimirgrav").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------- main

def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<44} {value:<14.6g} {unit}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the casimirgrav source tree to benchmark")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "casimirgrav" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no casimirgrav sources under {src} or no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    wl = workloads.WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=RESULTS))
    try:
        ctx = workloads.Context(workloads.load_api(), tmp, child_env(src))
        extra, notes = {}, {}
        if args.trace:
            outcomes, metrics, info = traced_run(wl, args.seed, args.seconds, ctx, src)
            wanted = spec["per_layer"]
        else:
            outcomes, setup, rss_mb, calibration_s = timed_run(
                wl, args.seed, args.seconds, ctx, setup_command(wl.name, args.seed, src))
            metrics, extra, notes = end_to_end(outcomes, rss_mb, calibration_s, wl.in_child,
                                               setup)
            info = {"setup_s_samples": setup}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [o for o in outcomes if not o.passed]
    env = environment(src, args.seed)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          "  (closed loop, one client)")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    _print_metrics({**metrics, **extra}, notes)
    for o in failed[:5]:
        print(f"failed op: {o.detail}")

    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
                    for m in wanted},
    }
    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result,
              "all_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in {**metrics, **extra}.items()},
              "notes": notes,
              "failures": [o.detail for o in failed[:50]],
              **info}
    out = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{env['source_sha256'][:8]}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
