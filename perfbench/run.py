"""Run one workload of the coversketch benchmark and print its metrics.

From the root of a checkout (no build step; the library is imported from
``src/``):

    python3 perfbench/run.py --workload sketch_sweep --seed 1 --seconds 20 --trace 0

The workload is set up several times (``setup_s`` is the median), then its
ops run one after another, closed loop, until ``--seconds`` of op time have
been measured; each op's output is checked outside the timed interval.
``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``
(the op time among them is stated in units of a yardstick, see
``yardstick.py``; the op time in seconds is printed too);
``--trace 1`` wraps the library's public entry points and reports the
per-layer metrics instead.  Human-readable lines (environment, every check,
every metric with its unit) come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, and the spans of a traced run, are written under
``perfbench/out/``.  Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
# Fewer ops than this leave no percentile with ten ops beyond it that
# differs from the median.
TAIL_MIN_OPS = 22
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SHARED_MACHINE_NOTE = ("measured on a shared machine; caches are not dropped, "
                       "CPUs are not pinned, no machine setting is changed")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _read_first(path: str, key: str | None = None) -> str:
    """First line of a file, or the value of its first ``key: value`` line."""
    try:
        with open(path) as fh:
            for line in fh:
                if key is None:
                    return line.strip()
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return "unknown"


def _cache_size(text: str) -> str:
    if text.endswith("K") and text[:-1].isdigit():
        return f"{int(text[:-1]) / 1024:g} MiB"
    return text


def _environment(nproc: int) -> dict:
    import numpy
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _read_first("/proc/cpuinfo", "model name"),
        "l3": _cache_size(_read_first(
            "/sys/devices/system/cpu/cpu0/cache/index3/size")),
        "blas_threads": os.environ[THREAD_VARS[0]],
        "note": SHARED_MACHINE_NOTE,
    }


def _tail(op_times: list[float]):
    """Highest percentile leaving at least ten ops beyond it, or None."""
    n = len(op_times)
    if n < TAIL_MIN_OPS:
        return None
    return sorted(op_times)[n - 11], 100.0 * (n - 10) / n, n


def _run_ops(workload, seconds: float, tracer, yardstick):
    """Closed loop: ops run back to back until ``seconds`` of op time.

    The yardstick is timed right before each op, outside the op's timing."""
    op_times: list[float] = []
    yard_times: list[float] = []
    verdicts = []
    failed = 0
    i = 0
    while i == 0 or sum(op_times) < seconds:
        yard_times += yardstick.sample(op_times[-1] if op_times else 0.0)
        t0 = time.perf_counter()
        try:
            with tracer.op(i) if tracer else nullcontext():
                out = workload.op(i)
            verdict = None
        except Exception:  # a failing op is counted; the run goes on
            traceback.print_exc(file=sys.stderr)
            verdict = False
        op_times.append(time.perf_counter() - t0)
        if verdict is None:
            try:
                verdict = workload.verify(i, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                verdict = False
        if verdict is False or verdict.problems:
            failed += 1
            for problem in (verdict.problems if verdict else ["op raised"]):
                print(f"check op {i}: FAIL {problem}")
        verdicts.append(verdict)
        i += 1
    return op_times, yard_times, verdicts, failed


def _end_to_end(workload, setup_times, setup_ref_times, op_times,
                yard_times, verdicts, failed):
    """End-to-end metrics as {name: (value, unit)}, plus run notes.

    ``setup_s`` is the median over set-ups of set-up time over the mean
    yardstick time right before it, in seconds on a host where the
    yardstick takes ``yardstick.REFERENCE_S``; ``setup_wall_s`` is the
    plain median.  ``op_mean_ref`` is the mean op time over the mean
    yardstick time of the run.  Means, not medians: the host switches
    between a fast and a slow speed every few seconds, and a median jumps
    between the two while a mean weighs them by the time spent in each.
    The ratios come from the first op that produced a verdict, so they are
    deterministic for a fixed seed."""
    attempted = len(op_times)
    first = next((v for v in verdicts if v), None)
    metrics = {
        "setup_s": (statistics.median(setup_ref_times), "s"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "op_mean_ref": (statistics.fmean(op_times)
                        / statistics.fmean(yard_times), "ref"),
        "yardstick_s": (statistics.fmean(yard_times), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "edges_per_s": (attempted * workload.edges_per_op / sum(op_times),
                        "edges/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "quality_ratio": (first.quality_ratio if first else 0.0, "1"),
        "sketch_ratio": (first.sketch_ratio if first else 0.0, "1"),
        "failed_frac": (failed / attempted, "1"),
    }
    tail = _tail(op_times)
    if tail:
        metrics["op_tail_s"] = (tail[0], "s")
    if first and first.sim_max_load is not None:
        metrics["sim_max_load_units"] = (float(first.sim_max_load), "units")
    notes = {"ops": attempted, "setup_repeats": SETUP_REPEATS,
             "op_tail": (f"p{tail[1]:.1f} of {tail[2]} ops" if tail else
                         f"omitted: {attempted} ops, fewer than {TAIL_MIN_OPS}"),
             "input_edges_per_op": workload.edges_per_op}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    if not (src / "coversketch" / "__init__.py").is_file():
        return _fail(f"no coversketch sources under {src}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(src))
    import coversketch
    if Path(coversketch.__file__).resolve().parent != (src / "coversketch").resolve():
        return _fail(f"imported coversketch from {coversketch.__file__}")
    from spans import Tracer, summarize
    from workloads import WORKLOADS
    from yardstick import REFERENCE_S, Yardstick

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    env = _environment(nproc)
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        yardstick = Yardstick()
        setup_times, setup_ref_times = [], []
        for _ in range(SETUP_REPEATS):
            yard = yardstick.sample(setup_times[-1] if setup_times else 0.0)
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_ref_times.append(setup_times[-1] / statistics.fmean(yard)
                                   * REFERENCE_S)
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            op_times, yard_times, verdicts, failed = _run_ops(
                workload, args.seconds, tracer, yardstick)
        finally:
            if tracer:
                tracer.uninstall()

    attempted = len(op_times)
    print(f"check {workload.name}: {workload.checks}: "
          f"{attempted - failed} of {attempted} ops passed")
    end_to_end, notes = _end_to_end(workload, setup_times, setup_ref_times,
                                    op_times, yard_times, verdicts, failed)
    measured = summarize(tracer) if tracer else end_to_end
    for name, (value, unit) in measured.items():
        print(f"metric {workload.name} {name} = {value!r} {unit}")
    for name, value in notes.items():
        print(f"note {workload.name} {name} = {value}")

    wanted = [m["name"] for m in spec["per_layer" if tracer else "end_to_end"]]
    missing = [name for name in wanted if name not in measured]
    if missing:
        return _fail(f"metrics not measured: {', '.join(missing)}")
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "correct": failed == 0, "attempted": attempted, "failed": failed,
              "notes": notes, "op_times": op_times, "yardstick_times": yard_times,
              "setup_times": setup_times,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in measured.items()}}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(str(OUT_DIR / f"spans-{stem}.jsonl"),
                     {"workload": workload.name, "seed": args.seed, "env": env})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": measured[name][0],
                                         "unit": measured[name][1]}
                                  for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
