"""Run every workload and print every metric, check and run-to-run spread.

From the root of a checkout:

    python3 perfbench/report.py                      # seed 1, all workloads
    python3 perfbench/report.py --seeds 1,2,3,4,5 --workloads mapreduce

Each workload runs in its own process, so its peak RSS is its own: untraced
once per seed, then traced once with the first seed.  For each workload the
report prints every check, every end-to-end metric with its unit (the median
over seeds and, with two or more seeds, the quartile spread as a share of the
median next to the bound in ``BENCHMARK.json``), the metrics that have no
bound (``op_p50_s``, ``op_tail_s``, ``edges_per_s``, ``yardstick_s``,
``failed_frac``, ``sim_max_load_units``), the tracing overhead (traced minus untraced
``op_mean_ref``), and every per-layer metric of the traced run.  The whole report is also written as JSON under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT_DIR = ROOT / "perfbench" / "out"
RUN_TIMEOUT_S = 600


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in its own process; returns its full record."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    record_path = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text())
    record["check_lines"] = [line for line in proc.stdout.splitlines()
                             if line.startswith("check ")]
    return record


def _spread(values: list[float]) -> float | None:
    """Quartile distance as a share of the median, as the acceptance rule
    computes it; None for fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else None


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def report_workload(workload: str, seeds: list[int], seconds: int,
                    bounds: dict) -> dict:
    runs = [_run(workload, seed, seconds, 0) for seed in seeds]
    traced = _run(workload, seeds[0], seconds, 1)
    print(f"\n== {workload}: seeds {','.join(map(str, seeds))}, "
          f"{seconds} s of ops per run ==")
    for run in runs + [traced]:
        for line in run["check_lines"]:
            print(f"  seed {run['seed']} trace {run['trace']}: {line}")
    print(f"  {'metric':<24}{'unit':<9}{'median':>14} {'spread':>10}"
          f" {'bound':>6}  runs")
    summary = {}
    names = list(dict.fromkeys(n for r in runs for n in r["metrics"]))
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        unit = runs[0]["metrics"].get(name, {"unit": "?"})["unit"]
        median, spread = statistics.median(values), _spread(values)
        bound = bounds.get(name)
        flag = ""
        if spread is not None and bound is not None and name != "setup_s":
            flag = "  over bound" if spread > bound else (
                "  over a third of bound" if spread > bound / 3 else "")
        print(f"  {name:<24}{unit:<9}{_fmt(median):>14} {_fmt(spread):>10}"
              f" {_fmt(bound):>6}  {len(values)}{flag}")
        summary[name] = {"unit": unit, "median": median, "spread": spread,
                         "bound": bound, "values": values}
    for run in runs[:1]:
        for key, value in run["notes"].items():
            print(f"  note seed {run['seed']}: {key} = {value}")
    untraced = next(r for r in runs if r["seed"] == seeds[0])
    traced_ref = (statistics.fmean(traced["op_times"])
                  / statistics.fmean(traced["yardstick_times"]))
    overhead = traced_ref - untraced["metrics"]["op_mean_ref"]["value"]
    print(f"  tracing overhead (seed {seeds[0]}): {overhead:+.6g} ref "
          f"(traced minus untraced op_mean_ref)")
    layers = {name[:-len(".self_share")]: m["value"]
              for name, m in traced["metrics"].items()
              if name.endswith(".self_share")}
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    print("  layer self-time shares: "
          + ", ".join(f"{layer} {share:.3f}" for layer, share in ranked))
    print("  traced per-layer metrics:")
    for name, m in traced["metrics"].items():
        print(f"    {name} = {m['value']!r} {m['unit']}")
    return {"end_to_end": summary, "tracing_overhead_s": overhead,
            "layer_self_shares": dict(ranked),
            "per_layer": traced["metrics"], "env": traced["env"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1",
                        help="comma-separated workload seeds")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: report_workload(w, seeds, args.seconds, bounds)
               for w in args.workloads.split(",")}
    first = next(iter(results.values()))
    print("\nenv " + " ".join(f"{k}={v!r}" for k, v in first["env"].items()))
    out = OUT_DIR / f"report-seeds{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"report written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
