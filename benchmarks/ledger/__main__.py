"""The perf ledger's one command: ``python -m benchmarks.ledger``.

Runs every workload (or ``--workload`` one) in child processes with a
fixed ``PYTHONHASHSEED``, prints every metric by name with its unit,
verifies outputs, and writes the runs to ``out/results.json``.  Metric
names, units, directions, bounds and the default ``--seconds`` are read
from ``BENCHMARK.json`` at the repo root, so that file and this runner
cannot drift apart.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from .child import PASSES
from .stats import client_rows, fastest, pass_spread, percentile, throughput
from .workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 19990201
SMOKE_SCALE = 50


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def calibrate() -> float:
    """A fixed pure-Python loop (~0.15 s on the reference box), in ms: how
    fast this host runs the interpreter right now.  It strides through a
    400 000-element list because the host's slow mode is a memory-side
    one: a loop that stays in L1 does not see it.  It runs here, in the
    parent, between the children's passes."""
    walk = list(range(1_000, 401_000))
    size, total = len(walk), 0
    start = time.perf_counter()
    for i in range(600_000):
        total += walk[(i * 7919) % size] & 7
    return (time.perf_counter() - start) * 1e3


def spawn(workload: str, phase: str, seed: int, seconds: float,
          smoke: bool, out_dir: Path) -> dict:
    """Run one child phase; returns the JSON object on its last line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "benchmarks.ledger.child",
               "--workload", workload, "--phase", phase,
               "--seed", str(seed), "--seconds", repr(seconds),
               "--smoke", str(int(smoke)), "--out-dir", str(out_dir),
               "--t0", repr(time.time())]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    if done.returncode != 0 or not done.stdout.strip():
        raise SystemExit(f"{workload}/{phase} child failed "
                         f"(exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, smoke: bool,
            trace: int | None, out_dir: Path) -> dict:
    """One run of one workload: PASSES untraced passes, each in a fresh
    process, folded into the end-to-end and ``client.*`` rows, and the
    traced pass unless ``--trace 0``."""
    passes, calib = [], [calibrate()]
    for _ in range(1 if smoke else PASSES):
        passes.append(spawn(workload, "pass", seed, seconds, smoke, out_dir))
        calib.append(calibrate())
    latency = fastest([p["latency"] for p in passes])
    merged = [value for series in latency for value in series]
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    if any(p["state"] != passes[0]["state"] for p in passes):
        failed += 1
        failures.append("state row counts differ between passes: "
                        f"{[p['state'] for p in passes]}")
    attempted = sum(p["attempted"] for p in passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ops_per_s": throughput(latency),
        "cmd_p50_us": percentile(merged, 0.50) * 1e6,
        "cmd_p95_us": percentile(merged, 0.95) * 1e6,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "state.snapshot_rows": passes[0]["state"]["snapshot"],
        "state.syscontext_rows": passes[0]["state"]["syscontext"],
        "host.calib_ms": statistics.median(calib),
        "host.calib_spread": (max(calib) - min(calib)) / min(calib),
        "host.pass_spread": pass_spread([p["latency"] for p in passes]),
    }
    metrics.update(client_rows(passes[0]["ops"], latency))
    run = {"workload": workload, "seed": seed, "metrics": metrics,
           "samples": len(merged),
           "beyond_p95": len(merged) - math.ceil(0.95 * len(merged)),
           "calib": calib, "setups": [p["setup_s"] for p in passes]}
    if trace != 0:
        traced = spawn(workload, "traced", seed, seconds, smoke, out_dir)
        metrics.update(traced["metrics"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures += traced["failures"]
    metrics["error_share"] = failed / attempted
    run.update(attempted=attempted, failed=failed, failures=failures)
    return run


# ---------------------------------------------------------------------------
# printing


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.4g}" if abs(value) < 1 else f"{value:,.2f}"


def print_run(run: dict, contract: dict, trace: int | None) -> None:
    metrics = run["metrics"]
    flag = ("  NOISY (host calibration moved > 5% during this run)"
            if metrics["host.calib_spread"] > 0.05 else "")
    print(f"\n== {run['workload']}  seed={run['seed']}{flag}")
    print("   " + next(w["why"] for w in contract["workloads"]
                     if w["name"] == run["workload"]))
    if trace != 1:
        for spec in contract["end_to_end"]:
            print(f"   {spec['name']:<34}{fmt(metrics[spec['name']]):>14} "
                  f"{spec['unit']:<6} ({spec['better']} is better, "
                  f"bound {spec['bound']})")
        print(f"   {'error_share':<34}{fmt(metrics['error_share']):>14} "
              f"{'ratio':<6} ({run['failed']} of {run['attempted']} "
              "commands and checks failed)")
        print(f"   timed commands: {run['samples']}, "
              f"{run['beyond_p95']} beyond cmd_p95_us")
    if trace != 0:
        absent = []
        for spec in contract["per_layer"]:
            if spec["name"] in metrics:
                print(f"   {spec['name']:<34}"
                      f"{fmt(metrics[spec['name']]):>14} {spec['unit']}")
            else:
                absent.append(spec["name"])
        print(f"   n/a on this workload: {', '.join(absent)}")
    for failure in run["failures"]:
        print(f"   FAILED: {failure}")


def contract_line(run: dict, contract: dict, trace: int) -> str:
    """The result object the driver reads from the last line of stdout.
    A per-layer metric a workload does not have reads 0 there."""
    specs = contract["per_layer"] if trace else contract["end_to_end"]
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {spec["name"]: {
            "value": run["metrics"].get(spec["name"], 0),
            "unit": spec["unit"]} for spec in specs},
    })


# ---------------------------------------------------------------------------
# summaries and --compare


def summarize(runs: list[dict], contract: dict) -> dict:
    """Per workload and end-to-end metric: median, quartiles and range
    over the runs, and the relative spreads bounds are set from."""
    summary: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        rows = {}
        for spec in contract["end_to_end"]:
            values = [run["metrics"][spec["name"]] for run in runs
                      if run["workload"] == workload]
            median = statistics.median(values)
            row = {"median": median, "min": min(values), "max": max(values),
                   "runs": len(values), "values": values}
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, iqr_share=(q3 - q1) / median,
                           range_share=(max(values) - min(values)) / median)
            rows[spec["name"]] = row
        summary[workload] = rows
    return summary


def print_summary(summary: dict) -> None:
    print("\n== spread over the runs (share of the median)")
    print(f"   {'workload':<18}{'metric':<14}{'median':>14}{'IQR':>9}"
          f"{'range':>9}")
    for workload, rows in summary.items():
        for name, row in rows.items():
            if "iqr_share" in row:
                print(f"   {workload:<18}{name:<14}{fmt(row['median']):>14}"
                      f"{row['iqr_share']:>9.4f}{row['range_share']:>9.4f}")


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per (workload, end-to-end metric): B against A."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)["summary"]
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)["summary"]
    print(f"{'workload':<18}{'metric':<14}{'A':>14}{'B':>14}{'delta':>9}"
          f"{'bound':>7}  verdict")
    worse = 0
    for workload in a:
        if workload not in b:
            continue
        for spec in contract["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            row_a, row_b = a[workload][name], b[workload][name]
            sign = 1 if spec["better"] == "lower" else -1
            # delta > 0: B is worse, as a share of A's median
            delta = sign * (row_b["median"] - row_a["median"]) / row_a["median"]
            spread = max(row_a.get("iqr_share", 0), row_b.get("iqr_share", 0))
            all_better = (max(row_b["values"]) < min(row_a["values"])
                          if sign == 1 else
                          min(row_b["values"]) > max(row_a["values"]))
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif delta > bound:
                verdict = "worse"
                worse += 1
            elif delta < -bound or all_better:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{workload:<18}{name:<14}{fmt(row_a['median']):>14}"
                  f"{fmt(row_b['median']):>14}{delta:>+9.3f}{bound:>7}"
                  f"  {verdict}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload and print the driver's "
                             "result object as the last line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="regenerates every command list; run i of "
                             "--runs uses seed + i")
    parser.add_argument("--seconds", type=float,
                        help="sizes the command lists: a timed phase lasts "
                             "about this long on the reference box "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default both")
    parser.add_argument("--runs", type=int, default=1,
                        help="back-to-back runs of every workload")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at 1/{SMOKE_SCALE} size with "
                             "all checks")
    parser.add_argument("--out", help="results file "
                        "(default benchmarks/ledger/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.compare:
        return compare(*args.compare, contract)
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks.ledger: no src/repro beside it - nothing to "
              "measure", file=sys.stderr)
        return 2
    seconds = args.seconds or contract["run_seconds"]
    if args.smoke:
        seconds /= SMOKE_SCALE
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    known = {spec["name"] for key in ("end_to_end", "per_layer")
             for spec in contract[key]} | {"error_share"}

    runs = []
    for i in range(args.runs):
        for name in names:
            run = measure(name, args.seed + i, seconds, args.smoke,
                          args.trace, out_dir)
            unknown = set(run["metrics"]) - known
            if unknown:
                raise SystemExit(f"metrics missing from BENCHMARK.json: "
                                 f"{sorted(unknown)}")
            runs.append(run)
            print_run(run, contract, args.trace)
            sys.stdout.flush()
    summary = summarize(runs, contract)
    if args.runs > 1:
        print_summary(summary)
    failed = sum(run["failed"] for run in runs)
    print(f"\n{len(runs)} runs, {failed} failed commands or checks")
    out_path = Path(args.out) if args.out else out_dir / "results.json"
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs,
                   "summary": summary}, handle, indent=1)
    if args.workload and args.trace is not None and args.runs == 1:
        sys.stdout.flush()
        print(contract_line(runs[0], contract, args.trace))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
