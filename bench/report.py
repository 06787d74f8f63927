"""The whole benchmark report in one command.

    python3 bench/report.py                 # 3 seeds per workload
    python3 bench/report.py --seeds 10      # the acceptance spread check
    python3 bench/report.py --baseline      # also rewrite bench/BASELINE.json

Runs `bench/run.py` once per (workload, seed), each in its own process, and
prints every end-to-end metric by name with its unit, the median and
quartiles over the runs, the spread (quartile distance over median), the
number of runs and of request samples, and the correctness verdict.  Writes
`bench/results/report.json`, which holds every run's record: per request
class the parameters, median and quartiles of time, term count and output
sha256.

`--baseline` adds one traced run per workload and a traced run of the single
request `series G(1,3) --p 2 --degree 48`, and writes the per-layer self-time
shares, the per-layer metrics and that request's push-forward useful ratio
to `bench/BASELINE.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("pipeline", "closed-io", "verify")
BASELINE_REQUEST = ("series", "G(1,3)", "--p", "2", "--degree", "48",
                    "--format", "json")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return result, record


def summarize(values):
    """Median, quartiles and spread (quartile distance over median), with
    quartiles as `statistics.quantiles(values, n=4)` gives them."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values)}


def traced_request_ratio():
    """Push-forward useful ratio (terms out / terms in) of one request."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer
    request = workloads.Request(" ".join(BASELINE_REQUEST), BASELINE_REQUEST)
    with Tracer() as tracer:
        outcome = workloads.run_request(request, workloads.load_expected(),
                                        perf_counter)
    if outcome.error:
        raise SystemExit(f"{request.key}: {outcome.error}")
    c = tracer.counts
    return {"request": request.key,
            "series.pushforward.terms_in": c["series.pushforward.terms_in"],
            "series.pushforward.terms_out": c["series.pushforward.terms_out"],
            "series.pushforward.useful_ratio":
                c["series.pushforward.terms_out"]
                / c["series.pushforward.terms_in"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=3,
                        help="runs per workload, with seeds 1..N")
    parser.add_argument("--baseline", action="store_true",
                        help="also write bench/BASELINE.json")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(1, args.seeds + 1)]
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs) and not failed
        all_correct &= correct
        short = [rec["seed"] for _, rec in runs if rec["samples_short"]]
        metrics = {name: summarize([r["metrics"][name]["value"]
                                    for r, _ in runs]) for name in units}
        print(f"\n{workload}: {len(runs)} runs of {seconds:g} s, "
              f"{attempted} requests, fail_ratio {failed / attempted:g}, "
              f"{'correct' if correct else 'INCORRECT'}")
        if short:
            print(f"  warning: the deadline ended the runs with seeds "
                  f"{short} short of the minimum of request samples")
        print(f"  {'metric':<12} {'unit':<4} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'n':>3}")
        for name, s in metrics.items():
            print(f"  {name:<12} {units[name]:<4} {s['median']:>12.5g} "
                  f"{s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:>7.3f} "
                  f"{bounds[name]:>6} {s['runs']:>3}")
        report["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted, "correct": correct,
            "metrics": metrics, "runs": [rec for _, rec in runs]}

    if args.baseline:
        baseline = {"seconds": seconds, "workloads": {}}
        for workload in WORKLOADS:
            result, record = run_once(workload, 1, seconds, 1)
            all_correct &= result["correct"]
            baseline["workloads"][workload] = {
                "end_to_end_median": {
                    name: s["median"] for name, s in
                    report["workloads"][workload]["metrics"].items()},
                "layer_self_time_shares": record["layer_shares"],
                "per_layer": record["metrics"],
                "untraced_pass_wall_s": record["untraced_pass_wall_s"],
                "traced_pass_wall_s": record["traced_pass_wall_s"],
            }
        baseline["g13_p2_d48"] = traced_request_ratio()
        (HERE / "BASELINE.json").write_text(
            json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print("\nwrote bench/BASELINE.json")

    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "report.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"\nverdict: {'correct' if all_correct else 'INCORRECT'}; "
          "records in bench/results/")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
