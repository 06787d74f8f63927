"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client: a single process, no
threads, which sends its next request only after the previous one returned.
The request list is built from the seed; a pass runs it once, and the run
repeats passes until `--seconds` have gone by and at least MIN_SAMPLES
request timings are in hand.

Times are reported in reference seconds (see `hostspeed.py`): the run times
a fixed calibration loop before every request and once at the end, and
scales each request latency by the calibrations around it.  The run record
keeps the raw wall times and the calibrations as well.

With `--trace 0` the last line of stdout holds the end-to-end metrics,
measured with tracing off.  With `--trace 1` the run alternates untraced and
traced passes and reports the per-layer metrics of the traced passes,
normalised per pass, with the tracing overhead.  Either way every request's
output is checked against `expected.json`, and a record of the run is
written under `bench/results/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import calibrate, scale, to_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

MIN_SAMPLES = 100       # so that at least ten samples lie beyond req_p90_ms
DEADLINE_S = 140        # start no pass that would likely end after this
SETUP_SAMPLES = 11

# Fresh interpreter: import the package, the CLI and the verification
# suites, and build the CLI parser.  Interpreter start-up is not counted.
# Prints the set-up time and a calibration before and after it.
SETUP_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import calibrate
before = calibrate()
t = time.perf_counter()
import eulerchow
from eulerchow import cli, verify
cli.build_parser()
t = time.perf_counter() - t
print(t, before, calibrate())
"""

SELF_TIMES = ("monoid.enumerate_up_to", "series.exterior",
              "series.pushforward", "series.convolve",
              "series.RationalSeries.expand", "series.pullback",
              "series.first_difference", "series.dumps", "series.loads",
              "catalog.euler_chow", "catalog.split_bundle_series",
              "catalog.grassmannian13_series",
              "catalog.flag012_divisor_by_recurrence",
              "oracle.naive_convolve", "oracle.naive_pushforward",
              "cli.main")
COUNTS = ("monoid.grade.calls", "monoid.validate.calls", "monoid.apply.calls",
          "monoid.enumerate_up_to.calls", "series.FormalSeries.init.calls",
          "series.FormalSeries.init.terms", "series.exterior.calls",
          "series.exterior.terms_out", "series.pushforward.calls",
          "series.pushforward.terms_in", "series.convolve.calls",
          "series.convolve.terms_out", "series.RationalSeries.expand.calls",
          "series.RationalSeries.expand.terms_out", "series.pullback.calls",
          "series.dumps.bytes", "series.loads.bytes",
          "oracle.naive_convolve.calls", "oracle.naive_pushforward.calls",
          "verify.checks_failed")


def pass_seconds(outcomes) -> float:
    """Time of one pass: the sum of its request latencies, so that the
    benchmark's own output checking is not counted."""
    return sum(o.seconds for o in outcomes)


def percentile(samples, share):
    """Nearest-rank percentile: a measured value, not an interpolation."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure_setup(samples=SETUP_SAMPLES) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, in reference seconds, each
    scaled by its own calibrations; the first interpreter, which may compile
    bytecode, is not counted.  Returns (reference, wall) medians."""
    times, wall = [], []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True)
        seconds, *calibrations = map(float, proc.stdout.split())
        if i:
            times.append(seconds * scale(calibrations))
            wall.append(seconds)
    return statistics.median(times), statistics.median(wall)


def run_pass(requests, expected, k=0, calibrations=None, tracer=None):
    """Pass k over the request list; returns the outcomes.  Appends one
    calibration per request to `calibrations`, if given."""
    from workloads import for_pass, run_request
    outcomes = []
    for i, request in enumerate(for_pass(requests, k)):
        if calibrations is not None:
            calibrations.append(calibrate())
        if tracer is not None:
            tracer.request = k * len(requests) + i
        outcomes.append(run_request(request, expected, perf_counter))
    return outcomes


def run_untraced(requests, expected, seconds):
    """Passes until `seconds` and MIN_SAMPLES are reached; returns the
    passes and the calibrations."""
    passes, calibrations = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(run_pass(requests, expected, len(passes), calibrations))
        now = perf_counter()
        samples = len(passes) * len(requests)
        if (now - start + (now - t0) > DEADLINE_S
                or (now - start >= seconds and samples >= MIN_SAMPLES)):
            calibrations.append(calibrate())
            return passes, calibrations


def run_traced(requests, expected, seconds):
    """Alternate untraced and traced passes, at least one of each; returns
    the tracer, the two lists of passes and the calibrations."""
    from tracing import Tracer
    tracer = Tracer()
    plain, traced, calibrations = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        k = len(plain)
        plain.append(run_pass(requests, expected, k, calibrations))
        with tracer:
            traced.append(run_pass(requests, expected, k, calibrations,
                                   tracer))
        now = perf_counter()
        if now - start >= seconds or now - start + (now - t0) > DEADLINE_S:
            calibrations.append(calibrate())
            return tracer, plain, traced, calibrations


def reference_latencies(passes, calibrations) -> list[list[float]]:
    """The request latencies of each pass in reference seconds; `passes`
    and `calibrations` are in the order they ran."""
    flat = iter(to_reference([o.seconds for p in passes for o in p],
                             calibrations))
    return [[next(flat) for _ in p] for p in passes]


def end_to_end(setup_s, latencies):
    """End-to-end metrics from the reference latencies of each pass."""
    pooled = [t for p in latencies for t in p]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(sum(p) for p in latencies),
        # Median over passes of each pass's median: the pooled median of
        # the pipeline falls in the gap between its fast and slow request
        # classes, so host noise moved it between runs three times as much.
        "req_p50_ms": 1e3 * statistics.median(
            statistics.median(p) for p in latencies),
        "req_p90_ms": 1e3 * percentile(pooled, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, traced, plain_latencies, traced_latencies, ref):
    """Per-layer metrics of the traced passes, each normalised per pass.
    Pass times come from the reference latencies of the untraced and traced
    passes; span times are scaled by `ref`, the run's factor from wall to
    reference seconds."""
    from workloads import VERIFY_CHECKS
    n = len(traced)
    counts, self_s = tracer.counts, tracer.self_times()
    total_s = tracer.total_times()
    values = {}
    for name in COUNTS:
        values[name] = counts[name] / n
    for name in SELF_TIMES:
        values[name + ".self_s"] = ref * self_s.get(name, 0.0) / n
    values["series.pushforward.useful_ratio"] = _ratio(
        counts["series.pushforward.terms_out"],
        counts["series.pushforward.terms_in"])
    values["series.convolve.useful_ratio"] = _ratio(
        counts["series.convolve.terms_out"],
        counts["series.convolve.terms_pairs"])
    values["schubert.calls"] = sum(
        c for name, c in counts.items() if name.startswith("schubert.")) / n
    values["schubert.self_s"] = ref * sum(
        t for name, t in self_s.items() if name.startswith("schubert.")) / n
    for check in VERIFY_CHECKS:
        values[f"verify.{check}.s"] = ref * total_s.get(f"verify.{check}",
                                                      0.0) / n
    values["cli.bytes_out"] = sum(o.size for p in traced for o in p
                                  if o.request.check is None) / n
    values["trace.spans"] = len(tracer.spans) / n
    traced_s = statistics.median(sum(p) for p in traced_latencies)
    values["trace.pass_s"] = traced_s
    values["trace.overhead_s"] = traced_s - statistics.median(
        sum(p) for p in plain_latencies)
    return values


def layer_shares(tracer) -> dict[str, float]:
    """Share of traced request time spent in each layer's own code."""
    self_s = tracer.self_times()
    total = sum(self_s.values())
    return {name: round(_ratio(s, total), 4)
            for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])}


def request_classes(passes):
    """Per request class: parameters, spread of wall time, terms and
    digest."""
    by_key = {}
    for p in passes:
        for o in p:
            by_key.setdefault(o.request.key, []).append(o)
    rows = []
    for key, group in by_key.items():
        times = [o.seconds for o in group]
        q1, _, q3 = (statistics.quantiles(times, n=4) if len(times) > 1
                     else times * 3)
        request, last = group[0].request, group[-1]
        rows.append({
            "class": key,
            "params": (list(request.argv) if request.check is None
                       else [request.check, request.seed]),
            "samples": len(times),
            "median_wall_s": statistics.median(times),
            "q1_wall_s": q1, "q3_wall_s": q3,
            "terms": last.terms, "sha256": last.digest,
            "failed": sum(o.error is not None for o in group),
            "wall_s": times,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    imported = Path(workloads.cli.__file__).resolve().parents[1]
    if imported != SRC.resolve():
        print(f"error: eulerchow was imported from {imported}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    expected = workloads.load_expected()

    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup()
    work = RESULTS / f"work-{args.workload}-{os.getpid()}"
    try:
        requests = workloads.build_requests(args.workload, args.seed, work)
        if args.trace:
            tracer, plain, traced, calibrations = run_traced(
                requests, expected, args.seconds)
            passes = [p for pair in zip(plain, traced) for p in pair]
            latencies = reference_latencies(passes, calibrations)
            metrics = per_layer(tracer, traced, latencies[0::2],
                                latencies[1::2], scale(calibrations))
        else:
            passes, calibrations = run_untraced(requests, expected,
                                                args.seconds)
            metrics = end_to_end(
                setup_s, reference_latencies(passes, calibrations))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    failures = [o for o in outcomes if o.error is not None]
    samples_short = not args.trace and len(outcomes) < MIN_SAMPLES
    if samples_short:
        print(f"warning: the {DEADLINE_S} s deadline ended the run with "
              f"{len(outcomes)} request samples, fewer than {MIN_SAMPLES}; "
              "req_p90_ms rests on fewer than ten samples beyond it",
              file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "requests_per_pass": len(requests),
        "attempted": len(outcomes), "failed": len(failures),
        "fail_ratio": len(failures) / len(outcomes),
        "samples_short": samples_short,
        "metrics": metrics,
        "reference_per_wall_s": scale(calibrations),
        "setup_wall_s": setup_wall_s,
        "pass_wall_s": [pass_seconds(p) for p in passes],
        "latency_wall_s": [o.seconds for o in outcomes],
        "calibration_s": calibrations,
        "request_classes": request_classes(passes),
        "failures": [f"{o.request.key}: {o.error}" for o in failures[:20]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    if args.trace:
        record["layer_shares"] = layer_shares(tracer)
        record["untraced_pass_wall_s"] = [pass_seconds(p) for p in plain]
        record["traced_pass_wall_s"] = [pass_seconds(p) for p in traced]
        tracer.write_spans(RESULTS / f"{stem}.spans.jsonl.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    for line in record["failures"]:
        print(f"FAILED {line}", file=sys.stderr)

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
