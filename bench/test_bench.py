"""The benchmark's own tests; not part of the library's test suite.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from eulerchow import cli, series  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_requests(workload, tmp_path, seed=7):
    """A short pass: the pipeline at its smallest degree, the other
    workloads whole (each takes a few seconds)."""
    requests = workloads.build_requests(workload, seed, tmp_path)
    if workload == "pipeline":
        requests = [r for r in requests if "--degree 10" in r.key]
    return requests


@pytest.fixture(scope="module")
def expected():
    return workloads.load_expected()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_has_no_failures(workload, tmp_path, expected):
    outcomes = run.run_pass(tiny_requests(workload, tmp_path), expected)
    assert outcomes
    assert [o.error for o in outcomes if o.error] == []


def test_each_pass_reseeds_only_the_randomized_checks(tmp_path):
    requests = workloads.build_requests("verify", 5, tmp_path)
    seeds = {r.check: r.seed for r in workloads.for_pass(requests, 3)}
    assert seeds["check_algebra"] == 8 and seeds["check_hilbert"] == 9
    assert seeds["check_flag"] is None
    assert workloads.for_pass(requests, 0) == requests


def test_corrupted_output_byte_is_a_failure(tmp_path, expected, monkeypatch):
    def corrupt(obj):
        text = series.dumps(obj)
        i = text.index('"value"')
        return text[:i] + "'" + text[i + 1:]

    monkeypatch.setattr(cli, "dumps", corrupt)
    outcomes = run.run_pass(tiny_requests("pipeline", tmp_path), expected)
    assert outcomes and all(o.error for o in outcomes)
    assert all("output" in o.error for o in outcomes)


def test_unexpected_exit_code_is_a_failure(expected):
    key = "series G(1,3) --p 0 --degree 10 --format json"
    request = workloads.Request(key, ("series", "G(1,3)", "--p", "9"))
    outcome = workloads.run_request(request, expected, perf_counter)
    assert outcome.error.startswith("exit 2, expected 0")


def test_expand_that_writes_no_output_is_a_failure(tmp_path, expected):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text("{not json", encoding="utf-8")
    out.write_text("left by an earlier pass", encoding="utf-8")
    key = f"expand flag012-p1.json --degree {workloads.CLOSED_IO_DEGREE}"
    request = workloads.Request(key, ("expand", str(bad), "--degree", "160",
                                      "--output", str(out)), output=out)
    outcome = workloads.run_request(request, expected, perf_counter)
    assert outcome.error.startswith("exit 2, expected 0")
    assert not out.exists()


def test_traced_run_gives_the_untraced_digests(tmp_path, expected):
    requests = (tiny_requests("pipeline", tmp_path)
                + tiny_requests("verify", tmp_path))
    plain = run.run_pass(requests, expected)
    tracer = Tracer()
    with tracer:
        traced = run.run_pass(requests, expected, tracer=tracer)
    assert [o.digest for o in traced] == [o.digest for o in plain]
    assert not any(o.error for o in traced)
    assert not hasattr(series.exterior, "__wrapped__")
    assert tracer.counts["monoid.grade.calls"] > 0
    assert tracer.counts["oracle.naive_convolve.calls"] > 0

    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "series.exterior", "series.pushforward",
            "verify.check_algebra"} <= names
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    for name in names:
        assert 0 <= self_s[name] <= total_s[name] + 1e-9


def test_traced_metrics_are_the_declared_per_layer_metrics(tmp_path,
                                                           expected):
    requests = tiny_requests("verify", tmp_path)
    tracer = Tracer()
    with tracer:
        traced = run.run_pass(requests, expected, tracer=tracer)
    latencies = [o.seconds for o in traced]
    metrics = run.per_layer(tracer, [traced], [latencies], [latencies], 1.0)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["verify.checks_failed"] == 0


def test_end_to_end_metrics_are_the_declared_ones(tmp_path, expected):
    calibrations = []
    one = run.run_pass(tiny_requests("verify", tmp_path), expected, 0,
                       calibrations)
    calibrations.append(run.calibrate())
    metrics = run.end_to_end(0.1, run.reference_latencies([one],
                                                          calibrations))
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v in metrics.values())


def test_latencies_are_scaled_by_the_calibrations_around_them():
    nominal = hostspeed.NOMINAL_S
    scaled = hostspeed.to_reference([1.0, 3.0],
                                    [nominal, nominal, 3 * nominal])
    assert scaled == pytest.approx([1.0, 1.5])
    with pytest.raises(ValueError):
        hostspeed.to_reference([1.0], [nominal])
