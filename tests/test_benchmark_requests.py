"""Every request of the benchmark's workloads at seed 1, the expansions to
D = 24, 48 and 160 included, gives the exit code and output bytes that
bench/expected.json holds for it."""

from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_benchmark_request_matches_the_expected_table(monkeypatch,
                                                            tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    expected = workloads.load_expected()
    failed = []
    for w in workloads.WORKLOADS:
        for request in workloads.build_requests(w, 1, tmp_path / w):
            outcome = workloads.run_request(request, expected, perf_counter)
            if outcome.error is not None:
                failed.append(f"{w}: {request.key}: {outcome.error}")
    assert not failed, "\n".join(failed)
