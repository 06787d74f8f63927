"""Regenerate `expected.json`: the exit code, sha256 and term count of every
request's output over the full request grid of the three workloads (every
degree, every exponent the seed can pick for `compare`).

    python3 bench/record_expected.py

Run it only at a commit whose outputs are known good: the benchmark counts
every request whose output differs from this table as a failed request.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    work = HERE / "results" / "work-expected"
    table = {}

    def record(requests):
        for request in requests:
            o = workloads.run_request(request, {}, perf_counter)
            entry = {"exit": o.code, "sha256": o.digest, "terms": o.terms}
            if table.setdefault(request.key, entry) != entry:
                raise SystemExit(f"{request.key}: output differs between runs")

    try:
        record(workloads.pipeline_requests(0))
        record(workloads.verify_requests(workloads.verify.SEED))
        # each call rewrites the shared input files, so run its requests
        # before building the next candidate's
        for candidate in workloads.MUTATION_CANDIDATES:
            record(workloads.closed_io_requests(work, candidate))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(dict(sorted(table.items())), indent=1) + "\n",
        encoding="utf-8")
    print(f"{len(table)} entries written to {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
