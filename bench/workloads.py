"""Request lists of the three benchmark workloads, and the code that runs
one request and checks its output against the expected-output table.

Every request runs in-process through the library's public entry points:
`eulerchow.cli.main([...])` for the CLI requests, and the `verify.check_*`
functions for the verification workload.  Functions are looked up on their
module at call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

from eulerchow import catalog, cli, series, verify

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("pipeline", "closed-io", "verify")

# Varieties that have an independent pipeline, so `series` cross-checks the
# pipeline against the closed form on every request.
PIPELINE_PAIRS = ([("ProjClosure(n=3,d=2)", 2), ("Hirzebruch(2)", 1),
                   ("PnxP1(2)", 1), ("BlowupPn(3)", 1), ("Flag012", 2)]
                  + [("G(1,3)", p) for p in range(5)])
PIPELINE_DEGREES = (10, 24, 48)

# Rational-series input files of `expand`: (file stem, variety, p).
EXPAND_INPUTS = (("flag012-p1", "Flag012", 1), ("flag012-p2", "Flag012", 2),
                 ("g13-p2", "G(1,3)", 2),
                 ("projclosure-p2", "ProjClosure(n=3,d=2)", 2))
CLOSED_IO_DEGREE = 160
# Exponents of the Flag012 p=2 series at which the seed may plant the
# difference that `compare` has to find; every one has a nonzero coefficient.
MUTATION_CANDIDATES = ((0, 0), (3, 5), (17, 2), (40, 40), (80, 1), (1, 120),
                       (100, 59), (160, 0))

VERIFY_CHECKS = ("check_algebra", "check_hilbert", "check_bundle",
                 "check_grassmann", "check_flag", "check_macdonald",
                 "check_schubert")


@dataclass(frozen=True)
class Request:
    """One request; `key` names its entry in the expected-output table."""

    key: str
    argv: tuple[str, ...] = ()
    output: Path | None = None   # file the request writes, if any
    check: str | None = None     # name of a verify.check_* function
    seed: int | None = None      # argument of the check, if it takes one


@dataclass(frozen=True)
class Outcome:
    request: Request
    seconds: float
    code: int | None
    digest: str
    terms: int
    size: int
    error: str | None        # None when the request matched the table


class _Capture(io.StringIO):
    """Text sink reporting UTF-8, so output bytes match a UTF-8 terminal."""

    encoding = "utf-8"


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def count_terms(text: str) -> int:
    """Terms of a series JSON document, else the lines that are not headers."""
    if text.startswith("{"):
        return text.count('"exponents"')
    return sum(1 for line in text.splitlines() if not line.startswith("#"))


def _series_request(variety: str, p: int, degree: int, fmt: str) -> Request:
    argv = ("series", variety, "--p", str(p), "--degree", str(degree),
            "--format", fmt)
    return Request(" ".join(argv), argv)


def pipeline_requests(seed: int) -> list[Request]:
    requests = [_series_request(v, p, d, "json")
                for d in PIPELINE_DEGREES for v, p in PIPELINE_PAIRS]
    random.Random(seed).shuffle(requests)
    return requests


def _closed_form(variety: str, p: int):
    v = catalog.parse_descriptor(variety)
    return catalog.euler_chow(v, p, method="closed").closed_form


def closed_io_requests(work: Path, candidate) -> list[Request]:
    """Write the input files with `series.dumps` and return the requests.

    Inputs: the rational forms that `expand` reads, and two pairs of
    expanded series for `compare`: an equal pair, and a pair that differs
    by one at the exponent `candidate`.
    """
    work.mkdir(parents=True, exist_ok=True)
    deg = str(CLOSED_IO_DEGREE)
    requests = []
    for stem, variety, p in EXPAND_INPUTS:
        src = work / f"{stem}.json"
        src.write_text(series.dumps(_closed_form(variety, p)),
                       encoding="utf-8")
        out = work / f"{stem}-{deg}.out.json"
        requests.append(Request(f"expand {stem}.json --degree {deg}",
                                ("expand", str(src), "--degree", deg,
                                 "--output", str(out)), output=out))

    g13 = _closed_form("G(1,3)", 2).expand(CLOSED_IO_DEGREE)
    a, b = work / f"g13-p2-{deg}.json", work / f"g13-p2-{deg}-copy.json"
    a.write_text(series.dumps(g13), encoding="utf-8")
    b.write_text(series.dumps(g13), encoding="utf-8")
    requests.append(Request(f"compare {a.name} {b.name} --degree {deg}",
                            ("compare", str(a), str(b), "--degree", deg)))

    flag = _closed_form("Flag012", 2).expand(CLOSED_IO_DEGREE)
    mutated = dict(flag.coefficients)
    mutated[candidate] += 1
    a, b = work / f"flag012-p2-{deg}.json", work / f"flag012-p2-{deg}-mut.json"
    a.write_text(series.dumps(flag), encoding="utf-8")
    b.write_text(series.dumps(series.FormalSeries(flag.monoid, flag.bound,
                                                  mutated)),
                 encoding="utf-8")
    requests.append(Request(f"compare {a.name} {b.name} --degree {deg} "
                            f"@{list(candidate)}",
                            ("compare", str(a), str(b), "--degree", deg)))

    requests.append(_series_request("Pn(6)", 2, 800, "text"))
    requests.append(_series_request("Macdonald(12)", 0, 2000, "json"))
    return requests


def prepare_closed_io(seed: int, work: Path) -> list[Request]:
    rng = random.Random(seed)
    candidate = MUTATION_CANDIDATES[rng.randrange(len(MUTATION_CANDIDATES))]
    requests = closed_io_requests(work, candidate)
    rng.shuffle(requests)
    return requests


def verify_requests(seed: int) -> list[Request]:
    seeds = {"check_algebra": seed, "check_hilbert": seed + 1}
    requests = [Request(name, check=name, seed=seeds.get(name))
                for name in VERIFY_CHECKS]
    random.Random(seed).shuffle(requests)
    return requests


def for_pass(requests: list[Request], k: int) -> list[Request]:
    """The requests of pass k: the randomized checks take their seed plus k,
    so a run averages over as many random case sets as it runs passes."""
    return [replace(r, seed=r.seed + k) if r.seed is not None else r
            for r in requests]


def build_requests(workload: str, seed: int, work: Path) -> list[Request]:
    if workload == "pipeline":
        return pipeline_requests(seed)
    if workload == "closed-io":
        return prepare_closed_io(seed, work)
    if workload == "verify":
        return verify_requests(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")


def _call(request: Request) -> tuple[int, str, str]:
    """Run one request; returns (exit code, stdout text, stderr text)."""
    out, err = _Capture(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if request.check is None:
            code = cli.main(list(request.argv))
        else:
            fn = getattr(verify, request.check)
            results = fn() if request.seed is None else fn(request.seed)
            out.write("".join(r.line() + "\n" for r in results))
            code = 0 if all(r.passed for r in results) else 1
    return code, out.getvalue(), err.getvalue()


def run_request(request: Request, expected: dict, clock) -> Outcome:
    """Time one request with `clock`, then check it against the table.

    The output file of a request that writes one is deleted first, so a
    file left by an earlier pass is never checked in its place."""
    if request.output is not None:
        request.output.unlink(missing_ok=True)
    start = clock()
    try:
        code, text, stderr = _call(request)
    except Exception as exc:  # a crashing request is a failed request
        return Outcome(request, clock() - start, None, "", 0, 0,
                       f"{type(exc).__name__}: {exc}")
    seconds = clock() - start
    data = text.encode("utf-8")
    if request.output is not None:
        try:
            data = request.output.read_bytes()
        except FileNotFoundError:
            data = None
    return check_output(request, seconds, code, data, expected, stderr)


def check_output(request: Request, seconds: float, code: int,
                 data: bytes | None, expected: dict,
                 stderr: str = "") -> Outcome:
    """Check one request's exit code and output; `data` is None when the
    request wrote no output file."""
    if data is None:
        digest, terms, size = "", 0, 0
    else:
        digest = hashlib.sha256(data).hexdigest()
        terms = count_terms(data.decode("utf-8", errors="replace"))
        size = len(data)
    want = expected.get(request.key)
    error = None
    if want is None:
        error = "no entry in the expected-output table"
    elif code != want["exit"]:
        error = f"exit {code}, expected {want['exit']}"
        if stderr:
            error += f" ({stderr.strip()})"
    elif data is None:
        error = f"no output file {request.output.name}"
    elif digest != want["sha256"] or terms != want["terms"]:
        error = (f"output {digest[:12]}.. with {terms} terms, expected "
                 f"{want['sha256'][:12]}.. with {want['terms']} terms")
    return Outcome(request, seconds, code, digest, terms, size, error)
