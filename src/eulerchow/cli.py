"""Command-line front end: series computation, verification suites,
series-file comparison (by identity for two rational files), and expansion.

Commands raise; `main` maps each error to its exit code in one place:
0 success, 1 verification failure (also a compare that finds a
difference), 2 usage or format error (an unknown descriptor, a p out of
range, a file that cannot be read or parsed, an --output file that
cannot be written), 3 a degree above a series file's bound, or an
expansion or identity check over `series.MAX_EXPANSION_TERMS` terms.

`main` can be called repeatedly in one process: it builds its parser
once, on the first call, and leaves the interpreter's int <-> str digit
limit as it found it.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import catalog, verify
from .series import (FormalSeries, RationalSeries, TruncationError, _Terms,
                     _graded_terms, describe_difference, dumps,
                     first_difference, first_rational_difference,
                     int_from_json, loads)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_TRUNCATION = 3


def _supports_unicode(stream) -> bool:
    encoding = getattr(stream, "encoding", None) or "ascii"
    try:
        "⟨⟩".encode(encoding)
        return True
    except (UnicodeEncodeError, LookupError):
        return False


def _emit(text: str, output: str | None):
    """Write text to the output file, or to stdout."""
    if output is not None:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if not _supports_unicode(sys.stdout):
        text = text.replace("⟨", "<").replace("⟩", ">")
    sys.stdout.write(text)


def _monomial(variables, exponents) -> str:
    parts = []
    for var, e in zip(variables, exponents):
        if e == 1:
            parts.append(var)
        elif e > 1:
            parts.append(f"{var}^{e}")
    return "*".join(parts) if parts else "1"


def _format_rational(r: RationalSeries) -> str:
    variables, order = r.monoid.labels, r.monoid.graded_lex
    num, den = dict(r.numerator), dict(r.denominator)
    terms = []
    for m in order(num):
        mono, c = _monomial(variables, m), num[m]
        if mono == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        elif c == -1:
            terms.append(f"-{mono}")
        else:
            terms.append(f"{c}*{mono}")
    text = " + ".join(terms).replace("+ -", "- ") if terms else "0"
    if not den:
        return text
    if len(terms) > 1:
        text = f"({text})"
    return text + "/" + "".join(
        f"(1-{_monomial(variables, m)})" + (f"^{den[m]}" if den[m] > 1 else "")
        for m in order(den))


def _series_text(result: catalog.EulerChowResult,
                 expansion: FormalSeries | _Terms, degree: int) -> str:
    lines = [f"# E_{result.p}({result.variety}), degree <= {degree}"]
    pairs = ", ".join(f"{var} = {cls}"
                      for var, cls in result.generator_dictionary)
    lines.append(f"# generators: {pairs}")
    columns, values, order = _graded_terms(expansion)
    keys = list(zip(*columns)) if columns else [()] * len(values)
    for i in order:
        lines.append(f"{_monomial(expansion.monoid.labels, keys[i])}: "
                     f"{values[i]}")
    return "\n".join(lines) + "\n"


def cmd_series(args) -> int:
    result = catalog.euler_chow(catalog.parse_descriptor(args.variety),
                                args.p)
    if args.format == "rational":
        text = (f"# E_{result.p}({result.variety})\n"
                f"{_format_rational(result.closed_form)}\n")
    else:
        expansion = result.closed_form._expansion(args.degree)
        text = (_series_text(result, expansion, args.degree)
                if args.format == "text" else dumps(expansion))
    _emit(text, args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    _emit("".join(r.line() + "\n" for r in results), args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_pair(path_a: str, path_b: str):
    """The objects of two files: path_a is read and parsed first, so its
    error comes first, and a path_b of the same text is not parsed again,
    as `loads` depends on its text alone.  No text outlives the call."""
    text = _read(path_a)
    a = loads(text)
    other = _read(path_b)
    if other == text:
        return a, a
    del text  # not held through the second parse
    return a, loads(other)


def cmd_compare(args) -> int:
    """Two rational files are compared by identity, others by expansion."""
    a, b = _load_pair(args.file_a, args.file_b)
    if isinstance(a, RationalSeries) and isinstance(b, RationalSeries):
        diff = first_rational_difference(a, b, args.degree)
    else:
        diff = first_difference(
            *(x.expand(args.degree) if isinstance(x, RationalSeries) else x
              for x in (a, b)), args.degree)
    if diff is None:
        print(f"equal to degree {args.degree}")
        return EXIT_OK
    print(describe_difference(diff))
    return EXIT_VERIFY


def cmd_expand(args) -> int:
    obj = loads(_read(args.file))
    if not isinstance(obj, RationalSeries):
        raise ValueError("expand requires a rational-series file")
    _emit(dumps(obj._expansion(args.degree)), args.output)
    return EXIT_OK


def _integer(text: str) -> int:
    """argparse type of --p and, through `_degree`, --degree: the
    `series.INTEGER` rule of descriptors and series files."""
    try:
        return int_from_json(text)
    except TypeError:
        raise argparse.ArgumentTypeError(
            f"invalid integer: {text!r}") from None


def _degree(text: str) -> int:
    """argparse type of every --degree: a truncation degree is >= 0."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"degree must be >= 0, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: built on the first call, and the same
    object on every later one.  Reuse is safe: `parse_args` returns a
    fresh namespace each time, no default is a mutable container, and
    argparse looks up `sys.stdout` and `sys.stderr` only when it prints."""
    parser = argparse.ArgumentParser(
        prog="eulerchow",
        description="Euler-Chow series of catalog varieties")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="compute a catalog series")
    p.add_argument("variety", help='descriptor, e.g. "Pn(2)" or "G(1,3)"')
    p.add_argument("--p", type=_integer, default=0,
                   help="cycle dimension (default 0)")
    p.add_argument("--degree", type=_degree, default=10)
    p.add_argument("--format", choices=["text", "json", "rational"],
                   default="text")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_series)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=sorted(verify.SUITES))
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare", help="compare two series files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--degree", type=_degree, default=10)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("expand", help="expand a rational-series file")
    p.add_argument("file")
    p.add_argument("--degree", type=_degree, default=10)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_expand)
    return parser


def main(argv=None) -> int:
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        # every printed number is exact, however many digits it has, so
        # lift the interpreter's limit on int <-> str conversion for this
        # command, and restore the caller's limit after it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():  # "--p=--" before Python 3.13
            build_parser().error("an option's value is missing")
        return args.fn(args)
    except SystemExit as exc:
        # argparse's usage errors, and --help
        return EXIT_USAGE if exc.code else EXIT_OK
    except catalog.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
