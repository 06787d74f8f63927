import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerchow import catalog, cli, series, verify
from eulerchow.catalog import macdonald
from eulerchow.monoid import GradedMonoid
from eulerchow.series import (MAX_EXPANSION_TERMS, FormalSeries,
                              RationalSeries, dumps, int_from_json, loads)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_text_pn(capsys):
    code, out, _ = run(capsys, "series", "Pn(2)", "--p", "1",
                       "--degree", "3", "--format", "text")
    assert code == 0
    assert "degree <= 3" in out
    values = [line.split(": ")[1] for line in out.splitlines()
              if ": " in line and not line.startswith("#")]
    assert values == ["1", "3", "6", "10"]


def test_series_text_prints_every_digit(capsys):
    # the coefficient of t is C(16614, 8307), of 5000 digits: above
    # Python's default limit of 4300 on int <-> str conversion.  `main`
    # lifts the limit for the command only and gives the caller back 4300.
    limit = getattr(sys, "get_int_max_str_digits", None)
    old = limit() if limit else None
    try:
        if limit:
            sys.set_int_max_str_digits(0)
        expected = str(math.comb(16614, 8307))
        if limit:
            sys.set_int_max_str_digits(4300)
        code, out, err = run(capsys, "series", "Pn(16613)", "--p", "8306",
                             "--degree", "1", "--format", "text")
        assert (code, err) == (0, "")
        if limit:
            assert limit() == 4300
        value = out.splitlines()[-1].removeprefix("t: ")
        assert len(value) == 5000
        assert value == expected
    finally:
        if limit:
            sys.set_int_max_str_digits(old)


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_serves_a_sequence_of_requests(capsys, tmp_path):
    # one parser in one process: a usage error and --help leave nothing
    # behind for the requests after them
    code, out, err = run(capsys, "series", "Pn(2)", "--p", "x")
    assert (code, out) == (2, "")
    assert "argument --p: invalid integer: 'x'" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: eulerchow")
    f = tmp_path / "f.json"
    code, out, _ = run(capsys, "series", "Pn(2)", "--format", "json",
                       "--output", str(f))
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "series", "Pn(2)", "--format", "json")
    assert code == 0
    assert out.encode() == f.read_bytes()


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_no_parser_default_is_a_mutable_container():
    # the parser is shared by every call of main, so a default that a
    # request could mutate would leak into the next request
    parsers = list(_parsers(cli.build_parser()))
    assert len(parsers) == 5
    defaults = [a.default for p in parsers for a in p._actions]
    defaults += [v for p in parsers for v in p._defaults.values()]
    assert not [d for d in defaults if isinstance(d, (list, dict, set))]


def test_series_text_flag_divisor(capsys):
    code, out, _ = run(capsys, "series", "Flag012", "--p", "2",
                       "--degree", "2", "--format", "text")
    assert code == 0
    assert "x*y: 8" in out


def test_series_rational_g13(capsys):
    code, out, _ = run(capsys, "series", "G(1,3)", "--p", "3",
                       "--format", "rational")
    assert code == 0
    assert "(1 + z)/(1-z)^5" in out


def test_series_text_spells_brackets_in_ascii_where_stdout_needs_it(
        monkeypatch):
    # a stdout that cannot encode the angle brackets gets < and >
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(["series", "Flag012", "--p", "1", "--format",
                     "text"]) == 0
    stdout.flush()
    assert ("# generators: r = <0;0,2>^2, s = <1;0,1>^2\n"
            in stdout.buffer.getvalue().decode("ascii"))


def _console(python, *argv, **environ):
    """The command run as its own process: exit code, stdout, stderr."""
    proc = python("-m", "eulerchow.cli", *argv, **environ)
    return proc.returncode, proc.stdout, proc.stderr


def test_console_process_spells_brackets_in_ascii(python):
    # the same, where the process's stdout is opened in ASCII
    code, out, err = _console(python, "series", "Flag012", "--p", "1",
                              "--format", "text", PYTHONIOENCODING="ascii")
    assert (code, err) == (0, "")
    assert "# generators: r = <0;0,2>^2, s = <1;0,1>^2\n" in out


@pytest.mark.parametrize("argv", [
    # a descriptor integer below its row's least value, and an expansion
    # over the term cap
    ["series", "Hirzebruch(-1)"],
    ["series", "Pn(2)", "--degree", str(10**30)]], ids=["exit-2", "exit-3"])
def test_console_process_reports_an_error_in_one_line(capsys, python, argv):
    # the process exits with main's code and writes main's one error
    # line: no traceback
    code, out, err = _console(python, *argv)
    assert (code, out, err) == run(capsys, *argv)
    assert code in (2, 3)
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_writes_what_the_console_process_writes(capsys, python):
    # main three times in one process, a usage error between two series
    # requests: each series output is the console process's, and each
    # call leaves the int <-> str digit limit as it found it
    series = ["series", "G(1,3)", "--p", "2", "--degree", "24",
              "--format", "json"]
    code, expected, err = _console(python, *series)
    assert (code, err) == (0, "")
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = digits()
    for argv, code in ((series, 0), (["series", "Pn(2)", "--p", "x"], 2),
                       (series, 0)):
        got, out, _ = run(capsys, *argv)
        assert (got, digits()) == (code, limit), argv
        if code == 0:
            assert out == expected


T = GradedMonoid.free(["t"])


@pytest.mark.parametrize("numerator, denominator, text", [
    # a coefficient other than +-1 is written before its monomial
    ((((0,), 3), ((2,), -2)), (), "3 - 2*t^2"),
    ((((0,), 3), ((2,), -2)), (((1,), 2),), "(3 - 2*t^2)/(1-t)^2"),
    ((((1,), 2),), (((2,), 1),), "2*t/(1-t^2)"),
], ids=["no-denominator", "denominator", "one-term"])
def test_format_rational(numerator, denominator, text):
    assert cli._format_rational(
        RationalSeries(T, numerator, denominator)) == text


def test_format_rational_writes_graded_lex_order():
    # y = (0, 1) comes first in the stored lex order, but y has weight 2,
    # so x is printed first, in the numerator and in the denominator
    xy = GradedMonoid.free(["x", "y"], [1, 2])
    r = RationalSeries(xy, (((1, 0), 1), ((0, 1), 1)),
                       (((1, 0), 1), ((0, 1), 1)))
    assert [m for m, _ in r.numerator] == [(0, 1), (1, 0)]
    assert cli._format_rational(r) == "(x + y)/(1-x)(1-y)"


@pytest.mark.parametrize("variety, p, form", [
    ("PnxP1(2)", 0, "1/(1-t)^6"),
    ("G(1,3)", 2, "1/(1-y)^4(1-x)^4(1-x*y)^3"),
    ("Flag012", 2, "(1 - x*y)/(1-y)^3(1-x)^3"),
    ("Flag012", 0, "1/(1-t)^6"),
    ("Flag012", 1, "1/(1-s)^3(1-r)^3(1-r*s)^3"),
    ("Flag012", 3, "1/(1-u)"),
    ("G(1,3)", 0, "1/(1-t)^6"),
    ("G(1,3)", 1, "1/(1-s)^12"),
    ("G(1,3)", 3, "(1 + z)/(1-z)^5"),
    ("G(1,3)", 4, "1/(1-w)"),
])
def test_series_rational_format_expands_nothing(capsys, monkeypatch,
                                                variety, p, form):
    # every form of the two Schubert varieties, and E_0 of a split row,
    # printed exactly.
    # The rational form does not depend on the degree, and every pipeline
    # is cross-checked by a rational identity, so no series is expanded
    def expand(self, degree):
        raise AssertionError("expanded a series for the rational format")

    monkeypatch.setattr(RationalSeries, "expand", expand)
    code, out, err = run(capsys, "series", variety, "--p", str(p),
                         "--format", "rational", "--degree", "200")
    assert (code, err) == (0, "")
    assert out == f"# E_{p}({variety})\n{form}\n"


def _with_numerator_term(monkeypatch, kind, m):
    """Make the closed forms of one KINDS row wrong by the term t^m."""
    row = catalog.KINDS[kind]

    def wrong(v, p):
        r = row.closed(v, p)
        return RationalSeries(r.monoid, r.numerator + ((m, 1),),
                              r.denominator)

    monkeypatch.setitem(catalog.KINDS, kind, row._replace(closed=wrong))


@pytest.mark.parametrize("variety, kind, p, degree, m", [
    # a term off at a grade <= D: the rational identities of G(1,3) and
    # Flag012 catch it
    ("G(1,3)", "G13", 2, "10", (1, 1)),
    ("Flag012", "Flag012", 2, "10", (1, 1)),
    # a term off only at a grade > D: the identity holds at every degree
    ("Hirzebruch(2)", "Hirzebruch", 1, "4", (0, 5)),
    ("Flag012", "Flag012", 2, "4", (0, 5)),
    ("BlowupPn(3)", "BlowupPn", 1, "0", (1, 0)),
])
def test_series_cross_check_failure_exits_1(capsys, monkeypatch, variety,
                                            kind, p, degree, m):
    _with_numerator_term(monkeypatch, kind, m)
    code, out, err = run(capsys, "series", variety, "--p", str(p),
                         "--degree", degree, "--format", "json")
    assert (code, out) == (1, "")
    assert (f"closed form and pipeline differ: first difference at t^{m}: "
            in err)
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("variety, kind, change", [
    ("G(1,3)", "G13", 1),
    ("Hirzebruch(2)", "Hirzebruch", -1),
])
def test_series_wrong_chi_exits_1(capsys, monkeypatch, variety, kind,
                                  change):
    # E_0 is 1/(1-t)^chi by the row's chi; the pipeline counts the points
    # without it
    row = catalog.KINDS[kind]
    monkeypatch.setitem(catalog.KINDS, kind, row._replace(
        chi=lambda v: row.chi(v) + change))
    code, out, err = run(capsys, "series", variety, "--p", "0")
    assert (code, out) == (1, "")
    chi = row.chi(catalog.parse_descriptor(variety))
    assert err == (f"error: {variety} p=0: closed form and pipeline differ: "
                   f"first difference at t^(1,): {chi + change} vs {chi}\n")


@pytest.mark.parametrize("variety, top", [("Hirzebruch(2)", "2"),
                                          ("PnxP1(0)", "1")])
def test_series_serves_the_top_dimension_of_a_split_row(capsys, variety,
                                                        top):
    # the top cycles of the closure are the multiples of its fundamental
    # class: E_dim = 1/(1 - t), with no pipeline to check it against
    code, out, err = run(capsys, "series", variety, "--p", top,
                         "--format", "rational")
    assert (code, err) == (0, "")
    assert out == f"# E_{top}({variety})\n1/(1-t)\n"
    code, out, err = run(capsys, "series", variety, "--p", top,
                         "--degree", "2")
    assert (code, err) == (0, "")
    assert out == (f"# E_{top}({variety}), degree <= 2\n"
                   "# generators: t = fundamental class\n"
                   "1: 1\nt: 1\nt^2: 1\n")


@pytest.mark.parametrize("variety, top, letter", [
    ("Pn(2)", 2, "t"), ("Flag012", 3, "u"), ("G(1,3)", 4, "w")])
def test_series_names_the_fundamental_class_of_every_kind(capsys, variety,
                                                          top, letter):
    # E_dim's one generator is the fundamental class, whatever its letter
    code, out, err = run(capsys, "series", variety, "--p", str(top),
                         "--degree", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == f"# generators: {letter} = fundamental class"


# E_0 of every kind to degree 3: 1/(1-t)^chi over the point class
E0_LINES = [("Pn(3)", 4, 10, 20), ("PnxP1(2)", 6, 21, 56),
            ("ProjClosure(n=3,d=2)", 8, 36, 120), ("Hirzebruch(2)", 4, 10, 20),
            ("BlowupPn(3)", 6, 21, 56), ("Flag012", 6, 21, 56),
            ("G(1,3)", 6, 21, 56), ("Macdonald(5)", 5, 15, 35)]


@pytest.mark.parametrize("variety, t1, t2, t3", E0_LINES)
def test_series_names_the_point_class_of_every_kind(capsys, variety, t1, t2,
                                                    t3):
    assert {catalog.parse_descriptor(v).kind for v, *_ in E0_LINES} == set(
        catalog.KINDS)
    code, out, err = run(capsys, "series", variety, "--p", "0", "--degree",
                         "3", "--format", "text")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["# generators: t = point class", "1: 1",
                                    f"t: {t1}", f"t^2: {t2}", f"t^3: {t3}"]


@pytest.mark.parametrize("fmt, head", [
    ("text", "# E_1(BlowupPn(3)), degree <= 10"),
    ("rational", "# E_1(BlowupPn(3))")], ids=["text", "rational"])
def test_series_header_spells_the_descriptor(capsys, fmt, head):
    code, out, _ = run(capsys, "series", "BlowupPn(3)", "--p", "1",
                       "--format", fmt)
    assert code == 0
    assert out.splitlines()[0] == head


def test_series_default_degree_in_header(capsys):
    code, out, _ = run(capsys, "series", "Pn(1)", "--p", "0")
    assert code == 0
    assert "degree <= 10" in out


def test_series_default_p_is_0(capsys):
    # without --p, `series` prints E_0, byte for byte, and not E_1
    outs = {}
    for extra in ((), ("--p", "0"), ("--p", "1")):
        code, outs[extra], err = run(capsys, "series", "Pn(2)", "--degree",
                                     "2", *extra)
        assert (code, err) == (0, "")
    assert outs[()] == outs[("--p", "0")]
    assert outs[()] != outs[("--p", "1")]


def test_series_names_the_classes_of_a_split_row(capsys):
    # below the top dimension a split row's generators are the
    # pulled-back class q*[P^(p-1)] and the section class [P^p]
    code, out, err = run(capsys, "series", "Hirzebruch(2)", "--p", "1",
                         "--degree", "1")
    assert (code, err) == (0, "")
    assert (out.splitlines()[1]
            == "# generators: t0 = q*[P^0], t1 = section [P^1]")


def test_series_unknown_descriptor(capsys):
    code, _, err = run(capsys, "series", "Quadric(3)")
    assert code == 2
    assert "unknown variety descriptor" in err


@pytest.mark.parametrize("descriptor", ["Foo(1)", "Pn(\u0663)", "Pn(\uff13)",
                                        "Macdonald(-\u0663)"])
def test_series_descriptor_digits_are_ascii(capsys, descriptor):
    # Arabic-Indic and full-width digits are not descriptor digits
    code, out, err = run(capsys, "series", descriptor, "--p", "1")
    assert code == 2 and out == ""
    assert "unknown variety descriptor" in err


@pytest.mark.parametrize("descriptor, p", [
    ("Pn(2)", 5), ("Hirzebruch(2)", 3), ("BlowupPn(3)", 4),
    ("ProjClosure(n=3,d=2)", 5), ("PnxP1(0)", 2), ("Flag012", 4),
    ("G(1,3)", 5), ("Macdonald(5)", 1)])
def test_series_p_out_of_range(capsys, descriptor, p):
    code, out, err = run(capsys, "series", descriptor, "--p", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: p={p} out of range for {descriptor}\n"


@pytest.mark.parametrize("descriptor, message", [
    ("Pn(-1)", "n=-1 out of range for Pn(-1): n must be >= 0"),
    ("PnxP1(-2)", "n=-2 out of range for PnxP1(-2): n must be >= 0"),
    ("ProjClosure(n=-1,d=2)",
     "n=-1 out of range for ProjClosure(n=-1,d=2): n must be >= 0"),
    ("ProjClosure(n=2,d=-1)",
     "d=-1 out of range for ProjClosure(n=2,d=-1): d must be >= 0"),
    ("Hirzebruch(-1)", "d=-1 out of range for Hirzebruch(-1): d must be >= 0"),
    ("BlowupPn(-3)", "n=-3 out of range for BlowupPn(-3): n must be >= 1"),
    ("BlowupPn(0)", "n=0 out of range for BlowupPn(0): n must be >= 1"),
    ("Macdonald(-1)",
     "chi=-1 out of range for Macdonald(-1): chi must be >= 1")])
@pytest.mark.parametrize("p", ["-1", "0", "3"])
def test_series_negative_descriptor_integer(capsys, descriptor, message, p):
    # an integer below its row's least value is refused by the descriptor,
    # before p is read: one error line naming the descriptor and the
    # integer's range, the same at every p, and no traceback
    code, out, err = run(capsys, "series", descriptor, "--p", p)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def _accepts(read, text) -> bool:
    try:
        read(text)
    except (TypeError, ValueError):
        return False
    return True


def _p_option(text):
    """--p as `cli.main` reads it: a refused value is a usage error, which
    argparse reports after the usage line; p out of range is not one."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["series", "Pn(2)", f"--p={text}",
                         "--format", "rational"])
    if code == 2 and err.getvalue().startswith("usage:"):
        raise ValueError(err.getvalue())


def _file_value(text):
    return loads(_series_file(value=json.dumps(text)))


def _descriptor_integer(text):
    """n of the descriptor Pn(text): the grammar refuses a text that is not
    an integer, and the descriptor an n below 0, naming the n it read."""
    try:
        return catalog.parse_descriptor(f"Pn({text})").args[0]
    except catalog.UnsupportedRequestError:
        raise
    except ValueError as exc:
        return int(str(exc).split()[0].removeprefix("n="))


@given(st.text(st.sampled_from("-+_ \n0129\u0663\uff13\u00b2"), max_size=6))
@example("-0129")
@example("")
@example("-")
@example("7\n")
@example("--")
def test_one_integer_rule_for_files_options_and_descriptors(text):
    # the four readers of an integer written as text accept exactly the
    # strings of `series.INTEGER`, and read the same number
    accepted = re.fullmatch(series.INTEGER, text) is not None
    assert _accepts(int_from_json, text) == accepted
    assert _accepts(_p_option, text) == accepted
    assert _accepts(_descriptor_integer, text) == accepted
    assert _accepts(_file_value, text) == accepted
    if accepted:
        n = int(text)
        assert int_from_json(text) == n
        assert cli.build_parser().parse_args(
            ["series", "Pn(2)", f"--p={text}"]).p == n
        assert _descriptor_integer(text) == n
        assert _file_value(text).coefficients == ({(0,): n} if n else {})


def test_series_json_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = cli.main(["series", "G(1,3)", "--p", "2", "--degree", "4",
                         "--format", "json", "--output", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    parsed = json.loads(a.read_text())
    assert parsed["bound"] == 4


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "grassmann")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_report_is_byte_exact(capsys):
    # a changed detail, such as the Borel-Weil head of `grassmann`, keeps
    # the count of PASS lines, so the whole report is pinned
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e4b34430f2dea2d6fb080ebdd89d23f8ac1e3da5cc94ea3127d754cd067f9324")


def test_verify_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_compare_and_expand(capsys, tmp_path):
    r5 = tmp_path / "r5.json"
    r6 = tmp_path / "r6.json"
    r5.write_text(dumps(macdonald(5)))
    r6.write_text(dumps(macdonald(6)))

    s5 = tmp_path / "s5.json"
    code = cli.main(["expand", str(r5), "--degree", "8",
                     "--output", str(s5)])
    assert code == 0
    expanded = loads(s5.read_text())
    assert expanded.bound == 8

    code, out, _ = run(capsys, "compare", str(s5), str(s5), "--degree", "8")
    assert code == 0 and "equal" in out

    code, out, _ = run(capsys, "compare", str(r5), str(r6),
                       "--degree", "1")
    assert code == 1
    # the line `verify` prints for a pipeline that differs
    assert out == verify.describe_difference(((1,), 5, 6)) + "\n"
    assert out == "first difference at t^(1,): 5 vs 6\n"


# G(1,3)'s E_2 over the monoid of <0,1> and <0,2>, the same series with
# (1 - xy) in its numerator and one more (1 - xy) in its denominator, and
# forms that add one numerator term: at grade 3, within degree 24, and at
# grade 30, above it
_G13_P2 = catalog.closed_form(catalog.parse_descriptor("G(1,3)"), 2)
_XY = _G13_P2.monoid


def _g13_variant(*terms, xy=3) -> RationalSeries:
    return RationalSeries(_XY, (((0, 0), 1),) + terms,
                          (((0, 1), 4), ((1, 0), 4), ((1, 1), xy)))


COMPARE_PAIRS = {
    "equal": _g13_variant(((1, 1), -1), xy=4),
    "grade-3": _g13_variant(((1, 2), 1)),
    "grade-30": _g13_variant(((10, 20), 1)),
}


@pytest.mark.parametrize("name", COMPARE_PAIRS)
def test_compare_rational_files_matches_expanding_both(capsys, tmp_path,
                                                       name):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(_G13_P2))
    b.write_text(dumps(COMPARE_PAIRS[name]))
    expanded = []
    for path in (a, b):
        expanded.append(tmp_path / f"{path.stem}-24.json")
        assert cli.main(["expand", str(path), "--degree", "24",
                         "--output", str(expanded[-1])]) == 0
    by_identity = run(capsys, "compare", str(a), str(b), "--degree", "24")
    by_expansion = run(capsys, "compare", *map(str, expanded),
                       "--degree", "24")
    assert by_identity == by_expansion
    assert by_identity[0] == (1 if name == "grade-3" else 0)


@pytest.mark.parametrize("name", COMPARE_PAIRS)
def test_compare_rational_files_at_any_degree(capsys, tmp_path, name):
    # expanding both to 10^7 would pass the term cap and exit 3
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(_G13_P2))
    b.write_text(dumps(COMPARE_PAIRS[name]))
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "10000000")
    assert (code, err) == (int(name != "equal"), "")
    if code:
        m, x, y = series.first_rational_difference(_G13_P2,
                                                   COMPARE_PAIRS[name])
        assert out == f"first difference at t^{m}: {x} vs {y}\n"
        assert y == x + 1
    else:
        assert out == "equal to degree 10000000\n"


@pytest.mark.parametrize("degree, code, out, err", [
    ("1413", 0, "equal to degree 1413\n", ""),
    ("10000000", 3, "", "error: the first difference lies at grade 2000, "
     "within degree 10000000, and expanding to it needs more than "
     f"{MAX_EXPANSION_TERMS} terms\n")])
def test_compare_rational_files_past_the_cap(capsys, tmp_path, degree, code,
                                             out, err):
    # G(1,3)'s E_2 against the form with one more numerator term at
    # (2000, 0): expanding either to degree 1413 passes the cap, so the
    # identity decides.  Its difference lies above degree 1413, so nothing
    # more is expanded; within degree 10^7, expanding to its grade passes
    # the cap
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(_G13_P2))
    b.write_text(dumps(RationalSeries(
        _XY, _G13_P2.numerator + (((2000, 0), 1),), _G13_P2.denominator)))
    assert run(capsys, "compare", str(a), str(b), "--degree", degree) == (
        code, out, err)


@pytest.mark.parametrize("order, out", [
    ("ab", "first difference at t^(0, 1500): 0 vs 1\n"),
    ("ba", "first difference at t^(0, 1500): 1 vs 0\n")])
def test_compare_answers_in_either_file_order(capsys, tmp_path, order, out):
    # 1/(1-x) against ((1-y) + y^1500)/((1-x)(1-y)): they first differ at
    # y^1500, and expanding the second to grade 1500 passes the cap, so
    # in either order the value there is read off 1/(1-x), which fits
    xy = GradedMonoid.free(["x", "y"])
    forms = {"a": RationalSeries(xy, ((xy.zero(), 1),), (((1, 0), 1),)),
             "b": RationalSeries(xy, ((xy.zero(), 1), ((0, 1), -1),
                                      ((0, 1500), 1)),
                                 (((1, 0), 1), ((0, 1), 1)))}
    for name, form in forms.items():
        (tmp_path / name).write_text(dumps(form))
    assert run(capsys, "compare", *(str(tmp_path / name) for name in order),
               "--degree", "2000") == (1, out, "")


@pytest.mark.parametrize("degree", ["3", "10000000"])
def test_compare_multiplies_only_up_to_the_difference(capsys, tmp_path,
                                                      degree):
    # 1/(1-t) against 1/(1-t)^E: the identity multiplies 1 by
    # (1-t)^(E-1), E terms, over the cap; they differ at t, so only the
    # two terms up to grade 1 are made
    e = 2 * MAX_EXPANSION_TERMS
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(macdonald(1)))
    b.write_text(dumps(RationalSeries(T, ((T.zero(), 1),), (((1,), e),))))
    code, out, err = run(capsys, "compare", str(a), str(b), "--degree", degree)
    assert (code, out, err) == (1, f"first difference at t^(1,): 1 vs {e}\n",
                                "")


def _recording_expand(monkeypatch):
    """The degrees RationalSeries._expansion, which `expand` calls too, is
    called with, from now on; first_difference, which compares two
    expansions, fails if called."""
    degrees = []
    expansion = RationalSeries._expansion

    def recording(self, degree):
        degrees.append(degree)
        return expansion(self, degree)

    def refused(*_):
        raise AssertionError("compared two expansions")

    monkeypatch.setattr(RationalSeries, "_expansion", recording)
    monkeypatch.setattr(cli, "first_difference", refused)
    return degrees


@pytest.mark.parametrize("degree", ["10", "10000000"])
def test_compare_decides_two_rational_files_by_identity_alone(
        capsys, tmp_path, monkeypatch, degree):
    # Macdonald(300000) against Macdonald(1): the identity multiplies 1 by
    # (1-t)^299999 up to grade 1, and a's expansion to grade 1 has the
    # value; at any degree, nothing else is expanded
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(catalog.closed_form(
        catalog.parse_descriptor("Macdonald(300000)"), 0)))
    b.write_text(dumps(macdonald(1)))
    degrees = _recording_expand(monkeypatch)
    code, out, err = run(capsys, "compare", str(a), str(b), "--degree", degree)
    assert (code, out, err) == (1, "first difference at t^(1,): 300000 vs 1\n",
                                "")
    assert degrees == [1]


def test_compare_expands_one_file_to_the_difference(capsys, tmp_path,
                                                    monkeypatch):
    # G(1,3)'s E_2 against the form with one more numerator term at
    # (1000, 0), at degree 1000: the identity finds the difference at
    # grade 1000, and only the first file is expanded, to that grade, once
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(_G13_P2))
    b.write_text(dumps(RationalSeries(
        _XY, _G13_P2.numerator + (((1000, 0), 1),), _G13_P2.denominator)))
    degrees = _recording_expand(monkeypatch)
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "1000")
    assert (code, err) == (1, "")
    assert out.startswith("first difference at t^(1000, 0): ")
    assert degrees == [1000]


def test_compare_refuses_products_over_the_cap_below_the_difference(
        capsys, tmp_path, monkeypatch):
    # 1/(1-t)^100 against ((1+t)^100 + t^150)/(1-t^2)^100: equal below
    # t^150.  The identity multiplies 1 by (1-t^2)^100; up to the bound
    # 128 its 65 terms count 112 words (C(100, j) of 64 bits or more
    # counts 2), past a cap of 100, so the difference is never reached
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(RationalSeries(T, ((T.zero(), 1),), (((1,), 100),))))
    b.write_text(dumps(RationalSeries(
        T, tuple(((j,), math.comb(100, j)) for j in range(101))
        + (((150,), 1),), (((2,), 100),))))
    argv = "compare", str(a), str(b), "--degree", "10000000"
    c = math.comb(249, 99)  # t^150 in 1/(1-t)^100
    assert run(capsys, *argv) == (
        1, f"first difference at t^(150,): {c} vs {c + 1}\n", "")
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 100)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: identity check of two rational series: ")
    assert "m = (2,), e = 100 needs more than 100 terms" in err


def test_compare_expands_no_difference_above_the_degree(capsys, tmp_path,
                                                        monkeypatch):
    # 1/(1-t) against (1 + t^2000000)/(1-t) at degree 1500000: the
    # identity's difference at grade 2000000 lies above the degree, so
    # nothing is expanded
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(macdonald(1)))
    b.write_text(dumps(RationalSeries(
        T, ((T.zero(), 1), ((2 * 10**6,), 1)), (((1,), 1),))))
    degrees = _recording_expand(monkeypatch)
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "1500000")
    assert (code, out, err) == (0, "equal to degree 1500000\n", "")
    assert degrees == []


def test_identity_check_at_e_20000(capsys, tmp_path):
    # 1/(1-t)^E against 1/(1-t^2)^E: the cross products (1-t^2)^E and
    # (1-t)^E are made only up to grade 1, where they differ
    t, e = GradedMonoid.free(["t"]), 20000
    a, b = (RationalSeries(t, ((t.zero(), 1),), (((m,), e),)) for m in (1, 2))
    assert series.first_rational_difference(a, b) == ((1,), e, 0)
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(dumps(a))
    fb.write_text(dumps(b))
    assert run(capsys, "compare", str(fa), str(fb), "--degree",
               "10000000") == (
        1, "first difference at t^(1,): 20000 vs 0\n", "")


def test_compare_refuses_a_difference_whose_expansion_passes_the_cap(
        capsys, tmp_path):
    # 1/(1-t) against (1 + t^1500000)/(1-t) at degree 1800000: the
    # identity's difference lies within the degree, and expanding to its
    # grade passes the cap too
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(macdonald(1)))
    b.write_text(dumps(RationalSeries(
        T, ((T.zero(), 1), ((1500000,), 1)), (((1,), 1),))))
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "1800000")
    assert (code, out) == (3, "")
    assert err == ("error: the first difference lies at grade 1500000, "
                   "within degree 1800000, and expanding to it needs more "
                   f"than {MAX_EXPANSION_TERMS} terms\n")


def test_compare_multiplies_only_the_terms_an_identity_has(capsys,
                                                           tmp_path):
    # Macdonald(3) against (1 + t^2000000)/(1-t) at degree 1500000:
    # expanding either is refused, and N_b R_a = (1 + t^2000000)(1-t)^2
    # has six terms, however far apart; a dense span from 1 to t^2000002
    # would pass the cap
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(catalog.closed_form(
        catalog.parse_descriptor("Macdonald(3)"), 0)))
    b.write_text(dumps(RationalSeries(
        T, ((T.zero(), 1), ((2 * 10**6,), 1)), (((1,), 1),))))
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "1500000")
    assert (code, out, err) == (1, "first difference at t^(1,): 3 vs 1\n",
                                "")


def test_compare_refuses_a_polynomial_coefficient(capsys, tmp_path):
    # every coefficient is an integer: a value {"poly": [...]}, as series
    # files once held for polynomial coefficients, is a format error
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(dumps(FormalSeries(T, 2, {(0,): 1, (1,): 2})))
    text = good.read_text()
    assert text.count('"value": "2"') == 1
    bad.write_text(text.replace('"value": "2"', '"value": {"poly": ["2"]}'))
    code, out, err = run(capsys, "compare", str(good), str(bad),
                         "--degree", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed series file: ")
    assert len(err.splitlines()) == 1


def test_compare_monoid_mismatch(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(dumps(macdonald(3)))
    b.write_text(dumps(_G13_P2))
    code, _, err = run(capsys, "compare", str(a), str(b))
    assert code == 2
    assert "different monoids" in err


def test_compare_degree_beyond_bound(capsys, tmp_path):
    s = tmp_path / "s.json"
    cli.main(["series", "Pn(1)", "--p", "0", "--degree", "4",
              "--format", "json", "--output", str(s)])
    code, _, err = run(capsys, "compare", str(s), str(s), "--degree", "9")
    assert code == 3


def test_series_json_and_expand_write_without_building_the_table(
        capsys, monkeypatch, tmp_path):
    # the CLI writes the `_Terms` record of `_expansion`, in the order of
    # its codes: no request builds a series or a table of exponent tuples,
    # and each writes the text of the expansion's series
    f = _G13_P2.expand(12)
    result = catalog.euler_chow(catalog.parse_descriptor("G(1,3)"), 2)
    form = tmp_path / "g13.json"
    form.write_text(dumps(_G13_P2))
    cases = [(("series", "G(1,3)", "--p", "2", "--degree", "12",
               "--format", "json"), dumps(f)),
             (("series", "G(1,3)", "--p", "2", "--degree", "12",
               "--format", "text"), cli._series_text(result, f, 12)),
             (("expand", str(form), "--degree", "12"), dumps(f))]

    def refused(*_):
        raise AssertionError("built a series table")

    monkeypatch.setattr(FormalSeries, "_trusted", classmethod(refused))
    monkeypatch.setattr(FormalSeries, "__post_init__", refused)
    monkeypatch.setattr(series._Terms, "keys", refused)
    for argv, text in cases:
        assert run(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize("variety, p, degree", [
    ("G(1,3)", "2", "12"), ("Pn(6)", "2", "40"), ("Macdonald(3)", "0", "9"),
])
def test_text_format_writes_the_expansion_in_graded_lex_order(
        capsys, variety, p, degree):
    # the CLI writes the `_Terms` record in the order of its codes: line
    # for line the text of the plain series `expand` builds, one line per
    # term of its table, in `graded_lex` order
    code, out, err = run(capsys, "series", variety, "--p", p,
                         "--degree", degree)
    assert (code, err) == (0, "")
    result = catalog.euler_chow(catalog.parse_descriptor(variety), int(p))
    f = result.closed_form.expand(int(degree))
    assert out == cli._series_text(result, f, int(degree))
    lines = out.splitlines()[2:]
    labels = f.monoid.labels
    assert [line.rpartition(": ")[0] for line in lines] == [
        cli._monomial(labels, m) for m in f.monoid.graded_lex(f.coefficients)]
    assert [int(line.rpartition(": ")[2]) for line in lines] == [
        f.coefficients[m] for m in f.monoid.graded_lex(f.coefficients)]

def test_writing_an_expansion_peaks_near_twice_its_text(tmp_path):
    # the 13,041-term expansion of G(1,3)'s E_2 at D = 160, already
    # built as the `_Terms` record the CLI passes to `dumps`, written to a
    # file as the CLI writes it: `dumps` holds its blocks and their one
    # join, about twice the text, and no third whole-array copy (a
    # whole-array template and its `%` would be two more)
    f, out = _G13_P2._expansion(160), tmp_path / "f.json"
    gc.collect()
    tracemalloc.start()
    try:
        cli._emit(cli.dumps(f), str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text(encoding="utf-8")
    assert text.count('"exponents"') == 13041 and text == dumps(f)
    assert peak < 2.25 * out.stat().st_size


@pytest.mark.parametrize("argv, code", [
    # a form over the cap, and a p out of range for G(1,3)
    (["expand", "{form}", "--degree", "1413"], 3),
    (["series", "G(1,3)", "--p", "5", "--format", "json"], 2),
    (["series", "G(1,3)", "--p", "5", "--format", "text"], 2),
])
def test_a_refused_request_leaves_no_output_file(capsys, tmp_path, argv,
                                                 code):
    # --output is opened only once the command has computed what it
    # writes; a request that succeeds writes `dumps`
    form, out = tmp_path / "g13.json", tmp_path / "f"
    form.write_text(dumps(_G13_P2))
    argv = [a.format(form=form) for a in argv]
    assert run(capsys, *argv, "--output", str(out))[0] == code
    assert not out.exists()
    for argv in (["expand", str(form)],
                 ["series", "G(1,3)", "--p", "2", "--format", "json"]):
        assert run(capsys, *argv, "--degree", "40", "--output",
                   str(out)) == (0, "", "")
        assert out.read_bytes() == dumps(_G13_P2.expand(40)).encode()


def test_expand_rejects_series_file(capsys, tmp_path):
    s = tmp_path / "s.json"
    cli.main(["series", "Pn(1)", "--p", "0", "--degree", "2",
              "--format", "json", "--output", str(s)])
    code, _, err = run(capsys, "expand", str(s))
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize("value", [1, 5])
def test_expand_of_a_rank_0_form_is_its_one_term(capsys, tmp_path, value):
    # a constant over the monoid with no generators: every degree keeps
    # one term, at the one element ().  The constant 1 is the form with
    # numerator 1 and every generator a factor, which the term cap sizes
    empty = GradedMonoid.free([])
    r = tmp_path / "r.json"
    r.write_text(dumps(RationalSeries(empty, (((), value),), ())))
    code, out, err = run(capsys, "expand", str(r), "--degree", "3")
    assert (code, err) == (0, "")
    assert out == dumps(FormalSeries(empty, 3, {(): value}))


def _in_json_dumps_layout(text) -> bool:
    """A series file is the json.dumps(indent=2) text of its document."""
    return text == json.dumps(json.loads(text), indent=2) + "\n"


_ABW = GradedMonoid.free(["a", "b", "c"], [1, 2, 1])
# rational forms and the degree each is expanded to: one with no
# numerator, whose expansion has no coefficient, and forms of rank 1-3
LAYOUT_FORMS = {
    "Flag012-p1": (catalog.closed_form(catalog.parse_descriptor("Flag012"),
                                       1), "160"),
    "empty": (RationalSeries(T, (), (((1,), 3),)), "12"),
    "rank-3": (RationalSeries(_ABW, ((_ABW.zero(), 1), ((1, 1, 0), -2)),
                              (((1, 0, 0), 2), ((0, 1, 0), 1),
                               ((0, 0, 1), 3))), "12"),
    "rank-1": (RationalSeries(T, ((T.zero(), 1), ((2,), -1)), (((1,), 3),)),
               "12"),
}


@pytest.mark.parametrize("name", LAYOUT_FORMS)
def test_expand_writes_the_layout_and_compare_reads_it(capsys, tmp_path,
                                                       name):
    # the form's file and two expansions of it, each in the layout; the
    # form compared with itself by identity, the expansions by their terms
    form, degree = LAYOUT_FORMS[name]
    r = tmp_path / "r.json"
    r.write_text(dumps(form))
    assert _in_json_dumps_layout(r.read_text())
    expansions = []
    for i in range(2):
        code, out, err = run(capsys, "expand", str(r), "--degree", degree)
        assert (code, err) == (0, "")
        assert _in_json_dumps_layout(out)
        empty = '  "coefficients": []' in out.splitlines()
        assert empty == (name == "empty")
        expansions.append(tmp_path / f"e{i}.json")
        expansions[-1].write_text(out)
    assert run(capsys, "compare", str(r), str(r), "--degree", "10000000") == (
        0, "equal to degree 10000000\n", "")
    assert run(capsys, "compare", *map(str, expansions), "--degree",
               degree) == (0, f"equal to degree {degree}\n", "")


@pytest.mark.parametrize("pattern, replacement, code, out", [
    # a value written "010" reads 10
    ('"value": "10"', '"value": "010"', 0, "equal to degree 160\n"),
    # an exponent written 01 is not JSON
    ("(?m)^        1(,?)$", r"        01\1", 2, "")], ids=["010", "01"])
def test_compare_reads_a_number_rewritten_in_a_written_file(
        capsys, tmp_path, pattern, replacement, code, out):
    # G(1,3)'s E_2 to degree 160 as `series` writes it, in the layout, and
    # a copy with the first match of one number rewritten
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "series", "G(1,3)", "--p", "2", "--degree", "160",
               "--format", "json", "--output", str(a)) == (0, "", "")
    assert _in_json_dumps_layout(a.read_text())
    text, n = re.subn(pattern, replacement, a.read_text(), count=1)
    assert n == 1
    b.write_text(text)
    got, stdout, err = run(capsys, "compare", str(a), str(b),
                           "--degree", "160")
    assert (got, stdout) == (code, out)
    if code:
        assert err.startswith("error: malformed series file: ")
        assert err.count("\n") == 1
    else:
        assert err == ""


def test_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "compare", str(tmp_path / "no.json"),
                     str(tmp_path / "no.json"))
    assert code == 2


T_JSON = '{"generators": [{"label": "t", "weight": 1}]}'


def _series_file(bound="10", value='"7"', weight="1", label='"t"'):
    return ('{"monoid": {"generators": [{"label": %s, "weight": %s}]}, '
            '"bound": %s, "coefficients": [{"exponents": [0], "value": %s}]}'
            % (label, weight, bound, value))


MALFORMED = ['[1]', '"x"', '{}', '{"coefficients": 3}',
             '{"monoid": 1, "numerator": [], "denominator": []}',
             # a float exponent, in a series and in a rational series
             '{"monoid": %s, "bound": 10, "coefficients": '
             '[{"exponents": [0.5], "value": "7"}]}' % T_JSON,
             '{"monoid": %s, "numerator": [{"exponents": [0.5], '
             '"value": "1"}], "denominator": []}' % T_JSON,
             # a polynomial value {"poly": [...]} beside an integer one
             '{"monoid": %s, "bound": 10, "coefficients": '
             '[{"exponents": [0], "value": "1"}, '
             '{"exponents": [1], "value": {"poly": ["1", "2"]}}]}' % T_JSON,
             # a number is an int or a decimal string: not a float, a bool,
             # an infinity or other text; an array must not be a string
             *(_series_file(**kw) for kw in (
                 {"value": "0.5"}, {"value": "true"}, {"value": '"abc"'},
                 {"bound": "2.9"}, {"bound": "1e400"}, {"weight": "1e400"},
                 {"value": '{"poly": "12"}'})),
             '{"monoid": %s, "numerator": [], "denominator": '
             '[{"exponents": [1], "multiplicity": 1e400}]}' % T_JSON,
             # one exponents entry twice: the loader may not keep either
             '{"monoid": %s, "bound": 10, "coefficients": '
             '[{"exponents": [1], "value": "3"}, '
             '{"exponents": [1], "value": "999"}]}' % T_JSON,
             # and in a rational series, where merging the two numerator
             # terms and the two factors would read 999/(1 - t)^2
             '{"monoid": %s, "numerator": [{"exponents": [0], "value": "1"}, '
             '{"exponents": [0], "value": "998"}], "denominator": '
             '[{"exponents": [1], "multiplicity": 1}, '
             '{"exponents": [1], "multiplicity": 1}]}' % T_JSON,
             '{"monoid": %s, "numerator": [{"exponents": [0], "value": "1"}], '
             '"denominator": [{"exponents": [1], "multiplicity": 1}, '
             '{"exponents": [1], "multiplicity": 2}]}' % T_JSON,
             # text that `int` takes but that is not -?[0-9]+ in ASCII
             *(_series_file(value=v) for v in (
                 '"1_000"', '" 7 "', '"+7"', '"\u0661\u0662"', '"7\\n"')),
             # the edge values of the integer rule: a lone or doubled
             # sign, an inner sign, no digit, a comma, a newline
             *(_series_file(value=v) for v in (
                 '"-"', '"--1"', '"1-2"', '""', '"1,2"', '"7\\n8"')),
             _series_file(bound='"1_0"'),
             # a label is a string: 5 would load and differ from "5"
             *(_series_file(label=v) for v in ("5", "null", "true")),
             '{"monoid": {"generators": [{"label": 5, "weight": 1}]}, '
             '"numerator": [], "denominator": []}',
             '{"monoid": %s, "bound": 10, "coefficients": '
             '[{"exponents": [0], "value": {"poly": ["1", " 2"]}}]}' % T_JSON,
             pytest.param("[" * 100000 + "]" * 100000, id="nested-100k")]


@pytest.mark.parametrize("text", MALFORMED)
@pytest.mark.parametrize("command", ["expand", "compare"])
def test_malformed_series_file_is_a_usage_error(capsys, tmp_path, command,
                                                text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files = [str(bad)] if command == "expand" else [str(bad), str(bad)]
    code, _, err = run(capsys, command, *files)
    assert code == 2
    assert err.startswith("error: malformed series file: ")
    assert len(err.splitlines()) == 1


def _twins(tmp_path, text):
    """A file of the text, and the pairs `compare` may get with it: the
    file and itself, and the file and a byte-identical copy."""
    a, b = tmp_path / "a.json", tmp_path / "copy.json"
    a.write_text(text, encoding="utf-8")
    b.write_text(text, encoding="utf-8")
    return a, [(a, a), (a, b)]


@pytest.mark.parametrize("text, degree, code, out, err", [
    (dumps(_G13_P2.expand(24)), "24", 0, "equal to degree 24\n", ""),
    (dumps(_G13_P2.expand(24)), "3", 0, "equal to degree 3\n", ""),
    (dumps(RationalSeries(GradedMonoid(()), (((), 7),), ()).expand(5)), "5",
     0, "equal to degree 5\n", ""),
    (dumps(_G13_P2), "30", 0, "equal to degree 30\n", ""),
    (dumps(macdonald(3)), "1000", 0, "equal to degree 1000\n", ""),
    (dumps(_G13_P2.expand(24)), "25", 3, "",
     "error: degree 25 exceeds a series bound (24, 24)\n"),
], ids=["series", "series-below-bound", "rank-0", "rational",
        "rational-high-degree", "above-bound"])
def test_compare_parses_a_file_and_its_twin_once(capsys, monkeypatch,
                                                 tmp_path, text, degree,
                                                 code, out, err):
    # a file_b of file_a's text is read and not parsed again: `loads`
    # depends on its text alone, so the answer is that of two parses
    parsed = []
    monkeypatch.setattr(cli, "loads", lambda t: parsed.append(t) or loads(t))
    _, pairs = _twins(tmp_path, text)
    for a, b in pairs:
        parsed.clear()
        assert run(capsys, "compare", str(a), str(b),
                   "--degree", degree) == (code, out, err)
        assert parsed == [text]


@pytest.mark.parametrize("text", MALFORMED)
def test_compare_reports_file_a_malformed_beside_any_file_b(
        capsys, tmp_path, text):
    # the error of parsing file_a alone, whether file_b is file_a, a copy
    # of it, or a file that cannot be read
    with pytest.raises(ValueError) as caught:
        loads(text)
    first, pairs = _twins(tmp_path, text)
    for a, b in [*pairs, (first, tmp_path / "missing.json")]:
        assert run(capsys, "compare", str(a), str(b)) == (
            2, "", f"error: {caught.value}\n")


@pytest.mark.parametrize("argv", [
    ["series", "Pn(2)", "--degree", "-1"],
    ["series", "Macdonald(3)", "--degree", "-5", "--format", "json"],
    ["series", "Pn(2)", "--degree", "x"],
    ["expand", "{r}", "--degree", "-1"],
    ["compare", "{s}", "{s}", "--degree", "-1"],
])
def test_negative_degree_is_a_usage_error(capsys, tmp_path, argv):
    r = tmp_path / "r.json"
    s = tmp_path / "s.json"
    r.write_text(dumps(macdonald(3)))
    s.write_text(dumps(macdonald(3).expand(4)))
    argv = [a.format(r=r, s=s) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "argument --degree: " in err.splitlines()[-1]


EXIT_CODES = [
    (["series", "Pn(2)", "--p", "1", "--degree", "3"], 0),
    (["expand", "{r}", "--degree", "6", "--output", "{out}"], 0),
    (["compare", "{s}", "{s}", "--degree", "4"], 0),
    (["compare", "{r}", "{s}", "--degree", "4"], 0),
    (["verify", "--suite", "flag"], 0),
    (["series", "Flag012", "--p", "3"], 0),
    # a multiplicity of about 5.4e299, and a coefficient of about 6000
    # digits printed exactly
    (["series", "Pn(1000)", "--p", "500", "--degree", "2"], 0),
    (["series", "Pn(20000)", "--p", "10000", "--degree", "1",
      "--format", "text"], 0),
    (["compare", "{s}", "{s6}", "--degree", "1"], 1),
    (["series", "Quadric(3)"], 2),
    (["series", "Pn(2)", "--p", "5"], 2),
    (["series", "Flag012", "--p", "4"], 2),
    (["series", "Pn(2)", "--degree", "-1"], 2),
    # --p and --degree are ASCII -?[0-9]+, like descriptors and files
    (["series", "Pn(3)", "--p", "\u0661"], 2),
    (["series", "Pn(3)", "--degree", "\uff13"], 2),
    (["series", "Pn(2)", "--p", "0_1"], 2),
    (["series", "Pn(2)", "--degree", "1_0"], 2),
    (["series", "Pn(2)", "--degree", " 2 "], 2),
    (["series", "Pn(2)", "--p", "+1"], 2),
    # "--" as an option's value: Python before 3.13 hands it over as []
    (["series", "Pn(2)", "--p=--"], 2),
    (["series", "Pn(2)", "--degree=--"], 2),
    (["series", "Pn(2)", "--format=--"], 2),
    (["expand", "{r}", "--degree=--"], 2),
    (["expand", "{bad}"], 2),
    (["compare", "{bad}", "{s}"], 2),
    (["expand", "{s}"], 2),
    (["verify", "--suite", "nope"], 2),
    # an --output that cannot be opened is a usage error, not a failed
    # verification
    (["series", "Pn(2)", "--output", "{dir}"], 2),
    (["series", "Pn(2)", "--format", "rational", "--output", "{dir}"], 2),
    (["verify", "--suite", "flag", "--output", "{missing}"], 2),
    (["expand", "{r}", "--output", "{missing}"], 2),
    (["compare", "{s}", "{s}", "--degree", "9"], 3),
    # an expansion over the cap is refused before it is allocated: the
    # rank-1 form (1-t)^-3 to degree D is D + 1 terms
    (["series", "Pn(2)", "--degree", str(10**30)], 3),
    (["series", "Pn(2)", "--degree", str(MAX_EXPANSION_TERMS)], 3),
    (["expand", "{r}", "--degree", str(10**30)], 3),
    (["expand", "{r}", "--degree", str(MAX_EXPANSION_TERMS)], 3),
    # numerator 1 and every generator a factor: the last factor needs
    # C(D + 2, 2) > 10^6 terms at D = 1413, so these rank-2 forms are
    # refused by that count before any division; E_0 of the projective
    # closure is 1/(1-t)^8, one ray over the cap
    (["series", "G(1,3)", "--p", "2", "--degree", "1413"], 3),
    (["series", "Flag012", "--p", "1", "--degree", "1413"], 3),
    (["series", "ProjClosure(n=3,d=2)", "--p", "0", "--degree",
      str(10**30)], 3),
    # a rank-2 form that lacks the factor (1 - t0) is refused per factor,
    # when its first factor passes the cap
    (["expand", "{lacking}", "--degree", str(10**30)], 3),
    # two rational forms are compared by identity, at any degree; a
    # series file beside a rational one is compared by expanding it
    (["compare", "{r}", "{r}", "--degree", str(10**30)], 0),
    (["compare", "{r}", "{r}", "--degree", str(MAX_EXPANSION_TERMS)], 0),
    (["compare", "{r}", "{s}", "--degree", str(10**30)], 3),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES,
                         ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(capsys, tmp_path, argv, code):
    split = catalog.SPLIT_BASIS
    files = {"r": dumps(macdonald(3)),
             "s": dumps(macdonald(3).expand(4)),
             "s6": dumps(macdonald(6).expand(4)),
             "lacking": dumps(RationalSeries(
                 split, ((split.zero(), 1),), (((0, 1), 4), ((2, 1), 4)))),
             "bad": "[1]"}
    paths = {"out": tmp_path / "out.json", "dir": tmp_path,
             "missing": tmp_path / "missing" / "out.json"}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    got, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert got == code
    if code in (2, 3) and not err.startswith("usage: "):
        # what argparse does not reject, main reports in one line
        assert err.startswith("error: ") and err.count("\n") == 1


# the files of the contract test: rational forms of rank 0 to 3 and their
# expansions to degree 6; Pn(2) and Pn(3), and G(1,3) and Flag012 at
# p = 2, share their monoids and differ
_ABC = GradedMonoid.free(["a", "b", "c"])
_CONTRACT_FORMS = [
    RationalSeries(GradedMonoid(()), (((), 5),), ()),
    RationalSeries(_ABC, ((_ABC.zero(), 1),), (((1, 0, 0), 1),
                                                ((0, 1, 1), 2))),
    *(catalog.closed_form(catalog.parse_descriptor(d), p)
      for d, p in (("Pn(2)", 1), ("Pn(3)", 1), ("G(1,3)", 2),
                   ("Flag012", 2)))]
_CONTRACT_FILES = {}  # the texts over each monoid
for _form in _CONTRACT_FORMS:
    _CONTRACT_FILES.setdefault(_form.monoid, []).extend(
        [dumps(_form), dumps(_form.expand(6))])


def _damaged(draw, text):
    """`text` whole, with its first value negated, or damaged: one
    character changed or added, or the text cut short."""
    i = draw(st.integers(0, len(text) - 1))
    c = draw(st.sampled_from('07-" \n,:{}[]x'))
    negated = re.sub('"value": "(-?[0-9]+)"',
                     lambda m: '"value": "%d"' % -int(m[1]), text, count=1)
    return draw(st.sampled_from([text, text, negated,
                                 text[:i] + c + text[i + 1:],
                                 text[:i] + c + text[i:], text[:i]]))


@st.composite
def contract_requests(draw):
    """A `series`, `expand` or `compare` request at a small size, and the
    texts of the files it names: most over one monoid, so that compare
    can find a difference."""
    command = draw(st.sampled_from(["series", "expand", "compare"]))
    degree = ["--degree", draw(st.sampled_from(
        ["-1", "x", str(10**30), *map(str, range(9))]))]
    if command == "series":
        variety = draw(st.sampled_from([
            "Pn(2)", "Pn(-1)", "PnxP1(0)", "G(1,3)", "Flag012", "Foo(1)",
            "Macdonald(3)", "Hirzebruch(2)", "BlowupPn(3)", "Pn(x)",
            "ProjClosure(n=2,d=2)"]))
        fmt = draw(st.sampled_from(["text", "json", "rational", "xml"]))
        return ["series", variety, "--p", str(draw(st.integers(-1, 4))),
                "--format", fmt, *degree], []
    groups = list(_CONTRACT_FILES.values())
    texts = draw(st.sampled_from([*groups, sum(groups, [])]))
    files = [_damaged(draw, draw(st.sampled_from(texts)))
             for _ in range(1 if command == "expand" else 2)]
    return [command, *"ab"[:len(files)], *degree], files


@settings(max_examples=150, deadline=None)
@given(contract_requests())
def test_every_request_keeps_the_exit_code_contract(request):
    # exit 0-3, 1 only for a difference that compare found, one error line
    # with 2 and 3, and never a traceback
    argv, files = request
    with tempfile.TemporaryDirectory() as tmp:
        names = dict(zip("ab", files))
        for name, text in names.items():
            Path(tmp, name).write_text(text)
        argv = [str(Path(tmp, a)) if a in names else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert (code == 1) == out.startswith("first difference at ")
    errors = [line for line in err.splitlines() if "error: " in line]
    assert len(errors) == (code in (2, 3))
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["series", "Pn(2)", "--output", "{dir}"],
    ["verify", "--suite", "flag", "--output", "{missing}"],
    # an empty path is not stdout
    ["series", "Pn(2)", "--output", ""],
    ["verify", "--suite", "flag", "--output", ""],
])
def test_unwritable_output_is_reported_without_a_traceback(capsys, tmp_path,
                                                           argv):
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *(a.format(dir=tmp_path, missing=missing)
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.parent.exists()
