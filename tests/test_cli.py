import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerchow import catalog, cli, series, verify
from eulerchow.catalog import lawson_yau_pn
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
    # every form of the two Schubert varieties, printed exactly.
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


@pytest.mark.parametrize("fmt", ["text", "rational"])
def test_series_header_spells_the_descriptor(capsys, fmt):
    code, out, _ = run(capsys, "series", "BlowupPn(3)", "--p", "1",
                       "--format", fmt)
    assert code == 0
    assert out.startswith("# E_1(BlowupPn(3))")


def test_series_default_degree_in_header(capsys):
    code, out, _ = run(capsys, "series", "Pn(1)", "--p", "0")
    assert code == 0
    assert "degree <= 10" in out


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
    r5.write_text(dumps(lawson_yau_pn(4, 0)))   # (1-t)^-5
    r6.write_text(dumps(lawson_yau_pn(5, 0)))   # (1-t)^-6

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
_G13_P2 = catalog.schubert_closed(catalog.G13, 2)
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


def test_compare_expands_when_the_identity_passes_the_cap(capsys, tmp_path):
    # 1/(1-t) against 1/(1-t)^E: the identity multiplies 1 by (1-t)^(E-1),
    # E terms, over the cap; expanding both to degree 3 is 8 terms
    e = 2 * MAX_EXPANSION_TERMS
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(lawson_yau_pn(0, 0)))
    b.write_text(dumps(RationalSeries(T, ((T.zero(), 1),), (((1,), e),))))
    code, out, err = run(capsys, "compare", str(a), str(b), "--degree", "3")
    assert (code, out, err) == (1, f"first difference at t^(1,): 1 vs {e}\n",
                                "")


def _macdonald_pair(tmp_path):
    # Macdonald(300000) against Macdonald(1): the identity would multiply
    # 1 by (1-t)^299999, 300000 binomials of up to 299999 bits
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(catalog.closed_form(
        catalog.parse_descriptor("Macdonald(300000)"), 0)))
    b.write_text(dumps(lawson_yau_pn(0, 0)))
    return a, b


def test_compare_expands_a_pair_that_fits_the_degree(capsys, tmp_path,
                                                     monkeypatch):
    # expanding both to degree 10 answers, so no identity is checked
    def refused(*_):
        raise AssertionError("checked an identity")

    monkeypatch.setattr(cli, "rational_difference_grade", refused)
    code, out, err = run(capsys, "compare", *map(str, _macdonald_pair(
        tmp_path)), "--degree", "10")
    assert (code, out, err) == (1, "first difference at t^(1,): 300000 vs 1\n",
                                "")


def test_compare_refuses_an_identity_over_the_cap_by_its_digits(capsys,
                                                                tmp_path):
    # over the cap at degree 10^7, the identity counts each term of
    # (1-t)^299999 as 4688 words and is refused before it allocates
    code, out, err = run(capsys, "compare", *map(str, _macdonald_pair(
        tmp_path)), "--degree", "10000000")
    assert (code, out) == (3, "")
    assert err.startswith("error: identity check of two rational series: ")
    assert "e = 299999 needs more than" in err


def test_compare_expands_no_difference_above_the_degree(capsys, tmp_path,
                                                        monkeypatch):
    # 1/(1-t) against (1 + t^2000000)/(1-t) at degree 1500000: expanding
    # either is refused, and the identity's difference at grade 2000000
    # lies above the degree, so nothing more is expanded
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(dumps(lawson_yau_pn(0, 0)))
    b.write_text(dumps(RationalSeries(
        T, ((T.zero(), 1), ((2 * 10**6,), 1)), (((1,), 1),))))
    degrees = []
    expand = RationalSeries.expand

    def recording(self, degree):
        degrees.append(degree)
        return expand(self, degree)

    monkeypatch.setattr(RationalSeries, "expand", recording)
    code, out, err = run(capsys, "compare", str(a), str(b),
                         "--degree", "1500000")
    assert (code, out, err) == (0, "equal to degree 1500000\n", "")
    assert degrees == [1500000]


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
    a.write_text(dumps(lawson_yau_pn(2, 0)))
    b.write_text(dumps(catalog.schubert_closed(catalog.G13, 2)))
    code, _, err = run(capsys, "compare", str(a), str(b))
    assert code == 2
    assert "different monoids" in err


def test_compare_degree_beyond_bound(capsys, tmp_path):
    s = tmp_path / "s.json"
    cli.main(["series", "Pn(1)", "--p", "0", "--degree", "4",
              "--format", "json", "--output", str(s)])
    code, _, err = run(capsys, "compare", str(s), str(s), "--degree", "9")
    assert code == 3


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
    r.write_text(dumps(lawson_yau_pn(2, 0)))
    s.write_text(dumps(lawson_yau_pn(2, 0).expand(4)))
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
    # two rational forms are compared by identity, at any degree; a
    # series file beside a rational one is compared by expanding it
    (["compare", "{r}", "{r}", "--degree", str(10**30)], 0),
    (["compare", "{r}", "{r}", "--degree", str(MAX_EXPANSION_TERMS)], 0),
    (["compare", "{r}", "{s}", "--degree", str(10**30)], 3),
]


@pytest.mark.parametrize("argv, code", EXIT_CODES,
                         ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(capsys, tmp_path, argv, code):
    files = {"r": dumps(lawson_yau_pn(2, 0)),           # (1-t)^-3
             "s": dumps(lawson_yau_pn(2, 0).expand(4)),
             "s6": dumps(lawson_yau_pn(5, 0).expand(4)),  # (1-t)^-6
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
    *(catalog.euler_chow(catalog.parse_descriptor(d), p).closed_form
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
])
def test_unwritable_output_is_reported_without_a_traceback(capsys, tmp_path,
                                                           argv):
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *(a.format(dir=tmp_path, missing=missing)
                                   for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.parent.exists()
