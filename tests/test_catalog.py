import json
import re
from pathlib import Path

import pytest

from eulerchow import catalog, schubert
from eulerchow.catalog import (UnsupportedRequestError, VarietyDescriptor,
                               VerificationError, euler_chow, parse_descriptor)
from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.series import (FormalSeries, RationalSeries, dumps, exterior,
                              first_difference, first_rational_difference,
                              loads, pushforward)
from eulerchow.verify import BUNDLE_CASES


def test_parse_descriptor_forms():
    assert parse_descriptor("Pn(3)") == VarietyDescriptor("Pn", (3,))
    assert parse_descriptor("PnxP1(2)").args == (2,)
    assert parse_descriptor("ProjClosure(n=2,d=3)").args == (2, 3)
    assert parse_descriptor("Hirzebruch(2)").args == (2,)
    v = parse_descriptor("BlowupPn(3)")
    assert v.args == (3,)
    assert catalog.KINDS[v.kind].dim(v) == 3  # blow-up of P^3 over P^2
    assert parse_descriptor("Flag012") == VarietyDescriptor("Flag012")
    assert parse_descriptor("G(1,3)") == VarietyDescriptor("G13", ())
    assert parse_descriptor("Macdonald(6)").args == (6,)
    # the descriptor checks its integers once, when it is made
    with pytest.raises(ValueError, match=r"^chi=-6 out of range for "
                       r"Macdonald\(-6\): chi must be >= 1$"):
        parse_descriptor("Macdonald(-6)")
    # leading zeros and surrounding whitespace are read, not spelled
    assert str(parse_descriptor(" Pn(007) ")) == "Pn(7)"
    with pytest.raises(UnsupportedRequestError):
        parse_descriptor("Quadric(3)")


def test_least_names_one_integer_per_slot_of_the_spelling():
    for kind in catalog.KINDS.values():
        assert len(kind.least) == kind.spelling.count("{}"), kind.spelling


def test_descriptor_round_trip():
    texts = ["Pn(3)", "PnxP1(2)", "ProjClosure(n=2,d=3)", "Hirzebruch(2)",
             "BlowupPn(3)", "Flag012", "G(1,3)", "Macdonald(1)"]
    for text in texts:
        v = parse_descriptor(text)
        assert str(v) == text
        assert parse_descriptor(str(v)) == v
    assert {parse_descriptor(t).kind for t in texts} == set(catalog.KINDS)
    with pytest.raises(UnsupportedRequestError):
        VarietyDescriptor("Quadric")
    with pytest.raises(ValueError, match="^chi=0 out of range"):
        VarietyDescriptor("Macdonald", (0,))
    # one integer per {} of the spelling
    for kind, args in (("Pn", ()), ("ProjClosure", (2,)), ("G13", (1, 3))):
        with pytest.raises(UnsupportedRequestError):
            VarietyDescriptor(kind, args)


def test_readme_table_has_one_row_per_kind():
    # a README row names the spelling of its kind, each {} as a word
    readme = Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text("utf-8").split("| descriptor | variety | p |")[1]
    rows = re.findall(r"^\| `([^`]+)` \|", table.split("\n\n")[0], re.M)
    assert len(rows) == len(catalog.KINDS)
    for kind in catalog.KINDS.values():
        pattern = r"\w+".join(map(re.escape, kind.spelling.split("{}")))
        assert sum(bool(re.fullmatch(pattern, row)) for row in rows) == 1, \
            kind.spelling


def test_macdonald_is_chi_th_geometric_power():
    r = catalog.macdonald(4)
    f = r.expand(5)
    assert [f.coefficient((d,)) for d in range(5)] == [1, 4, 10, 20, 35]
    with pytest.raises(ValueError):
        catalog.macdonald(0)


def test_lawson_yau_range_check():
    with pytest.raises(ValueError, match=r"^p=3 out of range for Pn\(2\)$"):
        catalog.closed_form(parse_descriptor("Pn(2)"), 3)


def test_split_bundle_closed_shape():
    r = catalog.closed_form(parse_descriptor("ProjClosure(n=2,d=3)"), 1)
    # (1-t0)^-3 (1-t1)^-3 (1-t0^3 t1)^-3, factors in graded-lex order
    assert set(r.denominator) == {((0, 1), 3), ((1, 0), 3), ((3, 1), 3)}
    # p = 0: Macdonald's 1/(1-t)^chi over the point class, chi = 2(n + 1)
    v = parse_descriptor("ProjClosure(n=2,d=3)")
    assert catalog.closed_form(v, 0) == catalog.macdonald(6)


def test_hirzebruch_pipeline_matches_closed_form():
    for d in range(4):
        v = parse_descriptor(f"Hirzebruch({d})")
        closed = catalog.closed_form(v, 1).expand(8)
        pipe = catalog.split_bundle_series(1, d, 1, 8)
        assert first_difference(closed, pipe, 8) is None


def test_split_bundle_p0_pipeline():
    v = parse_descriptor("ProjClosure(n=2,d=2)")
    closed = catalog.closed_form(v, 0).expand(6)
    pipe = catalog.split_bundle_series(2, 2, 0, 6)
    assert first_difference(closed, pipe, 6) is None


CELLULAR = [parse_descriptor(text) for text in
            [f"Pn({n})" for n in range(5)]
            + [f"PnxP1({n})" for n in range(5)]
            + [f"ProjClosure(n={n},d={d})" for n in range(5) for d in range(4)]
            + [f"Hirzebruch({d})" for d in range(4)]
            + [f"BlowupPn({n})" for n in range(1, 6)]
            + ["Flag012", "G(1,3)"]]


@pytest.mark.parametrize("v", CELLULAR, ids=str)
def test_euler_characteristic_is_the_number_of_cells(v):
    # a variety with an algebraic cell decomposition has chi(X) equal to
    # the sum over p of rank Pi_p(X), the p-cells; E_0 of the connected X
    # is 1/(1 - t)^chi
    kind = catalog.KINDS[v.kind]
    cells = sum(euler_chow(v, p, method="closed").closed_form.monoid.rank
                for p in range(kind.dim(v) + 1))
    e0 = euler_chow(v, 0, method="closed").closed_form
    assert e0.numerator == (((0,), 1),)
    assert e0.denominator == (((1,), cells),)


def test_grassmannian13_pipeline_all_p():
    for p in range(5):
        closed = catalog.closed_form(parse_descriptor("G(1,3)"), p).expand(8)
        pipe = catalog.grassmannian13_series(p, 8)
        assert first_difference(closed, pipe, 8) is None


def test_grassmannian13_out_of_range():
    with pytest.raises(ValueError):
        catalog.grassmannian13_series(5, 4)
    with pytest.raises(ValueError):
        catalog.closed_form(parse_descriptor("G(1,3)"), 5)


@pytest.mark.parametrize("ft", catalog.SCHUBERT_FORMS, ids=str)
def test_schubert_letters_name_the_symbols_of_each_dimension(ft):
    # the table's letters fix which p a Schubert row serves: one letter
    # per symbol of dimension p, for p = 0 up to the top dimension
    letters = catalog.SCHUBERT_FORMS[ft][0]
    assert [len(schubert.symbols_of_dimension(ft, p))
            for p in range(len(letters))] == [*map(len, letters)]
    assert max(s.dimension() for s in schubert.all_symbols(ft)) == \
        len(letters) - 1


def _unfactored_assemble(target, factors, degree):
    """Reference form of the pipelines: each rational factor expanded to
    the degree, then one push-forward of the exterior product of all of
    them along the concatenated generator images."""
    expanded = [(r.expand(degree), images) for r, images in factors]
    product, images = expanded[0][0], list(expanded[0][1])
    for f, more in expanded[1:]:
        product, _ = exterior(product, f)
        images += more
    out = pushforward(MonoidMorphism(product.monoid, target, tuple(images)),
                      product)
    assert out.bound >= degree
    return FormalSeries(target, degree,
                        {m: c for m, c in out.coefficients.items()
                         if target.grade(m) <= degree})


PIPELINES = (
    [pytest.param(lambda D, c=c: catalog.split_bundle_series(*c, D),
                  id=f"split{c}")
     for c in BUNDLE_CASES + [(2, 2, 0)]]
    + [pytest.param(lambda D, p=p: catalog.grassmannian13_series(p, D),
                    id=f"G13-p{p}")
       for p in range(5)]
    + [pytest.param(lambda D: catalog._assemble(*catalog._flag012_factors(),
                                                D),
                    id="Flag012-p2")])


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_factored_pipeline_equals_unfactored(monkeypatch, pipeline):
    # push-forward is a ring homomorphism: the product of the pushed-forward
    # factors must equal the push-forward of their exterior product
    for degree in (0, 3, 8):
        factored = pipeline(degree)
        calls = []

        def reference(*args):
            calls.append(args[2])
            return _unfactored_assemble(*args)

        with monkeypatch.context() as m:
            m.setattr(catalog, "_assemble", reference)
            unfactored = pipeline(degree)
        assert calls == [degree]
        assert factored == unfactored


def test_flag012_divisor_recurrence_matches_closed_form():
    table = catalog.flag012_divisor_by_recurrence(8, 8)
    f = catalog.closed_form(parse_descriptor("Flag012"), 2).expand(16)
    for r in range(9):
        for s in range(9):
            assert table[r][s] == f.coefficient((r, s))


def test_flag012_divisor_corner_values():
    table = catalog.flag012_divisor_by_recurrence(2, 2)
    assert table[0][0] == 1
    assert table[1][1] == 8
    assert table[2][2] == 27


def test_euler_chow_both_verifies():
    v = parse_descriptor("G(1,3)")
    result = euler_chow(v, 2, method="both")
    assert result.closed_form is not None
    assert result.check == "identity"
    assert result.generator_dictionary == (("x", "⟨0,3⟩^3"),
                                           ("y", "⟨1,2⟩^3"))


def test_euler_chow_closed_only_for_pn():
    v = parse_descriptor("Pn(3)")
    result = euler_chow(v, 1, method="closed")
    assert result.check == "none"
    assert euler_chow(v, 1, method="both").check == "none"


@pytest.mark.parametrize("text, checks", [
    ("Pn(3)", ["none"] * 4),
    ("PnxP1(0)", ["identity", "none"]),
    ("PnxP1(2)", ["identity"] * 3 + ["none"]),
    ("ProjClosure(n=3,d=2)", ["identity"] * 4 + ["none"]),
    ("Hirzebruch(2)", ["identity"] * 2 + ["none"]),
    ("BlowupPn(3)", ["identity"] * 3 + ["none"]),
    ("Flag012", ["none", "none", "identity", "none"]),
    ("G(1,3)", ["identity"] * 5),
    ("Macdonald(5)", ["none"]),
])
def test_euler_chow_cross_check_of_every_served_p(text, checks):
    # the cross-check of every served p, one descriptor per kind, and P^1
    # as PnxP1(0): a lost pipeline fails here.  No pipeline checks the top
    # dimension of a projective closure
    v = parse_descriptor(text)
    assert [euler_chow(v, p).check
            for p in range(catalog.KINDS[v.kind].dim(v) + 1)] == checks


@pytest.mark.parametrize("v", [parse_descriptor(text) for text in (
    "Pn(1)", "Pn(3)", "PnxP1(0)", "ProjClosure(n=3,d=2)", "Hirzebruch(2)",
    "BlowupPn(3)", "Flag012", "G(1,3)")], ids=str)
def test_top_dimension_is_one_rule_for_every_kind(monkeypatch, v):
    # E_dim is 1/(1 - g) over the row's letter for the fundamental class,
    # and the row's own closed form is never read at p = dim
    kind = catalog.KINDS[v.kind]

    def unreadable(*args):
        raise AssertionError("a row's closed form was read at p = dim")

    monkeypatch.setitem(catalog.KINDS, v.kind,
                        kind._replace(closed=unreadable))
    g = GradedMonoid.free([kind.letter])
    assert catalog.closed_form(v, kind.dim(v)) == RationalSeries(
        g, ((g.zero(), 1),), (((1,), 1),))
    assert kind.letter == {"Flag012": "u", "G13": "w"}.get(v.kind, "t")


def test_euler_chow_builds_each_flag_types_symbols_once(monkeypatch):
    # every p of G(1,3) asks for the symbols of G(1,3), F(0,1;2), G(1,2)
    # and G(0,2) again and again; each flag type's are built once
    cached = schubert.all_symbols
    asked = []

    def spy(ft):
        asked.append(ft)
        return cached(ft)

    monkeypatch.setattr(schubert, "all_symbols", spy)
    cached.cache_clear()
    v = parse_descriptor("G(1,3)")
    for p in range(5):
        euler_chow(v, p)
    assert len(asked) > len(set(asked))
    assert cached.cache_info().misses == len(set(asked)) == 4
    assert all(type(cached(ft)) is tuple for ft in set(asked))


def test_euler_chow_p_out_of_range():
    with pytest.raises(ValueError):
        euler_chow(parse_descriptor("Pn(2)"), 3)
    with pytest.raises(ValueError):
        euler_chow(parse_descriptor("Flag012"), 4)


def test_euler_chow_detects_mismatch():
    # a wrong stored closed form must trip the cross-check
    v = parse_descriptor("Hirzebruch(1)")
    good = catalog._split_closed

    def bad(n, d, p):
        return good(n, d + 1, p)

    catalog._split_closed = bad
    try:
        with pytest.raises(VerificationError):
            euler_chow(v, 1, method="both")
    finally:
        catalog._split_closed = good


def test_pipeline_rejects_negative_degree():
    with pytest.raises(ValueError):
        catalog.split_bundle_series(1, 1, 1, -1)


def test_variable_tables_cover_catalog():
    for p in range(4):
        res = euler_chow(parse_descriptor("Flag012"), p, method="closed")
        assert len(res.generator_dictionary) == \
            res.closed_form.monoid.rank


# ---------------------------------------------------------------------------
# Rational pipelines: the truncated pipelines, multiplied out exactly

def _truncated(v, p, degree):
    if v.kind == "Flag012":
        table = catalog.flag012_divisor_by_recurrence(degree, degree)
        return FormalSeries(GradedMonoid.free(["x", "y"]), degree,
                            {(r, s): table[r][s] for r in range(degree + 1)
                             for s in range(degree + 1 - r)})
    return catalog._assemble(*catalog.KINDS[v.kind].pipeline(v, p), degree)


# one descriptor per kind, and every split-bundle case of `verify`
SERVED = [parse_descriptor(text) for text in
          ["Pn(3)", "PnxP1(2)", "ProjClosure(n=3,d=2)", "Hirzebruch(2)",
           "BlowupPn(3)", "Flag012", "G(1,3)", "Macdonald(5)"]
          + [f"ProjClosure(n={n},d={d})" for n, d, _ in BUNDLE_CASES]]
# every (v, p) among them that has a pipeline
RATIONAL_PIPELINES = [
    pytest.param(v, p, id=f"{v}-p{p}")
    for v in SERVED for p in range(catalog.KINDS[v.kind].dim(v) + 1)
    if catalog.KINDS[v.kind].pipeline(v, p) is not None]


def test_rational_pipelines_are_the_three_pipelines():
    assert {v.kind for v in SERVED} == set(catalog.KINDS)
    assert {param.values[0].kind for param in RATIONAL_PIPELINES} == {
        "PnxP1", "ProjClosure", "Hirzebruch", "BlowupPn", "Flag012", "G13"}


def _factor_reads(v, p):
    """The (descriptor, p) of each stored series a pipeline reads, in
    order.  A split pipeline reads E_p and E_{p-1} of its base P^n, and
    Flag012's is the split pipeline of P1 x P1 at p = 1; G(1,3)'s reads
    E_{p-1} of F(0,1;2) and E_p of its two planes, G(1,2) and G(0,2)."""
    if v.kind == "G13":
        return ([(parse_descriptor("Flag012"), p - 1)] * (p > 0)
                + [(parse_descriptor("Pn(2)"), p)] * 2 * (p <= 2))
    n, q = (1, 1) if v.kind == "Flag012" else (
        catalog.KINDS[v.kind].dim(v) - 1, p)
    pn = VarietyDescriptor("Pn", (n,))
    return [(pn, q)] + [(pn, q - 1)] * (q > 0)


@pytest.mark.parametrize("v, p", RATIONAL_PIPELINES)
def test_rational_pipeline_equals_truncated_pipeline(monkeypatch, v, p):
    # the pipelines never read the closed form they are checked against:
    # they read their factors through `closed_form`, never their own row
    def unreadable(*args):
        raise AssertionError("a pipeline read a closed form")

    kind = catalog.KINDS[v.kind]
    real_form = catalog.closed_form
    read = []

    def closed_form(w, q):
        if w == v:
            unreadable()
        read.append((w, q))
        return real_form(w, q)

    closed = catalog.closed_form(v, p)
    with monkeypatch.context() as m:
        m.setitem(catalog.KINDS, v.kind, kind._replace(closed=unreadable))
        m.setattr(catalog, "_split_closed", unreadable)
        m.setattr(catalog, "closed_form", closed_form)
        rational = catalog._push_product(*kind.pipeline(v, p))
        assert read == _factor_reads(v, p)
        for degree in (0, 3, 10):
            assert rational.expand(degree) == _truncated(v, p, degree)
    # the identity holds as an identity of polynomials: nothing is expanded
    monkeypatch.setattr(RationalSeries, "expand", unreadable)
    assert first_rational_difference(closed, rational) is None


def _changed(r, numerator=(), denominator=()):
    return RationalSeries(r.monoid, r.numerator + numerator,
                          r.denominator + denominator)


@pytest.mark.parametrize("v, p", RATIONAL_PIPELINES)
def test_rational_identity_fails_on_a_changed_closed_form(v, p):
    closed = catalog.closed_form(v, p)
    rational = catalog._push_product(*catalog.KINDS[v.kind].pipeline(v, p))
    (m, c), (dm, de) = closed.numerator[0], closed.denominator[0]
    for wrong in (_changed(closed, numerator=((m, 1),)),
                  _changed(closed, denominator=((dm, 1),))):
        diff = first_rational_difference(wrong, rational)
        assert diff is not None
        # it is the first difference of the expansions, at any degree
        degree = wrong.monoid.grade(diff[0]) + 2
        assert first_difference(wrong.expand(degree),
                                rational.expand(degree), degree) == diff


def test_g13_p3_pipeline_cancels_against_the_closed_form():
    z = GradedMonoid.free(["z"])
    rational = catalog._push_product(
        *catalog.KINDS["G13"].pipeline(parse_descriptor("G(1,3)"), 3))
    assert rational == RationalSeries(z, (((0,), 1), ((2,), -1)),
                                      (((1,), 6),))
    closed = catalog.closed_form(parse_descriptor("G(1,3)"), 3)
    assert closed == RationalSeries(z, (((0,), 1), ((1,), 1)), (((1,), 5),))
    assert first_rational_difference(closed, rational) is None



@pytest.mark.parametrize("v", SERVED, ids=str)
def test_closed_forms_round_trip_through_series_files(v):
    # each file is the json.dumps(indent=2) text of its document
    for p in range(catalog.KINDS[v.kind].dim(v) + 1):
        closed = catalog.closed_form(v, p)
        text = dumps(closed)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert loads(text) == closed
