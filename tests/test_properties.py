"""Property-based checks of the ring and morphism laws of `verify`, of
`dumps` and `first_difference` against their plain reference forms, of
`_entries`' one `%` per array against one `%` per term, and of `loads`
on damaged series files, compact or in the layout `dumps` writes,
against the per-entry reader, on cases drawn by Hypothesis; that
`loads` reads what `dumps` writes by that layout, with a lower memory
peak; that every engine result, built without the key scan, passes it;
and that `expand`'s count before dividing is the largest ray total of a
catalog form."""

import gc
import json
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerchow import catalog, series
from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.series import (FormalSeries, RationalSeries, TruncationError,
                              convolve, dumps, exterior, first_difference,
                              loads, one, pullback, pushforward)
from eulerchow.verify import (convolve_matches_oracle, exterior_associativity,
                              functoriality, law_failure, pullback_is_linear,
                              pushforward_is_homomorphism, ring_laws)


@st.composite
def monoids(draw, max_rank=3):
    rank = draw(st.integers(1, max_rank))
    weights = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    return GradedMonoid.free([f"g{i}" for i in range(rank)], weights)


@st.composite
def series_over(draw, monoid, max_bound=6):
    bound = draw(st.integers(1, max_bound))
    elements = monoid.enumerate_up_to(bound)
    coeffs = {}
    for m in elements:
        if draw(st.booleans()):
            coeffs[m] = draw(st.integers(-9, 9))
    return FormalSeries(monoid, bound, coeffs)


@st.composite
def series_triples(draw):
    m = draw(monoids())
    return tuple(draw(series_over(m)) for _ in range(3))


def _nonzero_images(draw, source, target):
    return tuple(
        tuple(draw(st.lists(st.integers(0, 2), min_size=target.rank,
                            max_size=target.rank).filter(any)))
        for _ in range(source.rank))


@st.composite
def morphism_with_series(draw):
    src = draw(monoids(max_rank=2))
    dst = draw(monoids(max_rank=2))
    phi = MonoidMorphism(src, dst, _nonzero_images(draw, src, dst))
    return phi, draw(series_over(src)), draw(series_over(dst))


@settings(max_examples=60, deadline=None)
@given(series_triples())
def test_convolution_ring_laws(fgh):
    assert law_failure(ring_laws(fgh)) is None


@settings(max_examples=60, deadline=None)
@given(morphism_with_series())
def test_pushforward_is_ring_homomorphism(case):
    phi, f, _ = case
    g = FormalSeries(f.monoid, f.bound,
                     {m: c + 1 for m, c in f.coefficients.items()})
    assert law_failure(pushforward_is_homomorphism((phi, f, g))) is None


@settings(max_examples=60, deadline=None)
@given(morphism_with_series(), st.integers(-4, 4))
def test_pullback_is_linear(case, s):
    phi, _, g = case
    h = FormalSeries(g.monoid, g.bound,
                     {m: c - 2 for m, c in g.coefficients.items()})
    assert law_failure(pullback_is_linear((phi, g, h, s))) is None


@st.composite
def morphism_chains(draw):
    names = iter("abc")
    ms = []
    for name in names:
        rank = draw(st.integers(1, 2))
        ms.append(GradedMonoid.free([f"{name}{i}" for i in range(rank)]))
    a, b, c = ms
    phi = MonoidMorphism(a, b, _nonzero_images(draw, a, b))
    psi = MonoidMorphism(b, c, _nonzero_images(draw, b, c))
    return phi, psi, draw(series_over(a)), draw(series_over(c))


@settings(max_examples=40, deadline=None)
@given(morphism_chains())
def test_functoriality_under_composition(case):
    assert law_failure(functoriality(case)) is None


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_exterior_associativity(fgh):
    assert law_failure(exterior_associativity(fgh)) is None


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_engine_matches_oracle(fgh):
    assert law_failure(convolve_matches_oracle(fgh[:2])) is None


def assert_public_constructor_agrees(r):
    """r, built by the engine without a key scan, is what the public
    constructor builds from its parts: its keys pass the scan, and its
    table holds no zero."""
    assert FormalSeries(r.monoid, r.bound,
                        r.coefficients).coefficients == r.coefficients


@settings(max_examples=60, deadline=None)
@given(series_triples(), morphism_with_series(), st.integers(-2, 2),
       st.data())
def test_engine_results_keep_the_key_invariant(fgh, case, s, data):
    f, g, _ = fgh
    phi, src, dst = case
    bound = data.draw(st.integers(0, f.bound))
    for r in (convolve(f, g), exterior(f, g)[0], f + g, f + f.scale(s),
              f.scale(s), one(f.monoid, bound), pushforward(phi, src),
              pullback(phi, dst)):
        assert_public_constructor_agrees(r)


def catalog_forms():
    """(name, closed form) for every p of one variety of each kind."""
    for text in ("Pn(3)", "PnxP1(2)", "ProjClosure(n=3,d=2)",
                 "Hirzebruch(2)", "BlowupPn(3)", "Flag012", "G(1,3)",
                 "Macdonald(4)"):
        v = catalog.parse_descriptor(text)
        for p in range(catalog.KINDS[v.kind].dim(v) + 1):
            yield (f"{text} p={p}",
                   catalog.euler_chow(v, p, method="closed").closed_form)


CATALOG_FORMS = dict(catalog_forms())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(CATALOG_FORMS.values())), st.integers(0, 24))
def test_catalog_expansions_keep_the_key_invariant(r, degree):
    assert_public_constructor_agrees(r.expand(degree))


def counted_before_dividing(r):
    """Numerator 1 and every generator a denominator factor."""
    factors = {m for m, _ in r.denominator}
    return (r.numerator == ((r.monoid.zero(), 1),)
            and all(r.monoid.generator(i) in factors
                    for i in range(r.monoid.rank)))


def ray_total(monoid, table, m, degree):
    """The terms `_divide` allocates for table / (1 - t^m)^e: one ray per
    distinct base, from the base up to the degree."""
    bases = set()
    for x in table:
        k = min(a // b for a, b in zip(x, m) if b)
        bases.add(tuple(a - k * b for a, b in zip(x, m)))
    return sum((degree - monoid.grade(y)) // monoid.grade(m) + 1
               for y in bases)


@pytest.mark.parametrize("r", [
    pytest.param(r, id=name) for name, r in CATALOG_FORMS.items()
    if counted_before_dividing(r)])
def test_the_largest_ray_total_is_the_simplex_count(monkeypatch, r):
    # over weight-1 generators, the largest per-factor total `_divide`
    # checks against the cap is C(D + rank, rank): `expand` serves the
    # degree under a cap of exactly that count, and under one less refuses
    # it before any division
    totals = []
    divide = series._divide

    def spy(monoid, table, m, e, degree):
        totals.append(ray_total(monoid, table, m, degree))
        return divide(monoid, table, m, e, degree)

    monkeypatch.setattr(series, "_divide", spy)
    rank = r.monoid.rank
    for degree in (0, 7, 30):
        count = math.comb(degree + rank, rank)
        totals.clear()
        monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", count)
        r.expand(degree)
        assert max(totals) == count
        totals.clear()
        monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", count - 1)
        with pytest.raises(TruncationError,
                           match=f"needs more than {count - 1} terms"):
            r.expand(degree)
        assert totals == []


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_json_round_trip(fgh):
    f, _, _ = fgh
    assert loads(dumps(f)) == f


def graded_lex_key(monoid):
    """The reference sort key of graded-lex order: grade, then the
    exponent tuple."""
    return lambda m: (monoid.grade(m), m)


def reference_monoid(monoid):
    return {"generators": [{"label": lab, "weight": w}
                           for lab, w in monoid.generators]}


def reference_payload(f):
    """The document `dumps` writes for a series, built as plain data for
    `json.dumps(..., indent=2, ensure_ascii=True)`."""
    key = graded_lex_key(f.monoid)
    items = sorted(f.coefficients.items(), key=lambda mc: key(mc[0]))
    return {
        "monoid": reference_monoid(f.monoid),
        "bound": f.bound,
        "coefficients": [{"exponents": list(m), "value": str(c)}
                         for m, c in items],
    }


# labels weighted toward what JSON must escape: quotes, backslashes,
# control characters and non-ASCII text
LABELS = st.text(
    st.sampled_from('a"\\\x00\x1f\x7f\u00e9\u27e8\u2028\U0001f600')
    | st.characters(), max_size=3)
BIG = st.integers(10**99, 10**120)
INTS = st.integers(-1000, 1000) | BIG | BIG.map(lambda n: -n)


@st.composite
def printable_monoids(draw):
    labels = draw(st.lists(LABELS, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(labels),
                            max_size=len(labels)))
    return GradedMonoid.free(labels, weights)


@st.composite
def printable_series(draw):
    monoid = draw(printable_monoids())
    bound = draw(st.integers(0, 5))
    coeffs = {}
    for m in monoid.enumerate_up_to(bound):
        if draw(st.booleans()):
            coeffs[m] = draw(INTS)
    return FormalSeries(monoid, bound, coeffs)


# t1 of weight 2, so 1/((1 - t0)(1 - t1^2)) has about g/4 terms of grade g
_T0T1 = GradedMonoid.free(["t0", "t1"], [1, 2])


@settings(max_examples=200, deadline=None)
@given(printable_series())
@example(FormalSeries(GradedMonoid(()), 0, {}))
@example(FormalSeries(GradedMonoid(()), 3, {(): -7}))
@example(FormalSeries(GradedMonoid.free(["x"]), 2, {}))
# realistic sizes, with many keys of one grade: the order of two stable
# sorts against the reference's sort by grade, then element
@example(catalog.schubert_closed(catalog.FLAG012, 1).expand(30))
@example(RationalSeries(_T0T1, ((_T0T1.zero(), 1),),
                        (((1, 0), 1), ((0, 2), 1))).expand(30))
def test_dumps_is_the_reference_encoding(f):
    text = dumps(f)
    assert text == json.dumps(reference_payload(f), indent=2,
                              ensure_ascii=True) + "\n"
    assert loads(text) == f


def reference_rational_payload(r):
    """The document `dumps` writes for a rational series, as plain data;
    numerator terms and denominator factors in graded-lex order."""
    key = graded_lex_key(r.monoid)

    def by_grade(pairs):
        return sorted(pairs, key=lambda mc: key(mc[0]))

    return {
        "monoid": reference_monoid(r.monoid),
        "numerator": [{"exponents": list(m), "value": str(c)}
                      for m, c in by_grade(r.numerator)],
        "denominator": [{"exponents": list(m), "multiplicity": e}
                        for m, e in by_grade(r.denominator)],
    }


@st.composite
def printable_rationals(draw):
    monoid = draw(printable_monoids())
    # graded-lex order puts the zero element, of grade 0, first: it may be
    # a numerator term but not a denominator factor
    elements = monoid.enumerate_up_to(3)
    numerator = [(m, draw(INTS)) for m in elements if draw(st.booleans())]
    denominator = [(m, draw(st.integers(1, 3))) for m in elements[1:]
                   if draw(st.booleans())]
    return RationalSeries(monoid, tuple(numerator), tuple(denominator))


@settings(max_examples=200, deadline=None)
@given(printable_rationals())
@example(RationalSeries(GradedMonoid(()), (), ()))
@example(RationalSeries(GradedMonoid.free(["x"]), (), (((1,), 2),)))
@example(RationalSeries(GradedMonoid.free(["x"]), (((0,), -10**120),), ()))
@example(catalog.schubert_closed(catalog.FLAG012, 2))
# (t0 + t1)/((1 - t0)(1 - t1)), t1 of weight 2: t1 = (0, 1) comes first
# in the stored lex order, but has the higher grade
@example(RationalSeries(_T0T1, (((1, 0), 1), ((0, 1), 1)),
                        (((1, 0), 1), ((0, 1), 1))))
def test_rational_dumps_is_the_reference_encoding(r):
    text = dumps(r)
    assert text == json.dumps(reference_rational_payload(r), indent=2,
                              ensure_ascii=True) + "\n"
    assert loads(text) == r


_XY = GradedMonoid.free(["x", "y"])
_W = GradedMonoid.free(["t"], [2])


@st.composite
def series_pairs(draw):
    """(f, g, degree): g is f with a few coefficients changed, dropped or
    added, so some pairs are equal and some differ at several grades."""
    f = draw(series_over(draw(monoids())))
    coeffs = dict(f.coefficients)
    for m in f.monoid.enumerate_up_to(f.bound):
        if draw(st.integers(0, 4)) == 0:
            coeffs[m] = draw(st.integers(-2, 2))
    g = FormalSeries(f.monoid, f.bound, coeffs)
    return f, g, draw(st.integers(0, f.bound))


@settings(max_examples=300, deadline=None)
@given(series_pairs())
# two differences at one grade: the lexicographic order picks (0, 1)
@example((FormalSeries(_XY, 2, {(1, 0): 1, (0, 1): 1}),
          FormalSeries(_XY, 2, {(1, 0): 2, (0, 1): 2}), 1))
# a key in one series only, at a grade tied with a key in the other only
@example((FormalSeries(_XY, 2, {(2, 0): 4}),
          FormalSeries(_XY, 2, {(1, 1): 5}), 2))
# the degree falls between two differences, and below both
@example((FormalSeries(_W, 6, {(1,): 1, (3,): 1}), FormalSeries(_W, 6), 4))
@example((FormalSeries(_W, 6, {(1,): 1, (3,): 1}), FormalSeries(_W, 6), 1))
# equal series, and two zero series
@example((FormalSeries(_XY, 3, {(0, 0): 1, (1, 2): -3}),
          FormalSeries(_XY, 3, {(0, 0): 1, (1, 2): -3}), 3))
@example((FormalSeries(_XY, 3), FormalSeries(_XY, 3), 3))
def test_first_difference_is_the_first_in_sorted_order(case):
    f, g, degree = case
    grade = f.monoid.grade
    keys = {m for m in f.coefficients.keys() | g.coefficients.keys()
            if grade(m) <= degree}
    expected = None
    for m in sorted(keys, key=graded_lex_key(f.monoid)):
        a, b = f.coefficients.get(m, 0), g.coefficients.get(m, 0)
        if a != b:
            expected = m, a, b
            break
    assert first_difference(f, g, degree) == expected
    assert first_difference(g, f, degree) == (
        None if expected is None else (expected[0], expected[2], expected[1]))


_T = GradedMonoid.free(["t", "u"], [1, 2])
_RATIONAL = RationalSeries(_T, (((0, 0), 1), ((1, 0), -2)),
                           (((1, 0), 3), ((1, 1), 1)))
# valid documents: two series, a rational series
PAYLOADS = [json.loads(dumps(x)) for x in (
    _RATIONAL.expand(3),
    FormalSeries(_T, 2, {(0, 0): 12, (0, 1): -3}),
    _RATIONAL)]

# any JSON value, weighted toward the numbers a file must not hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers() | st.sampled_from([10**400, -10**400, "1e400", "0x10"])
    # and the edge values of the integer rule
    | st.sampled_from(["-", "--1", "1-2", "", "1,2", "7\n8", "+7", "-0"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def _paths(node, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@st.composite
def damaged_files(draw):
    doc = draw(st.sampled_from(PAYLOADS))
    path = draw(st.sampled_from(list(_paths(doc))))
    return json.dumps(_replaced(doc, path, draw(JSON_VALUES)))


def _in_layout(doc, path=(), slot=None):
    """`doc` in the layout `dumps` writes; with a slot text, the int or
    decimal string at `path` is written as that text instead."""
    if slot is None:
        return json.dumps(doc, indent=2) + "\n"
    marker = 987654321
    old = doc
    for key in path:
        old = old[key]
    doc = _replaced(doc, path, type(old)(marker))
    return _in_layout(doc).replace(str(marker), slot)


# slot texts weighted toward those a flat `json.loads` reads otherwise
# than the `INTEGER` rule, or refuses: a leading zero, "-0", a value past
# the digit limit, floats; and "-1", which the key check refuses as an
# exponent
SLOT_TEXTS = st.sampled_from(["007", "-0", "0", "01", "-1", "", "1-2", "-",
                              "9" * 5000, "12", " 3", "1.0", "2e1"])


@st.composite
def layout_files(draw):
    """The text `dumps` writes for a drawn series or rational series,
    damaged in one way or not at all: one character changed, whitespace
    added, one number written as a drawn slot text, one field of the
    document replaced, or an entry moved or repeated, the last two
    written back in the layout."""
    obj = draw(printable_series() | printable_rationals())
    text = dumps(obj)
    damage = draw(st.integers(0, 5))
    if damage == 1:
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from('07-" \n,:{}[]x'))
        text = text[:i] + c + text[i + 1:]
    elif damage == 2:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(" \n\t")) + text[i:]
    elif damage == 3:
        spans = [m.span() for m in re.finditer("-?[0-9]+", text)]
        if spans:
            a, b = draw(st.sampled_from(spans))
            text = text[:a] + draw(SLOT_TEXTS) + text[b:]
    elif damage == 4:
        doc = json.loads(text)
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(JSON_VALUES | SLOT_TEXTS | st.integers(-2, 2))
        text = _in_layout(_replaced(doc, path, value))
    elif damage == 5:
        doc = json.loads(text)
        arrays = [a for k, a in doc.items() if k != "monoid" and a and
                  isinstance(a, list)]
        if arrays:
            entries = draw(st.sampled_from(arrays))
            entry = entries[draw(st.integers(0, len(entries) - 1))]
            if draw(st.booleans()):
                entries.remove(entry)
            entries.insert(draw(st.integers(0, len(entries))), entry)
            text = _in_layout(doc)
    return text


def reference_table(data, name, field, read):
    """The per-entry reader of `loads`, which reads every text that is
    not in the layout `dumps` writes: one entry at a time, keys before
    values."""
    entries = series.list_from_json(data[name])
    table = {tuple(t["exponents"]): read(t[field]) for t in entries}
    if len(table) != len(entries):
        raise ValueError(f"repeated exponents in {name}")
    return table


def reference_loads(text):
    """`loads` with every entry array read by `reference_table`."""
    int_from_json = series.int_from_json
    try:
        data = json.loads(text)
        monoid = GradedMonoid(tuple(
            (g["label"], int_from_json(g["weight"]))
            for g in series.list_from_json(data["monoid"]["generators"])))
        if "coefficients" in data:
            return FormalSeries(
                monoid, int_from_json(data["bound"]),
                reference_table(data, "coefficients", "value",
                                int_from_json))
        return RationalSeries(
            monoid,
            tuple(reference_table(data, "numerator", "value",
                                  int_from_json).items()),
            tuple(reference_table(data, "denominator", "multiplicity",
                                  int_from_json).items()))
    except (KeyError, TypeError, AttributeError, ValueError,
            RecursionError) as exc:
        raise ValueError(f"malformed series file: {exc!r}") from None


def _outcome(read, text):
    """What a reader makes of a text: its object and the order of its
    coefficient table, or its error text."""
    try:
        obj = read(text)
    except ValueError as exc:
        return str(exc)
    return obj, list(getattr(obj, "coefficients", ()))


def _with_value(doc, i, value):
    return json.dumps(_replaced(doc, ("coefficients", i, "value"), value))


# the series of PAYLOADS[0] in the layout, and forms of rank 0 and 1 and
# with escaped and non-ASCII labels
_LAYOUT = PAYLOADS[0]
_RANK0 = FormalSeries(GradedMonoid(()), 2, {(): 7})
_RANK1 = RationalSeries(GradedMonoid.free(["x"]), (((0,), 1), ((2,), -4)),
                        (((1,), 2),))
_LABELLED = FormalSeries(
    GradedMonoid.free(['a"\\\n', "\u00e9\U0001f600"]), 2,
    {(1, 0): 3, (0, 1): -1, (0, 0): 1})
_RANK3 = RationalSeries(GradedMonoid.free(["a", "b", "c"]),
                        (((0, 0, 0), 1),), (((1, 0, 0), 1), ((0, 1, 1), 2)))


def _in_array(text, old, new):
    """`text` with the first `old` from its first entry on made `new`."""
    i = text.index('"exponents"')
    return text[:i] + text[i:].replace(old, new, 1)


def _rank0_repeated(exponents="[]"):
    """The rank-0 series of one term, in the layout with its one entry
    written twice, the second one's exponents as `exponents`."""
    text = _in_layout({**json.loads(dumps(_RANK0)), "coefficients": [
        {"exponents": [], "value": "7"}] * 2})
    head, _, tail = text.rpartition('"exponents": []')
    return head + '"exponents": ' + exponents + tail


@settings(max_examples=600, deadline=None)
@given(damaged_files() | layout_files())
# in the layout: the series, one with its first entries swapped, one with
# a repeated entry and one with a grade over its bound; and "bound": -1
# with an empty array, which `_trusted` refuses in the layout reader
@example(_in_layout(_LAYOUT))
@example(_in_layout({**_LAYOUT, "coefficients": [
    _LAYOUT["coefficients"][1], _LAYOUT["coefficients"][0],
    *_LAYOUT["coefficients"][2:]]}))
@example(_in_layout({**_LAYOUT, "coefficients": [
    *_LAYOUT["coefficients"], _LAYOUT["coefficients"][0]]}))
@example(_in_layout({**_LAYOUT, "bound": 1}))
@example(_in_layout({**_LAYOUT, "bound": -1, "coefficients": []}))
# slot texts in the layout: values the `INTEGER` rule takes but a flat
# `json.loads` does not ("007"), or reads as 0 ("-0"); exponents that the
# whole-text parse refuses ("01") or the key check refuses ("-1"); a
# value past the digit limit
@example(_in_layout(_LAYOUT, ("coefficients", 1, "value"), "007"))
@example(_in_layout(_LAYOUT, ("coefficients", 1, "value"), "-0"))
@example(_in_layout(_LAYOUT, ("coefficients", 1, "value"), "0"))
@example(_in_layout(_LAYOUT, ("coefficients", 1, "exponents", 0), "01"))
@example(_in_layout(_LAYOUT, ("coefficients", 1, "exponents", 0), "-1"))
@example(_in_layout(_LAYOUT, ("coefficients", 1, "value"), "9" * 5000))
# an exponent the skeleton check refuses ("1.0"), and a head that is
# JSON but not the writer's: the array renamed
@example(_in_layout(_LAYOUT, ("coefficients", 1, "exponents", 0), "1.0"))
@example(_in_layout(_LAYOUT).replace('"coefficients"', '"terms"'))
@example(_in_layout(PAYLOADS[2], ("denominator", 0, "multiplicity"), "01"))
# an exponent moved within the whitespace before it, and a digit added
# to the whitespace before the first exponent: both leave the skeleton as
# it was, and the first reads the same number, the second is not JSON
@example(dumps(_RANK1.expand(3)).replace(
    '[\n        2\n      ]', '[\n      2  \n      ]'))
@example(dumps(_RANK1.expand(3)).replace(
    '[\n        0', '[\n    5    0', 1))
# the separators that the layout reader makes one comma each: a digit
# just after the comma between two entries, before a value and between
# two exponents, and a second comma
@example(_in_array(_in_layout(_LAYOUT), "},\n", "},5\n"))
@example(_in_array(_in_layout(_LAYOUT), "],\n", "],5\n"))
@example(_in_array(_in_layout(_LAYOUT), ",\n        ", ",5\n        "))
@example(_in_array(_in_layout(_LAYOUT), "},\n", "},,\n"))
# a rank-0 entry written twice, whose separator holds two commas; with a
# digit between them, the numbers make a JSON list of three
@example(_rank0_repeated())
@example(_rank0_repeated("[5]"))
# rank 3, as a form and expanded, and with a digit after a comma
@example(dumps(_RANK3))
@example(dumps(_RANK3.expand(4)))
@example(_in_array(dumps(_RANK3.expand(4)), ",\n        ", ",5\n        "))
@example(dumps(_RANK0))
@example(dumps(_RANK1))
@example(dumps(_LABELLED))
@example(dumps(_RATIONAL))
@example(json.dumps({**PAYLOADS[0], "bound": math.inf}))
@example(json.dumps(PAYLOADS[0]))
@example(json.dumps(PAYLOADS[1]))
@example(json.dumps(PAYLOADS[2]))
# compact texts: a value past the digit limit, which `int` refuses
@example(_with_value(PAYLOADS[0], 1, "9" * 5000))
# bad values after good ones: one that `int` takes but the rule refuses,
# one that `int` refuses; and a bad key after a bad value
@example(_with_value(PAYLOADS[0], 2, "+7"))
@example(_with_value(PAYLOADS[0], 2, "1,2"))
@example(json.dumps(_replaced(
    json.loads(_with_value(PAYLOADS[0], 0, "+7")),
    ("coefficients", 1, "exponents"), [[0]])))
def test_loads_returns_or_raises_the_format_error(text):
    # the same object or the same error text as the per-entry reader
    outcome = _outcome(loads, text)
    if isinstance(outcome, str):
        assert outcome.startswith("malformed series file: ")
    assert outcome == _outcome(reference_loads, text)


def per_term_entries(monoid, table, field, value):
    """An entry array written term by term: one `%` of one `_entry`
    template per term, in graded-lex order."""
    entry = series._entry(monoid.rank, field, value)
    return series._array([entry % (*m, table[m])
                          for m in monoid.graded_lex(table)])


@settings(max_examples=100, deadline=None)
@given(printable_series() | printable_rationals())
@example(FormalSeries(GradedMonoid(()), 0, {(): 5}))
@example(_RANK1.expand(3))
@example(_RANK3.expand(4))
@example(_RANK3)
def test_entries_writes_each_array_as_term_by_term(x):
    # each array of the drawn series or form, and the empty table, as
    # the one `%` over the whole array writes it and term by term
    if isinstance(x, FormalSeries):
        arrays = [(x.coefficients, "value", '"%d"')]
    else:
        arrays = [(dict(x.numerator), "value", '"%d"'),
                  (dict(x.denominator), "multiplicity", "%d")]
    for table, field, value in [*arrays, ({}, "value", '"%d"')]:
        assert (series._entries(x.monoid, table, field, value)
                == per_term_entries(x.monoid, table, field, value))


def test_json_int_values_load_as_their_decimal_strings():
    # an array that mixes JSON ints and decimal strings is read entry by
    # entry, and reads the same series as the all-string file
    doc = json.loads(json.dumps(PAYLOADS[0]))
    for i, entry in enumerate(doc["coefficients"]):
        if i % 2:
            entry["value"] = int(entry["value"])
    assert {type(e["value"]) for e in doc["coefficients"]} == {int, str}
    assert loads(json.dumps(doc)) == loads(json.dumps(PAYLOADS[0]))


# monoids of rank 0 to 3; the examples over them include the zero series
# and a form with no numerator
_SPY_MONOIDS = [GradedMonoid(()), GradedMonoid.free(["x"]),
                GradedMonoid.free(["x", "y"], [1, 2]),
                GradedMonoid.free(["a", "b", "c"])]


@settings(max_examples=100, deadline=None)
@given(printable_series() | printable_rationals())
@example(FormalSeries(_SPY_MONOIDS[0], 1, {}))
@example(FormalSeries(_SPY_MONOIDS[0], 1, {(): -3}))
@example(RationalSeries(_SPY_MONOIDS[0], (((), 2),), ()))
@example(FormalSeries(_SPY_MONOIDS[1], 4, {(0,): 1, (4,): 10**200}))
@example(RationalSeries(_SPY_MONOIDS[1], (), (((1,), 3),)))
@example(RationalSeries(_SPY_MONOIDS[2], (((0, 0), 1), ((1, 1), -1)),
                        (((1, 0), 2), ((0, 1), 1))).expand(6))
@example(RationalSeries(_SPY_MONOIDS[2], (((0, 0), 1), ((1, 1), -1)),
                        (((1, 0), 2), ((0, 1), 1))))
@example(RationalSeries(_SPY_MONOIDS[3], (((0, 0, 0), 1),),
                        (((1, 0, 0), 1), ((0, 1, 1), 2))).expand(5))
@example(RationalSeries(_SPY_MONOIDS[3], (((0, 0, 0), 1),),
                        (((1, 0, 0), 1), ((0, 1, 1), 2))))
def test_loads_reads_what_dumps_writes_by_its_layout(x):
    # an int series or a rational form is read by the layout reader, never
    # entry by entry: a writer that drifted from the reader would restore
    # the slow path unseen, so here it fails
    def per_entry(*args):
        raise AssertionError("read entry by entry")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_table_from_json", per_entry)
        y = loads(dumps(x))
    assert y == x


def test_loads_peak_memory_is_below_the_per_entry_readers():
    # the 13,041-term G(1,3) p = 2 file at D = 160: the layout reader holds
    # no JSON object per entry, nor a regex match of the whole array
    text = dumps(catalog.schubert_closed(catalog.G13, 2).expand(160))
    assert text.count('"exponents"') == 13041

    def peak(read):
        gc.collect()
        tracemalloc.start()
        try:
            read(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(loads) < peak(reference_loads)
