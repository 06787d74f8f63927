import copy
import math
import pickle
import random
from collections.abc import Hashable
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerchow import catalog, cli, schubert, series, verify
from eulerchow.monoid import GradedMonoid, MonoidMismatchError, MonoidMorphism
from eulerchow.series import (MAX_EXPANSION_TERMS, FormalSeries,
                              RationalSeries, TruncationError, convolve,
                              dumps, exterior, first_difference,
                              first_rational_difference, loads, one,
                              pullback, pullback_bound, pushforward,
                              pushforward_bound)

T = GradedMonoid.free(["t"])
XY = GradedMonoid.free(["x", "y"])
GRASS = catalog.parse_descriptor("G(1,3)")


def truncated(f, bound):
    """f's terms of grade <= bound, as a series with that bound."""
    return FormalSeries(f.monoid, bound,
                        {m: c for m, c in f.coefficients.items()
                         if f.monoid.grade(m) <= bound})


def geometric(monoid, bound):
    """All-ones series: 1/(1-t) in each variable jointly (for T: 1/(1-t))."""
    return FormalSeries(monoid, bound,
                        {m: 1 for m in monoid.enumerate_up_to(bound)})


# ---------------------------------------------------------------------------
# FormalSeries basics

def test_zero_coefficients_dropped():
    f = FormalSeries(T, 3, {(1,): 0, (2,): 5})
    assert f.coefficients == {(2,): 5}
    assert f.coefficient((1,)) == 0


def test_construction_copies_the_callers_table():
    # a table with no zero is copied whole, one with a zero is filtered;
    # either way the series keeps its own dict
    for table in ({(1,): 2, (2,): 3}, {(0,): 0, (1,): 2, (2,): 3},
                  {(1,): 2, (2,): 3, (3,): 0}):
        f = FormalSeries(T, 3, table)
        assert f.coefficients == {(1,): 2, (2,): 3}
        table[(1,)] = 7
        table[(3,)] = 1
        del table[(2,)]
        assert f.coefficients == {(1,): 2, (2,): 3}


def test_coefficient_beyond_bound_raises():
    f = one(T, 3)
    with pytest.raises(TruncationError):
        f.coefficient((4,))


def test_constructor_rejects_terms_beyond_bound():
    with pytest.raises(TruncationError):
        FormalSeries(T, 2, {(3,): 1})
    with pytest.raises(ValueError):
        FormalSeries(T, -1, {})


@pytest.mark.parametrize("value", [1.5, True, Fraction(1, 2), 0.0])
def test_constructor_rejects_coefficients_that_are_not_integers(value):
    # `dumps` would write "1.5", "True" or "1/2", which `loads` rejects
    with pytest.raises(TypeError):
        FormalSeries(T, 2, {(1,): value})


def test_constructor_rejects_a_bound_that_is_not_an_integer():
    for bound in (2.0, True):
        with pytest.raises(TypeError):
            FormalSeries(T, bound, {})


@pytest.mark.parametrize("key, error", [
    ((1,), MonoidMismatchError),
    ((1, 0, 0), MonoidMismatchError),
    ((), MonoidMismatchError),
    ((True, 0), TypeError),
    ((0, 1.0), TypeError),
    (("1", 0), TypeError),
    ((-1, 2), ValueError),
    ((0, -1), ValueError),
    ((3, 2), TruncationError),
    (frozenset({1}), TypeError),
    ("ab", TypeError),
    (7, TypeError),
], ids=repr)
def test_constructor_rejects_a_malformed_key(key, error):
    # one bad key among good ones, with any value, fails the whole table
    for value in (1, 0):
        table = {(0, 0): 1, key: value, (1, 1): 2}
        with pytest.raises(error) as info:
            FormalSeries(XY, 4, table)
        assert type(info.value) is error


def key_error(monoid, bound, m):
    """The per-key rule of a series key, written out: the class of the
    error a key raises, or None for a valid key."""
    if type(m) is not tuple:
        return TypeError
    if len(m) != monoid.rank:
        return MonoidMismatchError
    for e in m:
        if type(e) is not int:
            return TypeError
        if e < 0:
            return ValueError
    if sum(w * e for w, e in zip(monoid.weights, m)) > bound:
        return TruncationError
    return None


EXPONENTS = st.one_of(st.integers(-1, 4), st.integers(0, 4),
                      st.sampled_from([True, False, 1.0, "1", None]))


@st.composite
def key_tables(draw):
    rank = draw(st.integers(0, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    monoid = GradedMonoid.free([f"g{i}" for i in range(rank)], weights)
    good = st.tuples(*[st.integers(0, 4)] * rank)
    keys = st.one_of(
        good, good, good,
        st.lists(EXPONENTS, min_size=rank, max_size=rank).map(tuple),
        st.lists(st.integers(0, 2), max_size=4).map(tuple),
        st.frozensets(st.integers(0, 2), max_size=2),
        st.integers(0, 3))
    pairs = draw(st.lists(st.tuples(keys, st.integers(-2, 2)), max_size=6))
    return monoid, draw(st.integers(0, 8)), dict(pairs)


@settings(max_examples=300)
@given(key_tables())
@example((XY, 4, {}))
@example((GradedMonoid(()), 0, {(): 3}))
@example((GradedMonoid(()), 0, {(0,): 3}))
@example((XY, 4, {(0, 0): 0, (5, 0): 0}))
def test_constructor_raises_exactly_when_a_key_breaks_the_rule(case):
    monoid, bound, table = case
    errors = [key_error(monoid, bound, m) for m in table]
    error = next(filter(None, errors), None)
    if error is None:
        f = FormalSeries(monoid, bound, table)
        kept = [(m, c) for m, c in table.items() if c]
        assert list(f.coefficients.items()) == kept
        # the keys are stored as given, not converted
        assert all(a is b for a, (b, _) in zip(f.coefficients, kept))
    else:
        with pytest.raises(error) as info:
            FormalSeries(monoid, bound, table)
        assert type(info.value) is error


def test_series_is_unhashable():
    # the coefficient table is a dict, so a series must not pass for a key
    f = FormalSeries(T, 2, {(1,): 3})
    assert not isinstance(f, Hashable)
    with pytest.raises(TypeError):
        hash(f)


def test_addition_takes_min_bound():
    f = FormalSeries(T, 5, {(1,): 2})
    g = FormalSeries(T, 3, {(1,): 3, (2,): 1})
    h = f + g
    assert h.bound == 3
    assert h.coefficient((1,)) == 5


def test_addition_requires_same_monoid():
    with pytest.raises(MonoidMismatchError):
        one(T, 3) + one(XY, 3)


def test_scale_and_negate():
    f = FormalSeries(T, 2, {(1,): 3})
    assert f.scale(2).coefficient((1,)) == 6
    assert f.scale(-1).coefficient((1,)) == -3
    assert (f + f.scale(-1)).coefficients == {}


@pytest.mark.parametrize("scalar", [1.5, True, None, "x"])
@pytest.mark.parametrize("table", [{}, {(1,): 3}], ids=["empty", "nonempty"])
def test_scale_refuses_a_scalar_that_is_not_an_int(table, scalar):
    # the engine does not check the values of its results, so a float or
    # bool scalar would be stored unseen, and "x" * 3 would be a string
    with pytest.raises(TypeError, match=r"^scalar .* is not an int$"):
        FormalSeries(T, 2, table).scale(scalar)


# ---------------------------------------------------------------------------
# Convolution

def test_convolve_geometric_squares():
    # (1/(1-t))^2 has coefficients d+1
    f = geometric(T, 8)
    sq = convolve(f, f)
    for d in range(9):
        assert sq.coefficient((d,)) == d + 1


def test_convolve_bound_is_min():
    assert convolve(one(T, 5), one(T, 3)).bound == 3


def test_convolve_delta_shifts():
    f = FormalSeries(T, 4, {(1,): 2, (3,): 5})
    g = convolve(f, FormalSeries(T, 4, {(1,): 1}))
    assert g.coefficients == {(2,): 2, (4,): 5}


# ---------------------------------------------------------------------------
# Exterior product

def test_exterior_concatenates_exponents():
    f = FormalSeries(GradedMonoid.free(["t"], [2]), 4, {(1,): 2})
    g = FormalSeries(GradedMonoid.free(["s", "u"]), 4, {(2, 0): 3})
    h, prod = exterior(f, g)
    assert prod == h.monoid
    assert prod.labels == ("t", "s", "u")
    assert prod.weights == (2, 1, 1)
    assert h.coefficients == {(1, 2, 0): 6}  # grade 2 + 2 = 4 <= 4
    assert h.bound == 4


def test_exterior_namespaces_colliding_labels():
    f = FormalSeries(GradedMonoid.free(["a"]), 2, {(1,): 1})
    g = FormalSeries(GradedMonoid.free(["a", "b"], [1, 2]), 2, {(0, 1): 1})
    _, prod = exterior(f, g)
    assert prod.labels == ("0.a", "1.a", "1.b")
    assert prod.weights == (1, 1, 2)


def test_exterior_drops_terms_beyond_joint_bound():
    f = FormalSeries(T, 3, {(2,): 1})
    g = FormalSeries(GradedMonoid.free(["s"]), 3, {(2,): 1})
    h, _ = exterior(f, g)
    assert h.coefficients == {}  # joint grade 4 > bound 3


# ---------------------------------------------------------------------------
# Push-forward / pull-back

def test_pushforward_sums_fibers():
    phi = MonoidMorphism(XY, T, ((1,), (1,)))
    f = FormalSeries(XY, 3, {(1, 0): 2, (0, 1): 3, (2, 1): 1})
    g = pushforward(phi, f)
    assert g.bound == 3
    assert g.coefficients == {(1,): 5, (3,): 1}


def test_pushforward_bound_scales_with_image_grade():
    # generator of weight 1 mapping to grade-2 image doubles the bound
    phi = MonoidMorphism(T, XY, ((1, 1),))
    assert pushforward_bound(phi, 5) == 10
    f = geometric(T, 5)
    assert pushforward(phi, f).bound == 10


def test_pushforward_requires_finite_fibers():
    phi = MonoidMorphism(XY, T, ((1,), (0,)))
    with pytest.raises(ValueError):
        pushforward(phi, one(XY, 2))
    with pytest.raises(MonoidMismatchError):
        pushforward(phi, one(T, 2))


def test_pullback_precomposes():
    phi = MonoidMorphism(T, XY, ((1, 1),))
    g = FormalSeries(XY, 6, {(2, 2): 7, (1, 0): 4})
    f = pullback(phi, g)
    assert f.bound == 3  # 6 * min(1/2)
    assert f.coefficients == {(2,): 7}


def test_pullback_bound_contracts():
    phi = MonoidMorphism(T, XY, ((2, 1),))
    assert pullback_bound(phi, 10) == 3  # floor(10 * 1/3)


def test_bounds_of_a_rank_zero_source_are_the_given_bound():
    # no generator, so no ratio: the series is exact to the bound it had
    phi = MonoidMorphism(GradedMonoid(()), XY, ())
    for d in (0, 1, 7):
        assert pushforward_bound(phi, d) == d
        assert pullback_bound(phi, d) == d
    f = FormalSeries(GradedMonoid(()), 5, {(): 3})
    assert pushforward(phi, f).bound == 5
    assert pushforward(phi, f).coefficients == {(0, 0): 3}
    # every image zero: nothing limits the pull-back either
    zero_images = MonoidMorphism(T, XY, ((0, 0),))
    assert pullback_bound(zero_images, 4) == 4


def _fraction_bound(d, ratios):
    """floor(d * min(ratios)) in exact rationals, or d if there are none."""
    return math.floor(d * min(ratios)) if ratios else d


@st.composite
def bound_cases(draw):
    """A morphism between monoids of rank <= 3 (the source may have rank
    0) with weights 1-3 and image entries 0-3, zero images included, and a
    bound 0-50."""
    def monoid(min_rank, labels):
        rank = draw(st.integers(min_rank, 3))
        weights = draw(st.lists(st.integers(1, 3), min_size=rank,
                                max_size=rank))
        return GradedMonoid.free(labels[:rank], weights)

    source, target = monoid(0, "abc"), monoid(1, "xyz")
    images = tuple(tuple(draw(st.integers(0, 3)) for _ in target.weights)
                   for _ in source.weights)
    return MonoidMorphism(source, target, images), draw(st.integers(0, 50))


@given(bound_cases())
@settings(max_examples=300, deadline=None)
def test_bounds_match_the_rational_formula(case):
    phi, d = case
    weights = phi.source.weights
    grades = [phi.target.grade(img) for img in phi.generator_images]
    assert pushforward_bound(phi, d) == _fraction_bound(
        d, [Fraction(g, w) for g, w in zip(grades, weights)])
    assert pullback_bound(phi, d) == _fraction_bound(
        d, [Fraction(w, g) for g, w in zip(grades, weights) if g])


def test_push_pull_adjoint_on_monomials():
    # coefficient of pushforward at n equals sum of pullback-matched terms
    phi = MonoidMorphism(XY, T, ((1,), (2,)))
    f = FormalSeries(XY, 4, {(2, 1): 5, (0, 2): 1})
    g = pushforward(phi, f)
    assert g.coefficient((4,)) == 6


def pullback_by_apply(phi, g):
    """The pull-back by its definition: g(phi(m)) at every m up to the
    pull-back bound, each m mapped by `apply`, kept when nonzero."""
    bound = pullback_bound(phi, g.bound)
    values = ((m, g.coefficients.get(phi.apply(m), 0))
              for m in phi.source.enumerate_up_to(bound))
    return {m: c for m, c in values if c}


def test_pullback_maps_each_element_as_apply_does():
    rng = random.Random(4302)
    drawn = [verify.random_morphism(rng, verify.random_monoid(rng),
                                    verify.random_monoid(rng))
             for _ in range(40)]
    abc = GradedMonoid.free(["a", "b", "c"], [2, 1, 2])
    made = [MonoidMorphism(abc, XY, ((0, 0), (1, 2), (2, 1))),  # a -> 0
            MonoidMorphism(XY, abc, ((1, 0, 1), (0, 2, 0))),
            MonoidMorphism(GradedMonoid(()), XY, ()),
            MonoidMorphism(XY, T, ((3,), (4,)))]
    assert pullback_bound(made[-1], 2) == 0
    nonempty = 0
    for phi in drawn + made:
        for d in (0, 1, 2, 5, 8):
            g = verify.random_series(rng, phi.target, d)
            f = pullback(phi, g)
            assert f.bound == pullback_bound(phi, d)
            assert f.coefficients == pullback_by_apply(phi, g)
            nonempty += bool(f.coefficients)
    assert nonempty > 100


# ---------------------------------------------------------------------------
# Comparison helpers

def test_first_difference():
    f = geometric(T, 6)
    g = f + FormalSeries(T, 6, {(5,): 1})
    assert first_difference(f, g, 4) is None
    assert first_difference(f, g, 5) == ((5,), 1, 2)
    assert first_difference(f, g, 6) == ((5,), 1, 2)
    with pytest.raises(TruncationError):
        first_difference(f, g, 7)


def test_first_difference_refuses_a_degree_above_either_bound():
    # f truncated at 2 does not know its coefficient at t^3, so no
    # difference there may be reported
    f = catalog.macdonald(3).expand(6)
    for a, b in ((truncated(f, 2), f), (f, truncated(f, 2))):
        with pytest.raises(TruncationError,
                           match=r"^degree 5 exceeds a series bound"):
            first_difference(a, b, 5)
        assert first_difference(a, b, 2) is None


def test_first_difference_rejects_different_monoids():
    # the G(1,3) pipeline's coefficients over the Schubert-symbol labels,
    # against the closed form over the printed letters: equal tuples,
    # different bases, so no comparison may pass
    closed = catalog.closed_form(GRASS, 2).expand(6)
    other = FormalSeries(schubert.basis(catalog.G13, 2), 6,
                         catalog.grassmannian13_series(2, 6).coefficients)
    assert other.coefficients == closed.coefficients
    with pytest.raises(MonoidMismatchError,
                       match=r"^series are over different monoids \(\("):
        first_difference(closed, other, 6)
    # the monoids are checked before the bounds
    with pytest.raises(MonoidMismatchError):
        first_difference(closed, other, 7)


# ---------------------------------------------------------------------------
# Rational series

def test_rational_expand_single_factor():
    r = RationalSeries(T, ((T.zero(), 1),), (((1,), 3),))
    f = r.expand(6)
    for d in range(7):
        assert f.coefficient((d,)) == math.comb(d + 2, 2)
    with pytest.raises(ValueError):
        r.expand(-1)


@pytest.mark.parametrize("e", [2, 3, 4, 9])
def test_expand_with_a_multiplicity_around_a_rays_nonzero_count(e):
    # one ray of three nonzero entries: it runs `accumulate` e times for
    # e = 2 and 3, and is convolved with C(j + e - 1, e - 1) for e = 4, 9
    r = RationalSeries(T, (((0,), 1), ((2,), 2), ((5,), -1)), (((1,), e),))
    for degree in (0, 4, 12):
        assert r.expand(degree) == expand_by_convolution(r, degree)
    # rays of one nonzero entry each; the first ray, from y^2, is shorter
    # than the second, from x^3, so the kernel grows between them
    r = RationalSeries(XY, (((0, 2), 1), ((3, 0), -4), ((1, 1), 2)),
                       (((1, 0), e), ((1, 1), 2)))
    for degree in (3, 10):
        assert r.expand(degree) == expand_by_convolution(r, degree)


def test_expand_with_an_astronomically_large_multiplicity():
    e = 10**300
    f = RationalSeries(T, (((0,), 1), ((1,), -1)), (((1,), e),)).expand(4)
    # (1 - t)/(1 - t)^e = 1/(1 - t)^(e - 1)
    assert f.coefficients == {(j,): math.comb(j + e - 2, j)
                              for j in range(5)}
    e = math.comb(1001, 501)
    f = catalog.closed_form(catalog.parse_descriptor("Pn(1000)"),
                            500).expand(2)
    assert f.coefficients == {(0,): 1, (1,): e, (2,): e * (e + 1) // 2}


def test_expand_refuses_more_terms_than_the_cap():
    # 1/(1-t)^3 to degree D is one ray of D + 1 terms
    r = catalog.macdonald(3)
    for degree in (MAX_EXPANSION_TERMS, 10**30):
        with pytest.raises(TruncationError, match=r"^expansion to degree"):
            r.expand(degree)
    # 1/((1-x)(1-y)) to degree D: the second factor has D + 1 rays, of
    # (D + 1)(D + 2) / 2 terms in all, each ray well under the cap
    r = RationalSeries(XY, ((XY.zero(), 1),), (((1, 0), 1), ((0, 1), 1)))
    assert r.expand(3).coefficient((2, 1)) == 1
    with pytest.raises(TruncationError,
                       match=f"needs more than {MAX_EXPANSION_TERMS} terms"):
        r.expand(1413)


def test_the_term_cap_is_exact(monkeypatch):
    # 1/(1-t) to degree D is one ray of D + 1 terms: a cap of 10 admits
    # degree 9 and refuses degree 10
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 10)
    r = RationalSeries(T, ((T.zero(), 1),), (((1,), 1),))
    assert r.expand(9).coefficients == {(j,): 1 for j in range(10)}
    with pytest.raises(TruncationError, match="needs more than 10 terms"):
        r.expand(10)
    # 1/((1-x)^4 (1-y)^4 (1-xy)^3): the last factor, (1-x)^4, regroups
    # every element of grade <= D, (D + 1)(D + 2) / 2 of them, into rays;
    # a cap of 5000 admits their 4950 at D = 98 and refuses 5050 at D = 99
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 5000)
    r = catalog.closed_form(GRASS, 2)
    assert len(r.expand(98).coefficients) == 99 * 100 // 2
    with pytest.raises(TruncationError, match="needs more than 5000 terms"):
        r.expand(99)


def test_the_count_before_dividing_divides_the_degree_by_the_weight(
        monkeypatch):
    # 1/(1-t) with t of weight 2 to degree D is D // 2 + 1 terms, and the
    # count before any division is C(D // 2 + 1, 1): a cap of 10 admits
    # degree 19 and refuses degree 20
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 10)
    t2 = GradedMonoid.free(["t"], [2])
    r = RationalSeries(t2, ((t2.zero(), 1),), (((1,), 1),))
    assert r.expand(19).coefficients == {(j,): 1 for j in range(10)}
    with pytest.raises(TruncationError, match="needs more than 10 terms"):
        r.expand(20)


@pytest.mark.parametrize("r, sizes, terms", [
    # (1-xy)^3 first: its rays hold 81 terms to degree 160, and (1-y)^4
    # then fills the 6561 elements with x <= y; graded-lex order
    # would hand `_divide` tables of 1, 161 and 13041 terms
    (catalog.closed_form(GRASS, 2), [1, 81, 6561], 161 * 162 // 2),
    # ProjClosure(n=3,d=2) p=2: (1-x^2 y)^4, (1-x)^6, then (1-y)^4
    (catalog.closed_form(
        catalog.parse_descriptor("ProjClosure(n=3,d=2)"), 2),
     [1, 54, 4401], 161 * 162 // 2),
    # (x + y)/((1-x)(1-y)), y of weight 2: (1-y) first, though y = (0, 1)
    # comes first in the stored lex order; every element of grade <= 160
    # but the zero element, 81 * 161 - 80 * 81 - 1 of them
    (RationalSeries(GradedMonoid.free(["x", "y"], [1, 2]),
                    (((1, 0), 1), ((0, 1), 1)), (((1, 0), 1), ((0, 1), 1))),
     [2, 160], 81 * 161 - 80 * 81 - 1),
    # (1 - x)/((1 - x)(1 - y)): (1 - x) cancels along the x ray, and its
    # 160 zeros are dropped, so (1 - y) is handed the one term 1
    (RationalSeries(GradedMonoid.free(["x", "y"]),
                    (((0, 0), 1), ((1, 0), -1)), (((1, 0), 1), ((0, 1), 1))),
     [2, 1], 161),
])
def test_expand_divides_by_the_highest_grade_factor_first(monkeypatch, r,
                                                          sizes, terms):
    handed = []
    divide = series._divide

    def counting(monoid, columns, values, m, e, degree, *base):
        assert [len(col) for col in columns] == [len(values)] * monoid.rank
        handed.append(len(values))
        return divide(monoid, columns, values, m, e, degree, *base)

    monkeypatch.setattr(series, "_divide", counting)
    assert len(r.expand(160).coefficients) == terms
    assert handed == sizes


def test_rational_numerator_and_multiply():
    # (1+t)/(1-t) = 1 + 2t + 2t^2 + ...
    r = RationalSeries(T, (((0,), 1), ((1,), 1)), (((1,), 1),))
    f = r.expand(5)
    assert [f.coefficient((d,)) for d in range(4)] == [1, 2, 2, 2]
    sq = r.multiply(r)
    g = sq.expand(5)
    # (1+t)^2/(1-t)^2 = 1 + 4t + 8t^2 + 12t^3 + ...
    assert [g.coefficient((d,)) for d in range(4)] == [1, 4, 8, 12]
    with pytest.raises(MonoidMismatchError):
        r.multiply(RationalSeries(XY, (), ()))


def expand_by_convolution(r, degree):
    """Reference expansion: convolve the numerator with the binomial series
    sum_j C(j+e-1, e-1) t^(j*m) of each denominator factor (m, e)."""
    out = FormalSeries(r.monoid, degree,
                       {m: c for m, c in r.numerator
                        if r.monoid.grade(m) <= degree})
    for m, e in r.denominator:
        factor = {tuple(j * x for x in m): math.comb(j + e - 1, e - 1)
                  for j in range(degree // r.monoid.grade(m) + 1)}
        out = convolve(out, FormalSeries(r.monoid, degree, factor))
    return out


# one descriptor per catalog kind; every p it serves is checked
DESCRIPTORS = ["Pn(3)", "PnxP1(2)", "ProjClosure(n=3,d=2)", "Hirzebruch(2)",
               "BlowupPn(3)", "Flag012", "G(1,3)", "Macdonald(5)"]
CLOSED_FORMS = [
    pytest.param(catalog.closed_form(v, p), id=f"{v}-p{p}")
    for v in map(catalog.parse_descriptor, DESCRIPTORS)
    for p in range(catalog.KINDS[v.kind].dim(v) + 1)
]


def test_descriptors_cover_every_kind():
    assert {catalog.parse_descriptor(d).kind for d in DESCRIPTORS} \
        == set(catalog.KINDS)


@pytest.mark.parametrize("r", CLOSED_FORMS)
def test_expand_equals_convolution_form(r):
    for degree in (0, 1, 2, 5, 17, 48):
        assert r.expand(degree) == expand_by_convolution(r, degree)


@st.composite
def rational_series(draw):
    rank = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    monoid = GradedMonoid.free([f"g{i}" for i in range(rank)], weights)
    # small exponents, so numerator terms often coincide or cancel, and
    # denominator elements often have zero entries
    elements = st.lists(st.integers(0, 2), min_size=rank,
                        max_size=rank).map(tuple)
    numerator = draw(st.lists(st.tuples(elements, st.integers(-3, 3)),
                              max_size=5))
    denominator = draw(st.lists(st.tuples(elements.filter(any),
                                          st.integers(1, 5)), max_size=3))
    return RationalSeries(monoid, tuple(numerator), tuple(denominator))


@settings(max_examples=150, deadline=None)
@given(rational_series(), st.integers(0, 20))
# (1 - xy)/(1 - xy) = 1: the running sum along the ray through 0 cancels
@example(RationalSeries(XY, (((0, 0), 1), ((1, 1), -1)), (((1, 1), 1),)), 6)
# a multiplicity above the length of every ray: 1/(1 - t)^7 to degree 3
@example(RationalSeries(T, (((0,), 1),), (((1,), 7),)), 3)
def test_expand_equals_convolution_form_on_random_forms(r, degree):
    assert r.expand(degree) == expand_by_convolution(r, degree)


def _nonzero_element(rank):
    return st.lists(st.integers(0, 2), min_size=rank,
                    max_size=rank).filter(any).map(tuple)


@st.composite
def rational_with_morphism(draw):
    r = draw(rational_series())
    rank = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    target = GradedMonoid.free([f"h{i}" for i in range(rank)], weights)
    images = tuple(draw(_nonzero_element(rank)) for _ in range(r.monoid.rank))
    return r, MonoidMorphism(r.monoid, target, images)


@settings(max_examples=150, deadline=None)
@given(rational_with_morphism(), st.integers(0, 12))
def test_rational_pushforward_equals_truncated_pushforward(case, degree):
    # push-forward is a ring homomorphism: pushing the closed form forward
    # and expanding gives the push-forward of its expansion, to that bound
    r, phi = case
    pushed = pushforward(phi, r.expand(degree))
    bound = min(pushed.bound, 24)   # a large ratio makes a large bound
    assert r.pushforward(phi).expand(bound) == truncated(pushed, bound)


def test_rational_pushforward_requires_finite_fibers():
    r = RationalSeries(XY, ((XY.zero(), 1),), (((1, 0), 1), ((0, 1), 2)))
    with pytest.raises(ValueError):
        r.pushforward(MonoidMorphism(XY, T, ((1,), (0,))))
    with pytest.raises(MonoidMismatchError):
        r.pushforward(MonoidMorphism(T, T, ((1,),)))
    # x and y both go to t: 1/((1-t)(1-t)^2)
    assert r.pushforward(MonoidMorphism(XY, T, ((1,), (1,)))) == \
        RationalSeries(T, ((T.zero(), 1),), (((1,), 3),))


def _unit(draw, monoid):
    """(1 - t^m)^k / (1 - t^m)^k = 1, for a drawn m and k in 0..2."""
    m, k = draw(_nonzero_element(monoid.rank)), draw(st.integers(0, 2))
    return RationalSeries(monoid,
                          tuple((tuple(j * x for x in m),
                                 (-1) ** j * math.comb(k, j))
                                for j in range(k + 1)),
                          ((m, k),) if k else ())


@st.composite
def rational_pairs(draw):
    """(a, b): one form rewritten over two larger denominators, so equal,
    and then, half the time, b is given one more numerator term.  Each
    side often keeps a denominator factor the other lacks, so both cross
    products N_a R_b and N_b R_a multiply by something."""
    r = draw(rational_series())
    a = r.multiply(_unit(draw, r.monoid))
    b = r.multiply(_unit(draw, r.monoid))
    if draw(st.booleans()):
        x = tuple(draw(st.lists(st.integers(0, 2), min_size=r.monoid.rank,
                                max_size=r.monoid.rank)))
        b = RationalSeries(b.monoid, b.numerator + ((x, 1),), b.denominator)
    return a, b


@settings(max_examples=200, deadline=None)
@given(rational_pairs(), st.integers(0, 10))
def test_first_rational_difference_is_first_difference_at_every_degree(
        ab, degree):
    a, b = ab
    diff = first_rational_difference(a, b)
    truncated = first_difference(a.expand(degree), b.expand(degree), degree)
    if diff is None or a.monoid.grade(diff[0]) > degree:
        assert truncated is None
    else:
        assert truncated == diff
    assert first_rational_difference(a, b, degree) == truncated


def test_first_rational_difference_beyond_any_expansion(monkeypatch):
    # 1/(1-t) against (1 + t^50 + t^90)/(1-t): equal below grade 50, and
    # only the first form is expanded, to the lowest grade of the difference
    a = RationalSeries(T, ((T.zero(), 1),), (((1,), 1),))
    b = RationalSeries(T, ((T.zero(), 1), ((50,), 1), ((90,), 1)),
                       (((1,), 1),))
    degrees = []
    expansion = RationalSeries._expansion

    def recording(self, degree):
        degrees.append(degree)
        return expansion(self, degree)

    def refused(*_):
        raise AssertionError("compared two expansions")

    monkeypatch.setattr(RationalSeries, "_expansion", recording)
    monkeypatch.setattr(series, "first_difference", refused)
    assert first_rational_difference(a, b) == ((50,), 1, 2)
    assert degrees == [50]
    # a difference above the degree is never expanded
    assert first_rational_difference(a, b, 49) is None
    assert degrees == [50]
    assert first_rational_difference(a, b, 50) == ((50,), 1, 2)
    assert first_rational_difference(a, a.multiply(a)) == ((1,), 1, 2)
    with pytest.raises(MonoidMismatchError):
        first_rational_difference(a, RationalSeries(XY, (), ()))


def test_first_rational_difference_reads_either_form(monkeypatch):
    # 1/(1-x) against ((1-y) + y^1500)/((1-x)(1-y)) = 1/(1-x) +
    # y^1500/((1-x)(1-y)): they first differ at y^1500.  The first form's
    # expansion to grade 1500 is 1501 terms; the second's passes the cap,
    # so in either order the value is read off 1/(1-x)
    a = RationalSeries(XY, ((XY.zero(), 1),), (((1, 0), 1),))
    b = RationalSeries(XY, ((XY.zero(), 1), ((0, 1), -1), ((0, 1500), 1)),
                       (((1, 0), 1), ((0, 1), 1)))
    assert first_rational_difference(a, b) == ((0, 1500), 0, 1)
    assert first_rational_difference(b, a) == ((0, 1500), 1, 0)
    # under a cap of 1000 terms both expansions to grade 1500 are refused
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 1000)
    with pytest.raises(TruncationError) as refusal:
        first_rational_difference(b, a, 2000)
    assert str(refusal.value) == (
        "the first difference lies at grade 1500, within degree 2000, and "
        "expanding to it needs more than 1000 terms")


def test_first_rational_difference_reads_values_off_the_columns(
        monkeypatch):
    # a(m) is read off the columns of the expansion to m's grade, and no
    # expansion builds its table: at a key, at an element that is no key
    # (value 0), and over the rank-0 monoid
    def refused(self, degree):
        raise AssertionError("built an expansion's table")

    monkeypatch.setattr(RationalSeries, "expand", refused)
    one_over = RationalSeries(T, ((T.zero(), 1),), (((1,), 1),))
    assert first_rational_difference(one_over, RationalSeries(
        T, ((T.zero(), 1), ((50,), 1)), (((1,), 1),))) == ((50,), 1, 2)
    x = RationalSeries(XY, ((XY.zero(), 1),), (((1, 0), 1),))
    y = RationalSeries(XY, ((XY.zero(), 1), ((0, 40), 1)), (((1, 0), 1),))
    assert first_rational_difference(x, y) == ((0, 40), 0, 1)
    point = GradedMonoid(())
    assert first_rational_difference(
        RationalSeries(point, (((), 2),), ()),
        RationalSeries(point, (((), 3),), ())) == ((), 2, 3)
    assert first_rational_difference(
        RationalSeries(point, (), ()),
        RationalSeries(point, (((), 3),), ())) == ((), 0, 3)


def test_first_rational_difference_multiplies_up_to_the_difference():
    # 1/(1-t)^E against 1/(1-t^2)^E: the cross products are (1-t^2)^E and
    # (1-t)^E, each E + 1 binomials, but they first differ at t, so only
    # the terms up to the bound 1 are made, whatever E is
    def pair(e):
        return (RationalSeries(T, ((T.zero(), 1),), (((1,), e),)),
                RationalSeries(T, ((T.zero(), 1),), (((2,), e),)))

    for e in (5000, 20000, 10**6):
        assert first_rational_difference(*pair(e)) == ((1,), e, 0)
        assert first_rational_difference(*pair(e), 10**7) == ((1,), e, 0)
    # the difference at grade 1 lies above degree 0
    assert first_rational_difference(*pair(5000), 0) is None


def test_first_rational_difference_doubles_its_bound(monkeypatch):
    # 1/(1-t) against (1 + t^50)/((1-t)(1-t^3)): the products are made up
    # to bounds 1, 2 and 4, the first bound past the difference at t^3, or
    # up to the degree when it is nearer.  Equal forms stop at the highest
    # grade a product term can have: 51, for b against b(1-t)/(1-t), whose
    # numerator (1 + t^50)(1-t) takes no factor, and b's, of grade 50,
    # takes 1 - t
    a = RationalSeries(T, ((T.zero(), 1),), (((1,), 1),))
    b = RationalSeries(T, ((T.zero(), 1), ((50,), 1)),
                       (((1,), 1), ((3,), 1)))
    bounds = []
    multiply = series._multiply

    def recording(monoid, table, m, e, bound):
        bounds.append(bound)
        return multiply(monoid, table, m, e, bound)

    monkeypatch.setattr(series, "_multiply", recording)
    assert first_rational_difference(a, b) == ((3,), 1, 2)
    assert bounds == [1, 2, 4]
    bounds.clear()
    assert first_rational_difference(a, b, 2) is None
    assert bounds == [1, 2]
    bounds.clear()
    assert first_rational_difference(b, b.multiply(a).multiply(
        RationalSeries(T, (((0,), 1), ((1,), -1)), ()))) is None
    assert bounds == [1, 2, 4, 8, 16, 32, 51]


@pytest.mark.parametrize("cap, refused", [(166, False), (165, True)])
def test_multiply_charges_each_term_by_its_binomial(monkeypatch, cap,
                                                    refused):
    # 1 times (1-t)^100: 101 terms, C(100, j) has 64 bits or more for
    # j = 18..82, so those 65 count 2 words and the other 36 one, 166 in
    # all; counted as 1 + e // 64 they would be 202
    words = sum(1 + math.comb(100, j).bit_length() // 64
                for j in range(101))
    assert (words, 101 * (1 + 100 // 64)) == (166, 202)
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", cap)
    if refused:
        with pytest.raises(TruncationError,
                           match=r"m = \(1,\), e = 100 needs more than 165 "):
            series._multiply(T, {(0,): 1}, (1,), 100, 100)
    else:
        assert series._multiply(T, {(0,): 1}, (1,), 100, 100) == {
            (j,): (-1) ** j * math.comb(100, j) for j in range(101)}
    # up to the bound 17, 18 one-word terms are made and charged
    monkeypatch.setattr(series, "MAX_EXPANSION_TERMS", 18)
    assert len(series._multiply(T, {(0,): 1}, (1,), 100, 17)) == 18


def test_multiply_makes_no_pass_past_the_bound():
    # (1 - t^1000)^(10^6) up to grade 10^6 is 1001 passes; a pass for each
    # of the 10^6 + 1 binomials, with up to 10^6 bits each, would not end
    # within the time limit
    assert series._multiply(T, {(0,): 1}, (1000,), 10**6, 10**6) == {
        (1000 * j,): (-1) ** j * math.comb(10**6, j) for j in range(1001)}


def test_rational_rejects_grade_zero_denominator():
    m = GradedMonoid.free(["a", "b"])
    with pytest.raises(ValueError):
        RationalSeries(m, ((m.zero(), 1),), (((0, 0), 1),))


@pytest.mark.parametrize("numerator, denominator", [
    ((((0,), 1.5),), ()),
    ((((0,), True),), ()),
    ((((0,), Fraction(1, 2)),), ()),
    ((((0,), 1),), (((1,), 1.5),)),
    ((((0,), 1),), (((1,), True),)),
    ((((0,), 1),), (((1,), 2.0),)),
])
def test_rational_rejects_values_and_multiplicities_that_are_not_ints(
        numerator, denominator):
    # `dumps` would write the value "1.5", which `loads` rejects, and
    # `expand` cannot take a multiplicity 1.5 steps
    with pytest.raises(TypeError):
        RationalSeries(T, numerator, denominator)


def test_rational_merges_repeated_factors():
    r = RationalSeries(T, ((T.zero(), 1),), (((1,), 1), ((1,), 2)))
    assert r.denominator == (((1,), 3),)


# ---------------------------------------------------------------------------
# An expansion is the series of the table of its `_Terms` record

_AB2 = GradedMonoid.free(["a", "b"], [1, 2])
# catalog forms, a weight-2 generator, an empty numerator, a term above
# the degree and a rank-0 form, each with the degree it is expanded to
COLUMN_FORMS = [
    pytest.param(catalog.closed_form(GRASS, 2), 9, id="G(1,3)-p2"),
    pytest.param(catalog.closed_form(catalog.parse_descriptor("Flag012"), 1),
                 12, id="Flag012-p1"),
    pytest.param(RationalSeries(_AB2, (((0, 0), 3), ((1, 1), -10**200),
                                       ((9, 0), 1)),
                                (((1, 0), 2), ((0, 1), 1), ((1, 1), 1))),
                 7, id="weights-1-2"),
    pytest.param(RationalSeries(XY, (), (((1, 0), 2),)), 5, id="empty"),
    pytest.param(RationalSeries(T, (((0,), 2),), (((1,), 1),)), 0,
                 id="degree-0"),
    pytest.param(RationalSeries(GradedMonoid(()), (((), 7),), ()), 3,
                 id="rank-0"),
]


@pytest.mark.parametrize("r, degree", COLUMN_FORMS)
def test_an_expansion_reads_as_the_series_of_its_table(r, degree):
    # `expand` is the plain series of the table of `_expansion`'s record,
    # keyed in its column order, and both writers give the record the
    # text of that series
    terms, f = r._expansion(degree), r.expand(degree)
    assert type(f) is FormalSeries and f.bound == terms.bound == degree
    keys = zip(*terms.columns) if terms.columns else [()] * len(terms.values)
    table = dict(zip(keys, terms.values))
    assert f == FormalSeries(r.monoid, degree, table)
    assert list(f.coefficients.items()) == list(table.items())
    assert dumps(terms) == dumps(f)
    result = catalog.EulerChowResult(
        GRASS, 0, r, "none", tuple((lab, "c") for lab in r.monoid.labels))
    assert (cli._series_text(result, terms, degree)
            == cli._series_text(result, f, degree))


@pytest.mark.parametrize("r, degree", COLUMN_FORMS)
def test_every_reader_sees_an_expansion_as_the_dict_built_series(r, degree):
    # `expand` builds its series with `_trusted`, past `__post_init__`:
    # equality both ways, repr, copies, coefficients, products, sums,
    # push-forward and `first_difference` read it as the series built
    # from a dict of the same table
    f = r.expand(degree)
    table = dict(f.coefficients)
    t = FormalSeries(r.monoid, degree, table)
    assert f == t and t == f
    assert repr(f) == repr(t)
    for clone in (copy.copy, copy.deepcopy,
                  lambda f: pickle.loads(pickle.dumps(f))):
        twin = clone(f)
        assert twin == t and list(twin.coefficients) == list(table)
    for m in r.monoid.enumerate_up_to(degree):
        assert f.coefficient(m) == t.coefficient(m)
    assert convolve(f, f) == convolve(t, t)
    assert f + t == t + t and t + f == t + t
    phi = MonoidMorphism(r.monoid, T, ((1,),) * r.monoid.rank)
    assert pushforward(phi, f) == pushforward(phi, t)
    assert first_difference(f, t, degree) is None
    zero = r.monoid.zero()
    changed = FormalSeries(r.monoid, degree,
                           {**table, zero: table.get(zero, 0) + 1})
    assert (first_difference(f, changed, degree)
            == first_difference(t, changed, degree))
    assert (first_difference(changed, f, degree)
            == first_difference(changed, t, degree))

def test_an_unknown_attribute_raises_the_default_error():
    # the interpreter's own error, whose text varies by version: it
    # carries the attribute's name, and its text names the attribute and
    # the class; an AttributeError raised with a message of its own has
    # no name
    expansion = RationalSeries(T, (((0,), 1),), (((1,), 2),)).expand(3)
    table = FormalSeries(T, 3, {(0,): 1})
    for f in (expansion, table):
        with pytest.raises(AttributeError) as caught:
            f.nope
        assert caught.value.name == "nope"
        assert "'nope'" in str(caught.value)
        assert type(f).__name__ in str(caught.value)
        assert getattr(f, "nope", None) is None


# ---------------------------------------------------------------------------
# Serialization

def test_series_json_round_trip():
    f = FormalSeries(XY, 4, {(1, 2): 3, (0, 0): 10 ** 40})
    assert loads(dumps(f)) == f


def test_rational_json_round_trip():
    r = RationalSeries(XY, (((0, 0), 1), ((1, 1), -1)),
                       (((1, 0), 3), ((0, 1), 3)))
    assert loads(dumps(r)) == r


def test_dumps_is_byte_deterministic():
    def build():
        return FormalSeries(XY, 3, {(2, 1): 4, (1, 0): -1, (0, 0): 1})
    assert dumps(build()) == dumps(build())
    assert dumps(build()).endswith("\n")


# ---------------------------------------------------------------------------
# Arguments outside a function's domain: one row per guard, each refused
# with its own error class and message

REFUSED = [
    pytest.param(lambda: RationalSeries(T, ((T.zero(), 1),), (((1,), 0),)),
                 ValueError, "multiplicity must be >= 1",
                 id="RationalSeries-multiplicity-0"),
    pytest.param(lambda: MonoidMorphism(T, XY, ()), MonoidMismatchError,
                 "one generator image per source generator",
                 id="MonoidMorphism-image-count"),
    pytest.param(lambda: XY.enumerate_up_to(-1), ValueError,
                 "bound must be >= 0", id="enumerate_up_to-negative"),
    pytest.param(lambda: pullback(MonoidMorphism(T, XY, ((1, 0),)),
                                  one(T, 2)),
                 MonoidMismatchError, "not over the target",
                 id="pullback-other-monoid"),
    pytest.param(lambda: catalog.closed_form(GRASS, -1), ValueError,
                 r"^p=-1 out of range for G\(1,3\)$",
                 id="closed_form-negative-p"),
    # the split pipeline reads E_p(P^n) through its descriptor
    pytest.param(lambda: catalog.split_bundle_series(-1, 0, 1, 10),
                 ValueError,
                 r"^n=-1 out of range for Pn\(-1\): n must be >= 0$",
                 id="split_bundle_series-negative-n"),
    pytest.param(lambda: catalog.euler_chow(
                     catalog.parse_descriptor("Pn(2)"), 0, method="x"),
                 ValueError, "unknown method", id="euler_chow-method"),
    pytest.param(lambda: dumps(object()), TypeError, "^object$",
                 id="dumps-other-type"),
    pytest.param(lambda: catalog.split_bundle_series(1, 0, 2, 4), ValueError,
                 r"^p=2 out of range for Pn\(1\)$",
                 id="split_bundle_series-p-above-n"),
    pytest.param(lambda: catalog.flag012_divisor_by_recurrence(-1, 0),
                 ValueError, "R and S must be >= 0",
                 id="flag012_divisor_by_recurrence-negative-R"),
    pytest.param(lambda: schubert.SchubertSymbol(catalog.FLAG012, ((0,),)),
                 ValueError, "one sequence per flag dimension",
                 id="SchubertSymbol-sequence-count"),
]


@pytest.mark.parametrize("call, error, message", REFUSED)
def test_argument_outside_the_domain_is_refused(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error
