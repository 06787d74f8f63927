"""Property-based checks of the ring and morphism laws of `verify`, on
cases drawn by Hypothesis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.series import FormalSeries, dumps, loads
from eulerchow.verify import (convolve_matches_oracle, exterior_associativity,
                              functoriality, pullback_is_linear,
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
    assert ring_laws(fgh) is None


@settings(max_examples=60, deadline=None)
@given(morphism_with_series())
def test_pushforward_is_ring_homomorphism(case):
    phi, f, _ = case
    g = FormalSeries(f.monoid, f.bound,
                     {m: c + 1 for m, c in f.coefficients.items()})
    assert pushforward_is_homomorphism((phi, f, g)) is None


@settings(max_examples=60, deadline=None)
@given(morphism_with_series(), st.integers(-4, 4))
def test_pullback_is_linear(case, s):
    phi, _, g = case
    h = FormalSeries(g.monoid, g.bound,
                     {m: c - 2 for m, c in g.coefficients.items()})
    assert pullback_is_linear((phi, g, h, s)) is None


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
    assert functoriality(case) is None


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_exterior_associativity(fgh):
    assert exterior_associativity(fgh) is None


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_engine_matches_oracle(fgh):
    assert convolve_matches_oracle(fgh[:2]) is None


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_json_round_trip(fgh):
    f, _, _ = fgh
    assert loads(dumps(f)) == f
