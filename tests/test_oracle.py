import ast
import random
from itertools import product
from operator import attrgetter, le, sub
from pathlib import Path

import pytest

from eulerchow import oracle
from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.oracle import naive_convolve, naive_pushforward, weyl_dim_gl3
from eulerchow.series import (FormalSeries, TruncationError, convolve,
                              pushforward)
from eulerchow.verify import random_monoid, random_series

T = GradedMonoid.free(["t"])
XY = GradedMonoid.free(["x", "y"])


def test_naive_convolve_known_product():
    f = FormalSeries(T, 4, {(d,): 1 for d in range(5)})
    got = naive_convolve(f, f, 4)
    assert got == {(d,): d + 1 for d in range(5)}
    # (1 - t)(1 + t) = 1 - t^2: the table holds only the nonzero values
    assert naive_convolve(FormalSeries(T, 2, {(0,): 1, (1,): -1}),
                          FormalSeries(T, 2, {(0,): 1, (1,): 1}),
                          2) == {(0,): 1, (2,): -1}


def test_naive_convolve_matches_engine():
    f = FormalSeries(XY, 4, {(1, 0): 2, (0, 1): -3, (2, 1): 1})
    g = FormalSeries(XY, 4, {(0, 0): 1, (1, 1): 5})
    fast = convolve(f, g)
    assert fast.coefficients == naive_convolve(f, g, 4)


def test_naive_convolve_refuses_a_bound_beyond_its_operands():
    f = FormalSeries(XY, 4, {(1, 0): 2})
    g = FormalSeries(XY, 3, {(0, 1): 1})
    assert naive_convolve(f, g, 3) == {(1, 1): 2}
    for bound in (4, 5):
        with pytest.raises(TruncationError):
            naive_convolve(f, g, bound)
        with pytest.raises(TruncationError):
            naive_convolve(g, f, bound)


def test_naive_convolve_rejects_mixed_monoids():
    with pytest.raises(ValueError):
        naive_convolve(FormalSeries(T, 2, {}), FormalSeries(XY, 2, {}), 2)


def convolve_by_pairs(f, g, bound):
    """The convolution as a literal double scan: for every m up to the
    bound, every a up to the bound, kept when a <= m, with b = m - a."""
    elements = f.monoid.enumerate_up_to(bound)
    table = {}
    for m in elements:
        total = sum(f.coefficients.get(a, 0)
                    * g.coefficients.get(tuple(map(sub, m, a)), 0)
                    for a in elements if all(map(le, a, m)))
        if total:
            table[m] = total
    return table


def test_naive_convolve_is_the_double_scan():
    # values and key order over the 14 monoids `random_monoid` draws
    # (tests/test_verify.py pins them), g drawn at the bound or beyond it
    rng = random.Random(4301)
    drawable = sorted({random_monoid(rng) for _ in range(400)},
                      key=attrgetter("generators"))
    assert len(drawable) == 14
    for monoid in drawable:
        for bound in range(2, 9):
            f = random_series(rng, monoid, bound)
            g = random_series(rng, monoid, rng.randint(bound, 8))
            got = naive_convolve(f, g, bound)
            assert list(got.items()) == list(
                convolve_by_pairs(f, g, bound).items())
            assert got == convolve(f, g).coefficients
    # the rank-0 monoid has one element, and an empty series gives {}
    point = GradedMonoid(())
    for d in (0, 3):
        f = FormalSeries(point, d, {(): 3})
        g = FormalSeries(point, d, {(): -2})
        assert naive_convolve(f, g, d) == convolve_by_pairs(f, g, d)
        assert naive_convolve(f, g, d) == {(): -6}
        assert naive_convolve(f, FormalSeries(point, d), d) == {}
    for monoid in drawable:
        f = random_series(rng, monoid, 4)
        assert naive_convolve(f, FormalSeries(monoid, 4), 4) == {}
        assert naive_convolve(FormalSeries(monoid, 4), f, 4) == {}


@pytest.mark.parametrize("m", [(), (0,), (3,), (0, 2), (2, 0), (0, 0),
                               (1, 0, 2), (0, 3, 0), (0, 0, 0), (2, 1, 3)])
def test_a_box_read_backwards_is_its_complement(m):
    # the box of a <= m in lex order is every element a <= m, and its
    # reversal is m - a, a zero entry of m included
    box = list(product(*[range(x + 1) for x in m]))
    monoid = GradedMonoid.free([f"g{i}" for i in range(len(m))])
    assert box == sorted(a for a in monoid.enumerate_up_to(sum(m))
                         if all(map(le, a, m)))
    assert box[::-1] == [tuple(map(sub, m, a)) for a in box]


def test_naive_pushforward_matches_engine():
    phi = MonoidMorphism(XY, T, ((1,), (2,)))
    f = FormalSeries(XY, 4, {(2, 1): 5, (0, 2): 1, (1, 0): -2})
    fast = pushforward(phi, f)
    assert fast.coefficients == naive_pushforward(phi, f, fast.bound)


def pushforward_by_pairs(phi, f, out_bound):
    """The push-forward as a literal sum over every (target element, source
    element) pair, mapping the source element afresh for each pair."""
    table = {}
    for n in phi.target.enumerate_up_to(out_bound):
        total = sum(f.coefficient(m)
                    for m in phi.source.enumerate_up_to(f.bound)
                    if phi.apply(m) == n)
        if total:
            table[n] = total
    return table


def test_naive_pushforward_is_the_sum_over_pairs():
    # x and y both map to t: x and y collide and cancel in t, x^2, x*y and
    # y^2 collide in t^2, and y^2 itself has coefficient zero
    phi = MonoidMorphism(XY, T, ((1,), (1,)))
    f = FormalSeries(XY, 2, {(0, 0): 3, (1, 0): 2, (0, 1): -2, (2, 0): 1,
                             (1, 1): 4})
    assert naive_pushforward(phi, f, 2) == {(0,): 3, (2,): 5}
    assert naive_pushforward(phi, f, 2) == pushforward_by_pairs(phi, f, 2)
    # onto a weighted target, with a bound beyond the image of every term
    w = GradedMonoid.free(["u", "v"], [1, 2])
    phi = MonoidMorphism(XY, w, ((1, 1), (1, 0)))
    f = FormalSeries(XY, 3, {(0, 0): 1, (1, 0): 7, (0, 3): -1, (1, 2): 2})
    assert naive_pushforward(phi, f, 9) == pushforward_by_pairs(phi, f, 9)


def test_naive_pushforward_requires_finite_fibers():
    phi = MonoidMorphism(XY, T, ((1,), (0,)))
    with pytest.raises(ValueError):
        naive_pushforward(phi, FormalSeries(XY, 2, {}), 2)


def test_naive_pushforward_rejects_a_series_over_another_monoid():
    phi = MonoidMorphism(XY, T, ((1,), (2,)))
    with pytest.raises(ValueError, match="not over the source"):
        naive_pushforward(phi, FormalSeries(T, 2, {(0,): 5, (1,): 7}), 2)


ENGINE_OPERATIONS = {"convolve", "pushforward", "pullback", "expand",
                     "_divide"}


def test_the_oracle_is_independent_of_the_engine():
    # it imports two names from the series module and one from the monoid
    # module, and names no engine operation, to call it or to pass it on
    tree = ast.parse(Path(oracle.__file__).read_text())
    relative = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names}
    assert relative == {("series", "FormalSeries"),
                        ("series", "TruncationError"),
                        ("monoid", "MonoidMorphism")}
    absolute = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert not {name for name in absolute if name.startswith("eulerchow")}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    assert {"enumerate_up_to", "coefficients"} <= named  # the walk works
    assert not named & ENGINE_OPERATIONS


def test_weyl_dim_known_values():
    assert weyl_dim_gl3(0, 0) == 1
    assert weyl_dim_gl3(1, 0) == 3
    assert weyl_dim_gl3(1, 1) == 8
    assert weyl_dim_gl3(2, 2) == 27
    with pytest.raises(ValueError):
        weyl_dim_gl3(-1, 0)
