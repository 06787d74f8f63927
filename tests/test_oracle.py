import pytest

from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.oracle import naive_convolve, naive_pushforward, weyl_dim_gl3
from eulerchow.series import (FormalSeries, TruncationError, convolve,
                              pushforward)

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


def test_weyl_dim_known_values():
    assert weyl_dim_gl3(0, 0) == 1
    assert weyl_dim_gl3(1, 0) == 3
    assert weyl_dim_gl3(1, 1) == 8
    assert weyl_dim_gl3(2, 2) == 27
    with pytest.raises(ValueError):
        weyl_dim_gl3(-1, 0)
