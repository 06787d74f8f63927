import pytest

from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.oracle import naive_convolve, naive_pushforward, weyl_dim_gl3
from eulerchow.series import FormalSeries, convolve, pushforward

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


def test_naive_convolve_rejects_mixed_monoids():
    with pytest.raises(ValueError):
        naive_convolve(FormalSeries(T, 2, {}), FormalSeries(XY, 2, {}), 2)


def test_naive_pushforward_matches_engine():
    phi = MonoidMorphism(XY, T, ((1,), (2,)))
    f = FormalSeries(XY, 4, {(2, 1): 5, (0, 2): 1, (1, 0): -2})
    fast = pushforward(phi, f)
    assert fast.coefficients == naive_pushforward(phi, f, fast.bound)


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
