"""Deliberately naive reference implementations used to validate the
engine: definition-level convolution over every a + b = m up to the
bound and push-forward by scanning every source element up to it, plus
the closed-form count oracles.  The convolution and push-forward return
plain {element: value} tables of their nonzero values, the form of
`FormalSeries.coefficients`.

Both oracles read the plain coefficient tables of their operands and
call no `FormalSeries` method: every element they look up comes from
`enumerate_up_to`, or from the box below one, so it is valid by
construction.  Both refuse, with ValueError, a series over another
monoid, and `naive_convolve` refuses, with TruncationError, a bound
beyond either operand's bound, where a coefficient is not known.

The push-forward maps each source element once, since its image depends
on that element alone, and then every target element still scans the
whole source domain, zero coefficients included.  No sparsity tricks,
no early exits and no engine calls; keep these inspectable.
"""

from __future__ import annotations

from itertools import product, repeat
from operator import mul

from .monoid import MonoidMorphism
from .series import FormalSeries, TruncationError


def naive_convolve(f: FormalSeries, g: FormalSeries, bound: int) -> dict:
    """Literal sum of (f*g)(m) = f(a)g(b) over every a + b = m, zero
    values included.  a runs over the box of elements a <= m in lex order;
    read backwards, that order is the complement m - a, so b runs over
    the same box reversed."""
    monoid = f.monoid
    if monoid != g.monoid:
        raise ValueError("series over different monoids")
    if bound > min(f.bound, g.bound):
        raise TruncationError(
            f"bound {bound} exceeds a series bound ({f.bound}, {g.bound})")
    fget, gget = f.coefficients.get, g.coefficients.get
    table = {}
    for m in monoid.enumerate_up_to(bound):
        box = list(product(*[range(x + 1) for x in m]))
        total = sum(map(mul, map(fget, box, repeat(0)),
                        map(gget, reversed(box), repeat(0))))
        if total:
            table[m] = total
    return table


def naive_pushforward(phi: MonoidMorphism, f: FormalSeries,
                      out_bound: int) -> dict:
    """Exhaustive fiber enumeration by scanning the whole source domain."""
    if f.monoid != phi.source:
        raise ValueError("series not over the source of the morphism")
    if not phi.has_finite_fibers():
        raise ValueError("push-forward requires finite fibers")
    fc = f.coefficients
    source_elements = phi.source.enumerate_up_to(f.bound)
    images = [phi.apply(m) for m in source_elements]
    table = {}
    for n in phi.target.enumerate_up_to(out_bound):
        total = 0
        for m, image in zip(source_elements, images):
            if image == n:
                total += fc.get(m, 0)
        if total:
            table[n] = total
    return table


def weyl_dim_gl3(r: int, s: int) -> int:
    """Dimension of the GL(3) Schur module of highest weight (r+s, s, 0)."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    product = (r + 1) * (s + 1) * (r + s + 2)
    assert product % 2 == 0
    return product // 2
