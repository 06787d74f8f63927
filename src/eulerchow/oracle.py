"""Deliberately naive reference implementations used to validate the
engine: definition-level convolution and push-forward over dense tables,
plus the closed-form count oracles.

No sparsity tricks and no early exits; keep these inspectable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .monoid import GradedMonoid, MonoidMorphism
from .series import FormalSeries


@dataclass(frozen=True)
class DenseTable:
    """Coefficients indexed densely in enumerate_up_to order."""

    monoid: GradedMonoid
    bound: int
    values: tuple

    def to_dict(self) -> dict:
        elements = self.monoid.enumerate_up_to(self.bound)
        return {m: v for m, v in zip(elements, self.values) if v}


def naive_convolve(f: FormalSeries, g: FormalSeries, bound: int) -> DenseTable:
    """Literal double enumeration of (f*g)(m) = sum over a+b=m."""
    monoid = f.monoid
    if monoid != g.monoid:
        raise ValueError("series over different monoids")
    elements = monoid.enumerate_up_to(bound)
    values = []
    for m in elements:
        total = 0
        first = True
        for a in elements:
            if any(x > y for x, y in zip(a, m)):
                continue
            b = tuple(y - x for x, y in zip(a, m))
            term = f.coefficient(a) * g.coefficient(b)
            total = term if first else total + term
            first = False
        values.append(total)
    return DenseTable(monoid, bound, tuple(values))


def naive_pushforward(phi: MonoidMorphism, f: FormalSeries,
                      out_bound: int) -> DenseTable:
    """Exhaustive fiber enumeration by scanning the whole source domain."""
    if not phi.has_finite_fibers():
        raise ValueError("push-forward requires finite fibers")
    source_elements = phi.source.enumerate_up_to(f.bound)
    targets = phi.target.enumerate_up_to(out_bound)
    values = []
    for n in targets:
        total = 0
        first = True
        for m in source_elements:
            if phi.apply(m) == n:
                total = f.coefficient(m) if first else \
                    total + f.coefficient(m)
                first = False
        values.append(total)
    return DenseTable(phi.target, out_bound, tuple(values))


def weyl_dim_gl3(r: int, s: int) -> int:
    """Dimension of the GL(3) Schur module of highest weight (r+s, s, 0)."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be >= 0")
    product = (r + 1) * (s + 1) * (r + s + 2)
    assert product % 2 == 0
    return product // 2
