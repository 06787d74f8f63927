"""Catalog of varieties with known Euler-Chow series: closed forms and
the two computation pipelines (split projective bundle, Chow quotient).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import schubert
from .monoid import GradedMonoid, MonoidMorphism
from .series import (FormalSeries, RationalSeries, TruncationError, convolve,
                     first_difference, one, pushforward)

FLAG012 = schubert.FlagType((0, 1), 2)
G13 = schubert.grassmannian(1, 3)


class UnsupportedRequestError(ValueError):
    """The requested representation does not exist for this variety."""


class VerificationError(AssertionError):
    """Closed form and pipeline disagree; carries the first difference."""

    def __init__(self, message, difference):
        super().__init__(message)
        self.difference = difference


@dataclass(frozen=True)
class VarietyDescriptor:
    kind: str
    n: int = 0
    d: int = 0
    chi: int = 0

    def __str__(self):
        return {
            "Pn": f"Pn({self.n})",
            "PnxP1": f"PnxP1({self.n})",
            "ProjClosure": f"ProjClosure(n={self.n},d={self.d})",
            "Hirzebruch": f"Hirzebruch({self.d})",
            "BlowupPn": f"BlowupPn({self.n})",
            "Flag012": "Flag012",
            "G13": "G(1,3)",
            "Macdonald": f"Macdonald({self.chi})",
        }[self.kind]


_DESCRIPTOR_FORMS = [
    (r"Pn\((\d+)\)", lambda m: VarietyDescriptor("Pn", n=int(m[1]))),
    (r"PnxP1\((\d+)\)", lambda m: VarietyDescriptor("PnxP1", n=int(m[1]))),
    (r"ProjClosure\(n=(\d+),d=(\d+)\)",
     lambda m: VarietyDescriptor("ProjClosure", n=int(m[1]), d=int(m[2]))),
    (r"Hirzebruch\((\d+)\)",
     lambda m: VarietyDescriptor("Hirzebruch", n=1, d=int(m[1]))),
    (r"BlowupPn\((\d+)\)",
     lambda m: VarietyDescriptor("BlowupPn", n=int(m[1]) - 1, d=1)),
    (r"Flag012", lambda m: VarietyDescriptor("Flag012")),
    (r"G\(1,3\)", lambda m: VarietyDescriptor("G13")),
    (r"Macdonald\((-?\d+)\)",
     lambda m: VarietyDescriptor("Macdonald", chi=int(m[1]))),
]


def parse_descriptor(text: str) -> VarietyDescriptor:
    for pattern, build in _DESCRIPTOR_FORMS:
        m = re.fullmatch(pattern, text.strip())
        if m:
            return build(m)
    raise UnsupportedRequestError(f"unknown variety descriptor: {text!r}")


@dataclass(frozen=True)
class EulerChowResult:
    variety: VarietyDescriptor
    p: int
    closed_form: RationalSeries | None
    expansion: FormalSeries | None
    generator_dictionary: tuple[tuple[str, str], ...]


def _rename(monoid: GradedMonoid, labels) -> GradedMonoid:
    return GradedMonoid(tuple(zip(labels, monoid.weights)))


def rename_rational(r: RationalSeries, labels) -> RationalSeries:
    return RationalSeries(_rename(r.monoid, labels), r.numerator,
                          r.denominator)


def rename_series(f: FormalSeries, labels) -> FormalSeries:
    return FormalSeries(_rename(f.monoid, labels), f.bound, f.coefficients)


# ---------------------------------------------------------------------------
# Closed forms

def macdonald(chi: int) -> RationalSeries:
    """Zero-cycle series of a connected variety with Euler characteristic
    chi: all symmetric products together contribute 1/(1-t)^chi."""
    if chi < 1:
        raise ValueError(f"chi must be >= 1, got {chi}")
    m = GradedMonoid.free(["t"])
    return RationalSeries(m, ((m.zero(), 1),), (((1,), chi),))


def lawson_yau_pn(n: int, p: int) -> RationalSeries:
    """E_p of projective n-space: (1/(1-t))^C(n+1, p+1)."""
    if not 0 <= p <= n:
        raise ValueError(f"p={p} out of range for Pn({n})")
    m = GradedMonoid.free(["t"])
    return RationalSeries(m, ((m.zero(), 1),),
                          (((1,), math.comb(n + 1, p + 1)),))


def split_bundle_closed(n: int, d: int, p: int) -> RationalSeries:
    """Closed form for the projective closure of O(d) over Pn.

    For p = 0 the first factor is absent (the p-1 cycle monoid is trivial).
    """
    _check_split_range(n, d, p)
    m = GradedMonoid.free(["t0", "t1"])
    den = []
    if p >= 1:
        den.append(((1, 0), math.comb(n + 1, p)))
    den.append(((0, 1), math.comb(n + 1, p + 1)))
    den.append(((d, 1), math.comb(n + 1, p + 1)))
    return RationalSeries(m, ((m.zero(), 1),), tuple(den))


def flag012_series(p: int) -> RationalSeries:
    """Stored closed forms for F(0,1;2), over the Schubert-symbol basis."""
    if p not in (0, 1, 2):
        raise ValueError(f"no stored closed form for F(0,1;2) at p={p}")
    return _flag012_rational(p)


def _flag012_rational(p: int) -> RationalSeries:
    m = schubert.basis(FLAG012, p)
    num = ((m.zero(), 1),)
    if p == 0:
        chi = schubert.fixed_point_count(FLAG012)
        return RationalSeries(m, num, (((1,), chi),))
    if p == 1:
        # generators in graded-lex order: <0;0,2> (r), <1;0,1> (s)
        return RationalSeries(m, num,
                              (((1, 0), 3), ((0, 1), 3), ((1, 1), 3)))
    if p == 2:
        # generators: <1;1,2> (x), <2;0,2> (y)
        return RationalSeries(m, (((0, 0), 1), ((1, 1), -1)),
                              (((1, 0), 3), ((0, 1), 3)))
    if p == 3:
        # fundamental-class multiples: one component per degree
        return RationalSeries(m, num, (((1,), 1),))
    raise ValueError(f"p={p} out of range for F(0,1;2)")


def grassmannian13_closed(p: int) -> RationalSeries:
    """Closed forms for G(1,3), over the Schubert-symbol basis."""
    m = schubert.basis(G13, p)
    num = ((m.zero(), 1),)
    if p == 0:
        return RationalSeries(m, num,
                              (((1,), schubert.fixed_point_count(G13)),))
    if p == 1:
        return RationalSeries(m, num, (((1,), 12),))
    if p == 2:
        # generators in graded-lex order: <0,3> (x), <1,2> (y)
        return RationalSeries(m, num,
                              (((1, 0), 4), ((0, 1), 4), ((1, 1), 3)))
    if p == 3:
        return RationalSeries(m, (((0,), 1), ((1,), 1)), (((1,), 5),))
    if p == 4:
        return RationalSeries(m, num, (((1,), 1),))
    raise ValueError(f"p={p} out of range for G(1,3)")


# ---------------------------------------------------------------------------
# Pipelines

def _check_split_range(n: int, d: int, p: int):
    if n < 0 or d < 0:
        raise ValueError("n and d must be >= 0")
    if not 0 <= p <= n:
        raise ValueError(f"p={p} out of range for ProjClosure(n={n},d={d})")


def _assemble(pieces, target, degree) -> FormalSeries:
    """Product in the target of the factor series, each pushed forward
    along the morphism that sends its generators to the given images.

    Push-forward is a ring homomorphism, so this is the push-forward of
    f1 (.) f2 (.) ... over the product monoid along the concatenated
    images, without building that product.  Its bound floor(D * min ratio)
    is the minimum over k of floor(D * ratio_k), which convolve takes.
    """
    out = one(target, degree)
    for f, images in pieces:
        psi = MonoidMorphism(f.monoid, target, tuple(images))
        out = convolve(out, pushforward(psi, f))
    if out.bound < degree:
        raise TruncationError(
            f"insufficient truncation: requested degree {degree}, "
            f"pipeline bound {out.bound}")
    return out.restrict(degree)


def split_bundle_series(n: int, d: int, p: int, degree: int) -> FormalSeries:
    """Split-bundle pipeline for the projective closure of O(d) over Pn.

    Pushes E_{p-1}(Pn), E_p(Pn) and E_p(Pn) forward along the generator
    images (1,0), (0,1) and (d,1) and multiplies them in the target; as
    push-forward is a ring homomorphism, this is the push-forward of
    E_{p-1}(Pn) (.) E_p(Pn) (.) E_p(Pn).  For p = 0 the first factor is
    absent.
    """
    _check_split_range(n, d, p)
    f = lawson_yau_pn(n, p).expand(degree)
    pieces = [(f, [(0, 1)]), (f, [(d, 1)])]
    if p >= 1:
        pieces.insert(0, (lawson_yau_pn(n, p - 1).expand(degree), [(1, 0)]))
    return _assemble(pieces, GradedMonoid.free(["t0", "t1"]), degree)


def _g13_factors(p: int, degree: int):
    """(series, basis symbols, map into G(1,3)) for each factor present:
    E_{p-1}(F(0,1;2)) along the trace map, E_p(G(1,2)) and E_p(G(0,2))
    along the inclusions.  A factor whose basis is empty is left out."""
    if p >= 1:
        yield (_flag012_rational(p - 1).expand(degree),
               schubert.symbols_of_dimension(FLAG012, p - 1),
               schubert.trace_phi)
    for d, inclusion in ((1, schubert.inclusion_i), (0, schubert.inclusion_j)):
        g = schubert.grassmannian(d, 2)
        symbols = schubert.symbols_of_dimension(g, p)
        if symbols:
            m = schubert.basis(g, p)
            r = RationalSeries(m, ((m.zero(), 1),),
                               (((1,), math.comb(3, p + 1)),))
            yield r.expand(degree), symbols, inclusion


def grassmannian13_series(p: int, degree: int) -> FormalSeries:
    """Chow-quotient pipeline for G(1,3).

    Pushes E_{p-1}(F(0,1;2)), E_p(G(1,2)) and E_p(G(0,2)) forward along
    the trace and inclusion maps on Schubert symbols and multiplies them in
    the target; as push-forward is a ring homomorphism, this is the
    push-forward of E_{p-1}(F(0,1;2)) (.) E_p(G(1,2)) (.) E_p(G(0,2)).
    """
    if not 0 <= p <= 4:
        raise ValueError(f"p={p} out of range for G(1,3)")
    target = schubert.basis(G13, p)
    pieces = [(f, [target.generator(target.index_of(push(s).label()))
                   for s in symbols])
              for f, symbols, push in _g13_factors(p, degree)]
    return _assemble(pieces, target, degree)


def flag012_divisor_by_recurrence(R: int, S: int) -> list[list[int]]:
    """Euler characteristics of the divisor components of F(0,1;2) via the
    excision recurrence, seeded by E_1 of P1 x P1."""
    if R < 0 or S < 0:
        raise ValueError("R and S must be >= 0")

    def b(r, s):
        return (r + 1) * (s + 1) if r >= 0 and s >= 0 else 0

    a0 = [[0] * (S + 1) for _ in range(R + 1)]

    def get(r, s):
        return a0[r][s] if r >= 0 and s >= 0 else 0

    for total in range(R + S + 1):
        for r in range(min(total, R) + 1):
            s = total - r
            if s > S:
                continue
            a1 = get(r - 1, s) + get(r, s - 1) - get(r - 1, s - 1)
            a0[r][s] = a1 + b(r, s) - b(r - 1, s - 1)
    return a0


# ---------------------------------------------------------------------------
# Dispatcher

_VARIABLE_TABLES = {
    # (kind, p) -> list of (variable, class name); class names follow the
    # Schubert-symbol labels of the basis monoid, in graded-lex order.
    ("Flag012", 0): ["t"],
    ("Flag012", 1): ["r", "s"],
    ("Flag012", 2): ["x", "y"],
    ("G13", 0): ["t"],
    ("G13", 1): ["s"],
    ("G13", 2): ["x", "y"],
    ("G13", 3): ["z"],
    ("G13", 4): ["w"],
}


def _dimension_range(v: VarietyDescriptor) -> range:
    if v.kind in ("Pn", "Macdonald"):
        return range(0, v.n + 1) if v.kind == "Pn" else range(0, 1)
    if v.kind in ("PnxP1", "ProjClosure", "Hirzebruch", "BlowupPn"):
        return range(0, v.n + 1)
    if v.kind == "Flag012":
        return range(0, 3)
    if v.kind == "G13":
        return range(0, 5)
    raise UnsupportedRequestError(v.kind)


def euler_chow(v: VarietyDescriptor, p: int, degree: int = 10,
               method: str = "both") -> EulerChowResult:
    """Compute E_p of a catalog variety.

    method 'closed' returns the stored rational form, 'pipeline' the
    truncated pipeline expansion, 'both' verifies their agreement up to
    the requested degree before returning.
    """
    if method not in ("closed", "pipeline", "both"):
        raise ValueError(f"unknown method {method!r}")
    if p not in _dimension_range(v):
        raise ValueError(f"p={p} out of range for {v}")

    closed: RationalSeries | None = None
    expansion: FormalSeries | None = None
    dictionary: list[tuple[str, str]] = []

    if v.kind == "Pn":
        closed = lawson_yau_pn(v.n, p)
        dictionary = [("t", f"degree-d multiples of [P^{p}]")]
    elif v.kind == "Macdonald":
        closed = macdonald(v.chi)
        dictionary = [("t", "point class")]
    elif v.kind in ("PnxP1", "ProjClosure", "Hirzebruch", "BlowupPn"):
        n, d = v.n, (0 if v.kind == "PnxP1" else v.d)
        closed = split_bundle_closed(n, d, p)
        dictionary = [("t0", f"q*[P^{p - 1}]"), ("t1", f"section [P^{p}]")]
        if method in ("pipeline", "both"):
            expansion = split_bundle_series(n, d, p, degree)
    elif v.kind == "Flag012":
        symbols = schubert.symbols_of_dimension(FLAG012, p)
        variables = _VARIABLE_TABLES[("Flag012", p)]
        dictionary = [(var, s.label()) for var, s in zip(variables, symbols)]
        closed = rename_rational(flag012_series(p), variables)
        if p == 2 and method in ("pipeline", "both"):
            table = flag012_divisor_by_recurrence(degree, degree)
            coeffs = {(r, s): table[r][s]
                      for r in range(degree + 1)
                      for s in range(degree + 1) if r + s <= degree}
            expansion = FormalSeries(closed.monoid, degree, coeffs)
    elif v.kind == "G13":
        symbols = schubert.symbols_of_dimension(G13, p)
        variables = _VARIABLE_TABLES[("G13", p)]
        dictionary = [(var, s.label()) for var, s in zip(variables, symbols)]
        closed = rename_rational(grassmannian13_closed(p), variables)
        if method in ("pipeline", "both"):
            expansion = rename_series(grassmannian13_series(p, degree),
                                      variables)
    else:
        raise UnsupportedRequestError(v.kind)

    if method in ("pipeline", "both") and expansion is None:
        raise UnsupportedRequestError(
            f"no independent pipeline is available for {v}")

    if method == "both":
        diff = first_difference(closed.expand(degree), expansion, degree)
        if diff is not None:
            m, a, b = diff
            raise VerificationError(
                f"{v} p={p}: closed form and pipeline differ at t^{m}: "
                f"{a} vs {b}", diff)

    if method == "closed":
        expansion = None
    if method == "pipeline":
        closed = None
    return EulerChowResult(v, p, closed, expansion, tuple(dictionary))
