"""Catalog of varieties with known Euler-Chow series: closed forms, the
pipelines (split projective bundle, Chow quotient, flag excision) and one
row per kind of variety.  A row's `spelling`, such as
"ProjClosure(n={},d={})", is its descriptor grammar, read both ways, and
its `least` the least value of each integer, which the descriptor checks.
A row states the dimension `dim` and Euler characteristic `chi` of its
variety X and its `closed` form for 0 < p < dim; `closed_form` serves
p = 0..dim, E_0 as 1/(1-t)^chi and E_dim as 1/(1-g) over the fundamental
class g, as Pi_dim(X) = Z_+[X] for an irreducible X.  `closed_form` is
the one reader of a stored series: `euler_chow`, the pipelines that take
E_p(P^n) or E_p(F(0,1;2)) as a factor, and the `verify` checks all read
through it.  A row's `pipeline` returns the (target, factors) list of its
independent computation: one flat list of rational factors with the
images of their generators.  `euler_chow` multiplies that list exactly by
`_push_product`; `_assemble` truncates it at a degree for the `bundle`
and `grassmann` verification suites.  `_split_kind` builds the rows of
the projective closures and `_schubert_kind` those of the Schubert
varieties, whose stored series are one table, `SCHUBERT_FORMS`.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple

from . import schubert
from .monoid import GradedMonoid, MonoidMorphism, Record
from .series import (INTEGER, FormalSeries, RationalSeries, convolve,
                     describe_difference, first_rational_difference, one,
                     pushforward)

FLAG012 = schubert.FlagType((0, 1), 2)
G13 = schubert.grassmannian(1, 3)
# the monoid of a projective closure's series at p >= 1: t0 counts
# multiples of the pulled-back classes q*[P^{p-1}], t1 those of the
# section classes [P^p]
SPLIT_BASIS = GradedMonoid.free(["t0", "t1"])
# the monoid of a zero-cycle series: t counts points
POINT_BASIS = GradedMonoid.free(["t"])


class UnsupportedRequestError(ValueError):
    """The descriptor or variety kind is not in the catalog."""


class VerificationError(AssertionError):
    """Closed form and pipeline disagree; the message names the first
    difference."""


class VarietyDescriptor(Record):
    """A catalog variety: its kind (a key of `KINDS`) and the integers
    that fill the `{}` of that kind's spelling, in order."""

    __slots__ = _fields = ("kind", "args")
    _defaults = {"args": tuple}
    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None or len(kind.least) != len(self.args):
            raise UnsupportedRequestError(f"unknown variety: {self.kind!r} "
                                          f"with integers {self.args}")
        for (name, low), x in zip(kind.least.items(), self.args):
            if x < low:
                raise ValueError(f"{name}={x} out of range for {self}: "
                                 f"{name} must be >= {low}")

    def __str__(self):
        return KINDS[self.kind].spelling.format(*self.args)


@functools.cache
def _grammar(spelling: str) -> re.Pattern:
    """The spelling as a regex, each `{}` an `INTEGER`."""
    return re.compile(f"({INTEGER})".join(
        map(re.escape, spelling.split("{}"))))


def parse_descriptor(text: str) -> VarietyDescriptor:
    """The variety a descriptor names: a row's spelling, per `_grammar`."""
    for name, kind in KINDS.items():
        m = _grammar(kind.spelling).fullmatch(text.strip())
        if m:
            return VarietyDescriptor(name, tuple(map(int, m.groups())))
    raise UnsupportedRequestError(f"unknown variety descriptor: {text!r}")


class EulerChowResult(Record):
    __slots__ = _fields = ("variety", "p", "closed_form", "check",
                           "generator_dictionary")
    variety: VarietyDescriptor
    p: int
    closed_form: RationalSeries
    # how the closed form was cross-checked: "identity" (by its pipeline,
    # an identity of rational functions that holds at every degree) or
    # "none"
    check: str
    generator_dictionary: tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# Closed forms

def macdonald(chi: int, letter: str = "t") -> RationalSeries:
    """1/(1-g)^chi, chi >= 1: over the point class g, the zero-cycle series
    of a connected variety with Euler characteristic chi, all symmetric
    products together; over the fundamental class, chi = 1, E_dim."""
    basis = GradedMonoid.free([letter])
    return RationalSeries(basis, ((basis.zero(), 1),), (((1,), chi),))


def _split_closed(n: int, d: int, p: int) -> RationalSeries:
    """E_p, 0 < p <= n, of the projective closure of O(d) over Pn."""
    return RationalSeries(SPLIT_BASIS, ((SPLIT_BASIS.zero(), 1),), (
        ((1, 0), math.comb(n + 1, p)), ((0, 1), math.comb(n + 1, p + 1)),
        ((d, 1), math.comb(n + 1, p + 1))))


# Per flag type: for p = 0..dim the letters of E_p's generators, one per
# Schubert symbol of dimension p in graded-lex order, and for 0 < p < dim
# the (numerator, denominator) of E_p.  `closed_form` serves E_0 and E_dim,
# whose one letter names the fundamental class.
SCHUBERT_FORMS = {
    FLAG012: (("t", "rs", "xy", "u"), {
        # <0;0,2> (r), <1;0,1> (s)
        1: ((((0, 0), 1),), (((1, 0), 3), ((0, 1), 3), ((1, 1), 3))),
        # <1;1,2> (x), <2;0,2> (y)
        2: ((((0, 0), 1), ((1, 1), -1)), (((1, 0), 3), ((0, 1), 3))),
    }),
    G13: (("t", "s", "xy", "z", "w"), {
        1: ((((0,), 1),), (((1,), 12),)),
        # <0,3> (x), <1,2> (y)
        2: ((((0, 0), 1),), (((1, 0), 4), ((0, 1), 4), ((1, 1), 3))),
        3: ((((0,), 1), ((1,), 1)), (((1,), 5),)),
    }),
}


def _basis(ft: schubert.FlagType, p: int) -> GradedMonoid:
    """Weight-1 generators of E_p, named by their letters in
    `SCHUBERT_FORMS`; a p outside 0..dim is refused."""
    letters = SCHUBERT_FORMS[ft][0]
    if not 0 <= p < len(letters):
        raise ValueError(f"p={p} out of range for {ft}")
    return GradedMonoid.free(letters[p])


# ---------------------------------------------------------------------------
# Pipelines

def _split_factors(n: int, d: int, p: int):
    """(target, factors) of the split-bundle pipeline for the projective
    closure of O(d) over Pn: E_{p-1}(Pn), E_p(Pn) and E_p(Pn), with the
    images (1,0), (0,1) and (d,1) of their generators.  For p = 0 it is
    E_0(Pn) twice, once per section, each point a point of the closure."""
    pn = VarietyDescriptor("Pn", (n,))
    f = closed_form(pn, p)
    if p == 0:
        return POINT_BASIS, [(f, [(1,)]), (f, [(1,)])]
    return SPLIT_BASIS, [(closed_form(pn, p - 1), [(1, 0)]),
                         (f, [(0, 1)]), (f, [(d, 1)])]


def _g13_factors(p: int):
    """(target, factors) of the Chow-quotient pipeline for G(1,3):
    E_{p-1}(F(0,1;2)) along the trace map, E_p(G(1,2)) and E_p(G(0,2))
    along the inclusions, each with the images of its generators on the
    Schubert-symbol basis.  A factor whose basis is empty is left out."""
    target = _basis(G13, p)
    classes = schubert.symbols_of_dimension(G13, p)
    pieces = []
    if p >= 1:
        pieces.append((closed_form(VarietyDescriptor("Flag012"), p - 1),
                       schubert.symbols_of_dimension(FLAG012, p - 1),
                       schubert.trace_phi))
    for d, inclusion in ((1, schubert.inclusion_i), (0, schubert.inclusion_j)):
        g = schubert.grassmannian(d, 2)
        symbols = schubert.symbols_of_dimension(g, p)
        if symbols:
            # G(1,2) and G(0,2) are projective planes
            pieces.append((closed_form(VarietyDescriptor("Pn", (2,)), p),
                           symbols, inclusion))
    return target, [(r, [target.generator(classes.index(push(s)))
                         for s in symbols])
                    for r, symbols, push in pieces]


def _push_product(target, factors) -> RationalSeries:
    """The pipeline as one rational form, exact at every degree: the
    product in the target of each factor pushed forward along its images."""
    out = RationalSeries(target, ((target.zero(), 1),), ())
    for r, images in factors:
        psi = MonoidMorphism(r.monoid, target, images)
        out = out.multiply(r.pushforward(psi))
    return out


def _assemble(target, factors, degree) -> FormalSeries:
    """The pipeline truncated at the degree: the product in the target of
    each rational factor expanded to the degree and pushed forward along
    its images.

    Push-forward is a ring homomorphism, so this is the push-forward of
    f1 (.) f2 (.) ... over the product monoid along the concatenated
    images, without building that product.  Every factor has weight-1
    generators and every image has grade >= 1, so each push-forward has a
    bound >= D, and convolve keeps the minimum: the product's bound is
    exactly the D of `one`.
    """
    out = one(target, degree)
    for r, images in factors:
        psi = MonoidMorphism(r.monoid, target, images)
        out = convolve(out, pushforward(psi, r.expand(degree)))
    return out


def _flag012_factors():
    """(target, factors) of the excision pipeline for the divisors of
    F(0,1;2): the factors of E_1(P1 x P1), their t0 and t1 coordinates
    read as x and y, and the excision factor (1 - xy)/((1 - x)(1 - y)).
    In generating functions the recurrence of
    `flag012_divisor_by_recurrence` says a0 (1 - x)(1 - y) = b (1 - xy),
    with b = E_1(P1 x P1)."""
    target = _basis(FLAG012, 2)
    excision = RationalSeries(target, (((0, 0), 1), ((1, 1), -1)),
                              (((1, 0), 1), ((0, 1), 1)))
    _, seed = _split_factors(1, 0, 1)
    return target, seed + [(excision, [(1, 0), (0, 1)])]


def split_bundle_series(n: int, d: int, p: int, degree: int) -> FormalSeries:
    """Split-bundle pipeline for the projective closure of O(d) over Pn,
    truncated at the degree.

    Pushes E_{p-1}(Pn), E_p(Pn) and E_p(Pn) forward along the generator
    images (1,0), (0,1) and (d,1) and multiplies them in the target; as
    push-forward is a ring homomorphism, this is the push-forward of
    E_{p-1}(Pn) (.) E_p(Pn) (.) E_p(Pn).  For p = 0 it pushes E_0(Pn)
    twice to the point class.
    """
    return _assemble(*_split_factors(n, d, p), degree)


def grassmannian13_series(p: int, degree: int) -> FormalSeries:
    """Chow-quotient pipeline for G(1,3), truncated at the degree.

    Pushes E_{p-1}(F(0,1;2)), E_p(G(1,2)) and E_p(G(0,2)) forward along
    the trace and inclusion maps on Schubert symbols and multiplies them in
    the target; as push-forward is a ring homomorphism, this is the
    push-forward of E_{p-1}(F(0,1;2)) (.) E_p(G(1,2)) (.) E_p(G(0,2)).
    """
    return _assemble(*_g13_factors(p), degree)


def flag012_divisor_by_recurrence(R: int, S: int) -> list[list[int]]:
    """Euler characteristics of the divisor components of F(0,1;2) via the
    excision recurrence, seeded by E_1 of P1 x P1.

    a0(r, s) = a0(r-1, s) + a0(r, s-1) - a0(r-1, s-1) + b(r, s) - b(r-1, s-1)
    with b(r, s) = (r+1)(s+1); a0 and b are zero off the quadrant r, s >= 0,
    so b(r, s) - b(r-1, s-1) = r + s + 1 on it.  The table is filled row by
    row inside a zero border, row 0 and column 0."""
    if R < 0 or S < 0:
        raise ValueError("R and S must be >= 0")
    a0 = [[0] * (S + 2) for _ in range(R + 2)]
    for r in range(R + 1):
        above, row = a0[r], a0[r + 1]
        for s in range(S + 1):
            row[s + 1] = above[s + 1] + row[s] - above[s] + r + s + 1
    return [row[1:] for row in a0[1:]]


# ---------------------------------------------------------------------------
# The catalog: one row per kind of variety

# Everything the catalog knows about one kind of variety X: its descriptor
# `spelling`, one `{}` per integer, which `parse_descriptor` reads and `str`
# writes; the `least` value of each integer, by name and in order; v -> its
# `dim` and `chi`; (v, p) -> E_p for 0 < p < dim, and the `classes` of E_p's
# generators for 0 < p < dim (None if dim = 0); (v, p) -> the (target,
# factors) `pipeline` of the series computed without the closed form, or
# None; and the `letter` of E_dim's generator, the fundamental class
Kind = namedtuple("Kind", "spelling least dim chi closed classes pipeline "
                  "letter", defaults=(None, None, lambda v, p: None, "t"))


def _split_kind(spelling, bundle, **least) -> Kind:
    """A projective closure of O(d) over P^n, of dimension n + 1; `bundle`
    maps the integers of the spelling, each at least its value of `least`,
    to (n, d).  Its pipeline serves p <= n; chi counts one P^n per section."""
    def n(v):
        return bundle(*v.args)[0]
    return Kind(spelling, least, dim=lambda v: n(v) + 1,
                chi=lambda v: 2 * (n(v) + 1),
                closed=lambda v, p: _split_closed(*bundle(*v.args), p),
                classes=lambda v, p: [f"q*[P^{p - 1}]", f"section [P^{p}]"],
                pipeline=lambda v, p: _split_factors(*bundle(*v.args), p)
                if p <= n(v) else None)


def _schubert_kind(spelling, ft, pipeline) -> Kind:
    """A flag variety of `SCHUBERT_FORMS`; `pipeline` maps p to its
    (target, factors) list, or None."""
    letters, stored = SCHUBERT_FORMS[ft]
    return Kind(spelling, {}, dim=lambda v: len(letters) - 1,
                chi=lambda v: schubert.fixed_point_count(ft),
                closed=lambda v, p: RationalSeries(_basis(ft, p), *stored[p]),
                classes=lambda v, p: [
                    s.label() for s in schubert.symbols_of_dimension(ft, p)],
                pipeline=lambda v, p: pipeline(p), letter=letters[-1])


KINDS: dict[str, Kind] = {
    "Pn": Kind("Pn({})", {"n": 0}, dim=lambda v: v.args[0],
               chi=lambda v: v.args[0] + 1,
               # one factor 1/(1-t) per coordinate p-plane (Lawson-Yau)
               closed=lambda v, p: macdonald(math.comb(v.args[0] + 1, p + 1)),
               classes=lambda v, p: [f"degree-d multiples of [P^{p}]"]),
    "PnxP1": _split_kind("PnxP1({})", lambda n: (n, 0), n=0),
    "ProjClosure": _split_kind("ProjClosure(n={},d={})", lambda n, d: (n, d),
                               n=0, d=0),
    "Hirzebruch": _split_kind("Hirzebruch({})", lambda d: (1, d), d=0),
    # P^n blown up at a point is the closure of O(1) over P^(n-1)
    "BlowupPn": _split_kind("BlowupPn({})", lambda n: (n - 1, 1), n=1),
    "Flag012": _schubert_kind(
        "Flag012", FLAG012, lambda p: _flag012_factors() if p == 2 else None),
    "G13": _schubert_kind("G(1,3)", G13, _g13_factors),
    # a connected variety known by its chi alone: E_0 is all it serves
    "Macdonald": Kind("Macdonald({})", {"chi": 1}, dim=lambda v: 0,
                      chi=lambda v: v.args[0]),
}


def closed_form(v: VarietyDescriptor, p: int) -> RationalSeries:
    """The stored E_p of a catalog variety X, p = 0..dim X: Macdonald's
    1/(1-t)^chi of the connected X at p = 0, over the point class;
    1/(1-g) at p = dim, over the fundamental class g of the irreducible X;
    and the row's `closed` between."""
    kind = KINDS[v.kind]
    dim = kind.dim(v)
    if not 0 <= p <= dim:
        raise ValueError(f"p={p} out of range for {v}")
    if p == 0:
        return macdonald(kind.chi(v))
    return macdonald(1, kind.letter) if p == dim else kind.closed(v, p)


def euler_chow(v: VarietyDescriptor, p: int,
               method: str = "both") -> EulerChowResult:
    """Compute E_p of a catalog variety.

    method 'closed' returns the stored rational form alone.  'both' also
    multiplies out the variety's pipeline at this p, where one exists, and
    checks the closed form against it by an identity of rational functions,
    which holds at every degree.  A disagreement raises VerificationError
    with the first differing coefficient.  The result's `check` says which
    check ran: "identity" or "none".
    """
    if method not in ("closed", "both"):
        raise ValueError(f"unknown method {method!r}")
    kind = KINDS[v.kind]
    closed = closed_form(v, p)
    classes = (["point class"] if p == 0 else ["fundamental class"]
               if p == kind.dim(v) else kind.classes(v, p))
    dictionary = tuple(zip(closed.monoid.labels, classes, strict=True))
    factors = kind.pipeline(v, p) if method == "both" else None
    if factors is None:
        return EulerChowResult(v, p, closed, "none", dictionary)
    diff = first_rational_difference(closed, _push_product(*factors))
    if diff is not None:
        raise VerificationError(f"{v} p={p}: closed form and pipeline "
                                f"differ: {describe_difference(diff)}")
    return EulerChowResult(v, p, closed, "identity", dictionary)
