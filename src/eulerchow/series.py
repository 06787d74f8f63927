"""Truncated formal series over graded monoids, and exact rational forms.

A FormalSeries stores a sparse table of integer coefficients valid up to
an explicit grade bound; every operation computes the exact bound of its
output and errors rather than returning silently invalid coefficients.

Every FormalSeries satisfies one invariant: each key is a tuple and a
valid element of its monoid (one `int`, not a `bool`, >= 0 per
generator); the bound is an int >= 0 and no key has a grade above it;
every stored coefficient is a nonzero `int`, not a `bool`.  Keys and
values are checked at the boundary, where they come from outside the
engine: the public constructor, and so `loads`, scans the whole table in
a few builtin passes, walks a key table that fails key by key to name
the first bad key, and keeps its own copy of the caller's table.
The operations of this module trust the invariant of their operands:
each adds, maps, filters or walks valid keys, keeps only grades within
the bound it computes, and sums and multiplies ints.  They build their
results with `FormalSeries._trusted`, which skips both scans and keeps
the table it is handed; it still checks the bound and drops zeros.

`dumps` and `loads` own the series-file format, and no other code knows
how a series or a rational series is spelled in a file.  `dumps` is its
one writer, from templates: `_head`, and `_entries` for all three entry
arrays, which formats each array whole, by one `%` of its template over
a flat list of its numbers.  `loads` reads a file in that exact layout by
the same templates, each array by one `translate` that leaves a JSON list
of its numbers and one `json.loads` of that list, and any other valid
file entry by entry.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, itemgetter, mul, sub

from .monoid import (Element, GradedMonoid, MonoidMismatchError,
                     MonoidMorphism, Record)


# the most terms `_divide` may allocate for one denominator factor; a larger
# expansion or product raises TruncationError before it allocates more
MAX_EXPANSION_TERMS = 10**6


class TruncationError(ValueError):
    """A requested degree exceeds the validity bound of a series, or an
    expansion would exceed MAX_EXPANSION_TERMS terms."""


def _check_monoids(f, g):
    """f and g, series or rational series, are over one monoid."""
    if f.monoid != g.monoid:
        raise MonoidMismatchError(
            "series are over different monoids "
            f"({f.monoid.labels} vs {g.monoid.labels})")


def _check_pushforward(phi: MonoidMorphism, f):
    """f, a series or rational series, can be pushed forward along phi:
    it is over phi's source, and phi has finite fibers."""
    if phi.source != f.monoid:
        raise MonoidMismatchError("series not over the source of the morphism")
    if not phi.has_finite_fibers():
        raise ValueError("push-forward requires finite fibers "
                         "(a generator maps to zero)")


def _check_bound(bound):
    """A grade bound, or a degree that becomes one, is an int >= 0."""
    if type(bound) is not int:
        raise TypeError(f"bound {bound!r} is not an int")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")


class FormalSeries(Record):
    """Element of the convolution ring, truncated at a grade bound."""

    __slots__ = _fields = ("monoid", "bound", "coefficients")
    _defaults = {"coefficients": dict}
    monoid: GradedMonoid
    bound: int
    coefficients: dict[Element, int]

    __hash__ = None  # the coefficient table is a dict

    def __post_init__(self):
        table = self.coefficients
        _check_bound(self.bound)
        if not set(map(type, table.values())) <= {int}:
            bad = next(c for c in table.values() if type(c) is not int)
            raise TypeError(f"coefficient {bad!r} is not an int")
        if not self._keys_are_valid():
            self._reject_first_bad_key()
        object.__setattr__(self, "coefficients",
                           {m: c for m, c in table.items() if c})

    @classmethod
    def _trusted(cls, monoid: GradedMonoid, bound: int,
                 table: dict) -> "FormalSeries":
        """A series whose keys are valid by construction: an operation of
        this module built `table` from valid operands, and hands it over.
        The key and value scans are skipped and the table kept, not
        copied; the bound is checked and zeros dropped as by the public
        constructor."""
        _check_bound(bound)
        f = object.__new__(cls)
        object.__setattr__(f, "monoid", monoid)
        object.__setattr__(f, "bound", bound)
        object.__setattr__(f, "coefficients", table if all(table.values())
                           else {m: c for m, c in table.items() if c})
        return f

    def _keys_are_valid(self) -> bool:
        """The key invariant, checked in a few builtin passes over the
        whole table: every key is a tuple of length rank, every exponent
        an int >= 0, and no grade is above the bound."""
        keys = self.coefficients
        if not keys:
            return True
        if (set(map(type, keys)) != {tuple}
                or set(map(len, keys)) != {self.monoid.rank}):
            return False
        exponents = list(chain.from_iterable(keys))
        if not set(map(type, exponents)) <= {int}:
            return False
        if exponents and min(exponents) < 0:
            return False
        return max(self.monoid.grades(keys)) <= self.bound

    def _reject_first_bad_key(self):
        """Raise the error of the first key, in table order, that breaks
        the key invariant."""
        validate, grade = self.monoid.validate, self.monoid.grade
        for m in self.coefficients:
            if type(m) is not tuple:
                raise TypeError(f"key {m!r} is not a tuple")
            validate(m)
            if grade(m) > self.bound:
                raise TruncationError(
                    f"coefficient at {m} exceeds bound {self.bound}")

    def coefficient(self, m: Element):
        self.monoid.validate(m)
        if self.monoid.grade(m) > self.bound:
            raise TruncationError(
                f"coefficient at {m} is beyond bound {self.bound}")
        return self.coefficients.get(tuple(m), 0)

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        _check_monoids(self, other)
        bound = min(self.bound, other.bound)
        acc = dict(_terms_up_to(self, bound))
        for m, c in _terms_up_to(other, bound):
            acc[m] = acc[m] + c if m in acc else c
        return FormalSeries._trusted(self.monoid, bound, acc)

    def scale(self, s) -> "FormalSeries":
        if type(s) is not int:
            raise TypeError(f"scalar {s!r} is not an int")
        return FormalSeries._trusted(
            self.monoid, self.bound,
            {m: c * s for m, c in self.coefficients.items()})


def _terms_up_to(f: FormalSeries, bound: int):
    """The (element, coefficient) pairs of f of grade <= bound, with its
    key table graded in one `grades` pass."""
    keep = map(bound.__ge__, f.monoid.grades(f.coefficients))
    return compress(f.coefficients.items(), keep)


def one(monoid: GradedMonoid, bound: int) -> FormalSeries:
    return FormalSeries._trusted(monoid, bound, {monoid.zero(): 1})


def convolve(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """Convolution product: coefficient at m sums f(a)g(b) over a+b=m."""
    _check_monoids(f, g)
    monoid = f.monoid
    bound = min(f.bound, g.bound)
    fc, gc = f.coefficients, g.coefficients
    g_items = sorted(zip(monoid.grades(gc), gc, gc.values()))
    acc = {}
    for a, ca, ga in zip(fc, fc.values(), monoid.grades(fc)):
        budget = bound - ga
        if budget < 0:
            continue
        for gb, b, cb in g_items:
            if gb > budget:
                break
            m = tuple(map(add, a, b))
            v = ca * cb
            acc[m] = acc[m] + v if m in acc else v
    return FormalSeries._trusted(monoid, bound, acc)


def exterior(f: FormalSeries, g: FormalSeries):
    """Exterior product over the product monoid: (f (.) g)(m,n) = f(m)g(n).

    Returns (series, product_monoid).  The product monoid has the labels
    and weights of f's monoid followed by g's; if two labels collide, each
    is prefixed by its factor, "0." or "1.".
    """
    a, b = f.monoid, g.monoid
    labels = a.labels + b.labels
    if len(set(labels)) != len(labels):
        labels = tuple(f"0.{lab}" for lab in a.labels) + \
            tuple(f"1.{lab}" for lab in b.labels)
    prod = GradedMonoid(tuple(zip(labels, a.weights + b.weights)))
    bound = min(f.bound, g.bound)
    fc, gc = f.coefficients, g.coefficients
    g_items = list(zip(gc, gc.values(), b.grades(gc)))
    acc = {}
    for m, cm, gm in zip(fc, fc.values(), a.grades(fc)):
        budget = bound - gm
        for n, cn, gn in g_items:
            if gn <= budget:
                acc[m + n] = cm * cn
    return FormalSeries._trusted(prod, bound, acc), prod


def pushforward_bound(phi: MonoidMorphism, source_bound: int) -> int:
    """Exact bound of a push-forward: floor(D * r), r = min_i
    grade(image_i) / weight_i, or D for the rank-0 source.  An element of
    grade g maps to grade >= r * g, so every element mapping to grade
    <= D * r has grade <= D and is in the series.  Floor is monotone, so
    floor(D * r) is the minimum of the D * grade(image_i) // weight_i."""
    grade, d = phi.target.grade, source_bound
    return min((d * grade(img) // w for img, w in
                zip(phi.generator_images, phi.source.weights)), default=d)


def pushforward(phi: MonoidMorphism, f: FormalSeries) -> FormalSeries:
    """Sum coefficients over fibers of phi; requires finite fibers."""
    _check_pushforward(phi, f)
    out_bound = pushforward_bound(phi, f.bound)
    images = list(map(phi.apply, f.coefficients))
    acc = {}
    for n, c, gn in zip(images, f.coefficients.values(),
                        phi.target.grades(images)):
        if gn <= out_bound:
            acc[n] = acc[n] + c if n in acc else c
    return FormalSeries._trusted(phi.target, out_bound, acc)


def pullback_bound(phi: MonoidMorphism, target_bound: int) -> int:
    """Exact bound of a pull-back: the minimum over the nonzero images of
    D * weight_i // grade(image_i), or D if there are none; an element of
    grade up to it maps within the target bound D."""
    grade, d = phi.target.grade, target_bound
    return min((d * w // g for g, w in
                zip(map(grade, phi.generator_images), phi.source.weights)
                if g), default=d)


def pullback(phi: MonoidMorphism, g: FormalSeries) -> FormalSeries:
    """Precompose: (pullback g)(m) = g(phi(m))."""
    if phi.target != g.monoid:
        raise MonoidMismatchError("series not over the target of the morphism")
    bound = pullback_bound(phi, g.bound)
    acc = {}
    for m in phi.source.enumerate_up_to(bound):
        # grade(phi(m)) <= g.bound for every m up to the pull-back bound
        c = g.coefficients.get(phi.apply(m), 0)
        if c:
            acc[m] = c
    return FormalSeries._trusted(phi.source, bound, acc)


def first_difference(f: FormalSeries, g: FormalSeries, degree: int):
    """First graded-lex element of grade <= degree where the coefficients
    differ, as (element, f's value, g's value); or None.

    Equal tables give None after one dict comparison.  Otherwise only
    the keys whose values differ are collected, by lookups in both
    tables, and graded in one pass; the first of those of grade <= degree
    in `graded_lex` order is the answer.
    Series over different monoids raise MonoidMismatchError: equal
    exponent tuples over different bases are not the same coefficient.
    A degree above either bound raises TruncationError: a coefficient
    beyond a bound is not known.
    """
    _check_monoids(f, g)
    if degree > f.bound or degree > g.bound:
        raise TruncationError(
            f"degree {degree} exceeds a series bound "
            f"({f.bound}, {g.bound})")
    fc, gc = f.coefficients, g.coefficients
    if fc == gc:
        return None
    # stored coefficients are nonzero, so a key missing from one table
    # always differs
    keys = [m for m, a in fc.items() if gc.get(m, 0) != a]
    keys += [m for m in gc if m not in fc]
    keys = list(compress(keys, map(degree.__ge__, f.monoid.grades(keys))))
    if not keys:
        return None
    m = f.monoid.graded_lex(keys)[0]
    return m, fc.get(m, 0), gc.get(m, 0)


def describe_difference(diff) -> str:
    """The line for a first difference (element, a's value, b's value)."""
    m, a, b = diff
    return f"first difference at t^{m}: {a} vs {b}"


def _too_many_terms(degree: int) -> TruncationError:
    return TruncationError(f"expansion to degree {degree} needs more than "
                           f"{MAX_EXPANSION_TERMS} terms")


def _simplex_exceeds(n: int, r: int, cap: int) -> bool:
    """C(n + r, r) > cap, for n >= 0: the number of elements of total
    exponent <= n in r generators.  The running product C(n + i, i) does
    not fall as i grows, so it stops once it passes the cap and never
    builds a huge binomial."""
    c = 1
    for i in range(1, r + 1):
        c = c * (n + i) // i
        if c > cap:
            return True
    return False


def _divide(monoid: GradedMonoid, table: dict, m: Element, e: int,
            degree: int) -> dict:
    """table / (1 - t^m)^e up to the degree, for any integer e: a negative
    e multiplies by the polynomial (1 - t^m)^-e.

    The terms are grouped by the ray x + N*m they lie on, keyed by its
    base (x minus the largest multiple k of m that keeps every exponent
    >= 0, with k and the base computed by column), and each ray is one
    dense list of its values up to the degree.  Dividing by (1 - t^m) is
    a running sum, so when 0 < e <= the ray's nonzero count `accumulate`
    runs over it e times.  Any other ray is convolved with the kernel of
    1/(1 - t)^e, b_j = b_(j-1) * (j - 1 + e) // j: C(j + e - 1, e - 1)
    for e > 0, and for e < 0 (-1)^j C(-e, j), zero past j = -e.  So a ray
    costs about its length times min(|e|, its nonzero count).  The kernel
    is built once per call, and shorter rays use a prefix of it.  Rays
    are disjoint, so their lengths sum to at most the number of elements
    of grade <= degree; once that sum passes MAX_EXPANSION_TERMS,
    TruncationError is raised before the ray that passes it is allocated.
    For e < 0 the kernel's C(-e, j) have up to -e bits, so each term
    counts as 1 + (-e) // 64 terms, about the 64-bit words of its digits.
    """
    if not table:
        return {}  # zero stays zero, and an empty table has no columns
    gm = monoid.grade(m)
    keys = list(table)
    columns = list(zip(*keys))
    steps = [list(map(floordiv, columns[i], repeat(x)))
             for i, x in enumerate(m) if x]
    ks = steps[0] if len(steps) == 1 else list(map(min, *steps))
    bases = zip(*[map(sub, col, map(mul, ks, repeat(x))) if x
                  else col for col, x in zip(columns, m)])
    rays = {}
    total = 0
    words = 1 + max(-e, 0) // 64
    for y, k, c, g in zip(bases, ks, table.values(), monoid.grades(keys)):
        ray = rays.get(y)
        if ray is None:
            # grade(y) = g - k * gm, so the ray has this many steps
            n = (degree - g) // gm + k + 1
            total += n * words
            if total > MAX_EXPANSION_TERMS:
                raise _too_many_terms(degree)
            ray = rays[y] = [0] * n
        ray[k] = c
    out = {}
    kernel = [1]
    for y, ray in rays.items():
        n = len(ray)
        if 0 < e <= n - ray.count(0):
            for _ in range(e):
                ray = list(accumulate(ray))
        else:
            for j in range(len(kernel), n if e > 0 else min(n, 1 - e)):
                kernel.append(kernel[-1] * (j - 1 + e) // j)
            conv = [0] * n
            for i in compress(range(n), ray):
                s = slice(i, i + len(kernel))
                conv[s] = map(add, conv[s], map(mul, kernel, repeat(ray[i])))
            ray = conv
        points = zip(*[range(a, a + x * len(ray), x) if x
                       else repeat(a) for a, x in zip(y, m)])
        out.update(filter(itemgetter(1), zip(points, ray)))
    return out


class RationalSeries(Record):
    """Closed form: polynomial numerator over a product of (1 - t^m)^e,
    each stored sorted by element: a canonical order, not a shown one."""

    __slots__ = _fields = ("monoid", "numerator", "denominator")
    monoid: GradedMonoid
    numerator: tuple[tuple[Element, int], ...]
    denominator: tuple[tuple[Element, int], ...]

    def __post_init__(self):
        num = {}
        for m, c in self.numerator:
            m = self.monoid.validate(m)
            if type(c) is not int:
                raise TypeError(f"numerator value {c!r} is not an int")
            num[m] = num.get(m, 0) + c
        num = tuple(sorted((m, c) for m, c in num.items() if c))
        den = {}
        for m, e in self.denominator:
            m = self.monoid.validate(m)
            if self.monoid.grade(m) == 0:
                raise ValueError("denominator element has grade 0")
            if type(e) is not int:
                raise TypeError(f"denominator multiplicity {e!r} is not "
                                "an int")
            if e < 1:
                raise ValueError("denominator multiplicity must be >= 1")
            den[m] = den.get(m, 0) + e
        den = tuple(sorted(den.items()))
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def expand(self, degree: int) -> FormalSeries:
        """Truncated expansion, exact to the degree: the numerator up to
        the degree, divided by each factor in turn with `_divide`, the
        highest-grade factor first.

        The factors commute, so any order gives the same series.  A factor
        (1 - t^m)^e of grade g stretches each ray of the table by about
        degree / g terms, so the table it leaves grows least when g is
        large, and the grade-1 factors, divided by last, walk the
        smallest tables.  The factors are divided in reversed
        `graded_lex` order, which is falling grade.

        A form with numerator 1 and every generator as a denominator
        factor is refused before any division when C(degree // w + r, r),
        for rank r and largest weight w, passes MAX_EXPANSION_TERMS.
        `_divide` would refuse it later: with numerator 1 no coefficient
        of a partial product is negative, so nothing cancels, and the
        table before the last factor, a generator of least weight (least
        grade, so first in graded-lex order), holds every element of
        grade <= degree built from the other generators.  Those are its
        ray bases, so its ray total is the number of elements of grade
        <= degree: at least C(degree // w + r, r), and equal to it when
        every weight is 1.  Rays are disjoint and within the degree, so
        no earlier factor's total is larger.  Other forms keep the
        per-factor check alone."""
        _check_bound(degree)
        monoid = self.monoid
        # the generators are the elements of exponent sum 1, and the
        # denominator's elements are distinct: all generators are factors
        # when rank of its elements have sum 1
        generators = sum(sum(m) == 1 for m, _ in self.denominator)
        if (self.numerator == ((monoid.zero(), 1),)
                and generators == monoid.rank
                and _simplex_exceeds(degree // max(monoid.weights, default=1),
                                     monoid.rank, MAX_EXPANSION_TERMS)):
            raise _too_many_terms(degree)
        grades = monoid.grades([m for m, _ in self.numerator])
        out = {m: c for (m, c), g in zip(self.numerator, grades)
               if g <= degree}
        den = dict(self.denominator)
        for m in reversed(monoid.graded_lex(den)):
            out = _divide(monoid, out, m, den[m], degree)
        return FormalSeries._trusted(monoid, degree, out)

    def multiply(self, other: "RationalSeries") -> "RationalSeries":
        _check_monoids(self, other)
        num = []
        add = self.monoid.add
        for m1, c1 in self.numerator:
            for m2, c2 in other.numerator:
                num.append((add(m1, m2), c1 * c2))
        return RationalSeries(self.monoid, tuple(num),
                              self.denominator + other.denominator)

    def pushforward(self, phi: MonoidMorphism) -> "RationalSeries":
        """Push-forward along phi as a rational form, valid at every degree.

        Push-forward is a ring homomorphism, and for finite fibers it sends
        1/(1 - t^m) to 1/(1 - t^phi(m)); so N / prod (1 - t^m)^e goes to
        phi(N) / prod (1 - t^phi(m))^e.
        """
        _check_pushforward(phi, self)
        return RationalSeries(
            phi.target,
            tuple((phi.apply(m), c) for m, c in self.numerator),
            tuple((phi.apply(m), e) for m, e in self.denominator))


def rational_difference_grade(a: RationalSeries, b: RationalSeries):
    """The lowest grade at which the expansions of two rational series
    differ, at any degree; or None when they are equal.

    After the common denominator factors (same m, the smaller e) cancel,
    a - b = (N_a R_b - N_b R_a) / (C R_a R_b), where R_a and R_b are what
    remains of each denominator.  So a == b exactly when that numerator is
    the zero polynomial.  Otherwise 1/(C R_a R_b) = 1 + higher grades, so
    the expansions first differ at the numerator's lowest grade.

    N_a R_b and N_b R_a are built by `_divide` at -e per remaining factor
    (m, e), to the top grade they reach: the highest numerator grade plus
    the sum of e * grade(m).  One that passes MAX_EXPANSION_TERMS, its
    terms weighted by their digits, raises TruncationError naming the
    identity check and the factor.
    """
    _check_monoids(a, b)
    monoid = a.monoid

    def cross(x, y):  # N_x R_y
        den_x = dict(x.denominator)
        rest = [(m, e - den_x.get(m, 0)) for m, e in y.denominator
                if e > den_x.get(m, 0)]
        table = dict(x.numerator)
        degree = max(monoid.grades(table), default=0) + sum(
            e * monoid.grade(m) for m, e in rest)
        for m, e in rest:
            try:
                table = _divide(monoid, table, m, -e, degree)
            except TruncationError:
                raise TruncationError(
                    f"identity check of two rational series: multiplying "
                    f"by the factor (1 - t^m)^e with m = {m}, e = {e} "
                    f"needs more than {MAX_EXPANSION_TERMS} terms, each "
                    f"counted as 1 + e // 64 for its digits") from None
        return table

    left, right = cross(a, b), cross(b, a)
    keys = [m for m in left.keys() | right.keys()
            if left.get(m, 0) != right.get(m, 0)]
    return min(monoid.grades(keys), default=None)


def first_rational_difference(a: RationalSeries, b: RationalSeries):
    """First graded-lex element, at any degree, where the expansions of two
    rational series differ, as (element, a's value, b's value); or None.
    The expansions to `rational_difference_grade` give it."""
    g = rational_difference_grade(a, b)
    return None if g is None else first_difference(a.expand(g), b.expand(g), g)


# the one rule for integer text, in a file, a descriptor or an option; `int`
# alone would also take "1_000", " 7 ", "+7" and non-ASCII digits
INTEGER = "-?[0-9]+"
_is_integer = re.compile(INTEGER).fullmatch


def int_from_json(v) -> int:
    """An integer field of a JSON document: an int (not a bool or a float)
    or a string of the `INTEGER` rule."""
    if type(v) is int:
        return v
    if type(v) is str and _is_integer(v):
        return int(v)
    raise TypeError(f"expected an integer, got {v!r}")


def list_from_json(v) -> list:
    """An array field of a JSON document."""
    if type(v) is not list:
        raise TypeError(f"expected an array, got {v!r}")
    return v


def _table_from_json(data: dict, name: str, field: str) -> dict:
    """The array data[name] of {"exponents": [...], field: value} entries,
    as a dict from exponent tuples to integers, read entry by entry.
    An array that names one element twice is refused: keeping either
    value, or merging them, would read a different series than the
    file's author wrote."""
    entries = list_from_json(data[name])
    table = {tuple(t["exponents"]): int_from_json(t[field]) for t in entries}
    if len(table) != len(entries):
        raise ValueError(f"repeated exponents in {name}")
    return table


_DENOMINATOR = ',\n  "denominator": '  # between a rational form's arrays
_FORMAT_ERRORS = (KeyError, TypeError, AttributeError, ValueError,
                  RecursionError)  # what `loads` makes one ValueError
# keeps the characters of a number and the comma; any other ASCII
# character becomes a space
_COMMAS = {c: " " for c in range(128) if chr(c) not in "-0123456789,"}


def _head(monoid: GradedMonoid, bound: int | None) -> str:
    """The text of a document up to its first entry array: the monoid,
    then a series' bound and `"coefficients": `, or, for bound None, a
    rational series' `"numerator": `.  Labels go through `json.dumps`."""
    generators = ",\n".join(
        '      {\n        "label": %s,\n        "weight": %d\n      }'
        % (json.dumps(lab), w) for lab, w in monoid.generators)
    return '{\n  "monoid": {\n    "generators": %s\n  },\n  %s' % (
        "[\n" + generators + "\n    ]" if generators else "[]",
        '"numerator": ' if bound is None
        else '"bound": %d,\n  "coefficients": ' % bound)


def _entry(rank: int, field: str, value: str) -> str:
    """The template of an entry: one `%d` per exponent, then `value`."""
    exponents = ("[\n        " + ",\n        ".join(["%d"] * rank)
                 + "\n      ]" if rank else "[]")
    return (f'    {{\n      "exponents": {exponents},\n      "{field}": '
            f'{value}\n    }}')


def _array(entries: list) -> str:
    """An entry array, from the texts of its entries."""
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def _entries(monoid: GradedMonoid, table: dict, field: str,
             value: str) -> str:
    """The text of an entry array, by one `%` of the array of n `_entry`
    templates: its numbers are laid out flat in `graded_lex` order, one
    column at a time, each entry's exponents then its value.  The value
    is '"%d"' (a string) or '%d'; "%d" is str(c) as no value or exponent
    is a bool (constructors check)."""
    keys = monoid.graded_lex(table)
    step = monoid.rank + 1
    flat = [0] * (len(keys) * step)
    for i in range(monoid.rank):
        flat[i::step] = map(itemgetter(i), keys)
    flat[monoid.rank::step] = map(table.__getitem__, keys)
    entry = _entry(monoid.rank, field, value)
    return _array([entry] * len(keys)) % tuple(flat)


def _layout_table(text: str, rank: int, field: str, value: str):
    """The table of an entry array in the layout `_entries` writes, or
    None.  The text must start and end as the template does and,
    without its digits and minus signs, be the array of n empty entries,
    n its count of '"exponents"'.  Then one `translate` turns every other
    character into a space, and one `json.loads` reads every number: for
    rank >= 1 each separator between two numbers holds one comma, and a
    digit out of place stands apart from its neighbours by a space, which
    JSON refuses.  A rank-0 array of two entries or more names () twice;
    its separators hold two commas, so it is refused here too."""
    if text == "[]":
        return {}
    n = text.count('"exponents"')
    entry = _entry(rank, field, value)
    first, *_, last = _array([entry]).split("%d")
    slots = str.maketrans("", "", "-0123456789")
    if (not text.startswith(first) or not text.endswith(last)
            or text.translate(slots) != _array([entry.replace("%d", "")] * n)):
        return None
    flat = json.loads("[" + text[len(first):len(text) - len(last)].translate(
        _COMMAS) + "]")
    values = flat[rank::rank + 1]
    del flat[rank::rank + 1]
    table = dict(zip(zip(*[iter(flat)] * rank) if rank else [()] * n,
                     values))
    if (len(flat) + len(values) != n * (rank + 1) or len(table) != n
            or min(flat, default=0) < 0):
        return None
    return table


def _read_layout(text: str):
    """The series or rational series of a text exactly as `dumps` writes
    it, or None.  The head, up to the first entry array, must be what
    `_head` writes back from its `json.loads`; each array is read by
    `_layout_table`; grades are checked here, not by `_trusted`."""
    monoid_end = text.find("\n  },\n")
    start = text.find("[", monoid_end)
    if monoid_end < 0 or start < 0 or not text.endswith("\n}\n"):
        return None
    data = json.loads(text[:start] + "[]}")
    monoid = GradedMonoid(tuple((g["label"], g["weight"])
                                for g in data["monoid"]["generators"]))
    bound, rank = data.get("bound"), monoid.rank
    if _head(monoid, bound) != text[:start]:
        return None
    if bound is not None:
        table = _layout_table(text[start:-3], rank, "value", '"%d"')
        if table is None or max(monoid.grades(table), default=0) > bound:
            return None
        return FormalSeries._trusted(monoid, bound, table)
    mid = text.find(_DENOMINATOR, start)
    tables = [_layout_table(text[start:mid], rank, "value", '"%d"'),
              _layout_table(text[mid + len(_DENOMINATOR):-3], rank,
                            "multiplicity", "%d")]
    if mid < 0 or None in tables:
        return None
    return RationalSeries(monoid, *(tuple(t.items()) for t in tables))


def dumps(obj) -> str:
    """Byte-stable JSON text for a series or rational series: the text of
    `json.dumps(payload, indent=2, ensure_ascii=True)` and a newline.  Both
    documents hold the monoid, {"generators": [{"label", "weight"}, ...]}.
    A series adds its bound and its coefficient entries, a rational series
    its numerator entries, each {"exponents": [...], "value": "<int>"},
    and its denominator factors, each {"exponents": [...],
    "multiplicity": <int>}.  The layout is a contract, pinned by
    tests against `json.dumps`, but the text is written from templates
    that `loads` reads back: `_head`, and `_entries` per entry array,
    one `%` over all the array's numbers.

    Python limits int -> str conversion to 4300 digits by default, and
    `dumps` raises ValueError on a larger number.  `cli.main` lifts the
    limit for each command and restores it afterwards; a library caller
    lifts it itself, with `sys.set_int_max_str_digits(0)`."""
    if isinstance(obj, FormalSeries):
        parts = [_head(obj.monoid, obj.bound),
                 _entries(obj.monoid, obj.coefficients, "value", '"%d"')]
    elif isinstance(obj, RationalSeries):
        parts = [_head(obj.monoid, None),
                 _entries(obj.monoid, dict(obj.numerator), "value", '"%d"'),
                 _DENOMINATOR,
                 _entries(obj.monoid, dict(obj.denominator), "multiplicity",
                          "%d")]
    else:
        raise TypeError(type(obj).__name__)
    return "".join([*parts, "\n}\n"])


def loads(text: str):
    """Parse `dumps` output; any text that is not a valid series or
    rational series, as JSON or by the schema, is one ValueError.

    Integers are JSON ints or strings of the `INTEGER` rule, every value
    is one, and no entry array may name the same exponents twice.  A text
    in the layout `dumps` writes is read by that layout (`_read_layout`),
    without one JSON object per entry; any other text, and one that fails
    a check there, is parsed whole and read entry by entry, which raises
    the error of its first bad entry, so an error's text does not depend
    on the reader.  A number of more than 4300 digits is a ValueError
    unless the caller has lifted Python's limit on str -> int conversion,
    as `cli.main` does for each command (`sys.set_int_max_str_digits(0)`).
    """
    with suppress(*_FORMAT_ERRORS):
        if (obj := _read_layout(text)) is not None:
            return obj
    try:
        data = json.loads(text)
        monoid = GradedMonoid(tuple(
            (g["label"], int_from_json(g["weight"]))
            for g in list_from_json(data["monoid"]["generators"])))
        if "coefficients" in data:
            return FormalSeries(
                monoid, int_from_json(data["bound"]),
                _table_from_json(data, "coefficients", "value"))
        return RationalSeries(
            monoid,
            tuple(_table_from_json(data, "numerator", "value").items()),
            tuple(_table_from_json(data, "denominator",
                                   "multiplicity").items()))
    except _FORMAT_ERRORS as exc:
        raise ValueError(f"malformed series file: {exc!r}") from None
