"""Truncated formal series over graded monoids, and exact rational forms.

A FormalSeries stores a sparse table of integer coefficients valid up to
an explicit grade bound; every operation computes the exact bound of its
output and errors rather than returning silently invalid coefficients.
A RationalSeries expands by `_divide`, one denominator factor at a time.

Every FormalSeries satisfies one invariant: each key is a tuple and a
valid element of its monoid (one `int`, not a `bool`, >= 0 per
generator); the bound is an int >= 0 and no key has a grade above it;
every stored coefficient is a nonzero `int`, not a `bool`.  Keys and
values are checked at the boundary, where they come from outside the
engine: the public constructor, and so `loads`, scans them and keeps its
own copy of the caller's table.  The operations of this module trust
the invariant of their operands, and build their results with
`FormalSeries._trusted`, which skips the scans and keeps the table it is
handed; it still checks the bound and drops zeros.  `expand` returns
such a series.  `RationalSeries._expansion` stops one step short: its
`_Terms` record holds exponent columns, values and the graded-lex code
of each term, which the last division lays out one range per ray, and
`dumps` and the CLI's text writer sort the codes, building no table.

`dumps` and `loads` own the series-file format, and no other code knows
how a series or a rational series is spelled in a file.  Both work from
the templates of `_head` and `_entry`, and neither holds the text of a
whole entry array beside the file's text: `dumps` formats each array
in blocks of `BLOCK` entries and joins them with the file's other parts
once; `loads` reads a file in that exact layout a block of about
`_READ_BLOCK` characters at a time, by one `json.loads` of the block's
numbers, and every other valid file entry by entry.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from itertools import accumulate, chain, compress, repeat
from operator import add, floordiv, indexOf, mul, sub

from .monoid import (Element, GradedMonoid, MonoidMismatchError,
                     MonoidMorphism, Record)


# the most terms `_divide` or `_multiply` may allocate for one denominator
# factor; a larger expansion or product raises TruncationError before it does
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


def _columns_of(table: dict) -> tuple[list, list]:
    """A table as its exponent columns and its values."""
    return list(zip(*table)), list(table.values())


class _Terms(Record):
    """An expansion as `_divide` leaves it: one exponent column per
    generator, the nonzero values, and each term's graded-lex code in a
    base above every exponent.  `expand` builds its table from it; `dumps`,
    the CLI's text format and `_value_at` read it without one."""

    __slots__ = _fields = ("monoid", "bound", "columns", "values", "codes")
    monoid: GradedMonoid
    bound: int
    columns: list
    values: list
    codes: list

    def keys(self):
        """The terms' exponent tuples, in column order (rank 0: ())."""
        return (zip(*self.columns) if self.columns
                else repeat((), len(self.values)))


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
    """Precompose: (pullback g)(m) = g(phi(m)).  The source elements up
    to the bound are built one generator at a time, as `enumerate_up_to`
    builds them, each with its image: a copy of generator i adds image_i.
    The table's keys are in that build order, not graded-lex."""
    if phi.target != g.monoid:
        raise MonoidMismatchError("series not over the target of the morphism")
    bound = pullback_bound(phi, g.bound)
    level = [((), phi.target.zero(), bound)]
    for w, img in zip(phi.source.weights, phi.generator_images):
        grown = []
        for prefix, image, budget in level:
            grown.append((prefix + (0,), image, budget))
            for e in range(1, budget // w + 1):
                image = tuple(map(add, image, img))
                grown.append((prefix + (e,), image, budget - e * w))
        level = grown
    # grade(phi(m)) <= g.bound for every m up to the pull-back bound
    gc = g.coefficients
    acc = {m: c for m, image, _ in level if (c := gc.get(image))}
    return FormalSeries._trusted(phi.source, bound, acc)


def first_difference(f: FormalSeries, g: FormalSeries, degree: int):
    """First graded-lex element of grade <= degree where the coefficients
    differ, as (element, f's value, g's value); or None.

    Equal tables give None after one dict comparison.  Otherwise the keys
    whose values differ are graded in one pass, and the first of grade
    <= degree in `graded_lex` order is the answer.
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


def _divide(monoid: GradedMonoid, columns: list, values: list, m: Element,
            e: int, degree: int, base: int | None = None):
    """table / (1 - t^m)^e up to the degree, e >= 1; a table comes and goes
    as exponent columns, one list per generator, and its nonzero values.
    Returns (columns, values, codes): with a base above every exponent,
    codes holds the `graded_lex_codes` of the terms in that base, else it
    is None.

    The terms are grouped by the ray x + N*m they lie on, keyed by its
    base (x minus the largest multiple k of m that keeps every exponent
    >= 0), computed by column.  Each ray is one dense list of its values
    up to the degree.  Dividing by (1 - t^m) is a running sum, so when
    e <= the ray's nonzero count `accumulate` runs over it e times; any
    other ray is convolved with the kernel C(j + e - 1, e - 1) of
    1/(1 - t)^e, built once per call.  So a ray costs about its length
    times min(e, its nonzero count).  Rays are disjoint, so their lengths
    sum to at most the number of elements of grade <= degree; the ray
    that takes that sum past MAX_EXPANSION_TERMS raises TruncationError
    before it is allocated.  A code is linear in the exponents, so a ray
    of n terms from base y has the codes range(code(y), code(y) + n *
    code(m), code(m)): one code per ray is computed, not one per term.
    Zeros are dropped once, at the end, from the codes too."""
    if not values:
        return columns, values, [] if base else None  # zero stays zero
    gm = monoid.grade(m)
    steps = [list(map(floordiv, col, repeat(x)))
             for col, x in zip(columns, m) if x]
    ks = steps[0] if len(steps) == 1 else list(map(min, *steps))
    bases = zip(*[map(sub, col, map(mul, ks, repeat(x))) if x
                  else col for col, x in zip(columns, m)])
    grades = repeat(0)
    for col, w in zip(columns, monoid.weights):
        grades = map(add, grades, col if w == 1 else map(mul, col, repeat(w)))
    rays, total = {}, 0
    for y, k, c, g in zip(bases, ks, values, grades):
        ray = rays.get(y)
        if ray is None:
            # grade(y) = g - k * gm, so the ray has this many steps
            n = (degree - g) // gm + k + 1
            total += n
            if total > MAX_EXPANSION_TERMS:
                raise _too_many_terms(degree)
            ray = rays[y] = [0] * n
        ray[k] = c
    columns, values, kernel = [[] for _ in m], [], [1]
    for y, ray in rays.items():
        n = len(ray)
        if e <= n - ray.count(0):
            for _ in range(e):
                ray = list(accumulate(ray))
        else:
            for j in range(len(kernel), n):
                kernel.append(kernel[-1] * (j - 1 + e) // j)
            conv = [0] * n
            for i in compress(range(n), ray):
                s = slice(i, i + len(kernel))
                conv[s] = map(add, conv[s], map(mul, kernel, repeat(ray[i])))
            ray = conv
        for col, a, x in zip(columns, y, m):
            col.extend(range(a, a + x * n, x) if x else repeat(a, n))
        values.extend(ray)
    codes = None
    if base:
        [step] = monoid.graded_lex_codes([[x] for x in m], 1, base)
        starts = monoid.graded_lex_codes(list(zip(*rays)), len(rays), base)
        codes = list(chain.from_iterable(
            range(c, c + len(ray) * step, step)
            for c, ray in zip(starts, rays.values())))
    if 0 in values:
        columns = [list(compress(col, values)) for col in columns]
        if base:
            codes = list(compress(codes, values))
        values = list(filter(None, values))
    return columns, values, codes


def _multiply(monoid: GradedMonoid, table: dict, m: Element, e: int,
              bound: int) -> dict:
    """table * (1 - t^m)^e exactly up to the bound, e >= 1: pass j adds
    c * b_j at x + j*m for each term c t^x of grade <= bound - j*grade(m),
    b_j = (-1)^j C(e, j); zeros go at the end.  Each term is charged as it
    is made, at 1 + b_j.bit_length() // 64 words, and refused past the cap."""
    refused = TruncationError(
        f"identity check of two rational series: multiplying by the factor "
        f"(1 - t^m)^e with m = {m}, e = {e} needs more than "
        f"{MAX_EXPANSION_TERMS} terms, each counted as 1 + b.bit_length() "
        f"// 64 for the digits of its binomial b")
    (columns, values), out, b = _columns_of(table), {}, 1
    gm, grades, words = monoid.grade(m), monoid.grades(list(table)), 0
    for j in range(min(e, bound // gm) + 1):
        if not all(keep := list(map((bound - j * gm).__ge__, grades))):
            *columns, values, grades = (list(compress(col, keep)) for col
                                        in (*columns, values, grades))
        w = 1 + b.bit_length() // 64
        keys = zip(*[map(add, col, repeat(j * x)) if x else col
                     for col, x in zip(columns, m)])
        for y, v in zip(keys, map(mul, values, repeat(b))):
            if y in out:
                out[y] += v
            elif (words := words + w) <= MAX_EXPANSION_TERMS:
                out[y] = v
            else:
                raise refused
        b = -b * (e - j) // (j + 1)
    return {y: v for y, v in out.items() if v}


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

    def _expansion(self, degree: int) -> _Terms:
        """The terms of the expansion, exact to the degree: the numerator
        up to the degree, as exponent columns, divided by each factor in
        turn with `_divide`.  The last division also returns the terms'
        `graded_lex_codes` in base degree + 1, which is above every
        exponent of a term of grade <= degree (the numerator's are coded
        directly when there is no factor).  `expand` builds the record's
        table; the CLI writes the record in the order of its codes, and
        `first_rational_difference` reads one value off it, with no table.
        The factors commute, and one of grade g stretches each ray by about
        degree / g terms, so they go in falling grade (reversed `graded_lex`
        order): the grade-1 factors, divided last, meet the smallest tables.

        A form with numerator 1 and every generator a denominator factor
        is refused before any division when C(degree // w + r, r), for
        rank r and largest weight w, passes MAX_EXPANSION_TERMS: nothing
        cancels, so the last factor, a generator of least weight, meets
        every element of grade <= degree as a ray base or a ray point, and
        its ray total is at least that binomial (equal when all weights
        are 1).  Other forms keep the per-factor check alone."""
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
        num = {m: c for (m, c), g in zip(self.numerator, grades)
               if g <= degree}
        columns, values = _columns_of(num)
        den = dict(self.denominator)
        base = degree + 1  # above every exponent of a grade <= degree
        factors = monoid.graded_lex(den)[::-1]
        codes = (None if factors
                 else monoid.graded_lex_codes(columns, len(values), base))
        for n, m in enumerate(factors, 1):  # only the last division codes
            columns, values, codes = _divide(
                monoid, columns, values, m, den[m], degree,
                base if n == len(factors) else None)
        return _Terms(monoid, degree, columns, values, codes)

    def expand(self, degree: int) -> FormalSeries:
        """Truncated expansion, exact to the degree: the series of the
        table of `_expansion(degree)`, keyed in its column order."""
        terms = self._expansion(degree)
        return FormalSeries._trusted(self.monoid, degree,
                                     dict(zip(terms.keys(), terms.values)))

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


def _value_at(terms: _Terms, m: Element) -> int:
    """An expansion's coefficient at a valid m of grade <= its bound, read
    off the exponent columns of its `_Terms` record, with no table built."""
    try:
        return terms.values[indexOf(terms.keys(), m)]
    except ValueError:  # m is not a key: its coefficient is 0
        return 0


def first_rational_difference(a: RationalSeries, b: RationalSeries,
                              degree: int | None = None):
    """First graded-lex element, up to the degree (at any degree when it
    is None), where the expansions of two rational series differ, as
    (element, a's value, b's value); or None when they are equal there.

    With the common denominator factors cancelled, a - b = D / (C R_a R_b)
    for D = N_a R_b - N_b R_a, and 1/(C R_a R_b) is 1 plus higher grades,
    so the answer is D's first element m in `graded_lex` order, and
    a(m) - b(m) = D(m).  Each factor only raises grades, so D built by
    `_multiply` up to a bound is exact there: the bound starts at 1 and
    doubles until D has a term or it reaches the degree, or the top grade
    of N_a R_b and N_b R_a.  a(m) is read off the columns of a's expansion
    to m's grade, without its table, or b(m) off b's when a's is refused;
    a TruncationError names the factor `_multiply` refused, or the grade
    when both expansions are.
    """
    _check_monoids(a, b)
    monoid = a.monoid

    def factors(x, y):  # the factors of R_y that R_x lacks
        return [(m, d) for m, e in y.denominator
                if (d := e - dict(x.denominator).get(m, 0)) > 0]

    def cross(x, y, bound):  # N_x R_y, exact up to the bound
        table = {m: c for m, c in x.numerator if monoid.grade(m) <= bound}
        for m, e in factors(x, y):
            table = _multiply(monoid, table, m, e, bound)
        return table

    def difference(bound):  # D up to the bound, its nonzero values
        left, right = cross(a, b, bound), cross(b, a, bound)
        return {m: d for m in left.keys() | right.keys()
                if (d := left.get(m, 0) - right.get(m, 0))}

    top = max(max(map(monoid.grade, dict(x.numerator)), default=0)
              + sum(e * monoid.grade(m) for m, e in factors(x, y))
              for x, y in ((a, b), (b, a)))
    bound = min(1, stop := top if degree is None else min(degree, top))
    while not (delta := difference(bound)) and bound < stop:
        bound = min(2 * bound, stop)
    if not delta:
        return None
    m = monoid.graded_lex(delta)[0]
    for x, shift in ((a, 0), (b, delta[m])):
        with suppress(TruncationError):
            value = _value_at(x._expansion(monoid.grade(m)), m) + shift
            return m, value, value - delta[m]
    within = "" if degree is None else f", within degree {degree},"
    raise TruncationError(
        f"the first difference lies at grade {monoid.grade(m)}{within} and "
        f"expanding to it needs more than {MAX_EXPANSION_TERMS} terms")


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


_FORMAT_ERRORS = (KeyError, TypeError, AttributeError, ValueError,
                  RecursionError)  # what `loads` makes one ValueError
# keeps the characters of a number and the comma; any other ASCII
# character becomes a space
_COMMAS = {c: " " for c in range(128) if chr(c) not in "-0123456789,"}
# drops the characters of a number but the comma
_DIGITS = str.maketrans("", "", "-0123456789")
# the entries of one block of `dumps`' text
BLOCK = 1024
# the characters after which `_read_layout` cuts an array, at the end of
# the next entry
_READ_BLOCK = 1 << 16


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


def _graded_terms(f: FormalSeries | _Terms) -> tuple[list, list, list[int]]:
    """The exponent columns, values, and indices in graded-lex order of
    the terms of a series or an expansion's `_Terms`: the record's own
    columns, ordered by the sort of its codes, or the series' table, split
    by `_columns_of` and ordered by `graded_lex_order`.  The series
    writers, `dumps` and the CLI's text format, read terms here."""
    if isinstance(f, _Terms):
        return f.columns, f.values, sorted(range(len(f.codes)),
                                           key=f.codes.__getitem__)
    columns, values = _columns_of(f.coefficients)
    return columns, values, f.monoid.graded_lex_order(columns, len(values))


def _entries(monoid: GradedMonoid, columns, values: list, field: str,
             value: str, order: list[int] | None = None):
    """The text of an entry array of exponent columns and values, in
    chunks: "[\n", then each block of up to `BLOCK` entries in graded-lex
    order, by one `%` of its `_entry` templates joined by ",\n", its
    numbers laid out flat by index, each entry's exponents then its value;
    ",\n" between two blocks, and "\n  ]" after the last.  The order is
    the given permutation of the indices (`_graded_terms`' of a series),
    or else `graded_lex_order`.  An empty array is "[]".  The value is
    '"%d"' (a string) or '%d'; "%d" is str(c) as no value or exponent is
    a bool (constructors check)."""
    n = len(values)
    if not n:
        yield "[]"
        return
    if order is None:
        order = monoid.graded_lex_order(columns, n)
    step = monoid.rank + 1
    entry, k = _entry(monoid.rank, field, value), min(n, BLOCK)
    template, sep = ",\n".join([entry] * k), "[\n"
    for s in range(0, n, BLOCK):
        block = order[s:s + BLOCK]
        if len(block) < k:  # the last block, shorter than the others
            template = ",\n".join([entry] * len(block))
        flat = [0] * (len(block) * step)
        for i, col in enumerate([*columns, values]):  # values at i = rank
            flat[i::step] = map(col.__getitem__, block)
        yield sep
        yield template % tuple(flat)
        sep = ",\n"
    yield "\n  ]"


def _read_layout(text: str):
    """The series of a text exactly as `dumps` writes it, of rank >= 1 and
    with at least one entry, or None; a rational form, a rank-0 series
    and an empty array are None too.  The head, up to the entry array,
    must be what `_head` writes back from its `json.loads`.  The array is
    read in blocks: each is cut at the first end of an entry and its
    comma, "\n    },", found at least `_READ_BLOCK` characters into it,
    just before the comma, and the next block starts after the comma; the
    last block runs to the end of the array.  A block without its digits
    and minus signs must be its k empty entries, k >= 1 its count of
    '"exponents"', joined by ",\n", after "[\n" for the first block or
    "\n" for any other, and before "\n  ]" for the last.  Then one
    `translate` turns every other character of the block into a space,
    and one `json.loads` reads its numbers: each separator between two
    numbers holds one comma, and a digit out of place stands apart from
    its neighbours by a space, which JSON refuses.  Grades are checked
    here, not by `_trusted`."""
    monoid_end = text.find("\n  },\n")
    start = text.find("[", monoid_end)
    if monoid_end < 0 or start < 0 or not text.endswith("\n}\n"):
        return None
    data = json.loads(text[:start] + "[]}")
    monoid = GradedMonoid(tuple((g["label"], g["weight"])
                                for g in data["monoid"]["generators"]))
    bound, rank = data.get("bound"), monoid.rank
    if bound is None or rank == 0 or _head(monoid, bound) != text[:start]:
        return None
    empty = _entry(rank, "value", '"%d"').replace("%d", "")
    end, step, table, n = len(text) - 3, rank + 1, {}, 0
    pos, prefix = start, "[\n"
    while True:
        cut = text.find("\n    },", pos + _READ_BLOCK, end)
        last = cut < 0
        cut = end if last else cut + len("\n    }")
        block = text[pos:cut]
        k = block.count('"exponents"')
        skeleton = prefix + ",\n".join([empty] * k) + ("\n  ]" if last else "")
        if k == 0 or block.translate(_DIGITS) != skeleton:
            return None
        flat = json.loads("[" + block.translate(_COMMAS) + "]")
        values = flat[rank::step]
        del flat[rank::step]
        if len(flat) + len(values) != k * step or min(flat) < 0:
            return None
        table.update(zip(zip(*[iter(flat)] * rank), values))
        n += k
        if last:
            break
        pos, prefix = cut + 1, "\n"
    if len(table) != n or max(monoid.grades(table)) > bound:
        return None
    return FormalSeries._trusted(monoid, bound, table)


def dumps(obj) -> str:
    """Byte-stable JSON text for a series, an expansion's `_Terms` (the
    text of its series) or a rational series: the text of
    `json.dumps(payload, indent=2, ensure_ascii=True)` and a newline.  Both
    documents hold the monoid, {"generators": [{"label", "weight"}, ...]}.
    A series adds its bound and its coefficient entries, a rational series
    its numerator entries, each {"exponents": [...], "value": "<int>"},
    and its denominator factors, each {"exponents": [...], "multiplicity":
    <int>}.  The layout is a contract, pinned by tests against
    `json.dumps`, but the text is written from templates that `loads`
    reads back: `_head`, and `_entries` per entry array, by columns, in
    blocks of `BLOCK` entries, all joined once.  Entries go in graded-lex
    order: a series' or an expansion's as `_graded_terms` gives them, so
    the expansion's by the codes `_divide` made with its columns, and a
    table's or a rational form's by `graded_lex_order`.

    Python limits int -> str conversion to 4300 digits by default, and
    `dumps` raises ValueError on a larger number.  `cli.main` lifts the
    limit for each command and restores it afterwards; a library caller
    lifts it itself, with `sys.set_int_max_str_digits(0)`."""
    if isinstance(obj, (FormalSeries, _Terms)):
        columns, values, order = _graded_terms(obj)
        parts = [_head(obj.monoid, obj.bound),
                 *_entries(obj.monoid, columns, values, "value", '"%d"',
                           order)]
        del order  # an int per term, not held through the join
    elif isinstance(obj, RationalSeries):
        num, den = (_columns_of(dict(pairs))
                    for pairs in (obj.numerator, obj.denominator))
        parts = [_head(obj.monoid, None),
                 *_entries(obj.monoid, *num, "value", '"%d"'),
                 ',\n  "denominator": ',
                 *_entries(obj.monoid, *den, "multiplicity", "%d")]
    else:
        raise TypeError(type(obj).__name__)
    return "".join([*parts, "\n}\n"])


def loads(text: str):
    """Parse `dumps` output; any text that is not a valid series or
    rational series, as JSON or by the schema, is one ValueError.

    Integers are JSON ints or strings of the `INTEGER` rule, every value
    is one, and no entry array may name the same exponents twice.  A
    series of rank >= 1 with at least one entry, in the layout `dumps`
    writes, is read by that layout (`_read_layout`), in blocks, without
    one JSON object per entry or a copy of the whole array.  Any other
    text, rational forms, rank-0 series and empty arrays included, and
    one that fails a check there, is parsed whole and read entry by
    entry, which raises the error of its first bad entry, so an error's
    text does not depend on the reader.  A number of more than 4300
    digits is a ValueError unless the caller has lifted Python's limit on
    str -> int conversion, as `cli.main` does for each command
    (`sys.set_int_max_str_digits(0)`).
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
