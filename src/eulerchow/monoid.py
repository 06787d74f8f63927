"""Finitely generated free graded abelian monoids and their morphisms.

Elements are plain tuples of nonnegative integer exponents; the monoid
object supplies grading, validation, order and enumeration.  Its derived
fields `rank`, `labels` and `weights` are computed at construction.
`validate` checks one element entering from outside, such as a generator
image of a morphism.  Grading, `add` and `MonoidMorphism.apply` trust
their input and do not re-check it.  `grade` serves one element and
`grades` a whole table at once.  `graded_lex` is the one statement of
graded-lex order: by grade, then by exponent tuple.

`Record` is the base of the package's immutable records, this module's
two classes among them.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, attrgetter, itemgetter, mul

Element = tuple[int, ...]


class Record:
    """An immutable record.  A subclass lists its fields in `_fields`,
    which are among its `__slots__`, and may give a field's default as a
    zero-argument factory in `_defaults`.  The constructor takes the
    fields by position or keyword, stores them and calls
    `self.__post_init__()`, where a subclass checks them or stores a
    normalised value with `object.__setattr__`.  Equality, hash and repr
    are those of the fields alone; assigning or deleting an attribute
    raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = dict(zip(fields, args))
            if (len(args) > len(fields) or given.keys() & kwargs.keys()
                    or kwargs.keys() - fields):
                raise TypeError(f"{type(self).__name__}() takes the fields "
                                f"{', '.join(fields)}, each at most once")
            given.update(kwargs)
            try:
                args = [given[name] if name in given
                        else self._defaults[name]() for name in fields]
            except KeyError as exc:
                raise TypeError(f"{type(self).__name__}() missing field "
                                f"{exc}") from None
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild the record through the constructor
        return type(self), tuple(getattr(self, n) for n in self._fields)


class MonoidMismatchError(ValueError):
    """Raised when an operation mixes incompatible monoids."""


class GradedMonoid(Record):
    """Free abelian monoid Z_+^k with labeled, positively weighted generators."""

    # `rank`, `labels` and `weights` are derived from `generators` at
    # construction; they are not fields, so equality, hash and repr are
    # those of `generators` alone
    _fields = ("generators",)
    __slots__ = _fields + ("rank", "labels", "weights")
    generators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        # a series file stores each label as a string and each weight as
        # an integer: a label 5 or None would read back as a different
        # monoid, and a weight 1.5 or True could not be read back at all
        for lab, w in self.generators:
            if type(lab) is not str:
                raise TypeError(f"generator label {lab!r} is not a string")
            if type(w) is not int:
                raise TypeError(f"generator {lab!r} has weight {w!r}, "
                                "not an int")
            if w < 1:
                raise ValueError(f"generator {lab!r} has weight {w} < 1")
        labels = tuple(lab for lab, _ in self.generators)
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be pairwise distinct")
        object.__setattr__(self, "rank", len(self.generators))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights",
                           tuple(w for _, w in self.generators))

    @classmethod
    def free(cls, labels, weights=None) -> "GradedMonoid":
        labels = list(labels)
        if weights is None:
            weights = [1] * len(labels)
        return cls(tuple(zip(labels, weights, strict=True)))

    def zero(self) -> Element:
        return (0,) * self.rank

    def generator(self, i: int) -> Element:
        e = [0] * self.rank
        e[i] = 1
        return tuple(e)

    def validate(self, m: Element) -> Element:
        """m as an element: one exponent per generator, each an int >= 0."""
        m = tuple(m)
        if len(m) != self.rank:
            raise MonoidMismatchError(
                f"element of length {len(m)} in monoid of rank {self.rank}")
        for e in m:
            if type(e) is not int:
                raise TypeError(f"exponent {e!r} in {m} is not an integer")
            if e < 0:
                raise ValueError(f"negative exponent in {m}")
        return m

    def grade(self, m: Element) -> int:
        """Weighted total degree of a valid element."""
        return sum(map(mul, m, self.weights))

    def grades(self, elements) -> list[int]:
        """Grades of a collection of valid elements, in iteration order:
        the sum of each element, plus one pass over the exponent column
        of each generator of weight w > 1, adding (w - 1) times it.  The
        elements are iterated more than once, so not a generator."""
        out = list(map(sum, elements))
        for i, w in enumerate(self.weights):
            if w != 1:
                column = map(itemgetter(i), elements)
                out = list(map(add, out, map(mul, column, repeat(w - 1))))
        return out

    def add(self, a: Element, b: Element) -> Element:
        """Sum of two valid elements."""
        return tuple(x + y for x, y in zip(a, b))

    def graded_lex(self, elements) -> list[Element]:
        """Valid elements in graded-lex order: sorted by exponent tuple,
        then stably by grade, so lex order holds within a grade."""
        keys = sorted(elements)
        grade_of = dict(zip(keys, self.grades(keys)))
        return sorted(keys, key=grade_of.__getitem__)

    def enumerate_up_to(self, bound: int) -> list[Element]:
        """All elements of grade <= bound, in graded-lex order.

        The elements are built one generator at a time, each prefix with
        the budget it leaves, so the last level lists them in lex order
        with grade(m) = bound - budget.  Graded-lex order is then a stable
        sort by falling budget, which keeps lex order within a grade.
        """
        if bound < 0:
            raise ValueError("bound must be >= 0")
        level = [((), bound)]
        for w in self.weights:
            level = [(prefix + (e,), budget - e * w)
                     for prefix, budget in level
                     for e in range(budget // w + 1)]
        return [m for m, _ in sorted(level, key=itemgetter(1), reverse=True)]


class MonoidMorphism(Record):
    """Morphism between free graded monoids, fixed by its generator images."""

    __slots__ = _fields = ("source", "target", "generator_images")
    source: GradedMonoid
    target: GradedMonoid
    generator_images: tuple[Element, ...]

    def __post_init__(self):
        if len(self.generator_images) != self.source.rank:
            raise MonoidMismatchError(
                "one generator image per source generator required")
        object.__setattr__(self, "generator_images", tuple(
            self.target.validate(img) for img in self.generator_images))

    def apply(self, m: Element) -> Element:
        """Image of a valid element of the source."""
        out = [0] * self.target.rank
        for e, img in zip(m, self.generator_images):
            if e:
                for j, v in enumerate(img):
                    out[j] += e * v
        return tuple(out)

    def has_finite_fibers(self) -> bool:
        """True iff no generator maps to the zero element."""
        return all(any(img) for img in self.generator_images)


def compose(outer: MonoidMorphism, inner: MonoidMorphism) -> MonoidMorphism:
    """outer after inner; apply(compose(outer, inner), m) = outer(inner(m))."""
    if inner.target != outer.source:
        raise MonoidMismatchError("morphisms are not composable")
    return MonoidMorphism(
        inner.source, outer.target,
        tuple(outer.apply(img) for img in inner.generator_images))
