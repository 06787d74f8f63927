import math
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from eulerchow.monoid import (GradedMonoid, MonoidMismatchError,
                              MonoidMorphism, compose)


def test_free_defaults_to_weight_one():
    m = GradedMonoid.free(["a", "b"])
    assert m.rank == 2
    assert m.weights == (1, 1)
    assert m.labels == ("a", "b")


def test_derived_fields_leave_equality_hash_and_repr_to_the_generators():
    a = GradedMonoid.free(["a", "b"], [1, 2])
    b = GradedMonoid((("a", 1), ("b", 2)))
    assert (a.rank, a.weights, a.labels) == (2, (1, 2), ("a", "b"))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert repr(a) == "GradedMonoid(generators=(('a', 1), ('b', 2)))"
    assert a != GradedMonoid.free(["a", "b"])


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        GradedMonoid.free(["a", "a"])


def test_weights_must_match_the_labels():
    for weights in ([1], [1, 1, 1]):
        with pytest.raises(ValueError):
            GradedMonoid.free(["x", "y"], weights)


def test_nonpositive_weight_rejected():
    with pytest.raises(ValueError):
        GradedMonoid.free(["a"], [0])


@pytest.mark.parametrize("labels, weights", [
    (["x"], [1.5]), (["x"], [True]), (["x"], [1.0]), (["x"], ["1"]),
    ([5], None), ([None], None), ([b"x"], None)])
def test_constructor_rejects_what_a_file_cannot_hold(labels, weights):
    # `dumps` would write "weight": 1.5 or true, or the label 5, and
    # `loads` rejects each of those files
    with pytest.raises(TypeError):
        GradedMonoid.free(labels, weights)


def test_grade_uses_weights():
    m = GradedMonoid.free(["a", "b"], [1, 3])
    assert m.grade((2, 0)) == 2
    assert m.grade((1, 2)) == 7
    assert m.grade(m.zero()) == 0


@st.composite
def element_lists(draw):
    rank = draw(st.integers(0, 3))
    weights = draw(st.lists(st.integers(1, 3), min_size=rank, max_size=rank))
    monoid = GradedMonoid.free([f"g{i}" for i in range(rank)], weights)
    elements = st.tuples(*[st.integers(0, 9)] * rank)
    return monoid, draw(st.lists(elements, max_size=8))


@given(element_lists())
@example((GradedMonoid(()), [(), ()]))
@example((GradedMonoid(()), []))
@example((GradedMonoid.free(["a", "b"], [3, 1]), []))
def test_grades_are_the_grade_of_each_element(case):
    monoid, elements = case
    assert monoid.grades(elements) == [monoid.grade(m) for m in elements]


def graded_lex_key(monoid):
    """The reference sort key of graded-lex order: grade, then the
    exponent tuple."""
    return lambda m: (monoid.grade(m), m)


# every element of grade <= 160 in two weight-1 generators, in lex order,
# as an expansion to degree 160 lists them: 13,041 keys
_XY = GradedMonoid.free(["x", "y"])
_XY_160 = [(a, b) for a in range(161) for b in range(161 - a)]


@given(element_lists())
@example((GradedMonoid(()), [(), ()]))
@example((GradedMonoid.free(["a", "b"], [1, 2]), [(0, 1), (1, 0), (2, 0)]))
@example((_XY, _XY_160))
@example((_XY, _XY_160[::-1]))
def test_graded_lex_is_the_sort_by_grade_then_element(case):
    monoid, elements = case
    assert monoid.graded_lex(elements) == sorted(
        elements, key=graded_lex_key(monoid))


@st.composite
def column_lists(draw):
    """(monoid, elements): rank 0-4, weights 1-2, exponents small or at
    and above 2^30, where a code passes one machine digit."""
    rank = draw(st.integers(0, 4))
    weights = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    monoid = GradedMonoid.free([f"g{i}" for i in range(rank)], weights)
    exponents = st.integers(0, 3) | st.integers(2**30, 2**30 + 3)
    elements = st.tuples(*[exponents] * rank)
    return monoid, draw(st.lists(elements, max_size=12, unique=True))


@given(column_lists())
@example((GradedMonoid(()), [()]))
@example((GradedMonoid(()), []))
@example((GradedMonoid.free("abcd", [1, 2, 1, 2]), []))
@example((GradedMonoid.free("abcd", [2, 1, 2, 1]),
          [(2**30, 0, 0, 1), (0, 2**31, 0, 0), (1, 0, 0, 2**30), (0,) * 4]))
@example((_XY, _XY_160[::-1]))
def test_graded_lex_order_is_the_sort_by_grade_then_element(case):
    # the indices of elements given as columns, in the order `graded_lex`
    # puts the tuples: one order, on tuples and on columns
    monoid, elements = case
    columns = [list(col) for col in zip(*elements)]
    order = monoid.graded_lex_order(columns, len(elements))
    assert [elements[i] for i in order] == sorted(
        elements, key=graded_lex_key(monoid)) == monoid.graded_lex(elements)


def test_validate_rejects_wrong_rank_and_negatives():
    m = GradedMonoid.free(["a", "b"])
    with pytest.raises(MonoidMismatchError):
        m.validate((1,))
    with pytest.raises(ValueError):
        m.validate((1, -1))
    for bad in ((1, 0.5), (True, 0)):
        with pytest.raises(TypeError):
            m.validate(bad)


def test_enumerate_counts_unit_weights():
    # lattice points with e1+e2 <= d: binomial(d+2, 2)
    m = GradedMonoid.free(["a", "b"])
    for d in range(6):
        assert len(m.enumerate_up_to(d)) == math.comb(d + 2, 2)


def test_enumerate_respects_weights():
    m = GradedMonoid.free(["a", "b"], [1, 2])
    got = m.enumerate_up_to(2)
    assert set(got) == {(0, 0), (1, 0), (2, 0), (0, 1)}


def test_enumerate_is_graded_lex_sorted():
    m = GradedMonoid.free(["a", "b"])
    got = m.enumerate_up_to(2)
    assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert got == sorted(got, key=graded_lex_key(m))


@given(st.integers(0, 3).flatmap(
    lambda rank: st.lists(st.integers(1, 3), min_size=rank, max_size=rank)),
    st.integers(0, 7))
def test_enumerate_is_every_element_up_to_the_bound(weights, bound):
    m = GradedMonoid.free([f"g{i}" for i in range(len(weights))], weights)
    every = product(range(bound + 1), repeat=m.rank)
    assert m.enumerate_up_to(bound) == sorted(
        (e for e in every if m.grade(e) <= bound), key=graded_lex_key(m))


def test_trivial_monoid():
    trivial = GradedMonoid(())
    assert trivial.rank == 0
    assert trivial.enumerate_up_to(5) == [()]
    assert trivial.grade(()) == 0


def test_morphism_apply_is_additive():
    m = GradedMonoid.free(["a", "b"])
    n = GradedMonoid.free(["x"])
    phi = MonoidMorphism(m, n, ((2,), (3,)))
    assert phi.apply((1, 1)) == (5,)
    assert phi.apply(m.zero()) == n.zero()
    x, y = (2, 0), (0, 3)
    assert phi.apply(m.add(x, y)) == n.add(phi.apply(x), phi.apply(y))


def test_morphism_stores_its_images_as_tuples():
    # images given as lists build the same morphism as tuples, hashable
    a, b = GradedMonoid.free(["a"]), GradedMonoid.free(["x", "y"])
    listed = MonoidMorphism(a, b, [[1, 0]])
    tupled = MonoidMorphism(a, b, ((1, 0),))
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert listed.generator_images == ((1, 0),)


def test_morphism_finite_fibers():
    m = GradedMonoid.free(["a", "b"])
    n = GradedMonoid.free(["x"])
    assert MonoidMorphism(m, n, ((1,), (2,))).has_finite_fibers()
    assert not MonoidMorphism(m, n, ((1,), (0,))).has_finite_fibers()


def test_compose():
    a = GradedMonoid.free(["a"])
    b = GradedMonoid.free(["x", "y"])
    c = GradedMonoid.free(["u"])
    phi = MonoidMorphism(a, b, ((1, 1),))
    psi = MonoidMorphism(b, c, ((1,), (2,)))
    chain = compose(psi, phi)
    assert chain.apply((2,)) == psi.apply(phi.apply((2,)))
    with pytest.raises(MonoidMismatchError):
        compose(phi, psi)
