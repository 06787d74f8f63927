"""Acceptance checks: exact reproduction of the catalog tables plus
randomized algebra-law suites, shared by the CLI and the test suite."""

from __future__ import annotations

import itertools
import math
import random
from functools import cmp_to_key

from . import catalog, oracle, schubert
from .monoid import GradedMonoid, MonoidMorphism, Record, compose
from .series import (FormalSeries, convolve, describe_difference, exterior,
                     first_difference, one, pullback, pushforward)

SEED = 20240811
ALGEBRA_CASES = 100


class CheckResult(Record):
    __slots__ = _fields = ("name", "passed", "detail")
    _defaults = {"detail": str}
    name: str
    passed: bool
    detail: str

    __hash__ = None  # a line of a report, not a key

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}" + (f": {self.detail}"
                                           if self.detail else "")


def _verdict(name, failures, detail="") -> CheckResult:
    """PASS with the detail when `failures` yields nothing, else FAIL with
    the text of its first item.  `failures` is read only up to that item,
    so a lazy one stops at its first failure."""
    for failure in failures:
        return CheckResult(name, False, str(failure))
    return CheckResult(name, True, detail)


def law_failure(equations):
    """The failure of the first equation (name, lhs, rhs) whose two series
    differ at a grade up to the smaller of their bounds, as "name: first
    difference at t^m: a vs b"; or None.  `equations` is read only up to
    that equation, so a lazy one computes nothing past it."""
    for name, lhs, rhs in equations:
        diff = first_difference(lhs, rhs, min(lhs.bound, rhs.bound))
        if diff is not None:
            return f"{name}: {describe_difference(diff)}"
    return None


# ---------------------------------------------------------------------------
# Random case generation (fixed seed; sizes bounded for the naive oracles).
# `randrange(k) + a` draws what `randint(a, a + k - 1)` draws, one call
# shallower.  A case that draws several series over one monoid and bound
# enumerates its elements once.  Drawn series are built trusted: their
# keys come from `enumerate_up_to`.

def random_monoid(rng: random.Random, max_rank=3) -> GradedMonoid:
    rank = rng.randint(1, max_rank)
    weights = [rng.choice([1, 1, 1, 2]) for _ in range(rank)]
    labels = [f"g{i}" for i in range(rank)]
    return GradedMonoid.free(labels, weights)


def random_bound(rng: random.Random, monoid: GradedMonoid) -> int:
    return rng.randint(2, 5 if monoid.rank == 3 else 8)


def random_series(rng: random.Random, monoid: GradedMonoid, bound: int,
                  elements=None) -> FormalSeries:
    """About 40 % of `elements`, by default those of grade <= bound,
    drawn in order as keys of nonzero coefficients."""
    if elements is None:
        elements = monoid.enumerate_up_to(bound)
    rand, randrange = rng.random, rng.randrange
    coeffs = {}
    for m in elements:
        if rand() < 0.4:
            c = randrange(11) - 5
            if c:
                coeffs[m] = c
    return FormalSeries._trusted(monoid, bound, coeffs)


def random_series_over(rng: random.Random, monoid: GradedMonoid,
                       bound: int, count: int) -> list[FormalSeries]:
    """`count` random series, drawn in turn over one enumeration."""
    elements = monoid.enumerate_up_to(bound)
    return [random_series(rng, monoid, bound, elements=elements)
            for _ in range(count)]


def random_morphism(rng: random.Random, source: GradedMonoid,
                    target: GradedMonoid) -> MonoidMorphism:
    """Random morphism whose generator images are nonzero (finite fibers)."""
    images = []
    for _ in range(source.rank):
        while True:
            img = tuple(rng.randrange(3) for _ in range(target.rank))
            if any(img):
                images.append(img)
                break
    return MonoidMorphism(source, target, images)


# ---------------------------------------------------------------------------
# Criterion 1: flag divisor series

def check_flag() -> list[CheckResult]:
    grid = 20
    expansion = catalog.closed_form(catalog.VarietyDescriptor("Flag012"),
                                    2).expand(2 * grid)
    table = catalog.flag012_divisor_by_recurrence(grid, grid)
    failures = []
    for r in range(grid + 1):
        for s in range(grid + 1):
            want = oracle.weyl_dim_gl3(r, s)
            got = expansion.coefficient((r, s))
            rec = table[r][s]
            if got != want or rec != want:
                failures.append(f"(r,s)=({r},{s}): expansion {got}, "
                                f"recurrence {rec}, Weyl {want}")
    return [_verdict("flag divisor 21x21 table", failures,
                     "expansion == recurrence == Weyl formula")]


# ---------------------------------------------------------------------------
# Criterion 2: split-bundle pipeline vs closed form

BUNDLE_CASES = [(1, 0, 1), (1, 1, 1), (1, 2, 1), (1, 3, 1),
                (2, 1, 1), (2, 1, 2), (2, 3, 2), (3, 2, 2)]
BUNDLE_DEGREE, GRASSMANN_DEGREE = 10, 12


def check_bundle() -> list[CheckResult]:
    out = []
    for n, d, p in BUNDLE_CASES:
        v = catalog.VarietyDescriptor("ProjClosure", (n, d))
        closed = catalog.closed_form(v, p).expand(BUNDLE_DEGREE)
        pipeline = catalog.split_bundle_series(n, d, p, BUNDLE_DEGREE)
        out.append(_verdict(
            f"split bundle (n={n},d={d},p={p}) to degree {BUNDLE_DEGREE}",
            filter(None, [law_failure(
                [("closed form vs pipeline", closed, pipeline)])])))
    return out


# ---------------------------------------------------------------------------
# Criterion 3: Chow-quotient pipeline for G(1,3)

def check_grassmann() -> list[CheckResult]:
    pipelines = [catalog.grassmannian13_series(p, GRASSMANN_DEGREE)
                 for p in range(4)]
    g13, out = catalog.parse_descriptor("G(1,3)"), []
    for p, pipeline in enumerate(pipelines):
        closed = catalog.closed_form(g13, p).expand(GRASSMANN_DEGREE)
        out.append(_verdict(
            f"G(1,3) pipeline p={p} to degree {GRASSMANN_DEGREE}",
            filter(None, [law_failure(
                [("closed form vs pipeline", closed, pipeline)])])))
    # E_3's coefficient at k is h^0(O(k)) on the Pluecker quadric in P^5
    # (Borel-Weil): degree-k forms in 6 variables less the multiples of
    # the quadric
    head = [pipelines[3].coefficient((k,)) for k in range(5)]
    want = [math.comb(k + 5, 5) - math.comb(k + 3, 5) for k in range(5)]
    out.append(_verdict("G(1,3) E_3 leading coefficients",
                        [] if head == want else [f"{head} != {want}"],
                        str(head)))
    return out


# ---------------------------------------------------------------------------
# Criterion 4: Macdonald / Lawson-Yau identities

def _macdonald_coefficients():
    """1/(1 - t)^chi, E_0 of Macdonald(chi), against its coefficients
    C(d + chi - 1, chi - 1)."""
    for chi in range(1, 13):
        v = catalog.VarietyDescriptor("Macdonald", (chi,))
        exp = catalog.closed_form(v, 0).expand(20)
        want = {(d,): math.comb(d + chi - 1, chi - 1) for d in range(21)}
        yield f"chi={chi}", exp, FormalSeries(exp.monoid, 20, want)


def check_macdonald() -> list[CheckResult]:
    exponents = []
    for n in range(7):
        pn = catalog.VarietyDescriptor("Pn", (n,))
        for p in range(n + 1):
            # one factor 1/(1 - t) per coordinate p-plane of P^n
            planes = len(list(itertools.combinations(range(n + 1), p + 1)))
            r = catalog.closed_form(pn, p)
            want = (((1,), planes),)
            if r.denominator != want:
                exponents.append(
                    f"n={n}, p={p}: denominator {r.denominator}, expected "
                    f"{want}, one factor 1/(1 - t) for each of the "
                    f"{planes} coordinate {p}-planes")
    return [_verdict("Macdonald coefficients chi=1..12, d<=20",
                     filter(None, [law_failure(_macdonald_coefficients())])),
            _verdict("Lawson-Yau exponents n<=6", exponents)]


# ---------------------------------------------------------------------------
# Criteria 5 and 6: randomized algebra laws.  A law yields the equations
# (name, lhs, rhs) that one case must satisfy, and `law_failure` decides
# them all: two series agree when they have no first difference up to the
# smaller of their bounds.  `check_*` draw the cases from a seeded
# generator, the property tests draw them with Hypothesis.

def _random_morphism(rng: random.Random) -> MonoidMorphism:
    return random_morphism(rng, random_monoid(rng), random_monoid(rng))


def series_triple_case(rng):
    m = random_monoid(rng)
    bound = random_bound(rng, m)
    return tuple(random_series_over(rng, m, bound, 3))


def ring_laws(case):
    f, g, h = case
    yield "commutativity", convolve(f, g), convolve(g, f)
    yield ("associativity", convolve(convolve(f, g), h),
           convolve(f, convolve(g, h)))
    yield "unit", convolve(one(f.monoid, f.bound), f), f
    yield ("distributivity", convolve(f, g + h),
           convolve(f, g) + convolve(f, h))


def pushforward_case(rng):
    phi = _random_morphism(rng)
    bound = random_bound(rng, phi.source)
    return (phi, *random_series_over(rng, phi.source, bound, 2))


def pushforward_is_homomorphism(case):
    phi, f, g = case
    yield ("push-forward of a product", pushforward(phi, convolve(f, g)),
           convolve(pushforward(phi, f), pushforward(phi, g)))


def pullback_case(rng):
    phi = _random_morphism(rng)
    bound = random_bound(rng, phi.target)
    f, g = random_series_over(rng, phi.target, bound, 2)
    return phi, f, g, rng.randint(-3, 3)


def pullback_is_linear(case):
    phi, f, g, s = case
    yield ("linearity", pullback(phi, f + g.scale(s)),
           pullback(phi, f) + pullback(phi, g).scale(s))


def chain_case(rng):
    a, b, c = (random_monoid(rng) for _ in range(3))
    phi = random_morphism(rng, a, b)
    psi = random_morphism(rng, b, c)
    f = random_series(rng, a, random_bound(rng, a))
    return phi, psi, f, random_series(rng, c, random_bound(rng, c))


def functoriality(case):
    phi, psi, f, g = case
    chain = compose(psi, phi)
    yield ("push-forward functoriality", pushforward(chain, f),
           pushforward(psi, pushforward(phi, f)))
    yield ("pull-back functoriality", pullback(chain, g),
           pullback(phi, pullback(psi, g)))


def exterior_case(rng):
    ms = [random_monoid(rng, max_rank=2) for _ in range(3)]
    bound = rng.randint(2, 5)
    return tuple(random_series(rng, m, bound) for m in ms)


def exterior_associativity(case):
    # the two sides label the product monoid differently, by its factors
    f, g, h = case
    lhs, monoid = exterior(exterior(f, g)[0], h)
    rhs, _ = exterior(f, exterior(g, h)[0])
    yield ("exterior associativity", lhs,
           FormalSeries(monoid, rhs.bound, rhs.coefficients))


def oracle_case(rng):
    m = random_monoid(rng)
    bound = random_bound(rng, m)
    f, g = random_series_over(rng, m, bound, 2)
    return f, g, random_morphism(rng, m, random_monoid(rng))


def convolve_matches_oracle(case):
    f, g = case
    fast = convolve(f, g)
    yield ("convolution oracle", fast,
           FormalSeries(f.monoid, fast.bound,
                        oracle.naive_convolve(f, g, fast.bound)))


def engine_matches_oracle(case):
    f, g, phi = case
    yield from convolve_matches_oracle((f, g))
    pushed = pushforward(phi, f)
    check_bound = min(pushed.bound, 8)
    yield ("push-forward oracle", pushed,
           FormalSeries(phi.target, check_bound,
                        oracle.naive_pushforward(phi, f, check_bound)))


# The Hilbert laws, over integer series: a coefficient polynomial in u at
# m of M is the coefficients at (m, k) of M x u, one per power u^k, and
# maps run along phi x id_u.  id_u caps a push-forward's bound at its input
# bound, so u takes the weights of the generator e_i of phi of least ratio
# grade(phi(e_i)) / w_i for a push-forward, of greatest for a pull-back:
# a series of M-bound B, drawn at bound B + U_DEGREE w_u, then evaluates
# after either map to pushforward_bound(phi, B) or pullback_bound(phi, B).
U_DEGREE = 2  # the largest u-degree a case draws


def _by_ratio(a, b) -> int:
    """A cmp function of pairs (g, w), w > 0, by the ratio g / w, exact:
    the sign of g w' - g' w."""
    return a[0] * b[1] - b[0] * a[1]


def times_u(phi: MonoidMorphism, pick) -> MonoidMorphism:
    """phi x id_u, u of weights grade(image) in N and weight in M of the
    generator of phi that `pick`, min or max, takes by their ratio (the
    first of equal ratios)."""
    g, w = pick(zip(map(phi.target.grade, phi.generator_images),
                    phi.source.weights), key=cmp_to_key(_by_ratio))
    images = [img + (0,) for img in phi.generator_images]
    return MonoidMorphism(GradedMonoid(phi.source.generators + (("u", w),)),
                          GradedMonoid(phi.target.generators + (("u", g),)),
                          (*images, phi.target.zero() + (1,)))


def random_u_series(rng: random.Random, monoid: GradedMonoid,
                    with_u: GradedMonoid) -> FormalSeries:
    """About 40 % of the elements m of `monoid` up to a drawn bound, each
    with a polynomial in u, as a series over `with_u`, monoid x u."""
    bound = random_bound(rng, monoid)
    rand, randrange = rng.random, rng.randrange
    coeffs = {}
    for m in monoid.enumerate_up_to(bound):
        if rand() < 0.4:
            for k in range(randrange(U_DEGREE + 1) + 1):
                c = randrange(7) - 3
                if c:
                    coeffs[m + (k,)] = c
    return FormalSeries._trusted(
        with_u, bound + U_DEGREE * with_u.weights[-1], coeffs)


def u_slices(f: FormalSeries, monoid: GradedMonoid) -> list[FormalSeries]:
    """Slices k <= U_DEGREE of a series over monoid x u, in one pass:
    slice k is the series over monoid of its (m, k) coefficients."""
    tables = [{} for _ in range(U_DEGREE + 1)]
    for key, c in f.coefficients.items():
        tables[key[-1]][key[:-1]] = c
    w = f.monoid.weights[-1]
    return [FormalSeries._trusted(monoid, f.bound - k * w, table)
            for k, table in enumerate(tables)]


def at_minus_one(f: FormalSeries, monoid: GradedMonoid) -> FormalSeries:
    """The evaluation at u = -1 of a series over monoid x u, in one pass:
    the sum of (-1)^k slice k over k <= U_DEGREE."""
    w, acc = f.monoid.weights[-1], {}
    bound = f.bound - U_DEGREE * w
    for key, c, g in zip(f.coefficients, f.coefficients.values(),
                         f.monoid.grades(f.coefficients)):
        k, m = key[-1], key[:-1]
        if k <= U_DEGREE and g - k * w <= bound:  # grade(m) <= bound
            acc[m] = acc.get(m, 0) + (-c if k % 2 else c)
    return FormalSeries._trusted(monoid, bound, acc)


def hilbert_case(rng):
    phi, push, a = graded_slice_case(rng)
    pull = times_u(phi, max)
    return phi, push, a, pull, random_u_series(rng, phi.target, pull.target)


def euler_is_hilbert_at_minus_one(case):
    phi, push, a, pull, b = case
    yield ("evaluation at -1 vs push-forward",
           at_minus_one(pushforward(push, a), phi.target),
           pushforward(phi, at_minus_one(a, phi.source)))
    yield ("evaluation at -1 vs pull-back",
           at_minus_one(pullback(pull, b), phi.source),
           pullback(phi, at_minus_one(b, phi.target)))


def graded_slice_case(rng):
    phi = _random_morphism(rng)
    push = times_u(phi, min)
    return phi, push, random_u_series(rng, phi.source, push.source)


def pushforward_respects_slices(case):
    # push-forward of the Hilbert series equals the Hilbert series of the
    # pushed-forward grading, checked slice by slice in u-degree
    phi, push, a = case
    pushed = u_slices(pushforward(push, a), phi.target)
    for k, piece in enumerate(u_slices(a, phi.source)):
        yield f"u-degree {k} slice", pushed[k], pushforward(phi, piece)


ALGEBRA_LAWS = (
    ("convolution ring laws", series_triple_case, ring_laws),
    ("push-forward is a ring homomorphism", pushforward_case,
     pushforward_is_homomorphism),
    ("pull-back linearity", pullback_case, pullback_is_linear),
    ("functoriality under composition", chain_case, functoriality),
    ("exterior-product associativity", exterior_case,
     exterior_associativity),
    ("engine matches naive oracle bit-exactly", oracle_case,
     engine_matches_oracle),
)
HILBERT_LAWS = (
    ("Euler series = Hilbert series at -1", hilbert_case,
     euler_is_hilbert_at_minus_one),
    ("push-forward respects the internal grading", graded_slice_case,
     pushforward_respects_slices),
)


def _law_loop(rng, name, make_case, law):
    details = (law_failure(law(make_case(rng)))
               for _ in range(ALGEBRA_CASES))
    return _verdict(name, (f"case {i}: {detail}"
                           for i, detail in enumerate(details) if detail),
                    f"{ALGEBRA_CASES} random cases")


def check_algebra(seed=SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    return [_law_loop(rng, *law) for law in ALGEBRA_LAWS]


def check_hilbert(seed=SEED + 1) -> list[CheckResult]:
    rng = random.Random(seed)
    return [_law_loop(rng, *law) for law in HILBERT_LAWS]


# ---------------------------------------------------------------------------
# Criterion 7: Schubert combinatorics

# (flag type, Schubert symbol's sequences, its dimension)
NAMED_DIMENSIONS = [
    (ft, sequences, dimension) for ft, named in (
        (catalog.FLAG012, [
            (((0,), (0, 1)), 0), (((0,), (0, 2)), 1), (((1,), (0, 1)), 1),
            (((1,), (1, 2)), 2), (((2,), (0, 2)), 2), (((2,), (1, 2)), 3)]),
        (catalog.G13, [
            (((0, 1),), 0), (((0, 2),), 1), (((0, 3),), 2), (((1, 2),), 2),
            (((1, 3),), 3), (((2, 3),), 4)]))
    for sequences, dimension in named]


def check_schubert() -> list[CheckResult]:
    sizes = [schubert.basis(catalog.G13, p).rank for p in range(5)]
    want_sizes = [1, 1, 2, 1, 1]

    dimensions = []
    for ft, sequences, want in NAMED_DIMENSIONS:
        sym = schubert.SchubertSymbol(ft, sequences)
        if sym.dimension() != want:
            dimensions.append(f"{sym.label()} has dimension "
                              f"{sym.dimension()}, expected {want}")

    traces = []
    symbols = [sym for ft in (catalog.FLAG012, schubert.FlagType((0, 1), 3),
                              schubert.FlagType((1, 2), 3))
               for sym in schubert.all_symbols(ft)]
    for sym in symbols:
        image = schubert.trace_phi(sym)
        d = sym.dimension()
        if image.dimension() != d + 1:
            traces.append(f"{sym.label()} of dimension {d} maps to "
                          f"{image.label()} of dimension "
                          f"{image.dimension()}, expected dimension {d + 1}")

    return [_verdict("basis sizes of G(1,3)",
                     [] if sizes == want_sizes
                     else [f"{sizes}, expected {want_sizes}"], str(sizes)),
            _verdict("named Schubert dimensions", dimensions),
            _verdict("trace map raises dimension by 1", traces,
                     f"{len(symbols)} symbols")]


SUITES = {
    "flag": [check_flag],
    "bundle": [check_bundle],
    "grassmann": [check_grassmann, check_schubert],
    "algebra": [check_algebra, check_macdonald],
    "hilbert": [check_hilbert],
}
SUITES["all"] = [fn for name in ("algebra", "bundle", "grassmann", "flag",
                                 "hilbert") for fn in SUITES[name]]


def run_suite(name: str) -> list[CheckResult]:
    return [result for fn in SUITES[name] for result in fn()]
