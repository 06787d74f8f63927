"""The FAIL path of the acceptance checks: a broken law or table is
reported on one line, naming its first failure, and a failing equation
names its element and both values."""

import hashlib
import inspect
import itertools
import random
import re

import pytest

from eulerchow import catalog, cli, oracle, schubert, series, verify
from eulerchow.monoid import GradedMonoid, MonoidMorphism, compose
from eulerchow.series import (FormalSeries, pullback_bound,
                              pushforward_bound)

T = GradedMonoid.free(["t"])


@pytest.mark.parametrize("cell", [(3, 5), (20, 7), (7, 20)])
def test_check_flag_names_the_one_wrong_entry(monkeypatch, cell):
    # an inner cell, and one of the last row and of the last column
    weyl = oracle.weyl_dim_gl3
    monkeypatch.setattr(oracle, "weyl_dim_gl3",
                        lambda r, s: weyl(r, s) + ((r, s) == cell))
    lines = [r.line() for r in verify.check_flag()]
    want = weyl(*cell)
    assert lines == [f"FAIL  flag divisor 21x21 table: (r,s)=({cell[0]},"
                     f"{cell[1]}): expansion {want}, recurrence {want}, "
                     f"Weyl {want + 1}"]


def test_law_loop_stops_at_the_first_failing_case():
    drawn = []

    def law(case):
        drawn.append(case)
        yield ("broken", FormalSeries(T, 2, {(1,): int(len(drawn) > 2)}),
               FormalSeries(T, 2))

    result = verify._law_loop(random.Random(0), "a law",
                              lambda rng: rng.random(), law)
    assert result.line() == ("FAIL  a law: case 2: broken: "
                             "first difference at t^(1,): 1 vs 0")
    assert len(drawn) == 3


def _seeded_cases(seed, laws):
    """(law, case) for every case the suite of `laws` draws from `seed`,
    and (None, generator state) after each law."""
    rng = random.Random(seed)
    for law in laws:
        for _ in range(verify.ALGEBRA_CASES):
            yield law, law[1](rng)
        yield None, rng.getstate()


def test_the_seeded_algebra_suite_draws_the_same_cases():
    # the repr and key order of every case the algebra suite draws, and
    # the generator state after each law: a cheaper generator must draw
    # exactly these, or the case numbers of FAIL lines change
    digest = hashlib.sha256()
    for law, case in _seeded_cases(verify.SEED, verify.ALGEBRA_LAWS):
        digest.update(repr(case).encode())
        if law is not None:
            digest.update(repr([list(x.coefficients) for x in case
                                if isinstance(x, FormalSeries)]).encode())
    assert digest.hexdigest() == ("38b6388355bd6fa24c977a3db10055ce"
                                  "9e6e7ac0cdbccff14b23fc2307c3a10d")


def test_the_suites_default_to_the_seeds_their_digests_pin():
    # the digests above and below draw from SEED and SEED + 1; a changed
    # default would run cases that no digest pins
    defaults = [inspect.signature(check).parameters["seed"].default
                for check in (verify.check_algebra, verify.check_hilbert)]
    assert defaults == [verify.SEED, verify.SEED + 1] == [20240811, 20240812]


def test_the_suites_seed_their_generators_with_their_seeds(monkeypatch):
    # with no laws to run, each suite still builds its generator: from
    # SEED and SEED + 1 by default, and from the seed it is given
    seeds = []

    class Recording(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(verify.random, "Random", Recording)
    monkeypatch.setattr(verify, "ALGEBRA_LAWS", ())
    monkeypatch.setattr(verify, "HILBERT_LAWS", ())
    assert verify.check_algebra() == verify.check_hilbert() == []
    assert verify.check_algebra(7) == verify.check_hilbert(8) == []
    assert seeds == [verify.SEED, verify.SEED + 1, 7, 8]


# the generators of every monoid `random_monoid` draws: rank 1 to 3,
# weights 1 or 2
DRAWABLE = [tuple((f"g{i}", w) for i, w in enumerate(weights))
            for rank in (1, 2, 3)
            for weights in itertools.product((1, 2), repeat=rank)]


def test_random_monoid_returns_one_object_per_weight_tuple():
    rng = random.Random(verify.SEED)
    drawn = {}
    for _ in range(2000):
        m = verify.random_monoid(rng)
        assert drawn.setdefault(m.weights, m) is m
    assert sorted(m.generators for m in drawn.values()) == sorted(DRAWABLE)
    phi = verify.random_morphism(rng, drawn[(1, 2)], drawn[(2, 1, 1)])
    a, b = verify.times_u(phi, max), verify.times_u(phi, max)
    assert a.source is b.source and a.target is b.target


def test_elements_are_the_enumeration_once():
    for generators in DRAWABLE:
        m = GradedMonoid(generators)
        for bound in range(2, 9):
            elements = verify._elements(m, bound)
            assert elements == tuple(m.enumerate_up_to(bound))
            assert verify._elements(m, bound) is elements


def test_the_suites_report_the_same_with_the_caches_cleared_and_warm():
    def lines():
        return [r.line() for r in verify.check_algebra(verify.SEED)
                + verify.check_hilbert(verify.SEED + 1)]

    verify._monoid.cache_clear()
    verify._elements.cache_clear()
    cold, enumerated = lines(), verify._elements.cache_info().misses
    assert enumerated > 0
    assert lines() == cold
    assert verify._elements.cache_info().misses == enumerated
    assert cold == [f"PASS  {name}: {verify.ALGEBRA_CASES} random cases"
                    for name, _, _ in verify.ALGEBRA_LAWS
                    + verify.HILBERT_LAWS]


def _drawn(case):
    """phi and the series a Hilbert case draws over M x u, each as its
    M-bound B and its (m, k, c) triples in draw order."""
    return case[0], [
        (x.bound - verify.U_DEGREE * x.monoid.weights[-1],
         [(m[:-1], m[-1], c) for m, c in x.coefficients.items()])
        for x in case if isinstance(x, FormalSeries)]


def test_the_seeded_hilbert_suite_draws_the_same_cases():
    # what the Hilbert suite draws, in terms that do not depend on how a
    # polynomial coefficient is stored: phi, each series' M-bound and
    # its nonzero u^k coefficients c at m as (m, k, c), and the generator
    # state after each law
    digest = hashlib.sha256()
    for law, case in _seeded_cases(verify.SEED + 1, verify.HILBERT_LAWS):
        if law is None:
            digest.update(repr(case).encode())
            continue
        phi, drawn = _drawn(case)
        digest.update(repr(phi).encode())
        for series_data in drawn:
            digest.update(repr(series_data).encode())
    assert digest.hexdigest() == ("e8b57d0068cd30aa8901482ca726d9ea"
                                  "9b0fccb579893646a8ba3b086df95ecd")


def test_the_hilbert_laws_compare_up_to_the_bounds_over_m():
    # the equations over M x u compare as far as the same laws over M:
    # an evaluation at -1 exactly to the push-forward or pull-back bound
    # of the drawn M-bound B, a slice at least to the push-forward bound
    for law, case in _seeded_cases(verify.SEED + 1, verify.HILBERT_LAWS):
        if law is None:
            continue
        phi, drawn = _drawn(case)
        push_bound = pushforward_bound(phi, drawn[0][0])
        compared = {eq: min(lhs.bound, rhs.bound)
                    for eq, lhs, rhs in law[2](case)}
        if law[2] is verify.euler_is_hilbert_at_minus_one:
            assert compared == {
                "evaluation at -1 vs push-forward": push_bound,
                "evaluation at -1 vs pull-back": pullback_bound(
                    phi, drawn[1][0])}
        else:
            assert list(compared) == [f"u-degree {k} slice"
                                      for k in range(verify.U_DEGREE + 1)]
            assert min(compared.values()) >= push_bound


def test_hilbert_laws_fail_when_push_forward_breaks_the_u_grading(
        monkeypatch):
    # doubling the coefficients at elements of odd exponent sum commutes
    # with slicing and evaluating over M alone, so only laws that push
    # forward along phi x id_u, as integer series over M x u, see it
    pushforward = series.pushforward

    def parity_doubled(phi, f):
        g = pushforward(phi, f)
        return FormalSeries(g.monoid, g.bound, {
            m: c * (1 + sum(m) % 2) for m, c in g.coefficients.items()})

    monkeypatch.setattr(verify, "pushforward", parity_doubled)
    lines = {r.name: r.line() for r in verify.check_hilbert()}
    assert re.fullmatch(
        r"FAIL  Euler series = Hilbert series at -1: case \d+: evaluation "
        r"at -1 vs push-forward: first difference at t\^\(.*\): "
        r"-?\d+ vs -?\d+", lines["Euler series = Hilbert series at -1"])
    assert re.fullmatch(
        r"FAIL  push-forward respects the internal grading: case \d+: "
        r"u-degree \d slice: first difference at t\^\(.*\): "
        r"-?\d+ vs -?\d+",
        lines["push-forward respects the internal grading"])


def test_law_failure_stops_at_the_first_equation_that_disagrees():
    read = []

    def equations():
        for k in range(5):
            read.append(k)
            yield (f"equation {k}", FormalSeries(T, 3, {(k,): 1}),
                   FormalSeries(T, 3 + k, {(k,): 1 + (k == 1)}))

    assert verify.law_failure(equations()) == (
        "equation 1: first difference at t^(1,): 1 vs 2")
    assert read == [0, 1]
    assert verify.law_failure(iter(())) is None


def test_law_failure_compares_up_to_the_smaller_bound():
    # a term above one side's bound is not known there, so it agrees
    low = FormalSeries(T, 2, {(1,): 1})
    high = FormalSeries(T, 4, {(1,): 1, (3,): 5})
    assert verify.law_failure([("e", low, high), ("f", high, low)]) is None


def test_broken_convolution_names_its_equation_and_element(monkeypatch,
                                                          capsys):
    # `verify` exits 1 and its report names the case, the equation, the
    # element and both values
    convolve = series.convolve
    monkeypatch.setattr(verify, "convolve",
                        lambda f, g: convolve(f, g).scale(2))
    assert cli.main(["verify", "--suite", "algebra"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = {line.split(": ")[0]: line for line in out.splitlines()}
    ring = lines["FAIL  convolution ring laws"]
    assert ring.startswith("FAIL  convolution ring laws: case ")
    assert ": unit: first difference at t^" in ring
    engine = lines["FAIL  engine matches naive oracle bit-exactly"]
    assert engine.startswith("FAIL  engine matches naive oracle "
                             "bit-exactly: case ")
    assert ": convolution oracle: first difference at t^" in engine


def _scaled_pushforward(phi, f):
    return series.pushforward(phi, f).scale(2)


def _shifted_pullback(phi, f):
    pulled = series.pullback(phi, f)
    return pulled + series.one(pulled.monoid, pulled.bound)


def _doubled_compose(psi, phi):
    return MonoidMorphism(phi.source, psi.target,
                          [tuple(2 * x for x in img) for img in
                           compose(psi, phi).generator_images])


def _headless_exterior(f, g):
    # the first factor loses its constant term
    return series.exterior(FormalSeries(
        f.monoid, f.bound, {m: c for m, c in f.coefficients.items()
                            if any(m)}), g)


# (name patched in verify, defect, the line it is planted for, the case
# and equation that line names, every line that fails)
PLANTED_DEFECTS = {
    "pushforward scaled": (
        "pushforward", _scaled_pushforward,
        "push-forward is a ring homomorphism",
        "case 0: push-forward of a product",
        {"push-forward is a ring homomorphism",
         "functoriality under composition",
         "engine matches naive oracle bit-exactly"}),
    "pullback shifted": (
        "pullback", _shifted_pullback, "pull-back linearity",
        "case 0: linearity",
        {"pull-back linearity", "functoriality under composition"}),
    "compose doubled": (
        "compose", _doubled_compose, "functoriality under composition",
        "case 0: push-forward functoriality",
        {"functoriality under composition"}),
    "exterior headless": (
        "exterior", _headless_exterior, "exterior-product associativity",
        "case 5: exterior associativity",
        {"exterior-product associativity"}),
}


@pytest.mark.parametrize("defect", PLANTED_DEFECTS)
def test_planted_defect_names_its_equation_and_element(monkeypatch, defect):
    attr, broken, name, equation, failing = PLANTED_DEFECTS[defect]
    monkeypatch.setattr(verify, attr, broken)
    lines = {r.name: r.line() for r in verify.check_algebra()
             if not r.passed}
    assert lines.keys() == failing
    assert lines[name].startswith(
        f"FAIL  {name}: {equation}: first difference at t^")


def test_broken_macdonald_fails_one_line(monkeypatch):
    macdonald = catalog.macdonald
    # chi = 11 is no C(n + 1, p + 1) with n <= 6, so Lawson-Yau still holds
    monkeypatch.setattr(catalog, "macdonald", lambda chi, *letter:
                        macdonald(chi + (chi == 11), *letter))
    lines = [r.line() for r in verify.check_macdonald()]
    assert lines == ["FAIL  Macdonald coefficients chi=1..12, d<=20: "
                     "chi=11: first difference at t^(1,): 12 vs 11",
                     "PASS  Lawson-Yau exponents n<=6"]


def test_broken_trace_map_fails_one_line(monkeypatch):
    monkeypatch.setattr(schubert, "trace_phi", lambda sym: sym)
    failed = [r.line() for r in verify.check_schubert() if not r.passed]
    assert failed == ["FAIL  trace map raises dimension by 1: ⟨0;0,1⟩^2 "
                      "of dimension 0 maps to ⟨0;0,1⟩^2 of dimension 0, "
                      "expected dimension 1"]


def test_wrong_basis_size_names_found_and_expected(monkeypatch):
    basis = schubert.basis
    monkeypatch.setattr(schubert, "basis",
                        lambda ft, p: basis(ft, 0 if p == 2 else p))
    failed = [r.line() for r in verify.check_schubert() if not r.passed]
    assert failed == ["FAIL  basis sizes of G(1,3): [1, 1, 1, 1, 1], "
                      "expected [1, 1, 2, 1, 1]"]


def test_wrong_dimension_names_the_symbol_and_both_values(monkeypatch):
    dimension = schubert.SchubertSymbol.dimension
    monkeypatch.setattr(
        schubert.SchubertSymbol, "dimension",
        lambda sym: dimension(sym) + (sym.label() == "⟨1,3⟩^3"))
    lines = {r.name: r.line() for r in verify.check_schubert()}
    assert lines["named Schubert dimensions"] == (
        "FAIL  named Schubert dimensions: ⟨1,3⟩^3 has dimension 4, "
        "expected 3")


def _lawson_yau_failure(n, p, planes, got):
    return (f"FAIL  Lawson-Yau exponents n<=6: n={n}, p={p}: denominator "
            f"(((1,), {got}),), expected (((1,), {planes}),), one factor "
            f"1/(1 - t) for each of the {planes} coordinate {p}-planes")


@pytest.mark.parametrize("n, p, planes", [(3, 1, 6), (5, 2, 20)])
def test_wrong_lawson_yau_denominator_names_n_p_and_planes(monkeypatch, n, p,
                                                           planes):
    # one factor 1/(1 - t) too many in the Pn row's form at (n, p)
    row = catalog.KINDS["Pn"]
    monkeypatch.setitem(catalog.KINDS, "Pn", row._replace(
        closed=lambda v, q: row.closed(v, q).multiply(catalog.macdonald(1))
        if (v.args, q) == ((n,), p) else row.closed(v, q)))
    lines = [r.line() for r in verify.check_macdonald()]
    assert lines == ["PASS  Macdonald coefficients chi=1..12, d<=20",
                     _lawson_yau_failure(n, p, planes, planes + 1)]


@pytest.mark.parametrize("n", [1, 3, 6])
def test_wrong_top_dimension_of_pn_names_n_equal_p(monkeypatch, capsys, n):
    # E_n(P^n) as `closed_form` serves it, with one factor 1/(1 - t) too
    # many: `check_macdonald` reads the form that `series` prints
    closed_form = catalog.closed_form
    top = catalog.parse_descriptor(f"Pn({n})")
    monkeypatch.setattr(
        catalog, "closed_form",
        lambda v, q: closed_form(v, q).multiply(catalog.macdonald(1))
        if (v, q) == (top, n) else closed_form(v, q))
    assert cli.main(["series", str(top), "--p", str(n),
                     "--format", "rational"]) == 0
    assert capsys.readouterr().out == f"# E_{n}({top})\n1/(1-t)^2\n"
    lines = [r.line() for r in verify.check_macdonald()]
    assert lines == ["PASS  Macdonald coefficients chi=1..12, d<=20",
                     _lawson_yau_failure(n, n, 1, 2)]


def test_wrong_pn_chi_fails_verify_and_the_split_rows(monkeypatch, capsys):
    # chi(P^n) = n + 2: E_0(P^n) is read from the Pn row's chi by
    # `check_macdonald` and by every pipeline that pushes E_0(P^n) forward,
    # the split rows' at p = 0 and 1 and G(1,3)'s at p = 0
    row = catalog.KINDS["Pn"]
    monkeypatch.setitem(catalog.KINDS, "Pn", row._replace(
        chi=lambda v: v.args[0] + 2))
    lines = [r.line() for r in verify.check_macdonald()]
    assert lines[1] == _lawson_yau_failure(0, 0, 1, 2)
    failed = [r.name for r in verify.run_suite("all") if not r.passed]
    assert failed == ["Lawson-Yau exponents n<=6"] + [
        f"split bundle (n={n},d={d},p=1) to degree {verify.BUNDLE_DEGREE}"
        for n, d, p in verify.BUNDLE_CASES if p == 1] + [
        f"G(1,3) pipeline p=0 to degree {verify.GRASSMANN_DEGREE}"]
    for variety, chi in (("PnxP1(2)", 6), ("ProjClosure(n=2,d=1)", 6)):
        assert cli.main(["series", variety, "--p", "0"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {variety} p=0: closed form and pipeline "
                       f"differ: first difference at t^(1,): {chi} vs "
                       f"{2 * (chi // 2 + 1)}\n")


@pytest.mark.parametrize("p, factor, line", [
    (1, ((1,), 11), "first difference at t^(1,): 11 vs 12"),
    (2, ((1, 1), 4), "first difference at t^(1, 1): 20 vs 19")])
def test_wrong_stored_g13_form_fails_its_pipeline_line(monkeypatch, p,
                                                       factor, line):
    # one exponent of the stored E_p of G(1,3) made wrong: the last
    # denominator factor's
    stored = catalog.SCHUBERT_FORMS[catalog.G13][1]
    numerator, denominator = stored[p]
    monkeypatch.setitem(stored, p, (numerator, denominator[:-1] + (factor,)))
    failed = [r.line() for r in verify.check_grassmann() if not r.passed]
    assert failed == [f"FAIL  G(1,3) pipeline p={p} to degree "
                      f"{verify.GRASSMANN_DEGREE}: closed form vs pipeline: "
                      + line]


def test_wrong_g13_p3_pipeline_names_both_leading_lists(monkeypatch):
    # the p = 3 pipeline doubled: its line and the Borel-Weil check of
    # E_3's first coefficients fail, the latter naming both lists
    series13 = catalog.grassmannian13_series
    monkeypatch.setattr(catalog, "grassmannian13_series", lambda p, degree:
                        series13(p, degree).scale(1 + (p == 3)))
    failed = [r.line() for r in verify.check_grassmann() if not r.passed]
    assert failed == [
        f"FAIL  G(1,3) pipeline p=3 to degree {verify.GRASSMANN_DEGREE}: "
        "closed form vs pipeline: first difference at t^(0,): 1 vs 2",
        "FAIL  G(1,3) E_3 leading coefficients: [2, 12, 40, 100, 210] != "
        "[1, 6, 20, 50, 105]"]


def test_wrong_split_closed_form_fails_the_p2_bundle_lines(monkeypatch):
    # the (d, 1) factor of every split-bundle E_2 one exponent too high
    split_closed = catalog._split_closed

    def wrong(n, d, p):
        r = split_closed(n, d, p)
        if p != 2:
            return r
        m, e = r.denominator[-1]
        return series.RationalSeries(r.monoid, r.numerator,
                                     r.denominator[:-1] + ((m, e + 1),))

    monkeypatch.setattr(catalog, "_split_closed", wrong)
    failed = [r.line() for r in verify.check_bundle() if not r.passed]
    assert failed == [
        f"FAIL  split bundle (n={n},d={d},p=2) to degree "
        f"{verify.BUNDLE_DEGREE}: closed form vs pipeline: first difference "
        f"at t^({d}, 1): {want + 1} vs {want}"
        for (n, d), want in (((2, 1), 4), ((2, 3), 11), ((3, 2), 88))]
