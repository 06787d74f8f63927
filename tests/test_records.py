"""The package's record types: their construction, equality, hash, repr
and immutability, and an import that leaves out what they do not need."""

import copy

import pytest

from eulerchow.catalog import EulerChowResult, VarietyDescriptor, macdonald
from eulerchow.monoid import GradedMonoid, MonoidMorphism
from eulerchow.schubert import FlagType, SchubertSymbol
from eulerchow.series import FormalSeries, RationalSeries
from eulerchow.verify import CheckResult

T = GradedMonoid.free(["t"])
T_REPR = "GradedMonoid(generators=(('t', 1),))"
FT = FlagType((0, 1), 2)

# (type, its fields by name in order, the defaults of those that have one,
# the repr); every value is in the form the type stores it
RECORDS = [
    (GradedMonoid, {"generators": (("t", 1),)}, {}, T_REPR),
    (MonoidMorphism,
     {"source": T, "target": T, "generator_images": ((2,),)}, {},
     f"MonoidMorphism(source={T_REPR}, target={T_REPR}, "
     "generator_images=((2,),))"),
    (FormalSeries, {"monoid": T, "bound": 2, "coefficients": {(1,): 3}},
     {"coefficients": {}},
     f"FormalSeries(monoid={T_REPR}, bound=2, coefficients={{(1,): 3}})"),
    (RationalSeries,
     {"monoid": T, "numerator": (((0,), 1),), "denominator": (((1,), 2),)},
     {}, f"RationalSeries(monoid={T_REPR}, numerator=(((0,), 1),), "
     "denominator=(((1,), 2),))"),
    (FlagType, {"dims": (0, 1), "ambient": 2}, {},
     "FlagType(dims=(0, 1), ambient=2)"),
    (SchubertSymbol, {"flag_type": FT, "sequences": ((0,), (0, 2))}, {},
     "SchubertSymbol(flag_type=FlagType(dims=(0, 1), ambient=2), "
     "sequences=((0,), (0, 2)))"),
    (VarietyDescriptor, {"kind": "Flag012", "args": ()}, {"args": ()},
     "VarietyDescriptor(kind='Flag012', args=())"),
    (EulerChowResult,
     {"variety": VarietyDescriptor("Pn", (1,)), "p": 0,
      "closed_form": macdonald(2), "check": "identity",
      "generator_dictionary": (("t", "point class"),)}, {},
     "EulerChowResult(variety=VarietyDescriptor(kind='Pn', args=(1,)), "
     f"p=0, closed_form=RationalSeries(monoid={T_REPR}, "
     "numerator=(((0,), 1),), denominator=(((1,), 2),)), check='identity', "
     "generator_dictionary=(('t', 'point class'),))"),
    (CheckResult, {"name": "flag", "passed": True, "detail": "ok"},
     {"detail": ""}, "CheckResult(name='flag', passed=True, detail='ok')"),
]
UNHASHABLE = (FormalSeries, CheckResult)


@pytest.mark.parametrize("i", range(len(RECORDS)),
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(i):
    cls, fields, defaults, text = RECORDS[i]
    r = cls(*fields.values())
    assert cls(**fields) == r
    assert {name: getattr(r, name) for name in fields} == fields
    required = {k: v for k, v in fields.items() if k not in defaults}
    for omitted in (cls(*required.values()), cls(**required)):
        assert {k: getattr(omitted, k) for k in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*fields.values(), **{next(iter(fields)): None})

    other_cls, other_fields, _, _ = RECORDS[i - 1]
    o = other_cls(*other_fields.values())
    assert r.__eq__(o) is NotImplemented and r != o
    assert copy.copy(r) == r

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(cls(**fields))

    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) == value
    assert not hasattr(r, "__dict__")
    assert repr(r) == text


def test_import_stays_lean(python):
    # the package, its CLI and its verification suites, with the CLI's
    # parser built, load none of these unless the interpreter already has
    def modules(code):
        proc = python("-c", code + "\nprint(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    bare = modules("import sys")
    loaded = modules("import sys\nimport eulerchow\n"
                     "from eulerchow import cli, verify\ncli.build_parser()")
    assert "eulerchow.verify" in loaded
    assert {"dataclasses", "inspect", "fractions"} & (loaded - bare) == set()


@pytest.mark.parametrize("make, missing", [
    (lambda: GradedMonoid(), "generators"),
    (lambda: FormalSeries(T), "bound"),
], ids=["GradedMonoid", "FormalSeries"])
def test_missing_field_is_named(make, missing):
    with pytest.raises(TypeError, match=f"missing field '{missing}'"):
        make()
