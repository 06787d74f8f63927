"""The FAIL path of the acceptance checks: a broken law or table is
reported on one line, naming its first failure."""

import random

from eulerchow import oracle, verify


def test_check_flag_names_the_one_wrong_entry(monkeypatch):
    weyl = oracle.weyl_dim_gl3
    monkeypatch.setattr(oracle, "weyl_dim_gl3",
                        lambda r, s: weyl(r, s) + ((r, s) == (3, 5)))
    lines = [r.line() for r in verify.check_flag()]
    assert lines == ["FAIL  flag divisor 21x21 table: (r,s)=(3,5): "
                     "expansion 120, recurrence 120, Weyl 121"]


def test_law_loop_stops_at_the_first_failing_case():
    drawn = []

    def law(case):
        drawn.append(case)
        return "broken" if len(drawn) > 2 else None

    result = verify._law_loop(random.Random(0), "a law",
                              lambda rng: rng.random(), law)
    assert result.line() == "FAIL  a law: case 2: broken"
    assert len(drawn) == 3


