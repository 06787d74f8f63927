import pytest

from eulerchow.schubert import (FlagType, SchubertSymbol, all_symbols, basis,
                                fixed_point_count, grassmannian, inclusion_i,
                                inclusion_j, symbols_of_dimension, trace_phi)

F012 = FlagType((0, 1), 2)
G13 = grassmannian(1, 3)


def test_flag_type_validation():
    with pytest.raises(ValueError):
        FlagType((1, 0), 2)
    with pytest.raises(ValueError):
        FlagType((0, 3), 2)
    with pytest.raises(ValueError):
        FlagType((), 2)


def test_flag_type_str():
    assert str(G13) == "G(1,3)"
    assert str(F012) == "F(0,1;2)"


def test_symbol_validation():
    with pytest.raises(ValueError):
        SchubertSymbol(G13, ((0,),))           # wrong length
    with pytest.raises(ValueError):
        SchubertSymbol(G13, ((1, 1),))         # not strictly increasing
    with pytest.raises(ValueError):
        SchubertSymbol(G13, ((0, 4),))         # out of range
    with pytest.raises(ValueError):
        SchubertSymbol(F012, ((2,), (0, 1)))   # nesting violated


def test_labels():
    sym = SchubertSymbol(F012, ((1,), (0, 1)))
    assert sym.label() == "⟨1;0,1⟩^2"


def test_flag012_dimensions():
    expected = {
        ((0,), (0, 1)): 0,
        ((0,), (0, 2)): 1,
        ((1,), (0, 1)): 1,
        ((1,), (1, 2)): 2,
        ((2,), (0, 2)): 2,
        ((2,), (1, 2)): 3,
    }
    for seqs, dim in expected.items():
        assert SchubertSymbol(F012, seqs).dimension() == dim


def test_g13_dimensions():
    expected = {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 3,
                (2, 3): 4}
    for seq, dim in expected.items():
        assert SchubertSymbol(G13, (seq,)).dimension() == dim


def test_counts_and_euler_characteristics():
    assert fixed_point_count(F012) == 6
    assert fixed_point_count(G13) == 6


def test_basis_sizes():
    assert [basis(G13, p).rank for p in range(5)] == [1, 1, 2, 1, 1]
    assert [basis(F012, p).rank for p in range(4)] == [1, 2, 2, 1]
    assert basis(G13, 99).rank == 0


def test_basis_is_graded_lex_ordered():
    m = basis(G13, 2)
    assert m.labels == ("⟨0,3⟩^3", "⟨1,2⟩^3")


def test_trace_phi_named_images():
    cases = [
        (((0,), (0, 1)), (0, 2)),
        (((1,), (0, 1)), (1, 2)),
        (((0,), (0, 2)), (0, 3)),
        (((1,), (1, 2)), (1, 3)),
        (((2,), (0, 2)), (1, 3)),
        (((2,), (1, 2)), (2, 3)),
    ]
    for seqs, image in cases:
        got = trace_phi(SchubertSymbol(F012, seqs))
        assert got.flag_type == G13
        assert got.sequences == (image,)


def test_trace_phi_raises_dimension_by_one():
    for ft in (F012, FlagType((0, 1), 3), FlagType((1, 2), 3)):
        for sym in all_symbols(ft):
            assert trace_phi(sym).dimension() == sym.dimension() + 1


def test_trace_phi_rejects_wrong_shape():
    with pytest.raises(ValueError):
        trace_phi(SchubertSymbol(G13, ((0, 1),)))


def test_inclusions():
    sym = SchubertSymbol(grassmannian(1, 2), ((0, 2),))
    i_img = inclusion_i(sym)
    assert i_img.flag_type == G13 and i_img.sequences == ((0, 2),)
    assert i_img.dimension() == sym.dimension()

    pt = SchubertSymbol(grassmannian(0, 2), ((1,),))
    j_img = inclusion_j(pt)
    assert j_img.flag_type == G13 and j_img.sequences == ((0, 2),)
    assert j_img.dimension() == pt.dimension()


def test_inclusions_reject_flags():
    sym = SchubertSymbol(F012, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        inclusion_i(sym)
    with pytest.raises(ValueError):
        inclusion_j(sym)


def test_symbols_of_dimension_partitions_all_symbols():
    dims = [s.dimension() for s in all_symbols(F012)]
    total = sum(len(symbols_of_dimension(F012, p)) for p in range(4))
    assert total == len(dims) == 6
