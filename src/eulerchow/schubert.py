"""Schubert symbols of flag varieties, their dimensions, and the
generator-level combinatorics of the trace and inclusion maps."""

from __future__ import annotations

import functools
import itertools

from .monoid import GradedMonoid, Record


class FlagType(Record):
    """Partial flag variety F(d_1,...,d_r; n)."""

    __slots__ = _fields = ("dims", "ambient")
    dims: tuple[int, ...]
    ambient: int

    def __post_init__(self):
        if not self.dims:
            raise ValueError("at least one dimension required")
        if any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            raise ValueError("dims must be strictly increasing")
        if self.dims[0] < 0 or self.dims[-1] > self.ambient:
            raise ValueError("dims must lie in [0, ambient]")

    @property
    def is_grassmannian(self) -> bool:
        return len(self.dims) == 1

    def __str__(self):
        if self.is_grassmannian:
            return f"G({self.dims[0]},{self.ambient})"
        return f"F({','.join(map(str, self.dims))};{self.ambient})"


def grassmannian(d: int, n: int) -> FlagType:
    return FlagType((d,), n)


class SchubertSymbol(Record):
    """Nested strictly increasing index sequences naming a Schubert class."""

    __slots__ = _fields = ("flag_type", "sequences")
    flag_type: FlagType
    sequences: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ft = self.flag_type
        if len(self.sequences) != len(ft.dims):
            raise ValueError("one sequence per flag dimension required")
        for d, seq in zip(ft.dims, self.sequences):
            if len(seq) != d + 1:
                raise ValueError(f"sequence {seq} must have length {d + 1}")
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ValueError(f"sequence {seq} must strictly increase")
            if seq[0] < 0 or seq[-1] > ft.ambient:
                raise ValueError(f"entries of {seq} must lie in [0, ambient]")
        for inner, outer in zip(self.sequences, self.sequences[1:]):
            if not set(inner) <= set(outer):
                raise ValueError(
                    f"nesting violated: {inner} is not contained in {outer}")

    def dimension(self) -> int:
        """Sum of (a_j - j), omitting entries repeated from the previous
        sequence."""
        total = 0
        prev: set[int] = set()
        for seq in self.sequences:
            for j, a in enumerate(seq):
                if a not in prev:
                    total += a - j
            prev = set(seq)
        return total

    def label(self) -> str:
        body = ";".join(",".join(map(str, seq)) for seq in self.sequences)
        return f"⟨{body}⟩^{self.flag_type.ambient}"


@functools.cache
def all_symbols(ft: FlagType) -> tuple[SchubertSymbol, ...]:
    """Every valid symbol of the flag type, ordered by sequence tuples.

    The sequences are chosen one level at a time, outermost first, each
    from the entries of the sequence chosen around it; the outermost
    chooses from 0..ambient, which each partial symbol carries last.
    Built once per flag type: the result is a tuple of frozen symbols,
    so no caller can change what the next one gets."""
    partial = [(tuple(range(ft.ambient + 1)),)]
    for d in reversed(ft.dims):
        partial = [(seq,) + outer for outer in partial
                   for seq in itertools.combinations(outer[0], d + 1)]
    return tuple(SchubertSymbol(ft, seqs[:-1]) for seqs in sorted(partial))


def symbols_of_dimension(ft: FlagType, p: int) -> list[SchubertSymbol]:
    return [s for s in all_symbols(ft) if s.dimension() == p]


def basis(ft: FlagType, p: int) -> GradedMonoid:
    """Free weight-1 monoid on the symbols of dimension p (rank 0 if none)."""
    return GradedMonoid.free([s.label() for s in symbols_of_dimension(ft, p)])


def fixed_point_count(ft: FlagType) -> int:
    """Number of Schubert symbols = Euler characteristic of the variety."""
    return len(all_symbols(ft))


def trace_phi(sym: SchubertSymbol) -> SchubertSymbol:
    """Trace-map image in G(d, n) of a symbol of F(d-1, d; n-1).

    The first sequence, nested in the second and one shorter, omits
    exactly one entry of it; that entry and all later ones are shifted up
    by one.
    """
    ft = sym.flag_type
    if len(ft.dims) != 2 or ft.dims[1] != ft.dims[0] + 1:
        raise ValueError(f"expected a symbol of F(d-1, d; n-1), got {ft}")
    short, full = sym.sequences
    (omitted,) = set(full) - set(short)
    j = full.index(omitted)
    image = full[:j] + tuple(a + 1 for a in full[j:])
    return SchubertSymbol(grassmannian(ft.dims[1], ft.ambient + 1), (image,))


def inclusion_i(sym: SchubertSymbol) -> SchubertSymbol:
    """Image under G(d, n-1) -> G(d, n): same indices, larger ambient."""
    ft = sym.flag_type
    if not ft.is_grassmannian:
        raise ValueError("expected a Grassmannian symbol")
    return SchubertSymbol(grassmannian(ft.dims[0], ft.ambient + 1),
                          sym.sequences)


def inclusion_j(sym: SchubertSymbol) -> SchubertSymbol:
    """Image under G(d-1, n-1) -> G(d, n) via the ruled join with a point."""
    ft = sym.flag_type
    if not ft.is_grassmannian:
        raise ValueError("expected a Grassmannian symbol")
    image = (0,) + tuple(a + 1 for a in sym.sequences[0])
    return SchubertSymbol(grassmannian(ft.dims[0] + 1, ft.ambient + 1),
                          (image,))
