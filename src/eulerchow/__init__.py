"""Euler-Chow series of projective varieties via monoid rings."""

from .monoid import (GradedMonoid, MonoidMismatchError, MonoidMorphism,
                     compose)
from .schubert import (FlagType, SchubertSymbol, all_symbols, basis,
                       fixed_point_count, grassmannian, inclusion_i,
                       inclusion_j, symbols_of_dimension, trace_phi)
from .series import (FormalSeries, RationalSeries, TruncationError,
                     convolve, one, pullback, pushforward)
from .catalog import (EulerChowResult, UnsupportedRequestError,
                      VarietyDescriptor, VerificationError, euler_chow,
                      parse_descriptor)

__version__ = "0.1.0"

__all__ = [
    "GradedMonoid", "MonoidMismatchError", "MonoidMorphism", "compose",
    "FlagType", "SchubertSymbol", "all_symbols", "basis",
    "fixed_point_count", "grassmannian", "inclusion_i", "inclusion_j",
    "symbols_of_dimension", "trace_phi", "FormalSeries", "RationalSeries",
    "TruncationError", "convolve", "one", "pullback", "pushforward",
    "EulerChowResult",
    "UnsupportedRequestError", "VarietyDescriptor", "VerificationError",
    "euler_chow", "parse_descriptor",
]
