"""Generator-and-verifier laboratory for permutation-hiding layered graphs,
hidden-permutation communication instances, hard matching streams, and the
numeric analysis toolkit behind them."""

__version__ = "0.1.0"

from .gen import GenParams, default_params, gen_general, gen_simple, vertex_count
from .graphs import LayeredGraph, basic, concat_all, extract_permutation
from .perms import compose, identity, inverse, join, lex_partition, vec
from .rs import RSGraph, trivial_rs, validate_rs

__all__ = [
    "GenParams",
    "LayeredGraph",
    "RSGraph",
    "__version__",
    "basic",
    "compose",
    "concat_all",
    "default_params",
    "extract_permutation",
    "gen_general",
    "gen_simple",
    "identity",
    "inverse",
    "join",
    "lex_partition",
    "trivial_rs",
    "validate_rs",
    "vec",
    "vertex_count",
]
