"""Error channels as input-preserving transducers, and the block codes that
detect or correct them: exact property checks, maximality indices, and
randomized near-maximal code generation."""

from .automata import (
    Alphabet,
    BINARY,
    Dfa,
    Nfa,
    Trellis,
    Word,
    as_trellis,
    format_word,
    trellis_from_words,
    universe_trellis,
)
from .channels import (
    Channel,
    channel_from_spec,
    make_bsid,
    make_del1_insend,
    make_id,
    make_ins1_delend,
    make_overlap,
    make_segd,
    make_sub,
    parse_channel,
    registry_names,
    serialize_channel,
)
from .codegen import GenReport, NextWord, make_code, next_word, trial_bound
from .errors import (
    AlphabetMismatchError,
    ChancodesError,
    EmptyLanguageError,
    FormatError,
    NotDetectingError,
    ParameterError,
    WordError,
)
from .properties import (
    Witness,
    correction_witness,
    detection_witness,
    maximality_index,
    maximality_witness,
)
from .transducers import Transducer, product
from .universes import (
    is_overlap_free,
    overlap_free_trellis,
    overlap_free_words,
    suffix_universe,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BINARY", "Channel", "Dfa", "GenReport", "Nfa", "NextWord",
    "Transducer", "Trellis", "Witness", "Word",
    "as_trellis", "channel_from_spec", "correction_witness",
    "detection_witness", "format_word", "is_overlap_free",
    "make_bsid", "make_code", "make_del1_insend", "make_id",
    "make_ins1_delend", "make_overlap", "make_segd", "make_sub",
    "maximality_index", "maximality_witness", "next_word",
    "overlap_free_trellis", "overlap_free_words", "parse_channel", "product",
    "registry_names", "serialize_channel", "suffix_universe",
    "trellis_from_words", "trial_bound", "universe_trellis",
    "AlphabetMismatchError", "ChancodesError", "EmptyLanguageError",
    "FormatError", "NotDetectingError", "ParameterError", "WordError",
]
