"""Genetic-code tables as exact magic squares.

Reconstructs the canonical nucleotide-word tables, renders them under
three numeral notations, and verifies their magic, bimagic, Latin,
Hamming/binomial, entropy, and restriction-enzyme properties with exact
integer and rational arithmetic.

The public names in ``__all__`` load on first use: reading one imports
only the submodule that defines it, so ``genemagic list`` never imports
the entropy or Hamming code.
"""

__version__ = "0.1.0"

#: Each public name and the submodule that defines it, in ``__all__`` order.
_SOURCES = {
    "ANTIPARALLEL_PAIRS": "enzymes",
    "CANONICAL_IDS": "tables",
    "ENZYME_TABLE": "enzymes",
    "GENETIC_CODE": "encoding",
    "MAX_WORD_LEN": "encoding",
    "BlockSums": "magic",
    "DataError": "errors",
    "DomainError": "errors",
    "EntropyReport": "entropy",
    "EnzymeRecord": "enzymes",
    "FrequencyTable": "hamming",
    "GenemagicError": "errors",
    "GrayPair": "encoding",
    "Grid": "tables",
    "LatinVerdict": "structure",
    "MagicReport": "magic",
    "Notation": "encoding",
    "NumericGrid": "magic",
    "OrderIndex": "entropy",
    "ParseError": "errors",
    "PreconditionError": "errors",
    "ProbabilityGrid": "entropy",
    "RangeError": "errors",
    "Region": "structure",
    "ShapeError": "errors",
    "WeightGrid": "hamming",
    "all_words": "encoding",
    "analyze": "magic",
    "antiparallel_check": "enzymes",
    "balance_report": "hamming",
    "bit_string": "encoding",
    "block_locality_check": "enzymes",
    "block_report": "magic",
    "classify": "enzymes",
    "complement": "encoding",
    "digit_string": "encoding",
    "divisibility_facts": "magic",
    "encode": "encoding",
    "entropy_term": "entropy",
    "frequency_distribution": "hamming",
    "gray_pair": "encoding",
    "hamming_weight": "encoding",
    "latin_square_check": "structure",
    "load_canonical": "tables",
    "monomial": "hamming",
    "normalize": "entropy",
    "numeric_grid": "magic",
    "order_index": "entropy",
    "orientation_sums": "enzymes",
    "orthogonality_check": "structure",
    "parse_grid": "tables",
    "parse_word": "encoding",
    "place_letters": "structure",
    "place_permutation_report": "structure",
    "rect_block_report": "magic",
    "serialize_grid": "tables",
    "shannon_report": "entropy",
    "standard_regions": "structure",
    "translate": "encoding",
    "weight_grid": "hamming",
    "xor_letter_grid": "structure",
    "xor_reduce": "encoding",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    """Import the submodule behind a public name, and keep the name here for the next read."""
    source = _SOURCES.get(name)
    if source is None and name not in _SOURCES.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows the submodule on its
    # own line under -X importtime; a non-empty fromlist returns the submodule
    module = __import__(f"{__name__}.{source or name}", fromlist=["*"])
    if source is None:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
