"""The value semantics of the library's record types.

Every record a library call returns is an immutable value: its repr
names each field, equal fields give equal records and equal hashes,
setting or deleting an attribute raises ``AttributeError``, and it
survives ``pickle`` and ``copy``.  A ``Grid`` compares and hashes by its
cells alone, not its name.  The records are built from the canonical
tables and by hand.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from genemagic import (
    ENZYME_TABLE,
    BlockSums,
    EntropyReport,
    EnzymeRecord,
    FrequencyTable,
    Grid,
    MagicReport,
    Notation,
    NumericGrid,
    ProbabilityGrid,
    Region,
    WeightGrid,
    analyze,
    block_report,
    frequency_distribution,
    load_canonical,
    normalize,
    numeric_grid,
    shannon_report,
    standard_regions,
    weight_grid,
)

#: Field names of each record type, in constructor order.
FIELDS = {
    Grid: ("cells", "name"),
    NumericGrid: ("values", "notation", "source"),
    BlockSums: ("total", "square_total", "magic_subsquare"),
    MagicReport: (
        "grid_name", "notation", "side", "s1_rows", "s1_cols", "s1_diags",
        "s2_rows", "s2_cols", "s2_diags", "magic", "column_bimagic", "bimagic",
        "s1", "s2", "block_sums", "half_line_sums", "divisibility",
    ),
    ProbabilityGrid: ("values", "notation", "line_sum", "source"),
    EntropyReport: ("terms", "row_sums", "col_sums", "diag_sums"),
    WeightGrid: ("weights", "monomials", "word_len", "source"),
    FrequencyTable: ("word_len", "counts", "binomial", "expected"),
    EnzymeRecord: ("tetramer", "orientation", "enzyme_count"),
    Region: ("kind", "index"),
}


def records():
    """(id, record) pairs covering every type in FIELDS."""
    r4, r16 = load_canonical("R4"), load_canonical("R16")
    p4 = normalize(r4, Notation.DEC)
    yield from [
        ("grid-R4", r4),
        ("grid-R16", r16),
        ("grid-by-hand", Grid((("A",),))),
        ("grid-named-by-hand", Grid((("CA", "TG"), ("GT", "AC")), name="square")),
        ("numeric-R4", numeric_grid(r4, Notation.DEC)),
        ("numeric-R16-bin", numeric_grid(r16, Notation.BIN)),
        ("numeric-by-hand", NumericGrid(((1, 2), (3, 4)), Notation.DIGIT)),
        ("block-R16", block_report(r16, Notation.DEC, 4)[(1, 2)]),
        ("block-by-hand", BlockSums(5, 25)),
        ("report-R4", analyze(r4, Notation.DEC)),
        ("report-R16", analyze(r16, Notation.BIN)),
        ("probability-R4", p4),
        ("probability-by-hand", ProbabilityGrid(((Fraction(1),),), Notation.DEC, 1)),
        ("entropy-R4", shannon_report(p4)),
        ("entropy-by-hand", EntropyReport(((0.5,),), (0.5,), (0.5,), (0.5, 0.5))),
        ("weights-R16", weight_grid(r16)),
        ("weights-by-hand", WeightGrid(((1,),), (("a",),), 1)),
        ("frequency-R16", frequency_distribution(r16)),
        ("frequency-by-hand", FrequencyTable(1, (1, 1), (1, 1), (2, 2))),
        ("enzyme-table", ENZYME_TABLE[5]),
        ("enzyme-by-hand", EnzymeRecord("ACGT", "opposite", 2)),
        ("region-R16", standard_regions(16)[40]),
        ("region-by-hand", Region("block", (4, 1, 2))),
    ]


RECORDS = dict(records())


def fields(record):
    return {name: getattr(record, name) for name in FIELDS[type(record)]}


def test_every_record_type_is_covered():
    assert {type(record) for record in RECORDS.values()} == set(FIELDS)


@pytest.mark.parametrize("key", RECORDS)
def test_repr_names_every_field(key):
    record = RECORDS[key]
    shown = ", ".join(f"{name}={value!r}" for name, value in fields(record).items())
    assert repr(record) == f"{type(record).__name__}({shown})"


@pytest.mark.parametrize("key", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(key):
    record = RECORDS[key]
    rebuilt = type(record)(**fields(record))
    assert rebuilt == record and not rebuilt != record
    assert rebuilt is not record
    if isinstance(record, MagicReport):
        # its block and half-line sums are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(rebuilt) == hash(record)


def test_records_with_a_different_field_differ():
    r4, r16 = load_canonical("R4"), load_canonical("R16")
    assert numeric_grid(r4, Notation.DEC) != numeric_grid(r4, Notation.DIGIT)
    assert analyze(r4, Notation.DEC) != analyze(r4, Notation.BIN)
    assert BlockSums(5, 25) != BlockSums(5, 25, True)
    assert ENZYME_TABLE[0] != ENZYME_TABLE[1]
    prob = normalize(r4, Notation.DEC)
    assert prob != ProbabilityGrid(prob.values, Notation.DEC, prob.line_sum, "other")
    assert prob != ProbabilityGrid(prob.values, Notation.BIN, prob.line_sum, prob.source)
    assert weight_grid(r4) != weight_grid(r16)
    assert Grid(r4.cells) != Grid(tuple(reversed(r4.cells)))
    # a grid equals only grids, whatever else holds the same cells
    assert r4 != SimpleNamespace(cells=r4.cells, name="R4") and r4 != r4.cells
    # and a probability grid equals only probability grids
    fields = SimpleNamespace(
        values=prob.values, notation=prob.notation, line_sum=prob.line_sum, source=prob.source
    )
    assert prob != fields and prob != prob.values


def test_grid_equality_and_hash_ignore_the_name():
    r16 = load_canonical("R16")
    for name in (None, "R16", "other"):
        renamed = Grid(r16.cells, name)
        assert renamed == r16 and hash(renamed) == hash(r16)
        assert renamed.name == name
    assert len({r16, Grid(r16.cells), Grid(r16.cells, "x")}) == 1


def test_probability_grid_equality_ignores_its_derived_integers():
    prob = normalize(load_canonical("R4"), Notation.DEC)
    halves = ProbabilityGrid(prob.values, prob.notation, prob.line_sum, prob.source)
    assert halves == prob and hash(halves) == hash(prob)
    assert halves.scaled == prob.scaled
    assert "scaled" not in repr(prob)


@pytest.mark.parametrize("key", RECORDS)
def test_setting_or_deleting_an_attribute_raises(key):
    record = RECORDS[key]
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("key", RECORDS)
@pytest.mark.parametrize(
    "clone",
    [
        lambda r: pickle.loads(pickle.dumps(r)),
        lambda r: pickle.loads(pickle.dumps(r, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(key, clone):
    record = RECORDS[key]
    twin = clone(record)
    assert type(twin) is type(record)
    assert twin == record and repr(twin) == repr(record)
    assert fields(twin) == fields(record)


def test_copied_grids_keep_working():
    r16 = load_canonical("R16")
    for twin in (pickle.loads(pickle.dumps(r16)), copy.copy(r16), copy.deepcopy(r16)):
        assert twin.name == "R16"
        for notation in Notation:
            assert twin.flat_values(notation) == r16.flat_values(notation)
        assert analyze(twin, Notation.BIN) == analyze(r16, Notation.BIN)
    prob = normalize(r16, Notation.DEC)
    for twin in (pickle.loads(pickle.dumps(prob)), copy.copy(prob), copy.deepcopy(prob)):
        assert twin.scaled == prob.scaled
        assert shannon_report(twin) == shannon_report(prob)
