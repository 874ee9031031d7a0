"""The engine's NamedTuple records against their frozen-dataclass twins (oracles.TWINS), on instances
built from the whole catalog."""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from itertools import pairwise

import pytest

from logfano.catalog import CASES
from logfano.delta import _unit_constants, delta_point
from logfano.surface import flag_family, zariski_decompose
from logfano.threefold import corollary_suite
from logfano.verify import verify_all

from oracles import TWINS, as_twin


def catalog_records() -> list:
    """The report of every row at its interval's midpoint and the report's PointRows, each table's
    Ratios and Lines, each entry's CurveBounds, each model's t = 1 constants and ZariskiPieces, every
    Check of verify_all() and every CorollaryResult."""
    records: list = []
    models = {}
    for spec in CASES.values():
        for row in spec.rows:
            rep = delta_point(spec, row.d, (row.lo + row.hi) / 2)
            records += [rep, *rep.rows]
        table = spec.ratio_table
        records += [table.e, *(ratio for _, _, ratio in table.rows), *table.curves, table.lower, table.upper]
        records += spec.extra_upper_bounds
        models[spec.model] = None
    for model in models:
        records += [_unit_constants(model), zariski_decompose(model, flag_family(model, 1))]
    return records + verify_all()[0] + corollary_suite()


def test_each_record_is_its_dataclass_twin():
    by_type = defaultdict(list)
    for record in catalog_records():
        by_type[type(record)].append(record)
    assert set(by_type) == set(TWINS)
    for cls, records in by_type.items():
        fields = dataclasses.fields(TWINS[cls])
        assert cls._fields == tuple(f.name for f in fields)
        assert cls._field_defaults == {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
        twins = [as_twin(record) for record in records]
        for record, twin in zip(records, twins):
            assert repr(record) == repr(twin)
            assert [as_twin(getattr(record, name)) for name in cls._fields] == [getattr(twin, f.name) for f in fields]
            try:
                want = hash(twin)
            except TypeError:  # Lines: its ints are a mappingproxy
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == want
            for name in cls._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        for (a, b), (twin_a, twin_b) in zip(pairwise(records), pairwise(twins)):
            assert (a == b) == (twin_a == twin_b)
