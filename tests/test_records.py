"""The six result types are immutable named tuples: fixed fields in a fixed
order, equality and hashing by value, and a pickle round trip, which the
census pool (`workers=2`) relies on to send labels and records between
processes. FamilyLabel's validation and ordering are pinned in
test_families.py and test_classify.py, and the census bytes in
test_search.py."""

from __future__ import annotations

import json
import pickle
from itertools import combinations

import pytest

from skewopt import (
    G2, CensusRecord, CensusReport, Classification, FamilyLabel, Graph,
    NeighborhoodReport, SpectralSummary, build_family, census, classify, gi,
    neighbor_parity_report, orient_family, skew_energy, theorem_crosscheck,
)
from skewopt.cli import run

_K5 = Graph(5, list(combinations(range(5), 2)))

# each maker builds a fresh, equal value on every call, through the package
# where a function returns the type
CASES = [
    (FamilyLabel, ("kind", "param"), lambda: gi(3)),
    (Classification, ("label", "certificate"), lambda: classify(build_family(G2))),
    (SpectralSummary, ("gram_eigenvalues", "skew_energy", "upper_bound"),
     lambda: skew_energy(orient_family(G2))),
    (CensusRecord,
     ("graph6", "n", "has_optimum", "classification", "witness", "violation"),
     lambda: theorem_crosscheck(build_family(G2))),
    (CensusReport, ("records", "skipped"),
     lambda: census([build_family(G2), _K5, Graph(2, [])], 4)),
    (NeighborhoodReport, ("violations",), lambda: neighbor_parity_report(_K5)),
]


@pytest.mark.parametrize("cls, fields, make", CASES, ids=[c[0].__name__ for c in CASES])
def test_result_types_are_immutable_named_tuples(cls, fields, make, capsysbinary):
    a, b = make(), make()
    assert type(a) is cls and cls._fields == fields
    assert a is not b and a == b and hash(a) == hash(b)
    # a plain tuple of the same values compares equal
    assert a == tuple(getattr(a, name) for name in fields)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[0]))
    with pytest.raises(AttributeError):
        a.extra = None
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and copy == a
    if cls is CensusRecord:
        # cli writes each record's _asdict(): its fields are the JSON keys
        assert run(["census", "--max-n", "6"]) == 0
        records = json.loads(capsysbinary.readouterr().out)["records"]
        assert records and all(list(r) == list(fields) for r in records)
