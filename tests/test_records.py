"""The public records: validation on every construction path, immutability,
and the tuple behaviour they share."""

import copy
import pickle

import pytest

from pqtrig import (
    CounterexampleResult,
    DomainError,
    ExtendedValue,
    GridAxis,
    InequalityVerdict,
    PQParams,
    QuadratureResult,
    SweepError,
    SweepReport,
    Witness,
)

# record, valid fields, the field to spoil, a bad value for it, the message
VALIDATED = [
    (PQParams, {"p": 2.0, "q": 3.0}, "p", 0.5, "p must be a finite real exceeding 1"),
    (ExtendedValue, {"value": 2.5}, "value", -1.0, "must be a nonnegative real"),
    (GridAxis, {"name": "x", "lo": 0.1, "hi": 0.9, "n": 5}, "n", 0, "needs n >= 1"),
]


def _forged(cls, fields):
    """A record holding ``fields`` that skipped validation, as tuple.__new__ allows."""
    return tuple.__new__(cls, tuple(fields.values()))


# each builds a record of ``cls`` holding ``fields``; ``good`` is a valid instance's fields
PATHS = {
    "positional": lambda cls, good, fields: cls(*fields.values()),
    "keyword": lambda cls, good, fields: cls(**fields),
    "_make": lambda cls, good, fields: cls._make(fields.values()),
    "_replace": lambda cls, good, fields: cls(**good)._replace(**fields),
    "_replace-forged": lambda cls, good, fields: _forged(cls, fields)._replace(),
    "pickle": lambda cls, good, fields: pickle.loads(pickle.dumps(_forged(cls, fields))),
    "pickle-protocol-0": lambda cls, good, fields: pickle.loads(
        pickle.dumps(_forged(cls, fields), protocol=0)),
    "copy": lambda cls, good, fields: copy.copy(_forged(cls, fields)),
    "deepcopy": lambda cls, good, fields: copy.deepcopy(_forged(cls, fields)),
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", VALIDATED, ids=[c[0].__name__ for c in VALIDATED])
def test_every_construction_path_validates(case, path):
    cls, good, name, bad, message = case
    build = PATHS[path]
    made = build(cls, good, good)
    assert type(made) is cls and made == cls(**good)
    with pytest.raises(DomainError, match=message):
        build(cls, good, {**good, name: bad})


FROZEN = [
    PQParams(2.0, 3.0),
    ExtendedValue(2.5),
    GridAxis("x", 0.1, 0.9, 5),
    InequalityVerdict.make(1.0, 0.5, 0.5, {"p": 2.0, "q": 3.0}),
    SweepError(0, {"p": 2.0, "q": 3.0}, "DomainError: bad"),
    Witness(0.1, 0.2, 1.0, 1.1, 0.1),
    CounterexampleResult(None, None, 0),
    QuadratureResult(1.0, 1e-13, 100, True),
]


@pytest.mark.parametrize("record", FROZEN, ids=[type(r).__name__ for r in FROZEN])
def test_assigning_an_attribute_raises(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_records_are_tuples_with_unchanged_reprs():
    pq = PQParams(2.0, 3.0)
    assert pq == (2.0, 3.0) and tuple(pq) == (2.0, 3.0) and pq[1] == 3.0
    assert repr(pq) == "PQParams(p=2.0, q=3.0)"
    assert repr(ExtendedValue.infinite()) == "ExtendedValue(value=None)"
    v = InequalityVerdict.make(1.0, 0.5, 0.5, {"p": 2.0}, tolerance=0.25)
    assert repr(v) == ("InequalityVerdict(lhs=1.0, rhs=0.5, margin=0.5, "
                       "tolerance=0.25, satisfied=True, at={'p': 2.0})")
    # a field named index shadows tuple.index
    assert SweepError(3, {}, "m").index == 3


def test_each_sweep_report_gets_its_own_lists():
    a, b = SweepReport("lemma23", None, ()), SweepReport("lemma23", None, ())
    a.verdicts.append(InequalityVerdict.make(2.0, 1.0, 1.0, {}))
    a.errors.append(SweepError(0, {}, "m"))
    assert b.verdicts == [] and b.errors == []
    a.order = 1.0  # reports stay mutable
    assert a.order == 1.0
