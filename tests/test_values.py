"""The package's value classes are immutable slotted values: assigning or
deleting a field raises AttributeError, ``==`` and ``hash`` skip the
fields that only describe a value (a row's provenance, a basis's column
index), ``replace`` builds a checked copy, a pickle round trip gives an
equal value, a sequence field given as a list is stored as a tuple, and
``repr`` and the cache line of a record are the text
written before the classes were slotted."""

import pickle
import re
from datetime import datetime, timedelta, timezone

import pytest

from strutforge.bases import Basis, BasisSpec, enumerate_y_basis
from strutforge.counting import count_report
from strutforge.diagrams import (
    CanonicalDiagram,
    Diagram,
    Mode,
    TreeComponent,
    canonicalize_component,
    strut,
    y_tree,
)
from strutforge.errors import DomainError, StructuralError, Value
from strutforge.linalg import RankResult, SparseMatrix
from strutforge.pipeline import ResultCache, compute_dimension
from strutforge.records import ResultRecord
from strutforge.relations import RelationRow

H = Mode.HOMOTOPY

RECORD = {
    "mode": "homotopy", "space": "y", "k": 4, "param": 1, "num_diagrams": 24,
    "num_relations_raw": 36, "num_relations_effective": 30, "rank": 24,
    "quotient_dim": 0, "primes": (2147483647,), "elapsed_ms": 3,
    "tool_version": "0.1.0", "timestamp": "2026-10-19T12:01:30+00:00",
    "certified": True,
}
RECORD_LINE = (
    '{"mode": "homotopy", "space": "y", "k": 4, "param": 1, "num_diagrams": 24, '
    '"num_relations_raw": 36, "num_relations_effective": 30, "rank": 24, '
    '"quotient_dim": 0, "primes": [2147483647], "elapsed_ms": 3, '
    '"tool_version": "0.1.0", "timestamp": "2026-10-19T12:01:30+00:00", '
    '"certified": true}')
RECORD_REPR = (
    "ResultRecord(mode='homotopy', space='y', k=4, param=1, num_diagrams=24, "
    "num_relations_raw=36, num_relations_effective=30, rank=24, quotient_dim=0, "
    "primes=(2147483647,), elapsed_ms=3, tool_version='0.1.0', "
    "timestamp='2026-10-19T12:01:30+00:00', certified=True)")


def _basis():
    return enumerate_y_basis(3, 1, H)


# name -> (value, a value equal to it whose uncompared fields differ,
#          changes to compared fields that make a different value)
CASES = {
    "ResultRecord": (lambda: ResultRecord(**RECORD), lambda: ResultRecord(**RECORD),
                     {"rank": 23, "quotient_dim": 1}),
    "BasisSpec": (lambda: BasisSpec(H, 4, "y", 1), lambda: BasisSpec(H, 4, "y", 1),
                  {"param": 2}),
    "Basis": (_basis, lambda: Basis(_basis().spec, _basis().elements, {}),
              {"elements": ()}),
    "TreeComponent": (lambda: y_tree(1, 2, 3), lambda: y_tree(1, 2, 3),
                      {"colors": (1, 2, 4, 0)}),
    "Diagram": (lambda: Diagram((strut(1, 2),), H, 3), lambda: Diagram((strut(1, 2),), H, 3),
                {"k": 4}),
    "CanonicalDiagram": (lambda: CanonicalDiagram(b"\x01\x02", 1),
                         lambda: CanonicalDiagram(b"\x01\x02", 1), {"sign": -1}),
    "SparseMatrix": (lambda: SparseMatrix((RelationRow(((0, 1),)),), 2),
                     lambda: SparseMatrix((RelationRow(((0, 1),), "other"),), 2),
                     {"num_cols": 3}),
    "RankResult": (lambda: RankResult(1, (7,), True, 0), lambda: RankResult(1, (7,), True, 0),
                   {"certified": True}),
    "RelationRow": (lambda: RelationRow(((0, 1), (2, -1)), "a"),
                    lambda: RelationRow(((0, 1), (2, -1)), "b"), {"entries": ((1, 2),)}),
    "CountReport": (lambda: count_report(1, 4), lambda: count_report(1, 4), {"u": 0}),
}
NAMES = sorted(CASES)


@pytest.mark.parametrize("name", NAMES)
def test_a_value_is_slotted_and_of_its_class(name):
    value = CASES[name][0]()
    assert type(value).__name__ == name and isinstance(value, Value)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", NAMES)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    value = CASES[name][0]()
    for field in type(value).__slots__:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash_skip_the_uncompared_fields(name):
    make, make_equal, changes = CASES[name]
    value, equal = make(), make_equal()
    assert value == equal and not value != equal
    assert hash(value) == hash(equal)
    different = value.replace(**changes)
    assert value != different and not value == different
    assert value.__eq__(object()) is NotImplemented
    assert value != object()


def test_repr_hides_the_basis_index_but_shows_provenance():
    assert repr(_basis()).startswith("Basis(spec=BasisSpec(") and "index" not in repr(_basis())
    assert repr(RelationRow(((0, 1),), "a")) == "RelationRow(entries=((0, 1),), provenance='a')"


@pytest.mark.parametrize("name", NAMES)
def test_replace_changes_only_the_named_fields(name):
    make, _, changes = CASES[name]
    value = make()
    changed = value.replace(**changes)
    assert type(changed) is type(value)
    for field in type(value).__slots__:
        expected = changes[field] if field in changes else getattr(value, field)
        assert getattr(changed, field) == expected
    assert value == make()
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)


def test_replace_runs_the_checks_of_a_new_value():
    with pytest.raises(DomainError):
        BasisSpec(H, 4, "y", 1).replace(space="weird")
    with pytest.raises(StructuralError):
        y_tree(1, 2, 3).replace(colors=(1, 2, 3))
    with pytest.raises(DomainError):
        RelationRow(((0, 1),)).replace(entries=((0, 0),))
    with pytest.raises(DomainError):
        RankResult(1, (7,), True, 0).replace(rank=-1)


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip(name):
    value = CASES[name][0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert type(again) is type(value) and again == value
        for field in type(value).__slots__:
            assert getattr(again, field) == getattr(value, field)


def test_list_fields_are_stored_as_tuples():
    # (built from lists, its twin built from tuples)
    pairs = [
        (BasisSpec(H, 3, "full", 3, [2, 2, 1]), BasisSpec(H, 3, "full", 3, (2, 2, 1))),
        (TreeComponent([[1], [0]], [1, 2]), TreeComponent(((1,), (0,)), (1, 2))),
        (Diagram([strut(1, 2)], H, 3), Diagram((strut(1, 2),), H, 3)),
    ]
    for listed, twin in pairs:
        assert listed == twin and hash(listed) == hash(twin)
        assert pickle.loads(pickle.dumps(listed)) == twin
    assert canonicalize_component(pairs[1][0], H) == (b"\x01\x02", 1)


def test_canonical_diagrams_order_by_encoding_then_sign():
    values = [CanonicalDiagram(b"\x01\x02", 1), CanonicalDiagram(b"", 0),
              CanonicalDiagram(b"\x01\x02", -1), CanonicalDiagram(b"\x01\x01", 1)]
    assert sorted(values) == sorted(values, key=lambda v: (v.encoding, v.sign))
    low, high = CanonicalDiagram(b"\x01\x02", -1), CanonicalDiagram(b"\x01\x02", 1)
    assert low < high and low <= high and high > low and high >= low
    assert low <= low and low >= low and not low < low
    with pytest.raises(TypeError):
        low < (b"\x01\x02", 1)


def test_record_repr_and_cache_line_are_unchanged():
    record = ResultRecord(**RECORD)
    assert repr(record) == RECORD_REPR
    assert record.to_json() == RECORD_LINE
    assert ResultRecord.from_json(RECORD_LINE) == record


def test_record_fields_are_given_in_order_or_by_keyword():
    with pytest.raises(TypeError, match="missing field 'timestamp'"):
        ResultRecord(**{k: v for k, v in RECORD.items() if k != "timestamp"})
    with pytest.raises(TypeError, match="no field"):
        ResultRecord(**RECORD, extra=1)
    assert ResultRecord(**{k: v for k, v in RECORD.items() if k != "certified"}).certified is False
    values = list(RECORD.values())
    assert ResultRecord(*values) == ResultRecord(**RECORD)
    assert ResultRecord(*values[:4], **dict(list(RECORD.items())[4:])) == ResultRecord(**RECORD)
    assert ResultRecord(*values[:-1]).certified is False
    with pytest.raises(TypeError, match="takes 14 fields, got 15"):
        ResultRecord(*values, True)
    with pytest.raises(TypeError, match="field 'mode' twice"):
        ResultRecord(*values, mode="homotopy")


def test_a_line_written_before_certified_existed_still_loads(tmp_path):
    old_line = RECORD_LINE.replace(', "certified": true', "")
    assert "certified" not in old_line
    expected = ResultRecord(**{**RECORD, "certified": False})
    assert ResultRecord.from_json(old_line) == expected
    (tmp_path / "results.jsonl").write_text(old_line + "\n", encoding="utf-8")
    assert ResultCache(tmp_path).lookup(H, "y", 4, 1, "0.1.0") == expected


def test_a_record_is_stamped_with_utc_to_the_second():
    before = datetime.now(timezone.utc).replace(microsecond=0)
    stamp = compute_dimension(H, "y", 3, 0).timestamp
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert before <= datetime.fromisoformat(stamp) <= after + timedelta(seconds=1)
