"""The value-record contract: validation on construction, immutability, hashing."""

import pytest

from acmsplit import generate_report
from acmsplit.incidence import CaseRecord, CatalogError
from acmsplit.resolutions import AffineExpr, parse_resolution
from conftest import ci_resolution

QUADRIC = ci_resolution(1, 1, 2)


def test_zero_coefficient_drops_the_parameter():
    expr = AffineExpr(const=1, coeff=0, param="x")
    assert expr == AffineExpr(const=1)
    assert expr.param is None


def test_coefficient_needs_a_parameter_name():
    with pytest.raises(ValueError) as info:
        AffineExpr(coeff=2)
    assert str(info.value) == "coefficient without a parameter name"


def test_case_record_refuses_c2_below_one():
    with pytest.raises(CatalogError, match=r"\(1, 0\)"):
        CaseRecord(r=4, c1=1, c2=0)


def _records():
    """A fresh resolution, case record and report row, with one field name of each."""
    res = parse_resolution(QUADRIC)
    return {
        "resolution": (res, "socle_twist"),
        "case": (CaseRecord(r=4, c1=0, c2=2, resolution=res), "c2"),
        "row": (generate_report(4).rows[0], "verdict"),
    }


@pytest.mark.parametrize("kind", ["resolution", "case", "row"])
def test_records_are_immutable(kind):
    record, field = _records()[kind]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("kind", ["resolution", "case"])
def test_records_hash_by_value(kind):
    (first, _), (second, _) = _records()[kind], _records()[kind]
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
