"""The report's field table: the block's checks read from it which numbers
must be finite and the intervals and their containments, and README lists
its fields."""

import re
from pathlib import Path

import pytest

from mrdd.bounds import TypeAssumption
from mrdd.report import BLOCK_FIELDS, _check_finite, _check_sets

README = Path(__file__).resolve().parents[1] / "README.md"
INTERVALS = [field.name for field in BLOCK_FIELDS if field.kind == "interval"]
CONTAINMENTS = [(field.name, field.contains) for field in BLOCK_FIELDS if field.contains]
NUMERIC = [field for field in BLOCK_FIELDS if field.kind in ("number", "interval")]


def valid_block() -> dict:
    """A block whose numbers are finite and whose intervals pass every check,
    each inside the one that must contain it."""
    block = {field.name: 0.5 if field.kind == "number" else None for field in BLOCK_FIELDS}
    block.update(identified_set=[-0.1, 0.1], sharp_set=[-0.05, 0.05], fuzzy_set=[0.0, 0.2],
                 ci_fixed_r=[-0.3, 0.3], ci_random_r=[-0.4, 0.4])
    return block


@pytest.mark.parametrize("assumption", list(TypeAssumption))
def test_valid_block_passes(assumption):
    _check_sets(valid_block(), assumption, 0.0, 1.0)


@pytest.mark.parametrize("name", INTERVALS)
def test_crossed_interval_raises(name):
    block = valid_block()
    block[name] = [0.5, -0.5]
    with pytest.raises(RuntimeError, match=rf"^{name} \[0\.5, -0\.5\] has its lower end above its upper end$"):
        _check_sets(block, TypeAssumption.TYPE2, 0.0, 1.0)


@pytest.mark.parametrize("assumption", list(TypeAssumption))
@pytest.mark.parametrize("end", [0, 1], ids=["lower", "upper"])
@pytest.mark.parametrize("outer, inner", CONTAINMENTS)
def test_interval_outside_its_container_raises(outer, inner, end, assumption):
    # the container's end moves inside the contained one's; the type-2 sharp
    # set need not lie inside another model's identified set
    block = valid_block()
    block[outer][end] = block[inner][end] + (0.01 if end == 0 else -0.01)
    if inner == "sharp_set" and assumption not in (TypeAssumption.TYPE2, TypeAssumption.MIXED):
        _check_sets(block, assumption, 0.0, 1.0)
        return
    with pytest.raises(RuntimeError, match=rf"^{outer} \[.*\] does not contain {inner} \[.*\]$"):
        _check_sets(block, assumption, 0.0, 1.0)


def test_null_interval_or_non_finite_end_is_not_compared():
    # the report writes both as null
    block = valid_block()
    block["ci_fixed_r"] = None
    block["identified_set"] = [-0.1, float("nan")]
    _check_sets(block, TypeAssumption.TYPE2, 0.0, 1.0)


def non_finite(block: dict, name: str, bad: float) -> None:
    """Set the number ``name`` of ``block``, or its interval's upper end, to ``bad``."""
    block[name] = [block[name][0], bad] if isinstance(block[name], list) else bad


def test_valid_block_is_finite():
    _check_finite(valid_block())


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", [field.name for field in NUMERIC if not field.nullable])
def test_non_finite_field_raises(name, bad):
    block = valid_block()
    non_finite(block, name, bad)
    with pytest.raises(RuntimeError, match=rf"^{name} .* is not finite$"):
        _check_finite(block)


@pytest.mark.parametrize("name", [field.name for field in NUMERIC if field.nullable])
def test_nullable_field_may_be_non_finite(name):
    # the report writes it as null
    block = valid_block()
    non_finite(block, name, float("nan"))
    _check_finite(block)


def test_readme_lists_the_table():
    # name, type and whether it may be null, in the table's order: a field
    # added to the table and not to README fails here
    rows = re.findall(r"^\| `(\w+)` \| (\w+) \| (yes|no) \|$", README.read_text(), flags=re.M)
    assert rows == [(field.name, field.kind, "yes" if field.nullable else "no") for field in BLOCK_FIELDS]
