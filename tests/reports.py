"""Reading ``mrdd analyze``'s JSON report in the tests."""

from mrdd.report import BLOCK_FIELDS

#: The Python type ``json.loads`` gives each kind of field.
JSON_TYPES = {"integer": int, "number": float, "string": str, "boolean": bool, "object": dict, "interval": list}


def block_of(report: dict) -> dict:
    """The report's one block."""
    return report["blocks"][0]


def assert_block_matches_table(block: dict) -> None:
    """``block``, read back from JSON, has the table's fields in its order,
    each of its kind or a null the table allows."""
    assert list(block) == [field.name for field in BLOCK_FIELDS]
    for field in BLOCK_FIELDS:
        value = block[field.name]
        if value is None:
            assert field.nullable, field.name
        else:
            assert type(value) is JSON_TYPES[field.kind], (field.name, value)
            assert field.kind != "interval" or len(value) == 2, (field.name, value)
