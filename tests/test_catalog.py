import pytest

from radact.catalog import (
    Catalog,
    parse_act,
    parse_monoid,
    parse_radical_table,
    print_act,
    print_monoid,
    print_radical_table,
)
from radact.congruence import parse_partition
from radact.errors import CatalogValidationError, ParseError


E2_TEXT = """monoid E2
elements 2
identity 0
table
0 1
1 1
"""

R2_TEXT = """act R2 over E2
elements 2
action
0 1
1 1
"""


def test_monoid_round_trip():
    m = parse_monoid(E2_TEXT)
    assert print_monoid(m) == E2_TEXT
    assert parse_monoid(print_monoid(m)) == m


def test_act_round_trip():
    m = parse_monoid(E2_TEXT)
    a = parse_act(R2_TEXT, {"E2": m})
    assert print_act(a) == R2_TEXT
    assert parse_act(print_act(a), {"E2": m}) == a


def test_universe_catalog_round_trips(U):
    for monoid in U.monoids:
        assert parse_monoid(print_monoid(monoid)) == monoid
    names = {m.name: m for m in U.monoids}
    for act in U.acts[:40]:
        assert parse_act(print_act(act), names) == act


def test_comments_and_blank_lines():
    text = "# header\n\nmonoid T1  # inline\nelements 1\nidentity 0\ntable\n0\n"
    m = parse_monoid(text)
    assert m.size == 1 and m.name == "T1"


def test_truncated_table():
    text = "monoid E2\nelements 2\nidentity 0\ntable\n0 1\n"
    with pytest.raises(ParseError) as err:
        parse_monoid(text)
    assert "row" in str(err.value)


def test_wrong_keyword():
    with pytest.raises(ParseError):
        parse_monoid("monoidd X\nelements 1\nidentity 0\ntable\n0\n")


def test_row_width_error_reports_line():
    text = "monoid E2\nelements 2\nidentity 0\ntable\n0 1\n1\n"
    with pytest.raises(ParseError) as err:
        parse_monoid(text)
    assert err.value.line == 6


def test_invalid_monoid_is_validation_error():
    text = "monoid B\nelements 2\nidentity 1\ntable\n0 1\n1 0\n"
    with pytest.raises(CatalogValidationError):
        parse_monoid(text)


def test_act_unknown_monoid():
    with pytest.raises(ParseError):
        parse_act(R2_TEXT, {})


def test_invalid_act_is_validation_error():
    m = parse_monoid(E2_TEXT)
    bad = "act X over E2\nelements 2\naction\n0 1\n1 0\n"
    with pytest.raises(CatalogValidationError):
        parse_act(bad, {"E2": m})


def test_radical_table_round_trip():
    m = parse_monoid(E2_TEXT)
    a = parse_act(R2_TEXT, {"E2": m})
    text = "radical demo extensional\nact R2 partition 0 1\n"
    name, table = parse_radical_table(text, {"R2": a})
    assert name == "demo"
    assert str(table[a]) == "0 1"
    assert print_radical_table(name, table) == text
    again = parse_radical_table(print_radical_table(name, table), {"R2": a})
    assert again == (name, table)


def test_radical_table_round_trip_with_partition_in_act_name():
    # the blocks are read after the keyword, not after the first
    # "partition" in the line
    m = parse_monoid(E2_TEXT)
    a = parse_act(R2_TEXT.replace("R2", "Rpartition"), {"E2": m})
    table = {a: parse_partition(a, "0 1")}
    text = print_radical_table("demo", table)
    assert text == "radical demo extensional\nact Rpartition partition 0 1\n"
    assert parse_radical_table(text, {"Rpartition": a}) == ("demo", table)


def test_radical_table_bad_partition():
    m = parse_monoid(E2_TEXT)
    a = parse_act(R2_TEXT, {"E2": m})
    with pytest.raises(ParseError):
        parse_radical_table(
            "radical demo extensional\nact R2 partition 0 | 1 2\n", {"R2": a}
        )


def test_catalog_dir_loading(tmp_path):
    (tmp_path / "E2.monoid").write_text(E2_TEXT)
    (tmp_path / "R2.act").write_text(R2_TEXT)
    (tmp_path / "r.radical").write_text(
        "radical demo extensional\nact R2 partition 0 1\n"
    )
    c = Catalog()
    c.load_dir(str(tmp_path))
    # a catalog holds monoids and acts; radical tables load only through
    # the command line's --radical-file
    assert list(c.monoids) == ["E2"] and list(c.acts) == ["R2"]
    assert vars(c).keys() == {"monoids", "acts"}


def test_catalog_rejects_unknown_file(tmp_path):
    path = tmp_path / "junk.act"
    path.write_text("whatever content\n")
    c = Catalog()
    with pytest.raises(ParseError):
        c.load_file(str(path))


@pytest.mark.parametrize("kind, text, line, message", [
    ("monoid", "monoid E2\nelements 2 3\n", 2, "elements takes one value"),
    ("monoid", "monoid E2\nelements two\n", 2,
     "elements needs an integer, got 'two'"),
    ("monoid", "monoid E2\nelements 2\nidentity 0\ntable\n0 x\n1 1\n", 5,
     "non-integer entry in table row"),
    ("monoid", "monoid E 2\n", 1, "monoid takes one name"),
    ("monoid", E2_TEXT + "# the end\n1 1\n", 8, "trailing content"),
    ("act", "act R2 of E2\n", 1, "expected: act <name> over <monoid>"),
    ("act", R2_TEXT + "\n0 0\n", 7, "trailing content"),
    ("radical", "radical demo\n", 1, "expected: radical <name> extensional"),
    ("radical", "radical demo extensional\nact R2 blocks 0 1\n", 2,
     "expected: act <name> partition <blocks>"),
    ("radical", "radical demo extensional\nact R3 partition 0 1\n", 2,
     "unknown act 'R3'"),
    ("radical", "radical demo extensional\nact R2 partition 0 | 1\n"
     "act R2 partition 0 1\n", 3, "act 'R2' already has an entry"),
    # R2b is R2 under another catalog name: one act, so one entry
    ("radical", "radical demo extensional\nact R2 partition 0 | 1\n"
     "act R2b partition 0 1\n", 3, "act 'R2b' already has an entry"),
])
def test_catalog_refusals(kind, text, line, message):
    e2 = parse_monoid(E2_TEXT)
    r2 = parse_act(R2_TEXT, {"E2": e2})
    r2b = parse_act(R2_TEXT.replace("R2", "R2b"), {"E2": e2})
    parse = {
        "monoid": parse_monoid,
        "act": lambda t: parse_act(t, {"E2": e2}),
        "radical": lambda t: parse_radical_table(t, {"R2": r2, "R2b": r2b}),
    }[kind]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"
