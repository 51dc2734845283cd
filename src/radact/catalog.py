"""Line-oriented catalog files for monoids, acts, and extensional radical
tables.  '#' starts a comment, blank lines are ignored, and printing followed
by parsing is the identity on canonical files.

    monoid <name>           act <name> over <monoid>    radical <name> extensional
    elements <n>            elements <m>                act <name> partition 0 1 | 2
    identity <i>            action
    table                   <n rows of m entries>
    <n rows of n entries>

A seed catalog directory holds monoid and act files (``Catalog``); a radical
table is read only by the command line's ``--radical-file``, through
``parse_radical_table``.
"""

from __future__ import annotations

import os

from .congruence import parse_partition
from .core import FiniteAct, FiniteMonoid, validate_act, validate_monoid
from .errors import CatalogValidationError, ParseError, RadactError

MONOID_SUFFIX = ".monoid"
ACT_SUFFIX = ".act"


class _Lines:
    def __init__(self, text):
        self.items = []
        for i, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self.items.append((i, line))
        self.pos = 0

    def next(self, expected):
        if self.pos >= len(self.items):
            raise ParseError(self.items[-1][0] + 1 if self.items else 1,
                             f"expected {expected}, found end of file")
        lineno, line = self.items[self.pos]
        self.pos += 1
        return lineno, line

    def done(self) -> bool:
        return self.pos >= len(self.items)


def _keyword(lines, word):
    lineno, line = lines.next(word)
    parts = line.split()
    if parts[0] != word:
        raise ParseError(lineno, f"expected {word!r}, found {parts[0]!r}")
    return lineno, parts[1:]


def _int_field(lines, word):
    lineno, rest = _keyword(lines, word)
    if len(rest) != 1:
        raise ParseError(lineno, f"{word} takes one value")
    try:
        return int(rest[0])
    except ValueError:
        raise ParseError(lineno, f"{word} needs an integer, got {rest[0]!r}")


def _rows(lines, count, width, what):
    rows = []
    for _ in range(count):
        lineno, line = lines.next(f"a row of {what}")
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(lineno, f"non-integer entry in {what} row")
        if len(row) != width:
            raise ParseError(
                lineno, f"{what} row needs {width} entries, got {len(row)}"
            )
        for v in row:
            if not 0 <= v < width:
                raise ParseError(
                    lineno, f"{what} entry {v} outside 0..{width - 1}"
                )
        rows.append(row)
    return rows


def parse_monoid(text: str) -> FiniteMonoid:
    lines = _Lines(text)
    lineno, rest = _keyword(lines, "monoid")
    if len(rest) != 1:
        raise ParseError(lineno, "monoid takes one name")
    name = rest[0]
    n = _int_field(lines, "elements")
    identity = _int_field(lines, "identity")
    table_line, _ = _keyword(lines, "table")
    rows = _rows(lines, n, n, "table")
    if not lines.done():
        raise ParseError(lines.items[lines.pos][0], "trailing content")
    try:
        return validate_monoid(rows, identity, name)
    except RadactError as err:
        raise CatalogValidationError(table_line, f"invalid monoid {name!r}: {err}")


def parse_act(text: str, monoids: dict) -> FiniteAct:
    lines = _Lines(text)
    lineno, rest = _keyword(lines, "act")
    if len(rest) != 3 or rest[1] != "over":
        raise ParseError(lineno, "expected: act <name> over <monoid>")
    name, monoid_name = rest[0], rest[2]
    monoid = monoids.get(monoid_name)
    if monoid is None:
        raise ParseError(lineno, f"unknown monoid {monoid_name!r}")
    m = _int_field(lines, "elements")
    action_line, _ = _keyword(lines, "action")
    rows = _rows(lines, monoid.size, m, "action")
    if not lines.done():
        raise ParseError(lines.items[lines.pos][0], "trailing content")
    try:
        return validate_act(monoid, rows, name)
    except RadactError as err:
        raise CatalogValidationError(action_line, f"invalid act {name!r}: {err}")


def parse_radical_table(text: str, acts: dict) -> tuple[str, dict]:
    """Returns the radical name and a table {act: congruence}.  The table
    is keyed by act value, so an act has one entry, whatever catalog names
    its lines use: a second is refused at its line."""
    lines = _Lines(text)
    lineno, rest = _keyword(lines, "radical")
    if len(rest) != 2 or rest[1] != "extensional":
        raise ParseError(lineno, "expected: radical <name> extensional")
    name = rest[0]
    table = {}
    while not lines.done():
        lineno, line = lines.next("act entry")
        parts = line.split()
        if parts[0] != "act" or len(parts) < 4 or parts[2] != "partition":
            raise ParseError(
                lineno, "expected: act <name> partition <blocks>"
            )
        act = acts.get(parts[1])
        if act is None:
            raise ParseError(lineno, f"unknown act {parts[1]!r}")
        if act in table:
            raise ParseError(lineno, f"act {parts[1]!r} already has an entry")
        try:
            table[act] = parse_partition(act, line.split(maxsplit=3)[3])
        except (ValueError, RadactError) as err:
            raise ParseError(lineno, f"bad partition: {err}")
    return name, table


def print_monoid(monoid: FiniteMonoid) -> str:
    lines = [
        f"monoid {monoid.name}",
        f"elements {monoid.size}",
        f"identity {monoid.identity}",
        "table",
    ]
    lines += [" ".join(str(v) for v in row) for row in monoid.mul]
    return "\n".join(lines) + "\n"


def print_act(act: FiniteAct) -> str:
    lines = [
        f"act {act.name} over {act.monoid.name}",
        f"elements {act.size}",
        "action",
    ]
    lines += [" ".join(str(v) for v in row) for row in act.action]
    return "\n".join(lines) + "\n"


def print_radical_table(name: str, table: dict) -> str:
    lines = [f"radical {name} extensional"]
    for act in sorted(table, key=lambda a: a.name):
        lines.append(f"act {act.name} partition {table[act]}")
    return "\n".join(lines) + "\n"


class Catalog:
    """Named monoids and acts loaded from monoid and act files; a directory
    load ignores every other file."""

    def __init__(self):
        self.monoids: dict[str, FiniteMonoid] = {}
        self.acts: dict[str, FiniteAct] = {}

    def add_monoid(self, monoid: FiniteMonoid):
        self.monoids[monoid.name] = monoid

    def add_act(self, act: FiniteAct):
        self.acts[act.name] = act

    def load_file(self, path: str):
        with open(path) as fh:
            text = fh.read()
        lines = _Lines(text)
        kind = lines.items[0][1].split()[0] if lines.items else ""
        if kind == "monoid":
            self.add_monoid(parse_monoid(text))
        elif kind == "act":
            self.add_act(parse_act(text, self.monoids))
        else:
            raise ParseError(1, f"unrecognised catalog file {path!r}")

    def load_dir(self, path: str):
        names = sorted(os.listdir(path))
        ordered = (
            [n for n in names if n.endswith(MONOID_SUFFIX)]
            + [n for n in names if n.endswith(ACT_SUFFIX)]
        )
        for name in ordered:
            self.load_file(os.path.join(path, name))
