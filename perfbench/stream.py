"""The cli-mix command stream: a seed catalog of the default universe's
monoids and acts, written as radact catalog files, and a seeded draw of
commands over it.

Each command is a uniform draw of a command kind, then of an act, then of a
variant (radical, r-injectivity mode, cyclic subact).  About one command in
``MALFORMED_EVERY`` is a malformed ``closure``/``dense`` request instead: a
member set that is not action-closed, or a member outside the carrier.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import oracle

KINDS = (
    "congruences",
    "radical",
    "closure",
    "dense",
    "injective",
    "r-injective/criterion",
    "r-injective/universe",
    "weakly-injective",
    "hull",
    "r-hull",
    "classify",
    "enumerate",
)
RADICALS = ("rG", "t_LrG")
WITH_RADICAL = {"radical", "closure", "dense", "r-injective/criterion",
                "r-injective/universe", "r-hull", "classify"}
WITHOUT_ACT = {"classify", "enumerate"}
MALFORMED_EVERY = 20


@dataclass(frozen=True)
class Command:
    key: str  # reference key; for a malformed command, a description
    argv: tuple[str, ...]
    malformed: bool = False
    action: tuple | None = None  # the act's table, for brute-force checks


class Universe:
    """The default universe's monoids and acts, as recorded in the reference."""

    def __init__(self):
        doc = oracle.load("universe.json")
        self.monoids = doc["monoids"]
        self.acts = doc["acts"]

    def write_catalog(self, path: str):
        os.makedirs(path, exist_ok=True)
        for m in self.monoids:
            rows = "\n".join(" ".join(map(str, r)) for r in m["table"])
            _write(os.path.join(path, m["name"] + ".monoid"),
                   f"monoid {m['name']}\nelements {len(m['table'])}\n"
                   f"identity {m['identity']}\ntable\n{rows}\n")
        for a in self.acts:
            rows = "\n".join(" ".join(map(str, r)) for r in a["action"])
            _write(os.path.join(path, a["name"] + ".act"),
                   f"act {a['name']} over {a['monoid']}\n"
                   f"elements {len(a['action'][0])}\naction\n{rows}\n")


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cyclic_mask(action, a: int) -> int:
    mask = 0
    for row in action:
        mask |= 1 << row[a]
    return mask


def members_text(mask: int) -> str:
    return " ".join(str(a) for a in range(mask.bit_length()) if mask >> a & 1)


def variants(kind: str, act: dict | None, catalog: str) -> list[Command]:
    """Every well-formed command of this kind on this act."""
    base = ["--seed-catalog", catalog]
    name = act["name"] if act else None
    action = tuple(map(tuple, act["action"])) if act else None
    command, _, mode = kind.partition("/")
    radicals = RADICALS if kind in WITH_RADICAL else (None,)
    extras: list[tuple[str, list[str]]] = [("", [])]
    if command in ("closure", "dense"):
        masks = sorted({cyclic_mask(action, a) for a in range(len(action[0]))})
        extras = [(members_text(m), ["--members", members_text(m)])
                  for m in masks]
    if mode:
        extras = [("", ["--mode", mode])]
    out = []
    for r in radicals:
        for label, extra in extras:
            argv = [command] + base
            if name:
                argv += ["--act", name]
            if r:
                argv += ["--radical", r]
            argv += extra
            key = " ".join(x for x in (kind, name, r, label) if x)
            out.append(Command(key, tuple(argv), action=action))
    return out


def all_commands(universe: Universe, catalog: str) -> list[Command]:
    out = []
    for kind in KINDS:
        for act in ([None] if kind in WITHOUT_ACT else universe.acts):
            out.extend(variants(kind, act, catalog))
    return out


def malformed(rng, universe: Universe, catalog: str) -> Command:
    command = rng.choice(("closure", "dense"))
    act = rng.choice(universe.acts)
    action = act["action"]
    size = len(action[0])
    not_zero = [a for a in range(size) if cyclic_mask(action, a) != 1 << a]
    if not_zero and rng.random() < 0.5:
        members, why = str(rng.choice(not_zero)), "not closed"
    else:
        members, why = str(size + rng.randrange(3)), "out of range"
    argv = (command, "--seed-catalog", catalog, "--act", act["name"],
            "--radical", rng.choice(RADICALS), "--members", members)
    return Command(f"{command} {act['name']} members {members} ({why})",
                   argv, malformed=True)


def draw(rng, universe: Universe, catalog: str) -> Command:
    if rng.randrange(MALFORMED_EVERY) == 0:
        return malformed(rng, universe, catalog)
    kind = rng.choice(KINDS)
    act = None if kind in WITHOUT_ACT else rng.choice(universe.acts)
    return rng.choice(variants(kind, act, catalog))


def check(cmd: Command, code: int, stdout: str, stderr: str,
          reference: dict) -> tuple[bool, bool]:
    """(outcome as expected, rejected as the README says).

    A well-formed command must reproduce the reference exit code and stdout;
    a ``congruences`` listing must also equal the brute-force enumeration.  A
    malformed one must be rejected: non-zero exit and nothing on stdout.  The
    second value says whether a malformed command was rejected the README's
    way, with exit code 2 and a one-line message."""
    if cmd.malformed:
        rejected = code != 0 and stdout == ""
        lines = stderr.strip().splitlines()
        return rejected, code == 2 and len(lines) == 1
    expected = reference.get(cmd.key)
    ok = expected == [code, oracle.short_digest(stdout)]
    if ok and cmd.argv[0] == "congruences":
        ok = stdout.splitlines() == oracle.congruence_lines(cmd.action)
    return ok, True
