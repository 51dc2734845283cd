import argparse

import pytest

from radact.catalog import print_act, print_monoid, print_radical_table
from radact.cli import build_parser
from radact.core import validate_act, validate_monoid
from radact.universe import default_universe


@pytest.fixture(scope="session")
def U():
    """The default verification universe, shared across the whole run."""
    return default_universe()


@pytest.fixture(scope="session")
def T1():
    return validate_monoid([[0]], 0, "T1")


@pytest.fixture(scope="session")
def E2():
    return validate_monoid([[0, 1], [1, 1]], 0, "E2")


@pytest.fixture(scope="session")
def Z2():
    return validate_monoid([[0, 1], [1, 0]], 0, "Z2")


@pytest.fixture(scope="session")
def R2(E2):
    """Left regular act of E2: element 0 is the identity, 1 the idempotent."""
    return validate_act(E2, [[0, 1], [1, 1]], "R2")


@pytest.fixture(scope="session")
def C2(Z2):
    """The free two-point orbit over the two-element group: no zeros."""
    return validate_act(Z2, [[0, 1], [1, 0]], "C2")


@pytest.fixture(scope="session")
def command_flags():
    """Each radact command's flags, as its subparser accepts them
    (``--help`` aside): command -> {flag: the attribute it sets}."""
    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag: action.dest for action in p._actions
               for flag in action.option_strings
               if not isinstance(action, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }


@pytest.fixture(scope="session")
def rg_copy_catalog(tmp_path_factory):
    """A catalog directory of E2, its left regular act R2 and every monoid
    and act of a small universe; a radical table file named ``copy`` that
    gives rG's value on each act of that universe; and the universe's
    bounds, as flags.  Shared by the whole run, so read it only."""
    tmp_path = tmp_path_factory.mktemp("rg_copy")
    bounds = {"--monoid-max": "2", "--act-max": "2", "--hull-bound": "3",
              "--con-bound": "3"}
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    (catalog / "E2.monoid").write_text(
        "monoid E2\nelements 2\nidentity 0\ntable\n0 1\n1 1\n"
    )
    (catalog / "R2.act").write_text(
        "act R2 over E2\nelements 2\naction\n0 1\n1 1\n"
    )
    u = default_universe(*map(int, bounds.values()))
    for monoid in u.monoids:
        (catalog / f"{monoid.name}.monoid").write_text(print_monoid(monoid))
    for act in u.acts:
        (catalog / f"{act.name}.act").write_text(print_act(act))
    rg = u.radical("rG")
    radical_file = tmp_path / "copy.radical"
    radical_file.write_text(
        print_radical_table("copy", {act: rg.of(act) for act in u.acts})
    )
    return catalog, radical_file, bounds
