"""Source hygiene.

Imports: every name a module imports is used in that module.  A side-effect
import is allowed when its line carries a ``# noqa`` comment (the verifier
imports the checkers to register them).  The package's ``__init__``
re-exports names and is not checked.

Definitions: every function, class and method defined in the package (dunders
excepted) is named somewhere besides its own definition, in the package or in
the tests.

Parameters: every parameter of a function defined in the package is read in
its body.  Exempt are dunders, the checker callables passed to ``register``
(the verifier calls them with a fixed signature) and the owner argument of a
``memo_on`` function, which holds the memo.

State: no module of the package binds a mutable container at module level,
so that no cache outlives the universe it belongs to.  The checker registries
``THEOREMS`` and ``AXIOMS`` are the only exceptions.

Lattice: only the functions named in the ``congruence`` module docstring
build a full congruence lattice (call ``all_congruences``), and only
``all_congruences`` raises ``SizeBound``; everything else is built from
principal congruences and takes no lattice bound.

Bounds: the universe owns its bounds.  Only ``Universe.__init__`` and
``default_universe`` have a parameter named ``size_bound`` or
``hull_bound``; every hull search reads ``universe.hull_bound``.

Relabellings: only ``universe._orderly_tables`` calls ``permutations``.
It is the one place that enumerates the relabellings of a table, and
``universe._columns_below`` the one comparison of a table with its
relabelling.

Factors: in ``checkers``, ``injectivity`` and ``universe``, where a
universe is in scope, only ``universe.factor`` calls ``quotient``; every
other factor act is asked of it (or of ``rees_factor``), so each is built
once per universe and interned.

Flags: in ``checkers``, only the checkers whose statement compares taxonomy
flags call ``classify_radical``; every other checker that assumes a flag
declares it on ``register(...)`` and ``Checker.run`` filters on it.

Checked values: only ``core.hom`` calls ``is_equivariant``.  Every map
read from outside the program, from a flag or a report witness, is built by
that one checked constructor, so no second copy of its checks grows beside
it.

Chains: ``DirectedChain`` is a plain value with no ``__post_init__``, and
``cli`` and ``verifier`` build a chain only through
``DirectedChain.from_maps``, the one place a chain is checked; the chains
that the checkers build are correct by construction.

Masks: only ``core.mask_members`` and ``core.is_closed_mask`` walk a mask
bit by bit (``>>= 1``), and only ``core.members_mask`` and ``_hom_search``'s
``try_assign`` OR a bit into a mask (``|= 1 << ...``).  Every other mask of
a member list and walk over a mask's members goes through them, so no
second copy grows beside them.  ``is_closed_mask`` keeps a walk of its own
because it is the hottest mask reader of a run.

Process-wide caches: exactly the functions of ``PROCESS_CACHED`` use
``functools.lru_cache`` (or ``functools.cache``).  Such a cache outlives
every universe, so each one is a reviewed change to that list: it must pay
for the memory it never frees.

Command layer: ``cli`` reads only public names of the other ``radact``
modules, whether it imports a name or reads it off an imported module.
Every flag that a command accepts is read on some path of that command, so
a flag the command would ignore is refused instead.
"""

import argparse
import ast
import io
import re
from collections import Counter
from pathlib import Path

import pytest

from radact import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "radact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = (
        "from os import path, sep\n"
        "import json\n"
        "from . import checkers  # noqa: F401\n"
        "print(sep)\n"
    )
    assert unused_imports(source) == ["line 1: path", "line 2: json"]


def unreferenced_definitions(sources, others) -> list[str]:
    """Names defined in ``sources`` that occur only once, as a word, in
    ``sources`` and ``others`` together (that once being the definition)."""
    words = Counter(re.findall(r"\w+", "\n".join(sources + others)))
    defined = {
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    return sorted(name for name in defined if words[name] < 2)


def test_no_unreferenced_definitions():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    assert unreferenced_definitions(sources, tests) == []


def test_unreferenced_definition_is_reported():
    source = (
        "class Box:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "def helper(): return Box().used()\n"
    )
    assert unreferenced_definitions([source], ["helper()"]) == ["dead"]


def unused_parameters(source, module) -> list[str]:
    """Qualified names (``module.function.parameter``) of the parameters
    that their function's body never reads, dunders, registered checker
    callables and ``memo_on`` owners excepted."""
    tree = ast.parse(source)
    registered = {
        arg.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node) == "register"
        for arg in node.args + [k.value for k in node.keywords]
        if isinstance(arg, ast.Name)
    }
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                continue
            visit(child, path + [child.name])
            name = child.name
            if (isinstance(child, ast.ClassDef) or name in registered
                    or name.startswith("__") and name.endswith("__")):
                continue
            a = child.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            for dec in child.decorator_list:
                if isinstance(dec, ast.Call) and _name(dec) == "memo_on":
                    del params[dec.args[0].value]
            read = {n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            found.extend(".".join(path + [name, p])
                         for p in params if p not in read)

    visit(tree, [module])
    return sorted(found)


def test_no_unused_parameters():
    found = [
        name for p in MODULES
        for name in unused_parameters(p.read_text(), p.stem)
    ]
    assert found == []


def test_unused_parameter_is_reported():
    source = (
        "from .core import memo_on\n"
        "from .verifier import register\n"
        "class Box:\n"
        "    def __init__(self, spare): pass\n"
        "    def size(self, unit): return self\n"
        "@memo_on(1)\n"
        "def cached(act, universe, extra): return act\n"
        "def _holds(universe, parts): return parts\n"
        "register('X', 'doc', _holds)\n"
        "def outer(a, b):\n"
        "    def inner(c): return a\n"
        "    return inner\n"
    )
    assert unused_parameters(source, "m") == [
        "m.Box.size.unit", "m.cached.extra", "m.outer.b", "m.outer.inner.c",
    ]


MUTABLE_CALLS = {
    "Counter", "OrderedDict", "bytearray", "defaultdict", "deque", "dict",
    "list", "set",
}
REGISTRIES = {"THEOREMS", "AXIOMS"}


def module_level_containers(source: str) -> list[str]:
    """Names bound at module level to a mutable container: a list, dict or
    set display or comprehension, or a call of a mutable container type."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, (
            ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set,
            ast.SetComp,
        )) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CALLS
        )
        if not mutable:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id not in REGISTRIES:
                    found.append(f"line {node.lineno}: {name.id}")
    return found


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_level_mutable_containers(path):
    assert module_level_containers(path.read_text()) == []


def test_module_level_container_is_reported():
    source = (
        "A = {}\n"
        "B: list = []\n"
        "C = set()\n"
        "D = dict(x=1)\n"
        "E = (1, 2)\n"
        "F = frozenset()\n"
        "THEOREMS: dict = {}\n"
        "def f():\n"
        "    g = {}\n"
    )
    assert module_level_containers(source) == [
        "line 1: A", "line 2: B", "line 3: C", "line 4: D",
    ]


def _name(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def functions_where(source, module, match) -> list[str]:
    """Qualified names (``module.outer.inner``) of the innermost functions
    whose body holds a node for which ``match`` is true; ``module`` alone
    for a match at module level."""
    found = set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + [child.name])
                continue
            if match(child):
                found.add(".".join(path))
            visit(child, path)

    visit(ast.parse(source), [module])
    return sorted(found)


def lattice_callers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "all_congruences",
    )


def size_bound_raisers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Raise) and n.exc is not None
        and _name(n.exc) == "SizeBound",
    )


# the callers of all_congruences that the congruence module docstring names
LATTICE_USERS = (
    "checkers._enum_l12",
    "checkers._enum_l22",
    "checkers._enum_l211",
    "checkers._enum_t36",
    "checkers._enum_l37",
    "checkers._t73_c2",
    "checkers._holds_l74",
    "cli._dispatch",
    "injectivity.collectively_large_by_homs",
    "radical.induced_radical.congruence_of",
    "radical.verify_semisimple_class",
    "universe.Universe.cyclic_acts",
)


def test_only_lattice_users_build_lattices():
    found = [
        name for p in MODULES
        for name in lattice_callers(p.read_text(), p.stem)
    ]
    assert sorted(found) == sorted(LATTICE_USERS)


def test_only_all_congruences_raises_size_bound():
    found = [
        name for p in MODULES
        for name in size_bound_raisers(p.read_text(), p.stem)
    ]
    assert found == ["congruence.all_congruences"]


def test_lattice_caller_is_reported():
    source = (
        "from .congruence import all_congruences\n"
        "from . import congruence as cg\n"
        "lattice = all_congruences(a)\n"
        "class Box:\n"
        "    def users(self):\n"
        "        def inner():\n"
        "            return cg.all_congruences(b, 3)\n"
        "        return [c for c in all_congruences(a)], inner\n"
        "def bystander(all_congruences):\n"
        "    return all_congruences\n"
    )
    assert lattice_callers(source, "m") == [
        "m", "m.Box.users", "m.Box.users.inner",
    ]


def test_size_bound_raiser_is_reported():
    source = (
        "from .errors import SizeBound\n"
        "def check(n):\n"
        "    if n > 7:\n"
        "        raise SizeBound(f'{n} points')\n"
        "def bare():\n"
        "    raise SizeBound\n"
        "def passes_on():\n"
        "    try:\n"
        "        check(9)\n"
        "    except SizeBound:\n"
        "        raise\n"
    )
    assert size_bound_raisers(source, "m") == ["m.bare", "m.check"]


HULL_BOUND_NAMES = {"size_bound", "hull_bound"}


def hull_bound_takers(source, module) -> list[str]:
    """The functions with a parameter named ``size_bound`` or
    ``hull_bound``."""
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.arg) and n.arg in HULL_BOUND_NAMES,
    )


def test_only_the_universe_takes_a_hull_bound():
    found = [
        name for p in MODULES
        for name in hull_bound_takers(p.read_text(), p.stem)
    ]
    assert sorted(found) == [
        "universe.Universe.__init__", "universe.default_universe",
    ]


def test_hull_bound_taker_is_reported():
    source = (
        "class Box:\n"
        "    def __init__(self, hull_bound=6):\n"
        "        self.hull_bound = hull_bound\n"
        "def search(act, universe):\n"
        "    return universe.hull_bound\n"
        "def legacy(act, size_bound, universe):\n"
        "    def inner(*, hull_bound):\n"
        "        return hull_bound\n"
        "    return inner\n"
    )
    assert hull_bound_takers(source, "m") == [
        "m.Box.__init__", "m.legacy", "m.legacy.inner",
    ]


def permutation_callers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "permutations",
    )


def test_only_the_orderly_walk_enumerates_relabellings():
    found = [
        name for p in MODULES
        for name in permutation_callers(p.read_text(), p.stem)
    ]
    assert found == ["universe._orderly_tables"]


def test_permutation_caller_is_reported():
    source = (
        "import itertools\n"
        "from itertools import islice, permutations\n"
        "ORDERS = list(permutations(range(3)))\n"
        "def canonical(act):\n"
        "    return min(itertools.permutations(act.elements))\n"
        "def walk(m):\n"
        "    def moved():\n"
        "        return islice(permutations(range(m)), 1, None)\n"
        "    return moved\n"
        "def bystander(permutations):\n"
        "    return permutations\n"
    )
    assert permutation_callers(source, "m") == [
        "m", "m.canonical", "m.walk.moved",
    ]


def quotient_callers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "quotient",
    )


def test_only_the_factor_helper_builds_quotients_under_a_universe():
    found = [
        name for p in MODULES
        if p.stem in ("checkers", "injectivity", "universe")
        for name in quotient_callers(p.read_text(), p.stem)
    ]
    assert found == ["universe.factor"]


def test_quotient_caller_is_reported():
    source = (
        "from . import congruence as cg\n"
        "from .congruence import quotient\n"
        "from .universe import factor\n"
        "TOP = quotient\n"
        "def _holds(universe, parts):\n"
        "    act, chi = parts\n"
        "    return cg.quotient(act, chi)[0]\n"
        "def _enum(universe):\n"
        "    def inner(act, chi):\n"
        "        quo, _ = quotient(act, chi)\n"
        "        return quo\n"
        "    return inner\n"
        "def _fine(universe, act, chi):\n"
        "    return factor(universe, act, chi), quotient\n"
    )
    assert quotient_callers(source, "m") == ["m._enum.inner", "m._holds"]


def flag_readers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "classify_radical",
    )


# the checkers whose statement compares taxonomy flags
FLAG_READERS = (
    "checkers._holds_d27",
    "checkers._holds_l43",
    "checkers._holds_p213",
    "checkers._holds_t28",
    "checkers._t73_conditions",
)


def test_only_flag_comparing_checkers_read_flags():
    source = (SRC / "checkers.py").read_text()
    assert flag_readers(source, "checkers") == sorted(FLAG_READERS)


def test_flag_reader_is_reported():
    source = (
        "from .radical import classify_radical\n"
        "from . import radical as rd\n"
        "def _enum(universe):\n"
        "    for r in universe.radicals:\n"
        "        if rd.classify_radical(r, universe).hereditary:\n"
        "            yield r\n"
        "def _holds(universe, parts):\n"
        "    return classify_radical\n"
    )
    assert flag_readers(source, "m") == ["m._enum"]


def equivariance_checkers(source, module) -> list[str]:
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "is_equivariant",
    )


def test_only_the_map_constructor_checks_equivariance():
    found = [
        name for p in MODULES
        for name in equivariance_checkers(p.read_text(), p.stem)
    ]
    assert found == ["core.hom"]


def test_equivariance_checker_is_reported():
    source = (
        "from . import core\n"
        "from .core import is_equivariant\n"
        "OK = is_equivariant(a, b, (0,))\n"
        "def _map_of(source, target, images):\n"
        "    if not core.is_equivariant(source, target, images):\n"
        "        raise ValueError(images)\n"
        "def decode(data):\n"
        "    def link(a, b, m):\n"
        "        return is_equivariant(a, b, m) and m\n"
        "    return link\n"
        "def bystander(is_equivariant):\n"
        "    return is_equivariant\n"
    )
    assert equivariance_checkers(source, "m") == [
        "m", "m._map_of", "m.decode.link",
    ]


def unchecked_chain_builds(source, module) -> list[str]:
    """A ``__post_init__`` of ``DirectedChain``, which would check again
    every chain the program builds, and the functions that call
    ``DirectedChain`` itself rather than its checked constructor
    ``from_maps``."""
    post_inits = [
        f"{module}.DirectedChain.__post_init__"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef) and node.name == "DirectedChain"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
    ]
    return post_inits + functions_where(
        source, module,
        lambda n: isinstance(n, ast.Call) and _name(n) == "DirectedChain",
    )


def test_only_from_maps_checks_a_chain():
    found = [
        name for p in MODULES if p.stem in ("cli", "injectivity", "verifier")
        for name in unchecked_chain_builds(p.read_text(), p.stem)
    ]
    assert found == []


def test_unchecked_chain_build_is_reported():
    source = (
        "from . import injectivity as inj\n"
        "from .injectivity import DirectedChain\n"
        "class DirectedChain:\n"
        "    def __post_init__(self):\n"
        "        check(self)\n"
        "def _limit(acts, links):\n"
        "    return inj.DirectedChain(acts, links)\n"
        "def decode(payload):\n"
        "    def chain(acts):\n"
        "        return DirectedChain(acts, ())\n"
        "    return chain\n"
        "def checked(acts, maps):\n"
        "    return inj.DirectedChain.from_maps(acts, maps)\n"
    )
    assert unchecked_chain_builds(source, "m") == [
        "m.DirectedChain.__post_init__", "m._limit", "m.decode.chain",
    ]


def mask_walkers(source, module) -> list[str]:
    """The functions that shift a value right by one in place (``>>= 1``),
    walking a mask bit by bit."""
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift)
        and isinstance(n.value, ast.Constant) and n.value.value == 1,
    )


def mask_builders(source, module) -> list[str]:
    """The functions that OR one bit into a value in place
    (``|= 1 << ...``), building a mask point by point."""
    return functions_where(
        source, module,
        lambda n: isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitOr)
        and isinstance(n.value, ast.BinOp)
        and isinstance(n.value.op, ast.LShift)
        and isinstance(n.value.left, ast.Constant)
        and n.value.left.value == 1,
    )


def test_only_the_mask_primitives_walk_a_mask():
    found = [
        name for p in MODULES
        for name in mask_walkers(p.read_text(), p.stem)
    ]
    assert sorted(found) == ["core.is_closed_mask", "core.mask_members"]


def test_mask_walker_is_reported():
    source = (
        "def members(mask):\n"
        "    while mask:\n"
        "        mask >>= 1\n"
        "def outer(act, mask):\n"
        "    def closed(probe):\n"
        "        probe >>= 1\n"
        "    return closed\n"
        "def bystander(mask):\n"
        "    mask >>= 2\n"
        "    return mask >> 1, mask // 2\n"
    )
    assert mask_walkers(source, "m") == ["m.members", "m.outer.closed"]


def test_only_the_mask_primitives_build_a_mask():
    found = [
        name for p in MODULES
        for name in mask_builders(p.read_text(), p.stem)
    ]
    assert sorted(found) == ["core._hom_search.try_assign",
                             "core.members_mask"]


def test_mask_builder_is_reported():
    source = (
        "MASK = 0\n"
        "MASK |= 1 << 3\n"
        "def cyclic(act, a):\n"
        "    mask = 0\n"
        "    for row in act.action:\n"
        "        mask |= 1 << row[a]\n"
        "    return mask\n"
        "def oracle(r):\n"
        "    def back(members):\n"
        "        out = 0\n"
        "        for i in members:\n"
        "            out |= (1 << i)\n"
        "        return out\n"
        "    return back\n"
        "def bystander(mask, other):\n"
        "    mask |= other\n"
        "    return mask | 1 << 2, mask & ~(1 << 3)\n"
    )
    assert mask_builders(source, "m") == ["m", "m.cyclic", "m.oracle.back"]


def process_cache_users(source, module) -> list[str]:
    """The functions that name ``lru_cache`` or ``cache``, as a decorator or
    otherwise; ``module`` alone for a use at module level."""
    return functions_where(
        source, module,
        lambda n: isinstance(n, (ast.Name, ast.Attribute))
        and _name(n) in ("lru_cache", "cache"),
    )


# the functions memoised for the whole process, by value
PROCESS_CACHED = (
    "congruence.all_congruences",
    "core._shared_map",
    "core.all_homs",
    "core.subact_act_by_mask",
    "core.subact_masks",
    "core.zeros",
)


def test_only_the_listed_functions_cache_for_the_process():
    found = [
        name for p in MODULES
        for name in process_cache_users(p.read_text(), p.stem)
    ]
    assert sorted(found) == sorted(PROCESS_CACHED)


def test_process_cache_user_is_reported():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def listed(act):\n"
        "    return act\n"
        "class Box:\n"
        "    @functools.cache\n"
        "    def method(self):\n"
        "        return self\n"
        "def plain(act):\n"
        "    @cache\n"
        "    def inner(a):\n"
        "        return a\n"
        "    return inner(act)\n"
        "WRAPPED = lru_cache(maxsize=8)(plain)\n"
        "def bystander(act):\n"
        "    return act.lru\n"
    )
    assert process_cache_users(source, "m") == [
        "m", "m.Box.method", "m.listed", "m.plain.inner",
    ]


def private_reads(source) -> list[str]:
    """The private names (one leading underscore, not a dunder) that a module
    imports from a sibling module or reads off an imported sibling."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_cli_reads_only_public_names():
    assert private_reads((SRC / "cli.py").read_text()) == []


def test_private_read_is_reported():
    source = (
        "from . import verifier\n"
        "from . import catalog as cat\n"
        "from .core import ActHom, _hom_search\n"
        "from os import _exit\n"
        "stamp = verifier._timestamp()\n"
        "lines = cat._Lines(text)\n"
        "name = verifier.__name__\n"
        "ok = verifier.to_json(doc)\n"
        "mine = self._private\n"
    )
    assert private_reads(source) == [
        "line 3: _hom_search", "line 5: verifier._timestamp",
        "line 6: cat._Lines",
    ]


# the runs of each command that together take every read path, on the
# rg_copy_catalog fixture, with its table and bounds given wherever a
# command takes them
READ_PATHS = {
    "validate": [["--act", "R2"]],
    "congruences": [["--act", "R2"]],
    "radical": [["--act", "R2"]],
    "classify": [[]],
    "closure": [["--act", "R2", "--members", "1"]],
    "dense": [["--act", "R2", "--members", "1"]],
    "injective": [["--act", "R2"]],
    "r-injective": [["--act", "R2", "--mode", "universe"]],
    "weakly-injective": [["--act", "R2"]],
    "hull": [["--act", "R2"]],
    "r-hull": [["--act", "R2"]],
    "pushout": [["--act", "R2", "--members", "1", "--into", "R2",
                 "--map", "1"]],
    "limit": [["--acts", "R2,R2", "--maps", "0 1"]],
    "enumerate": [[]],
    "verify": [["--all"], ["--theorem", "L1.2"]],
}


def namespace_reads(argv) -> set[str]:
    """The attributes that ``cli._dispatch`` reads off the parsed arguments
    while it runs ``argv``."""
    reads = set()
    dispatch = cli._dispatch

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_dispatch", lambda args, out: dispatch(
            Recorder(**vars(args)), out))
        code = cli.run(argv, out=io.StringIO(), err=err)
    assert code in (0, 1) and "error" not in err.getvalue(), argv
    return reads


def test_every_accepted_flag_is_read(command_flags, rg_copy_catalog):
    catalog, radical_file, bounds = rg_copy_catalog
    assert sorted(READ_PATHS) == sorted(command_flags)
    unread = []
    for command, flags in command_flags.items():
        given = [x for flag, value in bounds.items()
                 if flag in flags for x in (flag, value)]
        if "--radical-file" in flags:
            given += ["--radical-file", str(radical_file)]
        reads = set()
        for extra in READ_PATHS[command]:
            reads |= namespace_reads(
                [command, "--seed-catalog", str(catalog)] + given + extra
            )
        unread += [f"{command} {flag}" for flag, dest in flags.items()
                   if dest not in reads]
    assert unread == []
