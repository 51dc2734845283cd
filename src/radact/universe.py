"""Exhaustive catalogs of small monoids and acts, deduplicated up to
isomorphism, with the radicals registered for verification sweeps.

Monoid and action tables are generated by one orderly walk
(``_orderly_tables``): one table per orbit under the relabellings of the
points being filled in.  For monoids (``monoid_tables``) the points are the
elements other than the identity 0, and a relabelling moves rows as well as
columns; the walk yields one table per isomorphism class, which
``enumerate_monoids`` sorts and names.  For acts (``act_tables``) the points
are the carrier's and the rows, the monoid's elements, stay in place.  With
no prefix that is one table per isomorphism class, which ``enumerate_acts``
names in the order the walk yields them; with an act as prefix it is one
extension per class of extensions over the act, which every hull search
walks.

The universe owns its factor acts: ``factor`` builds the factor by each
(act, congruence) once per universe and interns it by value, and
``rees_factor`` does so for the Rees congruence of each (act, subact).
The checkers and the injectivity deciders build every quotient through
them."""

from __future__ import annotations

from itertools import islice, permutations

from . import radical as rd
from .congruence import (
    ACT_MAX_DEFAULT,
    CON_BOUND_DEFAULT,
    HULL_BOUND_DEFAULT,
    MONOID_MAX_DEFAULT,
    Congruence,
    all_congruences,
    quotient,
    rees_single,
)
from .core import (
    ActHom,
    FiniteAct,
    FiniteMonoid,
    find_isomorphism,
    left_regular_act,
    memo_on,
    validate_act,
    validate_monoid,
)
from .errors import RadactError, UsageError


def monoid_tables(order: int):
    """The multiplication tables on 0..order-1 with identity 0, one per
    isomorphism class: the least table of each orbit under the relabellings
    that fix 0, in row-major order (lex-leader symmetry breaking, as in
    A. Distler, "Classification and enumeration of finite semigroups", PhD
    thesis, St Andrews, 2010).

    ``_orderly_tables`` fills the table column by column and yields the
    least table of each orbit in column-major order.  Its transpose is the
    least table of the opposite monoid's orbit in row-major order, and
    associativity is self-dual, so the transposes are one least table per
    class."""
    table = [[-1] * order for _ in range(order)]
    for x in range(order):
        table[0][x] = table[x][0] = x
    for t in _orderly_tables(table, None, list(range(1, order)), 1):
        yield tuple(zip(*t))


def enumerate_monoids(max_order: int) -> tuple[FiniteMonoid, ...]:
    """All monoids of order <= max_order, one per isomorphism class, named
    in the order of their tables."""
    out = []
    for n in range(1, max_order + 1):
        for k, mul in enumerate(sorted(monoid_tables(n))):
            out.append(validate_monoid(mul, 0, name=f"M{n}.{k}"))
    return tuple(out)


def act_tables(monoid: FiniteMonoid, size: int, prefix: FiniteAct | None = None):
    """The action tables of the given carrier size, optionally extending an
    act placed on the first carrier indices, one per orbit under the
    relabellings of the new points (the prefix points stay fixed): the least
    table of each orbit in generation order (``_orderly_tables``)."""
    n = monoid.size
    table = [[-1] * size for _ in range(n)]
    for a in range(size):
        table[monoid.identity][a] = a
    start = 0
    if prefix is not None:
        if prefix.monoid != monoid or prefix.size > size:
            raise ValueError("prefix act does not fit")
        start = prefix.size
        for s in range(n):
            for a in range(start):
                table[s][a] = prefix.action[s][a]
    rows = [s for s in range(n) if s != monoid.identity]
    yield from _orderly_tables(table, monoid.mul, rows, start)


def _orderly_tables(table, mul, rows, start):
    """The completions of a partial table whose free cells are the given
    rows of columns start.., one per orbit under the relabellings of the
    points start..: the least table of each orbit in generation order.
    ``mul`` is the monoid's multiplication when the table is an action
    table, whose rows stay in place.  It is None when the table is a
    monoid's own multiplication: its points are its elements, and a
    relabelling moves rows as well as columns.

    Every equation t*(u*x) = (tu)*x whose cells are filled holds before a
    cell is filled (a prefix must be an act), so after filling cell (s, a)
    only the equations in which it is the inner cell u*x, the outer cell
    t*(u*x), the right-hand cell (tu)*x or, in a monoid's table, the
    product tu are checked.  In a monoid's table these equations are
    (tu)x = t(ux), and the four roles are every role a cell can take.

    Generation order fills the free cells column by column, and each column
    row by row; tables come out in the order of their cells.  Orderly
    generation (Read and Faradzev; B. D. McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998): each time a column is complete, a
    partial table is dropped when some relabelling turns its filled columns
    into a smaller one.  Every completion of it would then relabel below
    itself, so the least table of each orbit is never dropped, and at the
    last column every other one is."""
    n = len(table)
    m = len(table[0])
    own = mul is None
    if own:
        mul = table
        factors = None
    else:
        # factors[s]: the pairs (t, u) with tu = s
        factors = [[] for _ in range(n)]
        for t in range(n):
            for u in range(n):
                factors[mul[t][u]].append((t, u))

    def consistent(s, a):
        v = table[s][a]
        for t in range(n):
            trow = table[t]
            # inner: t*(s*a) = (ts)*a
            ts = mul[t][s]
            if ts != -1:
                lhs = trow[v]
                rhs = table[ts][a]
                if lhs != -1 and rhs != -1 and lhs != rhs:
                    return False
            # outer: s*(t*x) = (st)*x wherever t*x = a
            st = mul[s][t]
            if st != -1:
                strow = table[st]
                for x in range(m):
                    if trow[x] == a and strow[x] != -1 and strow[x] != v:
                        return False
        # right-hand: t*(u*a) = s*a wherever tu = s; a monoid's own
        # products are still being filled in, so they are looked up
        pairs = [(t, u) for t in range(n) for u in range(n)
                 if mul[t][u] == s] if own else factors[s]
        for t, u in pairs:
            ua = table[u][a]
            if ua != -1:
                lhs = table[t][ua]
                if lhs != -1 and lhs != v:
                    return False
        if own:
            # product: (sa)*x = s*(a*x)
            for x in range(m):
                ax = table[a][x]
                if ax != -1:
                    lhs = table[v][x]
                    rhs = table[s][ax]
                    if lhs != -1 and rhs != -1 and lhs != rhs:
                        return False
        return True

    cells = [(s, a) for a in range(start, m) for s in rows]
    # every relabelling of the points but the identity, with its inverse
    # and, for each free row, the row that its relabelled row is taken from
    relabellings = []
    for moved in islice(permutations(range(start, m)), 1, None):
        perm = tuple(range(start)) + moved
        inv = [0] * m
        for a, b in enumerate(perm):
            inv[b] = a
        row_map = [(table[inv[s] if own else s], table[s]) for s in rows]
        relabellings.append((perm, inv, row_map))
    last_row = rows[-1] if rows else None

    def rec(i):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        s, a = cells[i]
        for v in range(m):
            table[s][a] = v
            if consistent(s, a) and not (s == last_row and any(
                _columns_below(perm, inv, row_map, start, a)
                for perm, inv, row_map in relabellings
            )):
                yield from rec(i + 1)
        table[s][a] = -1

    try:
        yield from rec(0)
    finally:
        # rec holds itself through its closure cell: break the cycle, also
        # when the walk is left early
        del rec


def _columns_below(perm, inv, row_map, start, last) -> bool:
    """Whether relabelling the filled columns start..last of a table along
    ``perm`` (with inverse ``inv``) gives a table below it in generation
    order, decided at the first entry that differs: the one comparison of a
    table with its relabelling.  ``row_map`` pairs each free row of the
    table with the row that its relabelled row is taken from: the row
    itself for acts, row inv[s] for a monoid.  Column b of the relabelled
    table is column inv[b] relabelled, so the comparison ends undecided at
    the first column whose preimage is not filled yet."""
    for b in range(start, last + 1):
        a = inv[b]
        if a > last:
            return False
        for source, row in row_map:
            v = perm[source[a]]
            w = row[b]
            if v != w:
                return v < w
    return False


def enumerate_acts(monoid: FiniteMonoid, max_size: int) -> tuple[FiniteAct, ...]:
    """All acts over the monoid of size <= max_size, one per iso class:
    the tables of ``act_tables``, each the least of its class in generation
    order, named in the order the walk yields them."""
    return tuple(
        validate_act(monoid, table, name=f"{monoid.name}.a{m}.{k}")
        for m in range(1, max_size + 1)
        for k, table in enumerate(act_tables(monoid, m))
    )


class Universe:
    """Catalog of monoids and acts within bounds, plus registered radicals.

    ``memo`` holds the results computed over this universe (see
    ``core.memo_on``), and a registered radical keeps what depends on it
    alone; README's "Memoisation" lists every entry.
    ``radicals`` is a tuple that each registration replaces, so a memo entry
    keyed by it (an L5.1 row) is never read for another set of radicals.

    The universe owns its bounds: hull searches read ``hull_bound``.  Every
    bound is at least 1, and ``con_bound`` covers the lattice of every act
    and of every cyclic act, a quotient of the |S|-point left regular act."""

    def __init__(self, monoid_max=MONOID_MAX_DEFAULT, act_max=ACT_MAX_DEFAULT,
                 hull_bound=HULL_BOUND_DEFAULT, con_bound=CON_BOUND_DEFAULT):
        if min(monoid_max, act_max, hull_bound, con_bound) < 1:
            raise UsageError("every bound must be at least 1")
        if con_bound < max(act_max, monoid_max):
            raise UsageError(f"con_bound {con_bound} is below max(act_max, "
                             f"monoid_max) = {max(act_max, monoid_max)}")
        self.monoid_max = monoid_max
        self.act_max = act_max
        self.hull_bound = hull_bound
        self.con_bound = con_bound
        self.monoids = enumerate_monoids(monoid_max)
        self._acts_by_monoid = {
            m: enumerate_acts(m, act_max) for m in self.monoids
        }
        self.acts = tuple(
            a for m in self.monoids for a in self._acts_by_monoid[m]
        )
        self.radicals = ()
        self.memo = {}

    def acts_over(self, monoid: FiniteMonoid) -> tuple[FiniteAct, ...]:
        try:
            return self._acts_by_monoid[monoid]
        except KeyError:
            raise UsageError(
                f"monoid {monoid.name} is not a monoid of the universe "
                f"(monoid_max {self.monoid_max})"
            ) from None

    def find_member(self, act: FiniteAct) -> FiniteAct | None:
        """The catalog act isomorphic to the given one, if within bounds: an
        isomorphism search over the universe acts of its monoid and size."""
        if act.size > self.act_max:
            return None
        for member in self._acts_by_monoid.get(act.monoid, ()):
            if find_isomorphism(act, member) is not None:
                return member
        return None

    def register_radical(self, r: rd.Radical) -> rd.Radical:
        """Add a radical; induced ones must pass the semisimple-class
        closure checks, otherwise registration is refused with a witness."""
        if any(existing.name == r.name for existing in self.radicals):
            raise RadactError(f"radical named {r.name!r} already registered")
        if r.membership is not None:
            rd.verify_semisimple_class(r.membership, self)
        self.radicals += (r,)
        return r

    def radical(self, name: str) -> rd.Radical:
        for r in self.radicals:
            if r.name == name:
                return r
        raise UsageError(f"no radical named {name!r} is registered")

    @memo_on(0)
    def cyclic_acts(self, monoid: FiniteMonoid) -> tuple[FiniteAct, ...]:
        """The quotients of the left regular act by each of its congruences:
        every cyclic act, isomorphic copies included."""
        reg = left_regular_act(monoid)
        return tuple(
            factor(self, reg, chi)[0]
            for chi in all_congruences(reg, self.con_bound)
        )


@memo_on(0)
def factor(universe: Universe, act: FiniteAct,
           chi: Congruence) -> tuple[FiniteAct, ActHom]:
    """The factor act of ``act`` by its congruence ``chi`` and the projection
    onto it, built once per universe and (act, chi).  Factor acts are
    interned by value in ``universe.memo``: a factor equal to one built
    before is that same object, and it is the target of the projection, so
    the caches keyed by it (a radical's congruence on it, ``all_homs``)
    find it by identity first."""
    quo, pi = quotient(act, chi)
    kept = universe.memo.setdefault(quo, quo)
    if kept is not quo:
        pi = ActHom(act, kept, pi.map)
    return kept, pi


@memo_on(0)
def rees_factor(universe: Universe, act: FiniteAct,
                mask: int) -> tuple[FiniteAct, ActHom]:
    """``factor`` by the Rees congruence of the subact ``mask``, keyed by the
    mask, so that the congruence too is built once per universe."""
    return factor(universe, act, rees_single(act, mask))


STOCK_RADICALS = ("delta", "nabla", "rG", "t_LrG")


def register_stock(universe: Universe, names=STOCK_RADICALS) -> None:
    """Register the stock radicals among ``names``, each after the one it is
    built from, in the order of ``STOCK_RADICALS``: the diagonal and total
    radicals delta and nabla, the zero-annihilator radical rG, and t_LrG,
    the Kurosh-Amitsur radical induced by rG's dense-factor class, which
    brings rG as its base.  Registering t_LrG checks its semisimple class on
    every act of the universe, the one costly step.  A name that is not a
    stock radical registers nothing."""
    if "delta" in names:
        universe.register_radical(rd.delta_radical())
    if "nabla" in names:
        universe.register_radical(rd.nabla_radical())
    if "rG" in names or "t_LrG" in names:
        rg = universe.register_radical(rd.rg_radical())
    if "t_LrG" in names:
        universe.register_radical(
            rd.lr_induced_radical(rg, universe.con_bound))


def default_universe(monoid_max=MONOID_MAX_DEFAULT, act_max=ACT_MAX_DEFAULT,
                     hull_bound=HULL_BOUND_DEFAULT,
                     con_bound=CON_BOUND_DEFAULT) -> Universe:
    """The standard verification universe with every stock radical."""
    u = Universe(monoid_max, act_max, hull_bound, con_bound)
    register_stock(u)
    return u
