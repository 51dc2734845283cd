"""Exhaustive catalogs of small monoids and acts, deduplicated up to
isomorphism, with the radicals registered for verification sweeps.

Action tables are generated orderly (``act_tables``): one table per orbit
under the relabellings of the points being filled in.  With no prefix that
is one table per isomorphism class, which ``enumerate_acts`` brings to
``canonical_form``; with an act as prefix it is one extension per class of
extensions over the act, which every hull search walks."""

from __future__ import annotations

from itertools import islice, permutations

from . import radical as rd
from .congruence import CON_BOUND_DEFAULT, all_congruences, quotient
from .core import (
    FiniteAct,
    FiniteMonoid,
    canonical_form,
    canonical_monoid,
    left_regular_act,
    memo_on,
    validate_act,
    validate_monoid,
)
from .errors import RadactError, UsageError


def _monoid_tables(order):
    """All monoid tables on 0..order-1 with identity 0, via backtracking."""
    n = order
    mul = [[-1] * n for _ in range(n)]
    for x in range(n):
        mul[0][x] = x
        mul[x][0] = x
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def consistent(x, y):
        # check associativity triples whose entries are all defined
        v = mul[x][y]
        for z in range(n):
            xy_z = mul[v][z]
            if xy_z != -1 and mul[y][z] != -1:
                x_yz = mul[x][mul[y][z]]
                if x_yz != -1 and xy_z != x_yz:
                    return False
            zx = mul[z][x]
            if zx != -1 and mul[zx][y] != -1:
                z_xy = mul[z][v]
                if z_xy != -1 and mul[zx][y] != z_xy:
                    return False
        return True

    out = []

    def associative():
        for a in range(n):
            for b in range(n):
                ab = mul[a][b]
                for c in range(n):
                    if mul[ab][c] != mul[a][mul[b][c]]:
                        return False
        return True

    def rec(i):
        if i == len(cells):
            if associative():
                out.append(tuple(tuple(row) for row in mul))
            return
        x, y = cells[i]
        for v in range(n):
            mul[x][y] = v
            if consistent(x, y):
                rec(i + 1)
        mul[x][y] = -1

    rec(0)
    return out


def enumerate_monoids(max_order: int) -> tuple[FiniteMonoid, ...]:
    """All monoids of order <= max_order, one per isomorphism class."""
    out = []
    for n in range(1, max_order + 1):
        seen = {}
        for table in _monoid_tables(n):
            raw = FiniteMonoid(table, 0)
            canon = canonical_monoid(raw)
            seen.setdefault(canon.mul, canon)
        chosen = sorted(seen.values(), key=lambda m: m.mul)
        for k, monoid in enumerate(chosen):
            named = validate_monoid(monoid.mul, 0, name=f"M{n}.{k}")
            out.append(named)
    return tuple(out)


def act_tables(monoid: FiniteMonoid, size: int, prefix: FiniteAct | None = None):
    """The action tables of the given carrier size, optionally extending an
    act placed on the first carrier indices, one per orbit under the
    relabellings of the new points (the prefix points stay fixed): the least
    table of each orbit in generation order.

    Generation order fills the free cells column by column over the new
    points, and each column row by row; tables come out in the order of
    their cells.  Every act equation t*(u*x) = (tu)*x whose three cells are
    filled holds before a cell is filled (a prefix must be an act), so after
    filling cell (s, a) only the equations in which it is the inner cell
    u*x, the outer cell t*(u*x) or the right-hand cell (tu)*x are checked.

    Orderly generation (Read and Faradzev; B. D. McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998): each time a column is
    complete, a partial table is dropped when some relabelling of the new
    points turns its filled columns into a smaller one.  Every completion
    of it would then relabel below itself, so the least table of each
    orbit is never dropped, and at the last column every other one is."""
    n = monoid.size
    m = size
    mul = monoid.mul
    table = [[-1] * m for _ in range(n)]
    for a in range(m):
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
    cells = [(s, a) for a in range(start, m) for s in rows]
    # factors[s]: the pairs (t, u) with tu = s
    factors = [[] for _ in range(n)]
    for t in range(n):
        for u in range(n):
            factors[mul[t][u]].append((t, u))
    # every relabelling of the new points but the identity, with its inverse
    relabellings = []
    for moved in islice(permutations(range(start, m)), 1, None):
        perm = tuple(range(start)) + moved
        inv = [0] * m
        for a, b in enumerate(perm):
            inv[b] = a
        relabellings.append((perm, inv))

    def consistent(s, a):
        v = table[s][a]
        # inner: t*(s*a) = (ts)*a
        for t in range(n):
            lhs = table[t][v]
            rhs = table[mul[t][s]][a]
            if lhs != -1 and rhs != -1 and lhs != rhs:
                return False
        # outer: s*(u*x) = (su)*x wherever u*x = a
        for u in range(n):
            urow = table[u]
            surow = table[mul[s][u]]
            for x in range(m):
                if urow[x] == a:
                    rhs = surow[x]
                    if rhs != -1 and rhs != v:
                        return False
        # right-hand: t*(u*a) = s*a wherever tu = s
        for t, u in factors[s]:
            ua = table[u][a]
            if ua != -1:
                lhs = table[t][ua]
                if lhs != -1 and lhs != v:
                    return False
        return True

    last_row = rows[-1] if rows else None

    def rec(i):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        s, a = cells[i]
        for v in range(m):
            table[s][a] = v
            if consistent(s, a) and not (s == last_row and any(
                _columns_below(table, rows, perm, inv, start, a)
                for perm, inv in relabellings
            )):
                yield from rec(i + 1)
        table[s][a] = -1

    yield from rec(0)


def _columns_below(table, rows, perm, inv, start, last) -> bool:
    """Whether relabelling the filled columns start..last of ``table`` along
    ``perm`` (with inverse ``inv``) gives a table below it in generation
    order, decided at the first entry that differs, as in
    ``core._relabels_below``.  Column b of the relabelled table is column
    inv[b] relabelled, so the comparison ends undecided at the first column
    whose preimage is not filled yet."""
    for b in range(start, last + 1):
        a = inv[b]
        if a > last:
            return False
        for s in rows:
            v = perm[table[s][a]]
            w = table[s][b]
            if v != w:
                return v < w
    return False


def enumerate_acts(monoid: FiniteMonoid, max_size: int) -> tuple[FiniteAct, ...]:
    """All acts over the monoid of size <= max_size, one per iso class:
    ``act_tables`` gives one table per class, brought to ``canonical_form``
    and named in the order of the canonical tables."""
    out = []
    for m in range(1, max_size + 1):
        chosen = sorted(
            canonical_form(FiniteAct(monoid, table)).action
            for table in act_tables(monoid, m)
        )
        for k, action in enumerate(chosen):
            out.append(validate_act(monoid, action,
                                    name=f"{monoid.name}.a{m}.{k}"))
    return tuple(out)


class Universe:
    """Catalog of monoids and acts within bounds, plus registered radicals.

    ``memo`` holds the results computed over this universe (cyclic acts,
    taxonomy flags, injectivity decisions and the extension answers behind
    them, hull searches, maximal complements, L5.1 span verdicts and
    L2.11/T7.3 capture verdicts); see ``core.memo_on``.  ``radicals`` is a tuple that each
    registration replaces, so a memo entry keyed by it is never read for
    another set of radicals.

    The universe owns its bounds: hull searches read ``hull_bound``.  Every
    bound is at least 1, and ``con_bound`` covers the lattice of every act
    and of every cyclic act, a quotient of the |S|-point left regular act."""

    def __init__(self, monoid_max=3, act_max=4, hull_bound=6,
                 con_bound=CON_BOUND_DEFAULT):
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
        # enumerated acts are already in canonical form
        self._members = {}
        for m in self.monoids:
            for a in self._acts_by_monoid[m]:
                self._members[(m, a.action)] = a

    def acts_over(self, monoid: FiniteMonoid) -> tuple[FiniteAct, ...]:
        try:
            return self._acts_by_monoid[monoid]
        except KeyError:
            raise UsageError(
                f"monoid {monoid.name} is not a monoid of the universe "
                f"(monoid_max {self.monoid_max})"
            ) from None

    def find_member(self, act: FiniteAct) -> FiniteAct | None:
        """The catalog act isomorphic to the given one, if within bounds."""
        if act.size > self.act_max:
            return None
        return self._members.get((act.monoid, canonical_form(act).action))

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
            quotient(reg, chi)[0]
            for chi in all_congruences(reg, self.con_bound)
        )


def default_universe(monoid_max=3, act_max=4, hull_bound=6,
                     con_bound=CON_BOUND_DEFAULT) -> Universe:
    """The standard verification universe with the stock radicals."""
    u = Universe(monoid_max, act_max, hull_bound, con_bound)
    u.register_radical(rd.delta_radical())
    u.register_radical(rd.nabla_radical())
    rg = u.register_radical(rd.rg_radical())
    u.register_radical(rd.lr_induced_radical(rg, con_bound))
    return u
