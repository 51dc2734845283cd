"""Independent oracles for the enumerations: the unpruned sweep of action
tables, for ``universe.act_tables`` and the hull searches that walk it; the
backtracking over every monoid table with a full associativity check at each
leaf (``monoid_tables_by_sweep``), brought to the least relabelling that fixes
the identity, each built in full (``canonical_monoid``), for
``universe.monoid_tables`` and ``enumerate_monoids``; and the congruence
lattice closed under joins of principal congruences, for
``congruence.all_congruences``."""

from itertools import permutations

from radact.congruence import diagonal, generated_congruence, join
from radact.core import FiniteAct, FiniteMonoid


def act_tables_by_sweep(monoid, size, prefix=None):
    """Every action table of the given size that holds ``prefix`` on its
    first points, in generation order: the same backtracking as
    ``act_tables``, without its pruning, and after every cell it fills it
    re-checks every act equation whose cells are filled."""
    n = monoid.size
    m = size
    mul = monoid.mul
    table = [[-1] * m for _ in range(n)]
    for a in range(m):
        table[monoid.identity][a] = a
    start = 0
    if prefix is not None:
        start = prefix.size
        for s in range(n):
            for a in range(start):
                table[s][a] = prefix.action[s][a]
    cells = [
        (s, a)
        for a in range(start, m)
        for s in range(n)
        if s != monoid.identity
    ]

    def consistent():
        for t in range(n):
            for s in range(n):
                for a in range(m):
                    sa = table[s][a]
                    if sa == -1:
                        continue
                    lhs = table[t][sa]
                    rhs = table[mul[t][s]][a]
                    if lhs != -1 and rhs != -1 and lhs != rhs:
                        return False
        return True

    def rec(i):
        if i == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        s, a = cells[i]
        for v in range(m):
            table[s][a] = v
            if consistent():
                yield from rec(i + 1)
        table[s][a] = -1

    yield from rec(0)


def generation_key(monoid, table, start):
    """The free cells of a table in generation order: column by column over
    the points from ``start`` on, each column row by row."""
    rows = [s for s in range(monoid.size) if s != monoid.identity]
    return tuple(table[s][a] for a in range(start, len(table[0]))
                 for s in rows)


def least_in_orbit(monoid, table, start):
    """Whether no relabelling of the points from ``start`` on, each built in
    full, gives a table below this one in generation order."""
    m = len(table[0])
    key = generation_key(monoid, table, start)
    for moved in permutations(range(start, m)):
        perm = tuple(range(start)) + moved
        relabelled = [[0] * m for _ in table]
        for s, row in enumerate(table):
            for a in range(m):
                relabelled[s][perm[a]] = perm[row[a]]
        if generation_key(monoid, relabelled, start) < key:
            return False
    return True


def orderly_tables_by_sweep(monoid, size, prefix=None):
    """The sweep filtered by brute force to the tables that are least
    under every relabelling of the new points: what ``act_tables``
    yields."""
    start = 0 if prefix is None else prefix.size
    for table in act_tables_by_sweep(monoid, size, prefix):
        if least_in_orbit(monoid, table, start):
            yield table


def extensions_by_sweep(act, universe):
    """Every extension act of ``act`` up to the hull bound, by size and then
    table order, unpruned: the walk that every hull search is compared
    against."""
    for size in range(act.size, universe.hull_bound + 1):
        for table in act_tables_by_sweep(act.monoid, size, prefix=act):
            yield FiniteAct(act.monoid, table)


def congruences_by_join_closure(act):
    """The congruence lattice of an act, sorted by index vector, built by
    closing the principal congruences theta(a, b) under binary join: every
    congruence is the join of the principal congruences it contains."""
    principals = set()
    for a in act.elements:
        for b in range(a + 1, act.size):
            principals.add(generated_congruence(act, [(a, b)]))
    found = {diagonal(act)} | principals
    frontier = list(principals)
    while frontier:
        fresh = []
        for chi in frontier:
            for p in principals:
                j = join(chi, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return tuple(sorted(found, key=lambda c: c.index))


def monoid_tables_by_sweep(order):
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


def canonical_monoid(monoid):
    """Least relabeling among permutations fixing the identity."""
    others = [x for x in monoid.elements if x != monoid.identity]
    best = None
    for phi in permutations(range(len(others))):
        perm = [0] * monoid.size
        perm[monoid.identity] = 0
        for i, x in enumerate(others):
            perm[x] = phi[i] + 1
        mul = [[0] * monoid.size for _ in monoid.elements]
        for x in monoid.elements:
            for y in monoid.elements:
                mul[perm[x]][perm[y]] = perm[monoid.mul[x][y]]
        cand = tuple(tuple(row) for row in mul)
        if best is None or cand < best:
            best = cand
    return FiniteMonoid(best, 0)


def monoids_by_sweep(order):
    """The canonical tables of the monoids of the given order, one per
    isomorphism class, sorted: what ``enumerate_monoids`` names
    M{order}.0, M{order}.1, ... in this order."""
    return sorted({
        canonical_monoid(FiniteMonoid(table, 0)).mul
        for table in monoid_tables_by_sweep(order)
    })
