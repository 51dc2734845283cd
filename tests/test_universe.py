from itertools import permutations, product as iproduct

import pytest

from radact import checkers, injectivity, verifier
from radact import universe as universe_module
from radact.congruence import all_congruences, quotient, rees_single
from radact.core import (
    FiniteAct,
    coproduct,
    find_isomorphism,
    left_regular_act,
    relabel,
    subact_act_by_mask,
    subact_masks,
    validate_monoid,
)
from radact.errors import ClassNotClosed, RadactError, UsageError
from radact.radical import induced_radical
from radact.universe import (
    Universe,
    act_tables,
    default_universe,
    enumerate_acts,
    enumerate_monoids,
    factor,
    rees_factor,
)
from sweep import (
    act_tables_by_sweep,
    least_in_orbit,
    monoids_by_sweep,
    orderly_tables_by_sweep,
)

# iso-class counts of acts per monoid (order: M1.0, M2.0, M2.1, M3.*),
# frozen from the enumeration and spot-checked by orbit-type counting for
# the group monoids
ACT_COUNTS = (4, 8, 11, 14, 15, 28, 19, 17, 20, 6)


def brute_monoids_of_order_2():
    """Independent oracle: all 2x2 tables with identity 0, deduplicated by
    exhaustive relabeling."""
    found = set()
    for v in range(2):
        table = ((0, 1), (1, v))
        ok = all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x, y, z in iproduct(range(2), repeat=3)
        )
        if ok:
            found.add(table)
    return found


def _canonical_form_by_permutations(act):
    """Oracle for the isomorphism class of an act: build every relabelling
    in full and keep the least table in row-major order."""
    best = None
    for perm in permutations(act.elements):
        cand = relabel(act, perm).action
        if best is None or cand < best:
            best = cand
    return FiniteAct(act.monoid, best)


def _oracle_sizes():
    """(monoid, size): sizes 1-4 over monoids of order <= 3, and size 5
    over monoids of order <= 2."""
    for monoid in enumerate_monoids(3):
        top = 5 if monoid.size <= 2 else 4
        for size in range(1, top + 1):
            yield monoid, size


def test_act_tables_match_sweep_oracle():
    # the sweep filtered to the tables least under every relabelling, and
    # so one table per isomorphism class
    yielded = 0
    for monoid, size in _oracle_sizes():
        got = list(act_tables(monoid, size))
        assert got == list(orderly_tables_by_sweep(monoid, size)), (
            monoid.name, size)
        classes = {_canonical_form_by_permutations(FiniteAct(monoid, t))
                   for t in got}
        assert len(classes) == len(got)
        assert classes == {
            _canonical_form_by_permutations(FiniteAct(monoid, t))
            for t in act_tables_by_sweep(monoid, size)
        }, (monoid.name, size)
        yielded += len(got)
    assert yielded == 142 + 11


def test_act_tables_with_prefix_match_sweep_oracle(U):
    swept = yielded = 0
    for act in U.acts:
        if act.size > 3:
            continue
        for size in (act.size + 1, act.size + 2):
            got = list(act_tables(act.monoid, size, prefix=act))
            assert got == list(
                orderly_tables_by_sweep(act.monoid, size, prefix=act)
            ), (act.name, size)
            swept += sum(1 for _ in act_tables_by_sweep(
                act.monoid, size, prefix=act))
            yielded += len(got)
    assert (swept, yielded) == (1229, 825)


def test_universe_acts_are_canonical(U):
    # each act is the least table of its class in generation order
    for act in U.acts:
        assert least_in_orbit(act.monoid, act.action, 0), act.name


def test_enumerate_acts_names_the_walk_in_order(U):
    for monoid in U.monoids:
        got = [(a.name, a.action) for a in U.acts_over(monoid)]
        assert got == [
            (f"{monoid.name}.a{m}.{k}", table)
            for m in range(1, U.act_max + 1)
            for k, table in enumerate(act_tables(monoid, m))
        ], monoid.name


def test_monoid_counts():
    assert len(enumerate_monoids(1)) == 1
    assert len(enumerate_monoids(2)) == 3
    assert len(enumerate_monoids(3)) == 10  # 1 + 2 + 7 iso classes


def test_monoid_counts_per_order_match_oeis():
    # OEIS A058129: monoids of order n up to isomorphism
    monoids = enumerate_monoids(5)
    assert tuple(
        sum(1 for m in monoids if m.size == n) for n in range(1, 6)
    ) == (1, 2, 7, 35, 228)


def test_monoids_match_sweep_oracle():
    # the orderly walk names the same tables as canonicalising every
    # associative table and sorting the distinct ones
    monoids = enumerate_monoids(4)
    for n in range(1, 5):
        got = [(m.name, m.mul) for m in monoids if m.size == n]
        assert got == [
            (f"M{n}.{k}", mul) for k, mul in enumerate(monoids_by_sweep(n))
        ], n


def test_order_two_monoids_match_brute_force():
    brute = brute_monoids_of_order_2()
    assert len(brute) == 2
    mons = [m for m in enumerate_monoids(2) if m.size == 2]
    assert {m.mul for m in mons} == brute


def test_monoids_are_valid_and_deduplicated():
    mons = enumerate_monoids(3)
    for m in mons:
        validate_monoid(m.mul, m.identity)
    # identity is always element 0 in the catalog
    assert all(m.identity == 0 for m in mons)


def test_act_counts_over_identity_monoid(T1):
    acts = enumerate_acts(T1, 2)
    assert len(acts) == 2
    acts = enumerate_acts(T1, 4)
    assert len(acts) == 4


def test_act_counts_frozen(U):
    counts = tuple(len(U.acts_over(m)) for m in U.monoids)
    assert counts == ACT_COUNTS


def test_group_act_counts_by_orbit_type(U, Z2):
    # acts over the two-element group decompose into fixed points and free
    # orbits: k + 2l <= 4 gives 8 shapes
    shapes = {
        (k, l)
        for k in range(5)
        for l in range(3)
        if 1 <= k + 2 * l <= 4
    }
    assert len(shapes) == len(U.acts_over(U.monoids[1])) == 8


def test_acts_are_iso_deduplicated(U):
    for monoid in U.monoids:
        acts = U.acts_over(monoid)
        for i, a in enumerate(acts):
            for b in acts[i + 1:]:
                if a.size == b.size:
                    assert find_isomorphism(a, b) is None


def test_universe_closed_under_quotients_and_subacts(U):
    for act in U.acts:
        for chi in all_congruences(act, U.con_bound):
            quo, _ = quotient(act, chi)
            assert U.find_member(quo) is not None
        for mask in subact_masks(act):
            sub, _ = subact_act_by_mask(act, mask)
            assert U.find_member(sub) is not None


def test_find_member_is_an_isomorphic_universe_act(U, C2):
    member = U.find_member(C2)
    assert member in U.acts
    assert find_isomorphism(C2, member) is not None
    for act in U.acts:
        assert U.find_member(relabel(act, tuple(reversed(act.elements)))) is act


def test_find_member_is_none_outside_the_bounds(U):
    big = [a for a in U.acts if a.size == U.act_max][0]
    too_big, _, _ = coproduct(big, big)
    assert U.find_member(too_big) is None
    # a monoid of order 4 is outside the universe
    order4 = enumerate_monoids(4)[-1]
    assert U.find_member(left_regular_act(order4)) is None


def test_cyclic_acts(U, T1, E2):
    assert [a.size for a in U.cyclic_acts(T1)] == [1]
    sizes = sorted(a.size for a in U.cyclic_acts(E2))
    assert sizes == [1, 2]
    reg = left_regular_act(E2)
    assert any(find_isomorphism(c, reg) for c in U.cyclic_acts(E2))
    # memoised on the universe
    assert U.cyclic_acts(E2) is U.cyclic_acts(E2)


def test_default_radicals(U):
    assert [r.name for r in U.radicals] == ["delta", "nabla", "rG", "t_LrG"]
    with pytest.raises(UsageError):
        U.radical("unknown")


@pytest.mark.parametrize("bounds", [
    # a cyclic act over a 2-element monoid needs a 2-point lattice
    dict(monoid_max=2, act_max=1, hull_bound=1, con_bound=1),
    dict(monoid_max=3, act_max=2, con_bound=2),
    dict(act_max=4, con_bound=3),
    dict(monoid_max=0),
    dict(hull_bound=0),
])
def test_inconsistent_bounds_are_refused(bounds):
    with pytest.raises(UsageError):
        default_universe(**bounds)


@pytest.mark.parametrize("call, error, message", [
    # a prefix over another monoid, and a prefix larger than the carrier
    (lambda R2, C2: next(act_tables(C2.monoid, 2, prefix=R2)),
     ValueError, "prefix act does not fit"),
    (lambda R2, C2: next(act_tables(R2.monoid, 1, prefix=R2)),
     ValueError, "prefix act does not fit"),
])
def test_universe_refusals(R2, C2, call, error, message):
    with pytest.raises(error) as err:
        call(R2, C2)
    assert str(err.value) == message


def test_register_refuses_non_closed_class():
    u = Universe(monoid_max=2, act_max=3)
    bad = induced_radical(
        "bad",
        lambda act: act.size - sum(
            1 for a in act.elements
            if all(row[a] == a for row in act.action)
        ) <= 1,
    )
    with pytest.raises(ClassNotClosed):
        u.register_radical(bad)


def test_every_factor_of_a_run_is_its_quotient_interned(monkeypatch):
    # every (act, chi) that a verify run asks ``factor`` for, through the
    # checkers, the injectivity deciders and ``rees_factor``: the factor is
    # the quotient in table and map, a repeat call gives the identical
    # pair, equal factors are one object and the projection lands on it
    calls = []

    def recording(universe, act, chi):
        got = factor(universe, act, chi)
        calls.append((act, chi, got))
        return got

    for module in (checkers, injectivity, universe_module):
        monkeypatch.setattr(module, "factor", recording)
    u = default_universe(monoid_max=2)
    verifier.verify_all(u)
    monkeypatch.undo()
    assert len({(act, chi) for act, chi, _ in calls}) > 100
    interned = {}
    for act, chi, got in calls:
        quo, pi = got
        expected, projection = quotient(act, chi)
        assert (quo, quo.action) == (expected, expected.action)
        assert (pi.source, pi.map) == (act, projection.map)
        assert pi.target is quo
        assert factor(u, act, chi) is got
        assert interned.setdefault(quo, quo) is quo
    for act in u.acts:
        for mask in subact_masks(act):
            got = rees_factor(u, act, mask)
            assert got is factor(u, act, rees_single(act, mask))
            assert rees_factor(u, act, mask) is got
