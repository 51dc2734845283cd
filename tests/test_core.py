import copy
import dataclasses
import gc
import pickle
from itertools import permutations, product as iproduct

import pytest

from radact.checkers import _disjoint_families
from radact.congruence import Congruence, diagonal, quotient, rees_congruence
from radact.core import (
    ActHom,
    FiniteAct,
    FiniteMonoid,
    HomSet,
    all_homs,
    compose,
    coproduct,
    coproduct_many,
    cyclic_mask,
    find_isomorphism,
    hom,
    hom_extension_exists,
    identity_hom,
    injective_homs,
    left_regular_act,
    product,
    product_tuples,
    relabel,
    subact_from_members,
    subact_masks,
    trivial_act,
    validate_act,
    validate_monoid,
    zeros,
)
from radact.radical import rg_radical
from radact.universe import act_tables, default_universe
from radact.errors import (
    ActMismatch,
    AssocAxiom,
    BadIdentity,
    IdentityAxiom,
    NotAssociative,
    NotDisjoint,
)


def brute_associative(table):
    n = len(table)
    return all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x in range(n) for y in range(n) for z in range(n)
    )


def test_validate_trivial_monoid():
    m = validate_monoid([[0]], 0)
    assert m.size == 1 and m.identity == 0


def test_validate_e2_brute_force():
    table = [[0, 1], [1, 1]]
    assert brute_associative(table)
    m = validate_monoid(table, 0, "E2")
    assert m.mul[1][1] == 1


def test_bad_identity_row():
    with pytest.raises(BadIdentity):
        validate_monoid([[0, 1], [1, 0]], 1)


def test_not_associative_witness():
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 1]]
    assert not brute_associative(table)
    with pytest.raises(NotAssociative) as err:
        validate_monoid(table, 0)
    x, y, z = err.value.witness
    assert table[table[x][y]][z] != table[x][table[y][z]]


@pytest.mark.parametrize("table, identity, error, message", [
    ([[0, 1], [1]], 0, ValueError, "must be square"),
    ([[0, 1], [1, 2]], 0, ValueError, "table entry 2 outside carrier"),
    ([[0, 1], [1, 1]], 2, BadIdentity, "fails on element 2"),
    ([[0, 1], [1, 1.5]], 0, ValueError, "table entry 1.5 is not an integer"),
    ([[0, 1], [1, 1]], 0.0, BadIdentity, "fails on element 0.0"),
])
def test_validate_monoid_refusals(table, identity, error, message):
    with pytest.raises(error, match=message):
        validate_monoid(table, identity)


@pytest.mark.parametrize("action, message", [
    ([[0, 1]], "needs 2 rows, got 1"),
    ([[], []], "carriers are non-empty"),
    ([[0, 1], [0]], "rows must have equal length"),
    ([[0, 1], [1, 2]], "action value 2 outside carrier"),
    ([[0, 1], [1, 1.0]], "action value 1.0 is not an integer"),
    ([[0, 1], ["1", 1]], "action value '1' is not an integer"),
])
def test_validate_act_refusals(E2, action, message):
    with pytest.raises(ValueError, match=message):
        validate_act(E2, action)


@pytest.mark.parametrize("call, error, message", [
    (lambda R2, C2: coproduct_many([]), ValueError, "coproduct of no acts"),
    (lambda R2, C2: coproduct_many([R2, C2]),
     ActMismatch, "coproduct requires a common monoid"),
    (lambda R2, C2: product(), ValueError, "product of no acts"),
    (lambda R2, C2: product(R2, C2),
     ActMismatch, "product requires a common monoid"),
    (lambda R2, C2: compose(identity_hom(C2), identity_hom(R2)),
     ActMismatch, "homs do not compose"),
    (lambda R2, C2: all_homs(R2, C2),
     ActMismatch, "homs need a common monoid"),
])
def test_core_refusals(R2, C2, call, error, message):
    with pytest.raises(error) as err:
        call(R2, C2)
    assert str(err.value) == message


def test_validate_act_identity_only(T1):
    act = validate_act(T1, [[0, 1, 2]])
    assert act.size == 3


def test_validate_r2_brute_force(E2, R2):
    # all eight axiom instances by hand
    for t, s, a in iproduct(range(2), range(2), range(2)):
        assert R2.action[t][R2.action[s][a]] == R2.action[E2.mul[t][s]][a]


def test_validate_act_assoc_axiom(E2):
    with pytest.raises(AssocAxiom):
        validate_act(E2, [[0, 1], [1, 0]])


def test_validate_act_identity_axiom(E2):
    with pytest.raises(IdentityAxiom):
        validate_act(E2, [[1, 0], [1, 1]])


def test_zeros(T1, R2, C2):
    every = validate_act(T1, [[0, 1, 2]])
    assert zeros(every) == (0, 1, 2)
    assert zeros(R2) == (1,)
    assert zeros(C2) == ()


def test_cyclic_subacts(T1, R2):
    one = validate_act(T1, [[0, 1]])
    assert cyclic_mask(one, 0) == 0b1
    assert cyclic_mask(R2, 0) == 0b11
    assert cyclic_mask(R2, 1) == 0b10


def test_subacts(T1, R2):
    two = validate_act(T1, [[0, 1]])
    assert subact_masks(two) == (0b1, 0b10, 0b11)
    assert subact_masks(R2) == (0b10, 0b11)
    assert len(subact_masks(trivial_act(T1))) == 1


def test_subact_from_members_rejects_open_sets(R2):
    assert subact_from_members(R2, [1, 0, 1]) == 0b11
    with pytest.raises(ValueError):
        subact_from_members(R2, [0])
    with pytest.raises(ValueError):
        subact_from_members(R2, [])


def test_subact_from_members_rejects_non_integer_members(R2):
    with pytest.raises(ValueError, match="^has a non-integer member$"):
        subact_from_members(R2, [1.0])


@pytest.mark.parametrize("members", [[5], [-1], [1, 2]])
def test_subact_from_members_rejects_members_outside_the_carrier(R2, members):
    with pytest.raises(ValueError, match="outside the 2-point act"):
        subact_from_members(R2, members)


def _rees_factor(act, masks):
    return quotient(act, rees_congruence(act, masks))


def test_rees_quotient_empty_system(R2):
    quo, pi = _rees_factor(R2, [])
    assert pi.is_bijective()
    assert find_isomorphism(quo, R2) is not None


def test_rees_quotient_whole_act(R2):
    quo, _ = _rees_factor(R2, [0b11])
    assert quo.size == 1


def test_rees_quotient_singleton_is_relabeling(R2):
    quo, pi = _rees_factor(R2, [0b10])
    assert pi.is_bijective()
    assert find_isomorphism(quo, R2) is not None


def test_rees_quotient_rejects_overlap(T1, R2):
    act = validate_act(T1, [[0, 1, 2]])
    with pytest.raises(NotDisjoint):
        _rees_factor(act, [0b011, 0b110])
    with pytest.raises(ValueError):
        _rees_factor(R2, [0b01])


def test_coproduct_two_trivial(E2):
    theta = trivial_act(E2)
    double, u1, u2 = coproduct(theta, theta)
    assert double.size == 2
    assert zeros(double) == (0, 1)
    assert u1.map == (0,) and u2.map == (1,)


def test_coproduct_sizes_add(R2, E2):
    total, _, _ = coproduct(R2, trivial_act(E2))
    assert total.size == 3


def test_coproduct_of_regular_acts_has_two_zeros(R2):
    total, u1, u2 = coproduct(R2, R2)
    assert zeros(total) == (1, 3)
    assert u1.is_injective() and u2.is_injective()
    covered = set(u1.map) | set(u2.map)
    assert covered == set(total.elements)


def test_product_single_act_identity(R2):
    assert product(R2) == R2


def test_product_with_point(R2, E2):
    prod = product(trivial_act(E2), R2)
    assert find_isomorphism(prod, R2) is not None


def test_product_of_regular_acts(R2):
    prod = product(R2, R2)
    assert prod.size == 4
    labels = product_tuples(R2, R2)
    assert [labels[z] for z in zeros(prod)] == [(1, 1)]


def test_find_isomorphism_reflexive(R2):
    iso = find_isomorphism(R2, R2)
    assert iso.map == (0, 1)


def test_find_isomorphism_size_mismatch(R2, E2):
    assert find_isomorphism(R2, trivial_act(E2)) is None


def test_find_isomorphism_relabeling(R2):
    flipped = relabel(R2, (1, 0))
    iso = find_isomorphism(R2, flipped)
    assert iso is not None and iso.map == (1, 0)


def test_iso_is_equivalence_on_sample(U):
    sample = [a for a in U.acts if a.size <= 3][:20]
    for a in sample:
        assert find_isomorphism(a, a) is not None
    for a in sample:
        for b in sample:
            if a.monoid != b.monoid:
                continue
            iso = find_isomorphism(a, b)
            if iso is None:
                assert find_isomorphism(b, a) is None
            else:
                assert find_isomorphism(b, a) is not None


def test_iso_finds_every_relabelling_and_no_other_member():
    # every relabelled copy of an act is found isomorphic through a checked
    # bijection, and no two members of the universe, which are pairwise
    # non-isomorphic, are
    u = default_universe(monoid_max=2)
    for act in u.acts:
        for perm in permutations(act.elements):
            twin = relabel(act, perm)
            iso = find_isomorphism(act, twin)
            assert iso is not None and iso.is_bijective()
            assert hom(act, twin, iso.map) == iso
    for a in u.acts:
        for b in u.acts:
            if a is not b and a.monoid == b.monoid and a.size == b.size:
                assert find_isomorphism(a, b) is None


def test_homs_from_point_are_zeros(U, E2):
    theta = trivial_act(E2)
    for act in U.acts_over(E2):
        images = tuple(h.map[0] for h in all_homs(theta, act))
        assert images == zeros(act)


def test_hom_to_point_unique(R2, E2):
    assert len(all_homs(R2, trivial_act(E2))) == 1


def test_hom_set_reads_as_a_tuple_of_maps(R2, E2, C2):
    homs = all_homs(R2, R2)
    maps = tuple(ActHom(R2, R2, m) for m in homs.maps)
    assert tuple(homs) == maps
    assert (len(homs), bool(homs)) == (2, True)
    # a point maps to C2's zeros, and C2 has none
    assert not all_homs(trivial_act(C2.monoid), C2)
    assert copy.copy(homs) == homs == pickle.loads(pickle.dumps(homs))
    # the one-map hom set that a derived per-instance predicate hands a
    # grouped law's decider reads as that map
    one = HomSet(R2, R2, (maps[1].map,))
    assert tuple(one) == maps[1:] and one.maps == ((1, 1),) and len(one) == 1
    assert one != homs
    # every hom set holds the one copy of each map tuple
    flat = validate_act(E2, [[0, 1], [0, 1]], "A2")
    point = trivial_act(E2)
    assert all_homs(flat, point).maps[0] is all_homs(R2, point).maps[0]
    # names take part in no equality, so the acts are the first ones asked
    to_point = all_homs(R2, point)
    assert repr(to_point) == (f"HomSet(source={to_point.source!r}, "
                              f"target={to_point.target!r}, maps=((0, 0),))")


def _garbage_of(run, owner):
    """The functions local to ``owner`` that the cyclic collector finds
    unreachable after ``run()``: under DEBUG_SAVEALL it keeps them in
    ``gc.garbage``.  The gc flags are restored."""
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        run()
        gc.collect()
        return [x for x in gc.garbage if callable(x) and getattr(
            x, "__qualname__", "").startswith(owner + ".<locals>.")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("owner, run", [
    # all_homs's search, past its cache, and a search stopped at its
    # first extension
    ("_hom_search", lambda R2: all_homs.__wrapped__(R2, R2)),
    ("_hom_search", lambda R2: hom_extension_exists(R2, R2, {0: 1})),
    # the orderly walk, run to its end and left after its first table
    ("_orderly_tables", lambda R2: list(act_tables(R2.monoid, 3))),
    ("_orderly_tables", lambda R2: next(act_tables(R2.monoid, 3))),
    # the walk over the families of disjoint subacts (T3.4, T7.3)
    ("_disjoint_families", _disjoint_families),
])
def test_searches_leave_no_reference_cycle(R2, owner, run):
    # each search frees its closures when it ends, rather than leaving
    # them to the cyclic collector
    assert _garbage_of(lambda: run(R2), owner) == []


def test_hom_set_is_not_indexable(R2):
    # a hom set iterates as ActHom and takes neither an index nor a slice
    homs = all_homs(R2, R2)
    for key in (0, -1, slice(0, 2)):
        with pytest.raises(TypeError):
            homs[key]


def test_homs_regular_to_regular_brute_force(R2):
    # filter all four candidate maps by equivariance directly
    expected = []
    for f0 in range(2):
        for f1 in range(2):
            f = (f0, f1)
            if all(
                f[R2.action[s][a]] == R2.action[s][f[a]]
                for s in range(2) for a in range(2)
            ):
                expected.append(f)
    assert [h.map for h in all_homs(R2, R2)] == expected
    assert expected == [(0, 1), (1, 1)]


def _homs_by_brute_force(a, b):
    # every candidate map, in lexicographic order, kept when it commutes
    # with the action at every point
    return [
        f for f in iproduct(b.elements, repeat=a.size)
        if all(f[sa[x]] == sb[f[x]]
               for sa, sb in zip(a.action, b.action) for x in a.elements)
    ]


def _hom_search_pairs(U):
    # every ordered pair over a common monoid: of the acts of the
    # monoid_max=2 universe, and of the acts of at most three points over
    # the order-3 monoids
    small = default_universe(monoid_max=2)
    for monoid in small.monoids:
        acts = small.acts_over(monoid)
        yield from ((a, b) for a in acts for b in acts)
    for monoid in U.monoids:
        if monoid.size == 3:
            acts = [a for a in U.acts_over(monoid) if a.size <= 3]
            yield from ((a, b) for a in acts for b in acts)


def test_hom_search_matches_brute_force(U):
    # all_homs, injective_homs, find_isomorphism and every one-point
    # extension question against the filtered product of candidate maps
    pairs = isos = 0
    for a, b in _hom_search_pairs(U):
        pairs += 1
        want = _homs_by_brute_force(a, b)
        assert [h.map for h in all_homs(a, b)] == want
        injective = [f for f in want if len(set(f)) == a.size]
        assert [h.map for h in injective_homs(a, b)] == injective
        bijective = [f for f in injective if a.size == b.size]
        iso = find_isomorphism(a, b)
        assert (iso and iso.map) == (bijective[0] if bijective else None)
        isos += iso is not None
        for x in a.elements:
            for y in b.elements:
                assert hom_extension_exists(b, a, {x: y}) == any(
                    f[x] == y for f in want)
    # 77 acts, one per isomorphism class, so each is isomorphic to itself
    # only
    assert (pairs, isos) == (647, 77)


def test_hom_constructor_rejects_non_equivariant(R2):
    with pytest.raises(ValueError):
        hom(R2, R2, (1, 0))


@pytest.mark.parametrize("mapping", [(2, 1), (0, -1)])
def test_hom_constructor_rejects_entries_outside_the_target(R2, mapping):
    with pytest.raises(ValueError, match="outside target carrier"):
        hom(R2, R2, mapping)


@pytest.mark.parametrize("mapping", [(0.5, 1), ("0", 1), (0, 1.0), (0, True)])
def test_hom_constructor_rejects_non_integer_entries(R2, mapping):
    with pytest.raises(ValueError, match="^has a non-integer entry$"):
        hom(R2, R2, mapping)


def test_hom_image_of_zero_is_zero(U):
    for monoid in U.monoids[:3]:
        acts = U.acts_over(monoid)
        for a in acts[:6]:
            for b in acts[:6]:
                for f in all_homs(a, b):
                    for z in zeros(a):
                        assert f.map[z] in zeros(b)


def test_injective_homs_subset_of_all(R2):
    inj = injective_homs(R2, R2)
    assert [h.map for h in inj] == [(0, 1)]


def test_left_regular_act(E2):
    reg = left_regular_act(E2)
    assert reg.action == E2.mul


def test_stored_hashes_match_the_compared_fields(U):
    for monoid in U.monoids:
        assert hash(monoid) == hash((monoid.mul, monoid.identity))
    for act in U.acts:
        assert hash(act) == hash((act.monoid, act.action))


def test_names_stay_outside_equality_and_hash(R2):
    renamed = FiniteAct(R2.monoid, R2.action, "other")
    assert renamed == R2 and hash(renamed) == hash(R2)
    assert repr(renamed) != repr(R2)
    monoid = FiniteMonoid(R2.monoid.mul, R2.monoid.identity, "other")
    assert monoid == R2.monoid and hash(monoid) == hash(R2.monoid)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_hash_and_repr(R2, clone):
    for obj in (R2, R2.monoid):
        twin = clone(obj)
        assert twin == obj and twin is not obj
        assert hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)
    changed = FiniteAct(R2.monoid, ((0, 1), (0, 0)))
    assert hash(changed) == hash((R2.monoid, ((0, 1), (0, 0))))


def test_values_refuse_assignment(R2):
    f = hom(R2, R2, (1, 1))
    for obj, name in ((R2.monoid, "identity"), (R2, "action"), (R2, "size"),
                      (f, "map"), (f, "source"), (f, "other")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del f.map
    assert f.map == (1, 1) and R2.size == 2


def test_stored_sizes_and_elements(U, R2):
    for monoid in U.monoids:
        assert monoid.elements == range(len(monoid.mul)) == range(monoid.size)
    for act in U.acts:
        assert act.elements == range(len(act.action[0])) == range(act.size)
    wider = FiniteAct(R2.monoid, ((0, 1, 2), (1, 1, 2)))
    assert wider.size == 3 and wider.elements == range(3)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_hom_copies_keep_value(R2, clone):
    f = hom(R2, R2, (1, 1))
    twin = clone(f)
    assert twin == f and twin is not f
    assert hash(twin) == hash(f) == hash((R2, R2, (1, 1)))
    assert repr(twin) == repr(f) == (
        f"ActHom(source={R2!r}, target={R2!r}, map=(1, 1))"
    )
    assert twin != ActHom(R2, R2, (0, 1)) and twin != (R2, R2, (1, 1))


@pytest.mark.parametrize("pair", [
    lambda R2: (R2.monoid, FiniteMonoid(R2.monoid.mul, R2.monoid.identity)),
    lambda R2: (R2, FiniteAct(R2.monoid, R2.action)),
    lambda R2: (all_homs(R2, R2), HomSet(R2, R2, all_homs(R2, R2).maps)),
    lambda R2: (diagonal(R2), Congruence(R2, (0, 1))),
    # a radical compares by identity, so it is its own twin
    lambda R2: (rg_radical(),) * 2,
], ids=["monoid", "act", "hom set", "congruence", "radical"])
def test_values_compare_hash_and_print(R2, pair):
    """A value equals its twin built apart and hashes equal to it, is unequal
    to a value of another class (its ``__eq__`` returns NotImplemented), and
    prints under its class name."""
    value, twin = pair(R2)
    assert value == twin and hash(value) == hash(twin)
    assert value != "R2"
    assert repr(value).startswith(f"{type(value).__name__}(")
