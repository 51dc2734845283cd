from collections import Counter

import pytest

from radact.congruence import (
    all_congruences,
    class_system,
    diagonal,
    parse_partition,
    quotient,
    total,
)
from radact.core import (
    coproduct,
    product,
    relabel,
    subact_act_by_mask,
    subact_masks,
    trivial_act,
    validate_act,
)
from radact.errors import ClassNotClosed, NotInUniverse, RadactError
from radact.radical import (
    annihilator_union_mask,
    classify_radical,
    closure_mask,
    closure_table,
    coproduct_closed_radical_class,
    delta_radical,
    density_equivalent,
    dense_subact_masks,
    extensional_radical,
    in_Lr,
    induced_radical,
    intersection_large,
    is_r_closed,
    is_r_dense,
    is_r_mono,
    is_radical_act,
    is_semisimple_act,
    lr_induced_radical,
    nabla_radical,
    rg_radical,
    verify_semisimple_class,
)
from radact.universe import Universe, default_universe


@pytest.fixture(scope="module")
def rg():
    return rg_radical()


def x_theta_by_definition(act, theta):
    """Independent oracle: union of cyclic subacts whose every element can
    be sent to theta."""
    out = set()
    for x in act.elements:
        orbit = {row[x] for row in act.action}
        if all(any(row[c] == theta for row in act.action) for c in orbit):
            out |= orbit
    return out


def test_constant_radicals(R2):
    assert delta_radical().of(R2) == diagonal(R2)
    assert nabla_radical().of(R2) == total(R2)


def test_rg_is_diagonal_over_identity_monoid(T1, rg):
    for size in (1, 2, 3, 4):
        act = validate_act(T1, [list(range(size))])
        assert rg.of(act) == diagonal(act)


def test_rg_on_regular_act(R2, rg):
    assert x_theta_by_definition(R2, 1) == {0, 1}
    assert annihilator_union_mask(R2, 1) == 0b11
    assert rg.of(R2) == total(R2)


def test_rg_join_of_two_threads(R2, rg):
    double, _, _ = coproduct(R2, R2)
    assert str(rg.of(double)) == "0 1 | 2 3"


def test_rg_matches_definition_everywhere(U, rg):
    from radact.core import zeros

    for act in U.acts:
        value = rg.of(act)
        for theta in zeros(act):
            block = set(value.block_of(theta))
            assert x_theta_by_definition(act, theta) <= block


def test_radical_and_semisimple_classes(R2, E2, rg):
    theta = trivial_act(E2)
    assert is_radical_act(rg, theta) and is_semisimple_act(rg, theta)
    assert is_radical_act(rg, R2)
    assert not is_semisimple_act(rg, R2)


def test_in_lr(R2, C2, E2, rg):
    assert in_Lr(rg, trivial_act(E2))
    assert in_Lr(rg, R2)
    assert not in_Lr(rg, C2)  # no zero


def test_induced_from_all_acts_is_delta(U):
    r = induced_radical("everything", lambda act: True)
    for act in U.acts[:20]:
        assert r.of(act) == diagonal(act)


def test_induced_from_trivial_acts_is_nabla(U):
    r = induced_radical("only-trivial", lambda act: act.size <= 1)
    for act in U.acts[:20]:
        assert r.of(act) == total(act)


def test_lr_induced_matches_rg(U, rg):
    t = U.radical("t_LrG")
    for act in U.acts:
        assert t.of(act) == rg.of(act)


def test_lr_induced_from_rg_is_the_registered_t_lrg(U):
    t = lr_induced_radical(U.radical("rG"), U.con_bound)
    assert t is U.radical("t_LrG")


def test_extensional_lookup_through_isomorphism(R2, rg):
    table = {R2: rg.of(R2)}
    r = extensional_radical("table", table)
    flipped = relabel(R2, (1, 0))
    assert str(r.of(flipped)) == "0 1"
    with pytest.raises(NotInUniverse):
        r.of(coproduct(R2, R2)[0])


def few_moving(act):
    """At most one non-fixed point: not a semisimple class (it fails closure
    under congruence extensions).  It is also the class ``bad`` that
    ``test_register_refuses_non_closed_class`` registers."""
    fixed = [a for a in act.elements
             if all(row[a] == a for row in act.action)]
    return act.size - len(fixed) <= 1


@pytest.fixture(scope="module")
def U24():
    return Universe(monoid_max=2, act_max=4)


def _mirror(act):
    return relabel(act, tuple(reversed(range(act.size))))


def _refusal(membership, universe):
    with pytest.raises(ClassNotClosed) as info:
        verify_semisimple_class(membership, universe)
    return info.value.condition, info.value.witness


def test_class_without_trivial_acts_is_refused(U24):
    condition, monoid = _refusal(lambda act: act.size > 1, U24)
    assert condition == "contains trivial acts"
    assert monoid == U24.monoids[0]


def test_class_that_reads_labels_is_refused(U24):
    def zero_at_0(act):
        return all(row[0] == 0 for row in act.action)

    condition, act = _refusal(zero_at_0, U24)
    assert condition == "closed under isomorphic copies"
    assert act in U24.acts
    assert zero_at_0(act) != zero_at_0(_mirror(act))


def test_class_without_its_subacts_is_refused(U24):
    def not_two_points(act):
        return act.size != 2

    condition, (act, mask) = _refusal(not_two_points, U24)
    assert condition == "closed under subacts"
    assert act in U24.acts and not_two_points(act)
    assert mask in subact_masks(act)
    assert not not_two_points(subact_act_by_mask(act, mask)[0])


def test_class_without_its_products_is_refused(U24):
    # membership read off the table: a four-point act belongs only as a
    # universe act or its mirror image, so every check before the products
    # passes, and a product laid out otherwise does not belong
    listed = set(U24.acts) | {_mirror(act) for act in U24.acts}

    def listed_tables(act):
        return act.size < 4 or act in listed

    condition, (a, b) = _refusal(listed_tables, U24)
    assert condition == "closed under products"
    assert a in U24.acts and b in U24.acts and a.monoid == b.monoid
    assert a.size * b.size <= U24.act_max
    assert not listed_tables(product(a, b))


def test_class_oracle_rejection(U):
    with pytest.raises(ClassNotClosed):
        verify_semisimple_class(few_moving, U)


def _verify_semisimple_class_on_every_act(membership, universe):
    """Oracle for ``verify_semisimple_class``: the same checks in the same
    order, with the congruence-extension condition tried on every act of
    the universe, members of the class included."""
    for monoid in universe.monoids:
        if not membership(trivial_act(monoid)):
            raise ClassNotClosed("contains trivial acts", monoid)
    for act in universe.acts:
        inside = membership(act)
        mirrored = relabel(act, tuple(reversed(range(act.size))))
        if membership(mirrored) != inside:
            raise ClassNotClosed("closed under isomorphic copies", act)
        if inside:
            for mask in subact_masks(act):
                sub, _ = subact_act_by_mask(act, mask)
                if not membership(sub):
                    raise ClassNotClosed("closed under subacts", (act, mask))
        for chi in all_congruences(act, universe.con_bound):
            if membership(quotient(act, chi)[0]) and all(
                membership(subact_act_by_mask(act, block)[0])
                for block in class_system(chi)
            ):
                if not membership(act):
                    raise ClassNotClosed(
                        "closed under congruence extensions", (act, str(chi))
                    )
    for monoid in universe.monoids:
        members = [a for a in universe.acts_over(monoid) if membership(a)]
        for a in members:
            for b in members:
                if a.size * b.size <= universe.act_max:
                    if not membership(product(a, b)):
                        raise ClassNotClosed("closed under products", (a, b))
    return None


def _class_check_outcome(check, membership, universe):
    try:
        return check(membership, universe)
    except ClassNotClosed as exc:
        return exc.condition, exc.witness


def test_semisimple_class_check_matches_every_act_oracle():
    small = default_universe(monoid_max=2)
    t_lrg = small.radical("t_LrG").membership
    outcomes = {}
    for name, membership in (("t_LrG", t_lrg), ("few_moving", few_moving)):
        got = _class_check_outcome(verify_semisimple_class, membership, small)
        want = _class_check_outcome(
            _verify_semisimple_class_on_every_act, membership, small
        )
        assert got == want, name
        outcomes[name] = got and got[0]
    assert outcomes == {
        "t_LrG": None, "few_moving": "closed under congruence extensions",
    }


def _counting(membership):
    asked = Counter()

    def counted(act):
        asked[act] += 1
        return membership(act)

    return counted, asked


def test_semisimple_class_check_asks_once_per_act():
    small = default_universe(monoid_max=2)
    t_lrg = small.radical("t_LrG").membership
    for name, membership in (("t_LrG", t_lrg), ("few_moving", few_moving)):
        counted, asked = _counting(membership)
        got = _class_check_outcome(verify_semisimple_class, counted, small)
        every, asked_by_oracle = _counting(membership)
        want = _class_check_outcome(
            _verify_semisimple_class_on_every_act, every, small
        )
        assert got == want, name
        assert set(asked.values()) == {1}, name
        assert sum(asked_by_oracle.values()) > len(asked), name


def test_closure_constant_radicals(U):
    delta, nabla = U.radical("delta"), U.radical("nabla")
    for act in U.acts[:25]:
        for mask in subact_masks(act):
            assert closure_mask(delta, act, mask) == mask
            assert closure_mask(nabla, act, mask) == act.full_mask()


def test_closure_rg_dense_point(R2, rg):
    point = 0b10
    assert closure_mask(rg, R2, point) == 0b11
    assert is_r_dense(rg, R2, point)
    assert density_equivalent(rg, R2, point)
    assert not is_r_closed(rg, R2, point)


def test_whole_act_dense_and_closed(U):
    for r in U.radicals:
        for act in U.acts[:15]:
            full = act.full_mask()
            assert is_r_dense(r, act, full)
            assert is_r_closed(r, act, full)


def test_r_mono(R2, rg):
    from radact.core import identity_hom, ActHom

    assert is_r_mono(rg, identity_hom(R2))
    sub, incl = subact_act_by_mask(R2, 0b10)
    assert is_r_mono(rg, incl)
    collapse = ActHom(R2, R2, (1, 1))
    assert not is_r_mono(rg, collapse)


def test_density_equivalent_sweep(U):
    for r in U.radicals:
        for act in U.acts:
            for mask in subact_masks(act):
                assert is_r_dense(r, act, mask) == density_equivalent(
                    r, act, mask
                )


def test_intersection_large(T1, R2):
    three = validate_act(T1, [[0, 1, 2]])
    assert intersection_large(three, 0b111)
    # over the identity-only monoid any proper subset misses some pair
    assert not intersection_large(three, 0b011)
    assert intersection_large(R2, 0b11)
    with pytest.raises(ValueError):
        intersection_large(R2, 0b10)


def test_default_radicals_are_hereditary_kurosh_amitsur(U):
    for r in U.radicals:
        flags = classify_radical(r, U).flags()
        assert all(flags.values()), (r.name, flags)


def test_taxonomy_flags_can_fail(U, T1):
    # a table radical whose non-trivial class is not a radical act
    acts = {a.size: a for a in U.acts_over(T1)}
    table = {
        acts[1]: total(acts[1]),
        acts[2]: diagonal(acts[2]),
        acts[3]: parse_partition(acts[3], "0 1 | 2"),
        acts[4]: diagonal(acts[4]),
    }
    r = extensional_radical("broken-flags", table)
    sub_universe = type(U)(monoid_max=1, act_max=4)
    flags = classify_radical(r, sub_universe)
    assert not flags.weakly_hereditary
    assert not flags.kurosh_amitsur


def test_coproduct_closed_radical_class(U, E2):
    assert coproduct_closed_radical_class(U.radical("nabla"), E2)
    assert not coproduct_closed_radical_class(U.radical("delta"), E2)
    assert not coproduct_closed_radical_class(U.radical("rG"), E2)


def test_dense_masks_are_cached_and_sound(U, rg):
    for act in U.acts[:20]:
        masks = dense_subact_masks(rg, act)
        assert dense_subact_masks(rg, act) is masks
        for m in masks:
            assert closure_mask(rg, act, m) == act.full_mask()


def test_closure_table_is_the_closure_of_every_subact(U, rg):
    for act in U.acts[:20]:
        table = closure_table(rg, act)
        assert closure_table(rg, act) is table
        # keyed by every subact, in the order closure_mask first met them
        assert sorted(table) == list(subact_masks(act))
        for m, c in table.items():
            assert c == closure_mask(rg, act, m)
        assert dense_subact_masks(rg, act) == tuple(
            m for m in subact_masks(act) if is_r_dense(rg, act, m)
        )


def test_duplicate_radical_name_rejected(U):
    with pytest.raises(RadactError):
        U.register_radical(delta_radical())


def test_lr_induced_radical_over_nabla_differs(U, T1):
    from radact.core import zeros

    t = lr_induced_radical(U.radical("nabla"), U.con_bound)
    two = validate_act(T1, [[0, 1]])
    assert t.of(two) == total(two)  # both points are zeros
    zero_free = [a for a in U.acts if a.size == 2 and not zeros(a)]
    assert zero_free
    assert all(t.of(a) == diagonal(a) for a in zero_free)
