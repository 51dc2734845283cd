import inspect
from collections import Counter, defaultdict
from dataclasses import replace

import pytest

from radact.congruence import (
    generated_congruence,
    parse_partition,
    quotient,
    rees_single,
    total,
)
from radact.core import (
    ActHom,
    all_homs,
    compose,
    coproduct,
    coproduct_many,
    find_isomorphism,
    identity_hom,
    is_equivariant,
    mask_members,
    subact_act_by_mask,
    subact_masks,
    trivial_act,
    validate_act,
    zeros,
    _hom_search,
)
from radact import checkers, injectivity
from radact.checkers import _holds_t46
from radact.errors import (
    ActMismatch,
    BoundExceeded,
    ModeUnavailable,
    NotRMono,
    PostconditionError,
)
from radact.injectivity import (
    DirectedChain,
    banaschewski_reduce,
    collectively_large,
    collectively_large_by_homs,
    criterion_r_injective,
    direct_limit,
    limit_labels,
    distinct_pushouts,
    extension_acts,
    injective_hull,
    is_injective,
    is_large,
    is_orthogonal_r_injective,
    is_r_essential,
    is_weakly_injective,
    iso_over_source,
    maximal_r_essential_extension,
    minimal_r_injective_extension,
    pushout_layout,
    pushout_square,
    r_injective_bounded,
    r_injective_hull,
    skornjakov_injective,
    universe_r_injective,
    _extends_along,
    _maps_extend,
    _restrictions,
)
from radact.radical import (
    closure_mask,
    coproduct_closed_radical_class,
    dense_subact_masks,
    extensional_radical,
    is_r_dense,
    is_r_mono,
    rg_radical,
)
from radact.universe import Universe, default_universe
from sweep import extensions_by_sweep


@pytest.fixture(scope="module")
def rg(U):
    return U.radical("rG")


def test_is_large_edges(T1, R2):
    assert is_large(R2, 0b11)
    assert not is_large(R2, 0b10)  # singleton: its Rees congruence is trivial
    two = validate_act(T1, [[0, 1]])
    assert not is_large(two, 0b01)
    one = validate_act(T1, [[0]])
    assert is_large(one, 0b1)  # no non-trivial congruence exists at all


def test_collectively_large(T1, R2):
    assert collectively_large(R2, [0b11])
    three = validate_act(T1, [[0, 1, 2]])
    assert not collectively_large(three, [])
    assert not collectively_large(three, [0b001, 0b010])
    assert collectively_large(three, [0b111])


def test_collectively_large_matches_hom_definition(U):
    sample = [a for a in U.acts if a.size <= 3]
    for act in sample[:20]:
        masks = subact_masks(act)
        for m1 in masks:
            assert collectively_large(act, [m1]) == collectively_large_by_homs(
                act, [m1]
            )


def test_pushout_identity_mono(R2, rg):
    m = identity_hom(R2)
    f = ActHom(R2, R2, (1, 1))
    d, u, v = pushout_square(pushout_layout(m), f)
    assert d.size == R2.size
    assert u.is_bijective()


def test_pushout_into_point_is_rees_factor(U, rg):
    for act in U.acts_over(U.monoids[2])[:8]:
        theta = trivial_act(act.monoid)
        for mask in subact_masks(act):
            if not is_r_dense(rg, act, mask):
                continue
            sub, incl = subact_act_by_mask(act, mask)
            f = ActHom(sub, theta, (0,) * sub.size)
            d, u, v = pushout_square(pushout_layout(incl), f)
            collapsed, _ = quotient(act, rees_single(act, mask))
            assert find_isomorphism(d, collapsed) is not None


def test_pushout_spec_example(R2, E2, rg):
    sub, incl = subact_act_by_mask(R2, 0b10)
    f = ActHom(sub, trivial_act(E2), (0,))
    d, u, v = pushout_square(pushout_layout(incl), f)
    assert d.size == 2
    assert is_r_mono(rg, u)
    assert is_r_dense(rg, d, u.image_mask())


def _pushout_by_definition(r, m, f):
    # the one-map construction that pushout_square reads off a layout laid
    # out once per span, kept as an oracle; D is built through validate_act
    if m.source != f.source:
        raise ValueError("pushout legs must share their source")
    if not is_r_mono(r, m):
        raise NotRMono(f"{m.map} is not a dense monomorphism for {r.name}")
    B, C = m.target, f.target
    image = m.image_mask()
    minv = {}
    for a, b in enumerate(m.map):
        minv[b] = a
    rest = [b for b in B.elements if not (image >> b) & 1]
    tag_rest = {b: i for i, b in enumerate(rest)}
    off = len(rest)
    monoid = B.monoid
    action = []
    for s in monoid.elements:
        row = []
        for b in rest:
            y = B.action[s][b]
            if (image >> y) & 1:
                row.append(off + f.map[minv[y]])
            else:
                row.append(tag_rest[y])
        for c in C.elements:
            row.append(off + C.action[s][c])
        action.append(tuple(row))
    D = validate_act(monoid, action)
    u = ActHom(C, D, tuple(range(off, off + C.size)))
    v_map = [
        off + f.map[minv[b]] if (image >> b) & 1 else tag_rest[b]
        for b in B.elements
    ]
    v = ActHom(B, D, tuple(v_map))
    if any(v.map[m.map[a]] != u.map[f.map[a]] for a in m.source.elements):
        raise PostconditionError("pushout square does not commute")
    return D, u, v


def test_pushouts_match_definition_on_every_l51_span():
    # every span that some radical makes dense, every map out of its subact:
    # one layout per span gives the oracle's D, u and v, and every D passes
    # validate_act, which pushout_square does not run
    u = default_universe(monoid_max=2)
    squares = 0
    for r, incl, c in _l51_spans(u):
        layout = pushout_layout(incl)
        for f in all_homs(incl.source, c):
            d, uu, v = pushout_square(layout, f)
            want_d, want_u, want_v = _pushout_by_definition(r, incl, f)
            assert d.action == want_d.action
            assert uu.map == want_u.map and v.map == want_v.map
            assert (uu.source, uu.target) == (c, d)
            assert (v.source, v.target) == (incl.target, d)
            assert validate_act(d.monoid, d.action) == d
            squares += 1
    assert squares > 1000


def _l51_spans(u):
    # every (radical that makes the subact dense, inclusion, target) of the
    # L5.1 spans, one per (big, mask, c)
    for monoid in u.monoids:
        acts = u.acts_over(monoid)
        for big in acts:
            for mask in subact_masks(big):
                dense = [r for r in u.radicals
                         if mask in dense_subact_masks(r, big)]
                if dense:
                    incl = subact_act_by_mask(big, mask)[1]
                    for c in acts:
                        yield dense[0], incl, c


def test_distinct_pushouts_match_definition_on_every_l51_span():
    # every map f of every span: the square that the distinct generator gives
    # for f's boundary key is the oracle's, and each span yields exactly its
    # distinct oracle D values, in first-seen order
    u = default_universe(monoid_max=2)
    maps = built = 0
    for r, incl, c in _l51_spans(u):
        layout = pushout_layout(incl)
        fs = all_homs(incl.source, c)
        got = list(distinct_pushouts(layout, c))
        want = [_pushout_by_definition(r, incl, f)[:2] for f in fs]
        assert [d.action for d, _ in got] == list(
            dict.fromkeys(d.action for d, _ in want)
        )
        keys = [tuple(f.map[a] for a in layout.boundary) for f in fs]
        square = dict(zip(dict.fromkeys(keys), got))
        for key, (want_d, want_u) in zip(keys, want):
            d, uu = square[key]
            assert d.action == want_d.action and uu.map == want_u.map
            assert (uu.source, uu.target) == (c, d)
        maps += len(fs)
        built += len(got)
    assert (built, maps) == (1499, 7773)


def test_layout_check_catches_a_square_that_does_not_commute(R2):
    sub, incl = subact_act_by_mask(R2, 0b10)
    layout = pushout_layout(incl)
    assert replace(layout) == layout
    bad = list(layout.v_slots)
    bad[incl.map[0]] += 1
    with pytest.raises(PostconditionError):
        replace(layout, v_slots=tuple(bad))


def test_distinct_pushouts_reject_maps_off_the_span(R2, T1):
    # a target over another monoid; the maps are the hom set's own
    _, incl = subact_act_by_mask(R2, 0b10)
    layout = pushout_layout(incl)
    with pytest.raises(ActMismatch):
        next(distinct_pushouts(layout, trivial_act(T1)))


def test_pushout_rejects_maps_off_the_span(R2, T1):
    sub, incl = subact_act_by_mask(R2, 0b10)
    layout = pushout_layout(incl)
    other = ActHom(sub, trivial_act(T1), (0,))
    with pytest.raises(ActMismatch):
        pushout_square(layout, other)
    stray = ActHom(R2, trivial_act(R2.monoid), (0, 0))
    with pytest.raises(ValueError):
        pushout_square(layout, stray)


def test_banaschewski_identity(U, R2, rg):
    pi, comp = banaschewski_reduce(rg, identity_hom(R2), U)
    assert comp.target.size == R2.size
    assert comp.is_injective()


def test_banaschewski_point_into_regular(U, R2, rg):
    sub, incl = subact_act_by_mask(R2, 0b10)
    pi, comp = banaschewski_reduce(rg, incl, U)
    assert comp.is_injective()
    assert is_large(comp.target, comp.image_mask())
    assert is_r_dense(rg, comp.target, comp.image_mask())


def test_banaschewski_sweep_uncollapsed(U, rg):
    # full mono generality over one monoid: compose inclusions with isos
    from radact.core import injective_homs

    e2_acts = U.acts_over(U.monoids[2])
    for src in e2_acts[:6]:
        for tgt in e2_acts[:6]:
            for m in injective_homs(src, tgt):
                if not is_r_mono(rg, m):
                    continue
                _, comp = banaschewski_reduce(rg, m, U)
                assert comp.is_injective()
                assert is_large(comp.target, comp.image_mask())
                assert is_r_dense(rg, comp.target, comp.image_mask())


def test_banaschewski_refuses_a_map_that_is_no_dense_mono(U, R2, rg):
    collapse = next(f for f in all_homs(R2, R2) if not f.is_injective())
    with pytest.raises(NotRMono, match="not a dense monomorphism for rG"):
        banaschewski_reduce(rg, collapse, U)


@pytest.mark.parametrize("name, broken, message", [
    ("_complement", lambda universe, act, chi: total(act),
     "reduction collapsed the embedded act"),
    ("is_large", lambda act, mask: False, "reduced image is not large"),
    ("is_r_dense", lambda r, act, mask: False, "reduced image is not dense"),
])
def test_banaschewski_names_the_postcondition_that_fails(
        U, R2, rg, monkeypatch, name, broken, message):
    # no input breaks these postconditions, so each is broken by hand
    monkeypatch.setattr(injectivity, name, broken)
    with pytest.raises(PostconditionError, match=message):
        banaschewski_reduce(rg, identity_hom(R2), U)


@pytest.mark.parametrize("name, message", [
    ("r_injective_bounded", "closure of the hull is not injective"),
    ("is_r_essential", "not an essential dense extension"),
])
def test_r_hull_names_the_postcondition_that_fails(U, R2, rg, monkeypatch,
                                                   name, message):
    monkeypatch.setattr(injectivity, name, lambda *args: False)
    with pytest.raises(PostconditionError, match=message):
        r_injective_hull(rg, U.find_member(R2), U)


def test_maximal_search_refuses_an_act_above_the_hull_bound(E2):
    tight = Universe(monoid_max=2, act_max=3, hull_bound=2)
    three = validate_act(E2, [[0, 1, 2], [0, 0, 0]])
    with pytest.raises(BoundExceeded, match="no large dense extension"):
        maximal_r_essential_extension(rg_radical(), three, tight)


def test_iso_over_source_false(E2):
    # both two-point acts hold the one-point act on point 0
    theta = trivial_act(E2)
    onto_zero = validate_act(E2, [[0, 1], [0, 0]])
    fixed = validate_act(E2, [[0, 1], [0, 1]])
    three = validate_act(E2, [[0, 1, 2], [0, 0, 0]])
    assert not iso_over_source(theta, onto_zero, three)
    # the same size, but not isomorphic at all
    assert not iso_over_source(theta, onto_zero, fixed)
    assert iso_over_source(theta, fixed, fixed)


def test_directed_chain_validation(R2):
    # from_maps is the one place a chain is checked
    sub, incl = subact_act_by_mask(R2, 0b10)
    with pytest.raises(ValueError, match="^has no acts$"):
        DirectedChain.from_maps((), ())
    with pytest.raises(ValueError,
                       match="^needs 1 links for 2 acts, got 0$"):
        DirectedChain.from_maps((sub, R2), ())
    with pytest.raises(ValueError, match="^has a non-injective link 0$"):
        DirectedChain.from_maps((R2, R2), [(1, 1)])
    with pytest.raises(ValueError,
                       match="^has a link 0 that has a non-integer entry$"):
        DirectedChain.from_maps((R2, R2), [(0.0, 1)])
    chain = DirectedChain.from_maps((sub, R2), [incl.map])
    assert chain == DirectedChain((sub, R2), (incl,))
    assert chain.link(0, 1).map == incl.map
    assert chain.link(1, 1).map == identity_hom(R2).map


def test_direct_limit_single_act(R2):
    limit, legs = direct_limit(DirectedChain((R2,), ()))
    assert find_isomorphism(limit, R2) is not None
    assert legs[0].is_bijective()


def test_direct_limit_identity_chain(R2):
    ident = identity_hom(R2)
    limit, legs = direct_limit(DirectedChain((R2, R2, R2), (ident, ident)))
    assert find_isomorphism(limit, R2) is not None
    assert all(leg.is_bijective() for leg in legs)


def test_direct_limit_point_into_regular(R2, rg):
    sub, incl = subact_act_by_mask(R2, 0b10)
    limit, legs = direct_limit(DirectedChain((sub, R2), (incl,)))
    assert find_isomorphism(limit, R2) is not None
    assert all(is_r_mono(rg, leg) for leg in legs)


def _direct_limit_by_quotient(chain):
    # the coproduct -> generated congruence -> quotient construction that
    # direct_limit runs without building the intermediate acts, kept as an
    # oracle
    total_act, injections = coproduct_many(chain.acts)
    pairs = []
    for i, ln in enumerate(chain.links):
        for a in chain.acts[i].elements:
            pairs.append(
                (injections[i].map[a], injections[i + 1].map[ln.map[a]])
            )
    chi = generated_congruence(total_act, pairs)
    limit, pi = quotient(total_act, chi)
    return limit, [compose(pi, inj) for inj in injections]


@pytest.fixture(scope="module")
def small_chains():
    """Every chain that L5.3, D5.4 and T5.5 build at ``monoid_max=2``."""
    u = default_universe(monoid_max=2)
    chains = [
        parts[1] for kind, parts in checkers._enum_l53(u) if kind == "inst"
    ]
    chains += [
        checkers._chain_from_parts(parts)[1]
        for kind, parts in checkers._enum_chains(u) if kind == "inst"
    ]
    return chains


def test_program_built_chains_pass_the_checked_constructor(small_chains):
    # the checkers build their chains as plain values, unchecked; from_maps,
    # the one place a chain is checked, accepts each of them unchanged
    assert {len(chain.links) for chain in small_chains} == {0, 1, 2}
    for chain in small_chains:
        maps = [ln.map for ln in chain.links]
        assert DirectedChain.from_maps(chain.acts, maps) == chain


def test_direct_limit_matches_quotient_on_every_chain(small_chains):
    assert max(len(chain.acts) for chain in small_chains) == 3
    for chain in small_chains:
        limit, legs = direct_limit(chain)
        want, want_legs = _direct_limit_by_quotient(chain)
        assert limit.monoid == want.monoid
        assert limit.action == want.action
        assert len(legs) == len(want_legs)
        for leg, want_leg in zip(legs, want_legs):
            assert leg.source == want_leg.source
            assert leg.target == limit
            assert leg.map == want_leg.map


def test_l53_decides_the_direct_limit_of_each_chain(monkeypatch):
    # L5.3 builds each chain's limit from the chain's labels alone, once per
    # (top act, labels): the act it decides is direct_limit's limit and the
    # quotient oracle's
    u = default_universe(monoid_max=2)
    decided = []
    real = checkers.is_radical_act

    def deciding(r, act):
        decided.append(act)
        return real(r, act)

    monkeypatch.setattr(checkers, "is_radical_act", deciding)
    keys = set()
    chains = 0
    for _, (r, chain) in checkers._enum_l53(u):
        decided.clear()
        verdict = checkers._holds_l53(u, (r, chain))
        limit, = decided
        want = direct_limit(chain)[0]
        oracle = _direct_limit_by_quotient(chain)[0]
        assert limit == want and limit.action == want.action
        assert (limit.monoid, limit.action) == (oracle.monoid, oracle.action)
        assert verdict == real(r, want)
        top = chain.acts[-1]
        keys.add((top, limit_labels(chain)[-top.size:]))
        chains += 1
    built = inspect.unwrap(checkers._limit_act)
    entries = [key for key in u.memo
               if isinstance(key, tuple) and key[0] is built]
    assert {key[1:] for key in entries} == keys
    assert len(entries) == 163 and chains > 10 * len(entries)


def _link_by_compose(chain, i, j):
    # the fold of compose over identity_hom that DirectedChain.link replaces,
    # kept as an oracle
    h = identity_hom(chain.acts[i])
    for k in range(i, j):
        h = compose(chain.links[k], h)
    return h


def test_link_matches_composite_on_every_chain(small_chains):
    for chain in small_chains:
        k = len(chain.acts)
        for i in range(k):
            for j in range(i, k):
                got = chain.link(i, j)
                want = _link_by_compose(chain, i, j)
                assert got.source == want.source
                assert got.target == want.target
                assert got.map == want.map


def test_direct_limit_legs_commute_with_links(small_chains):
    for chain in small_chains:
        limit, legs = direct_limit(chain)
        for leg in legs:
            assert is_equivariant(leg.source, limit, leg.map)
        for i, ln in enumerate(chain.links):
            for a in chain.acts[i].elements:
                assert legs[i + 1].map[ln.map[a]] == legs[i].map[a]
        assert legs[-1].is_bijective()


def test_every_cocone_factors_through_the_limit_once(small_chains):
    # the universal property, counted through all_homs: a cocone into T is a
    # map from each chain act into T, each the next one's composed with the
    # link between them, and exactly one map from the limit into T composes
    # with the legs to it.  The targets have at most two points, since the
    # cocones into a 4-point set from a chain of 4-point sets number 4**4.
    u = Universe(monoid_max=2, act_max=2)
    checked = 0
    for chain in small_chains:
        limit, legs = direct_limit(chain)
        for target in u.acts_over(chain.acts[0].monoid):
            cocones = [(g.map,) for g in all_homs(chain.acts[0], target)]
            for ln in chain.links:
                # the maps out of the link's target, by their composite
                # with the link
                after = defaultdict(list)
                for g in all_homs(ln.target, target):
                    after[tuple(map(g.map.__getitem__, ln.map))].append(g.map)
                cocones = [c + (g,) for c in cocones for g in after[c[-1]]]
            through = Counter(
                tuple(tuple(map(h.map.__getitem__, leg.map)) for leg in legs)
                for h in all_homs(limit, target)
            )
            assert all(through[c] == 1 for c in cocones), (chain, target)
            checked += len(cocones)
    assert checked > len(small_chains)


def test_direct_limit_rejects_mixed_monoids(T1, E2):
    with pytest.raises(ActMismatch, match="^has a link 0 that joins acts "
                                          "over different monoids$"):
        DirectedChain.from_maps((trivial_act(T1), trivial_act(E2)), [(0,)])


def test_direct_limit_is_top_of_injective_chain(U):
    from radact.core import injective_homs

    acts = U.acts_over(U.monoids[2])
    for a in acts[:5]:
        for b in acts[:5]:
            for m in injective_homs(a, b)[:2]:
                limit, _ = direct_limit(DirectedChain((a, b), (m,)))
                assert find_isomorphism(limit, b) is not None


def test_injective_over_identity_monoid(U, T1):
    for act in U.acts_over(T1):
        assert is_injective(act, U)


def test_injective_examples(U, R2, C2, E2):
    assert is_injective(trivial_act(E2), U)
    assert is_injective(R2, U)
    assert not is_injective(C2, U)  # no zero


def test_injectivity_cross_checks(U):
    nabla = U.radical("nabla")
    for monoid in U.monoids[:3]:
        for act in U.acts_over(monoid):
            expected = is_injective(act, U)
            assert skornjakov_injective(act, U) == expected
            assert universe_r_injective(nabla, act, U) == expected


def _partial(mask, f):
    return dict(zip(mask_members(mask), f.map))


def _extension_count(Q, big, mask, f):
    return len(list(_hom_search(big, Q, _partial(mask, f), False)))


def test_maps_extend_matches_per_map_search(U):
    """The restriction-set lookup agrees with one extension search per map,
    mask by mask and over all masks at once, along the cyclic acts and every
    other universe act; and the multiplicity of a map among the restrictions
    is its number of extensions."""
    for Q in U.acts:
        bigs = set(U.cyclic_acts(Q.monoid)) | set(U.acts_over(Q.monoid))
        for big in bigs:
            masks = subact_masks(big)
            per_mask = []
            for mask in masks:
                sub, _ = subact_act_by_mask(big, mask)
                maps = all_homs(sub, Q)
                counts = Counter(_restrictions(Q, big, mask))
                for f in maps:
                    assert counts[f.map] == _extension_count(Q, big, mask, f)
                # every restriction is one of the maps from the subact
                assert sum(counts[f.map] for f in maps) == len(all_homs(big, Q))
                expected = all(_extends_along(Q, big, mask, f) for f in maps)
                assert _maps_extend(Q, big, [mask], U) == expected, (Q, big, mask)
                per_mask.append(expected)
            assert _maps_extend(Q, big, masks, U) == all(per_mask)


def _maps_extend_alone(Q, big, masks):
    """The extension test of one radical's call, before the answers were
    shared across radicals and deciders, kept as an oracle."""
    for mask in masks:
        restrictions = set(_restrictions(Q, big, mask))
        sub, _ = subact_act_by_mask(big, mask)
        if any(f.map not in restrictions for f in all_homs(sub, Q)):
            return False
    return True


def test_shared_extension_answers_match_per_radical_path():
    """The criterion and universe deciders and the bounded conjunction read
    the shared extension answers and agree with one test per radical and
    call, on every universe act and every injective hull."""
    u = default_universe(monoid_max=2)
    hulls = [injectivity._hull_search(a, u) for a in u.acts]
    targets = list(u.acts) + [h for h in hulls if h is not None]
    seen = set()
    for r in u.radicals:
        for Q in targets:
            baer = all(
                _maps_extend_alone(Q, cyc, dense_subact_masks(r, cyc))
                for cyc in u.cyclic_acts(Q.monoid)
            )
            inside = all(
                _maps_extend_alone(Q, big, dense_subact_masks(r, big))
                for big in u.acts_over(Q.monoid)
            )
            zero_needed = coproduct_closed_radical_class(r, Q.monoid)
            assert criterion_r_injective(r, Q, u) == (
                bool(zeros(Q)) and baer
            ), (r, Q)
            assert universe_r_injective(r, Q, u) == inside, (r, Q)
            assert r_injective_bounded(r, Q, u) == (
                (bool(zeros(Q)) or not zero_needed) and baer and inside
            ), (r, Q)
            seen.add((criterion_r_injective(r, Q, u), inside,
                      r_injective_bounded(r, Q, u)))
    assert all({row[i] for row in seen} == {True, False} for i in range(3))


def _orthogonal_by_search(r, Q, universe):
    """Oracle: one full extension search per map from each dense subact."""
    for big in universe.acts_over(Q.monoid):
        for mask in dense_subact_masks(r, big):
            sub, _ = subact_act_by_mask(big, mask)
            for f in all_homs(sub, Q):
                if _extension_count(Q, big, mask, f) != 1:
                    return False
    return True


def test_orthogonal_matches_per_map_search(U):
    """Deciding uniqueness from the restriction list agrees with the per-map
    search for every radical and universe act, and both answers occur."""
    orthogonal = set()
    for r in U.radicals:
        for Q in U.acts:
            expected = _orthogonal_by_search(r, Q, U)
            assert is_orthogonal_r_injective(r, Q, U) == expected, (r, Q)
            orthogonal.add(expected)
    assert orthogonal == {True, False}


def _t46_by_search(parts):
    """Oracle for T4.6: every extension of every map from the subact,
    found one search per map, lands inside the closure of the map's image."""
    r, big, mask, q = parts
    sub, _ = subact_act_by_mask(big, mask)
    for f in all_homs(sub, q):
        cap = closure_mask(r, q, sum(1 << x for x in set(f.map)))
        for ext in _hom_search(big, q, _partial(mask, f), False):
            if sum(1 << x for x in set(ext)) & ~cap:
                return False
    return True


def test_t46_matches_per_map_search():
    """The T4.6 predicate, run over all maps big -> q at once, agrees with
    the per-map oracle on every instance T4.6 enumerates.  Along a dense
    subact it always holds (the closure is continuous along maps), so the
    sweep takes every subact and every target, where it can fail."""
    small = default_universe(monoid_max=2, act_max=4, hull_bound=4)
    outcomes = set()
    for r in small.radicals:
        for monoid in small.monoids:
            acts = small.acts_over(monoid)
            for big in acts:
                for mask in subact_masks(big):
                    for q in acts:
                        parts = (r, big, mask, q)
                        expected = _t46_by_search(parts)
                        assert _holds_t46(small, parts) == expected, parts
                        outcomes.add(expected)
    assert outcomes == {True, False}


def test_delta_injectivity_universe_mode(U):
    delta = U.radical("delta")
    for act in U.acts:
        assert universe_r_injective(delta, act, U)


def test_nabla_criterion_equals_injectivity(U):
    nabla = U.radical("nabla")
    for act in U.acts[:40]:
        assert criterion_r_injective(nabla, act, U) == is_injective(
            act, U
        )


def test_criterion_mode_unavailable(U, T1):
    from radact.congruence import diagonal

    acts = {a.size: a for a in U.acts_over(T1)}
    table = {
        acts[1]: total(acts[1]),
        acts[2]: diagonal(acts[2]),
        acts[3]: parse_partition(acts[3], "0 1 | 2"),
        acts[4]: diagonal(acts[4]),
    }
    r = extensional_radical("not-zero-hereditary", table)
    small = default_universe(monoid_max=1, act_max=4, hull_bound=4)
    with pytest.raises(ModeUnavailable):
        criterion_r_injective(r, acts[2], small)


def test_orthogonal_injectivity(U, E2):
    delta = U.radical("delta")
    theta = trivial_act(E2)
    for r in U.radicals:
        assert is_orthogonal_r_injective(r, theta, U)
    for act in U.acts[:20]:
        assert is_orthogonal_r_injective(delta, act, U)


def test_weakly_injective(U, T1):
    for act in U.acts_over(T1):
        assert is_weakly_injective(act, U)
    for act in U.acts[:40]:
        if is_injective(act, U):
            assert is_weakly_injective(act, U)


def test_hull_of_injective_act_is_itself(U):
    for act in U.acts[:30]:
        if is_injective(act, U):
            assert injective_hull(act, U) == act


def test_hull_over_identity_monoid(U, T1):
    for act in U.acts_over(T1):
        assert injective_hull(act, U) == act


def test_hull_of_free_orbit(U, C2):
    member = U.find_member(C2)
    hull = injective_hull(member, U)
    assert hull.size == 3
    assert is_large(hull, member.full_mask())
    assert is_injective(hull, U)


def test_hull_bound_exceeded(C2):
    tight = default_universe(monoid_max=2, hull_bound=2)
    member = tight.find_member(C2)
    with pytest.raises(BoundExceeded):
        injective_hull(member, tight)


def test_extension_acts_grow_from_prefix(R2):
    for ext in extension_acts(R2, 3):
        assert ext.size == 3
        for s in range(2):
            assert ext.action[s][:2] == R2.action[s]


def test_r_hull_constant_radicals(U):
    delta, nabla = U.radical("delta"), U.radical("nabla")
    for act in U.acts[:20]:
        try:
            plain = injective_hull(act, U)
        except BoundExceeded:
            continue
        assert r_injective_hull(delta, act, U) == act
        assert r_injective_hull(nabla, act, U) == plain


def test_r_hull_matches_minimal_search_sample(U, rg):
    for act in U.acts_over(U.monoids[2]):
        try:
            hull = r_injective_hull(rg, act, U)
        except BoundExceeded:
            continue
        minimal = minimal_r_injective_extension(rg, act, U)
        assert minimal.size == hull.size
        assert iso_over_source(act, hull, minimal)


def test_maximal_search_finds_the_relative_hull(U):
    """For a Kurosh-Amitsur radical the relative hull is the maximal dense
    and large extension, so the size-maximal search, the r-hull fallback,
    finds it up to isomorphism over the act wherever the hull extends the
    act properly.  Acts whose hull lies beyond the bound are passed over."""
    cases = Counter()
    for r in U.radicals:
        for act in U.acts:
            try:
                hull = r_injective_hull(r, act, U)
            except BoundExceeded:
                continue
            if hull.size == act.size:
                continue
            found = maximal_r_essential_extension(r, act, U)
            assert found.size == hull.size, (r, act)
            assert iso_over_source(act, hull, found), (r, act)
            cases[r.name] += 1
    assert cases == {"rG": 15, "t_LrG": 15, "nabla": 27}


def test_r_hull_fallback_for_non_kurosh_amitsur(E2):
    # override one value of the zero-annihilator radical with a non-Rees
    # congruence: the result is no longer Kurosh-Amitsur, so the relative
    # hull is unavailable and the size-maximal large-and-dense extension
    # stands in for it
    small = default_universe(monoid_max=2, act_max=4, hull_bound=4)
    rg = rg_radical()
    chain4 = validate_act(E2, [[0, 1, 2, 3], [2, 3, 2, 3]])
    member = small.find_member(chain4)
    from radact.congruence import all_congruences, is_rees

    non_rees = next(
        chi for chi in all_congruences(member) if not is_rees(chi)
    )
    table = {act: rg.of(act) for act in small.acts}
    table[member] = non_rees
    mutant = extensional_radical("non-ka", table)
    from radact.radical import classify_radical

    assert not classify_radical(mutant, small).kurosh_amitsur
    theta = small.acts_over(small.monoids[2])[0]
    assert theta.size == 1
    with pytest.raises(ModeUnavailable):
        r_injective_hull(mutant, theta, small)
    # no proper extension within the bound is both dense and large
    assert maximal_r_essential_extension(mutant, theta, small) == theta


def _hull_by_walk(act, universe):
    for ext in extensions_by_sweep(act, universe):
        if is_large(ext, act.full_mask()) and is_injective(ext, universe):
            return ext
    return None


def _minimal_by_walk(r, act, universe):
    for ext in extensions_by_sweep(act, universe):
        if r_injective_bounded(r, ext, universe):
            return ext
    return BoundExceeded


def _maximal_by_walk(r, act, extensions):
    """Every extension of every size, keeping the first of a larger size
    than the best so far in which the act is large and dense (largeness
    asked first: it is the cheaper test); with the number of extensions
    tested."""
    best, tested = None, 0
    mask = act.full_mask()
    for ext in extensions:
        if best is None or ext.size > best.size:
            tested += 1
            if is_large(ext, mask) and is_r_dense(r, ext, mask):
                best = ext
    return (BoundExceeded if best is None else best), tested


def _answer(search, *args):
    try:
        return search(*args)
    except BoundExceeded:
        return BoundExceeded


@pytest.fixture(scope="module")
def order4():
    """The universe of every monoid of order <= 4, with a fixed sample of
    its acts: every hundredth, 13 of 1,205."""
    u = default_universe(monoid_max=4)
    return u, u.acts[::100]


def _assert_hull_and_minimal_match_walks(u, acts):
    """Both searches walk ``act_tables``, which yields one table per
    relabelling orbit; the oracles walk every table."""
    for act in acts:
        assert injectivity._hull_search(act, u) == _hull_by_walk(act, u), act
        for r in u.radicals:
            assert _answer(minimal_r_injective_extension, r, act, u) == (
                _minimal_by_walk(r, act, u)
            ), (r, act)


def test_hull_and_minimal_searches_match_full_walks(U):
    _assert_hull_and_minimal_match_walks(U, U.acts)


def test_hull_and_minimal_searches_match_full_walks_at_order_four(order4):
    _assert_hull_and_minimal_match_walks(*order4)


def _maximal_proper_extensions(u, acts, monkeypatch):
    """Asserts that the search from the largest size down returns the
    walk's act and asks ``is_r_essential`` of no more extensions than the
    walk over every table of every size tests; the radicals that extend
    some act properly."""
    calls = []

    def counting(r, act, mask):
        calls.append(act)
        return is_r_essential(r, act, mask)

    monkeypatch.setattr(injectivity, "is_r_essential", counting)
    proper = set()
    for act in acts:
        extensions = list(extensions_by_sweep(act, u))
        for r in u.radicals:
            want, tested = _maximal_by_walk(r, act, extensions)
            calls.clear()
            got = _answer(maximal_r_essential_extension, r, act, u)
            assert got == want, (r, act)
            assert len(calls) <= tested, (r, act)
            if got.size > act.size:
                proper.add(r.name)
    return proper


def test_maximal_search_matches_full_walk(monkeypatch):
    # the acts of the default universe with extensions up to 5 points: up
    # to 6, the walk over every table is 56,613 extensions per radical
    u = default_universe(hull_bound=5)
    # the search finds a proper extension, not only the act itself
    assert "nabla" in _maximal_proper_extensions(u, u.acts, monkeypatch)


def test_maximal_search_matches_full_walk_at_order_four(order4, monkeypatch):
    _maximal_proper_extensions(*order4, monkeypatch)


def test_r_injective_bounded_is_memoised(monkeypatch):
    u = default_universe(monoid_max=2, act_max=2)
    r = u.radical("nabla")
    act = trivial_act(u.monoids[1])
    calls = []
    real = injectivity.baer_tests

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(injectivity, "baer_tests", counting)
    first = r_injective_bounded(r, act, u)
    assert r_injective_bounded(r, act, u) == first
    assert len(calls) == 1


def test_r_essential_needs_large_as_well_as_dense(R2, rg):
    # the point 1 of R2 is dense but not large
    assert is_r_dense(rg, R2, 0b10) and not is_large(R2, 0b10)
    assert not is_r_essential(rg, R2, 0b10)
    assert is_r_essential(rg, R2, 0b11)
