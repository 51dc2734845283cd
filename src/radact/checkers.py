"""Property checkers: one per certified result, registered with the verifier.

Conventions.  Enumerators yield ("inst", parts) for hypothesis-satisfying
instances, ("filtered", parts) otherwise, and ("skip", parts) where a bound
keeps them from deciding the hypotheses (``_enum_dense_in_semisimple`` and
``_enum_t61`` do, when the coproduct closure of a class runs past the act
bound); predicates may raise SizeBound, BoundExceeded or NotInUniverse
(``BOUND_ERRORS``) to mark an instance skipped.  A checker that equates
global properties (T2.4, T2.5, T6.2) decides through ``_sides_agree``,
which skips an instance whose sides disagree only through readings that
an act beyond the bounds could change.  A taxonomy flag the result
assumes of the radical is declared by ``register(..., assumes=FLAG)`` and
filtered on by ``Checker.run``; only checkers whose statement compares flags
call ``classify_radical``.  Three laws are grouped, and each registers
only its group decider; the verifier derives the per-instance predicate.
AX-H1 yields one ("group", ...) per (radical, hom set), its maps as tails,
and reads the two radical congruences once per group.  D2.1 yields only
groups: per (radical, act) over its subacts (c1), per (radical, act, m1)
over the subacts that contain m1 (c2), and per (radical, hom set) over the
source's subacts (c3), a group that stands for one group per map.  L5.1
yields one group per (radical, dense subact), its targets as tails, and
reads a group off the subact's verdict row.  T4.6 reads every map's image,
and the image of the dense subact, off the image tables of D2.1
(``_hom_images``).  Every factor act is
``universe.factor``'s (or ``rees_factor``'s), built once per universe and
interned, so L2.11, T7.3, T2.12 and P2.13 ask capture one radical at a time
(``_on_hull``, ``_in_some_extension``) and share each factor act across
radicals.

Sweeps over monomorphisms are collapsed along images: a mono A -> B with
image M poses exactly the problems of the subact inclusion M -> B, composed
with an isomorphism, so enumerating (B, M) pairs plus maps out of M covers
every mono without relabeling noise.  Quantifiers the theory ranges over all
extensions are approximated by the universe's embeddings plus the bounded
injective hull; coproduct/product closure of a class is checked for pairs
whose sum/product stays within the act-size bound.
"""

from __future__ import annotations

from .congruence import (
    all_congruences,
    class_system,
    is_essential,
    is_rees,
    join,
    push_congruence,
    pull_congruence,
    rees_congruence,
    rees_single,
    relation_pairs,
    smallest_extension,
)
from .core import (
    ActHom,
    all_homs,
    compose,
    coproduct,
    find_isomorphism,
    identity_hom,
    injective_homs,
    is_closed_mask,
    left_regular_act,
    mask_members,
    members_mask,
    memo_on,
    product,
    relabel,
    subact_act_by_mask,
    subact_masks,
    zeros,
)
from .errors import BOUND_ERRORS, BoundExceeded
from .injectivity import (
    DirectedChain,
    banaschewski_reduce,
    closure_in_hull,
    collectively_large,
    collectively_large_by_homs,
    criterion_r_injective,
    direct_limit,
    distinct_pushouts,
    injective_hull,
    is_injective,
    is_large,
    is_r_essential,
    is_orthogonal_r_injective,
    is_weakly_injective,
    iso_over_source,
    limit_labels,
    minimal_r_injective_extension,
    pushout_layout,
    r_injective_bounded,
    r_injective_hull,
    skornjakov_injective,
    universe_r_injective,
    _complement,
    _injective_on,
    _large_masks,
    _maps_extend,
)
from .radical import (
    classify_radical,
    closure_mask,
    closure_table,
    coproduct_closed_radical_class,
    dense_subact_masks,
    density_equivalent,
    in_Lr,
    intersection_large,
    is_r_closed,
    is_r_dense,
    is_r_mono,
    is_radical_act,
    is_semisimple_act,
    lr_induced_radical,
    RadicalTaxonomy,
)
from .universe import factor, rees_factor
from .verifier import register


# ---------------------------------------------------------------------------
# shared helpers


def _pairs(universe):
    for r in universe.radicals:
        for act in universe.acts:
            yield r, act


def _enum_acts(universe):
    for act in universe.acts:
        yield "inst", (act,)


def _enum_radicals(universe):
    for r in universe.radicals:
        yield "inst", (r,)


def _enum_pairs(universe):
    for r, act in _pairs(universe):
        yield "inst", (r, act)


def _enum_pair_subacts(universe):
    for r, act in _pairs(universe):
        for mask in subact_masks(act):
            yield "inst", (r, act, mask)


def _enum_radical_monoids(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            yield "inst", (r, monoid)


def _enum_closed_subacts(universe):
    for r, act in _pairs(universe):
        for mask in subact_masks(act):
            closed = is_r_closed(r, act, mask)
            yield ("inst" if closed else "filtered"), (r, act, mask)


@memo_on(0)
def _embeddings(universe, base):
    """Embeddings of an act into universe acts, the identity first, as a
    tuple built once per universe and act."""
    ident = identity_hom(base)
    out = [ident]
    for target in universe.acts_over(base.monoid):
        for emb in injective_homs(base, target):
            if target == base and emb.map == ident.map:
                continue
            out.append(emb)
    return tuple(out)


def _class_coproduct_closed(universe, r, monoid, member):
    """Bounded closure test under binary coproducts for the class of acts
    satisfying ``member(r, act)``: ``is_radical_act`` or ``is_semisimple_act``.

    Raises BoundExceeded when not a single pair fits inside the act-size
    bound, since the condition is then unevaluatable."""
    members = [a for a in universe.acts_over(monoid) if member(r, a)]
    evaluated = 0
    closed = True
    for a in members:
        for b in members:
            if a.size + b.size <= universe.act_max:
                evaluated += 1
                if not member(r, coproduct(a, b)[0]):
                    closed = False
    if evaluated == 0:
        raise BoundExceeded("no coproduct pair fits inside the act bound")
    return closed


def _sides_agree(*sides) -> bool:
    """Whether every side of an equivalence reads the same, from (value,
    exact) pairs.  A side evaluated inside the bounds is exact when no act
    beyond them could change it: a universally quantified side when it reads
    False.  Sides that disagree are a violation when two exact sides do;
    otherwise only an inexact reading disagrees, and the instance is
    skipped."""
    if len({value for value, _ in sides}) == 1:
        return True
    if len({value for value, exact in sides if exact}) == 2:
        return False
    raise BoundExceeded("the sides disagree only through readings that an "
                        "act beyond the bounds could change")


def _transported_class_system(r, act, mask):
    """Non-trivial subact classes of the radical of a subact, as parent masks."""
    sub, incl = subact_act_by_mask(act, mask)
    return [
        members_mask(incl.map[x] for x in mask_members(block))
        for block in class_system(r.of(sub))
    ]


# ---------------------------------------------------------------------------
# Hoehnke axioms (radical type invariants)


def _hom_sets(universe):
    """Every non-empty hom set between universe acts over one monoid, as
    ``all_homs`` gives it: by monoid, then source, then target.  AX-H1,
    D2.1's continuity groups and C3.5 walk it."""
    for monoid in universe.monoids:
        acts = universe.acts_over(monoid)
        for a in acts:
            for b in acts:
                homs = all_homs(a, b)
                if homs:
                    yield homs


def _enum_h1(universe):
    for r in universe.radicals:
        for homs in _hom_sets(universe):
            yield "group", ((r,), homs)


def _holds_h1_all(universe, head, homs):
    """Functoriality of one radical along each map of the hom set ``homs``
    (a one-map ``HomSet`` for one instance): every radical class of the
    source lands inside one radical class of the target.  The two radical
    congruences are read once per group, and the maps as tuples."""
    r, = head
    blocks = r.of(homs.source).blocks
    index = r.of(homs.target).index
    for fmap in homs.maps:
        for block in blocks:
            rep = index[fmap[block[0]]]
            for x in block[1:]:
                if index[fmap[x]] != rep:
                    return False
    return True


register(
    "AX-H1",
    "functoriality: every homomorphism carries radical-related pairs to "
    "radical-related pairs",
    _enum_h1,
    axiom=True,
    holds_all=_holds_h1_all,
)


def _holds_h2(universe, parts):
    r, act = parts
    quo, _ = factor(universe, act, r.of(act))
    return r.of(quo).is_diagonal()


register(
    "AX-H2",
    "the radical of the factor by the radical congruence is the diagonal",
    _enum_pairs,
    _holds_h2,
    axiom=True,
)


# ---------------------------------------------------------------------------
# section 1


def _holds_r11(universe, parts):
    r, act = parts
    ra = r.of(act)
    sigma_masks = class_system(ra)
    for mask in subact_masks(act):
        sub, _ = subact_act_by_mask(act, mask)
        if mask.bit_count() >= 2 and is_radical_act(r, sub):
            if not any(mask & ~s == 0 for s in sigma_masks):
                return False
        # a class containing a subact is itself action-closed
        bmask = members_mask(ra.block_of(mask_members(mask)[0]))
        if mask & ~bmask == 0:
            if not is_closed_mask(act, bmask):
                return False
    return True


register(
    "R1.1",
    "non-trivial radical subacts sit inside radical classes, and classes "
    "containing subacts are subacts",
    _enum_pairs,
    _holds_r11,
)


def _enum_l12(universe):
    for r, act in _pairs(universe):
        ra = r.of(act)
        for chi in all_congruences(act, universe.con_bound):
            if chi.leq(ra):
                yield "inst", (r, act, chi)
            else:
                yield "filtered", (r, act, chi)


def _holds_l12(universe, parts):
    r, act, chi = parts
    quo, pi = factor(universe, act, chi)
    return r.of(quo) == push_congruence(pi, r.of(act))


register(
    "L1.2",
    "factoring by a congruence below the radical commutes with the radical",
    _enum_l12,
    _holds_l12,
)


# ---------------------------------------------------------------------------
# section 2: closure operator axioms and interplay with the radical


def _enum_d21(universe):
    """D2.1's groups: c1-idem per (radical, act) and c2 per (radical, act,
    m1), then c3 per (radical, hom set), the hom set ending the head and
    the source's subacts as tails.  A c3 group's instances are (r, "c3", f,
    m), map by map (``verifier.group_instances``)."""
    for r, act in _pairs(universe):
        masks = subact_masks(act)
        yield "group", ((r, "c1-idem", act), masks)
        for m1 in masks:
            yield "group", ((r, "c2", act, m1),
                            tuple(m2 for m2 in masks if m1 & ~m2 == 0))
    for r in universe.radicals:
        for homs in _hom_sets(universe):
            yield "group", ((r, "c3", homs), subact_masks(homs.source))


@memo_on(0)
def _image_table(universe, fmap):
    """The image under a map of every subset of its source's carrier, as a
    tuple indexed by the subset's mask.  It depends on the map alone; the
    universe only owns it, so each map's table is built once per run."""
    image = [0]
    for y in fmap:
        image += [fm | 1 << y for fm in image]
    return tuple(image)


def _holds_d21_all(universe, head, tails):
    """One D2.1 group, by the tag of its head.  c1-idem: every subact m in
    ``tails`` lies inside cl(m), and cl(m) is closed.  c2: cl(m1) lies
    inside cl(m2) for every m2 in ``tails``.  c3: continuity of every map
    f: a -> b of the hom set ending the head (a one-map ``HomSet`` for one
    instance) at every subact m of a in ``tails``: f(cl(m)) lies inside
    cl(f(m)).  The closure tables of a and b are read once per group, and
    each map is checked at every mask through its own image table.
    c1-idem and c2 ask ``closure_mask`` mask by mask, so that a bound error
    skips only the instances whose masks hit it."""
    r, tag = head[0], head[1]
    if tag == "c1-idem":
        act = head[2]
        for m in tails:
            c = closure_mask(r, act, m)
            if m & ~c or closure_mask(r, act, c) != c:
                return False
        return True
    if tag == "c2":
        act, m1 = head[2], head[3]
        c1 = closure_mask(r, act, m1)
        return all(c1 & ~closure_mask(r, act, m2) == 0 for m2 in tails)
    homs = head[2]
    cl_a = closure_table(r, homs.source)
    cl_b = closure_table(r, homs.target)
    for fmap in homs.maps:
        image = _image_table(universe, fmap)
        for m in tails:
            if image[cl_a[m]] & ~cl_b[image[m]]:
                return False
    return True


register(
    "D2.1",
    "closure operator laws: extension, idempotency, monotonicity, and "
    "continuity along homomorphisms",
    _enum_d21,
    holds_all=_holds_d21_all,
)


def _enum_l22(universe):
    for r, act in _pairs(universe):
        for mask in dense_subact_masks(r, act):
            sub, _ = subact_act_by_mask(act, mask)
            for chi in all_congruences(sub, universe.con_bound):
                yield "inst", (r, act, mask, chi)


@memo_on(0)
def _l22_factor(universe, act, mask, chi):
    """The factor of the act by the smallest extension of ``chi`` (a
    congruence of the subact ``mask``) and the subact's image in it.  It
    does not depend on the radical, so it is found once for all of them;
    the factor itself is ``factor``'s interned act."""
    _, incl = subact_act_by_mask(act, mask)
    quo, pi = factor(universe, act, smallest_extension(chi, incl))
    image = members_mask(pi.map[x] for x in mask_members(mask))
    # triples far outnumber the distinct factors: keep one copy of each
    # (act, image) pair
    outcome = (quo, image)
    return universe.memo.setdefault(outcome, outcome)


def _holds_l22(universe, parts):
    r, act, mask, chi = parts
    return is_r_dense(r, *_l22_factor(universe, act, mask, chi))


register(
    "L2.2",
    "a dense subact stays dense after factoring by a congruence of the "
    "subact, extended by singletons",
    _enum_l22,
    _holds_l22,
)


def _holds_p23(universe, parts):
    r, act, mask = parts
    outer = class_system(r.of(act))
    inner = _transported_class_system(r, act, mask)
    for xa in outer:
        for xb in inner:
            if xa & xb and not (xb & ~xa == 0 and xa & ~mask == 0):
                return False
    return True


register(
    "P2.3",
    "for a closed subact, radical classes of the subact nest inside those "
    "of the act whenever they meet",
    _enum_closed_subacts,
    _holds_p23,
)


def _t24_conditions(universe, r, monoid):
    """T2.4's four conditions as (value, exact) pairs.  c1, c4 and c2's
    "every act has at most one radical class" range over every act, so
    each is exact when it reads False; c3 reads the doubled point alone,
    which is built whatever the bounds."""
    c1 = _class_coproduct_closed(universe, r, monoid, is_radical_act)
    acts = universe.acts_over(monoid)
    one_class = all(len(class_system(r.of(a))) <= 1 for a in acts)
    c2 = one_class and any(a.size >= 2 and is_radical_act(r, a) for a in acts)
    c3 = coproduct_closed_radical_class(r, monoid)
    c4 = True
    for a in acts:
        zmask = members_mask(zeros(a))
        for m in subact_masks(a):
            if zmask & ~closure_mask(r, a, m):
                c4 = False
                break
        if not c4:
            break
    return (c1, not c1), (c2, not one_class), (c3, True), (c4, not c4)


def _holds_t24(universe, parts):
    r, monoid = parts
    return _sides_agree(*_t24_conditions(universe, r, monoid))


register(
    "T2.4",
    "four equivalent faces of coproduct closure of the radical class: "
    "closure itself, at most one radical class plus a non-trivial radical "
    "act, the doubled point act being radical, and closures absorbing zeros",
    _enum_radical_monoids,
    _holds_t24,
    assumes="kurosh_amitsur",
)


def _enum_t25(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            nontrivial = any(
                a.size >= 2 and is_radical_act(r, a)
                for a in universe.acts_over(monoid)
            )
            yield ("inst" if nontrivial else "filtered"), (r, monoid)


def _holds_t25(universe, parts):
    r, monoid = parts
    closed = _class_coproduct_closed(universe, r, monoid, is_radical_act)
    factor_semisimple = True
    for act in universe.acts_over(monoid):
        for mask in subact_masks(act):
            if not is_r_closed(r, act, mask):
                continue
            quo, _ = rees_factor(universe, act, mask)
            if not is_semisimple_act(r, quo):
                factor_semisimple = False
                break
        if not factor_semisimple:
            break
    # both sides range over every act: each is exact when it reads False
    return _sides_agree((closed, not closed),
                        (factor_semisimple, not factor_semisimple))


register(
    "T2.5",
    "the radical class is coproduct-closed exactly when every factor over "
    "a closed subact is semisimple (needs some non-trivial radical act)",
    _enum_t25,
    _holds_t25,
    assumes="kurosh_amitsur",
)


def _holds_c26(universe, parts):
    r, monoid = parts
    closed = _class_coproduct_closed(universe, r, monoid, is_radical_act)
    target = True
    for act in universe.acts_over(monoid):
        zmask = members_mask(zeros(act))
        ra = r.of(act)
        good = False
        for m in subact_masks(act):
            sub, _ = subact_act_by_mask(act, m)
            if (
                zmask & ~m == 0
                and is_radical_act(r, sub)
                and rees_single(act, m) == ra
            ):
                good = True
                break
        if not good:
            target = False
            break
    return closed == target


register(
    "C2.6",
    "coproduct closure of the radical class amounts to every act having a "
    "radical subact that holds all zeros and generates the radical congruence",
    _enum_radical_monoids,
    _holds_c26,
    assumes="kurosh_amitsur",
)


def _enum_dense_in_semisimple(universe, wanted):
    """The dense subacts of semisimple acts, for each radical and monoid
    whose semisimple class is coproduct-closed (P2.6 and P2.17); a monoid
    on which no coproduct pair fits inside the act bound is skipped.
    ``wanted(act, mask)`` is the condition the result puts on the subact."""
    for r in universe.radicals:
        for monoid in universe.monoids:
            try:
                closed = _class_coproduct_closed(
                    universe, r, monoid, is_semisimple_act
                )
            except BoundExceeded:
                yield "skip", (r, monoid)
                continue
            for act in universe.acts_over(monoid):
                semisimple = is_semisimple_act(r, act)
                for mask in dense_subact_masks(r, act):
                    ok = closed and semisimple and wanted(act, mask)
                    yield ("inst" if ok else "filtered"), (r, act, mask)


def _enum_p26(universe):
    return _enum_dense_in_semisimple(
        universe, lambda act, mask: mask != act.full_mask()
    )


def _holds_p26(universe, parts):
    r, act, mask = parts
    for x in act.elements:
        if (mask >> x) & 1:
            continue
        if any((mask >> row[x]) & 1 for row in act.action):
            return True
    return False


register(
    "P2.6",
    "a proper dense subact of a semisimple act attracts some outside "
    "element into it, when the semisimple class is coproduct-closed",
    _enum_p26,
    _holds_p26,
)


def _enum_d27(universe):
    for r in universe.radicals:
        for src, dst in RadicalTaxonomy.EXPECTED_EDGES:
            yield "inst", (r, src, dst)


def _holds_d27(universe, parts):
    r, src, dst = parts
    flags = classify_radical(r, universe).flags()
    return (not flags[src]) or flags[dst]


register(
    "D2.7",
    "taxonomy implications among the heredity flags hold for every "
    "registered radical",
    _enum_d27,
    _holds_d27,
)


def _closure_weakly_hereditary(universe, r):
    """Does closing each subact inside its own closure give that closure
    back?  Deliberately a loop of its own over closures: it is the oracle
    that checker T2.8 compares the radical's ``weakly_hereditary`` flag
    against."""
    for act in universe.acts:
        for mask in subact_masks(act):
            outer = closure_mask(r, act, mask)
            inner_act, incl = subact_act_by_mask(act, outer)
            pos = {x: i for i, x in enumerate(incl.map)}
            again = closure_mask(r, inner_act, members_mask(
                pos[x] for x in mask_members(mask)))
            if members_mask(incl.map[i] for i in mask_members(again)) != outer:
                return False
    return True


def _holds_t28(universe, parts):
    (r,) = parts
    return (
        _closure_weakly_hereditary(universe, r)
        == classify_radical(r, universe).weakly_hereditary
    )


register(
    "T2.8",
    "the closure operator is weakly hereditary exactly when the radical is, "
    "with both sides evaluated independently",
    _enum_radicals,
    _holds_t28,
)


def _holds_p29(universe, parts):
    r, act, mask = parts
    outer = set(class_system(r.of(act)))
    return all(m in outer for m in _transported_class_system(r, act, mask))


register(
    "P2.9",
    "for a pre-Kurosh radical, radical classes of a closed subact are "
    "radical classes of the whole act",
    _enum_closed_subacts,
    _holds_p29,
    assumes="pre_kurosh",
)


def _holds_c210(universe, parts):
    r, act, mask = parts
    sub, incl = subact_act_by_mask(act, mask)
    return r.of(sub) == pull_congruence(incl, r.of(act))


register(
    "C2.10",
    "a Kurosh-Amitsur radical restricts to closed subacts",
    _enum_closed_subacts,
    _holds_c210,
    assumes="kurosh_amitsur",
)


def _captures(universe, r, emb, chi):
    """Does the embedding capture its source modulo chi: do all embedded
    points land in one radical class of the target modulo the smallest
    extension of chi along it?  The factor does not depend on the radical:
    it is ``factor``'s, built once per universe and (embedding target,
    extended congruence) and interned, so ``r.of`` finds each distinct
    factor act by identity."""
    quo, pi = factor(universe, emb.target, smallest_extension(chi, emb))
    index = r.of(quo).index
    return len({index[pi.map[y]] for y in emb.map}) == 1


@memo_on(0)
def _on_hull(universe, r, base, chi):
    """Capture of ``base`` modulo chi along the injective hull's embedding;
    the hull search's BoundExceeded when the hull is beyond the bound."""
    hull = injective_hull(base, universe)
    return _captures(universe, r, ActHom(base, hull, tuple(base.elements)),
                     chi)


@memo_on(0)
def _in_some_extension(universe, r, base, chi):
    """Capture of ``base`` modulo chi along some embedding of
    ``_embeddings``; a bound hit before the first capture is raised."""
    return any(_captures(universe, r, emb, chi)
               for emb in _embeddings(universe, base))


def _detected(universe, r, base, chi):
    """Condition c2 of T7.3 for one congruence: does "the factor by chi is
    radical" agree with "the act is captured modulo chi in some extension or
    in the hull"?  A hull beyond the bound counts as no capture.  P2.13 asks
    it of Rees congruences."""
    quo, _ = factor(universe, base, chi)
    lhs = is_radical_act(r, quo)
    rhs = _in_some_extension(universe, r, base, chi)
    if not rhs:
        try:
            rhs = _on_hull(universe, r, base, chi)
        except BoundExceeded:
            pass
    return lhs == rhs


def _enum_l211(universe):
    for r, base in _pairs(universe):
        for chi in all_congruences(base, universe.con_bound):
            yield "inst", (r, base, chi)


def _holds_l211(universe, parts):
    # the hull is itself an extension, so capture there implies the
    # existential; the content is that a universe witness forces the hull
    return (_on_hull(universe, *parts)
            or not _in_some_extension(universe, *parts))


register(
    "L2.11",
    "the embedded act is captured by one radical class of the hull factor "
    "exactly when some extension captures it",
    _enum_l211,
    _holds_l211,
)


def _holds_t212(universe, parts):
    # L2.11 on Rees congruences: the smallest extension of rho_C along an
    # embedding is rho of C's image, and the closure of C is the preimage of
    # the collapsed point's class, so "in the closure" is "captured"
    r, base, cmask = parts
    return _holds_l211(universe, (r, base, rees_single(base, cmask)))


register(
    "T2.12",
    "an act lies in the closure of a subact inside its hull exactly when it "
    "does so inside some extension",
    _enum_pair_subacts,
    _holds_t212,
)


def _holds_p213(universe, parts):
    # T7.3's condition c2 on Rees congruences: a subact is dense exactly
    # when its Rees factor is radical
    (r,) = parts
    flag = classify_radical(r, universe).zero_hereditary
    return flag == all(
        _detected(universe, r, base, rees_single(base, cmask))
        for base in universe.acts
        for cmask in subact_masks(base)
    )


register(
    "P2.13",
    "zero-heredity coincides with density being detectable in some "
    "extension (bounded-universe verification)",
    _enum_radicals,
    _holds_p213,
)


def _holds_d214(universe, parts):
    (act,) = parts
    masks = [m for m in subact_masks(act) if m.bit_count() >= 2]
    for m in masks:
        direct = all(
            (m & other).bit_count() >= 2
            for other in subact_masks(act)
            if other.bit_count() >= 2
        )
        if intersection_large(act, m) != direct:
            return False
    return True


register(
    "D2.14",
    "the meets-every-non-trivial-subact-twice test matches its definition",
    _enum_acts,
    _holds_d214,
)


def _enum_l215(universe):
    for act in universe.acts:
        for mask in subact_masks(act):
            nontrivial = mask.bit_count() >= 2
            large = is_large(act, mask)
            yield ("inst" if nontrivial and large else "filtered"), (act, mask)


def _holds_l215(universe, parts):
    act, mask = parts
    return intersection_large(act, mask)


register(
    "L2.15",
    "large subacts meet every non-trivial subact in at least two points",
    _enum_l215,
    _holds_l215,
)


def _enum_t216(universe):
    for r, act in _pairs(universe):
        ss = is_semisimple_act(r, act)
        for mask in dense_subact_masks(r, act):
            ok = ss and mask.bit_count() >= 2
            yield ("inst" if ok else "filtered"), (r, act, mask)


def _holds_t216(universe, parts):
    r, act, mask = parts
    return intersection_large(act, mask)


register(
    "T2.16",
    "for a pre-hereditary radical, dense subacts of semisimple acts meet "
    "every non-trivial subact twice",
    _enum_t216,
    _holds_t216,
    assumes="pre_hereditary",
)


def _enum_p217(universe):
    return _enum_dense_in_semisimple(
        universe, lambda act, mask: mask.bit_count() >= 2
    )


register(
    "P2.17",
    "for a zero-hereditary radical with coproduct-closed semisimple class, "
    "dense subacts of semisimple acts meet every non-trivial subact twice",
    _enum_p217,
    _holds_t216,
    assumes="zero_hereditary",
)


# ---------------------------------------------------------------------------
# section 3


def _disjoint_families(act):
    masks = subact_masks(act)
    families = [()]
    def rec(start, used, cur):
        for i in range(start, len(masks)):
            m = masks[i]
            if m & used:
                continue
            families.append(cur + (m,))
            rec(i + 1, used | m, cur + (m,))
    rec(0, 0, ())
    del rec  # it holds itself through its closure cell
    return families


def _enum_t34(universe):
    for act in universe.acts:
        for family in _disjoint_families(act):
            yield "inst", (act,) + family


def _holds_t34(universe, parts):
    act = parts[0]
    family = parts[1:]
    lhs = collectively_large_by_homs(act, family, universe.con_bound)
    rhs = collectively_large(act, family)
    return lhs == rhs


register(
    "T3.4",
    "a disjoint family is collectively large exactly when its generated "
    "Rees congruence is essential",
    _enum_t34,
    _holds_t34,
)


def _enum_c35(universe):
    for homs in _hom_sets(universe):
        for f in injective_homs(homs.source, homs.target):
            yield "inst", (f,)


def _holds_c35(universe, parts):
    # T3.4 on the family whose one member is the embedding's image
    (f,) = parts
    return _holds_t34(universe, (f.target, f.image_mask()))


register(
    "C3.5",
    "an embedding is essential exactly when the Rees congruence of its "
    "image is essential",
    _enum_c35,
    _holds_c35,
)


def _enum_t36(universe):
    for act in universe.acts:
        for chi in all_congruences(act, universe.con_bound):
            yield "inst", (act, chi)


def _holds_t36(universe, parts):
    act, chi = parts
    kappa = _complement(universe, act, chi)
    quo, pi = factor(universe, act, kappa)
    lifted = push_congruence(pi, join(chi, kappa))
    return is_essential(lifted)


register(
    "T3.6",
    "factoring by a maximal trivial-meet complement makes the joined "
    "congruence essential",
    _enum_t36,
    _holds_t36,
)


def _enum_l37(universe):
    for act in universe.acts:
        for chi in all_congruences(act, universe.con_bound):
            for block in class_system(chi):
                yield "inst", (act, chi, block)


def _holds_l37(universe, parts):
    act, chi, block = parts
    return _injective_on(_complement(universe, act, chi), block)


register(
    "L3.7",
    "a maximal trivial-meet complement separates the points of every "
    "non-trivial subact class",
    _enum_l37,
    _holds_l37,
)


def _enum_l38(universe):
    for act in universe.acts:
        for mask in subact_masks(act):
            yield "inst", (act, mask)


def _holds_l38(universe, parts):
    act, mask = parts
    rho = rees_single(act, mask)
    kappa = _complement(universe, act, rho)
    quo, pi = factor(universe, act, kappa)
    image = set()
    for a in act.elements:
        for b in act.elements:
            if rho.same(a, b):
                image.add((pi.map[a], pi.map[b]))
    lifted = push_congruence(pi, join(rho, kappa))
    return image == set(relation_pairs(lifted))


register(
    "L3.8",
    "the image of a subact's Rees congruence under the complement "
    "projection is the projected join",
    _enum_l38,
    _holds_l38,
)


def _holds_d39(universe, parts):
    r, act, mask = parts
    return is_r_essential(r, act, mask) == (
        collectively_large_by_homs(act, (mask,), universe.con_bound)
        and density_equivalent(r, act, mask)
    )


register(
    "D3.9",
    "an embedding is large-and-dense exactly when its extension record "
    "says so",
    _enum_pair_subacts,
    _holds_d39,
)


def _enum_t310(universe):
    for r, act in _pairs(universe):
        for mask in dense_subact_masks(r, act):
            yield "inst", (r, act, mask)


def _holds_t310(universe, parts):
    r, act, mask = parts
    _, incl = subact_act_by_mask(act, mask)
    # banaschewski_reduce raises PostconditionError, reported as a violation,
    # when the reduced embedding is not injective, large or dense
    banaschewski_reduce(r, incl, universe)
    return True


register(
    "T3.10",
    "every dense embedding projects onto a large-and-dense one",
    _enum_t310,
    _holds_t310,
)


# ---------------------------------------------------------------------------
# section 4


def _holds_d41(universe, parts):
    r, act = parts
    if is_orthogonal_r_injective(r, act, universe):
        return universe_r_injective(r, act, universe)
    return True


register(
    "D4.1",
    "orthogonal relative injectivity implies relative injectivity",
    _enum_pairs,
    _holds_d41,
)


def _enum_t42(universe):
    for r, act in _pairs(universe):
        inj = r_injective_bounded(r, act, universe)
        for mask in subact_masks(act):
            quo, _ = rees_factor(universe, act, mask)
            ok = inj and is_semisimple_act(r, quo)
            yield ("inst" if ok else "filtered"), (r, act, mask)


def _holds_t42(universe, parts):
    r, act, mask = parts
    sub, _ = subact_act_by_mask(act, mask)
    return r_injective_bounded(r, sub, universe)


register(
    "T4.2",
    "a subact of an injective act with semisimple factor is injective "
    "(relative to the radical's dense monos)",
    _enum_t42,
    _holds_t42,
)


def _enum_l43(universe):
    for r in universe.radicals:
        yield "inst", (r, "radical-class")
        for act in universe.acts:
            yield "inst", (r, "member", act)


@memo_on(0)
def _dense_factor_members(universe, r, monoid):
    """The universe acts isomorphic to the Rees factor of some act over the
    monoid by one of its dense subacts: the member side of L4.3, with one
    ``find_member`` search per distinct (interned) factor."""
    factors = {
        rees_factor(universe, big, mask)[0]
        for big in universe.acts_over(monoid)
        for mask in dense_subact_masks(r, big)
    }
    return frozenset(map(universe.find_member, factors))


def _holds_l43(universe, parts):
    r, tag = parts[0], parts[1]
    if tag == "radical-class":
        t = lr_induced_radical(r, universe.con_bound)
        flags = classify_radical(t, universe)
        if not flags.kurosh_amitsur:
            return False
        return all(
            is_radical_act(t, a) == in_Lr(r, a) for a in universe.acts
        )
    act = parts[2]
    direct = act in _dense_factor_members(universe, r, act.monoid)
    return direct == in_Lr(r, act)


register(
    "L4.3",
    "the dense-factor class consists of the radical acts with a zero and is "
    "the radical class of a Kurosh-Amitsur radical",
    _enum_l43,
    _holds_l43,
)


def _holds_t44(universe, parts):
    r, act = parts
    t = lr_induced_radical(r, universe.con_bound)
    return universe_r_injective(r, act, universe) == universe_r_injective(
        t, act, universe
    )


register(
    "T4.4",
    "injectivity relative to a radical coincides with injectivity relative "
    "to the radical induced by its dense-factor class",
    _enum_pairs,
    _holds_t44,
)


def _enum_t45(universe):
    for r, act in _pairs(universe):
        ortho = is_orthogonal_r_injective(r, act, universe)
        yield ("inst" if ortho else "filtered"), (r, act)


def _holds_t45(universe, parts):
    r, act = parts
    return is_semisimple_act(lr_induced_radical(r, universe.con_bound), act)


register(
    "T4.5",
    "orthogonally injective acts are semisimple for the dense-factor "
    "induced radical",
    _enum_t45,
    _holds_t45,
)


def _enum_t46(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            acts = universe.acts_over(monoid)
            targets = [q for q in acts if r_injective_bounded(r, q, universe)]
            for big in acts:
                for mask in dense_subact_masks(r, big):
                    for q in targets:
                        yield "inst", (r, big, mask, q)


@memo_on(0)
def _hom_images(universe, big, q):
    """The image table (``_image_table``) of every map big -> q, in
    ``all_homs`` order: T4.6 reads each map's image and the image of the
    subact off it."""
    return tuple(_image_table(universe, fmap)
                 for fmap in all_homs(big, q).maps)


def _holds_t46(universe, parts):
    # the (map, extension) pairs along the inclusion are exactly (h|sub, h)
    # for the maps h: big -> q
    r, big, mask, q = parts
    cl = closure_table(r, q)
    full = big.full_mask()
    for image in _hom_images(universe, big, q):
        if image[full] & ~cl[image[mask]]:
            return False
    return True


register(
    "T4.6",
    "extensions of a map along a dense inclusion land inside the closure "
    "of the image",
    _enum_t46,
    _holds_t46,
)


def _enum_c47(universe):
    for r, act in _pairs(universe):
        inj = r_injective_bounded(r, act, universe)
        for mask in subact_masks(act):
            yield ("inst" if inj else "filtered"), (r, "closure-inj", act, mask)
    for r, act in _pairs(universe):
        yield "inst", (r, "hull-closure", act)
        yield "inst", (r, "closed-subacts", act)


def _holds_c47(universe, parts):
    r, tag, act = parts[0], parts[1], parts[2]
    if tag == "closure-inj":
        mask = parts[3]
        cmask = closure_mask(r, act, mask)
        sub, _ = subact_act_by_mask(act, cmask)
        return r_injective_bounded(r, sub, universe)
    if tag == "hull-closure":
        return r_injective_bounded(r, closure_in_hull(r, act, universe),
                                   universe)
    lhs = r_injective_bounded(r, act, universe)
    rhs = True
    for mask in subact_masks(act):
        if not is_r_closed(r, act, mask):
            continue
        sub, _ = subact_act_by_mask(act, mask)
        if not r_injective_bounded(r, sub, universe):
            rhs = False
            break
    return lhs == rhs


register(
    "C4.7",
    "closures inside injective extensions are injective; the closure in the "
    "hull is injective; injectivity is equivalent to injectivity of every "
    "closed subact",
    _enum_c47,
    _holds_c47,
)


# ---------------------------------------------------------------------------
# section 5


def _enum_l51(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            acts = universe.acts_over(monoid)
            for big in acts:
                for mask in dense_subact_masks(r, big):
                    yield "group", ((r, big, mask), acts)


@memo_on(0)
def _l51_verdict(universe, radicals, big, mask):
    """L5.1 on the dense subact ``mask`` of ``big`` for every radical of
    ``radicals`` at once: one row with, for each target c of ``acts_over``
    in that order, the outcome of the span (``mask``, c) at each position.
    An outcome is True when ``mask`` is dense in ``big`` and every pushout
    leg u: c -> D is a dense mono, False when not, and (error type, message)
    when the density test on some D hits a bound.  ``radicals`` is the
    universe's registered tuple and part of the memo key, so a radical
    registered later gets fresh verdicts.

    A pushout does not depend on the radical, and the pushouts along maps
    that agree on the boundary of the layout are one and the same, so each
    distinct D is built once (``distinct_pushouts``).  A target's outcome
    list is its set of live radicals: D is tested for a radical only while
    its entry is still True, so a radical is not asked again once it has
    failed or hit a bound.  ``pushout_layout`` checks once that the
    squares commute; a failure raises PostconditionError, which
    Checker.run reports as violated."""
    dense = [mask in dense_subact_masks(q, big) for q in radicals]
    targets = universe.acts_over(big.monoid)
    layout = pushout_layout(subact_act_by_mask(big, mask)[1])
    row = []
    for c in targets:
        outcome = list(dense)
        for _, u in distinct_pushouts(layout, c):
            for i, entry in enumerate(outcome):
                if entry is not True:
                    continue
                try:
                    if not is_r_mono(radicals[i], u):
                        outcome[i] = False
                except BOUND_ERRORS as err:
                    outcome[i] = (type(err), str(err))
        outcome = tuple(outcome)
        # spans far outnumber the distinct outcomes: keep one copy of each
        row.append(universe.memo.setdefault(outcome, outcome))
    return tuple(row)


def _holds_l51_all(universe, head, tails):
    """The targets of ``tails`` in turn, read off the dense subact's verdict
    row: False at the first that fails, its bound error raised at the first
    that hit one.  ``_enum_l51`` gives ``acts_over`` itself, the row's order;
    any other tuple is looked up target by target."""
    r, big, mask = head
    radicals = universe.radicals
    i = radicals.index(r)
    row = _l51_verdict(universe, radicals, big, mask)
    targets = universe.acts_over(big.monoid)
    if tails is not targets:
        row = [row[targets.index(c)] for c in tails]
    for outcome in row:
        outcome = outcome[i]
        if outcome is False:
            return False
        if outcome is not True:
            err_type, message = outcome
            raise err_type(message)
    return True


register(
    "L5.1",
    "a span of a dense mono and a map completes to a commuting square whose "
    "new leg is again a dense mono",
    _enum_l51,
    holds_all=_holds_l51_all,
)


def _radical_member_chains(universe, r, monoid):
    """The chains of at most three radical acts over the monoid along
    injective links, yielded one at a time: single acts, then pairs, then
    triples, each in the order of their links."""
    members = [
        a for a in universe.acts_over(monoid) if is_radical_act(r, a)
    ]
    for a in members:
        yield DirectedChain((a,), ())
    # the injective links between members, and from each member onwards
    links = []
    onwards = {a: [] for a in members}
    for a in members:
        for b in members:
            hs = injective_homs(a, b)
            if hs:
                links.append((a, b, hs))
                onwards[a].append((b, hs))
    for a, b, hs in links:
        for h in hs:
            yield DirectedChain((a, b), (h,))
    for a, b, hs1 in links:
        for c, hs2 in onwards[b]:
            for h1 in hs1:
                for h2 in hs2:
                    yield DirectedChain((a, b, c), (h1, h2))


def _enum_l53(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            for chain in _radical_member_chains(universe, r, monoid):
                yield "inst", (r, chain)


@memo_on(0)
def _limit_act(universe, top, labels):
    """The direct limit of a chain that ends in ``top``, whose points carry
    ``labels`` (``limit_labels``): ``top`` relabelled, as ``direct_limit``
    builds it.  Tens of thousands of chains share a few hundred limits, so
    each is built once per universe, top act and labels.  Most limits equal
    their top act, which the universe holds already: then it is returned,
    and the copy is not kept."""
    limit = relabel(top, labels)
    return top if limit == top else limit


def _holds_l53(universe, parts):
    """Whether the chain's direct limit is radical.  Only the limit act is
    read, so no leg is built: each chain computes its own labels, and its
    limit is ``_limit_act``'s."""
    r, chain = parts
    top = chain.acts[-1]
    labels = limit_labels(chain)[-top.size:]
    return is_radical_act(r, _limit_act(universe, top, labels))


register(
    "L5.3",
    "direct limits of chains of radical acts along embeddings stay radical",
    _enum_l53,
    _holds_l53,
)


def _dense_chain(act, masks):
    """Chain of nested dense subacts presented by inclusion monos."""
    acts = [act]
    links = []
    current = act
    for mask in masks:
        sub, incl = subact_act_by_mask(current, mask)
        acts.insert(0, sub)
        links.insert(0, incl)
        current = sub
    return DirectedChain(tuple(acts), tuple(links))


def _enum_chains(universe):
    for r, act in _pairs(universe):
        yield "inst", (r, act)
        for m1 in dense_subact_masks(r, act):
            if m1 == act.full_mask():
                continue
            yield "inst", (r, act, m1)
            sub1, _ = subact_act_by_mask(act, m1)
            for m0 in dense_subact_masks(r, sub1):
                if m0 == sub1.full_mask():
                    continue
                yield "inst", (r, act, m1, m0)


def _chain_from_parts(parts):
    r, act = parts[0], parts[1]
    return r, _dense_chain(act, parts[2:])


def _holds_d54(universe, parts):
    r, chain = _chain_from_parts(parts)
    k = len(chain.acts)
    for i in range(k):
        for j in range(i, k):
            if not is_r_mono(r, chain.link(i, j)):
                return False
    return True


register(
    "D5.4",
    "chains of dense inclusions are directed families of dense monos, "
    "composites included",
    _enum_chains,
    _holds_d54,
)


def _holds_t55(universe, parts):
    r, chain = _chain_from_parts(parts)
    limit, legs = direct_limit(chain)
    return all(is_r_mono(r, leg) for leg in legs)


register(
    "T5.5",
    "the legs of a direct limit of a chain of dense monos are dense monos",
    _enum_chains,
    _holds_t55,
)


def _enum_r56(universe):
    for r, act in _pairs(universe):
        for m1 in dense_subact_masks(r, act):
            sub1, _ = subact_act_by_mask(act, m1)
            for m0 in dense_subact_masks(r, sub1):
                yield "inst", (r, "B1", act, m1, m0)
    for r, act in _pairs(universe):
        yield "inst", (r, "B2-iso", act)
        for mask in dense_subact_masks(r, act):
            yield "inst", (r, "B2-left", act, mask)


def _holds_r56(universe, parts):
    r, tag, act = parts[0], parts[1], parts[2]
    if tag == "B1":
        m1, m0 = parts[3], parts[4]
        sub1, incl1 = subact_act_by_mask(act, m1)
        _, incl0 = subact_act_by_mask(sub1, m0)
        return is_r_mono(r, compose(incl1, incl0))
    if tag == "B2-iso":
        flip = relabel(act, tuple(reversed(range(act.size))))
        iso = find_isomorphism(act, flip)
        return iso is not None and is_r_mono(r, iso)
    mask = parts[3]
    sub, incl = subact_act_by_mask(act, mask)
    ident = tuple(sub.elements)
    for g in all_homs(sub, sub):
        if compose(incl, g).map == incl.map and g.map != ident:
            return False
    return True


register(
    "R5.6",
    "dense monos compose, contain the isomorphisms, and are left-regular",
    _enum_r56,
    _holds_r56,
)


# ---------------------------------------------------------------------------
# section 6


def _enum_t61(universe):
    for r in universe.radicals:
        for monoid in universe.monoids:
            try:
                closed = _class_coproduct_closed(
                    universe, r, monoid, is_radical_act
                )
            except BoundExceeded:
                yield "skip", (r, monoid)
                continue
            for act in universe.acts_over(monoid):
                inj = r_injective_bounded(r, act, universe)
                ok = closed and inj
                yield ("inst" if ok else "filtered"), (r, "zero", act)
            acts = universe.acts_over(monoid)
            for a in acts:
                for b in acts:
                    if a.size * b.size > universe.act_max:
                        continue
                    yield ("inst" if closed else "filtered"), (r, "product", a, b)


def _holds_t61(universe, parts):
    r, tag = parts[0], parts[1]
    if tag == "zero":
        return bool(zeros(parts[2]))
    a, b = parts[2], parts[3]
    prod = product(a, b)
    both = r_injective_bounded(r, a, universe) and r_injective_bounded(
        r, b, universe
    )
    return r_injective_bounded(r, prod, universe) == both


register(
    "T6.1",
    "with a coproduct-closed radical class, injective acts have zeros and "
    "binary products are injective exactly when both factors are",
    _enum_t61,
    _holds_t61,
)


def _enum_t62(universe):
    for r, act in _pairs(universe):
        yield ("inst" if zeros(act) else "filtered"), (r, act)


def _holds_t62(universe, parts):
    """The criterion ranges over every cyclic act, S itself among them; the
    universe side sees acts of at most ``act_max`` points only, so its True
    is exact only when every cyclic act fits (``act_max`` >= |S|)."""
    r, act = parts
    criterion = criterion_r_injective(r, act, universe)
    inside = universe_r_injective(r, act, universe)
    return _sides_agree(
        (criterion, True),
        (inside, not inside or universe.act_max >= act.monoid.size),
    )


register(
    "T6.2",
    "for zero-hereditary radicals, the cyclic-act extension criterion "
    "decides relative injectivity of acts with a zero",
    _enum_t62,
    _holds_t62,
    assumes="zero_hereditary",
)


def _large_cyclic_criterion(universe, r, q):
    return all(
        _maps_extend(q, cyc, (
            m for m in dense_subact_masks(r, cyc)
            if m in _large_masks(universe, cyc)
        ), universe)
        for cyc in universe.cyclic_acts(q.monoid)
    )


def _holds_c63(universe, parts):
    r, act = parts
    return criterion_r_injective(r, act, universe) == _large_cyclic_criterion(
        universe, r, act
    )


register(
    "C6.3",
    "for acts with a zero, testing along the large dense subacts of cyclic "
    "acts suffices",
    _enum_t62,
    _holds_c63,
    assumes="zero_hereditary",
)


def _enum_t65(universe):
    for r, act in _pairs(universe):
        yield ("inst" if is_semisimple_act(r, act) else "filtered"), (r, act)


def _holds_t65(universe, parts):
    r, act = parts
    reg = left_regular_act(act.monoid)
    target, _ = factor(universe, reg, r.of(reg))
    rhs = _maps_extend(act, target, subact_masks(target), universe)
    return is_weakly_injective(act, universe) == rhs


register(
    "T6.5",
    "for hereditary radicals, a semisimple act extends maps from subacts of "
    "the regular act exactly when it does from the regular act's semisimple "
    "factor",
    _enum_t65,
    _holds_t65,
    assumes="hereditary",
)


# ---------------------------------------------------------------------------
# section 7


def _holds_p71(universe, parts):
    r, act = parts
    # r_injective_hull raises PostconditionError, reported as a violation,
    # when the closure of the hull is not injective or not essential dense
    hull = r_injective_hull(r, act, universe)
    minimal = minimal_r_injective_extension(r, act, universe)
    return minimal.size == hull.size and iso_over_source(act, hull, minimal)


register(
    "P7.1",
    "the closure of an act inside its hull is its minimal injective "
    "extension (relative to the radical) and an essential dense one",
    _enum_pairs,
    _holds_p71,
    assumes="kurosh_amitsur",
)


def _holds_c72(universe, parts):
    r, act = parts
    closed = is_r_closed(r, injective_hull(act, universe), act.full_mask())
    return r_injective_bounded(r, act, universe) == closed


register(
    "C7.2",
    "an act is injective relative to the radical exactly when it is closed "
    "in its injective hull",
    _enum_pairs,
    _holds_c72,
    assumes="kurosh_amitsur",
)


def _t73_c2(universe, r):
    """Condition c2 of T7.3: ``_detected`` for each congruence of each act."""
    return all(
        _detected(universe, r, base, chi)
        for base in universe.acts
        for chi in all_congruences(base, universe.con_bound)
    )


def _t73_conditions(universe, r):
    flags = classify_radical(r, universe)
    c1 = flags.hereditary
    c2 = _t73_c2(universe, r)
    c3 = True
    for act in universe.acts:
        if not is_radical_act(r, act):
            continue
        for mask in subact_masks(act):
            sub, _ = subact_act_by_mask(act, mask)
            if not is_radical_act(r, sub):
                c3 = False
                break
        if not c3:
            break
    c4 = True
    c5 = True
    for act in universe.acts:
        if not is_semisimple_act(r, act):
            continue
        try:
            hull = injective_hull(act, universe)
        except BoundExceeded:
            continue
        if not is_semisimple_act(r, hull):
            c5 = False
        if not is_semisimple_act(r, closure_in_hull(r, act, universe)):
            c4 = False
    c6 = True
    for act in universe.acts:
        for family in _disjoint_families(act):
            if not family:
                continue
            rho = rees_congruence(act, family)
            if not is_essential(rho):
                continue
            blocks_ok = all(
                is_semisimple_act(r, subact_act_by_mask(act, m)[0])
                for m in family
                if m.bit_count() >= 2
            )
            quo, _ = factor(universe, act, rho)
            if blocks_ok and is_semisimple_act(r, quo):
                if not is_semisimple_act(r, act):
                    c6 = False
                    break
        if not c6:
            break
    return c1, c2, c3, c4, c5, c6


def _holds_t73(universe, parts):
    (r,) = parts
    return len(set(_t73_conditions(universe, r))) == 1


register(
    "T7.3",
    "six equivalent faces of heredity for a Kurosh-Amitsur radical: "
    "restriction, image detection through extensions, subact-closed radical "
    "class, hull-closed semisimple class (both hull kinds), and essential "
    "Rees extensions",
    _enum_radicals,
    _holds_t73,
    assumes="kurosh_amitsur",
)


def _holds_l74(universe, parts):
    r, act = parts
    radical = is_radical_act(r, act)
    semisimple = is_semisimple_act(r, act)
    if radical and semisimple and act.size > 1:
        return False
    if radical:
        for chi in all_congruences(act, universe.con_bound):
            if not is_radical_act(r, factor(universe, act, chi)[0]):
                return False
    if semisimple:
        for mask in subact_masks(act):
            if not is_semisimple_act(r, subact_act_by_mask(act, mask)[0]):
                return False
    ra = r.of(act)
    if not is_rees(ra):
        return False
    for block in class_system(ra):
        sub, _ = subact_act_by_mask(act, block)
        if not is_radical_act(r, sub):
            return False
    quo, _ = factor(universe, act, ra)
    return is_semisimple_act(r, quo)


register(
    "L7.4",
    "the radical/semisimple pair of a Kurosh-Amitsur radical: trivial "
    "overlap, image-closed radical class, subact-closed semisimple class, "
    "and a radical system with semisimple factor in every act",
    _enum_pairs,
    _holds_l74,
    assumes="kurosh_amitsur",
)


def _enum_t75(universe):
    for r, act in _pairs(universe):
        ok = r_injective_bounded(r, act, universe)
        yield ("inst" if ok else "filtered"), (r, act)


def _holds_t75(universe, parts):
    r, act = parts
    hull = injective_hull(act, universe)
    return is_semisimple_act(r, act) == is_semisimple_act(r, hull)


register(
    "T7.5",
    "an injective act (relative to the radical) is semisimple exactly when "
    "its injective hull is",
    _enum_t75,
    _holds_t75,
    assumes="kurosh_amitsur",
)


def _enum_t76(universe):
    for r, act in _pairs(universe):
        radical = is_radical_act(r, act)
        yield ("inst" if radical else "filtered"), (r, "hulls", act)
        inj = r_injective_bounded(r, act, universe)
        yield ("inst" if inj else "filtered"), (r, "classes", act)


def _holds_t76(universe, parts):
    r, tag, act = parts
    if tag == "hulls":
        return is_radical_act(r, r_injective_hull(r, act, universe))
    for block in class_system(r.of(act)):
        sub, _ = subact_act_by_mask(act, block)
        if not r_injective_bounded(r, sub, universe):
            return False
    return True


register(
    "T7.6",
    "the radical class is closed under relative injective hulls, and "
    "radical classes of an injective act are injective",
    _enum_t76,
    _holds_t76,
    assumes="kurosh_amitsur",
)


def _enum_t78(universe):
    # every act, filtered when no radical named rG, the subject, is registered
    rg = any(r.name == "rG" for r in universe.radicals)
    for act in universe.acts:
        yield ("inst" if rg else "filtered"), (act,)


def _holds_t78(universe, parts):
    (act,) = parts
    rg = universe.radical("rG")
    return criterion_r_injective(rg, act, universe) == is_injective(
        act, universe
    )


register(
    "T7.8",
    "injectivity relative to the zero-annihilator radical coincides with "
    "plain injectivity",
    _enum_t78,
    _holds_t78,
)


def _holds_c79(universe, parts):
    (act,) = parts
    return is_injective(act, universe) == skornjakov_injective(act, universe)


register(
    "C7.9",
    "the large-subacts-of-cyclic-acts criterion agrees with the full "
    "all-subacts criterion for plain injectivity",
    _enum_acts,
    _holds_c79,
)
