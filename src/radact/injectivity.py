"""Essential and dense extensions, the transfer pushout, congruence-complement
reduction, direct limits of chains, injectivity deciders (absolute and relative
to a radical), and bounded injective-hull search.

Relative injectivity has two decidable notions, one decider each.
``criterion_r_injective`` runs the Baer-Skornjakov tests: the act must
contain a zero and every homomorphism from a dense subact of a cyclic act
must extend; it is defined when the radical is zero-hereditary on the
universe.  ``universe_r_injective`` quantifies over the dense monomorphisms
whose source and target both lie in the enumerated universe.  The library
does not choose between them: a caller names the notion it asks, and the
CLI's ``r-injective --mode auto`` picks one from the radical's flags.
``r_injective_bounded`` is the conjunction of every decidable necessary
condition (criterion tests, universe tests, and the zero requirement when the
radical class is coproduct-closed); this is the sharpest bounded
approximation of the unbounded notion available here.

Every extension test along a subact inclusion, "does every map from the
subact of big into Q extend to big, and uniquely?", is answered once per
universe and (Q, big, subact) from the restrictions of the maps big -> Q:
the answer does not depend on a radical, so every radical, both relative
deciders, plain and weak injectivity and the orthogonality test share it.

Every hull search is one walk, ``_first_extension``, over the extensions of
an act up to the universe's ``hull_bound`` points, one table per orbit under
the relabellings that fix the act (``universe.act_tables``).
``injective_hull`` takes the first that is injective (``is_injective``) with
the act large in it, and ``minimal_r_injective_extension`` the first passing
``r_injective_bounded``.
A hull is a plain act that holds the act on its first ``act.size`` points,
so the embedding is the inclusion of that prefix: the searches and
``r_injective_hull`` (the act's closure in its hull) return such acts.
``distinct_pushouts`` reads the maps of a span off ``all_homs`` itself, and
a direct limit is the chain's last act relabelled (``core.relabel``) along
the labels of ``limit_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .congruence import (
    CON_BOUND_DEFAULT,
    Congruence,
    all_congruences,
    is_essential,
    maximal_complement,
    rees_congruence,
    rees_single,
    _canonical,
)
from .core import (
    ActHom,
    FiniteAct,
    all_homs,
    compose,
    hom,
    hom_extension_exists,
    left_regular_act,
    mask_members,
    memo_on,
    relabel,
    subact_act_by_mask,
    subact_masks,
    zeros,
    _hom_search,
)
from .errors import (
    ActMismatch,
    BoundExceeded,
    ModeUnavailable,
    NotRMono,
    PostconditionError,
)
from .radical import (
    Radical,
    classify_radical,
    closure_mask,
    coproduct_closed_radical_class,
    dense_subact_masks,
    is_r_dense,
    is_r_mono,
)
from .universe import act_tables, factor


# ---------------------------------------------------------------------------
# largeness


def is_large(act: FiniteAct, mask: int) -> bool:
    """A subact is large when its Rees congruence is essential; for trivial
    subacts that congruence is the diagonal, so the answer is almost always
    False."""
    return is_essential(rees_single(act, mask))


def collectively_large(act: FiniteAct, masks) -> bool:
    """A disjoint family of subacts is collectively large iff its Rees
    congruence is essential.  The empty family means testing the diagonal."""
    return is_essential(rees_congruence(act, masks))


def collectively_large_by_homs(act: FiniteAct, masks,
                               bound: int = CON_BOUND_DEFAULT) -> bool:
    """Definition-level test: every map injective on each family member is
    injective.  Quantifying over quotients of the act is exhaustive, since
    every homomorphism factors through its kernel.

    Deliberately built on the full congruence lattice, not on principal
    congruences: it is the oracle that checker T3.4 compares
    ``collectively_large`` (and so ``is_essential``) against; C3.5 asks it
    of an embedding's image and D3.9 of a subact."""
    for chi in all_congruences(act, bound):
        if chi.is_diagonal():
            continue
        if all(_injective_on(chi, mask) for mask in masks):
            return False
    return True


def _injective_on(chi: Congruence, mask: int) -> bool:
    members = mask_members(mask)
    return len({chi.index[a] for a in members}) == len(members)


def is_r_essential(r: Radical, act: FiniteAct, mask: int) -> bool:
    """Is the subact both dense and large?  Density is asked first and
    always, so a radical that cannot decide it raises its bound error here
    whatever the subact's largeness."""
    return is_r_dense(r, act, mask) and is_large(act, mask)


# ---------------------------------------------------------------------------
# the transfer pushout


@dataclass(frozen=True)
class PushoutLayout:
    """What every pushout of one dense mono m: A -> B shares, laid out once.

    A pushout D along a map f: A -> C has B's leftover points (those off the
    image of m) as its first ``off`` points, followed by C.  ``rows`` holds
    B's action on the leftover points, one row per monoid element, and
    ``v_slots`` the other leg v: B -> D, both as slots: a slot below ``off``
    is a leftover point of D, and slot ``off + a`` is the image under f of
    the point a of A.  ``boundary`` is the sorted tuple of the points of A
    whose slots the rows hold, so D reads f only there.

    The square commutes for every f when v's slot of m(a) is a's slot for
    every a: then v(m(a)) = f(a) = u(f(a)).  The layout checks this once,
    when it is made, and raises PostconditionError otherwise."""

    mono: ActHom
    off: int
    rows: tuple[tuple[int, ...], ...]
    v_slots: tuple[int, ...]
    boundary: tuple[int, ...]

    def __post_init__(self):
        if any(self.v_slots[b] != self.off + a
               for a, b in enumerate(self.mono.map)):
            raise PostconditionError("pushout square does not commute")


def pushout_layout(m: ActHom) -> PushoutLayout:
    """The layout of the pushouts of the mono m: A -> B.  It does not depend
    on a radical, so it does not check that m is a dense mono."""
    B = m.target
    image = m.image_mask()
    minv = {b: a for a, b in enumerate(m.map)}
    rest = [b for b in B.elements if not (image >> b) & 1]
    off = len(rest)
    tag_rest = {b: i for i, b in enumerate(rest)}

    def slot(b):
        return off + minv[b] if (image >> b) & 1 else tag_rest[b]

    rows = tuple(tuple(slot(row[b]) for b in rest) for row in B.action)
    boundary = sorted({s - off for row in rows for s in row if s >= off})
    return PushoutLayout(m, off, rows, tuple(map(slot, B.elements)),
                         tuple(boundary))


def _target_part(layout: PushoutLayout, C: FiniteAct):
    """What the pushouts into C share: C's rows shifted past the leftover
    points, and u's map; ActMismatch when C is over another monoid."""
    if C.monoid != layout.mono.target.monoid:
        raise ActMismatch("pushout map lands in an act over another monoid")
    off = layout.off
    return ([tuple(off + y for y in row) for row in C.action],
            tuple(range(off, off + C.size)))


def _pushout_act(layout: PushoutLayout, c_rows, fmap):
    """D along the map ``fmap``, and the value of each slot along it."""
    off = layout.off
    get = (list(range(off)) + [off + y for y in fmap]).__getitem__
    D = FiniteAct(layout.mono.target.monoid, tuple(
        tuple(map(get, rr)) + cr for rr, cr in zip(layout.rows, c_rows)
    ))
    return D, get


def distinct_pushouts(layout: PushoutLayout, C: FiniteAct):
    """Each distinct pushout (D, u) of the layout's mono m: A -> B along the
    maps of ``all_homs(A, C)``, once, in first-seen order.  D and u read a
    map only at the boundary points, so the maps are keyed by their images
    there."""
    c_rows, u_map = _target_part(layout, C)
    boundary = layout.boundary
    seen = set()
    for fmap in all_homs(layout.mono.source, C).maps:
        key = tuple(map(fmap.__getitem__, boundary))
        if key not in seen:
            seen.add(key)
            D, _ = _pushout_act(layout, c_rows, fmap)
            yield D, ActHom(C, D, u_map)


def pushout_square(layout: PushoutLayout, f: ActHom):
    """Complete the span (the layout's mono m: A -> B, map f: A -> C) to a
    commuting square (D, u, v), with new legs u: C -> D and v: B -> D.

    D's carrier is B minus the image of m, followed by C.  The action sends a
    leftover element of B into C through f whenever multiplication lands in
    the image of m; only f's images are filled into the layout.  This serves
    the ``pushout`` command; L5.1 builds each distinct pushout of a span
    once (``distinct_pushouts``).  D satisfies the act axioms by
    construction, so it is built as a plain act; a test runs
    ``validate_act`` on every D of the small universe.  u is a dense mono
    when m is one (L5.1), which the caller checks.
    """
    m = layout.mono
    if f.source != m.source:
        raise ValueError("pushout legs must share their source")
    C = f.target
    c_rows, u_map = _target_part(layout, C)
    D, get = _pushout_act(layout, c_rows, f.map)
    return (D, ActHom(C, D, u_map),
            ActHom(m.target, D, tuple(map(get, layout.v_slots))))


# ---------------------------------------------------------------------------
# reduction to an essential image


@memo_on(0)
def _complement(universe, act: FiniteAct, chi: Congruence) -> Congruence:
    """``maximal_complement`` of chi, computed once per universe and
    (act, chi): T3.6, L3.7 (which asks once per class), L3.8 and
    ``banaschewski_reduce`` share it."""
    return maximal_complement(act, chi)


def banaschewski_reduce(r: Radical, f: ActHom, universe):
    """Given a dense mono f: B -> A, project A by a maximal congruence meeting
    the image's Rees congruence trivially.  The composite B -> A/kappa is then
    an embedding that is both large and dense; PostconditionError says which
    of the three fails."""
    if not is_r_mono(r, f):
        raise NotRMono(f"{f.map} is not a dense monomorphism for {r.name}")
    A = f.target
    kappa = _complement(universe, A, rees_single(A, f.image_mask()))
    X, pi = factor(universe, A, kappa)
    composite = compose(pi, f)
    if not composite.is_injective():
        raise PostconditionError("reduction collapsed the embedded act")
    mask = composite.image_mask()
    if not is_large(X, mask):
        raise PostconditionError("reduced image is not large")
    if not is_r_dense(r, X, mask):
        raise PostconditionError("reduced image is not dense")
    return pi, composite


# ---------------------------------------------------------------------------
# chains and direct limits


@dataclass(frozen=True)
class DirectedChain:
    """Finite chain of acts over one monoid with injective links; composites
    are derived.  A plain value, like ``ActHom``: the chains the program
    builds are correct by construction and are not checked again, and
    ``from_maps`` alone checks a chain read from outside the program."""

    acts: tuple[FiniteAct, ...]
    links: tuple[ActHom, ...]

    @classmethod
    def from_maps(cls, acts, maps) -> DirectedChain:
        """The chain of ``acts`` whose link i has the images ``maps[i]``:
        the checked constructor of chains (see ``core.hom``).  It checks the
        link count, builds each link with ``hom``, and then checks that each
        link is injective.  A link that ``hom`` refuses is named in front of
        its message ("has a link 1 that is not equivariant")."""
        acts, maps = tuple(acts), tuple(maps)
        if not acts:
            raise ValueError("has no acts")
        if len(maps) != len(acts) - 1:
            raise ValueError(f"needs {len(acts) - 1} links for {len(acts)} "
                             f"acts, got {len(maps)}")
        links = []
        for i, (source, target, images) in enumerate(zip(acts, acts[1:],
                                                         maps)):
            try:
                links.append(hom(source, target, images))
            except (ValueError, ActMismatch) as exc:
                raise type(exc)(f"has a link {i} that {exc}") from None
        for i, ln in enumerate(links):
            if not ln.is_injective():
                raise ValueError(f"has a non-injective link {i}")
        return cls(acts, tuple(links))

    def link(self, i: int, j: int) -> ActHom:
        """The composite of the links from act i to act j."""
        images = tuple(self.acts[i].elements)
        for ln in self.links[i:j]:
            images = tuple(map(ln.map.__getitem__, images))
        return ActHom(self.acts[i], self.acts[j], images)


def limit_labels(chain: DirectedChain) -> tuple[int, ...]:
    """The label of every element of the chain in its direct limit, member
    by member (the carriers side by side, as in their coproduct).

    A finite chain ends in its last act An, so the limit is An: two elements
    of the chain are identified exactly when the links carry them to the same
    point of An.  Every element is labelled by that point, labels numbered in
    first-use order as the quotient of the coproduct numbers its classes.
    The last ``An.size`` labels are An's own, a permutation of its points."""
    acts = chain.acts
    # the image of chain member i in An is its link into i + 1 followed by
    # the image of member i + 1, built from the top down
    images = [tuple(acts[-1].elements)]
    for ln in reversed(chain.links):
        images.append(tuple(map(images[-1].__getitem__, ln.map)))
    return _canonical([y for img in reversed(images) for y in img])


def direct_limit(chain: DirectedChain):
    """The limit of the chain together with the legs from each chain member:
    the last act An relabelled along the labels of its own points
    (``limit_labels``, ``relabel``), and each leg a slice of the label
    vector.  L5.3 reads the limit alone and builds it from the same labels
    without the legs (``checkers._limit_act``)."""
    acts = chain.acts
    index = limit_labels(chain)
    limit = relabel(acts[-1], index[-acts[-1].size:])
    legs = []
    off = 0
    for x in acts:
        legs.append(ActHom(x, limit, index[off:off + x.size]))
        off += x.size
    return limit, legs


# ---------------------------------------------------------------------------
# injectivity deciders


def _extends_along(Q: FiniteAct, big: FiniteAct, mask: int, f: ActHom) -> bool:
    """One extension search for one map: the per-map oracle path."""
    incl_members = mask_members(mask)
    partial = {incl_members[i]: f.map[i] for i in range(len(incl_members))}
    return hom_extension_exists(Q, big, partial)


def _restrictions(Q: FiniteAct, big: FiniteAct, mask: int) -> list:
    """The restriction to the subact ``mask`` of every map big -> Q, as a
    list of tuples over the subact's members, one entry per map.

    A map from the subact extends to big exactly when it occurs in this list,
    and the number of times it occurs is its number of extensions, so every
    extension question along a subact inclusion is answered from it."""
    members = mask_members(mask)
    maps = all_homs(big, Q).maps
    if len(members) == 1:
        a, = members
        return [(fmap[a],) for fmap in maps]
    return list(map(itemgetter(*members), maps))


# how the maps from a subact into Q extend to big: some map does not extend,
# every map extends, or every map extends in exactly one way
SOME_FAIL, ALL_EXTEND, ALL_UNIQUE = 0, 1, 2


@memo_on(3)
def _extension_kind(Q: FiniteAct, big: FiniteAct, mask: int, universe) -> int:
    """SOME_FAIL, ALL_EXTEND or ALL_UNIQUE for the maps from the subact
    ``mask`` of big into Q, decided once per universe from the restrictions.

    The answer does not depend on a radical, so every radical and both
    relative deciders (criterion and universe), plain injectivity and the
    orthogonality test share it.  Every restriction is a map from the
    subact, so all maps extend when each occurs among the restrictions, and
    uniquely when, moreover, there are no more restrictions than maps."""
    restrictions = _restrictions(Q, big, mask)
    sub, _ = subact_act_by_mask(big, mask)
    maps = all_homs(sub, Q).maps
    present = set(restrictions)
    if any(fmap not in present for fmap in maps):
        return SOME_FAIL
    return ALL_UNIQUE if len(restrictions) == len(maps) else ALL_EXTEND


def _maps_extend(Q: FiniteAct, big: FiniteAct, masks, universe) -> bool:
    """Does every map into Q from each of the subacts of big (given as masks)
    extend to big?"""
    return all(_extension_kind(Q, big, mask, universe) for mask in masks)


def baer_tests(r: Radical, Q: FiniteAct, universe) -> bool:
    """Extension tests along dense subacts of the cyclic acts."""
    return all(
        _maps_extend(Q, cyc, dense_subact_masks(r, cyc), universe)
        for cyc in universe.cyclic_acts(Q.monoid)
    )


@memo_on(2)
def criterion_r_injective(r: Radical, Q: FiniteAct, universe) -> bool:
    """Injectivity relative to the radical by the Baer-Skornjakov criterion:
    Q has a zero and passes ``baer_tests``.  The criterion holds for a
    zero-hereditary radical only, so any other raises ModeUnavailable."""
    if not classify_radical(r, universe).zero_hereditary:
        raise ModeUnavailable(
            f"{r.name} is not zero-hereditary on this universe"
        )
    return bool(zeros(Q)) and baer_tests(r, Q, universe)


@memo_on(2)
def universe_r_injective(r: Radical, Q: FiniteAct, universe) -> bool:
    """Injectivity relative to the radical by the definition, inside the
    universe: extension tests along every dense mono between universe acts.
    A mono A -> B with image M poses exactly the extension problems of the
    inclusion M -> B against the homomorphisms M -> Q, so images are
    enumerated directly."""
    return all(
        _maps_extend(Q, big, dense_subact_masks(r, big), universe)
        for big in universe.acts_over(Q.monoid)
    )


@memo_on(2)
def is_orthogonal_r_injective(r: Radical, Q: FiniteAct, universe) -> bool:
    """Injective with a unique extension for every instance in the universe:
    restricting the maps big -> Q to each dense subact is a bijection onto
    the maps from the subact."""
    return all(
        _extension_kind(Q, big, mask, universe) == ALL_UNIQUE
        for big in universe.acts_over(Q.monoid)
        for mask in dense_subact_masks(r, big)
    )


@memo_on(0)
def _large_masks(universe, act: FiniteAct) -> tuple[int, ...]:
    """The large subacts of an act, as masks in ``subact_masks`` order,
    found once per universe: every injectivity test asks them of the same
    few cyclic acts."""
    return tuple(m for m in subact_masks(act) if is_large(act, m))


@memo_on(1)
def is_injective(Q: FiniteAct, universe) -> bool:
    """Baer criterion for plain injectivity: a zero must exist, and maps from
    large subacts of cyclic acts must extend."""
    return bool(zeros(Q)) and all(
        _maps_extend(Q, cyc, _large_masks(universe, cyc), universe)
        for cyc in universe.cyclic_acts(Q.monoid)
    )


def skornjakov_injective(Q: FiniteAct, universe) -> bool:
    """Independent full criterion: extension along every subact of every
    cyclic act (plus the zero requirement).

    Kept as a loop of its own, not built on ``_maps_extend``: it is the
    oracle that checker C7.9 compares ``is_injective`` against."""
    if not zeros(Q):
        return False
    for cyc in universe.cyclic_acts(Q.monoid):
        for mask in subact_masks(cyc):
            sub, _ = subact_act_by_mask(cyc, mask)
            for f in all_homs(sub, Q):
                if not _extends_along(Q, cyc, mask, f):
                    return False
    return True


def is_weakly_injective(Q: FiniteAct, universe) -> bool:
    """Extension along the subact inclusions of the left regular act."""
    reg = left_regular_act(Q.monoid)
    return _maps_extend(Q, reg, subact_masks(reg), universe)


@memo_on(2)
def r_injective_bounded(r: Radical, Q: FiniteAct, universe) -> bool:
    """Conjunction of every decidable necessary condition for injectivity
    relative to the radical's dense monos; used by hull search and by the
    checkers that need the unbounded notion.

    The zero requirement only applies when the radical class is closed under
    coproducts (otherwise a zero genuinely need not exist)."""
    if coproduct_closed_radical_class(r, Q.monoid) and not zeros(Q):
        return False
    return baer_tests(r, Q, universe) and universe_r_injective(r, Q, universe)


# ---------------------------------------------------------------------------
# hull search


def extension_acts(act: FiniteAct, size: int):
    """The acts of the given size that hold the act on their first points,
    one per orbit under the relabellings of the other points: the least
    table of each orbit, in generation order (``act_tables``)."""
    for table in act_tables(act.monoid, size, prefix=act):
        yield FiniteAct(act.monoid, table)


def _first_extension(act: FiniteAct, universe, accept, largest=False):
    """The first extension act up to ``universe.hull_bound`` points, by size
    and then table order, that ``accept`` takes, or None.  With ``largest``
    the sizes go from the bound down, so the answer is the first in table
    order of the largest size that has one.

    Only the least table of each relabelling orbit over the act is walked
    (``extension_acts``).  Every property a search accepts on (large,
    injective, r-essential, r-injective) holds on a whole orbit, so the
    first table accepted in the full walk is the least of its orbit, and
    the answer is the same."""
    sizes = range(act.size, universe.hull_bound + 1)
    for size in reversed(sizes) if largest else sizes:
        for ext in extension_acts(act, size):
            if accept(ext):
                return ext
    return None


def injective_hull(act: FiniteAct, universe) -> FiniteAct:
    """Smallest injective extension in which the act sits large, with the
    act on its first ``act.size`` points; unique up to isomorphism over the
    act, searched by size then table order."""
    found = _hull_search(act, universe)
    if found is None:
        raise BoundExceeded(
            f"no injective hull within {universe.hull_bound} points for a "
            f"{act.size}-point act"
        )
    return found


@memo_on(1)
def _hull_search(act: FiniteAct, universe):
    prefix_mask = act.full_mask()
    return _first_extension(act, universe, lambda ext: is_large(
        ext, prefix_mask) and is_injective(ext, universe))


def closure_in_hull(r: Radical, act: FiniteAct, universe) -> FiniteAct:
    """The closure of the act inside its injective hull, as an act that
    holds the act on its first ``act.size`` points."""
    hull = injective_hull(act, universe)
    inner, _ = subact_act_by_mask(
        hull, closure_mask(r, hull, act.full_mask())
    )
    return inner


def r_injective_hull(r: Radical, act: FiniteAct, universe) -> FiniteAct:
    """Relative hull: the closure of the act inside its injective hull,
    which must be injective and an essential dense extension of the act.

    Defined for a radical that is Kurosh-Amitsur on the universe; for any
    other, ModeUnavailable (``maximal_r_essential_extension`` is the bounded
    substitute).
    """
    if not classify_radical(r, universe).kurosh_amitsur:
        raise ModeUnavailable(
            f"{r.name} is not Kurosh-Amitsur on this universe"
        )
    inner = closure_in_hull(r, act, universe)
    essential = is_r_essential(r, inner, act.full_mask())
    if not r_injective_bounded(r, inner, universe):
        raise PostconditionError("closure of the hull is not injective")
    if not essential:
        raise PostconditionError("closure of the hull is not an essential "
                                 "dense extension")
    return inner


def maximal_r_essential_extension(r: Radical, act: FiniteAct,
                                  universe) -> FiniteAct:
    """Bounded search for a size-maximal extension in which the act is dense
    and large: the first in table order of the largest size that has one."""
    mask = act.full_mask()
    best = _first_extension(
        act, universe, lambda ext: is_r_essential(r, ext, mask), largest=True
    )
    if best is None:
        raise BoundExceeded("no large dense extension within the bound")
    return best


def minimal_r_injective_extension(r: Radical, act: FiniteAct, universe):
    """The smallest extension passing ``r_injective_bounded``; deliberately
    independent of the closure construction, as the oracle that checker
    P7.1 compares ``r_injective_hull`` against."""
    found = _first_extension(
        act, universe, lambda ext: r_injective_bounded(r, ext, universe)
    )
    if found is None:
        raise BoundExceeded("no injective extension within the bound")
    return found


def iso_over_source(act: FiniteAct, q1: FiniteAct, q2: FiniteAct) -> bool:
    """Is there an isomorphism q1 -> q2 fixing the act embedded on the first
    indices of both?"""
    if q1.size != q2.size:
        return False
    partial = {a: a for a in act.elements}
    return bool(_hom_search(q1, q2, partial, True, limit=1))
